"""Strain-limiting special Cosserat rod model.

Exact constitutive maps between director-frame loads and geometric
strains, their energies and Hessian, Euler-angle kinematics, and the
closed-form equilibrium families (straight and sheared tensile branches,
pure twist, helix, pure bending) with balance-law verification.
"""

from .constitutive import (
    Loads,
    StrainBounds,
    Strains,
    complementary_energy,
    load_quad_form,
    loads_from_strains,
    loads_from_strains_batch,
    stored_energy,
    stored_energy_hessian,
    strain_bounds,
    strain_quad_form,
    strains_from_loads,
    strains_from_loads_batch,
    symmetry_transform,
)
from .equilibrium import (
    BalanceReport,
    BranchPoint,
    EquilibriumState,
    NoBifurcation,
    ThrustLimits,
    branch_sweep,
    check_balance,
    helical_state,
    pure_twist_state,
    sheared_angle,
    sheared_angle_limit,
    sheared_angle_p2,
    sheared_tensile_state,
    shear_threshold,
    state_from_configuration,
    thrust_strain_limits,
    trivial_tensile_state,
    write_branch_csv,
)
from .errors import (
    AngleOutOfRange,
    BelowThreshold,
    DefinitenessViolation,
    DegenerateCouple,
    LoadOutOfRange,
    NoBifurcationError,
    NonOrthonormalFrame,
    NonPositiveParameter,
    RodModelError,
    StrainOutOfRange,
)
from .kinematics import (
    Configuration,
    EulerAngles,
    Frame,
    FrameLoads,
    darboux_components,
    directors_from_euler,
    frame_loads,
    read_configuration_csv,
    reconstruct,
    reduced_residual,
    shear_factors,
    strains_from_euler,
    write_configuration_csv,
)
from .material import (
    DerivedModuli,
    MaterialParams,
    load_params,
    nondimensionalize,
    orientation_strong_bound,
    orientation_strong_ok,
    orientation_weak_ok,
    validate,
)

__version__ = "0.1.0"
