"""Strain-limiting special Cosserat rod model.

Exact constitutive maps between director-frame loads and geometric
strains, their energies and Hessian, Euler-angle kinematics, and the
closed-form equilibrium families (straight and sheared tensile branches,
pure twist, helix, pure bending) with balance-law verification.

``import limrod`` loads ``errors`` and ``material`` alone, all that
``load_params`` and ``validate`` need. ``constitutive``, ``equilibrium``
and ``kinematics`` load at the first read of a name they define.
"""

from importlib import import_module as _import_module

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

_DEFERRED = {
    "constitutive": (
        "Loads", "StrainBounds", "Strains", "complementary_energy", "load_quad_form",
        "loads_from_strains", "loads_from_strains_batch", "stored_energy",
        "stored_energy_hessian", "strain_bounds", "strain_quad_form", "strains_from_loads",
        "strains_from_loads_batch", "symmetry_transform",
    ),
    "equilibrium": (
        "BalanceReport", "BranchPoint", "EquilibriumState", "NoBifurcation", "ThrustLimits",
        "branch_sweep", "check_balance", "helical_state", "pure_twist_state", "sheared_angle",
        "sheared_angle_limit", "sheared_angle_p2", "sheared_tensile_state", "shear_threshold",
        "state_from_configuration", "thrust_strain_limits", "trivial_tensile_state",
        "write_branch_csv",
    ),
    "kinematics": (
        "Configuration", "EulerAngles", "Frame", "FrameLoads", "darboux_components",
        "directors_from_euler", "frame_loads", "read_configuration_csv", "reconstruct",
        "reduced_residual", "shear_factors", "strains_from_euler", "write_configuration_csv",
    ),
}
# each deferred public name, submodules included, -> the submodule that defines it
_HOME = {name: module for module, names in _DEFERRED.items() for name in (module, *names)}

# the eager names (errors and material bound as submodules) and the deferred ones
__all__ = [name for name in globals() if not name.startswith("_")] + list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines a deferred name and bind it and its
    names here (PEP 562). Once every name is bound, this hook removes
    itself: CPython does not specialise attribute reads of a module that
    has one, so while it is there each ``limrod.X`` costs about 29 ns
    instead of 8."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    bound = globals()
    bound[home] = module
    bound.update((n, getattr(module, n)) for n in _DEFERRED[home])
    # once every name is bound no read reaches the hook; a read that missed
    # a name just before looks the hook up in the same C step, under the GIL
    if bound.keys() >= _HOME.keys():
        bound.pop("__getattr__", None)
    return bound[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
