"""Exception types shared across the rod model."""


class RodModelError(Exception):
    """Base class for all model-domain errors."""


class NonPositiveParameter(RodModelError):
    """A material constant that must be > 0 is not, or its square overflows."""

    def __init__(self, name: str, value: float, why: str = "must be > 0"):
        self.name = name
        self.value = value
        super().__init__(f"material parameter '{name}' {why}, got {value!r}")


class DefinitenessViolation(RodModelError):
    """beta^2*eta^2 - iota^2 <= 0 or inf, or a projection margin >= 1/2."""


class StrainOutOfRange(RodModelError):
    """Strain state lies outside the constitutive domain (quadratic form >= 1),
    or so near its edge, or at so large a gamma, that the stored-energy
    Hessian overflows."""


class LoadOutOfRange(RodModelError):
    """Loads with a NaN or infinite component, whose Q* is NaN, has an
    overflowing square root or underflows so that their strains overflow."""


class AngleOutOfRange(RodModelError, ValueError):
    """An Euler angle outside the chart: theta not in [0, pi], or a NaN or
    infinite phase (phi, psi) or angle rate. Also a ValueError, so that
    callers catching the chart's ValueError still catch it."""


class NonOrthonormalFrame(RodModelError):
    """A director frame fails orthonormality beyond tolerance."""


class BelowThreshold(RodModelError):
    """End thrust does not exceed the shearing bifurcation threshold."""


class NoBifurcationError(RodModelError):
    """The material constants admit no sheared tensile branch."""

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(f"no shearing bifurcation: {condition}")


class DegenerateCouple(RodModelError):
    """The helical family needs a nonzero transverse couple component, large
    enough that the helix radius is finite."""
