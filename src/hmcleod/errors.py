"""Exception and warning types shared across the package."""


class HmcleodError(Exception):
    """Base class for all package errors."""


# --- branch / region machinery ---

class OnCut(HmcleodError):
    """Evaluation point lies on (or too close to) a branch cut."""


class OnCutWarning(UserWarning):
    """Input on a branch cut; the plus-side boundary value is returned."""


class WrongRegion(HmcleodError):
    """Operation called for a point in the wrong region of the x-plane."""


class TraceFailure(HmcleodError):
    """S(x) could not be computed, or a boundary row did not converge."""


# --- endpoint system ---

class NonConvergence(HmcleodError):
    """The endpoint Newton did not converge."""


class DegenerateEndpoints(HmcleodError):
    """Band endpoints collapsed, a cut crosses a band, or no straight leg leaves a chain end."""


class RealityViolation(HmcleodError):
    """omega or Omega is not real, or disagrees with its value from H at the chain ends."""


# --- periods / theta ---

class NormalizationFailure(HmcleodError):
    """No sign choice for the b-cycle gives a convergent theta parameter."""


class TruncationInsufficient(HmcleodError):
    """Theta-series truncation too short for the requested argument."""


class ThetaZero(HmcleodError):
    """A theta denominator in the asymptotic formula is (numerically) zero."""


class AssumptionViolated(HmcleodError):
    """The diagonal factor vanishes at Q instead of the off-diagonal one."""


# --- collocation ---

class NewtonDivergence(HmcleodError):
    """Damped Newton for the collocation system failed to make progress."""


class RegionViolation(HmcleodError):
    """Collocation segment leaves the pole-free region after scaling."""


class OutOfSegment(HmcleodError):
    """Evaluation point does not lie on the collocation segment."""


# --- Taylor / Pade vaulting ---

class Overflow(HmcleodError):
    """Taylor coefficients diverged (jet built too close to a pole)."""


class SingularSystem(HmcleodError):
    """Pade denominator system is rank deficient at every fallback order."""


class PathStall(HmcleodError):
    """Vault routine stopped removing targets for too many steps."""


class Uncovered(HmcleodError):
    """Query point is too far from every recorded Pade center."""


class PoleProximity(HmcleodError):
    """Pade denominator nearly vanishes at the query point.

    Carries the estimated pole location in ``pole_estimate``.
    """

    def __init__(self, message, pole_estimate=None):
        super().__init__(message)
        self.pole_estimate = pole_estimate
