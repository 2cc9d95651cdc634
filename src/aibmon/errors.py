"""Exception types raised across the package."""


class AibmonError(Exception):
    """Base class for all package-specific errors."""


class MaskingWithZeroCorrelation(AibmonError):
    """Masking-coupled shifts need rho != 0: the coupling divides by beta."""


class SubgroupTooSmall(AibmonError):
    """A variance-requiring computation received a subgroup of size < 2."""


class DegenerateDesign(AibmonError):
    """Regression estimator needs positive sample variance of X."""


class InvalidLambda(AibmonError):
    """EWMA smoothing constant must lie in (0, 1]."""


class ExcessCensoring(AibmonError):
    """Too many replications hit the run-length cap for the summary to be trusted."""


class SingularSystem(AibmonError):
    """The Markov-chain linear system is numerically singular."""


class NoBracket(AibmonError):
    """Limit calibration could not bracket the target in-control ARL."""
