"""Exception types raised across the package.

Invalid input raises the built-in ``ValueError``. The types here mark the
two faults that valid input can still meet: a numerically singular Markov
solve and a study whose replications hit the run-length cap too often.
"""


class AibmonError(Exception):
    """Base class for all package-specific errors."""


class ExcessCensoring(AibmonError):
    """Too many replications hit the run-length cap for the summary to be trusted."""


class SingularSystem(AibmonError):
    """The Markov-chain linear system is numerically singular."""
