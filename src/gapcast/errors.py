"""Exception hierarchy for gapcast.

Every error raised deliberately by the library derives from GapcastError, so
callers (and the CLI) can distinguish modelling problems from plain bugs.
"""


class GapcastError(Exception):
    """Base class for all gapcast errors."""


class InvalidParameterError(GapcastError):
    """A numeric or structural parameter is out of its admissible range."""


class DataShapeError(InvalidParameterError):
    """An input array has a shape or a value its reader cannot use.

    ``key`` names the input (``data.upper`` for an entry of a class's data)
    and ``detail`` says what was expected.
    """

    def __init__(self, key: str, detail: str):
        self.key, self.detail = key, detail
        super().__init__(f"{key}: {detail}")


class SingularDensityError(GapcastError):
    """A spectral density is singular or non-finite where it must be invertible.

    ``key`` names the density data that ``spectral.density_data`` found
    non-finite, and is None for a singularity found later.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


class InvalidPatternError(GapcastError):
    """A missing-observation pattern is malformed (overlap, wrong sign, ...)."""


class InsufficientLagError(GapcastError):
    """A Fourier coefficient table does not cover a requested lag."""


class NonInvertibleOperatorError(GapcastError):
    """The assembled operator matrix is numerically non-invertible."""


class DegenerateObservationsError(GapcastError):
    """The observation covariance matrix of the projection oracle is singular."""


class SimulationMethodError(GapcastError):
    """The process has no real path to simulate, or the path sampler cannot embed it."""


class InternalConsistencyError(GapcastError):
    """Two routes to the same quantity disagree beyond numerical tolerance."""


class InfeasibleClassError(GapcastError):
    """A density family member violates its declared class constraints."""


class UnsupportedClassError(GapcastError):
    """The requested density-class kind/dimension combination is not implemented."""


class ConfigError(GapcastError):
    """A run configuration failed to parse or validate.

    ``location`` carries a human-readable anchor (file, section/key path and,
    when available, a line number).
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
