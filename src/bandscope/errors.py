"""Exception types raised across the package.

Every domain failure maps to one of these so callers (and the CLI) can
distinguish usage problems from broken input data.
"""


class BandscopeError(Exception):
    """Base class for all domain errors."""


# --- signal / wav i/o ---

class WavFormatError(BandscopeError):
    """Malformed RIFF/WAVE container or chunk layout."""


class UnsupportedEncodingError(BandscopeError):
    """WAV encoding other than PCM16/PCM24 or float32."""


class EmptySignalError(BandscopeError):
    """Signal with zero samples where at least one is required."""


class SilenceError(BandscopeError):
    """All-zero signal where a level or balance is undefined."""


class CannotNormalizeError(BandscopeError):
    """Normalization target unreachable (all-zero input)."""


# --- filter bank ---

class InvalidLengthError(BandscopeError):
    """Tap count not an odd integer of sufficient size."""


class InvalidMappingError(BandscopeError):
    """Band edges not a valid partition of [0, Nyquist]."""


class RateMismatchError(BandscopeError):
    """Sample rates of two inputs differ where they must agree."""


class MappingMismatchError(BandscopeError):
    """Two results or objects built from different band mappings."""


# --- analysis ---

class MissingReferenceError(BandscopeError):
    """Series does not contain the reference distance."""


class MissingDistanceError(BandscopeError):
    """Series does not contain the requested distance."""


class DuplicateDistanceError(BandscopeError):
    """Two recordings at the same distance within one series."""


class SingularityError(BandscopeError):
    """Distance at or below zero where the 1/x law diverges."""


class InvalidInputError(BandscopeError):
    """Degenerate or out-of-contract argument values."""


# --- stimuli ---

class InvalidFrequencyError(BandscopeError):
    """Sine frequency outside (0, Nyquist)."""


class InsufficientDataError(BandscopeError):
    """Signal too short for the requested spectral estimate."""


# --- campaign ---

class InvalidSpecError(BandscopeError):
    """Campaign or manifest specification is structurally invalid."""


class ManifestError(BandscopeError):
    """Manifest file missing, unparsable, or schema-violating."""


class LoadError(BandscopeError):
    """A recording a series lists cannot be read or decoded; names the file."""
