"""Exception types raised across the package, and the one home of the
rules that turn a failed read or field conversion of an input file into one.

Every domain failure maps to one of these so callers (and the CLI) can
distinguish usage problems from broken input data.
"""

import json
import math
import os
from contextlib import contextmanager


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


# --- campaign ---

class InvalidSpecError(BandscopeError):
    """Campaign or manifest specification is structurally invalid."""


class ManifestError(BandscopeError):
    """Manifest file missing, unparsable, or schema-violating."""


class LoadError(BandscopeError):
    """A recording a series lists cannot be read or decoded; names the file."""


# --- input files: manifests, campaign specs, mapping files ---

def _finite(text: str) -> float:
    """A JSON float or NaN/Infinity constant as a float; ValueError unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def read_input(path: str | os.PathLike, error: type[BandscopeError], as_json: bool = False):
    """The UTF-8 text of input file ``path``, or the JSON document it holds.
    A file that cannot be read (missing, a directory, no permission), is not
    text or is not JSON of finite numbers raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text, parse_constant=_finite, parse_float=_finite) if as_json else text
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a text file ({exc})") from exc
    except ValueError as exc:  # not JSON, a number that is not finite, or too long an integer
        raise error(f"{path}: not valid JSON ({exc})") from exc


_FIELD_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError, InvalidInputError)


@contextmanager
def converting(error: type[BandscopeError], where: str):
    """Turn what converting the fields of an input document can raise (a
    missing key, a wrong type, a number that does not parse or overflows a
    float, a value the library rejects) into ``error``, prefixed by ``where``.
    Any other :class:`BandscopeError` keeps its type and gains the prefix."""
    try:
        yield
    except _FIELD_ERRORS as exc:
        raise error(f"{where}: {exc}") from exc
    except BandscopeError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def known_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    """ValueError naming each key of ``doc`` not in ``known``: a misspelled
    key would otherwise leave its field at the default."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(known)})")


def json_text(value, name: str) -> str:
    """``value`` of field ``name``, which must be a JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {json.dumps(value)}")
    return value


def json_number(value, name: str) -> float:
    """``value`` of field ``name``, a JSON number but not a bool; -0 reads as 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value) + 0.0


def json_integer(value, name: str) -> int:
    """``value`` of field ``name``, a JSON number with no fractional part."""
    if not json_number(value, name).is_integer():
        raise ValueError(f"{name} must be a whole number, got {json.dumps(value)}")
    return int(value)
