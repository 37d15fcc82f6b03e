"""Exception types raised across the package, and the one home of the
rules that turn a failed read or field conversion of an input file into one.

Every domain failure maps to one of these so callers (and the CLI) can
distinguish usage problems from broken input data. :func:`reading` names
the file once in what reading it raises, for :func:`read_input` (manifests,
specs, mappings) and for ``wavio``, where it makes every WAV failure a
:class:`LoadError`. :func:`check_path`, :func:`json_fields` and
:func:`json_number` are the one rules for a path, for the keys of an input
object and for a number a file or caller gives.
"""

import json
import math
import numbers
import os
from contextlib import contextmanager


class BandscopeError(Exception):
    """Base class for all domain errors."""


# --- signal / wav i/o ---

class LoadError(BandscopeError):
    """A WAV file cannot be opened, walked or decoded; names the file once."""


class WavFormatError(LoadError):
    """Malformed RIFF/WAVE container or chunk layout."""


class UnsupportedEncodingError(LoadError):
    """WAV encoding other than PCM16/PCM24 or float32."""


class EmptySignalError(BandscopeError):
    """Signal with zero samples where at least one is required."""


class SilenceError(BandscopeError):
    """All-zero signal where a level or balance is undefined (``check_not_silent``)."""


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


# --- input files: manifests, campaign specs, mapping files ---

def _finite(text: str) -> float:
    """A JSON float or NaN/Infinity constant as a float; ValueError unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def check_path(path, error: type[BandscopeError]) -> str | os.PathLike:
    """The one path rule: ``path``, which must be text or ``os.PathLike``,
    else ``error``. ``open`` takes a bool or an int for a file descriptor,
    which it would read or write and then close, stdout's among them."""
    if not isinstance(path, (str, os.PathLike)):
        raise error(f"a path must be text or os.PathLike, got {_shown(path)}")
    return path


@contextmanager
def reading(path: str | os.PathLike, error: type[BandscopeError]):
    """Name input file ``path``, once, in what reading it raises: a path
    that :func:`check_path` refuses is ``error`` before any file is opened,
    an ``OSError`` (missing, a directory, no permission) becomes ``error``
    worded ``cannot read (...)``, and a :class:`BandscopeError` becomes
    ``error`` unless it is one already, when it keeps its type."""
    check_path(path, error)
    try:
        yield
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except BandscopeError as exc:
        raise (type(exc) if isinstance(exc, error) else error)(f"{path}: {exc}") from exc


def read_input(path: str | os.PathLike, error: type[BandscopeError], as_json: bool = False):
    """The UTF-8 text of input file ``path``, or the JSON document it holds.
    A file that cannot be read (missing, a directory, no permission), is not
    text or is not JSON of finite numbers raises ``error`` naming it."""
    try:
        with reading(path, error), open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text, parse_constant=_finite, parse_float=_finite) if as_json else text
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
        raise error(f"{where}: {'missing key ' * isinstance(exc, KeyError)}{exc}") from exc
    except BandscopeError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _shown(value) -> str:
    """``value`` as JSON writes it, or as Python does where JSON cannot."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def json_fields(doc, table: dict, what: str) -> dict:
    """Field -> value of each key of object ``doc``, read in the order of
    ``table``: key -> (field, reader of the value and key). Raises
    :class:`InvalidInputError` unless ``doc`` is an object, naming each key
    not in ``table``: a misspelled key would leave its field at the default."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must be an object, got {_shown(doc)}")
    unknown = [key for key in doc if key not in table]
    if unknown:
        raise InvalidInputError(f"unknown {what} key{'s' * (len(unknown) > 1)} "
                                f"{', '.join(map(repr, unknown))} (known: {', '.join(table)})")
    return {name: read(doc[key], key) for key, (name, read) in table.items() if key in doc}


def json_text(value, name: str) -> str:
    """``value`` of field ``name``, which must be a string."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{name} must be a string, got {_shown(value)}")
    return value


def json_array(value, name: str) -> list:
    """``value`` of field ``name``, which must be a JSON array."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{name} must be an array, got {_shown(value)}")
    return value


def json_number(value, name: str) -> float:
    """``value`` of field ``name``, a real number (numpy's too) but not a bool
    or text, as a float; -0 reads as 0. The one rule for a number given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {_shown(value)}")
    try:
        return float(value) + 0.0
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None


def json_integer(value, name: str) -> int:
    """``value`` of field ``name``, a number with no fractional part."""
    if not json_number(value, name).is_integer():
        raise InvalidInputError(f"{name} must be a whole number, got {_shown(value)}")
    return int(value)
