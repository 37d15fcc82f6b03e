"""Waveform representation and dB FS metering.

A :class:`Signal` is an immutable mono waveform, its rate and its energy.
Levels are mean-power dB FS: ``10*log10(mean(s**2))``, so a full-scale DC
signal reads 0 dB FS and a full-scale sine reads -3.01 dB FS. A level is a
float; all-zero signals read ``-inf``, which :func:`check_not_silent` refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySignalError, InvalidInputError, SilenceError, json_integer, json_number

__all__ = [
    "Signal",
    "mean_level_dbfs",
    "normalize_to_level",
    "db_to_gain",
    "check_sample_rate",
    "check_level",
    "check_not_silent",
]

# Levels and band gains stay within this many dB of 0 dB FS, hundreds of dB
# inside what a float32 WAV carries (about -758 to +770 dB FS), so no
# energy under- or overflows a float64 whatever gain distance adds.
LEVEL_LIMIT_DB = 300.0


def db_to_gain(db: float) -> float:
    """Amplitude gain for a dB figure (20*log10 convention)."""
    return 10.0 ** (db / 20.0)


def check_sample_rate(sample_rate: int) -> int:
    """The rate as an int; :class:`InvalidInputError` unless a positive whole number."""
    rate = json_number(sample_rate, "sample_rate")
    if not (0 < rate < math.inf and rate.is_integer()):
        raise InvalidInputError(f"sample_rate must be a positive whole number, got {sample_rate}")
    return int(rate)


def check_level(level_db: float, what: str) -> float:
    """``level_db``, a number within ±:data:`LEVEL_LIMIT_DB`, else :class:`InvalidInputError`."""
    level = json_number(level_db, what)
    if not abs(level) <= LEVEL_LIMIT_DB:
        raise InvalidInputError(f"{what} must be within ±{LEVEL_LIMIT_DB:g} dB, got {level}")
    return level


def check_not_silent(level_db: float, what: str) -> None:
    """The one silence rule: :class:`SilenceError` naming ``what`` if
    ``level_db`` is ``-inf``, which no level or balance is read against."""
    if level_db == -math.inf:
        raise SilenceError(f"{what} is silent")


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled mono waveform.

    ``samples`` is stored as a read-only float64 array; nominal full scale
    is [-1, 1] but values outside are allowed (clipped captures exist).
    A read-only contiguous array whose memory is its own or a read-only
    array's is kept as given, as no one writes through it; any other is copied.
    ``energy``, the sum of squares, is ``inf`` where that overflows a float64.
    """

    samples: np.ndarray
    sample_rate: int
    energy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidInputError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise EmptySignalError("signal must contain at least one sample")
        # not np.dot: BLAS's threads keep spinning after it returns, taking the workers' cores
        with np.errstate(over="ignore"):
            energy = float(np.sum(np.square(arr)))
        if not math.isfinite(energy) and not np.all(np.isfinite(arr)):  # not overflow alone
            raise InvalidInputError("signal contains NaN or Inf samples")
        object.__setattr__(self, "sample_rate", check_sample_rate(self.sample_rate))
        owner = arr if arr.base is None else arr.base  # the array holding the memory
        if arr.flags.writeable or not (arr.flags.c_contiguous and isinstance(owner, np.ndarray)
                                       and owner.base is None and not owner.flags.writeable):
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "energy", energy)

    def __len__(self) -> int:
        return int(self.samples.size)

    def scaled(self, gain: float) -> "Signal":
        """New signal with every sample multiplied by ``gain``."""
        samples = self.samples * json_number(gain, "gain")
        samples.setflags(write=False)  # fresh, so Signal keeps it uncopied
        return Signal(samples, self.sample_rate)

    def trimmed(self, n_samples: int) -> "Signal":
        """First ``n_samples``, a whole number, as a new signal that shares them."""
        n_samples = json_integer(n_samples, "sample count")
        if n_samples < 1 or n_samples > self.samples.size:
            raise InvalidInputError(f"cannot trim to {n_samples} samples from {self.samples.size}")
        return Signal(self.samples[:n_samples], self.sample_rate)


def mean_level_dbfs(signal: Signal) -> float:
    """Mean power of ``signal`` in dB FS; sum / n is how np.mean divides.

    Scaling the samples by g shifts the result by exactly 20*log10(g).
    All-zero input reads ``-inf``; input whose energy overflows, ``inf``.
    """
    return level_of_power(signal.energy / len(signal))


def level_of_power(power: float) -> float:
    """The level of a mean power in dB FS; ``-inf`` for 0, which is also
    what the mean of a positive but subnormal energy can underflow to."""
    return 10.0 * math.log10(power) if power > 0.0 else -math.inf


def check_energy(signal: Signal) -> None:
    """Refuse a signal whose energy overflows: no gain or filter of it is defined."""
    if signal.energy == math.inf:
        raise InvalidInputError("signal energy overflows a float64")


def normalize_to_level(signal: Signal, target: float) -> Signal:
    """Scale ``signal`` by a single positive gain so it measures ``target`` dB FS.

    Raises :class:`SilenceError` for all-zero input (no gain can produce a
    finite level), :class:`InvalidInputError` for an energy that overflows
    or a target that :func:`check_level` rejects, which reads it. Idempotent:
    re-normalizing to the same target is the identity up to rounding.
    """
    target = check_level(target, "target level")
    check_energy(signal)
    current = mean_level_dbfs(signal)
    check_not_silent(current, "signal to normalize")
    return signal.scaled(db_to_gain(target - current))
