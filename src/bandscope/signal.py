"""Waveform representation and dB FS metering.

A :class:`Signal` is an immutable mono waveform with a sample rate. Levels
are mean-power dB FS: ``10*log10(mean(s**2))``, so a full-scale DC signal
reads 0 dB FS and a full-scale sine reads -3.01 dB FS. All-zero signals
carry no level; they report the silence sentinel instead of ``-inf`` so
result tables stay serializable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CannotNormalizeError, EmptySignalError, InvalidInputError

__all__ = [
    "Signal",
    "LevelDbfs",
    "SILENCE",
    "mean_level_dbfs",
    "normalize_to_level",
    "db_to_gain",
    "check_sample_rate",
    "check_level",
]

# Levels and band gains stay within this many dB of 0 dB FS, hundreds of dB
# inside what a float32 WAV carries (about -758 to +770 dB FS), so no
# energy under- or overflows a float64 whatever gain distance adds.
LEVEL_LIMIT_DB = 300.0


def db_to_gain(db: float) -> float:
    """Amplitude gain for a dB figure (20*log10 convention)."""
    return 10.0 ** (db / 20.0)


def check_sample_rate(sample_rate: int) -> None:
    """Raise :class:`InvalidInputError` unless the rate is a positive whole number."""
    if not (0 < sample_rate < math.inf and sample_rate % 1 == 0):
        raise InvalidInputError(f"sample_rate must be a positive whole number, got {sample_rate}")


def check_level(level_db: float, what: str) -> None:
    """Raise :class:`InvalidInputError` naming ``what`` unless ``level_db``
    is within ±:data:`LEVEL_LIMIT_DB` (NaN and infinities are not)."""
    if not abs(level_db) <= LEVEL_LIMIT_DB:
        raise InvalidInputError(f"{what} must be within ±{LEVEL_LIMIT_DB:g} dB, got {level_db}")


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled mono waveform.

    ``samples`` is stored as a read-only float64 array; nominal full scale
    is [-1, 1] but values outside are allowed (clipped captures exist).
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidInputError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise EmptySignalError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("signal contains NaN or Inf samples")
        check_sample_rate(self.sample_rate)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return int(self.samples.size)

    def scaled(self, gain: float) -> "Signal":
        """New signal with every sample multiplied by ``gain``."""
        return Signal(self.samples * float(gain), self.sample_rate)

    def trimmed(self, n_samples: int) -> "Signal":
        """First ``n_samples`` samples as a new signal."""
        if n_samples < 1 or n_samples > self.samples.size:
            raise InvalidInputError(
                f"cannot trim to {n_samples} samples from {self.samples.size}"
            )
        return Signal(self.samples[:n_samples], self.sample_rate)


@dataclass(frozen=True, order=True)
class LevelDbfs:
    """Mean power level in dB relative to full scale.

    The all-zero case is the distinct silence sentinel (``value`` is -inf,
    ``is_silence`` is True); it formats and serializes as "silence".
    """

    value: float
    # order=True compares by value; -inf sorts below every finite level.

    @property
    def is_silence(self) -> bool:
        return self.value == -math.inf

    def __str__(self) -> str:
        return "silence" if self.is_silence else f"{self.value:.4f} dB FS"

    def to_json(self) -> float | None:
        """JSON-safe representation; silence maps to null."""
        return None if self.is_silence else self.value


SILENCE = LevelDbfs(-math.inf)


def mean_level_dbfs(signal: Signal) -> LevelDbfs:
    """Mean power of ``signal`` in dB FS.

    Scaling the samples by g shifts the result by exactly 20*log10(g).
    All-zero input returns the silence sentinel.
    """
    return level_of_power(float(np.mean(np.square(signal.samples))))


def level_of_power(power: float) -> LevelDbfs:
    """The level of a mean power in dB FS; the silence sentinel for 0, which
    is also what the mean of a positive but subnormal energy can underflow to."""
    return LevelDbfs(10.0 * math.log10(power)) if power > 0.0 else SILENCE


def normalize_to_level(signal: Signal, target: LevelDbfs | float) -> Signal:
    """Scale ``signal`` by a single positive gain so it measures ``target``.

    Raises :class:`CannotNormalizeError` for all-zero input (no gain can
    produce a finite level), :class:`InvalidInputError` for a target that
    :func:`check_level` rejects. Idempotent: re-normalizing to the same
    target is the identity up to rounding.
    """
    target_db = target.value if isinstance(target, LevelDbfs) else float(target)
    check_level(target_db, "target level")
    current = mean_level_dbfs(signal)
    if current.is_silence:
        raise CannotNormalizeError("cannot normalize an all-zero signal")
    gain = db_to_gain(target_db - current.value)
    return signal.scaled(gain)
