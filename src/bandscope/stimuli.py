"""Test stimulus synthesis (sine, pink noise) and spectral verification.

Pink noise uses a staggered row-sum generator: row k holds a fresh random
value for 2**k samples, with update instants offset between rows so at most
a few rows change per sample. The summed spectrum follows 1/f down to about
sample_rate / 2**rows (~11 Hz at 44.1 kHz) and flattens below. Everything
is seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InsufficientDataError, InvalidFrequencyError, InvalidInputError
from .signal import Signal, check_level, check_sample_rate, db_to_gain, normalize_to_level

__all__ = ["StimulusSpec", "gen_sine", "gen_pink", "gen_stimulus", "spectral_slope"]

# spectral_slope averages at least this many Welch segments
_SLOPE_SEGMENTS = 8


@dataclass(frozen=True)
class StimulusSpec:
    """Parameters of a synthesized stimulus."""

    kind: str  # "pink" or "sine"
    duration: float  # seconds
    sample_rate: int = 44100
    target_level: float = -20.0  # dB FS, mean power
    frequency: float | None = None  # sine only, Hz
    seed: int | None = None  # pink only

    def __post_init__(self) -> None:
        if self.kind not in ("pink", "sine"):
            raise InvalidInputError(f"unknown stimulus kind {self.kind!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InvalidInputError(
                f"duration must be positive and finite, got {self.duration}"
            )
        check_sample_rate(self.sample_rate)
        check_level(self.target_level, "target level")
        if self.kind == "sine":
            if self.frequency is None:
                raise InvalidInputError("sine stimulus needs a frequency")
            if not 0 < self.frequency < self.sample_rate / 2:
                raise InvalidFrequencyError(
                    f"frequency must be in (0, {self.sample_rate / 2}), got {self.frequency}"
                )
        if self.kind == "pink" and not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise InvalidInputError(
                f"pink stimulus needs a non-negative integer seed, got {self.seed!r}"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "duration_s": self.duration,
            "sample_rate_hz": self.sample_rate,
            "target_level_dbfs": self.target_level,
            "frequency_hz": self.frequency,
            "seed": self.seed,
        }


def gen_sine(spec: StimulusSpec) -> Signal:
    """Sine at the spec frequency, trimmed to whole periods, at target level.

    Trimming to an integer period count makes the mean power independent of
    phase; the amplitude is then set from the measured power of the unit
    waveform, so the level lands on target to rounding precision.
    """
    if spec.kind != "sine":
        raise InvalidInputError(f"gen_sine called with kind {spec.kind!r}")
    fs, f = spec.sample_rate, float(spec.frequency)
    n_requested = round(spec.duration * fs)
    periods = math.floor(n_requested * f / fs)
    if periods < 1:
        raise InvalidInputError(
            f"duration {spec.duration}s holds no whole period of {f} Hz"
        )
    n = round(periods * fs / f)
    unit = np.sin(2.0 * np.pi * f * np.arange(n) / fs)
    rms = math.sqrt(float(np.mean(unit**2)))
    amplitude = db_to_gain(spec.target_level) / rms
    return Signal(amplitude * unit, fs)


def _pink_rows(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Staggered Voss/McCartney row sum, unit-ish variance."""
    out = rng.standard_normal(n)  # row 0 changes every sample
    for k in range(1, rows):
        step = 1 << k
        offset = 1 << (k - 1)
        n_vals = (n - offset + step - 1) // step + 1
        vals = rng.standard_normal(n_vals)
        idx = np.minimum((np.arange(n) + step - offset) // step, n_vals - 1)
        out += vals[idx]
    return out / math.sqrt(rows)


def gen_pink(spec: StimulusSpec) -> Signal:
    """Seeded pink noise at the target level.

    Power density falls 3 dB per octave through the audio band; below
    roughly sample_rate / 2**rows the spectrum flattens (documented
    generator property, about 11 Hz at 44.1 kHz).
    """
    if spec.kind != "pink":
        raise InvalidInputError(f"gen_pink called with kind {spec.kind!r}")
    fs = spec.sample_rate
    n = round(spec.duration * fs)
    if n < 1:
        raise InvalidInputError(f"duration {spec.duration}s is shorter than one sample")
    rows = max(4, math.ceil(math.log2(fs / 20.0)))
    rng = np.random.default_rng(spec.seed)
    x = _pink_rows(n, rows, rng)
    return normalize_to_level(Signal(x, fs), spec.target_level)


def gen_stimulus(spec: StimulusSpec) -> Signal:
    return gen_sine(spec) if spec.kind == "sine" else gen_pink(spec)


def spectral_slope(signal: Signal, f_lo: float, f_hi: float) -> float:
    """Least-squares spectral slope in dB per octave over [f_lo, f_hi].

    Averages a Welch power density into octave bands [f, 2f) and fits mean
    band power (dB) against log2 of the geometric band center. White noise
    fits ~0, pink ~-3, brown ~-6 dB/octave.
    """
    if not 0 < f_lo < f_hi < signal.sample_rate / 2:
        raise InvalidInputError(
            f"need 0 < f_lo < f_hi < Nyquist, got ({f_lo}, {f_hi})"
        )
    if f_hi < 2 * f_lo:
        raise InvalidInputError("range must span at least one octave")
    nperseg = min(4096, len(signal) // _SLOPE_SEGMENTS)
    if nperseg < 256 or signal.sample_rate / nperseg > f_lo:
        raise InsufficientDataError(
            f"signal too short for {_SLOPE_SEGMENTS} averaged segments resolving {f_lo} Hz"
        )
    # imported at its only use, so that importing bandscope does not load
    # scipy.signal, which costs every command about a second and 50 MB
    from scipy.signal import welch

    freqs, pxx = welch(signal.samples, fs=signal.sample_rate, nperseg=nperseg)

    log_centers = []
    band_db = []
    lo = f_lo
    while lo * 2.0 <= f_hi * (1.0 + 1e-9):
        hi = lo * 2.0
        mask = (freqs >= lo) & (freqs < hi)
        mean_power = float(pxx[mask].mean())
        if mean_power <= 0.0:
            raise InsufficientDataError(f"no spectral energy in {lo:g}-{hi:g} Hz")
        band_db.append(10.0 * math.log10(mean_power))
        log_centers.append(math.log2(math.sqrt(lo * hi)))
        lo = hi
    slope, _ = np.polyfit(log_centers, band_db, 1)
    return float(slope)
