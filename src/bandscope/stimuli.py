"""Test stimulus synthesis: sine and pink noise.

Pink noise uses a staggered row-sum generator: row k holds a fresh random
value for 2**k samples, with update instants offset between rows so at most
a few rows change per sample. The summed spectrum follows 1/f down to about
sample_rate / 2**rows (~11 Hz at 44.1 kHz) and flattens below. Everything
is seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidFrequencyError, InvalidInputError, json_fields, json_integer,
                     json_number, json_text)
from .signal import Signal, check_level, check_sample_rate, db_to_gain, normalize_to_level
from .wavio import check_header

__all__ = ["GENERATORS", "StimulusSpec", "gen_sine", "gen_pink", "gen_stimulus"]


def _or_null(read):
    """``read``, which also takes ``null`` for the field's default of None."""
    return lambda value, name: None if value is None else read(value, name)


# JSON key -> (StimulusSpec field, reader of the key's value), in the order
# messages list the keys
_JSON_FIELDS = {"kind": ("kind", json_text), "duration_s": ("duration", json_number),
                "sample_rate_hz": ("sample_rate", json_integer),
                "target_level_dbfs": ("target_level", json_number),
                "frequency_hz": ("frequency", _or_null(json_number)),
                "seed": ("seed", _or_null(json_integer))}


@dataclass(frozen=True)
class StimulusSpec:
    """Parameters of a synthesized stimulus."""

    kind: str  # a key of GENERATORS: "sine" or "pink"
    duration: float  # seconds
    sample_rate: int = 44100
    target_level: float = -20.0  # dB FS, mean power
    frequency: float | None = None  # sine only, Hz
    seed: int | None = None  # pink only

    def __post_init__(self) -> None:
        if self.kind not in GENERATORS:
            raise InvalidInputError(f"unknown stimulus kind {self.kind!r}")
        object.__setattr__(self, "duration", json_number(self.duration, "duration"))
        if self.frequency is not None:
            object.__setattr__(self, "frequency", json_number(self.frequency, "frequency"))
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InvalidInputError(f"duration must be positive and finite, got {self.duration}")
        object.__setattr__(self, "sample_rate", check_sample_rate(self.sample_rate))
        # float32 is the widest encoding written, so nothing is made that no WAV holds
        check_header(self.duration * self.sample_rate, self.sample_rate,
                     f"duration {self.duration}s at {self.sample_rate} Hz")
        object.__setattr__(self, "target_level", check_level(self.target_level, "target level"))
        if self.kind == "sine":
            if self.frequency is None:
                raise InvalidInputError("sine stimulus needs a frequency")
            if not 0 < self.frequency < self.sample_rate / 2:
                raise InvalidFrequencyError(f"frequency must be in (0, {self.sample_rate / 2}), "
                                            f"got {self.frequency}")
        if self.kind == "pink":
            seed = -1 if self.seed is None else json_integer(self.seed, "seed")
            if seed < 0:
                raise InvalidInputError(f"pink stimulus needs a non-negative integer seed, "
                                        f"got {self.seed!r}")
            object.__setattr__(self, "seed", seed)

    def to_json(self) -> dict:
        return {key: getattr(self, name) for key, (name, _) in _JSON_FIELDS.items()}

    @classmethod
    def from_json(cls, doc: dict) -> "StimulusSpec":
        """The spec a campaign spec's ``stimulus`` object of :meth:`to_json`'s
        keys describes. A key left out, or a ``null`` frequency or seed, takes
        its default (kind ``"pink"``, 2 s, else the field's). Numbers must be
        numbers, the rate and the seed whole; a value of another type, and
        any other key, is an :class:`InvalidInputError` naming it."""
        return cls(**{"kind": "pink", "duration": 2.0,
                      **json_fields(doc, _JSON_FIELDS, "stimulus")})


def gen_sine(spec: StimulusSpec) -> Signal:
    """Sine at the spec frequency, trimmed to whole periods, at target level.

    Trimming to an integer period count makes the mean power independent of
    phase; the amplitude is then set from the measured power of the unit
    waveform, so the level lands on target to rounding precision.
    """
    if spec.kind != "sine":
        raise InvalidInputError(f"gen_sine called with kind {spec.kind!r}")
    fs, f = spec.sample_rate, spec.frequency
    n_requested = round(spec.duration * fs)
    periods = math.floor(n_requested * f / fs)
    if periods < 1:
        raise InvalidInputError(f"duration {spec.duration}s holds no whole period of {f} Hz")
    n = round(periods * fs / f)
    unit = Signal(np.sin(2.0 * np.pi * f * np.arange(n) / fs), fs)
    return unit.scaled(db_to_gain(spec.target_level) / math.sqrt(unit.energy / n))


def _pink_rows(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Staggered Voss/McCartney row sum, unit-ish variance."""
    out = rng.standard_normal(n)  # row 0 changes every sample
    for k in range(1, rows):
        step = 1 << k
        offset = 1 << (k - 1)
        n_vals = (n - offset + step - 1) // step + 1
        vals = rng.standard_normal(n_vals)
        # sample i holds vals[(i + step - offset) // step]; n_vals * step
        # >= n + step - offset, so the repeat covers every sample
        out += np.repeat(vals, step)[step - offset:step - offset + n]
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


# stimulus kind -> its generator: the one list of kinds a spec and `synth` accept
GENERATORS = {"sine": gen_sine, "pink": gen_pink}


def gen_stimulus(spec: StimulusSpec) -> Signal:
    return GENERATORS[spec.kind](spec)
