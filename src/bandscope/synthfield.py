"""Synthetic measurement campaigns with known ground truth.

A synthetic recording is the stimulus scaled by the exact inverse-distance
gain x_ref/x and a first-order directivity factor, optionally shaped by a
per-band distance profile (piecewise-linear gain breakpoints per subband).
:func:`synth_campaign` is the one place where a campaign's gains are
decided: it checks every rule before it synthesizes a recording, evaluates
the profile once into a (distance x band) table of dB gains, and builds
both the recordings and the :class:`GroundTruth` from that table, so the
truth is what was injected by construction.

Profiles exist to exercise the analyzer: inject a known curve, recover it
through the weight-evolution chain. This is a test harness, not a physical
near-field model; the directivity factor is the classical broadband one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, MappingMismatchError, SilenceError
from .filterbank import FilterBank, decompose
from .series import MeasurementEntry, MeasurementSeries, distance_text
from .signal import Signal, check_level, db_to_gain

__all__ = [
    "DirectivityModel",
    "DistanceProfile",
    "SynthCampaignSpec",
    "GroundTruth",
    "directivity_gain",
    "synth_campaign",
]


@dataclass(frozen=True)
class DirectivityModel:
    """First-order directivity: gain(theta) = m + (1-m)*cos(theta).

    m = 1 omnidirectional, m = 0.5 cardioid, m = 0 bidirectional.
    """

    m: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise InvalidInputError(f"omnidirectional fraction must be in [0,1], got {self.m}")

    @classmethod
    def omni(cls) -> "DirectivityModel":
        return cls(1.0)

    @classmethod
    def cardioid(cls) -> "DirectivityModel":
        return cls(0.5)

    @classmethod
    def bidirectional(cls) -> "DirectivityModel":
        return cls(0.0)

    @property
    def label(self) -> str:
        named = {1.0: "omni", 0.5: "cardioid", 0.0: "bidirectional"}
        return named.get(self.m, f"m{self.m:g}")


def directivity_gain(model: DirectivityModel, theta_rad: float) -> float:
    """Pattern gain at incidence ``theta_rad``; periodic, unity on axis."""
    return model.m + (1.0 - model.m) * math.cos(theta_rad)


@dataclass(frozen=True)
class DistanceProfile:
    """Per-band gain breakpoints over distance, linearly interpolated.

    ``bands`` maps band index -> ((distance_cm, gain_db), ...). Bands
    without an entry are flat 0 dB. Outside the breakpoint range the end
    values hold (no extrapolation). Gains are levels for
    :func:`~bandscope.signal.check_level`. Messages number bands from 1, as
    ``ground_truth.csv`` does.
    """

    bands: dict[int, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        clean: dict[int, tuple[tuple[float, float], ...]] = {}
        for band, pts in self.bands.items():
            if int(band) < 0:
                raise InvalidInputError(f"band index must be >= 0, got {band}")
            pairs = tuple((float(d), float(g)) for d, g in pts)
            if not pairs:
                raise InvalidInputError(f"band {band + 1}: empty breakpoint list")
            dists = [d for d, _ in pairs]
            if sorted(set(dists)) != dists:
                raise InvalidInputError(
                    f"band {band + 1}: breakpoint distances must be unique ascending"
                )
            if not all(math.isfinite(d) for d in dists):
                raise InvalidInputError(f"band {band + 1}: breakpoint distances must be finite")
            for _, gain in pairs:
                check_level(gain, f"band {band + 1} gain")
            clean[int(band)] = pairs
        object.__setattr__(self, "bands", clean)

    def gain_db(self, band_index: int, distance_cm: float) -> float:
        pts = self.bands.get(band_index)
        return float(np.interp(distance_cm, *zip(*pts))) if pts else 0.0


@dataclass(frozen=True)
class SynthCampaignSpec:
    """Everything needed to generate one synthetic series."""

    stimulus: Signal
    distances_cm: tuple[float, ...]
    model: DirectivityModel = field(default_factory=DirectivityModel.omni)
    theta_rad: float = 0.0
    reference_distance_cm: float = 100.0
    profile: DistanceProfile | None = None
    microphone: str = "synthetic"
    stimulus_label: str = "stimulus"

    def __post_init__(self) -> None:
        dists = tuple(float(d) for d in self.distances_cm)
        if not dists:
            raise InvalidSpecError("campaign needs at least one distance")
        if not all(math.isfinite(d) and d > 0 for d in dists):
            raise InvalidSpecError(f"distances must be positive and finite: {dists}")
        if not math.isfinite(self.theta_rad):
            raise InvalidSpecError(f"theta_rad must be finite, got {self.theta_rad}")
        if len(set(dists)) != len(dists):
            raise InvalidSpecError(f"distances must be unique: {dists}")
        if self.reference_distance_cm not in dists:
            raise InvalidSpecError(
                f"reference distance {self.reference_distance_cm} cm must be one of "
                f"the campaign distances {dists}"
            )
        for d in dists:
            if not 0 < self.reference_distance_cm / d < math.inf:
                raise InvalidSpecError(
                    f"distance {distance_text(d)} cm: its x_ref/x gain "
                    f"{self.reference_distance_cm / d:g} is not finite and positive"
                )
        object.__setattr__(self, "distances_cm", tuple(sorted(dists)))


@dataclass(frozen=True)
class GroundTruth:
    """Injected gains of a synthetic campaign, for oracle comparison.

    ``band_rows`` holds the per-band profile gain at every (band, distance);
    ``expected_weight_delta_db`` additionally folds in the total-energy
    renormalization that a weight ratio sees when some bands are boosted
    (weights must sum to one, so boosting one band slightly lowers all).
    """

    reference_distance_cm: float
    global_gain_db: tuple[tuple[float, float], ...]  # (distance, 1/x * D gain)
    expected_amplification_db: tuple[tuple[float, float], ...]
    band_rows: tuple[tuple[int, float, float], ...]  # (band, distance, injected dB)
    expected_weight_delta_db: tuple[tuple[int, float, float], ...]

    def to_csv(self) -> str:
        rows = (f"{b + 1},{distance_text(d)},{gain!r}\n" for b, d, gain in self.band_rows)
        return "band,distance_cm,injected_gain_db\n" + "".join(rows)

    def expected_delta(self, band_index: int, distance_cm: float) -> float:
        for band, distance, delta in self.expected_weight_delta_db:
            if band == band_index and distance == distance_cm:
                return delta
        raise KeyError((band_index, distance_cm))


def _shaped(bank: FilterBank, stimulus: Signal, gains_db: np.ndarray, gain: float) -> Signal:
    """``stimulus`` with subband b scaled by ``gains_db[b]``, the bands
    resummed (complementary bank, so 0 dB everywhere is the identity) and
    the sum scaled by ``gain``. The subbands are freed when this returns."""
    subbands = decompose(bank, stimulus)
    shaped = np.zeros(len(stimulus))
    for gain_db, sub in zip(gains_db.tolist(), subbands):
        shaped += db_to_gain(gain_db) * sub
    return Signal(gain * shaped, stimulus.sample_rate)


def synth_campaign(
    spec: SynthCampaignSpec, bank: FilterBank | None = None
) -> tuple[MeasurementSeries, GroundTruth]:
    """Generate one recording per distance plus the injected-gain record.

    Every rule is checked before the first recording is synthesized. Each
    recording is the stimulus times (x_ref/x) * D(theta); with a profile,
    its subbands are first scaled by that distance's row of the gain table.
    """
    profile, ref, distances = spec.profile, spec.reference_distance_cm, spec.distances_cm
    if profile is not None and bank is None:
        raise InvalidInputError("a campaign with a profile needs a filter bank")
    d_gain = directivity_gain(spec.model, spec.theta_rad)
    if d_gain == 0:
        raise InvalidSpecError(
            f"directivity null at theta={spec.theta_rad:g} leaves no signal to analyze"
        )
    gains = [(ref / d) * d_gain for d in distances]
    if 0.0 in gains:
        raise InvalidSpecError(
            f"distance {distance_text(distances[gains.index(0.0)])} cm: its x_ref/x gain "
            f"times the directivity gain {d_gain:g} is 0"
        )
    if not spec.stimulus.samples.any():
        raise SilenceError("stimulus is silent: no recording of it has a level or a balance")
    table = None  # dB gain per (distance, band)
    if profile is not None:
        if max(profile.bands, default=-1) >= bank.n_bands:
            raise MappingMismatchError(
                f"profile addresses band {max(profile.bands) + 1} but the bank has "
                f"{bank.n_bands} bands"
            )
        table = np.array([[profile.gain_db(b, d) for b in range(bank.n_bands)]
                          for d in distances])
        # before the recordings, so the stimulus' subbands never sit beside them
        band_energy = np.array([float(np.sum(s**2)) for s in decompose(bank, spec.stimulus)])

    signals = []
    for i, gain in enumerate(gains):
        if table is None:
            signals.append(spec.stimulus.scaled(gain))
        else:
            signals.append(_shaped(bank, spec.stimulus, table[i], gain))
    entries = tuple(
        MeasurementEntry(distance_cm=d, microphone=spec.microphone,
                         directivity=spec.model.label, stimulus=spec.stimulus_label)
        for d in distances
    )
    series = MeasurementSeries(entries=entries, recordings=tuple(signals))

    # negative gain is a polarity flip (bidirectional rear lobe); levels
    # follow the magnitude
    global_gain = tuple((d, 20.0 * math.log10(abs(gain))) for d, gain in zip(distances, gains))
    expected_amp = [(d, 20.0 * math.log10(ref / d)) for d in distances]
    band_rows, expected_delta = [], []
    if table is not None:
        # total energy after per-band scaling, per distance
        totals = (band_energy[None, :] * 10.0 ** (table / 10.0)).sum(axis=1)
        i_ref = distances.index(ref)
        for i, d in enumerate(distances):
            renorm = 10.0 * math.log10(totals[i] / totals[i_ref])
            expected_amp[i] = (d, expected_amp[i][1] + renorm)
            for b in range(bank.n_bands):
                band_rows.append((b, d, float(table[i, b])))
                expected_delta.append((b, d, float(table[i, b] - table[i_ref, b]) - renorm))

    return series, GroundTruth(
        reference_distance_cm=ref,
        global_gain_db=global_gain,
        expected_amplification_db=tuple(expected_amp),
        band_rows=tuple(band_rows),
        expected_weight_delta_db=tuple(expected_delta),
    )
