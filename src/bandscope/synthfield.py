"""Synthetic measurement campaigns with known ground truth.

A synthetic recording is the stimulus scaled by the exact inverse-distance
gain x_ref/x and a first-order directivity factor, optionally shaped by a
per-band distance profile (piecewise-linear gain breakpoints per subband).
Profiles exist to exercise the analyzer: inject a known curve, recover it
through the weight-evolution chain. This is a test harness, not a physical
near-field model; the directivity factor is the classical broadband one.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidSpecError,
    MappingMismatchError,
    SingularityError,
)
from .filterbank import FilterBank, decompose
from .series import MeasurementEntry, MeasurementSeries
from .signal import Signal

__all__ = [
    "DirectivityModel",
    "DistanceProfile",
    "SynthCampaignSpec",
    "GroundTruth",
    "directivity_gain",
    "synth_recording",
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
    values hold (no extrapolation).
    """

    bands: dict[int, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        clean: dict[int, tuple[tuple[float, float], ...]] = {}
        for band, pts in self.bands.items():
            if int(band) < 0:
                raise InvalidInputError(f"band index must be >= 0, got {band}")
            pairs = tuple((float(d), float(g)) for d, g in pts)
            if not pairs:
                raise InvalidInputError(f"band {band}: empty breakpoint list")
            dists = [d for d, _ in pairs]
            if sorted(set(dists)) != dists:
                raise InvalidInputError(
                    f"band {band}: breakpoint distances must be unique ascending"
                )
            if not all(math.isfinite(d) and math.isfinite(g) for d, g in pairs):
                raise InvalidInputError(f"band {band}: breakpoints must be finite")
            clean[int(band)] = pairs
        object.__setattr__(self, "bands", clean)

    @property
    def max_band_index(self) -> int:
        return max(self.bands) if self.bands else -1

    def gain_db(self, band_index: int, distance_cm: float) -> float:
        pts = self.bands.get(band_index)
        if not pts:
            return 0.0
        dists = [d for d, _ in pts]
        gains = [g for _, g in pts]
        return float(np.interp(distance_cm, dists, gains))


def synth_recording(
    stimulus: Signal,
    distance_cm: float,
    x_ref_cm: float,
    model: DirectivityModel,
    theta_rad: float = 0.0,
    profile: DistanceProfile | None = None,
    bank: FilterBank | None = None,
) -> Signal:
    """One synthetic recording at ``distance_cm``.

    Output = stimulus * (x_ref/distance) * D(theta); with a profile, each
    subband is additionally scaled by its interpolated gain and the bands
    are resummed (complementary bank, so a flat profile is the identity).
    """
    if distance_cm <= 0:
        raise SingularityError(f"synthetic distance must be positive, got {distance_cm}")
    if x_ref_cm <= 0:
        raise SingularityError(f"reference distance must be positive, got {x_ref_cm}")
    gain = (x_ref_cm / distance_cm) * directivity_gain(model, theta_rad)
    if profile is None:
        return stimulus.scaled(gain)
    if bank is None:
        raise InvalidInputError("a profile needs a filter bank to apply per-band gains")
    if profile.max_band_index >= bank.n_bands:
        raise MappingMismatchError(
            f"profile addresses band {profile.max_band_index} but the bank has "
            f"{bank.n_bands} bands"
        )
    subbands = decompose(bank, stimulus)
    shaped = np.zeros(len(stimulus))
    for band, sub in enumerate(subbands):
        band_gain = 10.0 ** (profile.gain_db(band, distance_cm) / 20.0)
        shaped += band_gain * sub.samples
    return Signal(gain * shaped, stimulus.sample_rate)


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
        out = io.StringIO()
        out.write("band,distance_cm,injected_gain_db\n")
        for band, distance, gain in self.band_rows:
            out.write(f"{band + 1},{distance:g},{repr(gain)}\n")
        return out.getvalue()

    def expected_delta(self, band_index: int, distance_cm: float) -> float:
        for band, distance, delta in self.expected_weight_delta_db:
            if band == band_index and distance == distance_cm:
                return delta
        raise KeyError((band_index, distance_cm))


def synth_campaign(
    spec: SynthCampaignSpec, bank: FilterBank | None = None
) -> tuple[MeasurementSeries, GroundTruth]:
    """Generate one recording per distance plus the injected-gain record."""
    if spec.profile is not None and bank is None:
        raise InvalidInputError("a campaign with a profile needs a filter bank")
    d_gain = directivity_gain(spec.model, spec.theta_rad)
    if d_gain == 0:
        raise InvalidSpecError(
            f"directivity null at theta={spec.theta_rad:g} leaves no signal to analyze"
        )

    entries = []
    signals = []
    for distance in spec.distances_cm:
        entries.append(
            MeasurementEntry(
                distance_cm=distance,
                microphone=spec.microphone,
                directivity=spec.model.label,
                stimulus=spec.stimulus_label,
                path=None,
            )
        )
        signals.append(
            synth_recording(
                spec.stimulus,
                distance,
                spec.reference_distance_cm,
                spec.model,
                spec.theta_rad,
                spec.profile,
                bank,
            )
        )
    series = MeasurementSeries(entries=tuple(entries), recordings=tuple(signals))

    ref = spec.reference_distance_cm
    # negative gain is a polarity flip (bidirectional rear lobe); levels
    # follow the magnitude
    global_gain = tuple(
        (d, 20.0 * math.log10((ref / d) * abs(d_gain))) for d in spec.distances_cm
    )

    band_rows: list[tuple[int, float, float]] = []
    expected_delta: list[tuple[int, float, float]] = []
    expected_amp = []
    if spec.profile is not None and bank is not None:
        band_energy = np.array(
            [float(np.sum(s.samples**2)) for s in decompose(bank, spec.stimulus)]
        )
        gains_db = np.array(
            [
                [spec.profile.gain_db(b, d) for b in range(bank.n_bands)]
                for d in spec.distances_cm
            ]
        )
        # total energy after per-band scaling, per distance
        totals = (band_energy[None, :] * 10.0 ** (gains_db / 10.0)).sum(axis=1)
        i_ref = spec.distances_cm.index(ref)
        for i, d in enumerate(spec.distances_cm):
            renorm = 10.0 * math.log10(totals[i] / totals[i_ref])
            expected_amp.append(
                (d, 20.0 * math.log10(ref / d) + renorm)
            )
            for b in range(bank.n_bands):
                band_rows.append((b, d, float(gains_db[i, b])))
                expected_delta.append(
                    (b, d, float(gains_db[i, b] - gains_db[i_ref, b]) - renorm)
                )
    else:
        expected_amp = [(d, 20.0 * math.log10(ref / d)) for d in spec.distances_cm]

    truth = GroundTruth(
        reference_distance_cm=ref,
        global_gain_db=global_gain,
        expected_amplification_db=tuple(expected_amp),
        band_rows=tuple(band_rows),
        expected_weight_delta_db=tuple(expected_delta),
    )
    return series, truth
