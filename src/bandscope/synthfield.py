"""Synthetic measurement campaigns with known ground truth.

A synthetic recording is the stimulus scaled by the exact inverse-distance
gain x_ref/x and a first-order directivity factor, optionally shaped by a
per-band distance profile (piecewise-linear gain breakpoints per subband).
:func:`load_campaign_spec` reads a spec file; :class:`SynthCampaignSpec`
checks every campaign rule but the bank's two, which :func:`synth_campaign`
checks. It evaluates the profile once into a (distance x band) table of dB
gains and builds both the recordings and the :class:`GroundTruth` from it,
so the truth is what was injected by construction. With a profile, the
stimulus' blocks are transformed once per campaign; every split of it (one
for the band energies of the truth, one per recording) takes those block
spectra and does only the bank's inverse transforms.

Profiles exist to exercise the analyzer: inject a known curve, recover it
through the weight-evolution chain. This is a test harness, not a physical
near-field model; the directivity factor is the classical broadband one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .campaign import _csv_text
from .errors import (InvalidInputError, InvalidSpecError, MappingMismatchError,
                     SingularityError, converting, json_fields, json_integer, json_number,
                     json_text, read_input)
from .filterbank import FilterBank, _block_spectra, decompose
from .level import theoretical_amplification
from .series import (MeasurementSeries, _check_labels, check_distances, check_reference,
                     distance_text)
from .signal import Signal, check_level, check_not_silent, db_to_gain, mean_level_dbfs
from .stimuli import StimulusSpec, gen_stimulus
from .wavio import load_wav

__all__ = [
    "DirectivityModel",
    "DistanceProfile",
    "SynthCampaignSpec",
    "GroundTruth",
    "directivity_gain",
    "load_campaign_spec",
    "synth_campaign",
]


@dataclass(frozen=True)
class DirectivityModel:
    """First-order directivity: gain(theta) = m + (1-m)*cos(theta).

    m = 1 omnidirectional, m = 0.5 cardioid, m = 0 bidirectional.
    """

    m: float

    def __post_init__(self) -> None:
        m = json_number(self.m, "omnidirectional fraction")
        if not 0.0 <= m <= 1.0:
            raise InvalidInputError(f"omnidirectional fraction must be in [0,1], got {m}")
        object.__setattr__(self, "m", m)

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

    ``bands`` maps band index, a whole number >= 0, -> ((distance_cm, gain_db),
    ...) in any order, the distances as :func:`~bandscope.series.check_distances`
    reads them; they are kept sorted. Bands without an entry are flat 0 dB.
    Outside the breakpoint range the end values hold (no extrapolation). Gains are levels for
    :func:`~bandscope.signal.check_level`. Messages number bands from 1, as
    ``ground_truth.csv`` does.
    """

    bands: dict[int, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        clean: dict[int, tuple[tuple[float, float], ...]] = {}
        for band, pts in self.bands.items():
            band = json_integer(band, "band index")
            if band < 0:
                raise InvalidInputError(f"band index must be an integer >= 0, got {band!r}")
            try:
                pairs = tuple((json_number(d, "distance"), g) for d, g in pts)
            except (TypeError, ValueError, InvalidInputError):
                raise InvalidInputError(f"band {band + 1}: breakpoints must be (distance_cm, "
                                        f"gain_db) pairs, got {pts!r}") from None
            if not pairs:
                raise InvalidInputError(f"band {band + 1}: empty breakpoint list")
            dists = check_distances([d for d, _ in pairs], f"band {band + 1}: breakpoint")
            gains = [check_level(g, f"band {band + 1} gain") for _, g in pairs]
            clean[band] = tuple(sorted(zip(dists, gains)))
        object.__setattr__(self, "bands", clean)

    def gain_db(self, band_index: int, distance_cm: float) -> float:
        pts = self.bands.get(band_index)
        return float(np.interp(distance_cm, *zip(*pts))) if pts else 0.0


@dataclass(frozen=True)
class SynthCampaignSpec:
    """Everything needed to generate one synthetic series. Its constructor
    checks every campaign rule that needs no bank: the labels and distances
    as :class:`MeasurementSeries` does, the reference among the distances,
    each x_ref/x gain finite and positive, no :attr:`gains` entry 0, and a
    stimulus that is not silent."""

    stimulus: Signal
    distances_cm: tuple[float, ...]
    model: DirectivityModel = field(default_factory=DirectivityModel.omni)
    theta_rad: float = 0.0
    reference_distance_cm: float = 100.0
    profile: DistanceProfile | None = None
    microphone: str = "synthetic"
    stimulus_label: str = "stimulus"

    def __post_init__(self) -> None:
        if not self.distances_cm:
            raise InvalidSpecError("campaign needs at least one distance")
        dists = check_distances(self.distances_cm, "campaign")
        _check_labels((self.microphone, self.model.label, self.stimulus_label))
        theta = json_number(self.theta_rad, "theta_rad")
        if not math.isfinite(theta):
            raise InvalidSpecError(f"theta_rad must be finite, got {theta}")
        object.__setattr__(self, "theta_rad", theta)
        reference = check_reference(dists, self.reference_distance_cm, "campaign")
        for d in dists:
            try:
                theoretical_amplification(d, reference)
            except SingularityError as exc:
                raise InvalidSpecError(f"distance {distance_text(d)} cm: {exc}") from None
        object.__setattr__(self, "distances_cm", tuple(sorted(dists)))
        object.__setattr__(self, "reference_distance_cm", reference)
        d_gain = directivity_gain(self.model, self.theta_rad)
        if d_gain == 0:
            raise InvalidSpecError(
                f"directivity null at theta={self.theta_rad:g} leaves no signal to analyze")
        for d, gain in zip(self.distances_cm, self.gains):
            if gain == 0:
                raise InvalidSpecError(f"distance {distance_text(d)} cm: its x_ref/x gain "
                                       f"times the directivity gain {d_gain:g} is 0")
        check_not_silent(mean_level_dbfs(self.stimulus), "stimulus")

    @property
    def gains(self) -> tuple[float, ...]:
        """(x_ref/x) * D(theta) at each distance; negative on a rear lobe."""
        d_gain = directivity_gain(self.model, self.theta_rad)
        return tuple((self.reference_distance_cm / d) * d_gain for d in self.distances_cm)


def _spec_profile(bands, name: str) -> DistanceProfile | None:
    """The spec's ``profile``, ``null`` or ``{}`` for none. Its keys number
    bands from 1 in ASCII digits, as ``ground_truth.csv`` does; any other
    key, one below 1 or one repeating a number (``"1"`` and ``"01"``) is an
    :class:`InvalidSpecError` naming it."""
    if bands is not None and not isinstance(bands, dict):
        raise TypeError(f"{name} must be an object, got {json.dumps(bands)}")
    by_index = {}
    for key, pts in (bands or {}).items():
        if not (key.isascii() and key.isdigit()):
            raise InvalidSpecError(f"profile key {key!r}: not a band number in ASCII digits")
        band = int(key)
        if band < 1 or band - 1 in by_index:
            why = "band numbers start at 1" if band < 1 else f"band {band} is given twice"
            raise InvalidSpecError(f"profile key {key!r}: {why}")
        by_index[band - 1] = pts  # whose numbers DistanceProfile reads
    return DistanceProfile(by_index) if by_index else None


def _spec_stimulus(doc, name: str) -> StimulusSpec | dict:
    """The spec's ``stimulus``: the :class:`StimulusSpec` its object
    describes, or, when it holds ``file``, the object, which holds only that."""
    if isinstance(doc, dict) and "file" in doc:
        return json_fields(doc, {"file": ("file", json_text)}, f"{name} file")
    return StimulusSpec.from_json(doc)


# spec key -> (SynthCampaignSpec field, reader of the key's value)
_SPEC_FIELDS = {
    "stimulus": ("stimulus", _spec_stimulus),
    "distances_cm": ("distances_cm",
                     lambda v, _: tuple(json_number(d, "each of distances_cm") for d in v)),
    "reference_distance_cm": ("reference_distance_cm", json_number),
    "directivity_m": ("model", lambda v, key: DirectivityModel(json_number(v, key))),
    "theta_rad": ("theta_rad", json_number),
    "microphone": ("microphone", json_text),
    "stimulus_label": ("stimulus_label", json_text),
    "profile": ("profile", _spec_profile),
}


def load_campaign_spec(path: str | os.PathLike) -> tuple[SynthCampaignSpec, dict]:
    """The campaign spec file ``path`` describes, and the document
    ``campaign_spec.json`` echoes: the spec with its stimulus as
    :meth:`StimulusSpec.to_json` writes it, or as ``{"file": ...}``, a WAV
    relative to the spec file, made once every field is read. A key left out
    takes the field's default. Every error names the file; a stimulus
    file's :class:`LoadError` names the spec file, then the WAV."""
    path = Path(path)
    doc = read_input(path, InvalidSpecError, as_json=True)
    with converting(InvalidSpecError, str(path)):
        fields = json_fields(doc, _SPEC_FIELDS, "spec")
        stimulus = fields.pop("stimulus")
        if isinstance(stimulus, StimulusSpec):
            stim_json, stimulus = stimulus.to_json(), gen_stimulus(stimulus)
        else:  # relative to the spec file; an absolute path stays as is
            stim_json, stimulus = stimulus, load_wav(path.parent / stimulus["file"])
        return SynthCampaignSpec(stimulus, **fields), {**doc, "stimulus": stim_json}


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
        return _csv_text(["band", "distance_cm", "injected_gain_db"],
                         ([str(b + 1), distance_text(d), gain] for b, d, gain in self.band_rows))

    def expected_delta(self, band_index: int, distance_cm: float) -> float:
        for band, distance, delta in self.expected_weight_delta_db:
            if band == band_index and distance == distance_cm:
                return delta
        raise KeyError((band_index, distance_cm))


def _shaped(bank: FilterBank, stimulus: Signal, spectra: np.ndarray,
            gains_db: np.ndarray, gain: float) -> Signal:
    """``stimulus`` with subband b scaled by ``gains_db[b]`` and the whole
    scaled by ``gain``. ``spectra`` are the stimulus' block spectra, made
    once per campaign, so its split here does no forward transform.

    The bank is complementary (the subbands sum to the stimulus), so the
    sum of scaled subbands is the stimulus plus (g_b - 1) times each
    subband whose gain is not 0 dB, formed in place on the subbands. A row
    that is 0 dB in every band gives exactly ``stimulus.scaled(gain)``.
    """
    shaped = np.array(stimulus.samples)
    for gain_db, sub in zip(gains_db.tolist(),
                            decompose(bank, stimulus, _input_spectra=spectra)):
        if gain_db != 0.0:
            sub *= db_to_gain(gain_db) - 1.0
            shaped += sub
    shaped *= gain
    return Signal(shaped, stimulus.sample_rate)


def synth_campaign(
    spec: SynthCampaignSpec, bank: FilterBank | None = None
) -> tuple[MeasurementSeries, GroundTruth]:
    """Generate one recording per distance plus the injected-gain record.

    The spec has checked every rule but the bank's two (a profile needs a
    bank, and only the bank's bands), checked here before the first
    recording is synthesized. Each recording is the stimulus times its entry
    of ``spec.gains``; with a profile, its subbands are first scaled by that
    distance's row of the gain table.
    """
    profile, ref, distances = spec.profile, spec.reference_distance_cm, spec.distances_cm
    if profile is not None and bank is None:
        raise InvalidInputError("a campaign with a profile needs a filter bank")
    gains = spec.gains
    table = None  # dB gain per (distance, band)
    if profile is not None:
        if max(profile.bands, default=-1) >= bank.n_bands:
            raise MappingMismatchError(f"profile addresses band {max(profile.bands) + 1} but "
                                       f"the bank has {bank.n_bands} bands")
        table = np.array([[profile.gain_db(b, d) for b in range(bank.n_bands)]
                          for d in distances])
        spectra = _block_spectra(bank, spec.stimulus)
        # before the recordings, so the stimulus' subbands never sit beside them
        band_energy = np.array([float(np.sum(s**2)) for s in
                                decompose(bank, spec.stimulus, _input_spectra=spectra)])

    signals = []
    for i, gain in enumerate(gains):
        if table is None:
            signals.append(spec.stimulus.scaled(gain))
        else:
            signals.append(_shaped(bank, spec.stimulus, spectra, table[i], gain))
    series = MeasurementSeries((spec.microphone, spec.model.label, spec.stimulus_label),
                               distances, tuple(signals))

    # negative gain is a polarity flip (bidirectional rear lobe); levels
    # follow the magnitude
    global_gain = tuple((d, 20.0 * math.log10(abs(gain))) for d, gain in zip(distances, gains))
    expected_amp = [(d, theoretical_amplification(d, ref)) for d in distances]
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
