"""Synthetic measurement campaigns with known ground truth.

A synthetic recording is the stimulus scaled by the exact inverse-distance
gain x_ref/x and a first-order directivity factor, optionally shaped by a
per-band distance profile (piecewise-linear gain breakpoints per subband).
:func:`load_campaign_spec` reads a spec file; :class:`SynthCampaignSpec`
checks every campaign rule but the bank's two, which :func:`synth_campaign`
checks. It evaluates the profile once into a (distance x band) table of dB
gains, builds the recordings from it and keeps it, with the stimulus' band
energies, as the :class:`GroundTruth`: the truth is what was injected. With
a profile, the stimulus' blocks are transformed once per campaign; every
split of it (one for the band energies of the truth, one per recording)
takes those block spectra and does only the bank's inverse transforms.

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
                     SingularityError, check_path, converting, json_fields, json_integer,
                     json_number, json_text, read_input)
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


def _angle(theta_rad, error: type[InvalidInputError | InvalidSpecError]) -> float:
    """``theta_rad`` by the number rule; ``error`` unless it is finite."""
    theta = json_number(theta_rad, "theta_rad")
    if not math.isfinite(theta):
        raise error(f"theta_rad must be finite, got {theta}")
    return theta


def directivity_gain(model: DirectivityModel, theta_rad: float) -> float:
    """Pattern gain at a finite incidence ``theta_rad``; periodic, unity on axis."""
    return model.m + (1.0 - model.m) * math.cos(_angle(theta_rad, InvalidInputError))


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
        if not isinstance(self.bands, dict):
            raise InvalidInputError(f"profile bands must be a mapping, got {self.bands!r}")
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
        object.__setattr__(self, "theta_rad", _angle(self.theta_rad, InvalidSpecError))
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
    path = Path(check_path(path, InvalidSpecError))
    doc = read_input(path, InvalidSpecError, as_json=True)
    with converting(InvalidSpecError, str(path)):
        fields = json_fields(doc, _SPEC_FIELDS, "spec")
        stimulus = fields.pop("stimulus")
        if isinstance(stimulus, StimulusSpec):
            stim_json, stimulus = stimulus.to_json(), gen_stimulus(stimulus)
        else:  # relative to the spec file; an absolute path stays as is
            stim_json, stimulus = stimulus, load_wav(path.parent / stimulus["file"])
        return SynthCampaignSpec(stimulus, **fields), {**doc, "stimulus": stim_json}


@dataclass(frozen=True, eq=False)  # == on arrays does not give a bool
class GroundTruth:
    """What a synthetic campaign injected: the read-only (distance x band) table of profile
    gains in dB, rows in the order of ``distances_cm``, no columns without a profile, and
    the stimulus' energy in each band. The x_ref/x and directivity gains are the spec's."""

    reference_distance_cm: float
    distances_cm: tuple[float, ...]
    gains_db: np.ndarray
    band_energy: np.ndarray

    def to_csv(self) -> str:
        """One row per (distance, band), bands numbered from 1."""
        return _csv_text(["band", "distance_cm", "injected_gain_db"],
                         ([str(b + 1), distance_text(d), gain]
                          for d, row in zip(self.distances_cm, self.gains_db.tolist())
                          for b, gain in enumerate(row)))

    def expected_delta(self, band_index: int, distance_cm: float) -> float:
        """Band ``band_index``'s weight delta at ``distance_cm``: its gain over the
        reference's, less the renormalization of weights that sum to one."""
        d, g = self.distances_cm, self.gains_db
        try:  # a band and a distance are matched by ==, 1.0 and True as 1
            i, b = d.index(distance_cm), range(g.shape[1]).index(band_index)
        except ValueError:
            raise KeyError((band_index, distance_cm)) from None
        totals = (self.band_energy * 10.0 ** (g / 10.0)).sum(axis=1)
        i_ref = d.index(self.reference_distance_cm)
        return float(g[i, b] - g[i_ref, b]) - 10.0 * math.log10(totals[i] / totals[i_ref])


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
    shaped.setflags(write=False)  # fresh, so Signal keeps it uncopied
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
    profile, distances = spec.profile, spec.distances_cm
    if profile is not None and bank is None:
        raise InvalidInputError("a campaign with a profile needs a filter bank")
    table = np.zeros((len(distances), 0 if profile is None else bank.n_bands))
    band_energy = np.zeros(table.shape[1])  # table: dB gain per (distance, band)
    if profile is not None:
        if max(profile.bands, default=-1) >= bank.n_bands:
            raise MappingMismatchError(f"profile addresses band {max(profile.bands) + 1} but "
                                       f"the bank has {bank.n_bands} bands")
        for b, pts in profile.bands.items():
            table[:, b] = np.interp(distances, *zip(*pts))
        spectra = _block_spectra(bank, spec.stimulus)
        # before the recordings, so the stimulus' subbands never sit beside them
        band_energy = np.array([float(np.sum(s**2)) for s in
                                decompose(bank, spec.stimulus, _input_spectra=spectra)])

    signals = tuple(spec.stimulus.scaled(gain) if profile is None
                    else _shaped(bank, spec.stimulus, spectra, row, gain)
                    for row, gain in zip(table, spec.gains))
    series = MeasurementSeries((spec.microphone, spec.model.label, spec.stimulus_label),
                               distances, signals)
    for array in (table, band_energy):
        array.setflags(write=False)  # the truth is a frozen record
    return series, GroundTruth(spec.reference_distance_cm, distances, table, band_energy)
