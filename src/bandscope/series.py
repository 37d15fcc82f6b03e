"""Measurement series: recordings of one stimulus/microphone pair by distance.

A recording is an in-memory :class:`Signal` (synthetic series) or the
header of a WAV file, which is decoded only when the recording is measured
or compared. Measuring a series is one pass: each recording in turn is
decoded, cut to the series' common length, reduced to a
:class:`Measurement`, and its samples are dropped, so a campaign of any
size holds one recording at a time. The pass returns a
:class:`SeriesMeasurement`, whose constructor checks the rules of the chain.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

from . import wavio
from .balance import BalanceResult, spectral_balance
from .errors import (
    BandscopeError,
    DuplicateDistanceError,
    InvalidInputError,
    LoadError,
    MissingDistanceError,
    MissingReferenceError,
    RateMismatchError,
    SilenceError,
)
from .filterbank import FilterBank
from .signal import SILENCE, LevelDbfs, Signal
from .wavio import WavHeader

__all__ = [
    "Measurement",
    "MeasurementEntry",
    "MeasurementSeries",
    "SeriesMeasurement",
    "check_reference",
    "check_unique_distances",
    "distance_text",
]


def distance_text(distance_cm: float) -> str:
    """A distance as file names and CSVs print it: ``:g`` when that reads
    back as the same number, else the shortest text that does, so distinct
    distances never print alike."""
    short = f"{distance_cm:g}"
    return short if float(short) == distance_cm else repr(float(distance_cm))


@dataclass(frozen=True)
class MeasurementEntry:
    """One recording position: file, distance and the grouping labels."""

    distance_cm: float
    microphone: str
    directivity: str
    stimulus: str
    path: str | None = None  # None for in-memory synthetic recordings

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance_cm) and self.distance_cm >= 0):
            raise InvalidInputError(
                f"distance must be finite and >= 0 cm, got {self.distance_cm}"
            )
        for label_name in ("microphone", "directivity", "stimulus"):
            if not getattr(self, label_name):
                raise InvalidInputError(f"{label_name} label must be nonempty")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.microphone, self.directivity, self.stimulus)


def check_unique_distances(entries: Sequence[MeasurementEntry]) -> None:
    """Raise :class:`DuplicateDistanceError` if two entries share a distance.

    Needs only the entries, so a manifest can be checked before any file
    is read.
    """
    dists = [e.distance_cm for e in entries]
    dup = sorted({d for d in dists if dists.count(d) > 1})
    if dup:
        raise DuplicateDistanceError(
            f"series {entries[0].key}: duplicate distance(s) {dup} cm"
        )


def check_reference(
    distances: Sequence[float], reference_distance_cm: float, owner: str = "measured series"
) -> None:
    """Raise :class:`MissingReferenceError` unless ``distances`` hold the
    reference distance; ``owner`` names what holds them in the message."""
    if float(reference_distance_cm) not in distances:
        raise MissingReferenceError(
            f"{owner} has no recording at reference {reference_distance_cm} cm "
            f"(distances: {tuple(distances)})"
        )


@dataclass(frozen=True)
class Measurement:
    """What the measuring pass keeps of one recording once its samples are dropped."""

    distance_cm: float
    balance: BalanceResult | None  # None for a silent recording: no balance exists
    sha256: str  # of the file's bytes, or of an in-memory signal's float64 samples

    @property
    def level(self) -> LevelDbfs:
        """Mean level of the analyzed samples; the silence sentinel if all zero."""
        return SILENCE if self.balance is None else self.balance.mean_level


@dataclass(frozen=True)
class SeriesMeasurement:
    """One series' measurements and the reference distance the level curve
    and the weight evolutions read them against. Its constructor is the one
    check of their rules: distances ascending, none twice; the reference
    among them; no silent recording, a silent reference reported first."""

    reference_distance_cm: float
    measurements: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        distances = [m.distance_cm for m in self.measurements]
        if sorted(set(distances)) != distances:
            raise InvalidInputError("distances must be unique and ascending")
        check_reference(distances, self.reference_distance_cm)
        reference = float(self.reference_distance_cm)
        object.__setattr__(self, "reference_distance_cm", reference)
        silent = [m.distance_cm for m in self.measurements if m.balance is None]
        if reference in silent:
            raise InvalidInputError(f"reference recording at {reference} cm is silent")
        if silent:
            raise InvalidInputError(f"recording at {silent[0]} cm is silent; no level defined")

    @property
    def at_reference(self) -> Measurement:
        return next(m for m in self.measurements if m.distance_cm == self.reference_distance_cm)


@dataclass(frozen=True)
class MeasurementSeries:
    """Recordings sharing (microphone, directivity, stimulus), sorted by distance.

    Each recording is a :class:`Signal` or the :class:`WavHeader` of the
    file that holds it.
    """

    entries: tuple[MeasurementEntry, ...]
    recordings: tuple[Signal | WavHeader, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.recordings):
            raise InvalidInputError("one recording per entry required")
        if not self.entries:
            raise InvalidInputError("series must contain at least one entry")
        keys = {e.key for e in self.entries}
        if len(keys) > 1:
            raise InvalidInputError(f"series mixes labels: {sorted(keys)}")
        order = sorted(range(len(self.entries)), key=lambda i: self.entries[i].distance_cm)
        entries = tuple(self.entries[i] for i in order)
        recordings = tuple(self.recordings[i] for i in order)
        check_unique_distances(entries)
        rates = {r.sample_rate for r in recordings}
        if len(rates) > 1:
            raise RateMismatchError(
                f"series {entries[0].key} mixes sample rates {sorted(rates)}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "recordings", recordings)

    @classmethod
    def from_files(
        cls, entries: Sequence[MeasurementEntry], paths: Sequence[str | os.PathLike]
    ) -> "MeasurementSeries":
        """A series over WAV files, of which only the headers are read.

        Raises :class:`LoadError` naming the first file, in the given order,
        that cannot be opened or whose container is broken.
        """
        headers = tuple(_reading(wavio.read_header, path) for path in paths)
        return cls(entries=tuple(entries), recordings=headers)

    @property
    def key(self) -> tuple[str, str, str]:
        return self.entries[0].key

    @property
    def sample_rate(self) -> int:
        return self.recordings[0].sample_rate

    @property
    def common_length(self) -> int:
        """Samples each recording is cut to before it is measured.

        Weights are length-normalized ratios, but equal lengths keep the
        level curve comparable across distances. A file's length comes from
        its header, so this is known before anything is decoded.
        """
        return min(len(r) for r in self.recordings)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(e.distance_cm for e in self.entries)

    def signal_at(self, distance_cm: float) -> Signal:
        """The whole recording at ``distance_cm``; a file is decoded now."""
        for entry, recording in zip(self.entries, self.recordings):
            if entry.distance_cm == float(distance_cm):
                return _signal(recording)
        raise MissingDistanceError(
            f"series {self.key} has no recording at {distance_cm} cm "
            f"(distances: {self.distances})"
        )

    def measure(self, bank: FilterBank, reference_distance_cm: float) -> SeriesMeasurement:
        """One pass over the recordings, by distance: decode each once, cut
        it to the common length, take its level and spectral balance from
        those samples, keep the :class:`Measurement` and drop the samples.

        A series without the reference distance fails before any decode. A
        recording that cannot be decoded raises :class:`LoadError`. The
        silence rules of :class:`SeriesMeasurement` apply once every
        recording is measured, so a decode failure is reported first.
        """
        check_reference(self.distances, reference_distance_cm, f"series {self.key}")
        n = self.common_length
        return SeriesMeasurement(reference_distance_cm, tuple(
            _measure(entry.distance_cm, recording, n, bank)
            for entry, recording in zip(self.entries, self.recordings)
        ))


def _reading(read, path, **kwargs):
    """``read(path)``, with any failure to read it turned into a
    :class:`LoadError` that names the file."""
    try:
        return read(path, **kwargs)
    except (OSError, BandscopeError) as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _signal(recording: Signal | WavHeader, digest=None) -> Signal:
    if isinstance(recording, Signal):
        if digest is not None:
            digest.update(recording.samples)
        return recording
    return _reading(wavio.load_wav, recording.path, digest=digest)


def _measure(
    distance_cm: float, recording: Signal | WavHeader, n: int, bank: FilterBank
) -> Measurement:
    digest = hashlib.sha256()
    signal = _signal(recording, digest)
    if len(signal) != n:
        signal = signal.trimmed(n)
    try:
        balance = spectral_balance(signal, bank)
    except SilenceError:
        balance = None
    return Measurement(distance_cm, balance, digest.hexdigest())
