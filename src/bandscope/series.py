"""Measurement series: recordings of one stimulus/microphone pair by distance.

A recording is an in-memory :class:`Signal` (synthetic series) or the
header of a WAV file, which is decoded only when the recording is measured.
Measuring a series is one pass: each recording is decoded, cut to the
series' common length, reduced to a :class:`Measurement`, and its samples
are dropped. The recordings are measured one per worker thread, so a
campaign of any size holds one recording per thread at a time. The pass
returns a :class:`SeriesMeasurement`, whose constructor checks the rules of
the chain. ``campaign.compare_to_stimulus`` measures its recording with the
same per-recording function, :func:`_measure`. Every set of distances in the
package is read by :func:`check_distances`, and its holder sorts it.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

from . import wavio
from .balance import Measurement, _check_one_mapping, spectral_balance
from .errors import (DuplicateDistanceError, InvalidInputError, MissingReferenceError,
                     RateMismatchError, json_number)
from .filterbank import FilterBank, _each
from .signal import Signal, check_not_silent
from .wavio import WavHeader

__all__ = [
    "MeasurementSeries",
    "SeriesMeasurement",
    "check_distances",
    "check_reference",
    "distance_text",
]


def distance_text(distance_cm: float) -> str:
    """A distance as file names and CSVs print it: ``:g`` when that reads
    back as the same number, else the shortest text that does, so distinct
    distances never print alike."""
    short = f"{distance_cm:g}"
    return short if float(short) == distance_cm else repr(float(distance_cm))


def check_distances(distances: Sequence[float], owner: str) -> tuple[float, ...]:
    """``distances`` read by the number rule, so an int and the equal float,
    or -0 and 0, are one distance. Raises :class:`InvalidInputError` unless
    each is a number, finite and >= 0, and :class:`DuplicateDistanceError`
    if one repeats; ``owner`` names what holds them in the message.

    The one rule for a set of distances, each kept sorted by its holder: a
    manifest's series (before any file is read), :class:`MeasurementSeries`,
    :class:`SeriesMeasurement`, a campaign spec, a profile and a verdict's.
    """
    dists = tuple(json_number(d, f"{owner}: distance") for d in distances)
    for d in dists:
        if not (math.isfinite(d) and d >= 0):
            raise InvalidInputError(f"{owner}: distance must be finite and >= 0 cm, got {d}")
    dup = sorted(d for d, n in Counter(dists).items() if n > 1)
    if dup:
        raise DuplicateDistanceError(f"{owner}: duplicate distance(s) {dup} cm")
    return dists


def _check_labels(key: tuple[str, str, str]) -> None:
    """Raise :class:`InvalidInputError` unless series ``key`` is a tuple or
    list of three nonempty strings: microphone, directivity and stimulus."""
    if not (isinstance(key, (tuple, list)) and len(key) == 3
            and all(isinstance(label, str) and label for label in key)):
        raise InvalidInputError(f"series {key}: microphone, directivity and stimulus labels "
                                "must be nonempty strings")


def check_reference(
    distances: Sequence[float], reference_distance_cm: float, owner: str = "measured series"
) -> float:
    """The reference distance by the number rule; raises
    :class:`MissingReferenceError` unless ``distances`` hold it. ``owner``
    names what holds them in the message."""
    reference = json_number(reference_distance_cm, "reference distance")
    if reference not in distances:
        raise MissingReferenceError(f"{owner} has no recording at reference {reference} cm "
                                    f"(distances: {tuple(distances)})")
    return reference


@dataclass(frozen=True)
class SeriesMeasurement:
    """One series' measurements, sorted by distance, and the reference distance
    the level curve and weight evolutions read them against. Its constructor is
    the one check of their rules: :func:`check_distances`, one band mapping, the
    reference among them, no silent recording (a silent reference reported first)."""

    reference_distance_cm: float
    measurements: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        check_distances([m.distance_cm for m in self.measurements], "measured series")
        _check_one_mapping(self.measurements)
        measured = tuple(sorted(self.measurements, key=lambda m: m.distance_cm))
        reference = check_reference([m.distance_cm for m in measured], self.reference_distance_cm)
        object.__setattr__(self, "measurements", measured)
        object.__setattr__(self, "reference_distance_cm", reference)
        check_not_silent(self.at_reference.level, f"reference recording at {reference} cm")
        for m in self.measurements:
            check_not_silent(m.level, f"recording at {m.distance_cm} cm")

    @property
    def at_reference(self) -> Measurement:
        return next(m for m in self.measurements if m.distance_cm == self.reference_distance_cm)


@dataclass(frozen=True)
class MeasurementSeries:
    """Recordings of one (microphone, directivity, stimulus) ``key``, one per
    distance in cm, sorted by distance.

    Each recording is a :class:`Signal` or the :class:`WavHeader` of the
    file that holds it.
    """

    key: tuple[str, str, str]
    distances: tuple[float, ...]
    recordings: tuple[Signal | WavHeader, ...]

    def __post_init__(self) -> None:
        _check_labels(self.key)
        key = tuple(self.key)
        if len(self.distances) != len(self.recordings):
            raise InvalidInputError(f"series {key}: one recording per distance required")
        if not self.recordings:
            raise InvalidInputError(f"series {key} must contain at least one recording")
        distances = check_distances(self.distances, f"series {key}")
        order = sorted(range(len(distances)), key=distances.__getitem__)
        recordings = tuple(self.recordings[i] for i in order)
        rates = {r.sample_rate for r in recordings}
        if len(rates) > 1:
            raise RateMismatchError(f"series {key} mixes sample rates {sorted(rates)}")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "distances", tuple(distances[i] for i in order))
        object.__setattr__(self, "recordings", recordings)

    @classmethod
    def from_files(
        cls, key: tuple[str, str, str], distances: Sequence[float],
        paths: Sequence[str | os.PathLike],
    ) -> "MeasurementSeries":
        """A series over WAV files, of which only the headers are read.

        Raises :class:`LoadError` naming the first file, in the given order,
        that cannot be opened or whose container is broken.
        """
        headers = tuple(wavio.read_header(path) for path in paths)
        return cls(key, distances, headers)

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

    def measure(self, bank: FilterBank, reference_distance_cm: float) -> SeriesMeasurement:
        """One pass over the recordings, one recording per worker thread:
        decode each once, cut it to the common length, take its level and
        spectral balance from those samples, keep the :class:`Measurement`
        and drop the samples. The measurements come back by distance.

        A series without the reference, or of another rate than the bank's,
        fails once, before any decode. A recording that cannot be decoded
        raises :class:`LoadError`, the one of the shortest distance where
        several cannot. The silence rules of :class:`SeriesMeasurement` apply once
        every recording is measured, so a decode failure is reported first.
        """
        check_reference(self.distances, reference_distance_cm, "series")
        bank.check_rate(self.sample_rate)
        n = self.common_length
        return SeriesMeasurement(reference_distance_cm, tuple(_each(
            lambda i: _measure(self.distances[i], self.recordings[i], n, bank),
            range(len(self.recordings)),
        )))


def _measure(distance_cm: float, recording: Signal | WavHeader, n: int,
             bank: FilterBank) -> Measurement:
    """The :class:`Measurement` at ``distance_cm`` of the first ``n`` samples of
    ``recording``, decoded here if a file, whose rate the caller has checked
    against the bank's; its digest covers the whole."""
    digest = hashlib.sha256()
    if isinstance(recording, Signal):
        digest.update(recording.samples)
        signal = recording
    else:
        signal = wavio.load_wav(recording.path, digest=digest)
    if len(signal) != n:
        signal = signal.trimmed(n)
    return replace(spectral_balance(signal, bank), distance_cm=distance_cm,
                   sha256=digest.hexdigest())
