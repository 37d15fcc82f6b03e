"""Measurement series: recordings of one stimulus/microphone pair by distance."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    DuplicateDistanceError,
    InvalidInputError,
    MissingDistanceError,
    MissingReferenceError,
    RateMismatchError,
)
from .signal import Signal

__all__ = ["MeasurementEntry", "MeasurementSeries", "check_unique_distances"]


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


@dataclass(frozen=True)
class MeasurementSeries:
    """Recordings sharing (microphone, directivity, stimulus), sorted by distance."""

    entries: tuple[MeasurementEntry, ...]
    signals: tuple[Signal, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.signals):
            raise InvalidInputError("one signal per entry required")
        if not self.entries:
            raise InvalidInputError("series must contain at least one entry")
        keys = {e.key for e in self.entries}
        if len(keys) > 1:
            raise InvalidInputError(f"series mixes labels: {sorted(keys)}")
        order = sorted(range(len(self.entries)), key=lambda i: self.entries[i].distance_cm)
        entries = tuple(self.entries[i] for i in order)
        signals = tuple(self.signals[i] for i in order)
        check_unique_distances(entries)
        rates = {s.sample_rate for s in signals}
        if len(rates) > 1:
            raise RateMismatchError(
                f"series {entries[0].key} mixes sample rates {sorted(rates)}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "signals", signals)

    @property
    def key(self) -> tuple[str, str, str]:
        return self.entries[0].key

    @property
    def label(self) -> str:
        return "_".join(self.key)

    @property
    def sample_rate(self) -> int:
        return self.signals[0].sample_rate

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(e.distance_cm for e in self.entries)

    def has_distance(self, distance_cm: float) -> bool:
        return float(distance_cm) in self.distances

    def require_reference(self, reference_distance_cm: float) -> None:
        """Raise :class:`MissingReferenceError` unless the series holds the
        reference distance."""
        if not self.has_distance(reference_distance_cm):
            raise MissingReferenceError(
                f"series {self.key} has no recording at reference "
                f"{reference_distance_cm} cm (distances: {self.distances})"
            )

    def signal_at(self, distance_cm: float) -> Signal:
        for entry, sig in zip(self.entries, self.signals):
            if entry.distance_cm == float(distance_cm):
                return sig
        raise MissingDistanceError(
            f"series {self.key} has no recording at {distance_cm} cm "
            f"(distances: {self.distances})"
        )

    def trimmed_to_common_length(self) -> "MeasurementSeries":
        """All recordings cut to the shortest length in the series.

        Weights are length-normalized ratios, but equal lengths keep the
        level curve comparable across distances.
        """
        n = min(len(s) for s in self.signals)
        if all(len(s) == n for s in self.signals):
            return self
        return MeasurementSeries(
            entries=self.entries,
            signals=tuple(s.trimmed(n) for s in self.signals),
        )
