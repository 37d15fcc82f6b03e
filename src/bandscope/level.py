"""Mean-level curves vs distance and the spherical-wave comparison.

Amplifications are relative to a reference distance (0 dB there by
construction). The theoretical overlay is the inverse-distance law
20*log10(x_ref/x): +6.02 dB per halving. A validity verdict names the
smallest distance beyond which every measured deviation stays inside a
threshold; the rule is suffix-based, so a late excursion (the
"re-equalization" pattern) invalidates closer limits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InvalidInputError, SingularityError
from .series import Measurement, check_reference
from .signal import LevelDbfs

__all__ = [
    "LevelCurve",
    "GapPoint",
    "ValidityVerdict",
    "check_threshold",
    "theoretical_amplification",
    "measured_level_curve",
    "gap_curve",
    "validity_limit",
]


@dataclass(frozen=True)
class LevelCurve:
    """Mean level (dB FS) per distance; amplifications are relative to the
    level at the reference distance."""

    levels: tuple[tuple[float, LevelDbfs], ...]  # (distance_cm, mean level)
    reference_distance_cm: float

    def __post_init__(self) -> None:
        dists = [d for d, _ in self.levels]
        if any(d < 0 for d in dists):
            raise InvalidInputError("distances must be >= 0 cm")
        if sorted(set(dists)) != dists:
            raise InvalidInputError("distances must be unique and ascending")
        if self.reference_distance_cm not in dists:
            raise InvalidInputError(
                f"reference distance {self.reference_distance_cm} cm is not among {dists}"
            )

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """(distance_cm, amplification_db); exactly 0.0 at the reference."""
        ref = dict(self.levels)[self.reference_distance_cm].value
        return tuple((d, level.value - ref) for d, level in self.levels)


@dataclass(frozen=True)
class GapPoint:
    """Measured-minus-theoretical deviation at one distance.

    At x = 0 the law diverges, so the point carries no gap value (None).
    """

    distance_cm: float
    gap_db: float | None


@dataclass(frozen=True)
class ValidityVerdict:
    """Outcome of the wave-validity check for one deviation curve."""

    limit_distance_cm: float | None
    threshold_db: float
    rule: str


def check_threshold(threshold_db: float) -> None:
    """Raise :class:`InvalidInputError` unless the threshold is positive and finite."""
    if not (math.isfinite(threshold_db) and threshold_db > 0):
        raise InvalidInputError(f"threshold must be positive and finite, got {threshold_db}")


def theoretical_amplification(x_cm: float, x_ref_cm: float) -> float:
    """Spherical-wave level gain at ``x_cm`` relative to ``x_ref_cm``: 20*log10(x_ref/x)."""
    if x_cm <= 0:
        raise SingularityError(f"1/x law diverges at distance {x_cm} cm")
    if x_ref_cm <= 0:
        raise SingularityError(f"reference distance must be positive, got {x_ref_cm}")
    return 20.0 * math.log10(x_ref_cm / x_cm)


def measured_level_curve(
    measurements: Sequence[Measurement], reference_distance_cm: float = 100.0
) -> LevelCurve:
    """Mean-level amplification of each recording relative to the reference.

    ``measurements`` are one series' records, ascending by distance, as
    :meth:`MeasurementSeries.measure` returns them. Invariant under any
    global gain applied to the whole series; the reference point is pinned
    to exactly 0 dB. A missing reference fails first, then a silent
    reference, then the nearest silent recording.
    """
    levels = tuple((m.distance_cm, m.level) for m in measurements)
    check_reference([d for d, _ in levels], reference_distance_cm)
    reference = float(reference_distance_cm)
    if dict(levels)[reference].is_silence:
        raise InvalidInputError(
            f"reference recording at {reference_distance_cm} cm is silent"
        )
    for distance, level in levels:
        if level.is_silence:
            raise InvalidInputError(
                f"recording at {distance} cm is silent; no level defined"
            )
    return LevelCurve(levels=levels, reference_distance_cm=reference)


def gap_curve(measured: LevelCurve) -> list[GapPoint]:
    """Measured minus theoretical amplification, per point.

    Negative gap: measurement sits below the 1/x law. Points at x = 0 get
    no gap instead of an extrapolation of the law.
    """
    ref = measured.reference_distance_cm
    out = []
    for distance, amp_db in measured.points:
        gap = None if distance <= 0 else amp_db - theoretical_amplification(distance, ref)
        out.append(GapPoint(distance_cm=distance, gap_db=gap))
    return out


def validity_limit(
    deviations: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    threshold_db: float = 1.0,
) -> ValidityVerdict:
    """Smallest distance past which every deviation stays within the threshold.

    ``deviations`` is (distance_cm, deviation_db) pairs; at least two are
    required. Every point at or beyond the returned limit satisfies
    |deviation| <= threshold; if even the farthest point violates, there is
    no limit. Suffix-based by design: a compliant stretch followed by a late
    excursion does not count.
    """
    check_threshold(threshold_db)
    pts = sorted((float(d), float(v)) for d, v in deviations)
    if len(pts) < 2:
        raise InvalidInputError(f"need at least 2 deviation points, got {len(pts)}")
    if len({d for d, _ in pts}) != len(pts):
        raise InvalidInputError("deviation distances must be unique")

    limit = None
    for distance, value in reversed(pts):
        if abs(value) <= threshold_db:
            limit = distance
        else:
            break
    rule = (
        f"every measured point at distance >= limit deviates by at most "
        f"{threshold_db:g} dB in magnitude"
    )
    return ValidityVerdict(limit_distance_cm=limit, threshold_db=threshold_db, rule=rule)
