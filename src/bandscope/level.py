"""Mean-level curves vs distance and the spherical-wave comparison.

Amplifications are relative to the reference distance of the series
measurement they are read from (0 dB there by construction). The
theoretical overlay is the inverse-distance law 20*log10(x_ref/x): +6.02 dB
per halving. A validity verdict names the smallest distance beyond which
every measured deviation stays inside a threshold; the rule is
suffix-based, so a late excursion (the "re-equalization" pattern)
invalidates closer limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, SingularityError
from .series import SeriesMeasurement
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
    """Mean level (dB FS) per distance of a checked series measurement;
    amplifications are relative to the level at its reference distance."""

    measured: SeriesMeasurement

    @property
    def reference_distance_cm(self) -> float:
        return self.measured.reference_distance_cm

    @property
    def levels(self) -> tuple[tuple[float, LevelDbfs], ...]:
        """(distance_cm, mean level), ascending by distance."""
        return tuple((m.distance_cm, m.level) for m in self.measured.measurements)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """(distance_cm, amplification_db); exactly 0.0 at the reference."""
        ref = self.measured.at_reference.level.value
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


def measured_level_curve(measured: SeriesMeasurement) -> LevelCurve:
    """Mean-level amplification of each recording relative to the reference.

    ``measured`` is what :meth:`MeasurementSeries.measure` returns, so its
    rules were checked when it was built. Invariant under any global gain
    applied to the whole series; the reference point is pinned to exactly
    0 dB.
    """
    return LevelCurve(measured)


def gap_curve(curve: LevelCurve) -> list[GapPoint]:
    """Measured minus theoretical amplification, per point.

    Negative gap: measurement sits below the 1/x law. Points at x = 0 get
    no gap instead of an extrapolation of the law.
    """
    ref = curve.reference_distance_cm
    out = []
    for distance, amp_db in curve.points:
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
