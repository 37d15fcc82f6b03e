"""Mean-level curves vs distance and the spherical-wave comparison.

A level curve is one :class:`LevelPoint` per distance of a checked series
measurement: the mean level, its amplification relative to the reference
distance (0 dB there by construction), the inverse-distance law
20*log10(x_ref/x) at that distance (+6.02 dB per halving) and the
measured-minus-law gap, each computed once. A validity verdict names the
smallest distance beyond which every measured deviation stays inside a
threshold; the rule is suffix-based, so a late excursion (the
"re-equalization" pattern) invalidates closer limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, SingularityError, json_number
from .series import SeriesMeasurement, check_distances

__all__ = [
    "LevelPoint",
    "ValidityVerdict",
    "check_threshold",
    "theoretical_amplification",
    "measured_level_curve",
    "validity_limit",
]


@dataclass(frozen=True)
class LevelPoint:
    """One distance of a level curve: the mean level, its amplification
    relative to the reference, the 1/x law there and the measured-minus-law
    gap. Where x_ref/x is not a finite positive number (at x = 0, say)
    ``theory_db`` and ``gap_db`` are None."""

    distance_cm: float
    level: float  # dB FS
    amplification_db: float
    theory_db: float | None
    gap_db: float | None


@dataclass(frozen=True)
class ValidityVerdict:
    """Outcome of the wave-validity check for one deviation curve."""

    limit_distance_cm: float | None
    threshold_db: float
    rule: str


def check_threshold(threshold_db: float) -> float:
    """The threshold by the number rule; :class:`InvalidInputError` unless positive and finite."""
    threshold = json_number(threshold_db, "threshold")
    if not (math.isfinite(threshold) and threshold > 0):
        raise InvalidInputError(f"threshold must be positive and finite, got {threshold}")
    return threshold


def theoretical_amplification(x_cm: float, x_ref_cm: float) -> float:
    """Spherical-wave level gain at ``x_cm`` relative to ``x_ref_cm``: 20*log10(x_ref/x).

    Both are numbers (``json_number``); :class:`SingularityError` unless x_ref/x
    is finite and positive, as at x = 0 or where the ratio over- or underflows.
    """
    x_cm, x_ref_cm = json_number(x_cm, "distance"), json_number(x_ref_cm, "reference distance")
    ratio = x_ref_cm / x_cm if x_cm > 0 else math.inf
    if not 0 < ratio < math.inf:
        raise SingularityError(
            f"1/x law: x_ref/x = {x_ref_cm}/{x_cm} cm is not a finite positive number")
    return 20.0 * math.log10(ratio)


def measured_level_curve(measured: SeriesMeasurement) -> tuple[LevelPoint, ...]:
    """One :class:`LevelPoint` per recording, ascending by distance.

    ``measured`` is what :meth:`MeasurementSeries.measure` returns, so its
    rules were checked when it was built. Amplifications are invariant
    under any global gain applied to the whole series, and exactly 0 dB at
    the reference. A negative gap means the measurement sits below the 1/x
    law; a point where :func:`theoretical_amplification` has no value gets
    no law and no gap instead of an extrapolation.
    """
    ref_cm = measured.reference_distance_cm
    ref_db = measured.at_reference.level
    points = []
    for m in measured.measurements:
        amp = m.level - ref_db
        try:
            theory = theoretical_amplification(m.distance_cm, ref_cm)
        except SingularityError:
            theory = None
        gap = None if theory is None else amp - theory
        points.append(LevelPoint(m.distance_cm, m.level, amp, theory, gap))
    return tuple(points)


def validity_limit(
    deviations: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    threshold_db: float = 1.0,
) -> ValidityVerdict:
    """Smallest distance past which every deviation stays within the threshold.

    ``deviations`` is at least two (distance_cm, deviation_db) pairs in any
    order, the distances by :func:`check_distances`, every figure by the
    number rule. Every point at or beyond the returned limit satisfies
    |deviation| <= threshold; if even the farthest point violates, there is
    no limit. Suffix-based by design: a compliant stretch followed by a late
    excursion does not count.
    """
    threshold_db = check_threshold(threshold_db)
    pts = [(d, json_number(v, "deviation")) for d, v in deviations]
    if len(pts) < 2:
        raise InvalidInputError(f"need at least 2 deviation points, got {len(pts)}")
    pts = sorted(zip(check_distances([d for d, _ in pts], "deviations"), [v for _, v in pts]))

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
