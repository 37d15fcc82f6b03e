"""Spectral balance: per-subband relative energy weights.

The weight of a subband is the sum of squares of its samples divided by the
sum of squares of the whole signal; expressed in dB that is 10*log10 of the
energy ratio (weights are power ratios, so 10*log10, not 20). Weights are
invariant under global gain, which is what makes stimulus/recording
comparisons and distance evolutions meaningful. A distance evolution is
read against the reference distance of the series measurement it is given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MappingMismatchError, SilenceError
from .filterbank import BandMapping, FilterBank, band_energies
from .signal import LevelDbfs, Signal, level_of_power

if TYPE_CHECKING:
    from .series import SeriesMeasurement

__all__ = [
    "BalanceResult",
    "WeightEvolution",
    "spectral_balance",
    "weight_evolution",
    "balance_difference",
]


@dataclass(frozen=True)
class BalanceResult:
    """Per-band weights of one analyzed signal plus its mean level."""

    mapping: BandMapping
    weights_linear: tuple[float, ...]
    weights_db: tuple[float, ...]  # -inf marks an empty band (silence sentinel)
    mean_level: LevelDbfs


@dataclass(frozen=True)
class WeightEvolution:
    """One band's weight vs distance, in dB relative to the reference distance."""

    band_index: int
    points: tuple[tuple[float, float], ...]  # (distance_cm, delta_db)

    @property
    def deltas_db(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


def spectral_balance(signal: Signal, bank: FilterBank) -> BalanceResult:
    """Weights of every subband of ``signal`` under ``bank``'s mapping."""
    with np.errstate(over="ignore"):  # band_energies refuses an energy that overflows
        total = float(np.sum(np.square(signal.samples)))
    if total == 0.0:
        raise SilenceError("spectral balance of an all-zero signal is undefined")
    linear = tuple(energy / total for energy in band_energies(bank, signal))
    db = tuple(10.0 * math.log10(w) if w > 0.0 else -math.inf for w in linear)
    return BalanceResult(
        mapping=bank.mapping,
        weights_linear=linear,
        weights_db=db,
        # sum / n is how np.mean divides, so this equals mean_level_dbfs bit for bit
        mean_level=level_of_power(total / len(signal)),
    )


def weight_evolution(measured: SeriesMeasurement) -> list[WeightEvolution]:
    """Per-band weight deltas against the reference distance, one curve per band.

    ``measured`` is what :meth:`MeasurementSeries.measure` returns: ascending
    by distance, with the reference and without a silent recording, checked
    when it was built. The reference point is pinned to exactly 0 dB. Bands
    with zero energy at some distance cannot form a delta there; such points
    are dropped from that band's curve with a warning rather than fabricated.
    """
    reference = measured.at_reference
    mapping = reference.balance.mapping

    curves = []
    for band in range(mapping.n_bands):
        ref_db = reference.balance.weights_db[band]
        points = []
        for m in measured.measurements:
            w_db = m.balance.weights_db[band]
            if m is reference:
                points.append((m.distance_cm, 0.0))
            elif w_db == -math.inf or ref_db == -math.inf:
                warnings.warn(
                    f"band {band + 1} ({mapping.band_label(band)}) is silent "
                    f"at {m.distance_cm} cm or at the reference; point excluded",
                    stacklevel=2,
                )
            else:
                points.append((m.distance_cm, w_db - ref_db))
        curves.append(WeightEvolution(band_index=band, points=tuple(points)))
    return curves


def balance_difference(
    stimulus: BalanceResult, recording: BalanceResult
) -> tuple[float, ...]:
    """Stimulus weights minus recording weights, band by band, in dB.

    A positive difference means the band is more important in the stimulus
    balance than in the recording. Both results must come from the same
    mapping. Lengths of the underlying signals may differ: weights are
    normalized ratios.
    """
    if stimulus.mapping.edges != recording.mapping.edges:
        raise MappingMismatchError(
            f"stimulus mapping {stimulus.mapping.edges} != "
            f"recording mapping {recording.mapping.edges}"
        )
    # a silent band on either side has no defined difference; nan, not a
    # fabricated large negative
    return tuple(
        (s - r) if (s != -math.inf and r != -math.inf) else math.nan
        for s, r in zip(stimulus.weights_db, recording.weights_db)
    )
