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

from .errors import InvalidInputError, MappingMismatchError, json_integer, json_number
from .filterbank import BandMapping, FilterBank, band_energies
from .signal import Signal, check_not_silent, level_of_power

if TYPE_CHECKING:
    from .series import SeriesMeasurement

__all__ = [
    "Measurement",
    "WeightEvolution",
    "spectral_balance",
    "weight_evolution",
    "balance_difference",
]


@dataclass(frozen=True)
class Measurement:
    """A measured signal's energy and band energies, which its level and weights derive from."""

    mapping: BandMapping
    n_samples: int
    energy: float  # sum of squares of the samples
    band_energies: tuple[float, ...]  # one per band of ``mapping``
    distance_cm: float | None = None  # None for a stimulus, which has no distance
    sha256: str | None = None  # of the file's bytes, or of an in-memory signal's samples

    def __post_init__(self) -> None:
        energies = [json_number(e, "energy") for e in (self.energy, *self.band_energies)]
        if not (json_integer(self.n_samples, "n_samples") >= 1
                and len(energies) == self.mapping.n_bands + 1
                and all(0.0 <= e < math.inf for e in energies)):
            raise InvalidInputError(f"a measurement needs n_samples >= 1 and finite energies >= 0,"
                                    f" a total and one per band: got {self.n_samples}, {energies}")

    @property
    def level(self) -> float:
        """Mean level in dB FS, ``-inf`` if the mean power is 0; it equals
        mean_level_dbfs, which divides Signal.energy alike, bit for bit."""
        return level_of_power(self.energy / self.n_samples)

    @property
    def weights_linear(self) -> tuple[float, ...]:
        """Each band's share of the energy; a silent signal (level ``-inf``)
        has none and raises :class:`SilenceError`."""
        check_not_silent(self.level, "measured signal")
        return tuple(e / self.energy for e in self.band_energies)

    @property
    def weights_db(self) -> tuple[float, ...]:
        """The weights in dB; ``-inf`` marks an empty band."""
        return tuple(10.0 * math.log10(w) if w > 0.0 else -math.inf
                     for w in self.weights_linear)


@dataclass(frozen=True)
class WeightEvolution:
    """One band's weight vs distance, in dB relative to the reference distance."""

    band_index: int
    points: tuple[tuple[float, float], ...]  # (distance_cm, delta_db)

    @property
    def deltas_db(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


def spectral_balance(signal: Signal, bank: FilterBank) -> Measurement:
    """The :class:`Measurement` of ``signal`` under ``bank``'s mapping, a
    silent signal's included; its weights are defined unless it is silent."""
    total, energies = band_energies(bank, signal)  # refuses a total that overflows
    return Measurement(bank.mapping, len(signal), total, energies)


def _check_one_mapping(measurements: tuple[Measurement, ...]) -> None:
    """Raise :class:`MappingMismatchError` unless ``measurements`` share one band mapping."""
    edges = list(dict.fromkeys(m.mapping.edges for m in measurements))
    if len(edges) > 1:
        raise MappingMismatchError(f"measurements of different band mappings: {edges}")


def weight_evolution(measured: SeriesMeasurement) -> list[WeightEvolution]:
    """Per-band weight deltas against the reference distance, one curve per band.

    ``measured`` is what :meth:`MeasurementSeries.measure` returns: ascending
    by distance, with the reference and without a silent recording, checked
    when it was built. The reference point is pinned to exactly 0 dB. Bands
    with zero energy at some distance cannot form a delta there; such points
    are dropped from that band's curve with a warning rather than fabricated.
    """
    reference = measured.at_reference
    mapping = reference.mapping
    weights = [(m, m.weights_db) for m in measured.measurements]

    curves = []
    for band, ref_db in enumerate(reference.weights_db):
        points = []
        for m, m_db in weights:
            w_db = m_db[band]
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
    stimulus: Measurement, recording: Measurement
) -> tuple[float, ...]:
    """Stimulus weights minus recording weights, band by band, in dB.

    A positive difference means the band is more important in the stimulus
    balance than in the recording. Both must come from the same mapping,
    and neither may be silent (:class:`SilenceError`). Lengths of the
    underlying signals may differ: weights are normalized ratios.
    """
    _check_one_mapping((stimulus, recording))
    # a silent band on either side has no defined difference; nan, not a
    # fabricated large negative
    return tuple(
        (s - r) if (s != -math.inf and r != -math.inf) else math.nan
        for s, r in zip(stimulus.weights_db, recording.weights_db)
    )
