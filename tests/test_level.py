import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandscope import (
    BandMapping,
    DistanceProfile,
    Measurement,
    MeasurementSeries,
    SeriesMeasurement,
    Signal,
    StimulusSpec,
    apply_zero_phase,
    design_bank,
    load_wav,
    measured_level_curve,
    normalize_to_level,
    save_wav,
    theoretical_amplification,
    validity_limit,
    weight_evolution,
)
from bandscope.errors import (
    BandscopeError,
    DuplicateDistanceError,
    InvalidInputError,
    MissingReferenceError,
    SilenceError,
    SingularityError,
)

FS = 44100


def _measured(signals, distances, reference=100.0):
    """The measuring pass over in-memory recordings; the level does not
    depend on the bank, so a small one will do."""
    series = MeasurementSeries(("m", "omni", "s"), tuple(distances), tuple(signals))
    return series.measure(design_bank(BandMapping((0, 1000, 22050)), FS, 63), reference)


def _checked(levels, reference):
    """A series measurement built directly from (distance_cm, mean level dB
    or None for a silent recording) pairs, with no samples behind them: one
    sample of energy 10**(level / 10), or 0, split evenly over two bands."""
    mapping = BandMapping((0, 1000, 22050))
    energies = [(d, 0.0 if db is None else 10.0 ** (db / 10.0)) for d, db in levels]
    return SeriesMeasurement(reference, tuple(
        Measurement(mapping, 1, e, (e / 2, e / 2), d, "") for d, e in energies))


class TestTheoretical:
    def test_reference_point(self):
        assert theoretical_amplification(100, 100) == 0.0

    def test_halving(self):
        assert theoretical_amplification(50, 100) == pytest.approx(6.0206, abs=1e-4)

    def test_decade(self):
        assert theoretical_amplification(10, 100) == pytest.approx(20.0, abs=1e-12)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            theoretical_amplification(0, 100)
        with pytest.raises(SingularityError):
            theoretical_amplification(50, 0)

    @pytest.mark.parametrize("x, x_ref", [(1e-320, 100.0), (1e10, 1e-320)],
                             ids=["ratio-overflows", "ratio-underflows"])
    def test_ratio_that_is_not_finite_and_positive(self, x, x_ref):
        with pytest.raises(SingularityError, match="not a finite positive number"):
            theoretical_amplification(x, x_ref)

    @given(x=st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=50, deadline=None)
    def test_halving_always_adds_6dB(self, x):
        step = theoretical_amplification(x / 2, 100) - theoretical_amplification(x, 100)
        assert step == pytest.approx(6.0206, abs=1e-3)


class TestMeasuredCurve:
    def test_identical_recordings_flat(self, white_2s):
        points = measured_level_curve(_measured([white_2s] * 4, [10, 30, 50, 100]))
        assert [p.amplification_db for p in points] == [0.0, 0.0, 0.0, 0.0]

    def test_exact_inverse_distance_series(self, white_2s):
        distances = [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        measured = _measured([white_2s.scaled(100.0 / d) for d in distances], distances)
        for p in measured_level_curve(measured):
            if p.distance_cm != 100.0:
                assert p.amplification_db == pytest.approx(
                    theoretical_amplification(p.distance_cm, 100), abs=0.02)

    def test_global_gain_invariance(self, white_2s):
        distances = [25, 50, 100]
        sigs = [white_2s.scaled(100.0 / d) for d in distances]
        a = measured_level_curve(_measured(sigs, distances))
        b = measured_level_curve(_measured([s.scaled(0.1) for s in sigs], distances))
        np.testing.assert_allclose(
            [p.amplification_db for p in a], [p.amplification_db for p in b], atol=1e-9
        )

    def test_missing_reference(self, white_2s):
        with pytest.raises(MissingReferenceError):
            _measured([white_2s] * 2, [10, 50])

    def test_reference_is_the_one_measured_against(self, white_2s):
        distances = [25, 50, 100]
        sigs = [white_2s.scaled(100.0 / d) for d in distances]
        points = measured_level_curve(_measured(sigs, distances, reference=50.0))
        by_distance = {p.distance_cm: p for p in points}
        assert by_distance[50.0].amplification_db == by_distance[50.0].theory_db == 0.0
        assert by_distance[100.0].amplification_db == pytest.approx(-6.0206, abs=0.02)
        assert by_distance[100.0].theory_db == theoretical_amplification(100.0, 50.0)


class TestGapCurve:
    def test_measured_equals_theory(self, white_2s):
        distances = [10, 50, 100]
        measured = _measured([white_2s.scaled(100.0 / d) for d in distances], distances)
        for p in measured_level_curve(measured):
            assert p.gap_db is not None
            assert p.gap_db == pytest.approx(0.0, abs=0.02)

    def test_injected_near_field_deficit_recovered(self, white_2s):
        # -12 dB at 5 cm tapering linearly to 0 at 50 cm, on top of exact 1/x
        distances = [5.0, 10.0, 25.0, 50.0, 100.0]
        def deficit(d):
            return float(np.interp(d, [5.0, 50.0], [-12.0, 0.0]))
        sigs = [
            white_2s.scaled((100.0 / d) * 10 ** (deficit(d) / 20)) for d in distances
        ]
        for p in measured_level_curve(_measured(sigs, distances)):
            assert p.gap_db == pytest.approx(deficit(p.distance_cm), abs=0.3)

    def test_x_zero_flagged_theory_undefined(self, white_2s):
        measured = _measured([white_2s, white_2s.scaled(2), white_2s], [0, 50, 100])
        points = measured_level_curve(measured)
        assert points[0].distance_cm == 0.0
        assert points[0].theory_db is None
        assert points[0].gap_db is None
        assert points[1].theory_db is not None
        assert points[1].gap_db is not None


class TestValidityLimit:
    def test_all_zero_deviations(self):
        v = validity_limit([(5, 0.0), (50, 0.0), (100, 0.0)], 1.0)
        assert v.limit_distance_cm == 5.0

    def test_spec_sequence_yields_50(self):
        seq = [(5, -6.0), (25, -2.0), (50, -0.8), (75, 0.3), (100, 0.0)]
        v = validity_limit(seq, 1.0)
        assert v.limit_distance_cm == 50.0

    def test_oscillating_yields_none(self):
        seq = [(5, 1.5), (25, -1.5), (50, 1.5), (75, -1.5), (100, 1.5)]
        v = validity_limit(seq, 1.0)
        assert v.limit_distance_cm is None

    def test_unsorted_input_ok(self):
        v = validity_limit([(100, 0.0), (5, -6.0), (50, 0.5)], 1.0)
        assert v.limit_distance_cm == 50.0

    def test_needs_two_points(self):
        with pytest.raises(InvalidInputError):
            validity_limit([(100, 0.0)], 1.0)

    def test_positive_threshold_required(self):
        with pytest.raises(InvalidInputError):
            validity_limit([(5, 0.0), (100, 0.0)], 0.0)

    @given(
        t1=st.floats(min_value=0.1, max_value=5.0),
        t2=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, t1, t2):
        seq = [(5, -6.0), (25, -2.0), (50, -0.8), (75, 0.3), (100, 0.0)]
        lo, hi = sorted((t1, t2))
        v_small = validity_limit(seq, lo)
        v_big = validity_limit(seq, hi)
        if v_small.limit_distance_cm is not None:
            assert v_big.limit_distance_cm is not None
            assert v_big.limit_distance_cm <= v_small.limit_distance_cm


class TestLevelCurveInvariants:
    def test_rejects_negative_distance(self):
        # a distance enters with its series, which refuses it
        with pytest.raises(InvalidInputError, match="distance must be finite and >= 0 cm"):
            MeasurementSeries(("m", "omni", "s"), (-1.0,), (Signal(np.ones(8), FS),))

    def test_points_are_levels_relative_to_reference(self):
        points = measured_level_curve(_checked(((10.0, -10.5), (100.0, -30.25)), 100.0))
        assert [(p.distance_cm, p.level, p.amplification_db) for p in points] == [
            (10.0, -10.5, 19.75), (100.0, -30.25, 0.0)]
        assert [(p.theory_db, p.gap_db) for p in points] == [
            (theoretical_amplification(10.0, 100.0), 19.75 - 20.0), (0.0, 0.0)]

    @pytest.mark.parametrize("distances, reference", [((1e-320, 100.0), 100.0),
                                                      ((1e-320, 1e10), 1e-320)],
                             ids=["ratio-overflows", "ratio-underflows"])
    def test_no_law_where_the_ratio_is_not_finite_and_positive(self, distances, reference):
        points = measured_level_curve(_checked(((distances[0], -10.0), (distances[1], -30.0)),
                                               reference))
        assert [(p.theory_db, p.gap_db) for p in points if p.distance_cm != reference] == [
            (None, None)]
        assert [(p.theory_db, p.gap_db) for p in points if p.distance_cm == reference] == [
            (0.0, 0.0)]


# case -> ((distance_cm, level dB or None), reference, error, message)
REJECTED_MEASUREMENTS = {
    "duplicate": (((10.0, -20.0), (10.0, -19.0)), 10.0,
                  DuplicateDistanceError, "measured series: duplicate distance(s) [10.0] cm"),
    "reference-missing": (((10.0, -20.0), (50.0, -30.0)), 100.0, MissingReferenceError,
                          "measured series has no recording at reference 100.0 cm "
                          "(distances: (10.0, 50.0))"),
    "silent-reference": (((10.0, None), (100.0, None)), 100.0,
                         SilenceError, "reference recording at 100.0 cm is silent"),
    "silent-recording": (((10.0, None), (50.0, -25.0), (100.0, -30.0)), 100.0,
                         SilenceError, "recording at 10.0 cm is silent"),
    # weight_evolution once merged the two 50 cm points into one without an error
    "weight-evolution-duplicate-50cm": (
        ((10.0, -10.0), (50.0, -20.0), (50.0, -21.0), (100.0, -30.0)), 100.0,
        DuplicateDistanceError, "measured series: duplicate distance(s) [50.0] cm"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_MEASUREMENTS))
def test_series_measurement_rejects(case):
    levels, reference, error, message = REJECTED_MEASUREMENTS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _checked(levels, reference)


# case -> ((distance_cm, level dB) out of order, reference)
UNSORTED_MEASUREMENTS = {
    "unsorted": (((50.0, -30.0), (10.0, -20.0)), 10.0),
    # weight_evolution once kept descending input descending
    "weight-evolution-descending": (((100.0, -30.0), (50.0, -20.0), (10.0, -10.0)), 100.0),
}


@pytest.mark.parametrize("case", sorted(UNSORTED_MEASUREMENTS))
def test_series_measurement_sorts(case):
    levels, reference = UNSORTED_MEASUREMENTS[case]
    measured = _checked(levels, reference)
    assert measured == _checked(sorted(levels), reference)
    ascending = sorted(d for d, _ in levels)
    assert [p.distance_cm for p in measured_level_curve(measured)] == ascending
    for evolution in weight_evolution(measured):
        assert [d for d, _ in evolution.points] == ascending


_ONE = Signal(np.ones(100), FS)
_TWO_BANDS = BandMapping((0, 1000, 22050))


def _at(distance_cm, mapping=_TWO_BANDS):
    """A measurement of one sample of energy 1 at ``distance_cm``, split evenly over the bands."""
    n = mapping.n_bands
    return Measurement(mapping, 1, 1.0, (1.0 / n,) * n, distance_cm, "")


def _ones_wav(tmp_path):
    save_wav(_ONE, tmp_path / "one.wav")
    return tmp_path / "one.wav"


# probe -> a call, given a temporary directory, that raised TypeError, or
# gave a result from a value no rule read, before each rule read its value
UNREAD_VALUES = {
    "validity-nan-distance": lambda _: validity_limit([(math.nan, 0.1), (5, 0.2), (100, 0.0)]),
    "validity-inf-distance": lambda _: validity_limit([(math.inf, 0.1), (5, 0.2), (100, 0.0)]),
    "validity-negative-distance": lambda _: validity_limit([(-5, 0.1), (5, 0.2), (100, 0.0)]),
    "normalize-text-target": lambda _: normalize_to_level(_ONE, "-20"),
    "normalize-bool-target": lambda _: normalize_to_level(_ONE, True),
    "trim-text-length": lambda _: _ONE.trimmed("5"),
    "trim-fractional-length": lambda _: _ONE.trimmed(2.5),
    "design-text-rate": lambda _: design_bank(_TWO_BANDS, "44100", 63),
    "design-text-length": lambda _: design_bank(_TWO_BANDS, FS, "1023"),
    "theory-text-distance": lambda _: theoretical_amplification("5", 100),
    "theory-text-reference": lambda _: theoretical_amplification(5, "100"),
    "bool-band-index": lambda _: apply_zero_phase(design_bank(_TWO_BANDS, FS, 63), True, _ONE),
    "bool-seed": lambda _: StimulusSpec(kind="pink", duration=1, seed=True),
    "text-channel": lambda tmp: load_wav(_ones_wav(tmp), channel="0"),
    "none-distance": lambda _: SeriesMeasurement(100.0, (_at(None), _at(100.0))),
    "mixed-mappings": lambda _: SeriesMeasurement(
        100.0, (_at(50.0, BandMapping((0, 100, 1000, 22050))), _at(100.0))),
    "negative-breakpoint": lambda _: DistanceProfile({0: ((-5.0, 0.0), (10.0, 0.0))}),
}


@pytest.mark.parametrize("probe", sorted(UNREAD_VALUES))
def test_each_rule_reads_the_value_it_checks(probe, tmp_path):
    with pytest.raises(BandscopeError):
        UNREAD_VALUES[probe](tmp_path)


def test_whole_numbers_given_as_floats_read_as_ints(tmp_path):
    bank = design_bank(_TWO_BANDS, 44100.0, 63.0)
    assert (bank.sample_rate, bank.length) == (FS, 63) and type(bank.sample_rate) is int
    path = _ones_wav(tmp_path)
    assert np.array_equal(load_wav(path, channel=0.0).samples, load_wav(path).samples)
