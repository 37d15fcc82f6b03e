import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandscope import (
    BandMapping,
    Measurement,
    MeasurementSeries,
    SeriesMeasurement,
    Signal,
    design_bank,
    measured_level_curve,
    theoretical_amplification,
    validity_limit,
)
from bandscope.errors import (
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
                  InvalidInputError, "distances must be unique and ascending"),
    "unsorted": (((50.0, -30.0), (10.0, -20.0)), 10.0,
                 InvalidInputError, "distances must be unique and ascending"),
    "reference-missing": (((10.0, -20.0), (50.0, -30.0)), 100.0, MissingReferenceError,
                          "measured series has no recording at reference 100.0 cm "
                          "(distances: (10.0, 50.0))"),
    "silent-reference": (((10.0, None), (100.0, None)), 100.0,
                         SilenceError, "reference recording at 100.0 cm is silent"),
    "silent-recording": (((10.0, None), (50.0, -25.0), (100.0, -30.0)), 100.0,
                         SilenceError, "recording at 10.0 cm is silent"),
    # weight_evolution once merged the two 50 cm points into one and kept
    # descending input descending, without an error
    "weight-evolution-duplicate-50cm": (
        ((10.0, -10.0), (50.0, -20.0), (50.0, -21.0), (100.0, -30.0)), 100.0,
        InvalidInputError, "distances must be unique and ascending"),
    "weight-evolution-descending": (((100.0, -30.0), (50.0, -20.0), (10.0, -10.0)), 100.0,
                                    InvalidInputError, "distances must be unique and ascending"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_MEASUREMENTS))
def test_series_measurement_rejects(case):
    levels, reference, error, message = REJECTED_MEASUREMENTS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _checked(levels, reference)
