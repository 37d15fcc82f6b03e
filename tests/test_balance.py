import math
import os
import signal as signals
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandscope import (
    BandMapping,
    Measurement,
    MeasurementSeries,
    Signal,
    balance_difference,
    decompose,
    design_bank,
    mean_level_dbfs,
    spectral_balance,
    weight_evolution,
)
from bandscope.campaign import ComparisonReport, ComparisonRow
from bandscope.series import SeriesMeasurement
from bandscope.synthfield import DistanceProfile, SynthCampaignSpec, synth_campaign
from bandscope.errors import (
    InvalidInputError,
    MappingMismatchError,
    MissingReferenceError,
    SilenceError,
)
from oracles import periodogram_band_weights

FS = 44100


def _series(signals, distances, mic="test"):
    return MeasurementSeries((mic, "omni", "x"), tuple(distances), tuple(signals))


class TestSpectralBalance:
    def test_sine_lands_in_its_band(self):
        # abrupt truncation puts real sideband energy (~-42 dB) below
        # 500 Hz, so fade the tone to measure the steady carrier alone
        bank = design_bank(BandMapping((0, 500, 22050)), FS, 4095)
        x = np.sin(2 * np.pi * 1000 * np.arange(FS) / FS)
        nf = FS // 20
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(nf) / nf))
        x[:nf] *= ramp
        x[-nf:] *= ramp[::-1]
        result = spectral_balance(Signal(x, FS), bank)
        assert result.weights_db[1] == pytest.approx(0.0, abs=0.01)
        assert result.weights_db[0] <= -80.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5000),
        log_scale=st.floats(min_value=-8.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_level_bit_identical_to_meter(self, seed, n, log_scale):
        # the balance reuses its energy sum for the level; it must not drift
        # from the meter that the level curve uses
        bank = design_bank(BandMapping((0, 1000, 22050)), FS, 63)
        x = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(n)
        signal = Signal(x, FS)
        assert spectral_balance(signal, bank).level == mean_level_dbfs(signal)

    def test_mean_level_silent_when_power_underflows(self):
        # the energy sum is a positive subnormal, its mean rounds to zero: the
        # meter reads silence, and the measurement refuses to weigh subnormal
        # band energies; the same impulse at 1.0 has ordinary weights
        bank = design_bank(BandMapping((0, 1000, 22050)), FS, 63)
        impulse = np.zeros(2000)
        impulse[0] = 2.3e-162
        signal = Signal(impulse, FS)
        assert mean_level_dbfs(signal) == -math.inf
        measured = spectral_balance(signal, bank)
        assert measured.level == -math.inf and measured.energy > 0.0
        for weights in ("weights_linear", "weights_db"):
            with pytest.raises(SilenceError, match="^measured signal is silent$"):
                getattr(measured, weights)
        impulse[0] = 1.0
        weights = spectral_balance(Signal(impulse, FS), bank).weights_linear
        assert 0.0 < min(weights) and max(weights) < 1.0

    def test_white_noise_weights_track_bandwidth(self, ids10_bank, white_10s):
        result = spectral_balance(white_10s, ids10_bank)
        edges = ids10_bank.mapping.edges
        for i, w in enumerate(result.weights_linear):
            expected = (edges[i + 1] - edges[i]) / 22050.0
            assert w == pytest.approx(expected, rel=0.10)

    def test_pink_two_band_split_matches_periodogram_oracle(self, pink_10s):
        # Equal-log-width bands around 1485 Hz do NOT split pink energy
        # 50/50 here: the generator carries real energy below 100 Hz, so the
        # oracle-computed split is ~71/29. Assert against the oracle, plus
        # the frozen value the oracle produced for this seed.
        bank = design_bank(BandMapping((0, 1485, 22050)), FS, 16383)
        result = spectral_balance(pink_10s, bank)
        oracle = periodogram_band_weights(pink_10s.samples, FS, bank.mapping.edges)
        assert oracle[0] == pytest.approx(0.711, abs=0.02)  # frozen from this seed
        for got, want in zip(result.weights_linear, oracle):
            assert got == pytest.approx(want, rel=0.02)

    def test_silence_raises(self, ids10_bank_fast):
        # a silent signal is measured; only its weights are undefined
        measured = spectral_balance(Signal(np.zeros(1000), FS), ids10_bank_fast)
        assert (measured.level, measured.energy) == (-math.inf, 0.0)
        for weights in ("weights_linear", "weights_db"):
            with pytest.raises(SilenceError, match="^measured signal is silent$"):
                getattr(measured, weights)

    def test_weight_sum_near_unity(self, ids10_bank, pink_10s):
        result = spectral_balance(pink_10s, ids10_bank)
        assert 0.98 <= sum(result.weights_linear) <= 1.02

    @given(gain_db=st.floats(min_value=-40.0, max_value=20.0))
    @settings(max_examples=10, deadline=None)
    def test_scale_invariance(self, ids10_bank_fast, gain_db):
        rng = np.random.default_rng(21)
        s = Signal(0.03 * rng.standard_normal(5000), FS)
        a = spectral_balance(s, ids10_bank_fast)
        b = spectral_balance(s.scaled(10 ** (gain_db / 20)), ids10_bank_fast)
        for wa, wb in zip(a.weights_db, b.weights_db):
            assert wb == pytest.approx(wa, abs=1e-9)


# field -> a value Measurement refuses under a two-band mapping
BAD_MEASUREMENT_FIELDS = {
    "no-samples": {"n_samples": 0},  # its level divided by zero
    "fractional-samples": {"n_samples": 1.5},
    "nan-energy": {"energy": math.nan},  # read as silence
    "negative-energy": {"energy": -1.0},  # read as silence
    "overflowed-energy": {"energy": math.inf},
    "text-energy": {"energy": "1"},
    "one-band-energy": {"band_energies": (1.0,)},  # a one-band record
    "negative-band-energy": {"band_energies": (-1.0, 2.0)},
    "nan-band-energy": {"band_energies": (math.nan, 1.0)},
}


@pytest.mark.parametrize("case", sorted(BAD_MEASUREMENT_FIELDS))
def test_measurement_refuses(case):
    fields = {"mapping": BandMapping((0, 1000, 22050)), "n_samples": 1, "energy": 1.0,
              "band_energies": (0.25, 0.75)}
    assert Measurement(**fields).weights_linear == (0.25, 0.75)
    with pytest.raises(InvalidInputError):
        Measurement(**{**fields, **BAD_MEASUREMENT_FIELDS[case]})


class TestBandWorkers:
    def test_child_forked_after_a_balance_finishes_its_own(self, band_workers,
                                                           ids10_bank_fast, white_2s):
        band_workers(2)
        series = _series([white_2s, white_2s.scaled(0.5), white_2s.scaled(0.25)],
                         [25, 50, 100])
        # measures one recording per worker thread, started and joined in the call
        expected = series.measure(ids10_bank_fast, 100.0)
        _in_forked_child(lambda: series.measure(ids10_bank_fast, 100.0) == expected)
        # synth_campaign decomposes on the worker threads too
        spec = SynthCampaignSpec(stimulus=white_2s, distances_cm=(50.0, 100.0),
                                 profile=DistanceProfile({0: ((50.0, 3.0), (100.0, 0.0))}))
        synth_campaign(spec, ids10_bank_fast)
        _in_forked_child(lambda: series.measure(ids10_bank_fast, 100.0) == expected)

    def test_peak_memory_well_below_ten_subbands(self, band_workers, ids10_bank, pink_10s):
        band_workers(2)
        spectral_balance(pink_10s, ids10_bank)  # band responses are the bank's
        peak = _traced_peak(lambda: spectral_balance(pink_10s, ids10_bank))
        # the input's block spectra plus one subband and its square (about
        # 12 MB) on any CPU count, against the 35 MB that ten 10 s subbands hold
        assert peak < 0.6 * ids10_bank.n_bands * pink_10s.samples.nbytes

    def test_peak_memory_on_many_cpus_below_decompose(self, band_workers, ids10_bank,
                                                      pink_10s):
        # whatever the CPU count, a balance filters one band at a time (about
        # 12 MB), against decompose's ten subbands on ten workers (about 60 MB)
        band_workers(32)
        spectral_balance(pink_10s, ids10_bank)
        serial = _traced_peak(lambda: decompose(ids10_bank, pink_10s))
        pooled = _traced_peak(lambda: spectral_balance(pink_10s, ids10_bank))
        assert pooled < serial, (pooled, serial)


def _in_forked_child(check) -> None:
    """Fork, with no other thread alive, and assert that ``check()`` is true
    in the child and returns within 30 s."""
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork while other threads are alive
        warnings.simplefilter("error", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if check() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signals.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def _traced_peak(call) -> int:
    """tracemalloc peak of ``call()``; numpy reports its buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWeightEvolution:
    def test_identical_signals_all_zero(self, ids10_bank_fast, white_2s):
        series = _series([white_2s] * 3, [10, 50, 100])
        curves = weight_evolution(series.measure(ids10_bank_fast, 100.0))
        assert len(curves) == 10
        for curve in curves:
            assert curve.points == ((10.0, 0.0), (50.0, 0.0), (100.0, 0.0))

    def test_flat_profile_global_gain_cancels(self, ids10_bank_fast, white_2s):
        series = _series(
            [white_2s.scaled(100 / d) for d in (5, 20, 100)], [5, 20, 100]
        )
        curves = weight_evolution(series.measure(ids10_bank_fast, 100.0))
        for curve in curves:
            for _, delta in curve.points:
                assert abs(delta) <= 0.05

    def test_reference_point_exactly_zero(self, ids10_bank_fast, white_2s):
        series = _series([white_2s.scaled(g) for g in (2.0, 1.0)], [50, 100])
        for curve in weight_evolution(series.measure(ids10_bank_fast, 100.0)):
            assert dict(curve.points)[100.0] == 0.0

    def test_reference_is_the_one_measured_against(self, ids10_bank_fast, white_2s):
        series = _series([white_2s.scaled(g) for g in (2.0, 1.0)], [50, 100])
        for curve in weight_evolution(series.measure(ids10_bank_fast, 50.0)):
            assert dict(curve.points)[50.0] == 0.0

    def test_missing_reference(self, ids10_bank_fast, white_2s):
        with pytest.raises(MissingReferenceError):
            _series([white_2s] * 2, [10, 50]).measure(ids10_bank_fast, 100.0)

    @pytest.mark.parametrize("silent_at", [50.0, 100.0])
    def test_silent_band_point_dropped_with_a_warning(self, silent_at):
        # band 1 holds no energy at one distance: no delta is formed against
        # it, so that band keeps the reference point alone; band 2 keeps both
        mapping = BandMapping((0, 1000, 22050))
        measured = SeriesMeasurement(100.0, tuple(
            Measurement(mapping, 1, 1.0, (0.0, 1.0) if d == silent_at else (0.5, 0.5), d, "")
            for d in (50.0, 100.0)))
        with pytest.warns(UserWarning) as caught:
            band1, band2 = weight_evolution(measured)
        assert [str(w.message) for w in caught] == [
            "band 1 (0-1000Hz) is silent at 50.0 cm or at the reference; point excluded"]
        assert band1.points == ((100.0, 0.0),)
        assert [d for d, _ in band2.points] == [50.0, 100.0]


class TestBalanceDifference:
    def test_identical_inputs_zero_row(self, ids10_bank_fast, white_2s):
        a = spectral_balance(white_2s, ids10_bank_fast)
        assert all(d == 0.0 for d in balance_difference(a, a))

    def test_half_scale_recording(self, ids10_bank_fast, white_2s):
        stim = spectral_balance(white_2s, ids10_bank_fast)
        rec = spectral_balance(white_2s.scaled(0.5), ids10_bank_fast)
        for d in balance_difference(stim, rec):
            assert d == pytest.approx(0.0, abs=1e-9)
        assert (
            stim.level - rec.level
            == pytest.approx(6.0206, abs=1e-3)
        )

    def test_antisymmetry(self, ids10_bank_fast, white_2s, pink_10s):
        pink_short = Signal(pink_10s.samples[: len(white_2s)], FS)
        a = spectral_balance(white_2s, ids10_bank_fast)
        b = spectral_balance(pink_short, ids10_bank_fast)
        ab = balance_difference(a, b)
        ba = balance_difference(b, a)
        for x, y in zip(ab, ba):
            assert x == pytest.approx(-y, abs=1e-12)

    def test_mapping_mismatch(self, ids10_bank_fast, white_2s):
        other = design_bank(BandMapping((0, 1000, 22050)), FS, 1023)
        a = spectral_balance(white_2s, ids10_bank_fast)
        b = spectral_balance(white_2s, other)
        with pytest.raises(MappingMismatchError):
            balance_difference(a, b)

    def test_length_mismatch_allowed(self, ids10_bank_fast, white_2s):
        longer = Signal(np.tile(white_2s.samples, 2), FS)
        a = spectral_balance(white_2s, ids10_bank_fast)
        b = spectral_balance(longer, ids10_bank_fast)
        for d in balance_difference(a, b):
            assert abs(d) < 0.2  # same spectrum, independent lengths


class TestTableRowFormat:
    def test_published_row_renders_with_signs_and_level_pair(self):
        # Row shape check only: these figures correspond to a published
        # comparison whose recordings we do not have.
        diffs = (8.2, 3.9, -2.3, 3.5, -0.1, -3.2, -5.0, -7.1, -4.7, -6.8)
        row = ComparisonRow(
            label="ECM8000 omni",
            diffs_db=diffs,
            stimulus_level=-18.6,
            recording_level=-50.2,
        )
        report = ComparisonReport(stimulus_label="One", rows=(row,), n_bands=10)
        csv = report.to_csv().strip().split("\n")
        header = csv[0].split(",")
        assert header[1:11] == [f"band{i}" for i in range(1, 11)]
        assert header[11:] == ["stimulus_level_dbfs", "recording_level_dbfs"]
        cells = csv[1].split(",")
        assert cells[0] == "One/ECM8000 omni"
        assert [float(c) for c in cells[1:11]] == list(diffs)
        assert float(cells[11]) == -18.6 and float(cells[12]) == -50.2
        text = report.to_text()
        assert "+8.2" in text and "-6.8" in text and "-18.6/-50.2" in text
