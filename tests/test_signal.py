import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandscope import (
    BandMapping,
    DistanceProfile,
    Signal,
    StimulusSpec,
    SynthCampaignSpec,
    design_bank,
    gen_pink,
    gen_sine,
    mean_level_dbfs,
    normalize_to_level,
    synth_campaign,
)
from bandscope.errors import (
    EmptySignalError,
    InvalidInputError,
    SilenceError,
)

FS = 44100


_HALF_SECOND = Signal(np.sin(np.arange(FS // 2) / 10.0), FS)


def _profiled_campaign():
    bank = design_bank(BandMapping((0, 1000, 22050)), FS, 63)
    profile = DistanceProfile({0: ((50, 3.0), (100, 0.0))})
    synth_campaign(SynthCampaignSpec(stimulus=_HALF_SECOND, distances_cm=(50, 100),
                                     profile=profile), bank)


# what builds a Signal from an array no one else holds -> a call that makes one
_FRESH = {
    "scaled": lambda: _HALF_SECOND.scaled(0.5),
    "gen_pink": lambda: gen_pink(StimulusSpec(kind="pink", duration=0.5, seed=1)),
    "gen_sine": lambda: gen_sine(StimulusSpec(kind="sine", duration=0.5, frequency=1000.0)),
    "synth_campaign-profiled": _profiled_campaign,  # each shaped recording
}


class TestSignal:
    def test_validates_sample_rate(self):
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(10), 0)
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(10), -44100)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 44100.7])
    def test_rejects_rates_that_are_not_whole_numbers(self, rate):
        # inf and NaN used to end in OverflowError/ValueError, 44100.7 in 44100
        with pytest.raises(InvalidInputError, match="positive whole number"):
            Signal(np.zeros(10), rate)
        with pytest.raises(InvalidInputError, match="positive whole number"):
            StimulusSpec(kind="pink", duration=1.0, seed=1, sample_rate=rate)

    def test_whole_float_rate_is_an_int(self):
        assert Signal(np.zeros(10), 44100.0).sample_rate == 44100

    def test_rejects_empty(self):
        with pytest.raises(EmptySignalError):
            Signal(np.array([]), FS)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            Signal(np.array([0.0, np.nan]), FS)
        with pytest.raises(InvalidInputError):
            Signal(np.array([0.0, np.inf]), FS)

    def test_samples_are_immutable(self):
        s = Signal(np.zeros(4), FS)
        with pytest.raises(ValueError):
            s.samples[0] = 1.0

    def test_caller_cannot_write_through(self):
        # a writeable array, or a read-only view of one, is copied
        x = np.zeros(4)
        frozen_view = x[:]
        frozen_view.setflags(write=False)
        signals = [Signal(x, FS), Signal(frozen_view, FS)]
        x[:] = 1.0
        assert [s.samples.tolist() for s in signals] == [[0.0] * 4] * 2

    def test_read_only_samples_are_kept_after_the_checks(self):
        x = np.arange(4.0)
        x.setflags(write=False)
        s = Signal(x, FS)
        assert s.samples is x
        assert s.trimmed(2).samples.base is x
        x = np.array([0.0, np.nan])
        x.setflags(write=False)
        with pytest.raises(InvalidInputError):
            Signal(x, FS)

    def test_energy_is_the_sum_of_squares(self):
        x = np.random.default_rng(3).standard_normal(1001)
        s = Signal(x, FS)
        assert s.energy == float(np.sum(np.square(x)))
        assert s.trimmed(500).energy == float(np.sum(np.square(x[:500])))

    def test_finite_samples_whose_energy_overflows_are_a_signal(self):
        assert Signal(np.array([1e200, 1.0]), FS).energy == math.inf

    def test_scaled_peaks_without_a_copy(self):
        # the product and the temporary square of its energy sum, and no
        # third array alive at once
        s = Signal(np.ones(441000), FS)
        tracemalloc.start()
        try:
            scaled = s.scaled(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * scaled.samples.nbytes

    @pytest.mark.parametrize("make", sorted(_FRESH))
    def test_fresh_arrays_are_kept_uncopied(self, make, signal_copies):
        _FRESH[make]()
        assert signal_copies and not any(signal_copies)


class TestMeanLevel:
    def test_full_scale_dc_is_zero_db(self):
        s = Signal(np.ones(1000), FS)
        assert mean_level_dbfs(s) == pytest.approx(0.0, abs=1e-12)

    def test_full_scale_sine_is_minus_3_01(self):
        # integer number of periods keeps the mean power at exactly 1/2
        n = np.arange(FS)
        s = Signal(np.sin(2 * np.pi * 100 * n / FS), FS)
        assert mean_level_dbfs(s) == pytest.approx(-3.0103, abs=1e-4)

    def test_all_zero_reports_silence(self):
        assert mean_level_dbfs(Signal(np.zeros(100), FS)) == -math.inf

    def test_energy_that_overflows_reads_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_level_dbfs(Signal(np.array([1e200, 1.0]), FS)) == math.inf

    @given(gain_db=st.floats(min_value=-60.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_shifts_level_by_20log10(self, gain_db):
        rng = np.random.default_rng(9)
        s = Signal(0.01 * rng.standard_normal(2048), FS)
        gain = 10 ** (gain_db / 20)
        before = mean_level_dbfs(s)
        after = mean_level_dbfs(s.scaled(gain))
        assert after - before == pytest.approx(gain_db, abs=1e-9)


class TestNormalize:
    def test_minus_10_db_is_gain_0_3162(self):
        n = np.arange(FS)
        s = Signal(np.sin(2 * np.pi * 100 * n / FS), FS)
        out = normalize_to_level(s, -13.0103)
        ratio = np.max(np.abs(out.samples)) / np.max(np.abs(s.samples))
        assert ratio == pytest.approx(10 ** -0.5, rel=1e-6)

    def test_hits_target_level(self):
        rng = np.random.default_rng(4)
        s = Signal(rng.standard_normal(4096), FS)
        out = normalize_to_level(s, -20.0)
        assert mean_level_dbfs(out) == pytest.approx(-20.0, abs=1e-6)

    def test_identity_when_already_at_target(self):
        rng = np.random.default_rng(4)
        s = Signal(0.1 * rng.standard_normal(4096), FS)
        target = mean_level_dbfs(s)
        out = normalize_to_level(s, target)
        np.testing.assert_allclose(out.samples, s.samples, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        s = Signal(rng.standard_normal(4096), FS)
        once = normalize_to_level(s, -6.0)
        twice = normalize_to_level(once, -6.0)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-9)

    def test_batch_of_synthetic_recordings(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal(FS)
        for k in range(11):
            s = Signal(base * (0.01 + 0.09 * k), FS)
            out = normalize_to_level(s, -20.0)
            assert mean_level_dbfs(out) == pytest.approx(-20.0, abs=1e-6)

    def test_all_zero_cannot_normalize(self):
        with pytest.raises(SilenceError, match="^signal to normalize is silent$"):
            normalize_to_level(Signal(np.zeros(16), FS), -20.0)

    def test_energy_that_overflows_cannot_normalize(self):
        # the gain would be 0 and every sample with it
        with pytest.raises(InvalidInputError, match="^signal energy overflows a float64$"):
            normalize_to_level(Signal(np.array([1e200, 1.0]), FS), -20.0)

    def test_rejects_silence_target(self):
        s = Signal(np.ones(16), FS)
        with pytest.raises(InvalidInputError):
            normalize_to_level(s, -math.inf)

    @pytest.mark.parametrize("target", [1000.0, -3242.0, 1e308])
    def test_rejects_a_target_a_wav_cannot_carry(self, target):
        # +1000 dB FS overflows a float32 WAV; -3242 dB FS flushes it to zero
        with pytest.raises(InvalidInputError, match=r"target level must be within ±300 dB"):
            normalize_to_level(Signal(np.ones(16), FS), target)
        with pytest.raises(InvalidInputError, match=r"target level must be within ±300 dB"):
            StimulusSpec(kind="pink", duration=1.0, seed=1, target_level=target)

    def test_range_ends_are_levels(self):
        for target in (-300.0, 300.0):
            out = normalize_to_level(Signal(np.ones(16), FS), target)
            assert mean_level_dbfs(out) == pytest.approx(target, abs=1e-9)
