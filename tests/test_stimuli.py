import hashlib
import math

import numpy as np
import pytest

from bandscope import (
    Signal,
    StimulusSpec,
    decompose,
    gen_pink,
    gen_sine,
    gen_stimulus,
    mean_level_dbfs,
)
from bandscope.errors import (
    InvalidFrequencyError,
    InvalidInputError,
)
from bandscope.stimuli import _pink_rows
from oracles import spectral_slope, steady_state

FS = 44100


class TestSpec:
    def test_sine_needs_frequency(self):
        with pytest.raises(InvalidInputError):
            StimulusSpec(kind="sine", duration=1.0)

    def test_sine_frequency_below_nyquist(self):
        with pytest.raises(InvalidFrequencyError):
            StimulusSpec(kind="sine", duration=1.0, frequency=22050.0)
        with pytest.raises(InvalidFrequencyError):
            StimulusSpec(kind="sine", duration=1.0, frequency=-5.0)

    def test_pink_needs_seed(self):
        with pytest.raises(InvalidInputError):
            StimulusSpec(kind="pink", duration=1.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            StimulusSpec(kind="chirp", duration=1.0)


class TestJson:
    @pytest.mark.parametrize("spec", [
        StimulusSpec(kind="pink", duration=0.5, sample_rate=48000, target_level=-30.0, seed=3),
        StimulusSpec(kind="sine", duration=1.0, frequency=1000.0),
    ])
    def test_from_json_reads_what_to_json_writes(self, spec):
        assert StimulusSpec.from_json(spec.to_json()) == spec

    def test_left_out_keys_take_the_defaults(self):
        assert StimulusSpec.from_json({"seed": 7}) == StimulusSpec(kind="pink", duration=2.0,
                                                                   seed=7)

    @pytest.mark.parametrize("doc, error", [
        ({"seed": 7, "levle_dbfs": -40}, "unknown stimulus key 'levle_dbfs'"),
        ({"seed": 7, "sample_rate_hz": None}, "sample_rate_hz must be a number, got null"),
        ({"seed": True}, "seed must be a number, got true"),
    ])
    def test_other_keys_and_values_are_named(self, doc, error):
        with pytest.raises(InvalidInputError, match=error):
            StimulusSpec.from_json(doc)


class TestSine:
    def test_65hz_at_sine_fullscale_level_has_unit_amplitude(self):
        spec = StimulusSpec(kind="sine", duration=1.0, frequency=65.0,
                            target_level=-3.0103)
        s = gen_sine(spec)
        assert np.max(np.abs(s.samples)) == pytest.approx(1.0, abs=1e-5)
        assert mean_level_dbfs(s) == pytest.approx(-3.0103, abs=1e-6)

    def test_100hz_zero_crossing_spacing(self):
        spec = StimulusSpec(kind="sine", duration=2.0, frequency=100.0,
                            target_level=-10.0)
        s = gen_sine(spec)
        signs = np.sign(s.samples)
        crossings = np.where(np.diff(signs) != 0)[0]
        spacing = np.diff(crossings)
        # 44100/100 = 441 samples per period -> crossings every 220.5
        assert np.mean(spacing) == pytest.approx(220.5, abs=0.01)

    def test_65hz_energy_lands_in_50_75_band(self, nl8_bank):
        spec = StimulusSpec(kind="sine", duration=2.0, frequency=65.0,
                            target_level=-10.0)
        s = gen_sine(spec)
        bands = decompose(nl8_bank, s)
        energies = [np.sum(steady_state(b, nl8_bank.length) ** 2) for b in bands]
        assert energies[1] / sum(energies) >= 0.99

    def test_level_contract_various_frequencies(self):
        for f in (20.5, 65.0, 100.0, 997.0, 12000.0):
            spec = StimulusSpec(kind="sine", duration=0.7, frequency=f,
                                target_level=-12.5)
            s = gen_sine(spec)
            assert mean_level_dbfs(s) == pytest.approx(-12.5, abs=1e-3)

    def test_too_short_for_one_period(self):
        spec = StimulusSpec(kind="sine", duration=0.001, frequency=65.0)
        with pytest.raises(InvalidInputError):
            gen_sine(spec)


class TestPink:
    def test_seed_determinism(self):
        spec = StimulusSpec(kind="pink", duration=1.5, seed=123)
        a = gen_pink(spec)
        b = gen_pink(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = gen_pink(StimulusSpec(kind="pink", duration=0.5, seed=1))
        b = gen_pink(StimulusSpec(kind="pink", duration=0.5, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_level_contract(self):
        s = gen_pink(StimulusSpec(kind="pink", duration=10.0, seed=0,
                                  target_level=-20.0))
        assert mean_level_dbfs(s) == pytest.approx(-20.0, abs=1e-3)

    def test_slope_is_minus_3_db_per_octave(self, pink_10s):
        slope = spectral_slope(pink_10s, 100.0, 10000.0)
        assert slope == pytest.approx(-3.0, abs=0.5)

    def test_dispatch(self):
        s = gen_stimulus(StimulusSpec(kind="pink", duration=0.25, seed=5))
        assert isinstance(s, Signal)


def _pink_rows_by_index(n, rows, rng):
    """The staggered row sum by an explicit index per sample: sample i of
    row k holds value min((i + 2**k - 2**(k-1)) // 2**k, values - 1)."""
    out = rng.standard_normal(n)
    for k in range(1, rows):
        step = 1 << k
        offset = 1 << (k - 1)
        n_vals = (n - offset + step - 1) // step + 1
        vals = rng.standard_normal(n_vals)
        idx = np.minimum((np.arange(n) + step - offset) // step, n_vals - 1)
        out += vals[idx]
    return out / math.sqrt(rows)


class TestPinkRows:
    @pytest.mark.parametrize("rows", range(4, 13))
    def test_equals_the_index_formula_bit_for_bit(self, rows):
        for n in [*range(1, 301), 441000]:
            got = _pink_rows(n, rows, np.random.default_rng(n))
            want = _pink_rows_by_index(n, rows, np.random.default_rng(n))
            assert got.tobytes() == want.tobytes(), n

    def test_seeded_10s_stimulus_is_pinned(self):
        s = gen_pink(StimulusSpec(kind="pink", duration=10.0, seed=7))
        digest = hashlib.sha256(s.samples.astype("<f8").tobytes()).hexdigest()
        assert digest == "91005bf9a0f90a07e9b3b5539a2164c1550bef6f0fe615531c92ec61800f2ce5"


class TestSpectralSlope:
    def test_white_noise_flat(self, white_10s):
        assert spectral_slope(white_10s, 100.0, 10000.0) == pytest.approx(0.0, abs=0.5)

    def test_brown_noise(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(FS * 10)
        brown = np.cumsum(w)
        brown -= brown.mean()
        s = Signal(brown / np.max(np.abs(brown)), FS)
        assert spectral_slope(s, 100.0, 10000.0) == pytest.approx(-6.0, abs=1.0)
