import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import correlate, fftconvolve

import bandscope
from bandscope import (
    BAND_PRESETS,
    BandMapping,
    Signal,
    apply_zero_phase,
    decompose,
    design_bank,
    load_mapping,
)
from bandscope.errors import (
    InvalidInputError,
    InvalidLengthError,
    InvalidMappingError,
    RateMismatchError,
)
from bandscope import filterbank
from bandscope.filterbank import band_energies
from oracles import dft_magnitude, direct_zero_phase, periodogram_band_weights, steady_state

FS = 44100


class TestBandMapping:
    def test_single_band_rejected(self):
        with pytest.raises(InvalidMappingError):
            BandMapping((0, 22050))

    def test_must_start_at_zero(self):
        with pytest.raises(InvalidMappingError):
            BandMapping((10, 1000, 22050))

    def test_must_increase(self):
        with pytest.raises(InvalidMappingError):
            BandMapping((0, 1000, 1000, 22050))

    def test_nyquist_check_against_rate(self):
        m = BandMapping((0, 1000, 22050))
        with pytest.raises(InvalidMappingError):
            design_bank(m, 48000, 1023)

    def test_presets_are_valid(self):
        for name, edges in BAND_PRESETS.items():
            m = BandMapping(edges)
            assert m.edges[0] == 0
            assert m.edges[-1] == 22050
        assert BandMapping(BAND_PRESETS["ids10"]).n_bands == 10
        assert BandMapping(BAND_PRESETS["nl8"]).n_bands == 8

    def test_load_mapping_config(self, tmp_path):
        cfg = tmp_path / "bands.txt"
        cfg.write_text("# two bands\n0\n1000\n\n22050\n")
        m = load_mapping(cfg)
        assert m.edges == (0.0, 1000.0, 22050.0)

    def test_load_mapping_bad_line(self, tmp_path):
        cfg = tmp_path / "bands.txt"
        cfg.write_text("0\nnope\n22050\n")
        with pytest.raises(InvalidMappingError):
            load_mapping(cfg)


class TestDesign:
    def test_even_length_rejected(self):
        with pytest.raises(InvalidLengthError):
            design_bank(BandMapping((0, 1000, 22050)), FS, 1024)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidLengthError):
            design_bank(BandMapping((0, 1000, 22050)), FS, 31)

    @pytest.mark.parametrize("length", [1023, 16383])
    def test_complementarity_ids10(self, length):
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, length)
        total = np.sum(bank.taps, axis=0)
        delta = np.zeros(length)
        delta[(length - 1) // 2] = 1.0
        assert np.max(np.abs(total - delta)) < 1e-10

    def test_each_filter_symmetric(self, ids10_bank_fast):
        for taps in ids10_bank_fast.taps:
            np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)

    def test_magnitude_two_band(self):
        bank = design_bank(BandMapping((0, 1000, 22050)), FS, 4095)
        passband = dft_magnitude(np.asarray(bank.taps[0]), FS, 500.0)
        stopband = dft_magnitude(np.asarray(bank.taps[0]), FS, 2000.0)
        assert 20 * np.log10(passband) >= -0.1
        assert 20 * np.log10(stopband) <= -80.0


class TestApplyZeroPhase:
    def test_impulse_returns_centered_taps(self, ids10_bank_fast):
        n = 4001
        x = np.zeros(n)
        pos = 2000
        x[pos] = 1.0
        out = apply_zero_phase(ids10_bank_fast, 4, Signal(x, FS))
        half = (ids10_bank_fast.length - 1) // 2
        np.testing.assert_allclose(
            out[pos - half:pos + half + 1], ids10_bank_fast.taps[4], atol=1e-12
        )

    def test_rate_mismatch(self, ids10_bank_fast):
        with pytest.raises(RateMismatchError):
            apply_zero_phase(ids10_bank_fast, 0, Signal(np.zeros(100), 48000))

    def test_bad_band_index(self, ids10_bank_fast):
        with pytest.raises(InvalidMappingError):
            apply_zero_phase(ids10_bank_fast, 10, Signal(np.zeros(100), FS))

    def test_band_index_must_be_an_integer(self, ids10_bank_fast):
        signal = Signal(np.ones(100), FS)
        for index in (1.5, 1.0, "1", None):
            with pytest.raises(InvalidMappingError, match="not an integer"):
                apply_zero_phase(ids10_bank_fast, index, signal)
        assert np.array_equal(apply_zero_phase(ids10_bank_fast, np.int64(1), signal),
                              apply_zero_phase(ids10_bank_fast, 1, signal))

    def test_subbands_are_float64_arrays_of_the_input_length(self, ids10_bank_fast):
        signal = Signal(np.random.default_rng(3).standard_normal(5000), FS)
        subbands = [apply_zero_phase(ids10_bank_fast, 2, signal),
                    *decompose(ids10_bank_fast, signal)]
        for subband in subbands:
            assert type(subband) is np.ndarray
            assert subband.dtype == np.float64 and subband.shape == (5000,)

    def test_input_whose_energy_overflows_raises(self, ids10_bank_fast):
        # 1e154 squared is finite, its sum over 1000 samples is not
        with pytest.raises(InvalidInputError, match="energy overflows"):
            bandscope.spectral_balance(Signal(np.full(1000, 1e154), FS), ids10_bank_fast)
        huge = Signal(np.full(1000, 1e306), FS)
        with pytest.raises(InvalidInputError):
            decompose(ids10_bank_fast, huge)
        with pytest.raises(InvalidInputError):
            apply_zero_phase(ids10_bank_fast, 0, huge)
        assert ids10_bank_fast._spectra.inputs == {}

    def test_inband_sine_zero_lag_and_gain(self, ids10_bank):
        # 1 kHz sits inside band 5 (800-1200 Hz)
        x = np.sin(2 * np.pi * 1000 * np.arange(2 * FS) / FS)
        out = apply_zero_phase(ids10_bank, 4, Signal(x, FS))
        c = correlate(out, x, mode="full", method="fft")
        assert int(np.argmax(c)) - (len(x) - 1) == 0

        expected = dft_magnitude(np.asarray(ids10_bank.taps[4]), FS, 1000.0)
        core_in = steady_state(x, ids10_bank.length)
        core_out = steady_state(out, ids10_bank.length)
        ratio_db = 10 * np.log10(np.mean(core_out**2) / np.mean(core_in**2))
        assert ratio_db == pytest.approx(20 * np.log10(expected), abs=0.05)

    def test_out_of_band_sine_heavily_attenuated(self, ids10_bank):
        # 1 kHz through band 2 (50-200 Hz); steady state isolates the
        # designed response from the finite-signal edge splatter
        x = np.sin(2 * np.pi * 1000 * np.arange(2 * FS) / FS)
        out = apply_zero_phase(ids10_bank, 1, Signal(x, FS))
        core_in = steady_state(x, ids10_bank.length)
        core_out = steady_state(out, ids10_bank.length)
        ratio_db = 10 * np.log10(np.mean(core_out**2) / np.mean(core_in**2))
        assert ratio_db <= -80.0


class TestDecompose:
    def test_zero_in_zero_out(self, ids10_bank_fast):
        bands = decompose(ids10_bank_fast, Signal(np.zeros(1000), FS))
        assert len(bands) == 10
        for b in bands:
            assert np.all(b == 0.0)

    def test_reconstruction_white_noise(self, ids10_bank_fast, white_2s):
        bands = decompose(ids10_bank_fast, white_2s)
        total = np.sum(bands, axis=0)
        err = total - white_2s.samples
        err_db = 10 * np.log10(np.sum(err**2) / np.sum(white_2s.samples**2))
        assert err_db <= -60.0

    def test_linearity(self, ids10_bank_fast):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        a, b = 0.7, -1.3
        mixed = decompose(ids10_bank_fast, Signal(a * x + b * y, FS))
        dx = decompose(ids10_bank_fast, Signal(x, FS))
        dy = decompose(ids10_bank_fast, Signal(y, FS))
        for m, u, v in zip(mixed, dx, dy):
            np.testing.assert_allclose(
                m, a * u + b * v, atol=1e-9
            )

    def test_energy_partition_white(self, ids10_bank, white_10s):
        bands = decompose(ids10_bank, white_10s)
        total = sum(float(np.sum(b**2)) for b in bands)
        ratio = total / float(np.sum(white_10s.samples**2))
        assert 0.98 <= ratio <= 1.02

    def test_sine65_concentrates_in_50_75_band(self, nl8_bank):
        x = np.sin(2 * np.pi * 65 * np.arange(2 * FS) / FS)
        bands = decompose(nl8_bank, Signal(x, FS))
        energies = np.array(
            [np.sum(steady_state(b, nl8_bank.length) ** 2) for b in bands]
        )
        main = energies[1]  # 50-75 Hz
        assert main / energies.sum() >= 0.99
        for i, e in enumerate(energies):
            if i != 1:
                assert 10 * np.log10(e / main) <= -40.0

    def test_matches_periodogram_oracle(self, ids10_bank, white_10s):
        bands = decompose(ids10_bank, white_10s)
        total = float(np.sum(white_10s.samples**2))
        measured = np.array([np.sum(b**2) / total for b in bands])
        oracle = periodogram_band_weights(
            white_10s.samples, FS, ids10_bank.mapping.edges
        )
        assert float(np.sum(measured)) == pytest.approx(float(np.sum(oracle)), abs=0.02)
        np.testing.assert_allclose(measured, oracle, atol=0.02)


def _inputs(n, rng):
    """White noise and a 65 Hz sine (most bands nearly empty), at full scale
    and at 1e-8."""
    t = np.arange(n) / FS
    for x in (rng.standard_normal(n), np.sin(2 * np.pi * 65 * t + 0.3)):
        for amp in (1.0, 1e-8):
            yield Signal(amp * x, FS)


def _block_step(bank):
    """Output samples per overlap-save block of ``bank`` on a long input."""
    m, blocks = filterbank._blocks(bank, 10**9)
    assert blocks > 1
    return m - bank.length + 1


def _checked_indices(n, step, rng):
    """Output indices to compare with the direct sum: all of them for short
    inputs; otherwise both ends, both sides of every block boundary and 200
    more at random."""
    if n <= 4096:
        return np.arange(n)
    picks = [np.arange(8), np.arange(n - 8, n), rng.integers(0, n, 200)]
    picks += [np.arange(b - 3, min(b + 3, n)) for b in range(step, n, step)]
    return np.unique(np.concatenate(picks))


def _assert_matches_direct(got, signal, taps, at):
    """``got`` within 1e-13 * max|x| of the convolution sum at indices ``at``."""
    assert got.shape == signal.samples.shape
    ref = direct_zero_phase(signal.samples, taps, at)
    atol = 1e-13 * np.max(np.abs(signal.samples))
    np.testing.assert_allclose(got[at], ref, rtol=0, atol=atol)


class TestAgainstDirectConvolution:
    """Overlap-save filtering against the convolution sum it computes, on
    inputs shorter than, equal to and longer than the filters and on either
    side of every block boundary."""

    @pytest.mark.parametrize("preset", ["ids10", "nl8"])
    @pytest.mark.parametrize("length", [63, 1023, 16383])
    def test_matches_direct_convolution(self, preset, length):
        bank = design_bank(BandMapping(BAND_PRESETS[preset]), FS, length)
        step = _block_step(bank)
        rng = np.random.default_rng(length)
        lengths = [1, 2, 3, length // 2, length, length + 1, 3 * length + 7]
        lengths += [k * step + d for k in (1, 2) for d in (-1, 0, 1)]
        for n in lengths:
            at = _checked_indices(n, step, rng)
            for signal in _inputs(n, rng):
                subbands = decompose(bank, signal)
                for i, taps in enumerate(bank.taps):
                    _assert_matches_direct(apply_zero_phase(bank, i, signal),
                                           signal, taps, at)
                    _assert_matches_direct(subbands[i], signal, taps, at)

    def test_alternating_lengths_cache_one_length(self, ids10_bank_fast):
        bank = ids10_bank_fast
        rng = np.random.default_rng(4)
        # one block of its own length, and blocks of the bank's length
        short = Signal(rng.standard_normal(700), FS)
        long_ = Signal(rng.standard_normal(5000), FS)
        assert filterbank._blocks(bank, len(short))[1] == 1
        assert filterbank._blocks(bank, len(long_))[1] > 1
        for signal in (short, long_, short, long_, short):
            for i, taps in enumerate(bank.taps):
                _assert_matches_direct(apply_zero_phase(bank, i, signal), signal,
                                       taps, np.arange(len(signal)))
            m = filterbank._blocks(bank, len(signal))[0]
            length, responses = bank._spectra.responses
            assert length == m
            assert len(responses) == bank.n_bands
            assert {h.size for h in responses} == {m // 2 + 1}

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_decompose_on_any_worker_count(
            self, cpus, band_workers, ids10_bank_fast, white_2s):
        band_workers(1)
        one_worker = decompose(ids10_bank_fast, white_2s)
        band_workers(cpus)
        subbands = decompose(ids10_bank_fast, white_2s)
        at = _checked_indices(len(white_2s), _block_step(ids10_bank_fast),
                              np.random.default_rng(cpus))
        for sub, alone, taps in zip(subbands, one_worker, ids10_bank_fast.taps, strict=True):
            _assert_matches_direct(sub, white_2s, taps, at)
            assert np.array_equal(sub, alone)


class TestAgainstFftconvolve:
    """The block path against the whole-signal one it replaced:
    scipy.signal.fftconvolve(x, h, mode="same") per band."""

    @pytest.mark.parametrize("length", [63, 16383])
    def test_one_sample_within_rounding(self, length):
        # fftconvolve multiplies a 1-sample input by the centre tap directly
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, length)
        for signal in _inputs(1, np.random.default_rng(2)):
            for i, taps in enumerate(bank.taps):
                ref = fftconvolve(signal.samples, taps, mode="same")
                got = apply_zero_phase(bank, i, signal)
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", ["pink", "sine65"])
    def test_band_weights_within_1e_12_of_fftconvolve(self, kind, ids10_bank, pink_10s):
        if kind == "pink":
            signal = pink_10s
        else:  # the bands above 200 Hz hold almost nothing: the top one 1e-11
            t = np.arange(10 * FS) / FS
            signal = Signal(0.1 * np.sin(2 * np.pi * 65 * t), FS)
        energies = np.array(band_energies(ids10_bank, signal))
        ref = np.array([np.sum(np.square(fftconvolve(signal.samples, taps, mode="same")))
                        for taps in ids10_bank.taps])
        np.testing.assert_allclose(energies / energies.sum(), ref / ref.sum(),
                                   rtol=1e-12, atol=0)

    def test_shared_spectrum_released_after_decompose(self, ids10_bank_fast):
        decompose(ids10_bank_fast, Signal(np.ones(500), FS))
        assert ids10_bank_fast._spectra.inputs == {}
        with pytest.raises(RateMismatchError):
            decompose(ids10_bank_fast, Signal(np.ones(500), 48000))
        assert ids10_bank_fast._spectra.inputs == {}


class TestNextFastLen:
    """The transform length against scipy's, the one fftconvolve uses, so
    the transforms and their bits stay those of fftconvolve."""

    def test_every_length_to_200000(self):
        lengths = range(1, 200_001)
        assert ([filterbank._next_fast_len(n) for n in lengths]
                == [next_fast_len(n, real=True) for n in lengths])

    def test_random_lengths_below_1e8(self):
        for n in np.random.default_rng(8).integers(1, 10**8, 20_000).tolist():
            assert filterbank._next_fast_len(n) == next_fast_len(n, real=True), n


def _energies(subbands):
    return tuple(float(np.sum(np.square(s))) for s in subbands)


class TestBandEnergies:
    """The pooled energy path against the energies of decompose's subbands."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind", ["pink", "sine65", "shorter-than-taps"])
    def test_bit_identical_to_decompose(self, kind, cpus, band_workers, ids10_bank,
                                        pink_10s):
        band_workers(cpus)
        if kind == "pink":
            signal = pink_10s
        elif kind == "sine65":  # the bands above 200 Hz hold almost nothing
            t = np.arange(10 * FS) / FS
            signal = Signal(0.1 * np.sin(2 * np.pi * 65 * t), FS)
        else:
            signal = Signal(np.random.default_rng(6).standard_normal(5000), FS)
        assert band_energies(ids10_bank, signal) == _energies(decompose(ids10_bank, signal))

    def test_import_starts_no_thread(self):
        code = "import threading, bandscope; print(threading.active_count())"
        env = {**os.environ, "PYTHONPATH": str(Path(bandscope.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "1"

    @pytest.mark.parametrize("n_bands", [3, 5, 10])
    def test_at_most_one_thread_per_two_bands(self, n_bands, band_workers, monkeypatch):
        band_workers(8)
        edges = (0, *np.geomspace(100, 15000, n_bands - 1), 22050)
        bank = design_bank(BandMapping(edges), FS, 63)
        signal = Signal(np.ones(1000), FS)
        for split in (band_energies, decompose):
            filtering = set()

            def apply(*args):
                filtering.add(threading.get_ident())
                return apply_zero_phase(*args)

            monkeypatch.setattr(filterbank, "apply_zero_phase", apply)
            threads = threading.active_count()
            split(bank, signal)
            # never the caller, even with one worker
            assert threading.get_ident() not in filtering
            assert 0 < len(filtering) <= max(1, n_bands // 2)
            assert threading.active_count() == threads  # the workers are joined

    def test_concurrent_callers_of_other_lengths_get_the_serial_result(self, band_workers):
        # every call of one caller swaps the band responses for its length
        # while the other caller's bands are being filtered
        band_workers(2 * (os.cpu_count() or 1))  # more workers than cores
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, 1023)
        rng = np.random.default_rng(8)
        signals = [Signal(rng.standard_normal(n), FS) for n in (20_000, 30_000)]
        serial = [_energies(decompose(bank, s)) for s in signals]
        outcomes = _concurrently(50, *(lambda s=s: band_energies(bank, s) for s in signals))
        assert outcomes == [[s] * 50 for s in serial]

    def test_concurrent_callers_transform_each_input_once_per_call(self, band_workers,
                                                                   monkeypatch):
        band_workers(2)
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, 1023)
        rng = np.random.default_rng(9)
        signals = [Signal(0.05 * rng.standard_normal(2 * FS), FS) for _ in range(2)]
        serial = [_energies(decompose(bank, s)) for s in signals]
        m, blocks = filterbank._blocks(bank, 2 * FS)
        input_transforms = []

        def rfft(a, *args, **kwargs):
            if np.ndim(a) == 2:  # an input's blocks; a band response is 1-D taps
                input_transforms.append(np.shape(a))
            return np.fft.rfft(a, *args, **kwargs)

        monkeypatch.setattr(filterbank, "rfft", rfft)
        outcomes = _concurrently(5, *(lambda s=s: band_energies(bank, s) for s in signals))
        assert outcomes == [[s] * 5 for s in serial]
        assert input_transforms == [(blocks, m)] * 10

    def test_concurrent_callers_longer_than_a_block_share_one_set_of_responses(
            self, band_workers, monkeypatch):
        band_workers(2)
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, 1023)
        rng = np.random.default_rng(10)
        signals = [Signal(rng.standard_normal(n), FS) for n in (20_000, 30_000)]
        assert all(filterbank._blocks(bank, len(s))[1] > 1 for s in signals)
        serial = [_energies(decompose(bank, s)) for s in signals]
        bank = design_bank(bank.mapping, FS, 1023)  # no responses yet
        response_transforms = []

        def rfft(a, *args, **kwargs):
            if np.ndim(a) == 1:  # a band's taps; an input's blocks are 2-D
                response_transforms.append(np.size(a))
            return np.fft.rfft(a, *args, **kwargs)

        monkeypatch.setattr(filterbank, "rfft", rfft)
        outcomes = _concurrently(10, *(lambda s=s: band_energies(bank, s) for s in signals))
        assert outcomes == [[s] * 10 for s in serial]
        assert response_transforms == [bank.length] * bank.n_bands

    def test_concurrent_splits_of_one_signal_get_the_serial_result(self, band_workers,
                                                                   ids10_bank_fast, white_2s):
        band_workers(2)
        serial = _energies(decompose(ids10_bank_fast, white_2s))

        def split():
            return _energies(decompose(ids10_bank_fast, white_2s))

        assert _concurrently(10, split, split) == [[serial] * 10] * 2
        assert ids10_bank_fast._spectra.inputs == {}

    def test_errors_of_a_band_reach_the_caller(self, band_workers, ids10_bank_fast):
        band_workers(2)
        with pytest.raises(RateMismatchError):
            band_energies(ids10_bank_fast, Signal(np.ones(500), 48000))
        assert ids10_bank_fast._spectra.inputs == {}


def _concurrently(calls: int, *targets) -> list[list]:
    """Each target called ``calls`` times on a thread of its own, all threads
    at once and switching often: per target, its results, or the repr of
    what each call raised."""
    outcomes = [[] for _ in targets]

    def run(k):
        for _ in range(calls):
            try:
                outcomes[k].append(targets[k]())
            except Exception as exc:
                outcomes[k].append(repr(exc))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(targets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return outcomes
