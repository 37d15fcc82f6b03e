"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Filter-accuracy criteria run at the measurement-grade tap count (16383);
the complementarity criterion also covers the fast 1023-tap variant.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.signal import correlate

from bandscope import (
    BAND_PRESETS,
    BandMapping,
    DirectivityModel,
    DistanceProfile,
    Signal,
    StimulusSpec,
    SynthCampaignSpec,
    analyze_report,
    decompose,
    design_bank,
    directivity_gain,
    export,
    gen_pink,
    ingest,
    compare_to_stimulus,
    save_wav,
    spectral_balance,
    synth_campaign,
    validity_limit,
    weight_evolution,
)
from bandscope.campaign import ComparisonReport
from oracles import periodogram_band_weights, spectral_slope

FS = 44100
L_FULL = 16383
L_FAST = 1023

FLAT_DISTANCES = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
PROFILE_DISTANCES = (5, 10, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100)

# +-12 dB bounded, includes the subband-1 boost of +8 dB at 5 cm
RECOVERY_PROFILE = {
    0: ((5.0, 8.0), (25.0, 4.0), (50.0, 0.0), (100.0, 0.0)),
    3: ((5.0, -12.0), (50.0, 0.0), (100.0, 0.0)),
    6: ((5.0, 12.0), (40.0, 0.0), (100.0, 0.0)),
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} [{description}] FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{description}] PASS")


def _stimulus(duration=1.0):
    return gen_pink(
        StimulusSpec(kind="pink", duration=duration, sample_rate=FS,
                     target_level=-20.0, seed=7)
    )


def _write_campaign(root, bank):
    """Generate the synthetic acceptance campaign on disk: a flat cardioid
    series plus a profiled omni series, one manifest for both."""
    root.mkdir(parents=True, exist_ok=True)
    stimulus = _stimulus()
    entries = []

    flat_spec = SynthCampaignSpec(
        stimulus=stimulus, distances_cm=FLAT_DISTANCES,
        model=DirectivityModel.cardioid(),
        microphone="synthcard", stimulus_label="pink",
    )
    flat_series, _ = synth_campaign(flat_spec)

    profile_spec = SynthCampaignSpec(
        stimulus=stimulus, distances_cm=PROFILE_DISTANCES,
        model=DirectivityModel.omni(),
        profile=DistanceProfile(bands=RECOVERY_PROFILE),
        microphone="synthprox", stimulus_label="pink",
    )
    profile_series, profile_truth = synth_campaign(profile_spec, bank)

    for series in (flat_series, profile_series):
        for entry, signal in zip(series.entries, series.recordings):
            name = f"{'_'.join(series.key)}_{entry.distance_cm:g}cm.wav"
            save_wav(signal, root / name, encoding="float32")
            entries.append({
                "path": name, "distance_cm": entry.distance_cm,
                "microphone": entry.microphone,
                "directivity": entry.directivity,
                "stimulus": entry.stimulus,
            })
    (root / "manifest.json").write_text(json.dumps({"entries": entries}, indent=2))
    (root / "ground_truth.csv").write_text(profile_truth.to_csv())
    return profile_truth


@pytest.fixture(scope="module")
def banks():
    return {
        "ids10": design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, L_FULL),
        "ids10_fast": design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, L_FAST),
        "nl8": design_bank(BandMapping(BAND_PRESETS["nl8"]), FS, L_FULL),
    }


@pytest.fixture(scope="module")
def campaign(tmp_path_factory, banks):
    root = tmp_path_factory.mktemp("acceptance_campaign")
    truth = _write_campaign(root, banks["ids10"])
    report = ingest(root / "manifest.json")
    result = analyze_report(report, banks["ids10"], 100.0, 1.0)
    return {"root": root, "truth": truth, "report": report, "result": result}


@pytest.fixture(scope="module")
def white10():
    rng = np.random.default_rng(3)
    return Signal(0.05 * rng.standard_normal(FS * 10), FS)


@pytest.fixture(scope="module")
def pink10():
    return gen_pink(StimulusSpec(kind="pink", duration=10.0, seed=11,
                                 target_level=-20.0))


def test_c01_complementarity_and_design_time(banks):
    with criterion(1, "complementarity ids10, L=16383 and L=1023, <10 s"):
        t0 = time.perf_counter()
        bank = design_bank(BandMapping(BAND_PRESETS["ids10"]), FS, L_FULL)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        for b in (bank, banks["ids10_fast"]):
            total = np.sum(b.taps, axis=0)
            delta = np.zeros(b.length)
            delta[(b.length - 1) // 2] = 1.0
            assert np.max(np.abs(total - delta)) < 1e-10


def test_c02_reconstruction_both_presets(banks, white10):
    with criterion(2, "decompose-then-sum residual <= -60 dB, both presets"):
        for name in ("ids10", "nl8"):
            bands = decompose(banks[name], white10)
            residual = np.sum(bands, axis=0) - white10.samples
            err_db = 10 * np.log10(
                np.sum(residual**2) / np.sum(white10.samples**2)
            )
            assert err_db <= -60.0, f"{name}: {err_db:.1f} dB"


def test_c03_zero_phase_band_center_sines(banks):
    with criterion(3, "band-center sine cross-correlation peaks at lag 0"):
        bank = banks["ids10"]
        edges = bank.mapping.edges
        for band in range(bank.n_bands):
            fc = 0.5 * (edges[band] + edges[band + 1])
            x = np.sin(2 * np.pi * fc * np.arange(2 * FS) / FS)
            y = decompose(bank, Signal(x, FS))[band]
            c = correlate(y, x, mode="full", method="fft")
            lag = int(np.argmax(c)) - (len(x) - 1)
            assert lag == 0, f"band {band + 1} ({fc:g} Hz): lag {lag}"


def test_c04_energy_partition_vs_periodogram(banks, white10, pink10):
    with criterion(4, "energy partition in [0.98,1.02]; bands match oracle"):
        bank = banks["ids10"]
        for name, sig in (("white", white10), ("pink", pink10)):
            weights = np.array(spectral_balance(sig, bank).weights_linear)
            assert 0.98 <= weights.sum() <= 1.02, f"{name}: sum {weights.sum():.4f}"
            oracle = periodogram_band_weights(sig.samples, FS, bank.mapping.edges)
            # +-2% on the weight scale (weights sum to 1), matching the
            # scale of the sum criterion
            np.testing.assert_allclose(weights, oracle, atol=0.02)


def test_c05_inverse_distance_closed_loop(campaign):
    with criterion(5, "flat campaign: |measured-theory| <= 0.05 dB, limit 5 cm"):
        flat = next(
            a for a in campaign["result"].analyses if a.key[0] == "synthcard"
        )
        assert len(flat.level_points) == len(FLAT_DISTANCES)
        assert flat.max_abs_gap_db <= 0.05
        assert flat.level_verdict.limit_distance_cm == 5.0
        for verdict in flat.band_verdicts:
            assert verdict.limit_distance_cm == 5.0


def test_c06_profile_recovery(campaign, banks):
    bank = banks["ids10"]
    with criterion(6, "injected profiles recovered within +-0.3 dB"):
        # (a) the subband-1 boost alone, checked directly against the
        # injected curve; with a white stimulus band 1 carries ~0.2% of
        # the energy, so the weight renormalization is negligible
        rng = np.random.default_rng(5)
        stimulus = Signal(0.05 * rng.standard_normal(2 * FS), FS)
        solo = SynthCampaignSpec(
            stimulus=stimulus, distances_cm=(5, 25, 50, 100),
            profile=DistanceProfile(bands={0: RECOVERY_PROFILE[0]}),
        )
        series, _ = synth_campaign(solo, bank)
        evo = weight_evolution(series.measure(bank, 100.0))[0]
        recovered = dict(evo.points)
        for d, injected in RECOVERY_PROFILE[0]:
            assert recovered[d] == pytest.approx(injected, abs=0.3)

        # (b) the +-12 dB multi-band profile against the ground-truth
        # deltas (injected gains plus the exact total-energy term)
        truth = campaign["truth"]
        prox = next(
            a for a in campaign["result"].analyses if a.key[0] == "synthprox"
        )
        for evo in prox.weight_evolutions:
            got = dict(evo.points)
            for d in PROFILE_DISTANCES:
                expected = truth.expected_delta(evo.band_index, float(d))
                assert got[float(d)] == pytest.approx(expected, abs=0.3), (
                    f"band {evo.band_index + 1} at {d} cm"
                )


def test_c07_validity_limit_logic():
    with criterion(7, "validity verdicts: 50 cm case and no-limit case"):
        fifty = validity_limit(
            [(5, -6.0), (25, -2.0), (50, -0.8), (75, 0.3), (100, 0.0)], 1.0
        )
        assert fifty.limit_distance_cm == 50.0
        none = validity_limit(
            [(5, 1.5), (25, -1.5), (50, 1.5), (75, -1.5), (100, 1.5)], 1.0
        )
        assert none.limit_distance_cm is None


def test_c08_pink_noise_contract(banks):
    with criterion(8, "pink: slope -3+-0.5 dB/oct, seeded, octave-equal bands"):
        spec = StimulusSpec(kind="pink", duration=60.0, sample_rate=FS,
                            target_level=-20.0, seed=20250810)
        pink = gen_pink(spec)
        again = gen_pink(spec)
        assert np.array_equal(pink.samples, again.samples)
        slope = spectral_slope(pink, 100.0, 10000.0)
        assert slope == pytest.approx(-3.0, abs=0.5)
        weights = spectral_balance(pink, banks["ids10"]).weights_linear
        ratio = weights[2] / weights[3]  # 200-400 vs 400-800 Hz
        assert 1 / 1.15 <= ratio <= 1.15


def test_c09_directivity_anchors():
    with criterion(9, "directivity: D(0)=1, cardioid D(pi)=0, bidi D(pi/2)=0"):
        for m in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0):
            assert directivity_gain(DirectivityModel(m), 0.0) == 1.0
        assert directivity_gain(DirectivityModel.cardioid(), math.pi) == 0.0
        assert abs(directivity_gain(DirectivityModel.bidirectional(), math.pi / 2)) < 1e-15


def test_c10_comparison_table_fidelity(banks):
    bank = banks["ids10"]
    with criterion(10, "7-row comparison table, signs verified on synthetic"):
        stimulus = _stimulus()
        stim_weights = np.array(spectral_balance(stimulus, bank).weights_linear)
        cases = [  # (microphone label, attenuated band index or None)
            ("Endevco-sensor", 9),
            ("ECM8000-omni", None),
            ("U89i-omni", 1),
            ("U89i-bidi", 2),
            ("U89i-cardio", 4),
            ("AT2020", 7),
            ("C-2", 8),
        ]
        rows = []
        for mic, band in cases:
            profile = None
            if band is not None:
                profile = DistanceProfile(bands={band: ((100.0, -3.0),)})
            spec = SynthCampaignSpec(
                stimulus=stimulus, distances_cm=(100.0,),
                profile=profile, microphone=mic, stimulus_label="pink",
            )
            series, _ = synth_campaign(spec, bank if profile else None)
            rows.append(compare_to_stimulus(stimulus, series, bank, 100.0))

        report = ComparisonReport(stimulus_label="One", rows=tuple(rows),
                                  n_bands=bank.n_bands)
        lines = report.to_csv().strip().split("\n")
        assert len(lines) == 8  # header + 7 microphones
        header = lines[0].split(",")
        assert header[1:11] == [f"band{i}" for i in range(1, 11)]
        assert header[11:] == ["stimulus_level_dbfs", "recording_level_dbfs"]

        for (mic, band), row in zip(cases, rows):
            diffs = np.array(row.diffs_db)
            if band is None:
                np.testing.assert_allclose(diffs, 0.0, atol=1e-9)
                continue
            # true values: attenuating one band by 3 dB makes it
            # stimulus-heavier by 3 dB minus the renormalization shift
            # that all bands share
            renorm = 10 * math.log10(
                1.0 + stim_weights[band] * (10 ** (-3.0 / 10) - 1.0)
            )
            expected = np.full(bank.n_bands, renorm)
            expected[band] += 3.0
            np.testing.assert_allclose(diffs, expected, atol=0.1)
            assert diffs[band] > 0  # positive = stimulus-heavier


def test_c11_determinism_byte_identical_exports(tmp_path_factory, banks):
    with criterion(11, "two full campaign runs export byte-identical trees"):
        trees = []
        for name in ("run_a", "run_b"):
            root = tmp_path_factory.mktemp(name)
            _write_campaign(root / "campaign", banks["ids10"])
            report = ingest(root / "campaign" / "manifest.json")
            result = analyze_report(report, banks["ids10"], 100.0, 1.0)
            export(result, root / "out")
            tree = {}
            for sub in ("campaign", "out"):
                for p in sorted((root / sub).iterdir()):
                    tree[f"{sub}/{p.name}"] = p.read_bytes()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for key in trees[0]:
            assert trees[0][key] == trees[1][key], f"{key} differs"
