import csv
import io
import json
import math
import shutil
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len

import bandscope.campaign
import bandscope.wavio
from bandscope import (
    BandMapping,
    DirectivityModel,
    DistanceProfile,
    IngestReport,
    MeasurementSeries,
    Signal,
    StimulusSpec,
    SynthCampaignSpec,
    analyze,
    analyze_report,
    compare_to_stimulus,
    design_bank,
    export,
    gen_pink,
    ingest,
    load_wav,
    mean_level_dbfs,
    save_wav,
    synth_campaign,
    theoretical_amplification,
    validity_limit,
)
from bandscope.balance import balance_difference, spectral_balance
from bandscope.campaign import ComparisonReport, ComparisonRow, save_series
from bandscope.cli import run
from bandscope.series import check_distances
from bandscope.errors import (
    DuplicateDistanceError,
    InvalidInputError,
    LoadError,
    ManifestError,
    MissingDistanceError,
    MissingReferenceError,
    RateMismatchError,
    SilenceError,
)

FS = 44100


def _write_manifest(tmp_path, rows):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": rows}))
    return manifest


def _synth_files(tmp_path, signal, distances, mic="ECM8000", directivity="omni",
                 stimulus="music", rate_overrides=None):
    rows = []
    for d in distances:
        name = f"{mic}_{directivity}_{stimulus}_{d}.wav"
        rate = (rate_overrides or {}).get(d, signal.sample_rate)
        save_wav(Signal(signal.samples * (100.0 / d), rate), tmp_path / name)
        rows.append({
            "path": name, "distance_cm": d, "microphone": mic,
            "directivity": directivity, "stimulus": stimulus,
        })
    return rows


def _memory_series(signals, distances):
    return MeasurementSeries(("m", "o", "s"), tuple(distances), tuple(signals))


@pytest.fixture(scope="module")
def two_band_bank():
    return design_bank(BandMapping((0, 1000, 22050)), FS, 63)


@pytest.fixture(scope="module")
def short_noise():
    rng = np.random.default_rng(42)
    return Signal(0.05 * rng.standard_normal(FS // 2), FS)


class TestIngest:
    def test_groups_one_series(self, tmp_path, short_noise):
        rows = _synth_files(tmp_path, short_noise, [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
        report = ingest(_write_manifest(tmp_path, rows))
        assert len(report.series) == 1
        assert report.errors == ()
        series = report.series[0]
        assert len(series.recordings) == 11
        assert series.distances == tuple(sorted(series.distances))

    def test_three_directivities_three_series(self, tmp_path, short_noise):
        rows = []
        for directivity in ("omni", "cardioid", "bidirectional"):
            rows += _synth_files(tmp_path, short_noise, [50, 100],
                                 mic="U89i", directivity=directivity)
        report = ingest(_write_manifest(tmp_path, rows))
        assert len(report.series) == 3
        assert sorted(s.key[1] for s in report.series) == [
            "bidirectional", "cardioid", "omni"
        ]

    def test_duplicate_distance_raises(self, tmp_path, short_noise):
        rows = _synth_files(tmp_path, short_noise, [40, 100])
        dup = dict(rows[0])
        dup["path"] = rows[1]["path"]
        rows.append(dup)
        with pytest.raises(DuplicateDistanceError):
            ingest(_write_manifest(tmp_path, rows))

    def test_duplicate_distance_raises_before_reading_files(self, tmp_path):
        rows = [{"path": f"absent_{i}.wav", "distance_cm": 40, "microphone": "M",
                 "directivity": "omni", "stimulus": "music"} for i in range(2)]
        with pytest.raises(DuplicateDistanceError):
            ingest(_write_manifest(tmp_path, rows))

    def test_missing_file_excludes_series_with_record(self, tmp_path, short_noise):
        rows = _synth_files(tmp_path, short_noise, [50, 100])
        rows += _synth_files(tmp_path, short_noise, [50, 100], mic="AT2020",
                             directivity="cardioid")
        rows.append({"path": "not_there.wav", "distance_cm": 25,
                     "microphone": "ECM8000", "directivity": "omni",
                     "stimulus": "music"})
        report = ingest(_write_manifest(tmp_path, rows))
        assert len(report.series) == 1  # AT2020 survives
        assert report.series[0].key[0] == "AT2020"
        assert len(report.errors) == 1
        assert report.errors[0].key == ("ECM8000", "omni", "music")
        assert "not_there.wav" in report.errors[0].message

    def test_rate_mismatch_raises(self, tmp_path, short_noise):
        rows = _synth_files(tmp_path, short_noise, [50, 100],
                            rate_overrides={50: 48000})
        with pytest.raises(RateMismatchError):
            ingest(_write_manifest(tmp_path, rows))

    def test_bad_manifest_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ManifestError):
            ingest(bad)

    def test_manifest_missing_fields(self, tmp_path):
        with pytest.raises(ManifestError):
            ingest(_write_manifest(tmp_path, [{"path": "x.wav"}]))

    def test_manifest_not_found(self, tmp_path):
        with pytest.raises(ManifestError):
            ingest(tmp_path / "missing.json")


class TestAnalyze:
    def test_colliding_file_stems_raise_before_measuring(self, tmp_path, short_noise,
                                                         ids10_bank_fast, monkeypatch):
        rows = []
        for k, mic in enumerate(("a/b", "a-b")):
            for d in (40, 100):
                save_wav(short_noise, tmp_path / f"s{k}_{d}.wav")
                rows.append({"path": f"s{k}_{d}.wav", "distance_cm": d, "microphone": mic,
                             "directivity": "omni", "stimulus": "music"})
        report = ingest(_write_manifest(tmp_path, rows))  # only export needs distinct stems
        assert [s.key[0] for s in report.series] == ["a-b", "a/b"]
        monkeypatch.setattr(MeasurementSeries, "measure",
                            lambda *args: pytest.fail("measured a recording"))
        with pytest.raises(ManifestError) as info:
            analyze_report(report, ids10_bank_fast)
        message = str(info.value)
        assert "('a-b', 'omni', 'music')" in message
        assert "('a/b', 'omni', 'music')" in message
        assert "'a-b_omni_music'" in message

    def test_flat_series_all_verdicts_at_smallest(self, ids10_bank_fast, white_2s):
        spec = SynthCampaignSpec(
            stimulus=white_2s, distances_cm=(5, 20, 50, 100)
        )
        series, _ = synth_campaign(spec)
        result = analyze(series, ids10_bank_fast)
        assert result.level_verdict.limit_distance_cm == 5.0
        for verdict in result.band_verdicts:
            assert verdict.limit_distance_cm == 5.0
        assert result.reequalized_bands == ()
        assert result.max_abs_gap_db <= 0.05

    def test_one_distance_has_no_verdict(self, two_band_bank, short_noise):
        # the reference alone: one point per band, so no band can name a limit
        result = analyze(_memory_series([short_noise], [100]), two_band_bank)
        assert [p.distance_cm for p in result.level_points] == [100.0]
        assert [(v.limit_distance_cm, v.rule) for v in result.band_verdicts] == [
            (None, "no validity limit: fewer than 2 usable points")] * 2

    def test_identical_signals_flat_curves(self, ids10_bank_fast, white_2s):
        series = MeasurementSeries(("m", "o", "s"), (10, 50, 100), (white_2s,) * 3)
        result = analyze(series, ids10_bank_fast)
        assert all(p.amplification_db == 0.0 for p in result.level_points)
        for evo in result.weight_evolutions:
            assert all(v == 0.0 for _, v in evo.points)

    def test_reequalization_flagged_and_unbounds_verdict(self, ids10_bank, white_2s):
        # band 2 dips to a minimum at 70 cm then rises back: no limit
        profile = DistanceProfile(
            bands={1: ((5.0, 0.0), (70.0, -3.0), (100.0, 0.0))}
        )
        spec = SynthCampaignSpec(
            stimulus=white_2s,
            distances_cm=(5, 20, 40, 70, 85, 100),
            profile=profile,
        )
        series, _ = synth_campaign(spec, ids10_bank)
        result = analyze(series, ids10_bank)
        assert 1 in result.reequalized_bands
        assert result.band_verdicts[1].limit_distance_cm is None

    @pytest.mark.parametrize("key, distances, message", [
        ((1, "omni", "s"), (100,), "labels must be nonempty strings"),
        (("m", "", "s"), (100,), "labels must be nonempty strings"),
        (("m", "omni"), (100,), "labels must be nonempty strings"),
        ("mos", (100,), "labels must be nonempty strings"),
        (("m", "omni", "s"), (50, 100), "one recording per distance required"),
        (("m", "omni", "s"), (math.nan,), "distance must be finite and >= 0 cm"),
    ], ids=["int-label", "empty-label", "two-labels", "one-string", "two-distances",
            "nan-distance"])
    def test_series_rejects_what_is_not_a_series(self, key, distances, message):
        with pytest.raises(InvalidInputError, match=message):
            MeasurementSeries(key, distances, (Signal(np.ones(8), FS),))

    def test_mixed_lengths_trimmed(self, ids10_bank_fast, white_2s):
        longer = Signal(np.concatenate([white_2s.samples, white_2s.samples]), FS)
        series = MeasurementSeries(("m", "o", "s"), (50, 100), (white_2s, longer))
        result = analyze(series, ids10_bank_fast)
        assert result.analyzed_length == len(white_2s)
        assert abs(result.level_points[0].amplification_db) < 0.2

    def test_int_distances_and_threshold_read_as_floats(self, two_band_bank):
        noise = Signal(0.05 * np.random.default_rng(5).standard_normal(3000), FS)

        def config_hash(distances):
            series = _memory_series([noise, noise], distances)
            return analyze_report(IngestReport((series,), ()), two_band_bank).config_hash

        assert config_hash((50, 100)) == config_hash((50.0, 100.0))
        with pytest.raises(MissingReferenceError) as info:
            _memory_series([noise, noise], (50, 100)).measure(two_band_bank, 70)
        assert "reference 70.0 cm (distances: (50.0, 100.0))" in str(info.value)
        with pytest.raises(MissingDistanceError, match=r"^series has no recording at 70\.0 cm "
                           r"\(distances: \(50\.0, 100\.0\)\)$"):
            compare_to_stimulus(noise, _memory_series([noise, noise], (50, 100)),
                                two_band_bank, 70)
        threshold = validity_limit([(1, 0.0), (2, 0.0)], 1).threshold_db
        assert threshold == 1.0 and isinstance(threshold, float)

    def test_minus_zero_distance_reads_as_zero(self, two_band_bank, tmp_path):
        noise = Signal(0.05 * np.random.default_rng(5).standard_normal(3000), FS)
        series = _memory_series([noise, noise], (-0.0, 100))
        assert [math.copysign(1.0, d) for d in series.distances] == [1.0, 1.0]
        save_series(series, tmp_path / "camp")
        assert sorted(p.name for p in (tmp_path / "camp").iterdir()) == [
            "m_o_s_0cm.wav", "m_o_s_100cm.wav", "manifest.json"]
        assert "-0" not in (tmp_path / "camp" / "manifest.json").read_text()
        export(analyze_report(IngestReport((series,), ()), two_band_bank), tmp_path / "out")
        rows = (tmp_path / "out" / "m_o_s_level.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "100"]

    @pytest.mark.parametrize("threshold", [math.nan, 0, -1])
    def test_invalid_threshold_raises(self, two_band_bank, short_noise, threshold):
        # one recording: no verdict calls validity_limit, which also checks it
        series = _memory_series([short_noise], (100,))
        with pytest.raises(InvalidInputError, match="threshold must be positive"):
            analyze(series, two_band_bank, 100.0, threshold)

    def test_recording_whose_power_underflows_is_silent(self, two_band_bank):
        # its energy sum is a positive subnormal, so it has a balance, but
        # its mean level is silence: no amplification exists against it
        noise = Signal(0.05 * np.random.default_rng(6).standard_normal(2000), FS)
        tiny = np.zeros(2000)
        tiny[0] = 2.3e-162
        series = _memory_series([noise, Signal(tiny, FS), noise], (50, 100, 200))
        result = analyze_report(IngestReport((series,), ()), two_band_bank)
        assert result.analyses == ()
        assert [(e.kind, e.message) for e in result.errors] == [
            ("SilenceError", "reference recording at 100.0 cm is silent")]


class TestCompare:
    def test_identity_zero_row(self, ids10_bank_fast, white_2s):
        spec = SynthCampaignSpec(stimulus=white_2s, distances_cm=(100,))
        series, _ = synth_campaign(spec)
        row = compare_to_stimulus(white_2s, series, ids10_bank_fast, 100.0)
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in row.diffs_db)

    def test_flat_profile_levels_differ_by_gain(self, ids10_bank_fast, white_2s):
        spec = SynthCampaignSpec(
            stimulus=white_2s,
            distances_cm=(50, 100),
            model=DirectivityModel.cardioid(),
            theta_rad=math.pi / 3,
        )
        series, _ = synth_campaign(spec)
        row = compare_to_stimulus(white_2s, series, ids10_bank_fast, 100.0)
        for d in row.diffs_db:
            assert d == pytest.approx(0.0, abs=1e-9)
        gain_db = 20 * math.log10(0.5 + 0.5 * math.cos(math.pi / 3))
        level_gap = row.recording_level - row.stimulus_level
        assert level_gap == pytest.approx(gain_db, abs=1e-6)

    def test_missing_distance(self, ids10_bank_fast, white_2s):
        spec = SynthCampaignSpec(stimulus=white_2s, distances_cm=(100,))
        series, _ = synth_campaign(spec)
        with pytest.raises(MissingDistanceError):
            compare_to_stimulus(white_2s, series, ids10_bank_fast, 50.0)

    @pytest.mark.parametrize("backing", ["memory", "pcm24-file"])
    def test_reads_the_samples_analyze_reads(self, ids10_bank_fast, tmp_path, backing):
        # the 100 cm take is the whole 0.3 s stimulus, the 50 cm take its first
        # third: compare, as analyze, reads the first 0.1 s of each, whether
        # it is held in memory or decoded from a file in compare's worker
        stimulus = gen_pink(StimulusSpec(kind="pink", duration=0.3, seed=3))
        takes = [stimulus.trimmed(len(stimulus) // 3), stimulus]
        if backing == "memory":
            series = _memory_series(takes, (50, 100))
        else:
            paths = [tmp_path / f"{d}cm.wav" for d in (50, 100)]
            for take, path in zip(takes, paths):
                save_wav(take, path, encoding="pcm24")
            series = MeasurementSeries.from_files(("m", "o", "s"), (50, 100), paths)
        row = compare_to_stimulus(stimulus, series, ids10_bank_fast, 100.0)
        measured = analyze(series, ids10_bank_fast).measured.at_reference
        assert row.recording_level == measured.level != row.stimulus_level
        assert row.diffs_db == balance_difference(spectral_balance(stimulus, ids10_bank_fast),
                                                  measured)

    def test_side_whose_power_underflows_is_silent(self, two_band_bank):
        # the silence rule of SeriesMeasurement: a positive energy whose
        # mean underflows has no level and no balance, as all zeros have
        # none; either way the message names the silent side
        noise = Signal(0.05 * np.random.default_rng(6).standard_normal(2000), FS)
        tiny = np.zeros(2000)
        tiny[0] = 2.3e-162
        zeros = Signal(np.zeros(2000), FS)
        series = _memory_series([noise, Signal(tiny, FS), zeros], (50, 100, 200))
        with pytest.raises(SilenceError, match=r"^recording at 100\.0 cm is silent"):
            compare_to_stimulus(noise, series, two_band_bank, 100)
        with pytest.raises(SilenceError, match=r"^recording at 200\.0 cm is silent"):
            compare_to_stimulus(noise, series, two_band_bank, 200)
        for stimulus in (Signal(tiny, FS), zeros):
            with pytest.raises(SilenceError, match=r"^stimulus is silent"):
                compare_to_stimulus(stimulus, series, two_band_bank, 50.0)


class TestExport:
    def _result(self, bank, stimulus, tmp_path):
        rows = _synth_files(tmp_path, stimulus, [50, 100])
        return analyze_report(ingest(_write_manifest(tmp_path, rows)), bank)

    def test_file_count_one_series(self, ids10_bank_fast, short_noise, tmp_path):
        result = self._result(ids10_bank_fast, short_noise, tmp_path)
        files = export(result, tmp_path / "out")
        names = sorted(p.name for p in files)
        # 1 level + 10 band CSVs + summary
        assert len(names) == 12
        assert "ECM8000_omni_music_level.csv" in names
        assert "ECM8000_omni_music_band01_weight.csv" in names
        assert "summary.json" in names

    def test_reexport_byte_identical(self, ids10_bank_fast, short_noise, tmp_path):
        result = self._result(ids10_bank_fast, short_noise, tmp_path)
        a = export(result, tmp_path / "a")
        b = export(result, tmp_path / "b")
        for pa, pb in zip(sorted(a), sorted(b)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_every_csv_kind_byte_for_byte(self, two_band_bank, short_noise, tmp_path):
        # one recording at every distance: each amplification and weight
        # delta is exactly 0, and x = 0 has no law and no gap
        series = _memory_series([short_noise] * 3, (0, 10, 100))
        export(analyze_report(IngestReport((series,), ()), two_band_bank), tmp_path)
        assert (tmp_path / "m_o_s_level.csv").read_text() == (
            "distance_cm,amplification_db,theory_db,gap_db\n"
            "0,0.0,,\n"
            "10,0.0,20.0,-20.0\n"
            "100,0.0,0.0,0.0\n")
        assert (tmp_path / "m_o_s_band02_weight.csv").read_text() == (
            "distance_cm,delta_weight_db\n0,0.0\n10,0.0\n100,0.0\n")
        # a silent band has no difference; a label holding "," and '"' is quoted
        report = ComparisonReport(stimulus_label='a,"b', n_bands=2, rows=(
            ComparisonRow("m o", (math.nan, -1.5), -20.0, -26.25),))
        assert report.to_csv() == (
            "comparison,band1,band2,stimulus_level_dbfs,recording_level_dbfs\n"
            '"a,""b/m o",,-1.5,-20.0,-26.25\n')
        _, truth = synth_campaign(SynthCampaignSpec(
            stimulus=short_noise, distances_cm=(0.5, 100, 1000),
            profile=DistanceProfile({0: ((0.5, 3.0), (100, 0.0))})), two_band_bank)
        assert truth.to_csv() == (
            "band,distance_cm,injected_gain_db\n"
            "1,0.5,3.0\n2,0.5,0.0\n1,100,0.0\n2,100,0.0\n1,1000,0.0\n2,1000,0.0\n")

    def test_csv_round_trip_exact(self, ids10_bank_fast, short_noise, tmp_path):
        result = self._result(ids10_bank_fast, short_noise, tmp_path)
        files = export(result, tmp_path / "out")
        level_csv = next(p for p in files if p.name.endswith("_level.csv"))
        lines = level_csv.read_text().strip().split("\n")[1:]
        parsed = [
            (float(cells[0]), float(cells[1]))
            for cells in (line.split(",") for line in lines)
        ]
        assert parsed == [(p.distance_cm, p.amplification_db)
                          for p in result.analyses[0].level_points]

    def test_theory_column_is_the_law(self, tmp_path):
        # recordings 6 dB above the reference around it: the law read back
        # as amplification minus gap missed 20*log10(100/x) in the last digits
        noise = Signal(0.05 * np.random.default_rng(3).standard_normal(FS), FS)
        distances = (90, 95, 99, 100, 101, 110)
        rows = []
        for d in distances:
            save_wav(noise.scaled(1.0 if d == 100 else 2.0), tmp_path / f"r{d}.wav")
            rows.append({"path": f"r{d}.wav", "distance_cm": d, "microphone": "m",
                         "directivity": "omni", "stimulus": "s"})
        bank = design_bank(BandMapping((0, 1000, 22050)), FS, 63)
        result = analyze_report(ingest(_write_manifest(tmp_path, rows)), bank)
        export(result, tmp_path / "out")
        level_csv = (tmp_path / "out" / "m_omni_s_level.csv").read_text()
        level_rows = list(csv.DictReader(level_csv.splitlines()))
        assert [float(r["distance_cm"]) for r in level_rows] == list(distances)
        for r in level_rows:
            d = float(r["distance_cm"])
            assert r["theory_db"] == repr(theoretical_amplification(d, 100.0)), d

    def test_int_and_float_settings_export_alike(self, ids10_bank_fast, short_noise, tmp_path):
        rows = _synth_files(tmp_path, short_noise, [50, 100])
        rows += _synth_files(tmp_path, short_noise, [50], mic="NoRef")  # missing ref
        report = ingest(_write_manifest(tmp_path, rows))
        export(analyze_report(report, ids10_bank_fast, 100, 1), tmp_path / "int")
        export(analyze_report(report, ids10_bank_fast, 100.0, 1.0), tmp_path / "float")
        names = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "float").iterdir())
        for name in names:
            assert (tmp_path / "int" / name).read_bytes() == (
                tmp_path / "float" / name).read_bytes(), name
        summary = json.loads((tmp_path / "int" / "summary.json").read_text())
        assert "at reference 100.0 cm" in summary["errors"][0]["message"]

    def test_summary_mean_levels_are_the_metered_levels(
        self, ids10_bank_fast, short_noise, tmp_path
    ):
        rows = _synth_files(tmp_path, short_noise, [50, 100])
        report = ingest(_write_manifest(tmp_path, rows))
        export(analyze_report(report, ids10_bank_fast), tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # ingest reads headers only, so decode the files here
        expected = [
            [row["distance_cm"], mean_level_dbfs(load_wav(tmp_path / row["path"]))]
            for row in rows
        ]
        assert summary["series"][0]["mean_levels_dbfs"] == expected

    def test_summary_records_errors_and_hash(self, ids10_bank_fast, short_noise, tmp_path):
        rows = _synth_files(tmp_path, short_noise, [50, 100])
        rows.append({"path": "ghost.wav", "distance_cm": 10, "microphone": "X",
                     "directivity": "omni", "stimulus": "music"})
        result = analyze_report(ingest(_write_manifest(tmp_path, rows)), ids10_bank_fast)
        export(result, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["series"]) == 1
        assert len(summary["errors"]) == 1
        assert summary["errors"][0]["series"] == ["X", "omni", "music"]
        assert summary["config_hash"] == result.config_hash
        assert summary["provenance"]["filter_length"] == ids10_bank_fast.length

    def test_no_silent_drop(self, ids10_bank_fast, short_noise, tmp_path):
        rows = _synth_files(tmp_path, short_noise, [50, 100])
        rows += _synth_files(tmp_path, short_noise, [50], mic="NoRef")  # missing ref
        rows.append({"path": "ghost.wav", "distance_cm": 10, "microphone": "X",
                     "directivity": "omni", "stimulus": "music"})
        result = analyze_report(ingest(_write_manifest(tmp_path, rows)), ids10_bank_fast)
        # 3 groups in manifest: 1 analyzed, 1 missing-reference, 1 missing file
        assert len(result.analyses) + len(result.errors) == 3
        kinds = sorted(e.kind for e in result.errors)
        assert kinds == ["MissingReferenceError", "load"]


class TestComparisonReportAssembly:
    def test_seven_row_layout(self, ids10_bank_fast, white_2s):
        mics = [
            ("Endevco", "sensor"),
            ("ECM8000", "omni"),
            ("U89i", "omni"),
            ("U89i", "bidirectional"),
            ("U89i", "cardioid"),
            ("AT2020", "cardioid"),
            ("C-2", "cardioid"),
        ]
        rows = []
        for mic, directivity in mics:
            spec = SynthCampaignSpec(
                stimulus=white_2s, distances_cm=(100,),
                microphone=mic, stimulus_label="music",
            )
            series, _ = synth_campaign(spec)
            # rebuild with the requested directivity label
            series = MeasurementSeries((mic, directivity, "music"), series.distances,
                                       series.recordings)
            rows.append(compare_to_stimulus(white_2s, series, ids10_bank_fast, 100.0))
        report = ComparisonReport(stimulus_label="One", rows=tuple(rows), n_bands=10)
        csv = report.to_csv().strip().split("\n")
        assert len(csv) == 8
        assert csv[1].startswith("One/Endevco sensor,")
        assert csv[7].startswith("One/C-2 cardioid,")
        for line in csv[1:]:
            assert len(line.split(",")) == 13  # label + 10 bands + 2 levels

    def test_labels_with_commas_quotes_and_line_breaks_keep_their_columns(self):
        labels = ("AKG, C414 omni", 'the "hot" one', "two\nlines")
        rows = tuple(ComparisonRow(label, (1.0, 2.0), -20.0, -30.0)
                     for label in labels)
        report = ComparisonReport(stimulus_label="pink, 10 s", rows=rows, n_bands=2)
        header, *records = csv.reader(io.StringIO(report.to_csv()))
        assert header == ["comparison", "band1", "band2", "stimulus_level_dbfs",
                          "recording_level_dbfs"]
        assert [r[0] for r in records] == [f"pink, 10 s/{label}" for label in labels]
        assert all(len(r) == 1 + 2 + 2 for r in records)
        assert all(r[1:] == ["1.0", "2.0", "-20.0", "-30.0"] for r in records)

    def test_text_rows_keep_the_header_columns_whatever_the_label(self):
        labels = ("ECM8000 omni", "Neumann U89i cardioid rear", "two\nlines")
        rows = tuple(ComparisonRow(label, (1.0, -2.0), -20.0, -30.0) for label in labels)
        header, *lines = ComparisonReport("stimulus", rows, n_bands=2).to_text().splitlines()
        assert len(lines) == len(labels)
        # every row ends each column where the header does
        assert {len(line) for line in lines} == {len(header)}
        assert all(line.endswith("   +1.0   -2.0     -20.0/-30.0") for line in lines)
        assert lines[1].lstrip() == "stimulus/Neumann U89i cardioid rear" + lines[1][-30:]
        assert lines[2].lstrip().startswith("stimulus/two\\nlines ")

    def test_text_label_column_is_28_wide_for_short_labels(self):
        rows = (ComparisonRow("ECM8000 omni", (1.0,), -20.0, -30.0),)
        header, line = ComparisonReport("One", rows, n_bands=1).to_text().splitlines()
        assert header == "comparison".rjust(28) + "b1".rjust(7) + "levels".rjust(16)
        assert line == "One/ECM8000 omni".rjust(28) + "+1.0".rjust(7) + "-20.0/-30.0".rjust(16)


# --- one pass per recording: error semantics, input digests, memory ---------

def _fault_campaign(tmp_path, distances=(25, 50, 100)):
    """Manifest rows of a series (m, omni, s) of short float32 recordings
    r{distance}.wav, which a test breaks, and of a sound series (g, omni, s)
    that keeps the run going."""
    noise = 0.05 * np.random.default_rng(3).standard_normal(FS // 10)
    rows = []
    for mic, prefix, dists in (("m", "r", distances), ("g", "g", (50, 100))):
        for d in dists:
            save_wav(Signal(noise * (100.0 / d), FS), tmp_path / f"{prefix}{d}.wav")
            rows.append({"path": f"{prefix}{d}.wav", "distance_cm": d, "microphone": mic,
                         "directivity": "omni", "stimulus": "s"})
    return rows


def _raw_wav(tag, bits, payload):
    fmt = struct.pack("<HHIIHH", tag, 1, FS, FS * bits // 8, bits // 8, bits)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _nan_file(path):
    """Float32 recording with a signalling NaN: its header is sound, only
    decoding it fails."""
    payload = struct.pack("<3f", 0.1, -0.1, 0.2) + bytes([1, 0, 0x80, 0x7F])
    path.write_bytes(_raw_wav(3, 32, payload))


def _silent(path):
    save_wav(Signal(np.zeros(FS // 10), FS), path)


# fault -> (break the campaign, summary kind, summary message); {p} is the
# path of the 50 cm file
SERIES_FAULTS = {
    "missing-file": (lambda t: (t / "r50.wav").unlink(), "load",
                     "{p}: cannot read (No such file or directory)"),
    "not-riff": (lambda t: (t / "r50.wav").write_bytes(b"OggS" + bytes(40)), "load",
                 "{p}: not a RIFF/WAVE file"),
    "truncated-chunk": (lambda t: (t / "r50.wav").write_bytes((t / "r50.wav").read_bytes()[:-3]),
                        "load", "{p}: truncated 'data' chunk"),
    "unsupported-encoding": (lambda t: (t / "r50.wav").write_bytes(_raw_wav(1, 8, b"\x80" * 9)),
                             "load", "{p}: unsupported encoding (format tag 1, 8-bit)"),
    "empty-data": (lambda t: (t / "r50.wav").write_bytes(_raw_wav(1, 16, b"")), "load",
                   "{p}: data chunk holds no samples"),
    "float32-nan": (lambda t: _nan_file(t / "r50.wav"), "load",
                    "{p}: signal contains NaN or Inf samples"),
    "silent-reference": (lambda t: _silent(t / "r100.wav"), "SilenceError",
                         "reference recording at 100.0 cm is silent"),
    "silent-recording": (lambda t: _silent(t / "r50.wav"), "SilenceError",
                         "recording at 50.0 cm is silent"),
    # precedence: a decode failure before any level rule, the silent
    # reference before a nearer silent recording
    "nan-before-silence": (lambda t: (_silent(t / "r100.wav"), _silent(t / "r25.wav"),
                                      _nan_file(t / "r50.wav")),
                           "load", "{p}: signal contains NaN or Inf samples"),
    "silent-reference-first": (lambda t: (_silent(t / "r25.wav"), _silent(t / "r100.wav")),
                               "SilenceError", "reference recording at 100.0 cm is silent"),
}


def _analyze_summary(tmp_path, manifest):
    with warnings.catch_warnings():
        # a cast warning on stderr would come before the error line
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["analyze", "--manifest", str(manifest), "--length", "63",
                    "--out", str(tmp_path / "out")])
    return code, json.loads((tmp_path / "out" / "summary.json").read_text())


@pytest.mark.parametrize("fault", sorted(SERIES_FAULTS))
def test_summary_error_kind_and_message(tmp_path, capsys, fault):
    breaker, kind, message = SERIES_FAULTS[fault]
    manifest = _write_manifest(tmp_path, _fault_campaign(tmp_path))
    breaker(tmp_path)
    code, summary = _analyze_summary(tmp_path, manifest)
    assert code == 0
    assert [s["series"] for s in summary["series"]] == [["g", "omni", "s"]]
    assert summary["errors"] == [{"series": ["m", "omni", "s"], "kind": kind,
                                  "message": message.format(p=tmp_path / "r50.wav")}]
    assert "Warning" not in capsys.readouterr().err


def test_missing_reference_fails_before_any_decode(tmp_path, monkeypatch):
    manifest = _write_manifest(tmp_path, _fault_campaign(tmp_path, distances=(25, 50)))
    _nan_file(tmp_path / "r50.wav")  # would fail if decoded
    decoded = []
    monkeypatch.setattr(bandscope.wavio, "load_wav",
                        lambda path, **k: decoded.append(path) or load_wav(path, **k))
    code, summary = _analyze_summary(tmp_path, manifest)
    assert code == 0
    assert summary["errors"] == [{
        "series": ["m", "omni", "s"], "kind": "MissingReferenceError",
        "message": "series has no recording at reference 100.0 cm "
                   "(distances: (25.0, 50.0))",
    }]
    # the sound series only, each file once; its two recordings decode on
    # worker threads, in either order
    assert sorted(decoded) == sorted([tmp_path / "g50.wav", tmp_path / "g100.wav"])


def test_rate_mismatch_fails_before_any_decode(tmp_path, monkeypatch, two_band_bank,
                                               short_noise):
    rows = _synth_files(tmp_path, short_noise, [50, 100], rate_overrides={50: 48000, 100: 48000})
    series = ingest(_write_manifest(tmp_path, rows)).series[0]
    decoded = []
    monkeypatch.setattr(bandscope.wavio, "load_wav", lambda path, **k: decoded.append(path))
    monkeypatch.setattr(bandscope.campaign, "spectral_balance", None)  # nor the stimulus filtered
    with pytest.raises(RateMismatchError, match="^signal rate 48000 != bank rate 44100$"):
        series.measure(two_band_bank, 100.0)
    with pytest.raises(RateMismatchError, match="^signal rate 48000 != bank rate 44100$"):
        compare_to_stimulus(short_noise, series, two_band_bank, 100.0)
    assert decoded == []


def test_ingest_reads_headers_only(tmp_path, monkeypatch):
    manifest = _write_manifest(tmp_path, _fault_campaign(tmp_path))
    _nan_file(tmp_path / "r50.wav")  # a fault only decoding can find
    monkeypatch.setattr(bandscope.wavio, "load_wav", None)  # any decode raises
    report = ingest(manifest)
    assert report.errors == ()
    series = next(s for s in report.series if s.key[0] == "m")
    assert series.common_length == 4
    assert [len(r) for r in series.recordings] == [FS // 10, 4, FS // 10]


def _hash_of(root, bank):
    return analyze_report(ingest(root / "manifest.json"), bank).config_hash


def test_config_hash_covers_input_content(tmp_path, ids10_bank_fast):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        _write_manifest(root, _fault_campaign(root))
    changed = load_wav(b / "r50.wav").samples.copy()
    changed[100] += 0.01
    save_wav(Signal(changed, FS), b / "r50.wav")
    assert _hash_of(a, ids10_bank_fast) != _hash_of(b, ids10_bank_fast)


def test_config_hash_ignores_where_the_files_are(tmp_path, ids10_bank_fast):
    a = tmp_path / "a"
    a.mkdir()
    _write_manifest(a, _fault_campaign(a))
    copy = tmp_path / "elsewhere" / "copy"
    shutil.copytree(a, copy)
    assert _hash_of(a, ids10_bank_fast) == _hash_of(copy, ids10_bank_fast)


def _compare(tmp_path, distance):
    save_wav(load_wav(tmp_path / "r100.wav"), tmp_path / "stimulus.wav")
    return run(["compare", "--stimulus", str(tmp_path / "stimulus.wav"),
                "--manifest", str(tmp_path / "manifest.json"), "--distance", str(distance),
                "--length", "63"])


def test_compare_keeps_series_with_a_data_error_elsewhere(tmp_path, capsys):
    _write_manifest(tmp_path, _fault_campaign(tmp_path))
    _nan_file(tmp_path / "r50.wav")
    assert _compare(tmp_path, 100) == 0
    captured = capsys.readouterr()
    assert "stimulus/m omni" in captured.out
    assert "warning:" not in captured.err


def test_compare_excludes_series_whose_compared_file_fails_to_decode(tmp_path, capsys):
    _write_manifest(tmp_path, _fault_campaign(tmp_path))
    _nan_file(tmp_path / "r50.wav")
    assert _compare(tmp_path, 50) == 0
    err = capsys.readouterr().err
    assert f"warning: series ('m', 'omni', 's'): {tmp_path / 'r50.wav'}: signal contains" in err


def test_compare_excludes_series_with_a_header_error_anywhere(tmp_path, capsys):
    _write_manifest(tmp_path, _fault_campaign(tmp_path))
    (tmp_path / "r50.wav").write_bytes(b"OggS" + bytes(40))
    assert _compare(tmp_path, 100) == 0
    captured = capsys.readouterr()
    assert "stimulus/m omni" not in captured.out
    assert "warning: series ('m', 'omni', 's')" in captured.err
    assert "not a RIFF/WAVE file" in captured.err


def _one_and_four_series(tmp_path):
    """Manifests of one series and of four, six 0.5 s recordings each."""
    rng = np.random.default_rng(8)
    rows = []
    for k in range(4):
        for d in (10, 20, 40, 60, 80, 100):
            name = f"s{k}_{d}.wav"
            save_wav(Signal(0.05 * (100.0 / d) * rng.standard_normal(FS // 2), FS),
                     tmp_path / name)
            rows.append({"path": name, "distance_cm": d, "microphone": f"mic{k}",
                         "directivity": "omni", "stimulus": "s"})
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"entries": rows[:6]}))
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"entries": rows}))
    return one, four


# --- the recording pool: one recording per worker thread ---------------------

def test_analyze_alike_on_any_worker_count(tmp_path, ids10_bank_fast, band_workers):
    _, four = _one_and_four_series(tmp_path)
    report = ingest(four)
    measured, trees = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the workers, more than the cores, switch often
    try:
        for cpus in (1, 2, 8):
            band_workers(cpus)
            result = analyze_report(report, ids10_bank_fast)
            out = tmp_path / f"out{cpus}"
            export(result, out)
            measured.append([a.measured for a in result.analyses])
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    finally:
        sys.setswitchinterval(interval)
    assert len(measured[0]) == 4
    assert measured[1] == measured[0] and measured[2] == measured[0]
    assert trees[1] == trees[0] and trees[2] == trees[0]


def _four_files(tmp_path):
    rows = _fault_campaign(tmp_path, distances=(25, 50, 75, 100))[:4]
    return MeasurementSeries.from_files(
        (rows[0]["microphone"], rows[0]["directivity"], rows[0]["stimulus"]),
        [r["distance_cm"] for r in rows], [tmp_path / r["path"] for r in rows])


@pytest.mark.parametrize("cpus", [1, 8])
def test_first_broken_recording_by_distance_is_reported(tmp_path, two_band_bank, band_workers,
                                                        cpus):
    series = _four_files(tmp_path)
    # the 2nd file takes longer to decode than the 4th, so on many workers
    # the 4th fails first
    long_nan = np.full(30 * FS, 0.1, dtype="<f4").tobytes() + bytes([1, 0, 0x80, 0x7F])
    (tmp_path / "r50.wav").write_bytes(_raw_wav(3, 32, long_nan))
    _nan_file(tmp_path / "r100.wav")
    band_workers(cpus)
    with pytest.raises(LoadError) as raised:
        series.measure(two_band_bank, 25.0)
    assert str(raised.value) == f"{tmp_path / 'r50.wav'}: signal contains NaN or Inf samples"


def test_series_without_the_reference_decodes_nothing(tmp_path, two_band_bank, band_workers,
                                                      monkeypatch):
    series = _four_files(tmp_path)
    band_workers(8)
    decoded = []
    monkeypatch.setattr(bandscope.wavio, "load_wav",
                        lambda path, **k: decoded.append(path) or load_wav(path, **k))
    with pytest.raises(MissingReferenceError):
        series.measure(two_band_bank, 60.0)
    assert decoded == []
    series.measure(two_band_bank, 100.0)
    assert len(decoded) == 4


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_compare_row_is_the_serial_one(ids10_bank_fast, white_2s, band_workers, cpus):
    rng = np.random.default_rng(12)
    stimulus = Signal(np.cumsum(0.01 * rng.standard_normal(FS)), FS)
    series = _memory_series([white_2s.scaled(2.0), white_2s.scaled(0.5)], (50, 100))
    stimulus_balance = spectral_balance(stimulus, ids10_bank_fast)
    recording_balance = spectral_balance(series.recordings[series.distances.index(100)],
                                         ids10_bank_fast)
    band_workers(cpus)
    assert compare_to_stimulus(stimulus, series, ids10_bank_fast, 100.0) == ComparisonRow(
        label="m o",
        diffs_db=balance_difference(stimulus_balance, recording_balance),
        stimulus_level=stimulus_balance.level,
        recording_level=recording_balance.level,
    )


def _analyze_peak(manifest, bank):
    """tracemalloc peak of ingesting and analyzing ``manifest``, and the
    number of series analyzed; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = analyze_report(ingest(manifest), bank)
        return tracemalloc.get_traced_memory()[1], len(result.analyses)
    finally:
        tracemalloc.stop()


def test_analyze_memory_does_not_grow_with_series(tmp_path, ids10_bank_fast, band_workers):
    # the measuring pass holds one recording per worker at a time, so four
    # series must peak where one does. One worker, so the peak does not
    # depend on how the workers' recordings overlap in time
    band_workers(1)
    one, four = _one_and_four_series(tmp_path)
    _analyze_peak(one, ids10_bank_fast)  # the bank caches its band responses
    peak_one, n_one = _analyze_peak(one, ids10_bank_fast)
    peak_four, n_four = _analyze_peak(four, ids10_bank_fast)
    assert (n_one, n_four) == (1, 4)
    assert peak_four <= 1.10 * peak_one, (peak_one, peak_four)


def test_analyze_memory_on_two_band_workers_does_not_grow_with_series(
        tmp_path, ids10_bank_fast, band_workers):
    # with two workers, one recording each, the peak also depends on whether
    # both hold a band's transforms at once, and four series give more
    # chances of that than one: the bound allows one worker's pair of
    # transforms more than the largest of three one-series peaks. Holding
    # each series' recordings would add 3 MB
    band_workers(2)
    one, four = _one_and_four_series(tmp_path)
    _analyze_peak(one, ids10_bank_fast)
    peak_one = max(_analyze_peak(one, ids10_bank_fast)[0] for _ in range(3))
    peak_four, n_four = _analyze_peak(four, ids10_bank_fast)
    n = next_fast_len(FS // 2 + ids10_bank_fast.length - 1, real=True)
    pair = n * 8 + (n // 2 + 1) * 16  # the inverse transform and the product it inverts
    assert n_four == 4
    assert peak_four <= 1.10 * peak_one + pair, (peak_one, peak_four, pair)


# library value -> what reads it by the number rule, given a bank
NUMBER_FIELDS = {
    "check_distances": lambda v, bank: check_distances((v, 100), "series")[0],
    "BandMapping": lambda v, bank: BandMapping((0, v, 22050)).edges[1],
    "DistanceProfile": lambda v, bank: DistanceProfile({0: ((v, 3.0),)}).bands[0][0][0],
    "analyze-reference": lambda v, bank: analyze(
        _memory_series([Signal(np.ones(500), FS)] * 2, (1, 100)), bank,
        reference_distance_cm=v).measured.reference_distance_cm,
    "DirectivityModel": lambda v, bank: DirectivityModel(v).m,
    "StimulusSpec-duration":
        lambda v, bank: StimulusSpec(kind="pink", duration=v, seed=1).duration,
    "StimulusSpec-target_level": lambda v, bank: StimulusSpec(
        kind="pink", duration=1.0, seed=1, target_level=v).target_level,
    "StimulusSpec-frequency":
        lambda v, bank: StimulusSpec(kind="sine", duration=1.0, frequency=v).frequency,
    "SynthCampaignSpec-theta_rad": lambda v, bank: SynthCampaignSpec(
        Signal(np.ones(500), FS), (50, 100), theta_rad=v).theta_rad,
}


# 1 lies in every field's range, a directivity's omnidirectional fraction [0, 1] too
@pytest.mark.parametrize("value", ["1", True, np.int64(1)], ids=["text", "bool", "numpy-int"])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_library_number_is_a_number_not_text_or_a_bool(field, value, two_band_bank):
    if isinstance(value, np.integer):
        read = NUMBER_FIELDS[field](value, two_band_bank)
        assert read == 1.0 and type(read) is float
    else:
        with pytest.raises(InvalidInputError):
            NUMBER_FIELDS[field](value, two_band_bank)
