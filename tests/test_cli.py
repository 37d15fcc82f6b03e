import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bandscope
from bandscope import Signal, ingest, load_mapping, load_wav, mean_level_dbfs, save_wav
from bandscope import cli
from bandscope.cli import run
from bandscope.errors import (DuplicateDistanceError, InvalidMappingError, InvalidSpecError,
                              ManifestError)

FS = 44100


def _flat_campaign_spec(tmp_path, distances=(5, 10, 20, 50, 100), seed=7, **overrides):
    spec = {
        "stimulus": {"kind": "pink", "duration_s": 1.0, "sample_rate_hz": FS,
                     "target_level_dbfs": -20.0, "seed": seed},
        "distances_cm": list(distances),
        "reference_distance_cm": 100.0,
        "directivity_m": 0.5,
        "theta_rad": 0.0,
        "microphone": "synthcard",
        "stimulus_label": "pink",
        **overrides,
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(spec))
    return path


class TestBands:
    def test_ids10_prints_all_edges(self, capsys):
        assert run(["bands", "--preset", "ids10"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == ["0", "50", "200", "400", "800", "1200",
                       "1800", "3000", "6000", "15000", "22050"]

    def test_nl8_variants(self, capsys):
        assert run(["bands", "--preset", "nl8"]) == 0
        nl8 = capsys.readouterr().out.strip().split("\n")
        assert nl8 == ["0", "50", "75", "100", "125", "150", "175", "200", "22050"]
        assert run(["bands", "--preset", "nl8-verbatim"]) == 0
        verbatim = capsys.readouterr().out.strip().split("\n")
        assert "170" in verbatim and "175" in verbatim

    def test_output_feeds_back_as_mapping_file(self, tmp_path, capsys):
        run(["bands", "--preset", "ids10"])
        edges = capsys.readouterr().out
        mapping_file = tmp_path / "m.txt"
        mapping_file.write_text(edges)
        assert run(["bands", "--mapping", str(mapping_file)]) == 0
        assert capsys.readouterr().out == edges


class TestSynth:
    def test_sine_level_contract(self, tmp_path, capsys):
        out = tmp_path / "sine65.wav"
        code = run(["synth", "--kind", "sine", "--freq", "65",
                    "--level", "-3.0103", "--dur", "2", "--out-file", str(out)])
        assert code == 0
        signal = load_wav(out)
        assert mean_level_dbfs(signal) == pytest.approx(-3.0103, abs=1e-3)
        sidecar = json.loads((tmp_path / "sine65.wav.json").read_text())
        assert sidecar["frequency_hz"] == 65.0
        assert "# bandscope" in capsys.readouterr().out

    def test_pink_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (a, b):
            assert run(["synth", "--kind", "pink", "--dur", "0.5", "--seed", "9",
                        "--out-file", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_exit_1(self, tmp_path, capsys):
        code = run(["synth", "--kind", "sine", "--freq", "30000",
                    "--dur", "1", "--out-file", str(tmp_path / "x.wav")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--kind", "sine"])
        assert exc.value.code == 2

    def test_bands_takes_no_tap_count(self, capsys):
        # bands designs no filter, so a tap count would be ignored
        with pytest.raises(SystemExit) as exc:
            run(["bands", "--preset", "ids10", "--length", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --length 5" in capsys.readouterr().err


class TestNormalize:
    def test_round_trip_level(self, tmp_path):
        src = tmp_path / "in.wav"
        run(["synth", "--kind", "pink", "--dur", "0.5", "--seed", "3",
             "--level", "-30", "--out-file", str(src)])
        dst = tmp_path / "out.wav"
        assert run(["normalize", "--in-file", str(src), "--level", "-20",
                    "--out-file", str(dst)]) == 0
        assert mean_level_dbfs(load_wav(dst)) == pytest.approx(-20.0, abs=1e-3)


class TestCampaignPipeline:
    def test_synth_campaign_then_analyze(self, tmp_path, capsys):
        spec = _flat_campaign_spec(tmp_path)
        camp_dir = tmp_path / "campaign"
        assert run(["synth-campaign", "--spec", str(spec),
                    "--out", str(camp_dir)]) == 0
        assert (camp_dir / "manifest.json").exists()
        assert (camp_dir / "ground_truth.csv").exists()
        assert (camp_dir / "stimulus.wav").exists()

        out_dir = tmp_path / "analysis"
        code = run(["analyze", "--manifest", str(camp_dir / "manifest.json"),
                    "--preset", "ids10", "--length", "1023", "--out", str(out_dir)])
        assert code == 0
        txt = capsys.readouterr().out
        assert "filter length: 1023 taps" in txt

        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["series"]) == 1
        assert summary["series"][0]["max_abs_gap_db"] <= 0.05
        assert summary["series"][0]["level_verdict"]["limit_distance_cm"] == 5.0

    def test_analyze_rerun_identical_outputs(self, tmp_path):
        spec = _flat_campaign_spec(tmp_path)
        camp_dir = tmp_path / "campaign"
        run(["synth-campaign", "--spec", str(spec), "--out", str(camp_dir)])
        outs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert run(["analyze", "--manifest", str(camp_dir / "manifest.json"),
                        "--length", "1023", "--out", str(out_dir)]) == 0
            outs.append({
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            })
        assert outs[0] == outs[1]

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        code = run(["analyze", "--manifest", str(tmp_path / "none.json"),
                    "--length", "1023", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_prints_table_and_csv(self, tmp_path, capsys):
        spec = _flat_campaign_spec(tmp_path, distances=(50, 100))
        camp_dir = tmp_path / "campaign"
        run(["synth-campaign", "--spec", str(spec), "--out", str(camp_dir)])
        capsys.readouterr()
        out_dir = tmp_path / "cmp"
        code = run(["compare", "--stimulus", str(camp_dir / "stimulus.wav"),
                    "--manifest", str(camp_dir / "manifest.json"),
                    "--length", "1023", "--label", "pink", "--out", str(out_dir)])
        assert code == 0
        assert "pink/synthcard cardioid" in capsys.readouterr().out
        csv = (out_dir / "comparison.csv").read_text().strip().split("\n")
        assert len(csv) == 2
        diffs = [float(v) for v in csv[1].split(",")[1:11]]
        assert all(abs(d) < 1e-6 for d in diffs)


class TestProfiledCampaign:
    def test_profile_bands_are_one_based_in_spec(self, tmp_path):
        spec = {
            "stimulus": {"kind": "pink", "duration_s": 0.5, "seed": 4,
                         "target_level_dbfs": -20.0},
            "distances_cm": [5, 50, 100],
            "reference_distance_cm": 100.0,
            "microphone": "proxmic",
            "stimulus_label": "pink",
            "profile": {"1": [[5, 8.0], [50, 0.0], [100, 0.0]]},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "camp"
        assert run(["synth-campaign", "--spec", str(path), "--length", "1023",
                    "--out", str(out)]) == 0
        truth = (out / "ground_truth.csv").read_text().strip().split("\n")
        assert truth[0] == "band,distance_cm,injected_gain_db"
        row = truth[1].split(",")
        assert row[0] == "1" and float(row[2]) == 8.0

    @pytest.mark.parametrize("profile, message", [
        # both read as band 1; the last used to win silently
        ({"1": [[5, 6.0]], "01": [[5, -6.0]]}, "profile key '01': band 1 is given twice"),
        ({"001": [[5, 6.0]], "1": [[5, -6.0]]}, "profile key '1': band 1 is given twice"),
        ({"0": [[5, 6.0]]}, "profile key '0': band numbers start at 1"),
        # int() reads this as band 10
        ({"1_0": [[5, 6.0]]}, "profile key '1_0': not a band number in ASCII digits"),
    ])
    def test_profile_band_numbers_are_checked(self, tmp_path, capsys, profile, message):
        spec = _flat_campaign_spec(tmp_path, profile=profile)
        code = run(["synth-campaign", "--spec", str(spec), "--length", "63",
                    "--out", str(tmp_path / "camp")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}: {message}"]

    def test_profile_band_beyond_the_bank_is_numbered_from_1(self, tmp_path, capsys):
        spec = _flat_campaign_spec(tmp_path, profile={"9": [[5, 6.0]]})
        code = run(["synth-campaign", "--spec", str(spec), "--preset", "nl8", "--length", "63",
                    "--out", str(tmp_path / "camp")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: profile addresses band 9 but the bank has 8 bands"]

    def test_profile_without_valid_band_fails_cleanly(self, tmp_path, capsys):
        spec = {
            "stimulus": {"kind": "pink", "duration_s": 0.5, "seed": 4},
            "distances_cm": [50, 100],
            "profile": {"99": [[5, 8.0]]},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec))
        code = run(["synth-campaign", "--spec", str(path), "--length", "1023",
                    "--out", str(tmp_path / "camp")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFileStimulus:
    """``"stimulus": {"file": ...}``: how a recorded stimulus (music) enters
    a synthetic campaign."""

    def _spec(self, tmp_path, wav_bytes=None, **overrides):
        """A spec naming music/take.wav: a readable take for ``wav_bytes``
        None, no file for b"", else a file holding ``wav_bytes``."""
        take = tmp_path / "music" / "take.wav"
        take.parent.mkdir()
        if wav_bytes is None:
            rng = np.random.default_rng(5)
            t = np.arange(FS // 4) / FS
            music = 0.2 * np.sin(2 * np.pi * 220.0 * t) + 0.05 * rng.standard_normal(t.size)
            save_wav(Signal(music, FS), take)
        elif wav_bytes:
            take.write_bytes(wav_bytes)
        # relative to the spec file, not to the working directory
        return _flat_campaign_spec(tmp_path, distances=(25, 50, 100),
                                   stimulus={"file": "music/take.wav"}, **overrides), take

    def test_recordings_are_the_file_scaled_by_distance(self, tmp_path):
        spec, take = self._spec(tmp_path)
        out = tmp_path / "camp"
        assert run(["synth-campaign", "--spec", str(spec), "--out", str(out)]) == 0
        source = load_wav(take).samples
        rows = json.loads((out / "manifest.json").read_text())["entries"]
        assert sorted(row["distance_cm"] for row in rows) == [25.0, 50.0, 100.0]
        for row in rows:
            # cardioid on axis: the directivity gain is 1, only x_ref/x is left
            recording = load_wav(out / row["path"]).samples
            np.testing.assert_allclose(recording, source * (100.0 / row["distance_cm"]),
                                       rtol=2.0**-23, atol=0.0)
        echoed = json.loads((out / "campaign_spec.json").read_text())
        assert echoed["stimulus"] == {"file": "music/take.wav"}

    @pytest.mark.parametrize("wav_bytes", [b"", b"RIFF not a wave file"],
                             ids=["missing", "broken"])
    def test_unreadable_file_is_one_error(self, tmp_path, capsys, wav_bytes):
        spec, _ = self._spec(tmp_path, wav_bytes)
        code = run(["synth-campaign", "--spec", str(spec), "--out", str(tmp_path / "camp")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "take.wav" in err[0]

    def test_silent_file_is_one_error(self, tmp_path, capsys):
        spec, take = self._spec(tmp_path, profile={"1": [[25, 3.0], [100, 0.0]]})
        save_wav(Signal(np.zeros(FS // 4), FS), take)
        out = tmp_path / "camp"
        code = run(["synth-campaign", "--spec", str(spec), "--length", "63", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "stimulus is silent" in err[0]
        assert not out.exists()


def test_distinct_distances_get_distinct_files_and_rows(tmp_path):
    # ":g" prints 10.000001 as "10", so both recordings went to one file
    spec = _flat_campaign_spec(tmp_path, distances=(10, 10.000001, 100),
                               stimulus={"kind": "pink", "duration_s": 0.1, "seed": 7},
                               profile={"1": [[10, 3.0], [100, 0.0]]})
    out, analysis = tmp_path / "camp", tmp_path / "analysis"
    texts = ["10", "10.000001", "100"]
    assert run(["synth-campaign", "--spec", str(spec), "--length", "63",
                "--out", str(out)]) == 0
    names = sorted(f"synthcard_cardioid_pink_{text}cm.wav" for text in texts)
    rows = json.loads((out / "manifest.json").read_text())["entries"]
    assert sorted(row["path"] for row in rows) == names
    assert sorted(path.name for path in out.glob("*cm.wav")) == names
    truth = (out / "ground_truth.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in truth if row.startswith("1,")] == texts

    assert run(["analyze", "--manifest", str(out / "manifest.json"), "--length", "63",
                "--out", str(analysis)]) == 0
    for name in ("level", "band01_weight"):
        lines = (analysis / f"synthcard_cardioid_pink_{name}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == texts


def _normalize_argv(tmp_path, level):
    save_wav(Signal(np.full(100, 0.1), FS), tmp_path / "in.wav")
    return ["normalize", "--in-file", str(tmp_path / "in.wav"), "--level", level,
            "--out-file", str(tmp_path / "out.wav")]


_SHORT_PINK = {"kind": "pink", "duration_s": 0.1, "seed": 7}

# case -> (argv builder, the value the one error line names)
UNCARRIABLE_LEVELS = {
    "synth-sine-level-1e308": (lambda t: ["synth", "--kind", "sine", "--freq", "1000",
                                          "--level", "1e308", "--dur", "0.1",
                                          "--out-file", str(t / "x.wav")], "1e+308"),
    "synth-pink-level-1000": (lambda t: _synth(t, "--dur", "0.1", "--seed", "1",
                                               "--level", "1000"), "1000"),
    "synth-pink-level-minus-3242": (lambda t: _synth(t, "--dur", "0.1", "--seed", "1",
                                                     "--level", "-3242"), "-3242"),
    "normalize-level-1000": (lambda t: _normalize_argv(t, "1000"), "1000"),
    "spec-profile-gain-1e308": (lambda t: _synth_campaign(
        t, profile={"1": [[5, 1e308], [100, 0.0]]}), "1e+308"),
    # the x_ref/x gain of the distance: below float32's range, or infinite
    "spec-distance-1e300": (lambda t: _synth_campaign(
        t, distances=(1e300, 100), stimulus=_SHORT_PINK), "recording at 1e+300 cm"),
    "spec-distance-5e-324": (lambda t: _synth_campaign(
        t, distances=(5e-324, 100), stimulus=_SHORT_PINK), "distance 4.94066e-324 cm"),
}


@pytest.mark.parametrize("case", sorted(UNCARRIABLE_LEVELS))
def test_level_a_wav_cannot_carry_is_one_error(case, tmp_path, capsys):
    build, value = UNCARRIABLE_LEVELS[case]
    argv = build(tmp_path)
    before = set(tmp_path.rglob("*"))
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and value in err[0], err
    assert set(tmp_path.rglob("*")) == before


def test_synth_campaign_writes_only_under_out(tmp_path, capsys):
    spec = _flat_campaign_spec(tmp_path, distances=(50, 100), microphone="../escaped")
    out = tmp_path / "camp"
    before = set(tmp_path.rglob("*"))
    assert run(["synth-campaign", "--spec", str(spec), "--out", str(out)]) == 0
    written = set(tmp_path.rglob("*")) - before
    assert len(written) > 1
    assert all(path == out or out in path.parents for path in written)

    analysis = tmp_path / "analysis"
    assert run(["analyze", "--manifest", str(out / "manifest.json"), "--length", "1023",
                "--out", str(analysis)]) == 0
    # one naming rule for the recordings and for the analysis files
    stems = {path.name.rsplit("_", 1)[0] for path in out.glob("*cm.wav")}
    assert stems == {path.name.removesuffix("_level.csv")
                     for path in analysis.glob("*_level.csv")}
    assert stems == {"..-escaped_cardioid_pink"}


def _spec_reader(path):
    args = cli.build_parser().parse_args(
        ["synth-campaign", "--spec", str(path), "--out", str(path.parent / "camp")])
    return args.func(args)


# input file reader -> the domain error it raises for a file it cannot read
_READERS = {
    "mapping": (load_mapping, InvalidMappingError),
    "manifest": (ingest, ManifestError),
    "spec": (_spec_reader, InvalidSpecError),
}


def _directory(tmp_path):
    path = tmp_path / "a_directory"
    path.mkdir()
    return path


_UNREADABLE = {
    "missing": lambda t: t / "absent.json",
    "directory": _directory,
    "not-utf8": lambda t: Path(_not_utf8(t)),
}


@pytest.mark.parametrize("fault", sorted(_UNREADABLE))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_unreadable_input_file_raises_its_domain_error(reader, fault, tmp_path):
    read, error = _READERS[reader]
    path = _UNREADABLE[fault](tmp_path)
    with pytest.raises(error, match=re.escape(str(path))):
        read(path)


def test_content_error_of_a_manifest_or_mapping_names_the_file(tmp_path):
    manifest = _manifest_with(tmp_path, distance_cm=100.0)  # 100 cm twice
    with pytest.raises(DuplicateDistanceError, match=f"^{re.escape(str(manifest))}: series"):
        ingest(manifest)
    mapping = _nan_mapping(tmp_path)
    with pytest.raises(InvalidMappingError, match=f"^{re.escape(mapping)}: edges must be finite"):
        load_mapping(mapping)


def _wav_manifest(tmp_path, near_cm):
    """Two readable recordings, at ``near_cm`` and at the 100 cm reference."""
    noise = Signal(0.05 * np.random.default_rng(1).standard_normal(FS // 10), FS)
    rows = []
    for i, distance in enumerate((near_cm, 100.0)):
        save_wav(noise, tmp_path / f"r{i}.wav")
        rows.append({"path": f"r{i}.wav", "distance_cm": distance, "microphone": "m",
                     "directivity": "omni", "stimulus": "s"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": rows}))  # non-finite floats as Infinity/NaN
    return path


def _long_integer_manifest(tmp_path):
    """A distance with more digits than Python converts to an int by default."""
    path = _wav_manifest(tmp_path, 50.0)
    path.write_text(path.read_text().replace("50.0", "1" * 5000))
    return path


def _colliding_stems_manifest(tmp_path):
    """Two series whose labels sanitize to one file stem, a-b_omni_s."""
    path = _wav_manifest(tmp_path, 50.0)
    doc = json.loads(path.read_text())
    doc["entries"] = [{**row, "microphone": mic} for mic in ("a/b", "a-b")
                      for row in doc["entries"]]
    path.write_text(json.dumps(doc))
    return path


def _manifest_with(tmp_path, **fields):
    """The two-recording manifest with ``fields`` replacing its first entry's."""
    path = _wav_manifest(tmp_path, 50.0)
    doc = json.loads(path.read_text())
    doc["entries"][0].update(fields)
    path.write_text(json.dumps(doc))
    return path


def _nan_mapping(tmp_path):
    path = tmp_path / "nan.map"
    path.write_text("0\n50\nnan\n22050\n")
    return str(path)


def _not_utf8(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"0\n\xff\n22050\n")
    return str(path)


def _analyze(tmp_path, manifest, *flags):
    return ["analyze", "--manifest", str(manifest), "--length", "1023", *flags,
            "--out", str(tmp_path / "out")]


def _synth_campaign(tmp_path, **overrides):
    spec = _flat_campaign_spec(tmp_path, **overrides)
    return ["synth-campaign", "--spec", str(spec), "--out", str(tmp_path / "camp")]


def _spec_noting(tmp_path, literal):
    """The campaign spec with a "note" holding ``literal`` as written, which
    json.dumps would not write."""
    argv = _synth_campaign(tmp_path, note="@")
    spec = Path(argv[2])
    spec.write_text(spec.read_text().replace('"@"', literal))
    return argv


def _synth(tmp_path, *flags):
    return ["synth", "--kind", "pink", *flags, "--out-file", str(tmp_path / "x.wav")]


# case -> (argv builder, exit code): 1 for a domain error, 2 for argparse
BAD_INPUTS = {
    "manifest-distance-inf": (lambda t: _analyze(t, _wav_manifest(t, math.inf)), 1),
    "manifest-distance-nan": (lambda t: _analyze(t, _wav_manifest(t, math.nan)), 1),
    "manifest-distance-overflows-float":
        (lambda t: _analyze(t, _wav_manifest(t, 10**400)), 1),
    "manifest-integer-too-long": (lambda t: _analyze(t, _long_integer_manifest(t)), 1),
    "manifest-file-stems-collide": (lambda t: _analyze(t, _colliding_stems_manifest(t)), 1),
    "manifest-microphone-null": (lambda t: _analyze(t, _manifest_with(t, microphone=None)), 1),
    "manifest-directivity-list":
        (lambda t: _analyze(t, _manifest_with(t, directivity=["x"])), 1),
    "manifest-stimulus-number": (lambda t: _analyze(t, _manifest_with(t, stimulus=7)), 1),
    "manifest-path-number": (lambda t: _analyze(t, _manifest_with(t, path=0)), 1),
    "manifest-distance-bool": (lambda t: _analyze(t, _manifest_with(t, distance_cm=True)), 1),
    "manifest-distance-text": (lambda t: _analyze(t, _manifest_with(t, distance_cm="50")), 1),
    "spec-microphone-null": (lambda t: _synth_campaign(t, microphone=None), 1),
    "spec-stimulus-label-list": (lambda t: _synth_campaign(t, stimulus_label=["x"]), 1),
    "spec-stimulus-not-object": (lambda t: _synth_campaign(t, stimulus="x"), 1),
    "spec-directivity-not-number": (lambda t: _synth_campaign(t, directivity_m="abc"), 1),
    "spec-profile-band-not-number":
        (lambda t: _synth_campaign(t, profile={"a": [[5, 8.0], [100, 0.0]]}), 1),
    # keys int() reads as bands 10, 2, 3 and 1
    "spec-profile-band-underscore":
        (lambda t: _synth_campaign(t, profile={"1_0": [[5, 3.0], [100, 0.0]]}), 1),
    "spec-profile-band-space":
        (lambda t: _synth_campaign(t, profile={" 2": [[5, 3.0], [100, 0.0]]}), 1),
    "spec-profile-band-plus":
        (lambda t: _synth_campaign(t, profile={"+3": [[5, 3.0], [100, 0.0]]}), 1),
    "spec-profile-band-arabic-indic-digit":
        (lambda t: _synth_campaign(t, profile={"\u0661": [[5, 3.0], [100, 0.0]]}), 1),
    # null and {} mean no profile; any other value that is not an object is an error
    "spec-profile-list": (lambda t: _synth_campaign(t, profile=[]), 1),
    "spec-profile-zero": (lambda t: _synth_campaign(t, profile=0), 1),
    "spec-profile-false": (lambda t: _synth_campaign(t, profile=False), 1),
    "spec-profile-empty-text": (lambda t: _synth_campaign(t, profile=""), 1),
    "spec-duration-inf": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": math.inf, "seed": 7}), 1),
    "spec-distance-inf": (lambda t: _synth_campaign(t, distances=(math.inf, 100)), 1),
    # more samples than an array can index: numpy refuses before allocating
    "spec-duration-beyond-array-size": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 1e30, "seed": 7}), 1),
    # more memory than the address space holds: the allocation fails untouched
    "spec-duration-beyond-memory": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 1e9, "seed": 7}), 1),
    "spec-theta-inf": (lambda t: _synth_campaign(t, theta_rad=math.inf), 1),
    "spec-rate-inf": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "sample_rate_hz": math.inf, "seed": 7}), 1),
    "spec-seed-not-integer": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 1.0, "seed": "abc"}), 1),
    # every number of a spec by the JSON number rule: no bool, no text
    "spec-distances-bool-and-text": (lambda t: _synth_campaign(
        t, distances=(True, "100"), reference_distance_cm="100", directivity_m=True), 1),
    "spec-distance-bool": (lambda t: _synth_campaign(t, distances=(True, 100)), 1),
    "spec-distance-text": (lambda t: _synth_campaign(t, distances=(5, "100")), 1),
    "spec-reference-text": (lambda t: _synth_campaign(t, reference_distance_cm="100"), 1),
    "spec-directivity-bool": (lambda t: _synth_campaign(t, directivity_m=True), 1),
    "spec-theta-text": (lambda t: _synth_campaign(t, theta_rad="0"), 1),
    "spec-duration-text": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": "0.5", "seed": 7}), 1),
    "spec-rate-text": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "sample_rate_hz": "44100", "seed": 7}), 1),
    "spec-rate-fraction": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "sample_rate_hz": 44100.5, "seed": 7}), 1),
    "spec-level-bool": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "target_level_dbfs": True, "seed": 7}), 1),
    "spec-frequency-text": (lambda t: _synth_campaign(
        t, stimulus={"kind": "sine", "duration_s": 0.5, "frequency_hz": "1000"}), 1),
    # JSON has no NaN or Infinity; Python's reader takes them unless told not to
    "spec-constants-not-json":
        (lambda t: _synth_campaign(t, note=math.nan, extra=[math.inf]), 1),
    "spec-number-overflows-float": (lambda t: _spec_noting(t, "-1e400"), 1),
    "spec-frequency-nan": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 0.5, "seed": 7, "frequency_hz": math.nan}), 1),
    "spec-seed-bool": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 0.5, "seed": True}), 1),
    "spec-seed-fraction": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 0.5, "seed": 7.5}), 1),
    "spec-profile-distance-bool": (lambda t: _synth_campaign(
        t, profile={"1": [[True, 3.0], [100, 0.0]]}), 1),
    "spec-profile-gain-text": (lambda t: _synth_campaign(
        t, profile={"1": [[5, "3.0"], [100, 0.0]]}), 1),
    # a misspelled key would leave its field at the default
    "spec-unknown-keys": (lambda t: _synth_campaign(t, theta=1.0, directivity=0.5), 1),
    "spec-unknown-stimulus-key": (lambda t: _synth_campaign(
        t, stimulus={"kind": "pink", "duration_s": 0.5, "seed": 7, "levle_dbfs": -40}), 1),
    "spec-stimulus-file-and-seed":
        (lambda t: _synth_campaign(t, stimulus={"file": "x.wav", "seed": 7}), 1),
    "synth-seed-negative": (lambda t: _synth(t, "--dur", "1", "--seed", "-1"), 1),
    "synth-dur-inf": (lambda t: _synth(t, "--dur", "inf"), 2),
    "synth-dur-beyond-memory": (lambda t: _synth(t, "--dur", "1e9", "--seed", "1"), 1),
    "synth-dur-nan": (lambda t: _synth(t, "--dur", "nan"), 2),
    # more samples than an array can count: refused before anything is allocated
    "synth-pink-dur-1e300": (lambda t: _synth(t, "--dur", "1e300", "--seed", "1"), 1),
    "synth-pink-dur-1e305": (lambda t: _synth(t, "--dur", "1e305", "--seed", "1"), 1),
    "synth-sine-dur-1e300": (lambda t: ["synth", "--kind", "sine", "--freq", "1000",
                                        "--dur", "1e300", "--out-file", str(t / "x.wav")], 1),
    "synth-sine-dur-1e305": (lambda t: ["synth", "--kind", "sine", "--freq", "1000",
                                        "--dur", "1e305", "--out-file", str(t / "x.wav")], 1),
    # RIFF's 32-bit fields: a rate above 2**32 - 1, a float32 byte rate above it
    "synth-rate-beyond-riff":
        (lambda t: _synth(t, "--seed", "1", "--dur", "1e-9", "--rate", "5000000000"), 1),
    "synth-byte-rate-beyond-riff":
        (lambda t: _synth(t, "--seed", "1", "--dur", "1e-9", "--rate", "2000000000"), 1),
    "spec-rate-beyond-riff": (lambda t: _synth_campaign(t, stimulus={
        "kind": "pink", "duration_s": 1e-9, "sample_rate_hz": 5000000000, "seed": 7}), 1),
    "synth-level-inf": (lambda t: _synth(t, "--dur", "1", "--level", "inf"), 2),
    "synth-freq-nan": (lambda t: ["synth", "--kind", "sine", "--freq", "nan", "--dur", "1",
                                  "--out-file", str(t / "x.wav")], 2),
    "analyze-threshold-nan":
        (lambda t: _analyze(t, _wav_manifest(t, 50.0), "--threshold", "nan"), 2),
    "analyze-threshold-zero":
        (lambda t: _analyze(t, _wav_manifest(t, 50.0), "--threshold", "0"), 1),
    "analyze-threshold-negative":
        (lambda t: _analyze(t, _wav_manifest(t, 50.0), "--threshold", "-1"), 1),
    "bands-mapping-nan": (lambda t: ["bands", "--mapping", _nan_mapping(t)], 1),
    "analyze-mapping-nan":
        (lambda t: _analyze(t, _wav_manifest(t, 50.0), "--mapping", _nan_mapping(t)), 1),
    "analyze-reference-inf":
        (lambda t: _analyze(t, _wav_manifest(t, 50.0), "--reference", "inf"), 2),
    "compare-distance-nan": (lambda t: ["compare", "--stimulus", str(t / "r0.wav"),
                                        "--manifest", str(_wav_manifest(t, 50.0)),
                                        "--distance", "nan", "--length", "1023"], 2),
    "normalize-level-nan": (lambda t: ["normalize", "--in-file", str(t / "in.wav"),
                                       "--level", "nan", "--out-file", str(t / "o.wav")], 2),
    "bands-mapping-not-utf8": (lambda t: ["bands", "--mapping", _not_utf8(t)], 1),
    "analyze-manifest-not-utf8": (lambda t: _analyze(t, _not_utf8(t)), 1),
    "spec-not-utf8": (lambda t: ["synth-campaign", "--spec", _not_utf8(t),
                                 "--out", str(t / "camp")], 1),
    "compare-no-series-at-distance": (lambda t: ["compare", "--stimulus", str(t / "r0.wav"),
                                                 "--manifest", str(_wav_manifest(t, 50.0)),
                                                 "--distance", "75", "--length", "1023"], 1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_cleanly(case, tmp_path, capsys):
    build, expected = BAD_INPUTS[case]
    try:
        code = run(build(tmp_path))
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["synth-rate-beyond-riff", "synth-byte-rate-beyond-riff",
                                  "spec-rate-beyond-riff"])
def test_wav_its_header_cannot_describe_is_never_started(case, tmp_path, capsys):
    argv = BAD_INPUTS[case][0](tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "more than a WAV header holds" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case, number", [("spec-constants-not-json", "NaN"),
                                          ("spec-frequency-nan", "NaN"),
                                          ("spec-number-overflows-float", "-1e400")])
def test_spec_holding_nan_or_infinity_writes_nothing(case, number, tmp_path, capsys):
    # else campaign_spec.json would echo it as NaN or -Infinity
    assert run(BAD_INPUTS[case][0](tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"not valid JSON ({number} is not a finite JSON number)" in err
    assert not (tmp_path / "camp").exists()


# case -> what its error names
UNKNOWN_KEYS = {
    "spec-unknown-keys": "unknown spec keys 'theta', 'directivity'",
    "spec-unknown-stimulus-key": "unknown stimulus key 'levle_dbfs'",
    "spec-stimulus-file-and-seed": "unknown stimulus file key 'seed' (known: file)",
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_spec_key_is_named_and_writes_nothing(case, tmp_path, capsys):
    assert run(BAD_INPUTS[case][0](tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert UNKNOWN_KEYS[case] in err
    assert not (tmp_path / "camp").exists()


def _silent_file_stimulus(tmp_path):
    save_wav(Signal(np.zeros(FS // 10), FS), tmp_path / "silent.wav")
    return {"file": "silent.wav"}


# case -> the fields it sets in the flat spec, given the spec's directory
SPEC_CONTENT_ERRORS = {
    "distance-negative": lambda t: {"distances": (-1, 100)},
    "distance-twice": lambda t: {"distances": (5, 5, 100)},
    "no-reference": lambda t: {"distances": (5, 10)},
    "no-distance": lambda t: {"distances": ()},
    "sine-beyond-nyquist": lambda t: {"stimulus": {"kind": "sine", "duration_s": 0.1,
                                                   "frequency_hz": 30000}},
    "directivity-null": lambda t: {"directivity_m": 0.5, "theta_rad": math.pi},
    "silent-file-stimulus": lambda t: {"stimulus": _silent_file_stimulus(t)},
}


@pytest.mark.parametrize("case", sorted(SPEC_CONTENT_ERRORS))
def test_spec_content_error_names_the_spec(case, tmp_path, capsys):
    fields = {"stimulus": _SHORT_PINK, **SPEC_CONTENT_ERRORS[case](tmp_path)}
    argv = _synth_campaign(tmp_path, **fields)
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {argv[2]}: ")
    assert not (tmp_path / "camp").exists()


@pytest.mark.parametrize("near_cm, far_cm, reference", [
    (1e-320, 100.0, "100"),    # 100 / 1e-320 overflows to inf
    (1e-320, 1e10, "1e-320"),  # 1e-320 / 1e10 underflows to 0
], ids=["ratio-overflows", "ratio-underflows"])
def test_no_law_where_the_distance_ratio_is_not_finite(near_cm, far_cm, reference, tmp_path):
    manifest = _wav_manifest(tmp_path, near_cm)
    doc = json.loads(manifest.read_text())
    doc["entries"][1]["distance_cm"] = far_cm
    manifest.write_text(json.dumps(doc))
    assert run(_analyze(tmp_path, manifest, "--reference", reference)) == 0
    (level_csv,) = (tmp_path / "out").glob("*_level.csv")
    cells = [row.split(",")[2:] for row in level_csv.read_text().splitlines()[1:]]
    law_at_reference = ["0.0", "0.0"]
    assert cells == ([["", ""], law_at_reference] if far_cm == float(reference)
                     else [law_at_reference, ["", ""]])

    def strict(name):
        raise ValueError(f"summary.json holds {name}")

    text = (tmp_path / "out" / "summary.json").read_text()
    (series,) = json.loads(text, parse_constant=strict)["series"]
    assert series["max_abs_gap_db"] == 0.0


@pytest.mark.parametrize("field, value, what", [
    ("microphone", None, "microphone must be a string, got null"),
    ("distance_cm", True, "distance_cm must be a number, got true"),
])
def test_manifest_field_of_a_wrong_type_is_named(field, value, what, tmp_path, capsys):
    assert run(_analyze(tmp_path, _manifest_with(tmp_path, **{field: value}))) == 1
    assert f"entry 0 invalid: {what}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_zero_distance_prints_as_zero(tmp_path):
    manifest = _manifest_with(tmp_path, distance_cm=-0.0)
    assert '"distance_cm": -0.0' in manifest.read_text()
    assert run(_analyze(tmp_path, manifest)) == 0
    (level_csv,) = (tmp_path / "out").glob("*_level.csv")
    distances = [row.split(",")[0] for row in level_csv.read_text().splitlines()[1:]]
    assert distances == ["0", "100"]


def test_reference_minus_zero_reads_as_zero(tmp_path, capsys):
    manifest = _wav_manifest(tmp_path, 0.0)
    trees = {}
    for reference in ("-0", "0"):
        out = tmp_path / f"out{reference}"
        assert run(["analyze", "--manifest", str(manifest), "--length", "1023",
                    "--reference", reference, "--out", str(out)]) == 0
        assert "# reference: 0 cm\n" in capsys.readouterr().out
        trees[reference] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert trees["-0"] == trees["0"]  # as diff -r compares them
    assert json.loads(trees["-0"]["summary.json"])["provenance"]["reference_distance_cm"] == 0.0
    assert b"-0.0" not in trees["-0"]["summary.json"]


def test_negative_manifest_distance_fails_before_any_file_is_read(tmp_path, capsys,
                                                                  monkeypatch):
    manifest = _manifest_with(tmp_path, distance_cm=-5)
    doc = json.loads(manifest.read_text())
    doc["entries"].append({"path": "absent.wav", "distance_cm": 25, "microphone": "m",
                           "directivity": "omni", "stimulus": "s"})
    manifest.write_text(json.dumps(doc))
    opened = []
    monkeypatch.setattr(bandscope.wavio, "read_header", opened.append)
    before = sorted(tmp_path.iterdir())
    assert run(_analyze(tmp_path, manifest)) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {manifest}: series ('m', 'omni', 's'): "
                   "distance must be finite and >= 0 cm, got -5.0\n")
    assert opened == [] and sorted(tmp_path.iterdir()) == before
    with pytest.raises(ManifestError):
        ingest(manifest)


def test_analyze_bad_threshold_fails_before_any_series(tmp_path, capsys):
    code = run(_analyze(tmp_path, _wav_manifest(tmp_path, 50.0), "--threshold", "-1"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: threshold must be positive and finite" in err
    assert "warning:" not in err
    assert not (tmp_path / "out").exists()


def test_compare_warns_about_excluded_series(tmp_path, capsys):
    manifest = _wav_manifest(tmp_path, 50.0)
    doc = json.loads(manifest.read_text())
    for distance in (50.0, 100.0):
        doc["entries"].append({"path": f"ghost_{distance:g}.wav", "distance_cm": distance,
                               "microphone": "ghost", "directivity": "omni",
                               "stimulus": "s"})
    manifest.write_text(json.dumps(doc))
    code = run(["compare", "--stimulus", str(tmp_path / "r0.wav"),
                "--manifest", str(manifest), "--length", "1023"])
    assert code == 0
    captured = capsys.readouterr()
    assert "stimulus/m omni" in captured.out
    assert "ghost" not in captured.out
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: series ('ghost', 'omni', 's'): ")
    assert "ghost_50.wav" in warnings[0]


def test_compare_skips_series_without_the_distance(tmp_path, capsys):
    manifest = _wav_manifest(tmp_path, 50.0)
    doc = json.loads(manifest.read_text())
    for i, distance in enumerate((25.0, 100.0)):
        doc["entries"].append({"path": f"r{i}.wav", "distance_cm": distance,
                               "microphone": "far", "directivity": "omni",
                               "stimulus": "s"})
    manifest.write_text(json.dumps(doc))
    code = run(["compare", "--stimulus", str(tmp_path / "r0.wav"), "--manifest",
                str(manifest), "--distance", "50", "--length", "1023"])
    assert code == 0
    captured = capsys.readouterr()
    assert "stimulus/m omni" in captured.out
    assert "far" not in captured.out
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: series ('far', 'omni', 's'): ")
    assert "no recording at 50.0 cm" in warnings[0]


def test_compare_takes_series_whose_file_stems_collide(tmp_path, capsys):
    # compare names no file after a series, so a/b and a-b both get a row
    manifest = _colliding_stems_manifest(tmp_path)
    code = run(["compare", "--stimulus", str(tmp_path / "r0.wav"), "--manifest",
                str(manifest), "--distance", "50", "--length", "1023",
                "--out", str(tmp_path / "out")])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning:" not in captured.err and "error:" not in captured.err
    rows = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["stimulus/a-b omni", "stimulus/a/b omni"]


def test_compare_silent_stimulus_is_one_error(tmp_path, capsys):
    manifest = _wav_manifest(tmp_path, 50.0)
    save_wav(Signal(np.zeros(FS // 10), FS), tmp_path / "silent.wav")
    code = run(["compare", "--stimulus", str(tmp_path / "silent.wav"),
                "--manifest", str(manifest), "--length", "1023"])
    assert code == 1
    err = capsys.readouterr().err
    assert "warning:" not in err
    assert "error:" in err and "stimulus is silent" in err


_NO_SCIPY = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import bandscope.cli
assert not scipy_modules(), scipy_modules()

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
work = Path(sys.argv[1])
spec = work / "spec.json"
spec.write_text(json.dumps({"stimulus": {"kind": "pink", "duration_s": 0.2, "seed": 1},
                            "distances_cm": [50, 100],
                            "profile": {"1": [[50, 3.0], [100, 0.0]]}}))
camp, bank = work / "camp", ["--length", "63"]
for argv in (["bands"],
             ["synth-campaign", "--spec", str(spec), *bank, "--out", str(camp)],
             ["analyze", "--manifest", str(camp / "manifest.json"), *bank,
              "--out", str(work / "analysis")],
             ["compare", "--stimulus", str(camp / "stimulus.wav"), "--distance", "100",
              "--manifest", str(camp / "manifest.json"), *bank]):
    assert bandscope.cli.run(argv) == 0, argv
assert not scipy_modules(), scipy_modules()
"""


def test_import_and_commands_leave_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency; importing scipy.fft alone cost
    # every command about 0.4 s
    src = Path(bandscope.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


_REUSE_PROBE = """
import resource
import numpy as np
from bandscope import cli

cli._keep_freed_memory()
def burst():
    arrays = [np.ones(375_000) for _ in range(12)]  # 12 arrays of 3 MB
    del arrays
burst()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    burst()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's allocator")
def test_freed_arrays_are_reused_not_faulted_in_again():
    # the streamed pass frees a recording's arrays before the next one
    # allocates the same sizes; by default glibc hands them back to the kernel
    src = Path(bandscope.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _REUSE_PROBE], env=env, timeout=120,
                         capture_output=True, text=True, check=True).stdout
    reallocated = 5 * 12 * 375_000 * 8
    assert int(out) * os.sysconf("SC_PAGE_SIZE") < 0.1 * reallocated


def test_main_tunes_the_allocator_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append("tune"))
    monkeypatch.setattr(cli, "run", lambda argv=None: calls.append("run") or 0)
    with pytest.raises(SystemExit):
        cli.main()
    assert calls == ["tune", "run"]


_MAPPING_LINE = st.one_of(
    st.sampled_from(["0", "50", "200", "22050", "nan", "inf", "-inf", "1e400",
                     "# comment", "", "junk"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@st.composite
def _mapping_texts(draw):
    """Ascending edges from 0 Hz with arbitrary lines spliced in anywhere."""
    edges = sorted(draw(st.lists(st.floats(min_value=1.0, max_value=22050.0), max_size=5)))
    lines = ["0"] + [repr(e) for e in edges]
    for extra in draw(st.lists(_MAPPING_LINE, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


@given(text=_mapping_texts())
@settings(max_examples=200, deadline=None)
def test_bands_any_mapping_text_exits_cleanly(text):
    # hypothesis cannot share the function-scoped tmp_path, so make a directory here
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.map"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(["bands", "--mapping", str(path)])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert all(math.isfinite(float(line)) for line in out.getvalue().splitlines())
    else:
        assert "error:" in err.getvalue()


# --- properties at the CLI boundary -------------------------------------------

@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    """Two short recordings r50.wav and r100.wav, reused by every example."""
    root = tmp_path_factory.mktemp("boundary")
    noise = 0.05 * np.random.default_rng(2).standard_normal(FS // 20)
    for d in (50, 100):
        save_wav(Signal(noise * (100.0 / d), FS), root / f"r{d}.wav")
    return root


def _run_captured(argv):
    """Exit code and stderr of one in-process run; an exception other than
    SystemExit propagates and fails the test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 200)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
_ROW = st.fixed_dictionaries({}, optional={
    "path": st.sampled_from(["r50.wav", "r100.wav", "absent.wav", "", "."]) | st.text(max_size=4),
    "distance_cm": st.sampled_from([50, 100, 100.0, 0, -1, math.inf, math.nan, "50", 10**400])
    | _JSON,
    "microphone": st.sampled_from(["m", "n", ""]) | _JSON,
    "directivity": st.just("omni") | _JSON,
    "stimulus": st.just("s") | _JSON,
})
_MANIFESTS = _JSON | st.fixed_dictionaries({"entries": st.lists(_ROW, max_size=4) | _JSON})


@given(doc=_MANIFESTS)
@example(doc={"entries": [{"distance_cm": 10**400}]})  # too big for a float
@settings(max_examples=40, deadline=None)
def test_analyze_any_manifest_json_exits_cleanly(boundary_dir, doc):
    manifest = boundary_dir / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with tempfile.TemporaryDirectory() as out:
        code, err = _run_captured(["analyze", "--manifest", str(manifest),
                                   "--length", "63", "--out", out])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# A campaign spec that synthesizes (20 ms at 44.1 kHz), and for each field
# values to put in its place: valid ones, ones every reader must reject, and
# _ABSENT to delete it. Durations stay at most 50 ms and rates at most
# 44.1 kHz, so any mix of them is cheap to synthesize.
_ABSENT = object()
_NOT_A_NUMBER = st.sampled_from([_ABSENT, None, True, "x", [], {}])
_DISTANCE = st.sampled_from([5, 50, 100, 100.0, 0, -1, math.inf, math.nan, "50"]) | _JSON
_SPEC_FIELDS = {
    ("stimulus",): st.sampled_from([{"file": "absent.wav"}, {"file": "."}]) | _JSON,
    ("stimulus", "kind"): st.sampled_from([_ABSENT, "pink", "sine", "noise"]) | _JSON,
    ("stimulus", "duration_s"): st.floats(min_value=1e-4, max_value=0.05)
    | st.sampled_from([0, -1.0, math.inf, math.nan, 1e30]) | _NOT_A_NUMBER,
    ("stimulus", "sample_rate_hz"):
        st.sampled_from([8000, 0, -1, math.inf, math.nan]) | _NOT_A_NUMBER,
    ("stimulus", "target_level_dbfs"): st.floats(allow_nan=True, allow_infinity=True) | _JSON,
    ("stimulus", "frequency_hz"): st.sampled_from([_ABSENT, 100.0, 0, 30000]) | _JSON,
    ("stimulus", "seed"): st.sampled_from([_ABSENT, -1, 10**30]) | _JSON,
    ("distances_cm",): st.lists(_DISTANCE, max_size=4) | _JSON,
    ("reference_distance_cm",): st.just(_ABSENT) | _DISTANCE,
    ("directivity_m",): st.floats(allow_nan=True, allow_infinity=True) | _JSON,
    ("theta_rad",): st.sampled_from([math.pi, math.pi / 2]) | _JSON,
    ("profile",): st.dictionaries(
        st.sampled_from(["1", "10", "11", "0", "x"]),
        st.lists(st.tuples(_DISTANCE, _JSON), max_size=2), max_size=2) | _JSON,
    ("microphone",): _JSON,
    ("stimulus_label",): _JSON,
}


@st.composite
def _campaign_specs(draw):
    doc = {"stimulus": {"kind": "pink", "duration_s": 0.02, "sample_rate_hz": FS, "seed": 7},
           "distances_cm": [25, 50, 100], "profile": {"1": [[25, 3.0], [100, 0.0]]}}
    for path in draw(st.lists(st.sampled_from(sorted(_SPEC_FIELDS)), max_size=3, unique=True)):
        *parents, key = path
        parent = doc[parents[0]] if parents else doc
        if not isinstance(parent, dict):  # the stimulus was replaced whole
            continue
        value = draw(_SPEC_FIELDS[path])
        if value is _ABSENT:
            parent.pop(key, None)
        else:
            parent[key] = value
    return doc


@given(doc=_campaign_specs())
# more memory than the address space holds
@example(doc={"stimulus": {"kind": "pink", "duration_s": 1e9, "seed": 7},
              "distances_cm": [50, 100]})
@settings(max_examples=40, deadline=None)
def test_synth_campaign_any_spec_json_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "campaign.json"
        spec.write_text(json.dumps(doc))
        code, err = _run_captured(["synth-campaign", "--spec", str(spec), "--length", "63",
                                   "--out", str(Path(tmp) / "camp")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# (operation, offset, bytes): offsets below 44 hit the header that ingest
# reads, offsets past it hit samples that only decoding reads
_MUTATION = st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                      st.integers(0, 44 + 4 * (FS // 20)), st.binary(min_size=1, max_size=4))


def _mutated(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for op, offset, chunk in mutations:
        offset = min(offset, len(buf))
        if op == "flip":
            buf[offset:offset + len(chunk)] = bytes(
                b ^ c for b, c in zip(buf[offset:offset + len(chunk)], chunk))
        elif op == "delete":
            del buf[offset:offset + len(chunk)]
        else:
            buf[offset:offset] = chunk
    return bytes(buf)


@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
@example(mutations=[("flip", 0, b"\x01")])  # header only: not a RIFF file
# samples only: the first one becomes a signalling NaN
@example(mutations=[("delete", 44, b"1234"), ("insert", 44, b"\x01\x00\x80\x7f")])
@settings(max_examples=40, deadline=None)
def test_mutated_wav_bytes_exit_cleanly(boundary_dir, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for d in (50, 100):
            (tmp / f"r{d}.wav").write_bytes((boundary_dir / f"r{d}.wav").read_bytes())
        (tmp / "r50.wav").write_bytes(_mutated((tmp / "r50.wav").read_bytes(), mutations))
        rows = [{"path": f"r{d}.wav", "distance_cm": d, "microphone": "m",
                 "directivity": "omni", "stimulus": "s"} for d in (50, 100)]
        (tmp / "manifest.json").write_text(json.dumps({"entries": rows}))
        common = ["--manifest", str(tmp / "manifest.json"), "--length", "63"]
        runs = [
            ["analyze", *common, "--out", str(tmp / "analyze")],
            # the 50 cm file is the one compared, so compare decodes it
            ["compare", "--stimulus", str(boundary_dir / "r100.wav"), *common,
             "--distance", "50"],
        ]
        for argv in runs:
            code, err = _run_captured(argv)
            assert code in (0, 1), (argv[0], err)
            assert "Traceback" not in err
