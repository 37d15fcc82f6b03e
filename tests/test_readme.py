"""The README's Library example runs as printed, on a small campaign, and
its campaign spec example reads as the spec it describes."""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import bandscope as bs
from bandscope.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first ```python block under the ``## Library`` heading."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_spec_example_reads_as_the_spec_built_by_hand(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n### Campaign spec format\n", 1)[1]
    path = tmp_path / "spec.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    spec, echo = bs.load_campaign_spec(path)
    stimulus = bs.StimulusSpec("pink", 2.0, 44100, -20.0, seed=7)
    by_hand = bs.SynthCampaignSpec(
        stimulus=bs.gen_stimulus(stimulus),
        distances_cm=(5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
        reference_distance_cm=100.0,
        model=bs.DirectivityModel.cardioid(),
        theta_rad=0.0,
        microphone="synthcard",
        stimulus_label="pink",
        profile=bs.DistanceProfile({0: ((5, 8.0), (25, 4.0), (50, 0.0), (100, 0.0))}),
    )
    assert spec.stimulus.sample_rate == by_hand.stimulus.sample_rate
    assert (spec.stimulus.samples == by_hand.stimulus.samples).all()
    assert dataclasses.replace(spec, stimulus=by_hand.stimulus) == by_hand
    assert echo == {**json.loads(path.read_text()), "stimulus": stimulus.to_json()}


def test_library_example_runs(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"stimulus": {"kind": "pink", "duration_s": 0.5, "seed": 1},
                                "distances_cm": [25, 50, 100]}))
    assert run(["synth-campaign", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    shutil.copy(tmp_path / "stimulus.wav", tmp_path / "recording.wav")
    monkeypatch.chdir(tmp_path)

    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)

    assert (tmp_path / "results" / "summary.json").exists()
    assert bs.load_wav(tmp_path / "band1.wav").samples.size == namespace["subbands"][0].size
    measured = namespace["measured"]
    assert isinstance(measured, bs.SeriesMeasurement)
    assert measured.reference_distance_cm == 100.0
    assert [p.distance_cm for p in namespace["curve"]] == [25.0, 50.0, 100.0]
    assert [p.amplification_db for p in namespace["curve"] if p.distance_cm == 100.0] == [0.0]
    assert len(namespace["evolutions"]) == len(namespace["balance"].weights_db) == 10
