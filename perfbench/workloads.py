"""Seeded synthetic campaigns for the benchmark workloads.

Every workload is a closed loop: one client runs its bandscope commands one
after another and starts the next only when the previous one has exited.
The inputs are made here from the seed, outside the timed region, together
with the ground truth the outputs are checked against. The program under
test only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FS = 44100
REFERENCE_CM = 100.0
FLAT_TOL_DB = 0.05
PROFILE_TOL_DB = 0.3

# Mean level of the stimulus at the reference distance. The loudest
# recording sits 26 dB above it (5 cm, 1/x) plus at most +10 dB of profile
# boost, which keeps the pink-noise peaks near -6 dB FS: no sample clips.
REFERENCE_LEVEL_DBFS = -52.0

FIELD_DISTANCES = (5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 100)
SHORT_DISTANCES = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

# 0-based band index -> (distance_cm, gain_db) breakpoints, end values held.
FIELD_PROFILES = {
    "omni": {1: ((5.0, 3.0), (40.0, 0.0)), 8: ((5.0, 0.0), (100.0, -1.0))},
    "cardioid": {0: ((5.0, 10.0), (30.0, 3.0), (60.0, 0.0)),
                 1: ((5.0, 6.0), (40.0, 0.0))},
}
SYNTH_PROFILE = {0: ((5.0, 8.0), (25.0, 4.0), (50.0, 0.0), (100.0, 0.0)),
                 3: ((5.0, -6.0), (50.0, 0.0), (100.0, 0.0))}

# The workloads are defined on these edges, kept here rather than read from
# bandscope.BAND_PRESETS so that a change to a preset fails the checks and
# call counts instead of silently redefining the workload.
PRESET_EDGES = {
    "ids10": (0, 50, 200, 400, 800, 1200, 1800, 3000, 6000, 15000, 22050),
    "nl8": (0, 50, 75, 100, 125, 150, 175, 200, 22050),
}


class GenerationError(RuntimeError):
    """The seeded inputs could not be made as the workload defines them."""


@dataclass
class SeriesTruth:
    """Injected ground truth of one series: expected value and tolerance."""

    gaps: dict[float, tuple[float, float]]
    deltas: dict[tuple[int, float], tuple[float, float]]
    compare: dict[int, tuple[float, float]]


@dataclass
class Command:
    name: str                    # "synth", "analyze" or "compare"
    argv: list[str]              # arguments after the program name
    out_dir: Path
    audio_s: float               # seconds of audio the command analyzes
    zero_phase_calls: int        # apply_zero_phase calls it must make


@dataclass
class Plan:
    """One workload instance: its commands, input digest and ground truth."""

    workload: str
    seed: int
    length: int
    preset: str
    commands: list[Command]
    input_digest: str
    synth_decompose_calls: int | None
    # series key -> truth; a callable for truth that needs the outputs
    truth: dict[tuple[str, str, str], SeriesTruth] | None = None
    truth_from_outputs: Callable[[], dict] | None = None
    # (band, distance_cm) -> dB that synth-campaign must record as injected
    injected_gains: dict[tuple[int, float], float] | None = None

    def get_truth(self) -> dict[tuple[str, str, str], SeriesTruth]:
        if self.truth is None:
            self.truth = self.truth_from_outputs()
        return self.truth


# --- input generation -----------------------------------------------------

def pink_noise(seed: int, duration_s: float, level_dbfs: float) -> np.ndarray:
    """Pink noise shaped in the frequency domain (1/f power, flat below 20 Hz),
    scaled to an exact mean-power level."""
    rng = np.random.default_rng(seed)
    n = round(duration_s * FS)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / FS)
    spectrum /= np.sqrt(np.maximum(freqs, 20.0))
    x = np.fft.irfft(spectrum, n)
    return x * math.sqrt(10.0 ** (level_dbfs / 10.0) / np.mean(x**2))


def write_wav(path: Path, x: np.ndarray, encoding: str) -> None:
    """Mono little-endian WAV; refuses input that would clip."""
    if encoding == "float32":
        tag, bits, body = 3, 32, x.astype("<f4").tobytes()
    else:
        bits = {"pcm16": 16, "pcm24": 24}[encoding]
        scale = float(1 << (bits - 1))
        q = np.round(x * scale)
        if np.max(np.abs(q)) >= scale:
            raise GenerationError(f"{path.name}: input would clip at {encoding}")
        raw = q.astype("<i4").view(np.uint8).reshape(-1, 4)[:, : bits // 8]
        tag, body = 1, raw.tobytes()
    align = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, FS, FS * align, align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\x00")
        h.update(p.read_bytes())
    return h.hexdigest()


def profile_gains(profile: dict, n_bands: int, distances) -> np.ndarray:
    """Injected gain in dB, one row per distance and one column per band."""
    gains = np.zeros((len(distances), n_bands))
    for band, pts in profile.items():
        gains[:, band] = np.interp(distances, [d for d, _ in pts], [g for _, g in pts])
    return gains


def series_truth(band_energy: np.ndarray, gains_db: np.ndarray, distances,
                 compare_cm: float = REFERENCE_CM) -> SeriesTruth:
    """Expected gaps, weight deltas and comparison row for a series whose
    recordings are the stimulus with per-band gains, a global 1/x gain and a
    directivity factor.

    A weight is a band's share of the total energy, so boosting some bands
    lowers every weight by the same renormalization term; the level gap
    against the 1/x law is that term too.
    """
    distances = [float(d) for d in distances]
    flat = not np.any(gains_db)
    tol = FLAT_TOL_DB if flat else PROFILE_TOL_DB
    totals = (band_energy[None, :] * 10.0 ** (gains_db / 10.0)).sum(axis=1)
    i_ref = distances.index(REFERENCE_CM)
    renorm = 10.0 * np.log10(totals / totals[i_ref])
    gaps = {d: (float(renorm[i]), FLAT_TOL_DB) for i, d in enumerate(distances)}
    deltas = {
        (b, d): (float(gains_db[i, b] - gains_db[i_ref, b] - renorm[i]), tol)
        for i, d in enumerate(distances)
        for b in range(gains_db.shape[1])
    }
    i_cmp = distances.index(float(compare_cm))
    shift = 10.0 * math.log10(totals[i_cmp] / band_energy.sum())
    compare = {b: (float(shift - gains_db[i_cmp, b]), tol) for b in range(gains_db.shape[1])}
    return SeriesTruth(gaps=gaps, deltas=deltas, compare=compare)


def _manifest_entry(path: str, distance, microphone, directivity, stimulus) -> dict:
    return {"path": path, "distance_cm": distance, "microphone": microphone,
            "directivity": directivity, "stimulus": stimulus}


def _directivity(m: float, theta: float) -> float:
    return m + (1.0 - m) * math.cos(theta)


def _windowed_sinc_lowpass(cutoff: float, length: int) -> np.ndarray:
    """Blackman-windowed sinc lowpass with unit DC gain; cutoff 0 gives zeros
    and cutoff at Nyquist a unit impulse."""
    if cutoff <= 0.0:
        return np.zeros(length)
    if cutoff >= FS / 2.0:
        h = np.zeros(length)
        h[(length - 1) // 2] = 1.0
        return h
    n = np.arange(length) - (length - 1) / 2.0
    h = (2.0 * cutoff / FS) * np.sinc(2.0 * cutoff * n / FS) * np.blackman(length)
    return h / h.sum()


def _band_signals(x: np.ndarray, preset: str, length: int) -> list[np.ndarray]:
    """Zero-phase subbands of ``x`` under the complementary bank the workload
    is defined on: band i is LP(edge i+1) - LP(edge i), so the subbands sum
    back to ``x``.

    The bank is designed here, not taken from bandscope, so that a change to
    the program's filter bank can change neither the inputs nor the truth
    its outputs are checked against.
    """
    from scipy.signal import fftconvolve

    lowpasses = [_windowed_sinc_lowpass(e, length) for e in PRESET_EDGES[preset]]
    return [fftconvolve(x, hi - lo, mode="same") for lo, hi in zip(lowpasses, lowpasses[1:])]


def read_float32_wav(path: Path) -> np.ndarray:
    """Samples of a mono float32 WAV, as synth-campaign writes its stimulus."""
    data = path.read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise GenerationError(f"{path.name}: not a RIFF/WAVE file")
    fmt, body, pos = None, None, 12
    while pos + 8 <= len(data):
        tag, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        chunk = data[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", chunk)
        elif tag == b"data":
            body = chunk
        pos += 8 + size + (size & 1)
    if fmt is None or body is None or (fmt[0], fmt[1], fmt[2], fmt[5]) != (3, 1, FS, 32):
        raise GenerationError(f"{path.name}: expected mono float32 at {FS} Hz, got {fmt}")
    return np.frombuffer(body[: len(body) // 4 * 4], dtype="<f4").astype(np.float64)


def _analysis_args(preset: str, length: int) -> list[str]:
    return ["--preset", preset, "--length", str(length)]


def _analyze_and_compare(work: Path, preset: str, length: int, n_rec: int,
                         n_series: int, duration: float, n_bands: int) -> list[Command]:
    """Recordings and stimulus share one duration in these workloads."""
    out = work / "out"
    manifest = str(work / "in" / "manifest.json")
    return [
        Command("analyze", ["analyze", "--manifest", manifest,
                            *_analysis_args(preset, length), "--out", str(out / "analyze")],
                out / "analyze", audio_s=n_rec * duration, zero_phase_calls=n_rec * n_bands),
        Command("compare", ["compare", "--stimulus", str(work / "in" / "stimulus.wav"),
                            "--manifest", manifest, "--distance", f"{REFERENCE_CM:g}",
                            "--label", "stimulus", *_analysis_args(preset, length),
                            "--out", str(out / "compare")],
                out / "compare", audio_s=n_series * 2 * duration,
                zero_phase_calls=2 * n_series * n_bands),
    ]


def field_pcm24(work: Path, seed: int, length: int) -> Plan:
    """2 series (omni, cardioid) x 12 distances x 10 s PCM24, ids10, both
    series carrying a per-band distance profile."""
    preset, duration = "ids10", 10.0
    n_bands = len(PRESET_EDGES[preset]) - 1
    indir = work / "in"
    indir.mkdir(parents=True)
    stim = pink_noise(seed, duration, REFERENCE_LEVEL_DBFS)
    subbands = _band_signals(stim, preset, length)
    energy = np.array([float(np.sum(s**2)) for s in subbands])
    write_wav(indir / "stimulus.wav", stim, "pcm24")

    entries, truth = [], {}
    for label, m in (("omni", 1.0), ("cardioid", 0.5)):
        theta = 1.0
        gains = profile_gains(FIELD_PROFILES[label], n_bands, FIELD_DISTANCES)
        mic = f"field{label}"
        for i, d in enumerate(FIELD_DISTANCES):
            band_gain = 10.0 ** (gains[i] / 20.0)
            x = (REFERENCE_CM / d) * _directivity(m, theta) * sum(
                g * s for g, s in zip(band_gain, subbands))
            name = f"{mic}_{d}cm.wav"
            write_wav(indir / name, x, "pcm24")
            entries.append(_manifest_entry(name, d, mic, label, "pink"))
        truth[(mic, label, "pink")] = series_truth(energy, gains, FIELD_DISTANCES)
    (indir / "manifest.json").write_text(json.dumps({"entries": entries}, indent=1))

    n_rec = len(entries)
    return Plan(
        workload="field-pcm24", seed=seed, length=length, preset=preset,
        commands=_analyze_and_compare(work, preset, length, n_rec, 2, duration, n_bands),
        input_digest=tree_digest(indir), synth_decompose_calls=None, truth=truth,
    )


def many_short(work: Path, seed: int, length: int) -> Plan:
    """16 series x 11 distances x 0.5 s PCM16 with the nl8 mapping: more
    filter taps than samples, so per-file and per-process costs show."""
    preset, duration = "nl8", 0.5
    n_bands = len(PRESET_EDGES[preset]) - 1
    indir = work / "in"
    indir.mkdir(parents=True)
    stim = pink_noise(seed, duration, REFERENCE_LEVEL_DBFS)
    write_wav(indir / "stimulus.wav", stim, "pcm16")
    flat_gains = np.zeros((len(SHORT_DISTANCES), n_bands))
    ones = np.ones(n_bands)  # flat truth does not depend on the band energies

    entries, truth = [], {}
    for k in range(16):
        # distinct directivity gains, so that no two recordings are scaled
        # copies of each other with the same scale
        m, theta = (0.9, 0.75, 0.5, 0.25)[k % 4], 0.2 + 0.1 * k
        mic, label = f"mic{k + 1:02d}", f"m{m:g}"
        for d in SHORT_DISTANCES:
            name = f"{mic}_{d}cm.wav"
            write_wav(indir / name, (REFERENCE_CM / d) * _directivity(m, theta) * stim,
                      "pcm16")
            entries.append(_manifest_entry(name, d, mic, label, "pink"))
        truth[(mic, label, "pink")] = series_truth(ones, flat_gains, SHORT_DISTANCES)
    (indir / "manifest.json").write_text(json.dumps({"entries": entries}, indent=1))

    return Plan(
        workload="many-short", seed=seed, length=length, preset=preset,
        commands=_analyze_and_compare(work, preset, length, len(entries), 16, duration,
                                      n_bands),
        input_digest=tree_digest(indir), synth_decompose_calls=None, truth=truth,
    )


def synth_profile(work: Path, seed: int, length: int) -> Plan:
    """synth-campaign (pink, 11 distances x 10 s, cardioid, ids10 profile on
    two bands), then analyze on its output."""
    preset, duration = "ids10", 10.0
    n_bands = len(PRESET_EDGES[preset]) - 1
    indir, out = work / "in", work / "out"
    indir.mkdir(parents=True)
    spec = {
        "stimulus": {"kind": "pink", "duration_s": duration, "sample_rate_hz": FS,
                     "target_level_dbfs": REFERENCE_LEVEL_DBFS, "seed": seed},
        "distances_cm": list(SHORT_DISTANCES),
        "reference_distance_cm": REFERENCE_CM,
        "directivity_m": 0.5,
        "theta_rad": 0.0,
        "microphone": "synthcard",
        "stimulus_label": "pink",
        "profile": {str(b + 1): [list(p) for p in pts] for b, pts in SYNTH_PROFILE.items()},
    }
    (indir / "campaign.json").write_text(json.dumps(spec, indent=1))
    n_rec = len(SHORT_DISTANCES)
    synth_dir = out / "synth"
    commands = [
        Command("synth", ["synth-campaign", "--spec", str(indir / "campaign.json"),
                          *_analysis_args(preset, length), "--out", str(synth_dir)],
                synth_dir, audio_s=0.0, zero_phase_calls=(n_rec + 1) * n_bands),
        Command("analyze", ["analyze", "--manifest", str(synth_dir / "manifest.json"),
                            *_analysis_args(preset, length), "--out", str(out / "analyze")],
                out / "analyze", audio_s=n_rec * duration, zero_phase_calls=n_rec * n_bands),
    ]
    gains = profile_gains(SYNTH_PROFILE, n_bands, SHORT_DISTANCES)

    def truth_from_outputs() -> dict:
        # the stimulus exists only once synth-campaign has written it
        stim = read_float32_wav(synth_dir / "stimulus.wav")
        energy = np.array([float(np.sum(s**2)) for s in _band_signals(stim, preset, length)])
        return {("synthcard", "cardioid", "pink"): series_truth(energy, gains, SHORT_DISTANCES)}

    return Plan(
        workload="synth-profile", seed=seed, length=length, preset=preset, commands=commands,
        input_digest=tree_digest(indir), synth_decompose_calls=n_rec + 1,
        truth_from_outputs=truth_from_outputs,
        injected_gains={(b, float(d)): float(gains[i, b])
                        for i, d in enumerate(SHORT_DISTANCES) for b in range(n_bands)},
    )


WORKLOADS: dict[str, Callable[[Path, int, int], Plan]] = {
    "field-pcm24": field_pcm24,
    "synth-profile": synth_profile,
    "many-short": many_short,
}
