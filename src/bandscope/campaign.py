"""Campaign ingestion, batch analysis, comparison reports and export.

A manifest is one JSON document with an ``entries`` array; each entry names
a recording file, its distance in cm and the (microphone, directivity,
stimulus) labels. Entries sharing labels form a series. Ingest reads only
the WAV headers; analysis measures each series in one pass over its
recordings and runs the level and balance chains on the measurements.
Export writes the level chain's rows (one per distance) as the level CSV
and the summary's levels, one CSV per band and a summary JSON,
deterministically. A synthetic series is saved as WAVs plus the manifest
that lists them, so the manifest format and the file-naming rule each
live here only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .balance import WeightEvolution, balance_difference, spectral_balance, weight_evolution
from .errors import (BandscopeError, LoadError, ManifestError, SilenceError, converting,
                     json_number, json_text, read_input)
from .filterbank import FilterBank
from .level import (
    LevelPoint,
    ValidityVerdict,
    check_threshold,
    measured_level_curve,
    validity_limit,
)
from .series import (MeasurementEntry, MeasurementSeries, SeriesMeasurement,
                     check_unique_distances, distance_text)
from .signal import LevelDbfs, Signal
from .wavio import save_wav

__all__ = [
    "IngestReport",
    "SeriesError",
    "SeriesAnalysis",
    "CampaignResult",
    "ComparisonRow",
    "ComparisonReport",
    "ingest",
    "save_series",
    "analyze",
    "analyze_report",
    "compare_to_stimulus",
    "export",
]


@dataclass(frozen=True)
class SeriesError:
    """A series that produced no result, and why."""

    key: tuple[str, str, str]
    kind: str
    message: str

    @classmethod
    def of(cls, key: tuple[str, str, str], exc: BandscopeError) -> "SeriesError":
        """The record of ``exc`` excluding a series: kind "load" for a file
        that could not be read or decoded, else the exception's type name."""
        kind = "load" if isinstance(exc, LoadError) else type(exc).__name__
        return cls(key=key, kind=kind, message=str(exc))


@dataclass(frozen=True)
class IngestReport:
    """Ingested series plus the per-series errors for excluded ones."""

    series: tuple[MeasurementSeries, ...]
    errors: tuple[SeriesError, ...]


def _manifest_series(manifest_path: str | os.PathLike) -> dict[tuple, list[MeasurementEntry]]:
    """The manifest's entries, grouped by series key."""
    path = Path(manifest_path)
    doc = read_input(path, ManifestError, as_json=True)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ManifestError(f"{path}: expected an object with an 'entries' array")
    groups: dict[tuple[str, str, str], list[MeasurementEntry]] = {}
    for i, row in enumerate(doc["entries"]):
        with converting(ManifestError, f"{path}: entry {i} invalid"):
            texts = {name: json_text(row[name], name)
                     for name in ("microphone", "directivity", "stimulus", "path")}
            entry = MeasurementEntry(
                distance_cm=json_number(row["distance_cm"], "distance_cm"), **texts
            )
        groups.setdefault(entry.key, []).append(entry)
    if not groups:
        raise ManifestError(f"{path}: manifest holds no entries")
    return groups


def _file_stem(key: tuple[str, str, str]) -> str:
    """Stem of every file named after a series: its labels joined by "_",
    each run of other characters than A-Za-z0-9._- replaced by "-"."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", "_".join(key))


def _check_distinct_stems(keys: list[tuple[str, str, str]]) -> None:
    """Two series whose labels give the same file stem would export over
    each other's files; that is a manifest error."""
    stems: dict[str, tuple[str, str, str]] = {}
    for key in sorted(keys):
        stem = _file_stem(key)
        if stem in stems:
            raise ManifestError(
                f"series {stems[stem]} and {key} would write to the same files "
                f"(stem {stem!r})"
            )
        stems[stem] = key


def save_series(series: MeasurementSeries, out_dir: str | os.PathLike) -> None:
    """Write each recording of an in-memory series to ``out_dir`` as a float32
    WAV named {stem}_{distance}cm.wav, with the stem :func:`export` names the
    series' files by, plus the ``manifest.json`` listing them that
    :func:`ingest` reads back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for entry, signal in zip(series.entries, series.recordings):
        name = f"{_file_stem(series.key)}_{distance_text(entry.distance_cm)}cm.wav"
        save_wav(signal, out / name, encoding="float32")
        rows.append({**asdict(entry), "path": name})
    (out / "manifest.json").write_text(
        json.dumps({"entries": rows}, sort_keys=True, indent=2) + "\n"
    )


def ingest(manifest_path: str | os.PathLike) -> IngestReport:
    """Read a manifest and the header of every file it lists into series,
    grouped and sorted by distance. No samples are decoded here.

    Duplicate distances within a series and sample-rate mixtures raise;
    a series with a missing file or a broken WAV header is excluded and
    listed in the report's errors instead (no silent drops).
    """
    groups = _manifest_series(manifest_path)
    base = Path(manifest_path).parent
    series_list: list[MeasurementSeries] = []
    errors: list[SeriesError] = []
    for key in sorted(groups):
        group = groups[key]
        check_unique_distances(group)  # before any file is read
        paths = [base / entry.path for entry in group]  # an absolute path stays as is
        try:
            series_list.append(MeasurementSeries.from_files(group, paths))
        except LoadError as exc:
            errors.append(SeriesError.of(key, exc))
    return IngestReport(series=tuple(series_list), errors=tuple(errors))


@dataclass(frozen=True)
class SeriesAnalysis:
    """Full analysis of one series."""

    key: tuple[str, str, str]
    measured: SeriesMeasurement
    level_points: tuple[LevelPoint, ...]  # ascending by distance
    level_verdict: ValidityVerdict | None
    weight_evolutions: tuple[WeightEvolution, ...]
    band_verdicts: tuple[ValidityVerdict, ...]
    reequalized_bands: tuple[int, ...]  # band indices with a rise after an interior minimum
    analyzed_length: int

    @property
    def max_abs_gap_db(self) -> float | None:
        defined = [abs(p.gap_db) for p in self.level_points if p.gap_db is not None]
        return max(defined) if defined else None


def _detect_reequalization(evolution: WeightEvolution, threshold_db: float) -> bool:
    """A weight minimum at an interior distance followed by a rise beyond the
    threshold: the pattern that forbids naming a validity limit."""
    deltas = evolution.deltas_db
    if len(deltas) < 3:
        return False
    i_min = min(range(len(deltas)), key=lambda i: deltas[i])
    if i_min == 0 or i_min == len(deltas) - 1:
        return False
    return (deltas[-1] - deltas[i_min]) > threshold_db


def _band_verdict(
    evolution: WeightEvolution, reequalized: bool, threshold_db: float
) -> ValidityVerdict:
    """The validity verdict of one band's weight evolution: no limit when it
    shows the re-equalization pattern or has fewer than 2 points."""
    if reequalized:
        rule = (f"no validity limit: weight rises by more than {threshold_db:g} dB "
                "after an interior minimum")
    elif len(evolution.points) < 2:
        rule = "no validity limit: fewer than 2 usable points"
    else:
        return validity_limit(evolution.points, threshold_db)
    return ValidityVerdict(limit_distance_cm=None, threshold_db=threshold_db, rule=rule)


def analyze(
    series: MeasurementSeries,
    bank: FilterBank,
    reference_distance_cm: float = 100.0,
    threshold_db: float = 1.0,
) -> SeriesAnalysis:
    """Level curve, weight evolutions and validity verdicts.

    All of them come from one measuring pass over the recordings, each cut
    to the series' common length (:meth:`MeasurementSeries.measure`). The
    reference distance and the threshold are taken as floats, and an
    invalid threshold fails before anything is measured. Band verdicts use
    the weight deltas as deviations; a band showing the re-equalization
    pattern gets no validity limit regardless of its suffix, because the
    late rise is exactly what the limit is supposed to exclude.
    """
    reference_distance_cm, threshold_db = float(reference_distance_cm), float(threshold_db)
    check_threshold(threshold_db)
    measured = series.measure(bank, reference_distance_cm)
    points = measured_level_curve(measured)

    defined = [(p.distance_cm, p.gap_db) for p in points if p.gap_db is not None]
    level_verdict = validity_limit(defined, threshold_db) if len(defined) >= 2 else None

    evolutions = tuple(weight_evolution(measured))
    reequalized = tuple(evo.band_index for evo in evolutions
                        if _detect_reequalization(evo, threshold_db))
    return SeriesAnalysis(
        key=series.key,
        measured=measured,
        level_points=points,
        level_verdict=level_verdict,
        weight_evolutions=evolutions,
        band_verdicts=tuple(
            _band_verdict(evo, evo.band_index in reequalized, threshold_db)
            for evo in evolutions
        ),
        reequalized_bands=reequalized,
        analyzed_length=series.common_length,
    )


@dataclass(frozen=True)
class CampaignResult:
    """Analyses, recorded per-series errors, and the configuration block."""

    analyses: tuple[SeriesAnalysis, ...]
    errors: tuple[SeriesError, ...]
    provenance: dict

    @property
    def config_hash(self) -> str:
        """Digest of the settings and of the content of every analyzed
        recording (with its series and distance), not of file paths: a copy
        of a campaign in another directory hashes the same."""
        inputs = sorted(
            [*a.key, m.distance_cm, m.sha256]
            for a in self.analyses
            for m in a.measured.measurements
        )
        canonical = json.dumps({"inputs": inputs, "settings": self.provenance}, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def analyze_report(
    report: IngestReport,
    bank: FilterBank,
    reference_distance_cm: float = 100.0,
    threshold_db: float = 1.0,
) -> CampaignResult:
    """Analyze every ingested series; failures become recorded errors,
    never silent drops. The reference distance and the threshold are taken
    as floats, so an int and the equal float give the same result and
    ``config_hash``. An invalid threshold, or two series that
    :func:`export` would write to the same files, fails once, before any
    series is measured."""
    reference_distance_cm, threshold_db = float(reference_distance_cm), float(threshold_db)
    check_threshold(threshold_db)
    _check_distinct_stems([series.key for series in report.series])
    analyses = []
    errors = list(report.errors)
    for series in report.series:
        try:
            analyses.append(analyze(series, bank, reference_distance_cm, threshold_db))
        except BandscopeError as exc:
            errors.append(SeriesError.of(series.key, exc))
    provenance = {
        "mapping_edges_hz": list(bank.mapping.edges),
        "filter_length": bank.length,
        "sample_rate_hz": bank.sample_rate,
        "reference_distance_cm": reference_distance_cm,
        "threshold_db": threshold_db,
    }
    return CampaignResult(
        analyses=tuple(analyses), errors=tuple(errors), provenance=provenance
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One stimulus-vs-recording line: label, the per-band differences of
    :func:`balance_difference`, and the stimulus/recording mean level pair."""

    label: str
    diffs_db: tuple[float, ...]
    stimulus_level: LevelDbfs
    recording_level: LevelDbfs


@dataclass(frozen=True)
class ComparisonReport:
    """Stimulus-vs-recording rows in a fixed column layout.

    Columns: label, one signed dB figure per subband (positive means the
    band weighs more in the stimulus), then the stimulus/recording mean
    level pair.
    """

    stimulus_label: str
    rows: tuple[ComparisonRow, ...]
    n_bands: int

    def to_csv(self) -> str:
        head = ",".join(f"band{i + 1}" for i in range(self.n_bands))
        lines = [f"comparison,{head},stimulus_level_dbfs,recording_level_dbfs"]
        for row in self.rows:
            diffs = ",".join(_csv_float(v) for v in row.diffs_db)
            lines.append(
                f"{self.stimulus_label}/{row.label},{diffs},"
                f"{_level_csv(row.stimulus_level)},{_level_csv(row.recording_level)}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = ["comparison"] + [f"b{i + 1}" for i in range(self.n_bands)] + ["levels"]
        widths = [28] + [7] * self.n_bands + [16]
        out = ["".join(h.rjust(w) for h, w in zip(head, widths))]
        for row in self.rows:
            cells = [f"{self.stimulus_label}/{row.label}"]
            for v in row.diffs_db:
                cells.append("n/a" if math.isnan(v) else f"{v:+.1f}")
            cells.append(f"{_level_text(row.stimulus_level)}/{_level_text(row.recording_level)}")
            out.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(out) + "\n"


def compare_to_stimulus(
    stimulus_signal: Signal,
    series: MeasurementSeries,
    bank: FilterBank,
    at_distance_cm: float = 100.0,
) -> ComparisonRow:
    """Balance difference between a stimulus and one series recording.

    Only the recording at ``at_distance_cm`` is decoded. A side whose mean
    power underflows is silent, as in :class:`SeriesMeasurement`, and
    raises :class:`SilenceError`.
    """
    recording_signal = series.signal_at(at_distance_cm)  # raises MissingDistanceError
    stimulus = spectral_balance(stimulus_signal, bank)
    recording = spectral_balance(recording_signal, bank)
    for side, balance in (("stimulus", stimulus),
                          (f"recording at {float(at_distance_cm)} cm", recording)):
        if balance.mean_level.is_silence:
            raise SilenceError(f"{side} is silent; its balance is undefined")
    return ComparisonRow(
        label=f"{series.key[0]} {series.key[1]}".strip(),
        diffs_db=balance_difference(stimulus, recording),
        stimulus_level=stimulus.mean_level,
        recording_level=recording.mean_level,
    )


# --- export ---------------------------------------------------------------

def _csv_float(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return repr(float(v))


def _level_csv(level: LevelDbfs) -> str:
    return "silence" if level.is_silence else repr(level.value)


def _level_text(level: LevelDbfs) -> str:
    return "silence" if level.is_silence else f"{level.value:.1f}"


def _verdict_json(v: ValidityVerdict | None) -> dict | None:
    if v is None:
        return None
    return {
        "limit_distance_cm": v.limit_distance_cm,
        "threshold_db": v.threshold_db,
        "rule": v.rule,
    }


def export(result: CampaignResult, out_dir: str | os.PathLike) -> list[Path]:
    """Write per-series curve CSVs and the summary JSON into ``out_dir``.

    File naming is {microphone}_{directivity}_{stimulus}_{metric}.csv and
    the output is byte-deterministic for identical inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary: dict = {
        "provenance": result.provenance,
        "config_hash": result.config_hash,
        "series": [],
        "errors": [
            {"series": list(e.key), "kind": e.kind, "message": e.message}
            for e in sorted(result.errors, key=lambda e: e.key)
        ],
    }

    for analysis in sorted(result.analyses, key=lambda a: a.key):
        stem = _file_stem(analysis.key)
        lines = ["distance_cm,amplification_db,theory_db,gap_db"]
        lines += [
            f"{distance_text(p.distance_cm)},{_csv_float(p.amplification_db)},"
            f"{_csv_float(p.theory_db)},{_csv_float(p.gap_db)}"
            for p in analysis.level_points
        ]
        level_path = out / f"{stem}_level.csv"
        level_path.write_text("\n".join(lines) + "\n")
        written.append(level_path)

        for evo in analysis.weight_evolutions:
            lines = ["distance_cm,delta_weight_db"]
            for distance, delta in evo.points:
                lines.append(f"{distance_text(distance)},{_csv_float(delta)}")
            band_path = out / f"{stem}_band{evo.band_index + 1:02d}_weight.csv"
            band_path.write_text("\n".join(lines) + "\n")
            written.append(band_path)

        summary["series"].append(
            {
                "series": list(analysis.key),
                "n_points": len(analysis.level_points),
                "analyzed_length_samples": analysis.analyzed_length,
                "mean_levels_dbfs": [
                    [p.distance_cm, p.level.to_json()] for p in analysis.level_points
                ],
                "max_abs_gap_db": analysis.max_abs_gap_db,
                "level_verdict": _verdict_json(analysis.level_verdict),
                "band_verdicts": [
                    _verdict_json(v) for v in analysis.band_verdicts
                ],
                "reequalized_bands": [b + 1 for b in analysis.reequalized_bands],
            }
        )

    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)
    return written
