"""Campaign ingestion, batch analysis, comparison reports and export.

A manifest is one JSON document with an ``entries`` array; each entry names
a recording file, its distance in cm and the (microphone, directivity,
stimulus) labels. Entries sharing labels form a series. Ingest reads only
the WAV headers; analysis measures each series in one pass over its
recordings and runs the level and balance chains on the measurements;
export writes one level CSV and one CSV per band plus a summary JSON,
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

from .balance import (
    BalanceDifference,
    WeightEvolution,
    balance_difference,
    spectral_balance,
    weight_evolution,
)
from .errors import BandscopeError, LoadError, ManifestError, converting, read_input
from .filterbank import FilterBank
from .level import (
    GapPoint,
    LevelCurve,
    ValidityVerdict,
    check_threshold,
    gap_curve,
    measured_level_curve,
    validity_limit,
)
from .series import MeasurementEntry, MeasurementSeries, check_unique_distances
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
            entry = MeasurementEntry(
                distance_cm=float(row["distance_cm"]),
                microphone=str(row["microphone"]),
                directivity=str(row["directivity"]),
                stimulus=str(row["stimulus"]),
                path=str(row["path"]),
            )
        groups.setdefault(entry.key, []).append(entry)
    if not groups:
        raise ManifestError(f"{path}: manifest holds no entries")
    return groups


def _file_stem(key: tuple[str, str, str]) -> str:
    """Stem of every file named after a series: its labels joined by "_",
    each run of other characters than A-Za-z0-9._- replaced by "-"."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", "_".join(key))


def save_series(series: MeasurementSeries, out_dir: str | os.PathLike) -> None:
    """Write each recording of an in-memory series to ``out_dir`` as a float32
    WAV named {stem}_{distance}cm.wav, with the stem :func:`export` names the
    series' files by, plus the ``manifest.json`` listing them that
    :func:`ingest` reads back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for entry, signal in zip(series.entries, series.recordings):
        name = f"{_file_stem(series.key)}_{entry.distance_cm:g}cm.wav"
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
    level_curve: LevelCurve
    gaps: tuple[GapPoint, ...]
    level_verdict: ValidityVerdict | None
    weight_evolutions: tuple[WeightEvolution, ...]
    band_verdicts: tuple[ValidityVerdict, ...]
    reequalized_bands: tuple[int, ...]  # band indices with a rise after an interior minimum
    analyzed_length: int
    input_sha256: tuple[str, ...]  # one per level-curve point, in its order

    @property
    def max_abs_gap_db(self) -> float | None:
        defined = [abs(g.gap_db) for g in self.gaps if g.gap_db is not None]
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


def analyze(
    series: MeasurementSeries,
    bank: FilterBank,
    reference_distance_cm: float = 100.0,
    threshold_db: float = 1.0,
) -> SeriesAnalysis:
    """Level curve, gap curve, weight evolutions and validity verdicts.

    All of them come from one measuring pass over the recordings, each cut
    to the series' common length (:meth:`MeasurementSeries.measure`). Band
    verdicts use the weight deltas as deviations; a band showing the
    re-equalization pattern gets no validity limit regardless of its
    suffix, because the late rise is exactly what the limit is supposed to
    exclude.
    """
    measurements = series.measure(bank, reference_distance_cm)
    curve = measured_level_curve(measurements, reference_distance_cm)
    gaps = tuple(gap_curve(curve))

    defined = [(g.distance_cm, g.gap_db) for g in gaps if g.gap_db is not None]
    level_verdict = validity_limit(defined, threshold_db) if len(defined) >= 2 else None

    evolutions = tuple(weight_evolution(measurements, reference_distance_cm))
    band_verdicts = []
    reequalized = []
    for evo in evolutions:
        if _detect_reequalization(evo, threshold_db):
            reequalized.append(evo.band_index)
            band_verdicts.append(
                ValidityVerdict(
                    limit_distance_cm=None,
                    threshold_db=threshold_db,
                    rule=(
                        "no validity limit: weight rises by more than "
                        f"{threshold_db:g} dB after an interior minimum"
                    ),
                )
            )
        elif len(evo.points) >= 2:
            band_verdicts.append(validity_limit(evo.points, threshold_db))
        else:
            band_verdicts.append(
                ValidityVerdict(
                    limit_distance_cm=None,
                    threshold_db=threshold_db,
                    rule="no validity limit: fewer than 2 usable points",
                )
            )

    return SeriesAnalysis(
        key=series.key,
        level_curve=curve,
        gaps=gaps,
        level_verdict=level_verdict,
        weight_evolutions=evolutions,
        band_verdicts=tuple(band_verdicts),
        reequalized_bands=tuple(reequalized),
        analyzed_length=series.common_length,
        input_sha256=tuple(m.sha256 for m in measurements),
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
            [*a.key, distance, digest]
            for a in self.analyses
            for (distance, _), digest in zip(a.level_curve.levels, a.input_sha256)
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
    never silent drops. An invalid threshold fails once, before any series."""
    check_threshold(threshold_db)
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
    """One stimulus-vs-recording line: label, per-band diffs, level pair."""

    label: str
    difference: BalanceDifference


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
            diffs = ",".join(_csv_float(v) for v in row.difference.diffs_db)
            lines.append(
                f"{self.stimulus_label}/{row.label},{diffs},"
                f"{_level_csv(row.difference.stimulus_level)},"
                f"{_level_csv(row.difference.recording_level)}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = ["comparison"] + [f"b{i + 1}" for i in range(self.n_bands)] + ["levels"]
        widths = [28] + [7] * self.n_bands + [16]
        out = ["".join(h.rjust(w) for h, w in zip(head, widths))]
        for row in self.rows:
            cells = [f"{self.stimulus_label}/{row.label}"]
            for v in row.difference.diffs_db:
                cells.append("n/a" if math.isnan(v) else f"{v:+.1f}")
            pair = (
                f"{_level_text(row.difference.stimulus_level)}/"
                f"{_level_text(row.difference.recording_level)}"
            )
            cells.append(pair)
            out.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(out) + "\n"


def compare_to_stimulus(
    stimulus_signal: Signal,
    series: MeasurementSeries,
    bank: FilterBank,
    at_distance_cm: float = 100.0,
) -> ComparisonRow:
    """Balance difference between a stimulus and one series recording.

    Only the recording at ``at_distance_cm`` is decoded.
    """
    recording = series.signal_at(at_distance_cm)  # raises MissingDistanceError
    diff = balance_difference(
        spectral_balance(stimulus_signal, bank), spectral_balance(recording, bank)
    )
    label = f"{series.key[0]} {series.key[1]}".strip()
    return ComparisonRow(label=label, difference=diff)


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
        theory_by_distance = {
            g.distance_cm: g for g in analysis.gaps
        }
        lines = ["distance_cm,amplification_db,theory_db,gap_db"]
        for distance, amp in analysis.level_curve.points:
            gap = theory_by_distance[distance]
            if gap.gap_db is not None:
                theory = amp - gap.gap_db
                lines.append(
                    f"{distance:g},{_csv_float(amp)},{_csv_float(theory)},{_csv_float(gap.gap_db)}"
                )
            else:
                lines.append(f"{distance:g},{_csv_float(amp)},,")
        level_path = out / f"{stem}_level.csv"
        level_path.write_text("\n".join(lines) + "\n")
        written.append(level_path)

        for evo in analysis.weight_evolutions:
            lines = ["distance_cm,delta_weight_db"]
            for distance, delta in evo.points:
                lines.append(f"{distance:g},{_csv_float(delta)}")
            band_path = out / f"{stem}_band{evo.band_index + 1:02d}_weight.csv"
            band_path.write_text("\n".join(lines) + "\n")
            written.append(band_path)

        summary["series"].append(
            {
                "series": list(analysis.key),
                "n_points": len(analysis.level_curve.levels),
                "analyzed_length_samples": analysis.analyzed_length,
                "mean_levels_dbfs": [
                    [d, lv.to_json()] for d, lv in analysis.level_curve.levels
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
