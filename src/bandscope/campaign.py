"""Campaign ingestion, batch analysis, comparison reports and export.

A manifest is one JSON document with an ``entries`` array; each entry names
a recording file, its distance in cm and the (microphone, directivity,
stimulus) labels. Entries sharing labels form a series. Ingest reads only
the WAV headers; analysis measures each series in one pass over its
recordings and runs the level and balance chains on the measurements. A
comparison row measures one recording as that pass does and the stimulus
by ``spectral_balance``, and both record each series they fail on through
:meth:`IngestReport.each`. Export writes the level chain's rows (one per
distance) as the level CSV and the summary's levels, one CSV per band and
a summary JSON, deterministically. A synthetic series is saved as WAVs
plus the manifest that lists them, so the manifest format, the
file-naming rule and the text rules of every CSV and JSON file bandscope
writes each live here only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .balance import WeightEvolution, balance_difference, spectral_balance, weight_evolution
from .errors import (BandscopeError, LoadError, ManifestError, MissingDistanceError, check_path,
                     converting, json_array, json_fields, json_number, json_text, read_input)
from .filterbank import FilterBank, _each
from .level import (
    LevelPoint,
    ValidityVerdict,
    check_threshold,
    measured_level_curve,
    validity_limit,
)
from .series import (MeasurementSeries, SeriesMeasurement, _check_labels, _measure,
                     check_distances, distance_text)
from .signal import Signal, check_not_silent
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

    def each(self, fn) -> tuple[list, tuple[SeriesError, ...]]:
        """``fn`` of each series, in order, and the report's errors followed by
        each series on which ``fn`` raised a :class:`BandscopeError`."""
        results, errors = [], list(self.errors)
        for series in self.series:
            try:
                results.append(fn(series))
            except BandscopeError as exc:
                errors.append(SeriesError.of(series.key, exc))
        return results, tuple(errors)


# the labels of a manifest entry, in the order of a series key
_LABELS = ("microphone", "directivity", "stimulus")
# what a manifest entry holds, every key required: key -> (field, reader)
_ENTRY_FIELDS = {**{key: (key, json_text) for key in (*_LABELS, "path")},
                 "distance_cm": ("distance_cm", json_number)}


def _manifest_series(manifest_path: str | os.PathLike) -> dict[tuple, tuple[list, list]]:
    """The manifest's series: key -> (distances, paths), each series' labels
    and distances checked, so a manifest fails before any file is read."""
    path = Path(check_path(manifest_path, ManifestError))
    doc = read_input(path, ManifestError, as_json=True)
    with converting(ManifestError, str(path)):
        rows = json_fields(doc, {"entries": ("entries", json_array)}, "manifest")["entries"]
    groups: dict[tuple[str, str, str], tuple[list, list]] = {}
    for i, row in enumerate(rows):
        with converting(ManifestError, f"{path}: entry {i} invalid"):
            entry = json_fields(row, _ENTRY_FIELDS, "entry")
            key = tuple(entry[name] for name in _LABELS)
            distance, file = entry["distance_cm"], entry["path"]
        distances, files = groups.setdefault(key, ([], []))
        distances.append(distance)
        files.append(path.parent / file)  # an absolute path stays as is
    if not groups:
        raise ManifestError(f"{path}: manifest holds no entries")
    with converting(ManifestError, str(path)):
        for key, (distances, _) in groups.items():
            _check_labels(key)
            check_distances(distances, f"series {key}")
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
            raise ManifestError(f"series {stems[stem]} and {key} would write to the same files "
                                f"(stem {stem!r})")
        stems[stem] = key


def save_series(series: MeasurementSeries, out_dir: str | os.PathLike) -> None:
    """Write each recording of an in-memory series to ``out_dir`` as a float32
    WAV named {stem}_{distance}cm.wav, with the stem :func:`export` names the
    series' files by, plus the ``manifest.json`` listing them that
    :func:`ingest` reads back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for distance, signal in zip(series.distances, series.recordings):
        name = f"{_file_stem(series.key)}_{distance_text(distance)}cm.wav"
        save_wav(signal, out / name, encoding="float32")
        rows.append({"path": name, "distance_cm": distance,
                     **dict(zip(_LABELS, series.key))})
    (out / "manifest.json").write_text(_json_text({"entries": rows}))


def ingest(manifest_path: str | os.PathLike) -> IngestReport:
    """Read a manifest and the header of every file it lists into series,
    grouped and sorted by distance. No samples are decoded here.

    Each series' labels and distances are checked before any file is read:
    an empty label or a distance that is not finite and >= 0 raises
    :class:`ManifestError`, a distance given twice
    :class:`DuplicateDistanceError`. A series mixing sample rates raises;
    one with a missing file or a broken WAV header is excluded and listed
    in the report's errors instead (no silent drops).
    """
    series_list: list[MeasurementSeries] = []
    errors: list[SeriesError] = []
    for key, (distances, paths) in sorted(_manifest_series(manifest_path).items()):
        try:
            series_list.append(MeasurementSeries.from_files(key, distances, paths))
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
    reference distance and the threshold are read by the number rule (not
    a bool or text, -0 as 0); an invalid threshold fails before anything is
    measured. Band verdicts use the weight deltas as deviations; a band
    showing the re-equalization pattern gets no validity limit regardless of
    its suffix, because the late rise is exactly what the limit excludes.
    """
    threshold_db = check_threshold(threshold_db)
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
    never silent drops. The reference distance and the threshold are read
    as :func:`analyze` reads them, so an int and the equal float, or -0 and
    0, give the same result and ``config_hash``. An invalid threshold, or
    two series that :func:`export` would write to the same files, fails
    once, before any series is measured."""
    reference_distance_cm = json_number(reference_distance_cm, "reference distance")
    threshold_db = check_threshold(threshold_db)
    _check_distinct_stems([series.key for series in report.series])
    analyses, errors = report.each(
        lambda series: analyze(series, bank, reference_distance_cm, threshold_db))
    provenance = {
        "mapping_edges_hz": list(bank.mapping.edges),
        "filter_length": bank.length,
        "sample_rate_hz": bank.sample_rate,
        "reference_distance_cm": reference_distance_cm,
        "threshold_db": threshold_db,
    }
    return CampaignResult(analyses=tuple(analyses), errors=errors, provenance=provenance)


@dataclass(frozen=True)
class ComparisonRow:
    """One stimulus-vs-recording line: label, the per-band differences of
    :func:`balance_difference`, and the stimulus/recording mean level pair."""

    label: str
    diffs_db: tuple[float, ...]
    stimulus_level: float  # dB FS
    recording_level: float


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
        """The rows as CSV; a label holding a comma, a quote or a line break
        is quoted, so every row keeps its columns."""
        return _csv_text(
            ["comparison", *(f"band{i + 1}" for i in range(self.n_bands)),
             "stimulus_level_dbfs", "recording_level_dbfs"],
            ([f"{self.stimulus_label}/{row.label}", *row.diffs_db,
              row.stimulus_level, row.recording_level] for row in self.rows))

    def to_text(self) -> str:
        """The rows as a table whose label column is as wide as the longest
        label, at least 28 characters, so every row keeps the header's columns."""
        labels = [_one_line(f"{self.stimulus_label}/{row.label}") for row in self.rows]
        head = ["comparison"] + [f"b{i + 1}" for i in range(self.n_bands)] + ["levels"]
        widths = [max([28, *map(len, labels)])] + [7] * self.n_bands + [16]
        out = ["".join(h.rjust(w) for h, w in zip(head, widths))]
        for label, row in zip(labels, self.rows):
            cells = [label]
            for v in row.diffs_db:
                cells.append("n/a" if math.isnan(v) else f"{v:+.1f}")
            cells.append(f"{row.stimulus_level:.1f}/{row.recording_level:.1f}")
            out.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(out) + "\n"


def compare_to_stimulus(
    stimulus_signal: Signal,
    series: MeasurementSeries,
    bank: FilterBank,
    at_distance_cm: float = 100.0,
) -> ComparisonRow:
    """Balance difference between a stimulus and one series recording.

    The two sides are measured on worker threads, one each: the stimulus
    by :func:`spectral_balance`, the recording at ``at_distance_cm`` as
    :meth:`MeasurementSeries.measure` measures it, decoded here and cut to
    the series' common length. A series without that distance or at another
    rate fails before anything is measured; a silent side, as in
    :class:`SeriesMeasurement`, raises a :class:`SilenceError` naming it.
    """
    distance = json_number(at_distance_cm, "distance")
    if distance not in series.distances:
        raise MissingDistanceError(f"series has no recording at {distance} cm "
                                   f"(distances: {series.distances})")
    bank._check_rate(series.sample_rate)
    recording = series.recordings[series.distances.index(distance)]
    stimulus, measured = _each(lambda measure: measure(), [
        lambda: spectral_balance(stimulus_signal, bank),
        lambda: _measure(distance, recording, series.common_length, bank)])
    check_not_silent(stimulus.level, "stimulus")
    check_not_silent(measured.level, f"recording at {distance} cm")
    return ComparisonRow(
        label=f"{series.key[0]} {series.key[1]}".strip(),
        diffs_db=balance_difference(stimulus, measured),
        stimulus_level=stimulus.level,
        recording_level=measured.level,
    )


def _one_line(text: str) -> str:
    """``text`` with each unprintable character, a line break say, escaped."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                   for c in text)


# --- export ---------------------------------------------------------------

def _csv_text(header: list[str], rows) -> str:
    """A CSV file's text, a line feed ending each line: a text cell as given
    (quoted where it holds a comma, a quote or a line break), a number as
    ``repr(float(v))``, None and NaN as an empty cell."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, str) else "" if v is None or math.isnan(v) else repr(float(v))
         for v in row]
        for row in rows)
    return text.getvalue()


def _json_text(doc) -> str:
    """A JSON file's text: keys sorted, indented by 2, a newline at the end."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
        level_path = out / f"{stem}_level.csv"
        level_path.write_text(_csv_text(
            ["distance_cm", "amplification_db", "theory_db", "gap_db"],
            ([distance_text(p.distance_cm), p.amplification_db, p.theory_db, p.gap_db]
             for p in analysis.level_points)))
        written.append(level_path)

        for evo in analysis.weight_evolutions:
            band_path = out / f"{stem}_band{evo.band_index + 1:02d}_weight.csv"
            band_path.write_text(_csv_text(
                ["distance_cm", "delta_weight_db"],
                ([distance_text(distance), delta] for distance, delta in evo.points)))
            written.append(band_path)

        summary["series"].append(
            {
                "series": list(analysis.key),
                "n_points": len(analysis.level_points),
                "analyzed_length_samples": analysis.analyzed_length,
                "mean_levels_dbfs": [
                    [p.distance_cm, p.level] for p in analysis.level_points
                ],
                "max_abs_gap_db": analysis.max_abs_gap_db,
                "level_verdict": analysis.level_verdict and asdict(analysis.level_verdict),
                "band_verdicts": [asdict(v) for v in analysis.band_verdicts],
                "reequalized_bands": [b + 1 for b in analysis.reequalized_bands],
            }
        )

    summary_path = out / "summary.json"
    summary_path.write_text(_json_text(summary))
    written.append(summary_path)
    return written
