"""Output checks: exit codes, summary errors, recovered curves against the
injected ground truth, and byte-identity of export trees."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Command, Plan, SeriesTruth, tree_digest


@dataclass
class CheckLog:
    """Every command run and every check made, with the failures kept."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    truth_errors_db: list[float] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _compare_value(log: CheckLog, what: str, got: str, expected: tuple[float, float]) -> None:
    value, tol = expected
    try:
        err = abs(float(got) - value)
    except ValueError:
        log.record(False, f"{what}: unreadable value {got!r}")
        return
    log.truth_errors_db.append(err)
    log.record(err <= tol, f"{what}: {float(got):.4f} dB, expected {value:.4f} +- {tol:g}")


def check_analyze(log: CheckLog, out: Path, truth: dict[tuple[str, str, str], SeriesTruth]) -> None:
    """summary.json has no errors and every series' level gaps and weight
    deltas match the injected truth at every distance."""
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        log.record(False, f"analyze: summary.json unreadable: {exc}")
        return
    log.record(summary.get("errors") == [], f"analyze: summary errors {summary.get('errors')}")
    found = {tuple(s["series"]) for s in summary.get("series", [])}
    log.record(found == set(truth), f"analyze: series {sorted(found)} != {sorted(truth)}")
    for key, t in truth.items():
        stem = "_".join(key)
        try:
            level = _rows(out / f"{stem}_level.csv")
            gaps = {float(r["distance_cm"]): r["gap_db"] for r in level}
            log.record(set(gaps) == set(t.gaps), f"analyze {stem}: level distances {sorted(gaps)}")
            for d, expected in t.gaps.items():
                _compare_value(log, f"analyze {stem} gap at {d:g} cm", gaps.get(d, ""), expected)
            bands = sorted({b for b, _ in t.deltas})
            for b in bands:
                rows = _rows(out / f"{stem}_band{b + 1:02d}_weight.csv")
                got = {float(r["distance_cm"]): r["delta_weight_db"] for r in rows}
                for (band, d), expected in t.deltas.items():
                    if band == b:
                        _compare_value(log, f"analyze {stem} band {b + 1} delta at {d:g} cm",
                                       got.get(d, ""), expected)
        except (OSError, KeyError) as exc:
            log.record(False, f"analyze {stem}: export unreadable: {exc}")


def check_compare(log: CheckLog, out: Path, truth: dict[tuple[str, str, str], SeriesTruth]) -> None:
    """comparison.csv has one row per series with the expected differences."""
    try:
        rows = {r["comparison"].split("/", 1)[1]: r for r in _rows(out / "comparison.csv")}
    except (OSError, KeyError, IndexError) as exc:
        log.record(False, f"compare: comparison.csv unreadable: {exc}")
        return
    log.record(len(rows) == len(truth), f"compare: {len(rows)} rows for {len(truth)} series")
    for key, t in truth.items():
        row = rows.get(f"{key[0]} {key[1]}")
        if not log.record(row is not None, f"compare: no row for {key}"):
            continue
        for b, expected in t.compare.items():
            # the differences are stimulus minus recording, not errors against
            # the 1/x law, so they stay out of truth_err_db
            value, tol = expected
            got = row.get(f"band{b + 1}", "")
            try:
                ok = abs(float(got) - value) <= tol
            except ValueError:
                ok = False
            log.record(ok, f"compare {key} band {b + 1}: {got!r}, expected {value:.4f} +- {tol:g}")


def check_synth(log: CheckLog, out: Path, plan: Plan) -> None:
    """ground_truth.csv records exactly the gains the spec injects."""
    try:
        rows = _rows(out / "ground_truth.csv")
        got = {(int(r["band"]) - 1, float(r["distance_cm"])): float(r["injected_gain_db"])
               for r in rows}
    except (OSError, KeyError, ValueError) as exc:
        log.record(False, f"synth: ground_truth.csv unreadable: {exc}")
        return
    expected = plan.injected_gains
    log.record(got.keys() == expected.keys()
               and all(abs(got[k] - v) <= 1e-9 for k, v in expected.items()),
               "synth: ground_truth.csv gains differ from the spec")


def check_outputs(log: CheckLog, plan: Plan, command: Command) -> None:
    try:
        if command.name == "synth":
            check_synth(log, command.out_dir, plan)
        elif command.name == "analyze":
            check_analyze(log, command.out_dir, plan.get_truth())
        else:
            check_compare(log, command.out_dir, plan.get_truth())
    except Exception as exc:  # a crashing check is a failed check, never a lost one
        log.record(False, f"{command.name}: check raised {type(exc).__name__}: {exc}")


def output_digests(plan: Plan) -> tuple[str, ...]:
    return tuple(tree_digest(c.out_dir) for c in plan.commands)
