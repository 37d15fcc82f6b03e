"""Per-layer metrics from the spans of one traced pass, and the exact call
counts the traced run asserts."""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS, Span, root_of, self_times

NS = 1e9
# spans whose per-call durations are reported as p50 and tail
CALL_LEVEL = ("filterbank.apply_zero_phase", "balance.spectral_balance", "wavio.load_wav")


def tail(values: list[float]) -> tuple[float, float, float]:
    """p50, and the highest of p75/p90/p95/p99/p99.9 that has at least ten
    samples beyond it (p50 again when none has), with that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 50.0
    pct = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            pct = p

    def at(p: float) -> float:
        return ordered[min(n - 1, int(p / 100.0 * n))]

    return at(50.0), at(pct), pct


def _useful_ratio(spans: list[Span], named: list[Span]) -> float:
    """Distinct inputs within one command divided by calls."""
    if not named:
        return 0.0
    distinct = {(root_of(spans, s).sid, s.info["input"]) for s in named}
    return len(distinct) / len(named)


def layer_metrics(spans: list[Span], plan, log) -> dict[str, float]:
    """Per-layer numbers of one traced pass; records a failed check for each
    call count that differs from the workload's expected count."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / NS

    def self_total(name: str) -> float:
        return sum(selfs[s.sid] for s in by_name[name]) / NS

    zero_phase = by_name["filterbank.apply_zero_phase"]
    loads = by_name["wavio.load_wav"]
    load_s = total("wavio.load_wav")
    m = {f"{layer}.self_s": sum(selfs[s.sid] for s in spans
                                if s.name.split(".", 1)[0] == layer) / NS
         for layer in LAYERS}
    m.update({
        "trace.spans": float(len(spans)),
        "filterbank.apply_zero_phase.calls": float(len(zero_phase)),
        "filterbank.apply_zero_phase.s": total("filterbank.apply_zero_phase"),
        "filterbank.fft_points_computed": float(sum(s.info["fft_points"] for s in zero_phase)),
        "filterbank.decompose.calls": float(len(by_name["filterbank.decompose"])),
        "filterbank.decompose.useful_ratio": _useful_ratio(spans, by_name["filterbank.decompose"]),
        "filterbank.design_bank.s": total("filterbank.design_bank"),
        "balance.spectral_balance.calls": float(len(by_name["balance.spectral_balance"])),
        "balance.spectral_balance.self_s": self_total("balance.spectral_balance"),
        "balance.spectral_balance.useful_ratio":
            _useful_ratio(spans, by_name["balance.spectral_balance"]),
        "wavio.load_wav.calls": float(len(loads)),
        "wavio.load_wav.s": load_s,
        "wavio.load_wav.mb_per_s":
            sum(s.info["bytes"] for s in loads) / 1e6 / load_s if load_s else 0.0,
        "wavio.save_wav.s": total("wavio.save_wav"),
        "stimuli.gen_stimulus.s": total("stimuli.gen_stimulus"),
        "synthfield.synth_campaign.self_s": self_total("synthfield.synth_campaign"),
        "campaign.ingest.self_s": self_total("campaign.ingest"),
        "campaign.analyze.self_s": self_total("campaign.analyze"),
        "campaign.export.s": total("campaign.export"),
        # an export that raised has no file count
        "campaign.export.files": float(sum((s.info or {}).get("files", 0)
                                           for s in by_name["campaign.export"])),
        "signal.mean_level_dbfs.calls": float(len(by_name["signal.mean_level_dbfs"])),
        "level.measured_level_curve.s": total("level.measured_level_curve"),
        "series.trimmed_to_common_length.s":
            total("series.MeasurementSeries.trimmed_to_common_length"),
    })

    for name in CALL_LEVEL:
        p50, high, pct = tail([s.duration / 1e6 for s in by_name[name]])
        m.update({f"{name}.p50_ms": p50, f"{name}.tail_ms": high, f"{name}.tail_pct": pct})

    per_command: dict[str, int] = defaultdict(int)
    for s in zero_phase:
        per_command[root_of(spans, s).name] += 1
    for cmd in plan.commands:
        got = per_command.get(f"bench.{cmd.name}", 0)
        log.record(got == cmd.zero_phase_calls,
                   f"{cmd.name}: {got} apply_zero_phase calls, expected {cmd.zero_phase_calls}")
    if plan.synth_decompose_calls is not None:
        got = sum(1 for s in by_name["filterbank.decompose"]
                  if _has_ancestor(spans, s, "synthfield.synth_campaign"))
        log.record(got == plan.synth_decompose_calls,
                   f"synth: {got} decompose calls in synth_campaign, "
                   f"expected {plan.synth_decompose_calls}")
    return m


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
