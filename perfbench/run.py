"""bandscope campaign benchmark.

    python3 perfbench/run.py --workload field-pcm24 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The benchmark makes a seeded
synthetic campaign, then repeats the workload's command sequence for
``--seconds`` (at least twice), checks every output against the injected
ground truth, and prints one JSON object as the last line of standard
output.

``--trace 0`` runs the real CLI as child processes and reports the
end-to-end metrics. ``--trace 1`` runs the same commands in-process through
``bandscope.cli.run``, alternating untraced and traced passes, and reports
per-layer metrics from the spans; the difference between the two kinds of
pass is the tracing overhead. See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set before numpy loads, so the in-process runs get the same cap as children
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

# set-up children run between iterations, so that they see the same phases
# of a drifting machine as the commands do
SETUP_PER_ITERATION = 2
SETUP_MIN = 6
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 120.0
CLI_CODE = "from bandscope.cli import main; main()"
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import bandscope as b; "
    "t1 = time.perf_counter(); "
    "b.design_bank(b.BandMapping(b.BAND_PRESETS[{preset!r}]), 44100, {length}); "
    "print(t1 - t0)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log_path: Path, cwd: Path) -> tuple[int, float, int]:
    """Run a child to completion: exit code, wall seconds, peak RSS in KiB."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Setup:
    """Cold starts of interpreter + ``import bandscope`` + ``design_bank``:
    the wall seconds of each child and the import time it reports."""

    def __init__(self, plan, work: Path):
        self.argv = [sys.executable, "-c",
                     SETUP_CODE.format(preset=plan.preset, length=plan.length)]
        self.log = work / "setup.log"
        self.walls: list[float] = []
        self.imports: list[float] = []

    def run(self, n: int) -> None:
        for _ in range(n):
            code, wall, _ = spawn(self.argv, self.log, self.log.parent)
            if code != 0:
                raise RuntimeError(f"set-up child failed: {self.log.read_text()[-500:]}")
            self.walls.append(wall)
            self.imports.append(float(self.log.read_text().split()[-1]))

    def top_up(self) -> None:
        self.run(SETUP_MIN - len(self.walls))


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- untraced: the real CLI as child processes --------------------------------

def run_untraced(plan, seconds: float, work: Path, log) -> dict:
    from checks import check_outputs, output_digests

    setup = Setup(plan, work)
    per_iter: dict[str, list[float]] = {}
    first_digests = None
    elapsed = 0.0  # measuring time, set-up children excluded
    while True:
        setup.run(SETUP_PER_ITERATION)
        t_iter = time.perf_counter()
        walls, rss = {}, []
        for cmd in plan.commands:
            shutil.rmtree(cmd.out_dir, ignore_errors=True)
            code, wall, maxrss = spawn([sys.executable, "-c", CLI_CODE, *cmd.argv],
                                       work / f"{cmd.name}.log", work)
            log.record(code == 0, f"{cmd.name} exited {code}")
            walls[cmd.name] = wall
            rss.append(maxrss / 1024.0)
        for cmd in plan.commands:
            check_outputs(log, plan, cmd)
        digests = output_digests(plan)
        if first_digests is None:
            first_digests = digests
        else:
            log.record(digests == first_digests, "outputs differ between repetitions")
        analyzed = [c for c in plan.commands if c.name != "synth"]
        sample = {
            "wall_s": sum(walls.values()),
            "analyze_s": walls["analyze"],
            "other_cmd_s": next(w for n, w in walls.items() if n != "analyze"),
            "audio_s_per_s": sum(c.audio_s for c in analyzed)
            / sum(walls[c.name] for c in analyzed),
            "peak_rss_mb": max(rss),
            **{f"{n}_s": w for n, w in walls.items()},
        }
        for k, v in sample.items():
            per_iter.setdefault(k, []).append(v)
        elapsed += time.perf_counter() - t_iter
        n = len(per_iter["wall_s"])
        if n >= 2 and (elapsed >= seconds or elapsed * (n + 1) / n > RUN_LIMIT_S):
            break
    setup.top_up()
    result = {k: statistics.median(v) for k, v in per_iter.items()}
    result["setup_s"] = statistics.median(setup.walls)
    result["setup_children"] = len(setup.walls)
    errors = log.truth_errors_db or [float("nan")]
    result["truth_mae_db"] = statistics.fmean(errors)
    result["truth_err_db"] = max(errors)
    result["iterations"] = len(per_iter["wall_s"])
    return result


# --- traced: in-process, per-layer spans --------------------------------------

def run_in_process(plan, tracer=None) -> tuple[float, list[int]]:
    import bandscope.cli

    codes = []
    t0 = time.perf_counter()
    for cmd in plan.commands:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
        sink = io.StringIO()
        region = nullcontext() if tracer is None else tracer.region(f"bench.{cmd.name}")
        with redirect_stdout(sink), redirect_stderr(sink), region:
            try:
                codes.append(bandscope.cli.run(cmd.argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception:  # a traceback is a failed command, as in a child
                traceback.print_exc()
                codes.append(-1)
    return time.perf_counter() - t0, codes


def run_traced(plan, seconds: float, work: Path, log) -> dict:
    from checks import check_outputs, output_digests
    from layers import layer_metrics
    from tracer import Tracer

    setup = Setup(plan, work)
    untraced, traced, pass_spans, bindings = [], [], [], 0
    reference = None
    elapsed = 0.0  # measuring time, set-up children excluded
    while True:
        setup.run(SETUP_PER_ITERATION)
        t_pass = time.perf_counter()
        kind_traced = len(untraced) > len(traced)
        if kind_traced:
            tracer = Tracer().install()
            bindings = tracer.binding_count
            if not traced:
                missed = tracer.unwrapped_bindings()
                log.record(not missed, f"tracer self-test: unwrapped bindings {missed}")
            try:
                wall, codes = run_in_process(plan, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            pass_spans.append(tracer.spans)
        else:
            wall, codes = run_in_process(plan)
            untraced.append(wall)
        for cmd, code in zip(plan.commands, codes):
            log.record(code == 0, f"{cmd.name} exited {code} in-process")
        for cmd in plan.commands:
            check_outputs(log, plan, cmd)
        digests = output_digests(plan)
        if reference is None:
            reference = digests
        else:
            log.record(digests == reference,
                       "tracer self-test: outputs differ between passes"
                       + (" (traced pass)" if kind_traced else ""))
        elapsed += time.perf_counter() - t_pass
        n = len(untraced) + len(traced)
        if n >= 3 and (elapsed >= seconds or elapsed * (n + 1) / n > RUN_LIMIT_S):
            break
    setup.top_up()

    per_pass = [layer_metrics(spans, plan, log) for spans in pass_spans]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["setup.import_s"] = statistics.median(setup.imports)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.bindings_wrapped"] = float(bindings)
    write_spans(work.parent / f"spans-{plan.workload}-seed{plan.seed}.jsonl", pass_spans)
    return metrics


def write_spans(path: Path, pass_spans) -> None:
    with open(path, "w") as fh:
        for i, spans in enumerate(pass_spans):
            for s in spans:
                fh.write(json.dumps({"pass": i, "sid": s.sid, "name": s.name,
                                     "parent": s.parent, "start_ns": s.start,
                                     "end_ns": s.end, "info": s.info}, default=list) + "\n")


# --- entry point ----------------------------------------------------------------

def load_metric_list() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int, default=16383,
                        help="FIR tap count passed to every command (default 16383)")
    args = parser.parse_args()

    if not (SRC / "bandscope" / "__init__.py").is_file():
        print(f"error: no bandscope sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # compiles the package's bytecode before any child is timed
    import bandscope  # noqa: F401
    from checks import CheckLog
    from workloads import WORKLOADS, GenerationError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_metric_list()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = CheckLog()
    try:
        try:
            plan = WORKLOADS[args.workload](work, args.seed, args.length)
        except GenerationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            measured = run_traced(plan, args.seconds, work, log)
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            measured = run_untraced(plan, args.seconds, work, log)
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} length {args.length} "
          f"trace {args.trace} input sha256 {plan.input_digest[:16]}")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    for key in sorted(measured):
        print(f"{key:48s} {measured[key]:.6g}")
    print(f"{'failed_ops':48s} {log.failed}/{log.attempted}")
    for failure in log.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(measured[name]), "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
