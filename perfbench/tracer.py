"""In-process span tracer for the bandscope layers.

The tracer replaces the public functions and methods of each layer module
with timing wrappers at every place they are bound: the package, the
defining module, and every module that imported them by name. Spans (name,
start, end, parent) are kept in memory; a layer's self time is its spans'
durations minus the time their child spans cover. Nothing inside the
package is edited; ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "bandscope"
# errors has no runtime cost and is not traced
LAYERS = ("wavio", "stimuli", "synthfield", "filterbank", "balance", "signal",
          "series", "level", "campaign", "cli")


@dataclass(eq=False)
class Span:
    sid: int
    name: str
    parent: int | None
    start: int = 0
    end: int = 0
    excluded: int = 0          # tracer bookkeeping inside this span, in ns
    info: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fingerprint(signal) -> tuple[int, int, int]:
    samples = signal.samples
    return (samples.size, signal.sample_rate, zlib.crc32(memoryview(samples).cast("B")))


def _fft_points(args, kwargs) -> dict:
    from scipy.fft import next_fast_len

    bank, signal = _arg(args, kwargs, 0, "bank"), _arg(args, kwargs, 2, "signal")
    # fftconvolve: two forward real transforms and one inverse, each of the
    # next fast length >= N + L - 1 (computed, not measured)
    return {"fft_points": 3 * next_fast_len(len(signal) + bank.length - 1, True)}


def _file_bytes(args, kwargs) -> dict:
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except OSError:
        return {"bytes": 0}


BEFORE_HOOKS = {
    "filterbank.apply_zero_phase": _fft_points,
    "filterbank.decompose": lambda a, k: {"input": _fingerprint(_arg(a, k, 1, "signal"))},
    "balance.spectral_balance": lambda a, k: {"input": _fingerprint(_arg(a, k, 0, "signal"))},
    "wavio.load_wav": _file_bytes,
}
AFTER_HOOKS = {
    "campaign.export": lambda result: {"files": len(result)},
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _originals: dict[int, object] = field(default_factory=dict)
    _bindings: list[tuple[object, str, object]] = field(default_factory=list)

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1].sid if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _charge(self, t0: int) -> None:
        """Book tracer work done since ``t0`` against the enclosing span."""
        if self._stack:
            self._stack[-1].excluded += time.perf_counter_ns() - t0

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, such as one command."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        before, after = BEFORE_HOOKS.get(name), AFTER_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if before is not None:
                t0 = time.perf_counter_ns()
                info = before(args, kwargs)
                tracer._charge(t0)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.info = info
            if after is not None:
                t0 = time.perf_counter_ns()
                span.info = {**(info or {}), **after(result)}
                tracer._charge(t0)
            return result

        return traced

    # --- installation ------------------------------------------------------

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _targets(self):
        """(owner, attribute, span name) for each public function of each
        layer module and each public method of its public classes."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield obj, meth, f"{layer}.{attr}.{meth}"

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def install(self) -> "Tracer":
        __import__(PACKAGE)
        wrappers: dict[int, object] = {}
        for owner, attr, name in list(self._targets()):
            fn = vars(owner)[attr]
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        owners = self._modules()
        owners += [c for m in owners for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith(PACKAGE)]
        for owner in dict.fromkeys(owners):
            for attr, value in list(vars(owner).items()):
                if self._is_original(value):
                    setattr(owner, attr, wrappers[id(value)])
                    self._bindings.append((owner, attr, value))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Identity scan: every binding in the package that still holds an
        original traced function. Empty when the tracer sees every call site."""
        missed = []
        for mod in self._modules():
            holders = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
            for holder in holders:
                for attr, value in vars(holder).items():
                    if self._is_original(value):
                        missed.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return missed

    @property
    def binding_count(self) -> int:
        return len(self._bindings)


# --- analysis ---------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus child spans and tracer bookkeeping, in ns.
    Spans nest strictly on one thread, so children never overlap."""
    covered = {s.sid: s.excluded for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


def root_of(spans: list[Span], span: Span) -> Span:
    while span.parent is not None:
        span = spans[span.parent]
    return span
