"""Zero-phase complementary FIR subband filter bank.

The bank realizes an arbitrary partition of [0, Nyquist] into contiguous
bands. Each band filter is the difference of two windowed-sinc (Blackman)
lowpasses at the band edges, with LP(0) = zero and LP(Nyquist) = unit
impulse, so the coefficient-wise sum of all bands telescopes to an exact
unit impulse at the center tap: decompose-then-sum reconstructs the input.

Filters are odd-length symmetric (linear phase, type I); applying one with
the group delay removed is literally zero-phase, which keeps subband
energies directly comparable to the input's.

Filtering is FFT convolution cropped to the input's length, bit-identical
to ``scipy.signal.fftconvolve(x, h, mode="same")``: the same real
transforms of the same length, done once each. A bank keeps every band's
response for the current FFT length, and :func:`decompose` and
:func:`band_energies` transform the input once for all its bands, so
splitting a recording into B bands costs one forward transform plus one
inverse per band.

:func:`band_energies` filters the bands on every CPU in the process'
affinity mask (``taskset`` restricts it), on worker threads started on
first use, at most one thread per two bands, so a call holds at most half
as many subbands at once as :func:`decompose` returns. The energies are
the same whatever the CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import (
    InvalidLengthError,
    InvalidMappingError,
    RateMismatchError,
    converting,
    read_input,
)
from .signal import Signal

__all__ = [
    "BandMapping",
    "FilterBank",
    "design_bank",
    "apply_zero_phase",
    "decompose",
    "band_energies",
    "load_mapping",
    "BAND_PRESETS",
    "DEFAULT_TAPS",
]

# Default tap count gives ~15 Hz transition bands at 44.1 kHz.
DEFAULT_TAPS = 16383

# 10-band analysis mapping (44.1 kHz material) and the two variants of the
# 8-band low-frequency mapping. The verbatim variant keeps the published
# 150-170 / 175-200 bands, which leaves a 170-175 sliver as its own band.
BAND_PRESETS: dict[str, tuple[float, ...]] = {
    "ids10": (0, 50, 200, 400, 800, 1200, 1800, 3000, 6000, 15000, 22050),
    "nl8": (0, 50, 75, 100, 125, 150, 175, 200, 22050),
    "nl8-verbatim": (0, 50, 75, 100, 125, 150, 170, 175, 200, 22050),
}


@dataclass(frozen=True)
class BandMapping:
    """Ordered partition of [0, Nyquist] into contiguous subbands.

    ``edges`` starts at 0 and ends at the Nyquist frequency; band i covers
    [edges[i], edges[i+1]).
    """

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.edges)
        if len(edges) < 3:
            raise InvalidMappingError(
                f"mapping needs at least 2 bands (3 edges), got {len(edges)} edges"
            )
        if not all(math.isfinite(e) for e in edges):
            raise InvalidMappingError(f"edges must be finite: {edges}")
        if edges[0] != 0.0:
            raise InvalidMappingError(f"first edge must be 0 Hz, got {edges[0]}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidMappingError(f"edges must be strictly increasing: {edges}")
        object.__setattr__(self, "edges", edges)

    @property
    def n_bands(self) -> int:
        return len(self.edges) - 1

    def band(self, i: int) -> tuple[float, float]:
        """(low, high) edge pair of band ``i``."""
        return self.edges[i], self.edges[i + 1]

    def band_label(self, i: int) -> str:
        lo, hi = self.band(i)
        return f"{lo:g}-{hi:g}Hz"

    def validate_for_rate(self, sample_rate: int) -> None:
        if self.edges[-1] != sample_rate / 2.0:
            raise InvalidMappingError(
                f"last edge must equal Nyquist {sample_rate / 2.0} Hz, "
                f"got {self.edges[-1]}"
            )


def load_mapping(path: str | os.PathLike) -> BandMapping:
    """Read a mapping from a plain-text config: one edge per line, in Hz.

    Blank lines and ``#`` comments are ignored.
    """
    text = read_input(path, InvalidMappingError)
    lines = [raw.split("#", 1)[0].strip() for raw in text.split("\n")]
    with converting(InvalidMappingError, f"{path}: not a frequency"):
        edges = tuple(float(line) for line in lines if line)
    return BandMapping(edges)


class _Spectra:
    """Transforms a bank's band filters share: every band's response at one
    FFT length, and, while :func:`decompose` or :func:`band_energies` runs,
    the spectrum of the signal it splits.

    The responses are one ``(length, responses)`` pair, replaced whole for a
    new length, so memory stays bounded and a caller never pairs its input
    spectrum with a response of another caller's length.
    """

    def __init__(self) -> None:
        self.responses: tuple[int, tuple[np.ndarray, ...]] = (0, ())
        self.shared_input: tuple[Signal, int, np.ndarray] | None = None

    def band_responses(self, taps: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
        length, responses = self.responses
        if length != n:
            self.responses = (0, ())  # free the old length's before building
            responses = tuple(rfft(h, n) for h in taps)
            self.responses = (n, responses)
        return responses

    def input_spectrum(self, signal: Signal, n: int) -> np.ndarray:
        shared = self.shared_input
        if shared is not None and shared[0] is signal and shared[1] == n:
            return shared[2]
        return rfft(signal.samples, n)


@dataclass(frozen=True)
class FilterBank:
    """Designed complementary bank: one odd-length symmetric FIR per band."""

    mapping: BandMapping
    taps: tuple[np.ndarray, ...]
    sample_rate: int
    # derived from the taps, so no part of the bank's identity
    _spectra: _Spectra = field(
        default_factory=_Spectra, init=False, repr=False, compare=False
    )

    @property
    def length(self) -> int:
        return int(self.taps[0].size)

    @property
    def n_bands(self) -> int:
        return self.mapping.n_bands


def _windowed_sinc_lowpass(cutoff: float, sample_rate: int, length: int) -> np.ndarray:
    """Blackman-windowed sinc lowpass, unit DC gain; the complementary
    construction needs the degenerate ends: cutoff 0 -> zeros, cutoff at
    Nyquist -> unit impulse."""
    if cutoff <= 0.0:
        return np.zeros(length)
    if cutoff >= sample_rate / 2.0:
        h = np.zeros(length)
        h[(length - 1) // 2] = 1.0
        return h
    n = np.arange(length) - (length - 1) / 2.0
    h = (2.0 * cutoff / sample_rate) * np.sinc(2.0 * cutoff * n / sample_rate)
    h *= np.blackman(length)
    return h / h.sum()


def design_bank(
    mapping: BandMapping, sample_rate: int, length: int = DEFAULT_TAPS
) -> FilterBank:
    """Design the complementary bank for ``mapping`` at ``sample_rate``.

    ``length`` must be odd and at least 63. Band i is
    LP(edges[i+1]) - LP(edges[i]); the shared lowpasses cancel pairwise, so
    the coefficient-wise sum over all bands is an exact unit impulse.
    """
    if length % 2 == 0 or length < 63:
        raise InvalidLengthError(f"tap count must be odd and >= 63, got {length}")
    mapping.validate_for_rate(sample_rate)
    lowpasses = [
        _windowed_sinc_lowpass(edge, sample_rate, length) for edge in mapping.edges
    ]
    taps = tuple(
        (lowpasses[i + 1] - lowpasses[i]) for i in range(mapping.n_bands)
    )
    for t in taps:
        t.setflags(write=False)
    return FilterBank(mapping=mapping, taps=taps, sample_rate=sample_rate)


def apply_zero_phase(bank: FilterBank, band_index: int, signal: Signal) -> Signal:
    """Filter ``signal`` through one band with the group delay removed.

    Zero-padded full convolution cropped back to the input length: output
    sample n is aligned with input sample n, so an in-band sinusoid emerges
    with zero lag.
    """
    if signal.sample_rate != bank.sample_rate:
        raise RateMismatchError(
            f"signal rate {signal.sample_rate} != bank rate {bank.sample_rate}"
        )
    if not 0 <= band_index < bank.n_bands:
        raise InvalidMappingError(
            f"band index {band_index} out of range 0..{bank.n_bands - 1}"
        )
    n = _fft_length(bank, signal)
    spectra = bank._spectra
    x = spectra.input_spectrum(signal, n)
    h = spectra.band_responses(bank.taps, n)[band_index]
    # The central window of the full convolution, which for an odd
    # symmetric kernel is exactly the delay-compensated output.
    start = (bank.length - 1) // 2
    y = irfft(x * h, n)[start : start + len(signal)]
    return Signal(y, signal.sample_rate)


def _fft_length(bank: FilterBank, signal: Signal) -> int:
    """Transform length of the full linear convolution, as fftconvolve picks it."""
    return next_fast_len(len(signal) + bank.length - 1, real=True)


@contextmanager
def _transformed_once(bank: FilterBank, signal: Signal) -> Iterator[None]:
    """Within the block, :func:`apply_zero_phase` on ``signal`` reuses one
    transform of it, and the band responses at its FFT length are built."""
    spectra = bank._spectra
    n = _fft_length(bank, signal)
    spectra.band_responses(bank.taps, n)
    spectra.shared_input = (signal, n, rfft(signal.samples, n))
    try:
        yield
    finally:
        spectra.shared_input = None


def decompose(bank: FilterBank, signal: Signal) -> list[Signal]:
    """Split ``signal`` into one subband signal per band, all input-length.

    The subbands sum sample-wise back to the input (complementary bank).
    The input is transformed once and shared by every band's filter.
    """
    with _transformed_once(bank, signal):
        return [apply_zero_phase(bank, i, signal) for i in range(bank.n_bands)]


def band_energies(bank: FilterBank, signal: Signal) -> tuple[float, ...]:
    """Energy (sum of squares) of each subband of ``signal``, equal bit for
    bit to the energies of :func:`decompose`'s subbands.

    The bands are filtered on the band workers, each subband reduced to its
    energy as soon as it is made, so at most one subband per worker exists
    at a time, and at most one per two bands in all.
    """

    def energy(band: int) -> float:
        return float(np.sum(np.square(apply_zero_phase(bank, band, signal).samples)))

    with _transformed_once(bank, signal):
        return tuple(_over_bands(energy, bank.n_bands))


# The band workers: one thread pool for the whole process, whose CPUs it
# shares out, created on first use. A forked child has none of its parent's
# threads, so it forgets the pool and starts its own.
_band_pool: ThreadPoolExecutor | None = None
_band_pool_lock = threading.Lock()


def _forget_band_pool() -> None:
    global _band_pool, _band_pool_lock
    _band_pool, _band_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_band_pool)


def _usable_cpus() -> int:
    """CPUs in this process' affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _over_bands(fn: Callable[[int], object], count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]`` computed on the band workers.

    The bands are cut into min(CPUs, count // 2) contiguous runs, each
    computed in order by one worker, so a call never has more than half of
    its bands in flight. The pool holds one thread per usable CPU and
    starts them as work arrives; with one run, ``fn`` runs in the caller
    and no thread is started.
    """
    global _band_pool
    cpus = _usable_cpus()
    runs = min(cpus, count // 2)
    if runs < 2:
        return [fn(i) for i in range(count)]
    with _band_pool_lock:
        if _band_pool is None:
            _band_pool = ThreadPoolExecutor(cpus, thread_name_prefix="bandscope-band")
        pool = _band_pool
    bounds = [count * k // runs for k in range(runs + 1)]
    done = pool.map(lambda k: [fn(i) for i in range(bounds[k], bounds[k + 1])], range(runs))
    return [value for run in done for value in run]
