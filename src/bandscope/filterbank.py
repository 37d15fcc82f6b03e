"""Zero-phase complementary FIR subband filter bank.

The bank realizes an arbitrary partition of [0, Nyquist] into contiguous
bands. Each band filter is the difference of two windowed-sinc (Blackman)
lowpasses at the band edges, with LP(0) = zero and LP(Nyquist) = unit
impulse, so the coefficient-wise sum of all bands telescopes to an exact
unit impulse at the center tap: decompose-then-sum reconstructs the input.

Filters are odd-length symmetric (linear phase, type I); applying one with
the group delay removed is literally zero-phase, which keeps subband
energies directly comparable to the input's.

Filtering is overlap-save block convolution (Stockham 1966) with
``numpy.fft``. An input of N samples, padded ahead with the (L - 1) / 2
zeros of the group delay, is cut into ceil(N / (M - L + 1)) blocks of
M = ``_next_fast_len(4 * L)`` points that overlap by L - 1. One batched
real transform takes all the blocks; each band multiplies them by its
length-M response and transforms them back a few at a time, and each block
minus its first L - 1 samples, which wrapped around, is the next stretch of
zero-phase output, aligned with the input. An input whose full convolution
(N + L - 1 samples) fits in M points is a single block of
``_next_fast_len(N + L - 1)`` points. The convolution is the one
``scipy.signal.fftconvolve(x, h, mode="same")`` computes; only the
transform lengths differ, so the two agree to rounding. The tests hold
every subband within 1e-13 * max|x| of the direct convolution sum and band
weights within 1e-12 relative of fftconvolve's. M came from
``tools/sweep_block_length.py``: at 16383 taps blocks of 3 L to 5 L points
were fastest, 2 L and 6 L or more slower.

A bank keeps every band's response at its block length. :func:`decompose`
and :func:`band_energies` transform the input's blocks once per call and
hand those block spectra to their :func:`apply_zero_phase` call for each
band, so splitting a recording into B bands costs one batched forward
transform plus one batched inverse per band. A caller that splits one
signal many times, as :func:`~bandscope.synthfield.synth_campaign` splits
its stimulus once per recording, checks and transforms it once with
:func:`_checked_spectra` and hands those spectra to each :func:`decompose`
call as its private ``_input_spectra``, so each further split costs only
the inverse transforms.

The unit of parallel work is the recording: :func:`_each` maps a function
over a few items on every CPU in the process' affinity mask (``taskset``
restricts it), on worker threads started for the call and joined before it
returns. Measuring a series runs one recording per thread, from its decode
to its balance, so peak memory grows with the number of threads times one
recording's working set. :func:`band_energies` filters its bands one after
another on the calling thread and keeps only each subband's energy, so it
holds one subband at a time. :func:`decompose`, which returns every
subband, makes them on the worker threads, one band each. The results are
the same whatever the CPU count.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections.abc import Callable, Sequence
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InvalidInputError,
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

# Overlap-save blocks are _next_fast_len(_BLOCK_TAPS * taps) points long.
_BLOCK_TAPS = 4
# Bytes of block spectra one inverse transform call takes: a band's
# temporaries stay a few MB, however long the input.
_CHUNK_BYTES = 2 << 20

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

    Blank lines and ``#`` comments are ignored. Every error names the file.
    """
    text = read_input(path, InvalidMappingError)
    lines = [raw.split("#", 1)[0].strip() for raw in text.split("\n")]
    with converting(InvalidMappingError, str(path)):
        return BandMapping(tuple(float(line) for line in lines if line))


class _Spectra:
    """Every band's response of a bank at one block length, the transforms
    its band filters share.

    The responses are one ``(length, responses)`` pair, replaced whole for a
    new length, so memory stays bounded and a caller never pairs its block
    spectra with a response of another caller's length. Every input longer
    than one block uses the bank's block length, so those share one pair;
    the lock makes concurrent callers build it once.
    """

    def __init__(self) -> None:
        self.responses: tuple[int, tuple[np.ndarray, ...]] = (0, ())
        self._lock = threading.Lock()

    def band_responses(self, taps: tuple[np.ndarray, ...], m: int) -> tuple[np.ndarray, ...]:
        with self._lock:
            length, responses = self.responses
            if length != m:
                self.responses = (0, ())  # free the old length's before building
                responses = tuple(rfft(h, m) for h in taps)
                self.responses = (m, responses)
        return responses


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


def apply_zero_phase(bank: FilterBank, band_index: int, signal: Signal, *,
                     _input_spectra: np.ndarray | None = None) -> np.ndarray:
    """Filter ``signal`` through one band with the group delay removed.

    Zero-padded full convolution cropped back to the input length: output
    sample n is aligned with input sample n, so an in-band sinusoid emerges
    with zero lag. The subband is a new float64 array of the input's length.
    """
    if signal.sample_rate != bank.sample_rate:
        raise RateMismatchError(
            f"signal rate {signal.sample_rate} != bank rate {bank.sample_rate}"
        )
    if not (isinstance(band_index, numbers.Integral) and 0 <= band_index < bank.n_bands):
        raise InvalidMappingError(
            f"band index {band_index!r} is not an integer in 0..{bank.n_bands - 1}"
        )
    m, blocks = _blocks(bank, len(signal))
    x = _input_spectra
    if x is None:
        _energy(signal.samples)  # refuses an input whose energy overflows
        x = _block_spectra(bank, signal.samples, m, blocks)
    h = bank._spectra.band_responses(bank.taps, m)[band_index]
    return _overlap_save(x, h, m, bank.length, len(signal))


def _blocks(bank: FilterBank, n: int) -> tuple[int, int]:
    """Block length and block count for an input of ``n`` samples: the
    bank's blocks of ``_next_fast_len(_BLOCK_TAPS * taps)`` points, or, where
    the full convolution fits in one of those, a single block just long
    enough for it."""
    full = n + bank.length - 1
    m = _next_fast_len(_BLOCK_TAPS * bank.length)
    if full <= m:
        return _next_fast_len(full), 1
    return m, -(-n // (m - bank.length + 1))


def _energy(samples: np.ndarray) -> float:
    """The input's energy (sum of squares). An input whose energy overflows
    is refused: its subbands would hold inf or NaN."""
    # not np.dot: BLAS's threads keep spinning after it returns and take the
    # two cores from the worker threads
    with np.errstate(over="ignore"):
        energy = float(np.sum(np.square(samples)))
    if not math.isfinite(energy):
        raise InvalidInputError("signal energy overflows a float64")
    return energy


def _block_spectra(bank: FilterBank, samples: np.ndarray, m: int, blocks: int) -> np.ndarray:
    """One batched ``rfft`` of the input's overlapping length-``m`` blocks,
    ``m - taps + 1`` apart, after padding it ahead with the group delay's
    worth of zeros, so that block k's kept outputs are the zero-phase output
    samples from k * (m - taps + 1) on."""
    step = m - bank.length + 1
    delay = (bank.length - 1) // 2
    padded = np.zeros((blocks - 1) * step + m)
    padded[delay:delay + samples.size] = samples
    return rfft(sliding_window_view(padded, m)[::step], m, axis=-1)


def _overlap_save(x: np.ndarray, h: np.ndarray, m: int, taps: int, n: int) -> np.ndarray:
    """The first ``n`` samples of the block spectra ``x`` filtered by the
    response ``h``: each block's circular convolution without its first
    ``taps - 1`` samples, which wrapped around. The blocks go through the
    inverse transform a few at a time, so the temporaries stay small."""
    blocks = x.shape[0]
    rows = np.empty((blocks, m - taps + 1))
    chunk = max(1, _CHUNK_BYTES // x[0].nbytes)
    for first in range(0, blocks, chunk):
        part = x[first:first + chunk] * h
        rows[first:first + chunk] = irfft(part, m, axis=-1)[:, taps - 1:]
    return rows.reshape(-1)[:n]


def _next_fast_len(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, the real-transform length
    ``scipy.fft.next_fast_len(n, real=True)`` returns."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that takes it to n or beyond
            candidate = p35 << ((n - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def _checked_spectra(bank: FilterBank, signal: Signal) -> tuple[float, np.ndarray]:
    """The energy of ``signal``, checked finite, and the block spectra of
    ``signal`` that :func:`apply_zero_phase` takes as ``_input_spectra``."""
    energy = _energy(signal.samples)
    return energy, _block_spectra(bank, signal.samples, *_blocks(bank, len(signal)))


def decompose(bank: FilterBank, signal: Signal, *,
              _input_spectra: np.ndarray | None = None) -> list[np.ndarray]:
    """Split ``signal`` into one subband array per band, all input-length,
    the bands filtered on worker threads, one band each.

    The subbands sum sample-wise back to the input (complementary bank).
    ``_input_spectra``, when given, is ``_checked_spectra(bank, signal)[1]``.
    """
    x = _checked_spectra(bank, signal)[1] if _input_spectra is None else _input_spectra
    return _each(lambda band: apply_zero_phase(bank, band, signal, _input_spectra=x),
                 range(bank.n_bands))


def band_energies(bank: FilterBank, signal: Signal) -> tuple[float, tuple[float, ...]]:
    """The energy (sum of squares) of ``signal`` and the energy of each of
    its subbands, the latter equal bit for bit to the energies of
    :func:`decompose`'s subbands. The bands are filtered one after another
    on the calling thread, each subband reduced to its energy as soon as it
    is made."""
    total, x = _checked_spectra(bank, signal)
    return total, tuple(
        float(np.sum(np.square(apply_zero_phase(bank, i, signal, _input_spectra=x))))
        for i in range(bank.n_bands))


def _each(fn: Callable, items: Sequence) -> list:
    """``fn`` of each item, in input order, on min(CPUs, items) worker
    threads that start and are joined within this call. The first item to
    fail, in input order, raises its error; the items not started by then
    are cancelled."""
    with futures.ThreadPoolExecutor(min(_usable_cpus(), len(items)),
                                    thread_name_prefix="bandscope") as pool:
        return list(pool.map(fn, items))


def _usable_cpus() -> int:
    """CPUs in this process' affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
