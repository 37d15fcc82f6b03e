"""Zero-phase complementary FIR subband filter bank.

The bank realizes an arbitrary partition of [0, Nyquist] into contiguous
bands. Each band filter is the difference of two windowed-sinc (Blackman)
lowpasses at the band edges, with LP(0) = zero and LP(Nyquist) = unit
impulse, so the coefficient-wise sum of all bands telescopes to an exact
unit impulse at the center tap: decompose-then-sum reconstructs the input.

Filters are odd-length symmetric (linear phase, type I); applying one with
the group delay removed is literally zero-phase, which keeps subband
energies directly comparable to the input's.

Filtering is FFT convolution with ``numpy.fft``, cropped to the input's
length, bit-identical to ``scipy.signal.fftconvolve(x, h, mode="same")``
(the tests check it): numpy ships the same pocketfft, and the real
transforms have the same length, done once each. A bank keeps every band's
response for the current FFT length, and :func:`decompose` and
:func:`band_energies` transform the input once for all its bands, so
splitting a recording into B bands costs one forward transform plus one
inverse per band.

:func:`band_energies` filters the bands on every CPU in the process'
affinity mask (``taskset`` restricts it), on worker threads started for
each call and joined before it returns, at most one thread per two bands,
so a call holds at most half as many subbands at once as :func:`decompose`
returns. The energies are the same whatever the CPU count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

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
    return _next_fast_len(len(signal) + bank.length - 1)


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

    The bands are filtered on min(CPUs, bands // 2) worker threads that
    live for this call, each subband reduced to its energy as soon as it is
    made, so at most one subband per worker exists at a time. With fewer
    than two workers the bands are filtered in the caller.
    """

    def energy(band: int) -> float:
        return float(np.sum(np.square(apply_zero_phase(bank, band, signal).samples)))

    workers = min(_usable_cpus(), bank.n_bands // 2)
    with _transformed_once(bank, signal):
        if workers < 2:
            return tuple(energy(band) for band in range(bank.n_bands))
        with ThreadPoolExecutor(workers, thread_name_prefix="bandscope-band") as pool:
            return tuple(pool.map(energy, range(bank.n_bands)))


def _usable_cpus() -> int:
    """CPUs in this process' affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
