"""Independent reference computations used to check the library.

These deliberately avoid the code paths under test: band energies come
from a plain periodogram (Parseval-exact), magnitude responses from a
direct DFT of the taps, filtered samples from the convolution sum itself,
spectral slopes from a Welch estimate.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import welch


def periodogram_band_weights(samples: np.ndarray, sample_rate: int, edges) -> np.ndarray:
    """Energy fraction per band from a raw periodogram.

    Bands are [lo, hi) except the top band, which closes at Nyquist so the
    fractions sum to exactly 1.
    """
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
    total = spectrum.sum()
    weights = []
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        if i == len(edges) - 2:
            mask = (freqs >= lo) & (freqs <= hi)
        else:
            mask = (freqs >= lo) & (freqs < hi)
        weights.append(spectrum[mask].sum() / total)
    return np.array(weights)


def dft_magnitude(taps: np.ndarray, sample_rate: int, freq: float, n_fft: int = 1 << 20) -> float:
    """|H(freq)| of an FIR from a zero-padded DFT of its taps."""
    response = np.fft.rfft(taps, n_fft)
    grid = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    return float(np.abs(response[np.argmin(np.abs(grid - freq))]))


def direct_zero_phase(samples: np.ndarray, taps: np.ndarray, at=None) -> np.ndarray:
    """Zero-phase FIR output by the convolution sum, no transform involved:
    y[n] = sum_k taps[k] * x[n + (L-1)/2 - k] for an odd tap count L, with x
    zero outside the input, at every output index n or at the indices ``at``.
    """
    samples, taps = np.asarray(samples, dtype=float), np.asarray(taps, dtype=float)
    half = (taps.size - 1) // 2
    padded = np.concatenate([np.zeros(half), samples, np.zeros(half)])
    # window n is x[n - half .. n + half], which meets the taps reversed
    windows = sliding_window_view(padded, taps.size)
    at = np.arange(samples.size) if at is None else np.asarray(at)
    rows = 1 + (1 << 21) // taps.size  # about 16 MB of windows at a time
    return np.concatenate([windows[at[i:i + rows]] @ taps[::-1]
                           for i in range(0, at.size, rows)])


def steady_state(samples: np.ndarray, filter_length: int) -> np.ndarray:
    """Drop the filter-length transient at both ends of a filtered signal.

    Finite test signals start and stop abruptly; that truncation splatter
    excites the passband of any filter and dominates stopband energy
    measurements unless removed.
    """
    half = (filter_length - 1) // 2
    if len(samples) <= 2 * half:
        raise ValueError("signal too short to contain a steady-state region")
    return samples[half:-half]


def spectral_slope(signal, f_lo: float, f_hi: float) -> float:
    """Least-squares spectral slope of a Signal in dB per octave over [f_lo, f_hi].

    Averages a Welch power density (at least 8 segments) into octave bands
    [f, 2f) and fits mean band power (dB) against log2 of the geometric
    band center. White noise fits ~0, pink ~-3, brown ~-6 dB/octave.
    """
    if not (0 < f_lo and 2 * f_lo <= f_hi < signal.sample_rate / 2):
        raise ValueError(f"need an octave or more below Nyquist, got ({f_lo}, {f_hi})")
    nperseg = min(4096, len(signal) // 8)
    if nperseg < 256 or signal.sample_rate / nperseg > f_lo:
        raise ValueError(f"signal too short for 8 averaged segments resolving {f_lo} Hz")
    freqs, pxx = welch(signal.samples, fs=signal.sample_rate, nperseg=nperseg)

    log_centers = []
    band_db = []
    lo = f_lo
    while lo * 2.0 <= f_hi * (1.0 + 1e-9):
        hi = lo * 2.0
        mask = (freqs >= lo) & (freqs < hi)
        band_db.append(10.0 * math.log10(float(pxx[mask].mean())))
        log_centers.append(math.log2(math.sqrt(lo * hi)))
        lo = hi
    slope, _ = np.polyfit(log_centers, band_db, 1)
    return float(slope)
