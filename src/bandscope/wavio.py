"""Minimal RIFF/WAVE reader and writer.

Supports the three encodings used by the measurement chain, each described
once in ``_FORMATS`` (format tag, bytes per sample, PCM full scale):
32-bit float, PCM16 and PCM24, little-endian, mono or multichannel. Only
the channel asked for is decoded, straight from the file's bytes. The
fmt-chunk sample rate is authoritative. Everything else (LIST, fact, bext,
...) is skipped on read.

:func:`read_header` and :func:`load_wav` hold the one rule for a WAV that
cannot be read: every failure to open, walk or decode it is a
:class:`LoadError` whose message names the path once.

Full-scale convention: a PCM sample is divided by its full scale (32768 for
16-bit, 8388608 for 24-bit), so a positive-full-scale PCM16 sample reads
32767/32768.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, LoadError, UnsupportedEncodingError, WavFormatError,
                     check_path, json_integer, json_text, reading)
from .signal import Signal, check_sample_rate

__all__ = ["WavHeader", "read_header", "load_wav", "save_wav", "check_header", "check_writable"]

_FMT_PCM = 0x0001
_FMT_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

# encoding -> (format tag, bytes per sample, PCM full scale or None for float):
# the one list of the encodings bandscope reads and writes
_FORMATS = {"float32": (_FMT_FLOAT, 4, None), "pcm16": (_FMT_PCM, 2, 32768.0),
            "pcm24": (_FMT_PCM, 3, 8388608.0)}
# (format tag, bits per sample) -> encoding name
_ENCODINGS = {(tag, 8 * width): name for name, (tag, width, _) in _FORMATS.items()}
_FLOAT32 = np.finfo(np.float32)


@dataclass(frozen=True)
class WavHeader:
    """What a WAV file's chunks say about its audio, read without decoding it.

    ``n_frames`` comes from the data-chunk size and equals the length of the
    signal :func:`load_wav` decodes from the same file, which ``len()``
    returns, as it does for a :class:`Signal`.
    """

    path: str | os.PathLike
    sample_rate: int
    n_channels: int
    encoding: str  # a key of _FORMATS
    n_frames: int

    def __len__(self) -> int:
        return self.n_frames


def read_header(path: str | os.PathLike) -> WavHeader:
    """Validate a WAV file's container and read its header, not its samples.

    Every check :func:`load_wav` makes before decoding is made here too
    (they share one chunk walk), so a file that passes fails later only for
    what its samples hold, such as NaN. Raises :class:`LoadError` as
    :func:`load_wav` does.
    """
    with reading(path, LoadError), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(offset: int, n: int) -> bytes:
            fh.seek(offset)
            return fh.read(n)

        return _walk(read, size, path, channel=0)[0]


def load_wav(path: str | os.PathLike, channel: int = 0, digest=None) -> Signal:
    """Read one channel of a WAV file, scaled to nominal [-1, 1].

    ``channel``, a whole number, selects from multichannel files (default: first). When a
    hashlib object is passed as ``digest``, it is fed the file's bytes, so a
    caller gets a content digest from the same read.
    Raises :class:`LoadError` naming the file once: a
    :class:`WavFormatError` for a broken container, an
    :class:`UnsupportedEncodingError` for encodings other than
    PCM16/PCM24/float32, a plain one for a file that cannot be opened, an
    empty data chunk, a sample rate of 0 or NaN/Inf samples.
    """
    channel = json_integer(channel, "channel")
    with reading(path, LoadError):
        with open(path, "rb") as fh:
            data = fh.read()
        if digest is not None:
            digest.update(data)
        header, offset = _walk(lambda o, n: data[o:o + n], len(data), path, channel)
        samples = _decode(data, offset, header, channel)
        del data  # decoded, so the file's bytes are freed before Signal sums the samples
        samples.setflags(write=False)  # so Signal keeps them uncopied
        return Signal(samples, header.sample_rate)


def save_wav(signal: Signal, path: str | os.PathLike, encoding: str = "float32") -> None:
    """Write a mono WAV file in the given encoding, a key of ``_FORMATS``.

    PCM clips at full scale. Raises :class:`InvalidInputError`, before
    opening the file, for another encoding, a path that is not text or
    ``os.PathLike`` (:func:`check_path`) and unless :func:`check_writable`
    passes; and worded ``cannot write (...)``, naming the path, for an
    ``OSError`` of opening or writing it.
    """
    if json_text(encoding, "encoding") not in _FORMATS:
        raise InvalidInputError(f"unknown encoding {encoding!r}")
    check_path(path, InvalidInputError)
    check_writable(signal, path, encoding)
    audio_format, width, scale = _FORMATS[encoding]
    x = signal.samples
    if scale is None:
        body = x.astype("<f4").tobytes()
    else:  # the low ``width`` bytes of each clipped little-endian int32
        q = np.clip(np.round(x * scale), -scale, scale - 1).astype("<i4")
        body = q.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()

    rate = signal.sample_rate
    fmt_chunk = struct.pack("<HHIIHH", audio_format, 1, rate, rate * width, width, 8 * width)
    chunks = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt_chunk)), fmt_chunk,
            b"data", struct.pack("<I", len(body)), body, b"\x00" * (len(body) & 1),
        ]
    )
    try:
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    except OSError as exc:  # worded as errors.reading words a read
        raise InvalidInputError(f"{path}: cannot write ({exc.strerror or exc})") from exc


def check_header(n_frames: float, sample_rate: float, what, encoding: str = "float32") -> None:
    """Raise :class:`InvalidInputError` naming ``what`` unless the byte rate
    and RIFF size of a mono WAV of ``n_frames`` in ``encoding`` fit 32 bits;
    a float count, inf too, is compared as a float."""
    width = _FORMATS[encoding][1]
    data = n_frames * width
    # the RIFF size counts "WAVE", the fmt chunk, the data chunk's header and pad byte
    for name, size in (("byte rate", sample_rate * width),
                       ("RIFF size", 36 + data + (data % 2 if data < math.inf else 0))):
        if size >= 1 << 32:
            raise InvalidInputError(f"{what}: a {name} of {size} in {encoding} is more "
                                    "than a WAV header holds")


def check_writable(signal: Signal, what, encoding: str = "float32") -> None:
    """Raise :class:`InvalidInputError` naming ``what`` unless a WAV in
    ``encoding`` can hold ``signal``: :func:`check_header` passes, and a
    float32 peak is 0 or within float32's normal range."""
    check_header(len(signal), signal.sample_rate, what, encoding)
    if _FORMATS[encoding][2] is None:  # a float encoding
        x = signal.samples
        peak = max(x.max(), -x.min())
        if peak > _FLOAT32.max or 0 < peak < _FLOAT32.tiny:
            raise InvalidInputError(f"{what}: a peak of {peak:g} is outside the float32 range")


def _walk(read, size: int, path, channel: int) -> tuple[WavHeader, int]:
    """Walk the chunks of a WAV file of ``size`` bytes, where ``read(offset, n)``
    returns its bytes at ``offset``: the header and the data chunk's offset.

    Every container rule lives here, in the order it is checked. A file
    whose fmt or data chunk repeats is read by its last one. The caller
    puts ``path`` in the messages.
    """
    head = read(0, 12)
    if size < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        chunk = read(pos, 8)
        cid = chunk[0:4]
        (n,) = struct.unpack_from("<I", chunk, 4)
        if pos + 8 + n > size:
            raise WavFormatError(f"truncated '{cid.decode(errors='replace')}' chunk")
        if cid == b"fmt ":
            fmt = _parse_fmt(read(pos + 8, n))
        elif cid == b"data":
            data = (pos + 8, n)
        pos += 8 + n + (n & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if data is None:
        raise WavFormatError("missing data chunk")
    audio_format, n_channels, sample_rate, bits = fmt
    if n_channels < 1:
        raise WavFormatError(f"fmt declares {n_channels} channels")
    if not 0 <= channel < n_channels:
        raise WavFormatError(f"channel {channel} requested but file has {n_channels}")
    encoding = _ENCODINGS.get((audio_format, bits))
    if encoding is None:
        raise UnsupportedEncodingError(f"unsupported encoding (format tag {audio_format}, "
                                       f"{bits}-bit)")
    offset, n = data
    n_frames = n // _FORMATS[encoding][1] // n_channels
    if n_frames == 0:
        raise LoadError("data chunk holds no samples")
    check_sample_rate(sample_rate)
    return WavHeader(path, sample_rate, n_channels, encoding, n_frames), offset


def _parse_fmt(body: bytes) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError(f"fmt chunk too short ({len(body)} bytes)")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body)
    if audio_format == _FMT_EXTENSIBLE:
        # actual format lives in the first two bytes of the SubFormat GUID
        if len(body) < 26:
            raise WavFormatError("extensible fmt chunk too short")
        (audio_format,) = struct.unpack_from("<H", body, 24)
    return audio_format, n_channels, sample_rate, bits


def _decode(data: bytes, offset: int, header: WavHeader, channel: int) -> np.ndarray:
    """Channel ``channel`` of the ``header.n_frames`` frames that start at
    byte ``offset`` of ``data``, a whole file, as float64 at nominal full
    scale; the other channels are not read."""
    _, width, scale = _FORMATS[header.encoding]
    # a PCM sample is read as the top ``width`` bytes of a little-endian int32
    # that starts ``early`` bytes before it (the data chunk's size field or
    # the previous sample is there), so an arithmetic shift right sign-extends it
    early = 4 - width  # 0 for float32
    words = np.ndarray((header.n_frames,), "<f4" if scale is None else "<i4", data,
                       offset + channel * width - early, (header.n_channels * width,))
    if scale is None:
        # a signalling NaN sets the invalid flag as it widens; Signal rejects it
        with np.errstate(invalid="ignore"):
            return words.astype(np.float64)
    return (words >> 8 * early) / scale
