"""Minimal RIFF/WAVE reader and writer.

Supports the three encodings used by the measurement chain: PCM16, PCM24
and 32-bit float, little-endian, mono or multichannel (one channel is
selected on load). The fmt-chunk sample rate is authoritative. Everything
else (LIST, fact, bext, ...) is skipped on read.

:func:`read_header` and :func:`load_wav` hold the one rule for a WAV that
cannot be read: every failure to open, walk or decode it is a
:class:`LoadError` whose message names the path once.

Full-scale convention: 16-bit divides by 32768, 24-bit by 8388608, so a
positive-full-scale PCM16 sample reads 32767/32768.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, LoadError, UnsupportedEncodingError, WavFormatError,
                     json_integer, reading)
from .signal import Signal, check_sample_rate

__all__ = ["WavHeader", "read_header", "load_wav", "save_wav", "check_header", "check_writable"]

_FMT_PCM = 0x0001
_FMT_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

# (format tag, bits per sample) -> encoding name
_ENCODINGS = {(_FMT_PCM, 16): "pcm16", (_FMT_PCM, 24): "pcm24", (_FMT_FLOAT, 32): "float32"}
_WIDTH = {"pcm16": 2, "pcm24": 3, "float32": 4}  # bytes per sample

_PCM16_SCALE = 32768.0
_PCM24_SCALE = 8388608.0
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
    encoding: str  # "pcm16", "pcm24" or "float32"
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
        samples = _decode(data, offset, header.n_frames * header.n_channels, header.encoding)
        samples.setflags(write=False)  # so Signal keeps a mono file's samples uncopied
        frames = samples.reshape(header.n_frames, header.n_channels)
        return Signal(frames[:, channel], header.sample_rate)


def save_wav(signal: Signal, path: str | os.PathLike, encoding: str = "float32") -> None:
    """Write a mono WAV file in the given encoding (float32, pcm16, pcm24).

    PCM clips at full scale. Raises :class:`InvalidInputError`, before
    opening the file, for another encoding and unless :func:`check_writable`
    passes.
    """
    if encoding not in _WIDTH:
        raise InvalidInputError(f"unknown encoding {encoding!r}")
    check_writable(signal, path, encoding)
    x = signal.samples
    if encoding == "float32":
        audio_format, bits = _FMT_FLOAT, 32
        body = x.astype("<f4").tobytes()
    elif encoding == "pcm16":
        audio_format, bits = _FMT_PCM, 16
        q = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype("<i2")
        body = q.tobytes()
    else:
        audio_format, bits = _FMT_PCM, 24
        q = np.clip(np.round(x * _PCM24_SCALE), -8388608, 8388607).astype("<i4")
        b = q.view(np.uint8).reshape(-1, 4)
        body = b[:, :3].tobytes()  # little-endian: drop the high byte

    block_align = bits // 8
    byte_rate = signal.sample_rate * block_align
    fmt_chunk = struct.pack(
        "<HHIIHH", audio_format, 1, signal.sample_rate, byte_rate, block_align, bits
    )
    chunks = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt_chunk)), fmt_chunk,
            b"data", struct.pack("<I", len(body)), body, b"\x00" * (len(body) & 1),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def check_header(n_frames: float, sample_rate: float, what, encoding: str = "float32") -> None:
    """Raise :class:`InvalidInputError` naming ``what`` unless the byte rate
    and RIFF size of a mono WAV of ``n_frames`` in ``encoding`` fit 32 bits;
    a float count, inf too, is compared as a float."""
    width = _WIDTH[encoding]
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
    if encoding == "float32":
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
    n_frames = n // _WIDTH[encoding] // n_channels
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


def _decode(data: bytes, offset: int, n: int, encoding: str) -> np.ndarray:
    """The ``n`` samples in ``encoding`` that start at byte ``offset`` of
    ``data``, a whole file, as float64 at nominal full scale."""
    if encoding == "pcm16":
        return np.frombuffer(data, "<i2", n, offset).astype(np.float64) / _PCM16_SCALE
    if encoding == "pcm24":
        # each 3-byte sample is read as the top three bytes of a little-endian
        # int32 that starts one byte early (the data chunk's size field is
        # there), so an arithmetic shift right by 8 sign-extends it
        return (np.ndarray((n,), "<i4", data, offset - 1, (3,)) >> 8) / _PCM24_SCALE
    # a signalling NaN sets the invalid flag as it widens; Signal rejects it
    with np.errstate(invalid="ignore"):
        return np.frombuffer(data, "<f4", n, offset).astype(np.float64)
