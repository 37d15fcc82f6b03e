import struct
import warnings

import numpy as np
import pytest

from bandscope import Signal, load_wav, read_header, save_wav
from bandscope.errors import (
    BandscopeError,
    EmptySignalError,
    InvalidInputError,
    UnsupportedEncodingError,
    WavFormatError,
)

FS = 44100


def _write_raw_wav(path, fmt_tag, channels, rate, bits, payload):
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * channels * bits // 8,
                      channels * bits // 8, bits)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


class TestLoad:
    def test_pcm16_positive_full_scale(self, tmp_path):
        p = tmp_path / "fs.wav"
        _write_raw_wav(p, 1, 1, FS, 16, struct.pack("<h", 32767))
        s = load_wav(p)
        assert s.sample_rate == FS
        assert s.samples[0] == pytest.approx(32767 / 32768)

    def test_float32_zeros(self, tmp_path):
        p = tmp_path / "z.wav"
        _write_raw_wav(p, 3, 1, FS, 32, struct.pack("<1000f", *([0.0] * 1000)))
        s = load_wav(p)
        assert len(s) == 1000
        assert np.all(s.samples == 0.0)

    def test_channel_select(self, tmp_path):
        p = tmp_path / "st.wav"
        frames = struct.pack("<4h", 100, -100, 200, -200)  # L,R interleaved
        _write_raw_wav(p, 1, 2, FS, 16, frames)
        left = load_wav(p)
        right = load_wav(p, channel=1)
        np.testing.assert_allclose(left.samples * 32768, [100, 200])
        np.testing.assert_allclose(right.samples * 32768, [-100, -200])

    def test_bad_channel_index(self, tmp_path):
        p = tmp_path / "m.wav"
        _write_raw_wav(p, 1, 1, FS, 16, struct.pack("<h", 1))
        with pytest.raises(WavFormatError):
            load_wav(p, channel=1)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_truncated_chunk(self, tmp_path):
        p = tmp_path / "t.wav"
        _write_raw_wav(p, 1, 1, FS, 16, struct.pack("<4h", 1, 2, 3, 4))
        whole = p.read_bytes()
        p.write_bytes(whole[:-3])
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "nd.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, FS, FS * 2, 2, 16)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_unsupported_pcm8(self, tmp_path):
        p = tmp_path / "u8.wav"
        _write_raw_wav(p, 1, 1, FS, 8, b"\x80\x80")
        with pytest.raises(UnsupportedEncodingError):
            load_wav(p)

    def test_empty_data(self, tmp_path):
        p = tmp_path / "e.wav"
        _write_raw_wav(p, 1, 1, FS, 16, b"")
        with pytest.raises(EmptySignalError):
            load_wav(p)

    def test_extensible_float(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE wrapping IEEE float
        p = tmp_path / "ext.wav"
        sub = struct.pack("<H", 3) + b"\x00\x00" + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, FS, FS * 4, 4, 32, 22, 32, 0) + sub[:16]
        payload = struct.pack("<2f", 0.5, -0.25)
        chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                  + b"data" + struct.pack("<I", len(payload)) + payload)
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        s = load_wav(p)
        np.testing.assert_allclose(s.samples, [0.5, -0.25])


class TestRoundTrip:
    @pytest.mark.parametrize("encoding,quantum", [
        ("pcm16", 1 / 32768),
        ("pcm24", 1 / 8388608),
        ("float32", 2 ** -23),
    ])
    def test_within_one_quantization_step(self, tmp_path, encoding, quantum):
        rng = np.random.default_rng(77)
        original = Signal(np.clip(0.7 * rng.standard_normal(5000), -1, 1), 48000)
        p = tmp_path / f"{encoding}.wav"
        save_wav(original, p, encoding=encoding)
        back = load_wav(p)
        assert back.sample_rate == 48000
        assert len(back) == len(original)
        np.testing.assert_allclose(back.samples, original.samples, atol=quantum)

    @pytest.mark.parametrize("peak", [4e38, -1e300, 1e-39, -1e-300])
    def test_float32_refuses_a_peak_outside_its_range(self, tmp_path, peak):
        # an overflowing cast would write inf, an underflowing one zeros
        p = tmp_path / "x.wav"
        with pytest.raises(InvalidInputError, match="outside the float32 range"):
            save_wav(Signal(np.array([0.0, peak, 1e-45]), FS), p)
        assert not p.exists()

    def test_float32_keeps_silence_and_its_range_ends(self, tmp_path):
        p = tmp_path / "x.wav"
        f32 = np.finfo(np.float32)
        for samples in ([0.0, 0.0], [float(f32.tiny), -float(f32.max)]):
            save_wav(Signal(np.array(samples), FS), p)
            assert load_wav(p).samples.tolist() == samples

    def test_pcm24_structure(self, tmp_path):
        s = Signal(np.array([0.5, -0.5, 0.0]), FS)
        p = tmp_path / "s24.wav"
        save_wav(s, p, encoding="pcm24")
        raw = p.read_bytes()
        i = raw.index(b"fmt ")
        bits = struct.unpack_from("<H", raw, i + 8 + 14)[0]
        assert bits == 24
        # 3 samples * 3 bytes, word-aligned data chunk
        j = raw.index(b"data")
        assert struct.unpack_from("<I", raw, j + 4)[0] == 9

    def test_unknown_encoding(self, tmp_path):
        s = Signal(np.zeros(4), FS)
        with pytest.raises(UnsupportedEncodingError):
            save_wav(s, tmp_path / "x.wav", encoding="pcm32")


def _wav_bytes(fmt_tag, channels, bits, payload, extensible=False, after_data=b""):
    """A WAV file's bytes: fmt (plain or WAVE_FORMAT_EXTENSIBLE), data with
    its pad byte when the payload is odd, then any trailing chunks."""
    block = channels * bits // 8
    if extensible:
        guid_tail = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = (struct.pack("<HHIIHHHHI", 0xFFFE, channels, FS, FS * block, block, bits,
                           22, bits, 0) + struct.pack("<H", fmt_tag) + guid_tail)
    else:
        fmt = struct.pack("<HHIIHH", fmt_tag, channels, FS, FS * block, block, bits)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", len(payload)) + payload
              + b"\x00" * (len(payload) & 1) + after_data)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


_LIST_CHUNK = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
_ENCODINGS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}
# layout -> (channels, channel read, payload bytes, extensible, chunks after data)
_LAYOUTS = {
    "mono": (1, 0, 60, False, b""),
    "stereo-channel-1": (2, 1, 60, False, b""),
    "extensible": (1, 0, 60, True, b""),
    "partial-block": (2, 1, 61, False, b""),  # 61 bytes: a partial frame at the end
    "pad-byte": (1, 0, 63, False, b""),  # odd data size, word-aligned by a pad byte
    "chunk-after-data": (1, 0, 60, False, _LIST_CHUNK),
}


class TestHeader:
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("encoding", sorted(_ENCODINGS))
    def test_header_matches_decode(self, tmp_path, encoding, layout):
        tag, bits = _ENCODINGS[encoding]
        channels, channel, n_bytes, extensible, after = _LAYOUTS[layout]
        # small sample values, valid in every encoding (no NaN patterns)
        payload = bytes((i * 7) % 64 for i in range(n_bytes))
        p = tmp_path / "h.wav"
        p.write_bytes(_wav_bytes(tag, channels, bits, payload, extensible, after))
        header = read_header(p)
        signal = load_wav(p, channel=channel)
        assert header.n_frames == len(header) == len(signal)
        assert header.sample_rate == signal.sample_rate == FS
        assert header.n_channels == channels
        assert header.encoding == encoding

    @pytest.mark.parametrize("name,data", [
        ("not-riff", b"OggS" + b"\x00" * 40),
        ("short", b"RIFF"),
        ("truncated", _wav_bytes(1, 1, 16, struct.pack("<4h", 1, 2, 3, 4))[:-3]),
        ("truncated-after-data", _wav_bytes(1, 1, 16, b"\x01\x00", after_data=_LIST_CHUNK)[:-2]),
        ("fmt-too-short", b"RIFF" + struct.pack("<I", 16) + b"WAVE" + b"fmt " + struct.pack("<I", 4)
         + b"\x01\x00\x01\x00"),
        ("no-channels", _wav_bytes(1, 0, 16, b"\x01\x00")),
        ("pcm8", _wav_bytes(1, 1, 8, b"\x80\x80")),
        ("empty", _wav_bytes(1, 1, 16, b"")),
        ("partial-frame-only", _wav_bytes(1, 2, 16, b"\x01\x00")),
        ("rate-zero", _wav_bytes(3, 1, 32, b"\x00" * 8).replace(struct.pack("<I", FS), b"\x00" * 4, 1)),
    ])
    def test_header_rejects_what_decode_rejects(self, tmp_path, name, data):
        p = tmp_path / f"{name}.wav"
        p.write_bytes(data)
        with pytest.raises(BandscopeError) as from_load:
            load_wav(p)
        with pytest.raises(BandscopeError) as from_header:
            read_header(p)
        assert type(from_header.value) is type(from_load.value)
        assert str(from_header.value) == str(from_load.value)


class TestDecode:
    def test_pcm24_every_code(self, tmp_path):
        # all 2**24 codes, both full-scale ends included, in 16 files so that
        # no step holds more than a few MB; the reference is the code itself
        p = tmp_path / "codes.wav"
        step = 1 << 20
        for start in range(-(1 << 23), 1 << 23, step):
            codes = np.arange(start, start + step, dtype=np.int32)
            payload = codes.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
            p.write_bytes(_wav_bytes(1, 1, 24, payload))
            got = load_wav(p).samples
            assert np.array_equal(got, codes / 8388608.0)
        assert got[-1] == 8388607 / 8388608.0

    def test_pcm24_full_scale_ends(self, tmp_path):
        p = tmp_path / "ends.wav"
        payload = b"\x00\x00\x80" + b"\xff\xff\x7f" + b"\xff\xff\xff" + b"\x01\x00\x00"
        p.write_bytes(_wav_bytes(1, 1, 24, payload))
        assert load_wav(p).samples.tolist() == [-1.0, 8388607 / 8388608, -1 / 8388608,
                                                1 / 8388608]

    def test_float32_signalling_nan_rejected_without_warning(self, tmp_path):
        p = tmp_path / "snan.wav"
        p.write_bytes(_wav_bytes(3, 1, 32, struct.pack("<f", 0.5) + bytes([1, 0, 0x80, 0x7F])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="NaN or Inf"):
                load_wav(p)
