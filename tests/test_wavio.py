import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from bandscope import (Signal, WavHeader, ingest, load_campaign_spec, load_mapping, load_wav,
                       read_header, save_wav)
from bandscope.wavio import check_writable
from bandscope.errors import (
    BandscopeError,
    InvalidInputError,
    InvalidMappingError,
    InvalidSpecError,
    LoadError,
    ManifestError,
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
        # one channel of several is copied out, so the other channels are freed
        assert left.samples.base is None and right.samples.base is None

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
        with pytest.raises(LoadError, match="data chunk holds no samples"):
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

    @pytest.mark.parametrize("encoding, rate", [("pcm16", 2**31), ("pcm24", 1431655766),
                                                ("float32", 2**30)])
    def test_refuses_a_byte_rate_beyond_32_bits(self, tmp_path, encoding, rate):
        p = tmp_path / "x.wav"
        save_wav(Signal(np.zeros(2), rate - 1), p, encoding=encoding)  # the largest that fits
        assert read_header(p).sample_rate == rate - 1
        with pytest.raises(InvalidInputError, match="byte rate of .* more than a WAV header"):
            save_wav(Signal(np.zeros(2), rate), tmp_path / "y.wav", encoding=encoding)
        assert not (tmp_path / "y.wav").exists()

    @pytest.mark.parametrize("encoding, n", [("pcm16", 2147483630), ("pcm24", 1431655753)])
    def test_riff_size_beyond_32_bits_is_refused(self, encoding, n):
        # 36 + n * width (+ a pad byte) reaches 2**32; a header stands in for
        # a signal of that many samples, so none is allocated
        check_writable(WavHeader("x.wav", FS, 1, encoding, n - 1), "x.wav", encoding)
        with pytest.raises(InvalidInputError, match="RIFF size of .* more than a WAV header"):
            check_writable(WavHeader("x.wav", FS, 1, encoding, n), "x.wav", encoding)

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
        with pytest.raises(InvalidInputError, match="unknown encoding 'pcm32'"):
            save_wav(s, tmp_path / "x.wav", encoding="pcm32")

    @pytest.mark.parametrize("name, why", [("missing-dir/x.wav", "No such file or directory"),
                                           (".", "Is a directory")], ids=["no-dir", "a-dir"])
    def test_unwritable_path_is_named_once(self, tmp_path, name, why):
        # worded as a file that cannot be read is
        path = tmp_path / name
        with pytest.raises(InvalidInputError) as info:
            save_wav(Signal(np.zeros(4), FS), path)
        assert str(info.value) == f"{path}: cannot write ({why})"


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


def _riff(*chunks):
    """A RIFF/WAVE file's bytes made of (chunk id, body) pairs, each word-aligned."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


# container faults -> (file bytes, the message that names the fault)
_CONTAINER_FAULTS = {
    "no-fmt": (_riff((b"data", b"\x01\x00")), "missing fmt chunk"),
    # an extensible fmt chunk of 20 bytes ends before its SubFormat GUID
    "extensible-too-short": (_riff((b"fmt ", struct.pack("<HHIIHHHH", 0xFFFE, 1, FS, 2 * FS, 2,
                                                         16, 22, 16)), (b"data", b"\x01\x00")),
                             "extensible fmt chunk too short"),
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
        *((name, data) for name, (data, _) in _CONTAINER_FAULTS.items()),
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


    @pytest.mark.parametrize("name", sorted(_CONTAINER_FAULTS))
    def test_container_fault_is_named(self, tmp_path, name):
        data, message = _CONTAINER_FAULTS[name]
        p = tmp_path / f"{name}.wav"
        p.write_bytes(data)
        with pytest.raises(WavFormatError, match=f": {message}$"):
            load_wav(p)


def _codes_payload(encoding, n):
    """``n`` samples of ``encoding`` as its bytes: the full-scale ends (the
    largest finite and the smallest normal float32), -1, 0 and 1 quantum,
    then seeded random codes."""
    rng = np.random.default_rng(n)
    if encoding == "float32":
        f32 = np.finfo(np.float32)
        ends = [f32.max, -f32.max, f32.tiny, -f32.tiny, -1.0, 0.0, -0.0, 1.0]
        rest = rng.standard_normal(n - len(ends))
        return np.concatenate([ends, rest]).astype("<f4").tobytes()
    bits = 8 * {"pcm16": 2, "pcm24": 3}[encoding]
    top = 1 << (bits - 1)
    codes = np.concatenate([[top - 1, -top, -1, 0, 1], rng.integers(-top, top, n - 5)])
    return codes.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :bits // 8].tobytes()


def _oracle(payload, encoding, channels):
    """Each channel of an interleaved ``payload`` decoded by ``np.frombuffer``
    and integer arithmetic alone, one row per channel."""
    if encoding == "float32":
        values = np.frombuffer(payload, "<f4").astype(np.float64)
    elif encoding == "pcm16":
        values = np.frombuffer(payload, "<i2") / 32768.0
    else:
        b = np.frombuffer(payload, np.uint8).reshape(-1, 3).astype(np.int64)
        codes = b[:, 0] | b[:, 1] << 8 | b[:, 2] << 16
        values = np.where(codes >= 1 << 23, codes - (1 << 24), codes) / 8388608.0
    return values.reshape(-1, channels).T


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

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("encoding", sorted(_ENCODINGS))
    def test_each_channel_decodes_as_the_oracle(self, tmp_path, encoding, channels,
                                                signal_copies):
        tag, bits = _ENCODINGS[encoding]
        payload = _codes_payload(encoding, 300 * channels)
        p = tmp_path / "codes.wav"
        p.write_bytes(_wav_bytes(tag, channels, bits, payload))
        want = _oracle(payload, encoding, channels)
        for channel in range(channels):
            got = load_wav(p, channel=channel).samples
            assert got.tobytes() == want[channel].tobytes()  # bit for bit, -0.0 included
        assert signal_copies == [False] * channels  # each decoded channel is kept as it is
        if channels == 1:  # writing back what was read gives the file's bytes
            save_wav(load_wav(p), tmp_path / "back.wav", encoding=encoding)
            assert (tmp_path / "back.wav").read_bytes() == p.read_bytes()

    def test_pcm16_every_code(self, tmp_path):
        # all 2**16 codes, both full-scale ends included; the reference is the code itself
        codes = np.arange(-(1 << 15), 1 << 15, dtype=np.int32)
        p = tmp_path / "codes.wav"
        p.write_bytes(_wav_bytes(1, 1, 16, codes.astype("<i2").tobytes()))
        assert np.array_equal(load_wav(p).samples, codes / 32768.0)

    def test_only_the_channel_asked_for_is_decoded(self, tmp_path):
        # 10 s of stereo PCM24: the peak holds the file's bytes and one
        # channel's int32 words and float64 samples, not every channel's
        p = tmp_path / "stereo.wav"
        p.write_bytes(_wav_bytes(1, 2, 24, _codes_payload("pcm24", 2 * 10 * FS)))
        tracemalloc.start()
        try:
            signal = load_wav(p, channel=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.stat().st_size + 2 * signal.samples.nbytes

    def test_float32_signalling_nan_rejected_without_warning(self, tmp_path):
        p = tmp_path / "snan.wav"
        p.write_bytes(_wav_bytes(3, 1, 32, struct.pack("<f", 0.5) + bytes([1, 0, 0x80, 0x7F])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LoadError, match="NaN or Inf"):
                load_wav(p)


# a path that is not text or os.PathLike; open() takes a bool or an int for a file descriptor
_NOT_PATHS = [True, False, 0, 1, None, 1.5, ["x.wav"]]


class TestPathRule:
    @pytest.mark.parametrize("path", _NOT_PATHS, ids=repr)
    @pytest.mark.parametrize("call, error", [
        (load_wav, LoadError),
        (read_header, LoadError),
        (load_mapping, InvalidMappingError),
        (ingest, ManifestError),
        (load_campaign_spec, InvalidSpecError),
        (lambda path: save_wav(Signal(np.zeros(2), FS), path), InvalidInputError),
    ], ids=["load_wav", "read_header", "load_mapping", "ingest", "load_campaign_spec",
            "save_wav"])
    def test_refused_before_any_file_is_opened(self, call, error, path):
        with pytest.raises(error, match="a path must be text or os.PathLike"):
            call(path)
        os.fstat(0)  # stdin and stdout are still open
        os.fstat(1)
