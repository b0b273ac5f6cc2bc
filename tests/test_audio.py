import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0 as bessel_i0

from conftest import synth_voice, wav_bytes, write_pcm16_wav
from voicebench.audio import (
    _BLOCK_ENTRIES,
    AudioClip,
    _cached_kernel_block,
    _sinc_kernel,
    decode_wav,
    fix_duration,
    read_wav,
    resample,
)
from voicebench.cli import cli_main
from voicebench.errors import MalformedWav, UnsupportedEncoding


class TestAudioClip:
    def test_duration(self):
        clip = AudioClip(np.zeros(8000), 16000)
        assert clip.duration == 0.5

    def test_rejects_empty(self):
        with pytest.raises(MalformedWav):
            AudioClip(np.zeros(0), 16000)

    def test_rejects_2d(self):
        with pytest.raises(MalformedWav):
            AudioClip(np.zeros((4, 2)), 16000)

    def test_rejects_nan(self):
        with pytest.raises(MalformedWav):
            AudioClip(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(MalformedWav):
            AudioClip(np.zeros(4), 0)


class TestDecodeWav:
    def test_pcm16_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        ints = rng.integers(-32768, 32768, size=300)
        samples = ints / 32768.0  # representable exactly on the PCM-16 grid
        clip = decode_wav(wav_bytes(samples, 22050, bits=16))
        assert clip.sample_rate == 22050
        assert np.array_equal(clip.samples, samples)

    def test_pcm24_roundtrip_exact(self):
        rng = np.random.default_rng(8)
        ints = rng.integers(-8388608, 8388608, size=200)
        samples = ints / 8388608.0
        clip = decode_wav(wav_bytes(samples, 16000, bits=24))
        assert np.array_equal(clip.samples, samples)

    def test_pcm24_sign_extension(self):
        samples = np.array([-1.0, -1.0 / 8388608.0, 0.0, 8388607.0 / 8388608.0])
        clip = decode_wav(wav_bytes(samples, 16000, bits=24))
        assert np.array_equal(clip.samples, samples)

    def test_float32_roundtrip(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(-1, 1, size=256).astype(np.float32)
        clip = decode_wav(wav_bytes(samples, 48000, bits=32, audio_format=3))
        assert np.array_equal(clip.samples, samples.astype(np.float64))

    def test_stereo_downmix_cancels(self):
        # interleaved (+1, -1) pairs average to exactly zero
        interleaved = np.tile(np.array([1.0, -1.0], dtype=np.float32), 50)
        clip = decode_wav(
            wav_bytes(interleaved, 16000, bits=32, channels=2, audio_format=3)
        )
        assert clip.samples.shape == (50,)
        assert np.all(clip.samples == 0.0)

    def test_stereo_downmix_mean(self):
        left, right = 0.5, 0.25
        interleaved = np.tile(np.array([left, right]), 20)
        clip = decode_wav(wav_bytes(interleaved, 8000, bits=16, channels=2))
        # both values sit exactly on the PCM-16 grid, so the mean is exact
        assert np.all(clip.samples == (left + right) / 2)

    def test_skips_unknown_chunks_with_odd_padding(self):
        base = wav_bytes(np.array([0.25, -0.25]), 16000)
        # splice an odd-length junk chunk between WAVE and fmt
        junk = b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
        data = base[:12] + junk + base[12:]
        data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
        clip = decode_wav(data)
        assert clip.samples.size == 2

    def test_bad_magic(self):
        with pytest.raises(MalformedWav):
            decode_wav(b"RIFX" + b"\x00" * 40)

    def test_truncated_data_chunk(self):
        data = wav_bytes(np.zeros(100), 16000)
        with pytest.raises(MalformedWav):
            decode_wav(data[:-10])

    def test_empty_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 0)
        with pytest.raises(MalformedWav):
            decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)

    def test_missing_fmt(self):
        payload = np.zeros(4, dtype="<i2").tobytes()
        body = b"WAVE" + b"data" + struct.pack("<I", len(payload)) + payload
        data = b"RIFF" + struct.pack("<I", len(body)) + body
        with pytest.raises(MalformedWav):
            decode_wav(data)

    def test_partial_frame(self):
        data = wav_bytes(np.zeros(3), 16000)
        truncated = data[:-1]
        fixed = truncated[:40] + struct.pack("<I", 5) + truncated[44:]
        # 5 bytes is not a whole number of 2-byte frames
        with pytest.raises(MalformedWav):
            decode_wav(fixed)

    def test_compressed_format_rejected(self):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(wav_bytes(np.zeros(4), 16000, audio_format=2))

    def test_three_channels_rejected(self):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(wav_bytes(np.zeros(6), 16000, channels=3))

    def test_eight_bit_rejected(self):
        base = wav_bytes(np.zeros(4), 16000)
        # patch the fmt chunk: bits 16 -> 8 (last field of the fmt struct)
        broken = base[:34] + struct.pack("<H", 8) + base[36:]
        with pytest.raises(UnsupportedEncoding):
            decode_wav(broken)

    def test_read_wav_matches_decode(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = rng.integers(-32768, 32768, size=400) / 32768.0
        path = tmp_path / "probe.wav"
        write_pcm16_wav(path, samples, 16000)
        clip = read_wav(path)
        assert clip.sample_rate == 16000
        assert np.max(np.abs(clip.samples - samples)) <= 2.0 / 32768.0


def _reference_resample_point(x, src, dst, j):
    """One output sample by direct summation of the windowed-sinc formula."""
    beta = 8.6
    cutoff = min(1.0, dst / src)
    half_width = 64.0 / cutoff
    t = j * src / dst
    total = 0.0
    lo = max(0, int(math.ceil(t - half_width)))
    hi = min(x.size - 1, int(math.floor(t + half_width)))
    for i in range(lo, hi + 1):
        u = i - t
        frac = u / half_width
        window = bessel_i0(beta * math.sqrt(max(0.0, 1.0 - frac * frac)))
        window /= bessel_i0(beta)
        if u == 0.0:
            sinc = 1.0
        else:
            sinc = math.sin(math.pi * cutoff * u) / (math.pi * cutoff * u)
        total += x[i] * cutoff * sinc * window
    return total


class TestResample:
    def test_identity_rate_copies(self):
        clip = AudioClip(np.arange(1.0, 9.0), 16000)
        out = resample(clip, 16000)
        assert out is not clip
        assert np.array_equal(out.samples, clip.samples)
        out.samples[0] = 99.0
        assert clip.samples[0] == 1.0

    @pytest.mark.parametrize(
        "n,src,dst",
        [(44100, 44100, 16000), (8000, 8000, 16000), (1000, 44100, 16000),
         (16000, 16000, 22050), (12345, 48000, 16000)],
    )
    def test_output_length(self, n, src, dst):
        clip = AudioClip(np.zeros(n), src)
        out = resample(clip, dst)
        assert out.samples.size == (2 * n * dst + src) // (2 * src)
        assert out.sample_rate == dst

    def test_dc_preserved_in_interior(self):
        clip = AudioClip(np.ones(44100), 44100)
        out = resample(clip, 16000)
        interior = out.samples[200:-200]
        assert np.max(np.abs(interior - 1.0)) < 1e-3

    def test_sine_preserved_upsampling(self):
        src, dst, freq = 8000, 16000, 440.0
        t_in = np.arange(8000) / src
        clip = AudioClip(np.sin(2 * np.pi * freq * t_in), src)
        out = resample(clip, dst)
        t_out = np.arange(out.samples.size) / dst
        expected = np.sin(2 * np.pi * freq * t_out)
        interior = slice(300, out.samples.size - 300)
        assert np.max(np.abs(out.samples[interior] - expected[interior])) < 1e-3

    @pytest.mark.parametrize(
        "src,dst,n",
        [(8000, 16000, 900), (11025, 16000, 400), (22050, 16000, 400),
         (44100, 16000, 3000), (48000, 16000, 400), (44101, 16000, 400),
         (16000, 22050, 400), (44100, 16000, 1), (8000, 16000, 1)],
    )
    def test_matches_direct_summation(self, src, dst, n):
        # short clips, so many outputs lie within a kernel width of an edge
        x = np.random.default_rng(src + dst + n).normal(size=n)
        out = resample(AudioClip(x, src), dst)
        assert out.samples.size == max((2 * n * dst + src) // (2 * src), 1)
        for j in range(out.samples.size):
            ref = _reference_resample_point(x, src, dst, j)
            assert abs(out.samples[j] - ref) < 1e-10, j

    @pytest.mark.parametrize("src,n", [(8000, 4200), (44101, 23000)])
    def test_matches_direct_summation_across_chunks(self, src, n):
        x = np.random.default_rng(src).normal(size=n)
        out = resample(AudioClip(x, src), 16000)
        rows = _block_rows(src, 16000)
        assert out.samples.size > rows
        for j in (0, rows - 2, rows - 1, rows, rows + 1, out.samples.size - 1):
            ref = _reference_resample_point(x, src, 16000, j)
            assert abs(out.samples[j] - ref) < 1e-10, j

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.zeros(10), 8000), 0)


def _block_rows(src, dst):
    """Kernel rows (phases) per block: the block budget over the tap count."""
    taps = 2 * int(64.0 / min(1.0, dst / src)) + 2
    return _BLOCK_ENTRIES // taps


def _reference_chunked_resample(x, src, dst):
    """The gather loop resample ran before it walked by phase: 8192 outputs
    at a time, each output's kernel row and tap window copied, then reduced."""
    n_out = max((2 * x.size * dst + src) // (2 * src), 1)
    cutoff = min(1.0, dst / src)
    half_width = 64.0 / cutoff
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    pad = int(half_width)
    offsets = np.arange(-pad, pad + 2, dtype=np.float64)
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + 2)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, offsets.size)
    out = np.empty(n_out, dtype=np.float64)
    for start in range(0, n_out, 8192):
        base, phase = np.divmod(np.arange(start, min(start + 8192, n_out)) * down, up)
        phases, row = np.unique(phase, return_inverse=True)
        weights = _sinc_kernel(offsets - phases[:, None] / up, cutoff, half_width)
        out[start:start + base.size] = np.einsum("ij,ij->i", weights[row], windows[base])
    return out


_BYTE_SOURCES = (3000, 8000, 11025, 16001, 22050, 44100, 44101, 48000, 96000)
_BYTE_TARGETS = (8000, 16000, 22050)
_BYTE_LENGTHS = (1, 2, 7, 100, 5000, 23000)


class TestResampleBytes:
    """Walking the outputs by phase reproduces the gather loop bit for bit."""

    @pytest.mark.parametrize("src", _BYTE_SOURCES)
    def test_matches_chunked_gather(self, src):
        rng = np.random.default_rng(src)
        for dst in _BYTE_TARGETS:
            if dst == src:
                continue
            for n in _BYTE_LENGTHS:
                x = rng.normal(size=n)
                out = resample(AudioClip(x, src), dst).samples
                ref = _reference_chunked_resample(x, src, dst)
                assert out.tobytes() == ref.tobytes(), (src, dst, n)

    @pytest.mark.parametrize("src", _BYTE_SOURCES)
    def test_limit_keeps_leading_outputs(self, src):
        rng = np.random.default_rng(src + 1)
        for dst in _BYTE_TARGETS + (src,):
            for n in _BYTE_LENGTHS:
                x = rng.normal(size=n)
                full = resample(AudioClip(x, src), dst).samples
                for limit in {1, 2, full.size // 3, full.size - 1, full.size, full.size + 4} - {0}:
                    kept = resample(AudioClip(x, src), dst, limit).samples
                    assert kept.tobytes() == full[:limit].tobytes(), (src, dst, n, limit)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.zeros(10), 8000), 16000, 0)

    def test_grid_reaches_edge_layouts(self):
        # fewer outputs than phases, and phases that fill two kernel blocks
        layouts = [
            (dst // math.gcd(src, dst), (2 * n * dst + src) // (2 * src), _block_rows(src, dst))
            for src in _BYTE_SOURCES for dst in _BYTE_TARGETS for n in _BYTE_LENGTHS
            if src != dst
        ]
        assert any(up > n_out for up, n_out, _ in layouts)
        assert any(min(up, n_out) > rows for up, n_out, rows in layouts)

    def test_extract_csv_digest(self, tmp_path):
        # one clip per rate the resampler sees in practice, plus a coprime
        # rate; digest computed with the gather loop before the phase walk
        root = tmp_path / "corpus"
        rng = np.random.default_rng(1983)
        rates = (8000, 11025, 16000, 22050, 44100, 48000, 44101)
        for i, rate in enumerate(rates):
            group = root / ("a", "b")[i % 2]
            group.mkdir(parents=True, exist_ok=True)
            x = synth_voice(rng, i % 2, rate, float(rng.uniform(0.8, 1.3)))
            write_pcm16_wav(group / f"clip_{rate}.wav", x, rate)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format_version": 1, "groups": {"a": 0, "b": 1}}))
        out = tmp_path / "features.csv"
        assert cli_main([
            "extract", "--audio-dir", str(root),
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "10b8584f67b3eb4fd187ef12283116f6b73b9df6d206377877d290c023c8ddc0")


class TestResampleMemory:
    """Phase lanes are strided views: no copied tap windows, whose size
    grew with every output (46 MiB for 3 s at 44.1 kHz, 49 MiB for 1.5 s
    at 48 kHz under the gather loop). Kernel blocks hold a fixed number of
    entries, however many phases a coprime rate has (235 MiB for 1.3 s at
    44101 Hz when blocks held 8192 phases)."""

    @pytest.mark.parametrize(
        "rate,seconds,bound_mib", [(44100, 3.0, 8), (48000, 1.5, 2), (44101, 1.3, 8)]
    )
    def test_peak(self, rate, seconds, bound_mib):
        x = np.random.default_rng(rate).normal(size=int(rate * seconds))
        clip = AudioClip(x, rate)
        resample(AudioClip(x[:rate], rate), 16000)  # warm caches
        tracemalloc.start()
        try:
            resample(clip, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20


class TestKernelCache:
    """A rate pair's kernel blocks are built once and shared read-only by
    later clips; a coprime pair's many blocks bypass the cache."""

    def test_rate_pair_reuses_read_only_blocks(self):
        _cached_kernel_block.cache_clear()
        x = np.random.default_rng(9).normal(size=4410)
        first = resample(AudioClip(x, 44100), 16000).samples
        again = resample(AudioClip(x, 44100), 16000).samples
        assert again.tobytes() == first.tobytes()
        info = _cached_kernel_block.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # 160 phases: one block
        assert not _cached_kernel_block(160, 441, 16000 / 44100, 0).flags.writeable

    def test_coprime_pair_bypasses_cache(self):
        _cached_kernel_block.cache_clear()
        resample(AudioClip(np.ones(500), 44101), 16000)
        assert _cached_kernel_block.cache_info().currsize == 0


class TestFixDuration:
    def test_pads_with_zeros(self):
        clip = AudioClip(np.ones(8000), 16000)
        out = fix_duration(clip, 1.0)
        assert out.samples.size == 16000
        assert np.all(out.samples[:8000] == 1.0)
        assert np.all(out.samples[8000:] == 0.0)

    def test_truncates(self):
        clip = AudioClip(np.arange(20000, dtype=float), 16000)
        out = fix_duration(clip, 1.0)
        assert out.samples.size == 16000
        assert np.array_equal(out.samples, np.arange(16000, dtype=float))

    def test_exact_length_copies(self):
        clip = AudioClip(np.ones(16000), 16000)
        out = fix_duration(clip, 1.0)
        assert out is not clip
        assert np.array_equal(out.samples, clip.samples)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            fix_duration(AudioClip(np.ones(10), 16000), 0.0)
