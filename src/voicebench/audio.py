"""WAV ingestion and rate/duration normalization.

Decoding is a hand-rolled RIFF parser kept deliberately strict: anything the
pipeline cannot represent exactly (compressed encodings, >2 channels, odd
bit depths) is rejected instead of guessed at. All functions are pure, so
they can run in any number of worker processes.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedWav, UnsupportedEncoding

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3

# Windowed-sinc resampler constants. 64 zero crossings with a beta=8.6
# Kaiser window keeps passband ripple and aliasing comfortably below the
# 1e-3 reconstruction tolerance used by the tests.
_ZERO_CROSSINGS = 64
_KAISER_BETA = 8.6
_KAISER_NORM = float(np.i0(_KAISER_BETA))
# Kernel entries (phases x taps) per block of kernel rows: keeps each of
# _sinc_kernel's temporaries near 512 KiB; coprime rates have target_rate phases.
_BLOCK_ENTRIES = 1 << 16
# Kernel blocks kept across clips (512 KiB each at most), for rate pairs of at
# most this many blocks; a coprime pair's dozens would only cycle through.
_CACHED_BLOCKS = 8


@dataclass(frozen=True)
class AudioClip:
    """Mono sample buffer with its rate; amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise MalformedWav("clip must hold a non-empty 1-D sample buffer")
        if self.sample_rate <= 0:
            raise MalformedWav(f"invalid sample rate {self.sample_rate}")
        if not np.all(np.isfinite(samples)):
            raise MalformedWav("clip contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _decode_frames(payload: bytes, audio_format: int, bits: int) -> np.ndarray:
    if audio_format == _FORMAT_PCM and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        return raw / 32768.0
    if audio_format == _FORMAT_PCM and bits == 24:
        octets = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        value = octets[:, 0] | (octets[:, 1] << 8) | (octets[:, 2] << 16)
        value = (value ^ 0x800000) - 0x800000  # sign-extend 24 -> 64 bits
        return value.astype(np.float64) / 8388608.0
    if audio_format == _FORMAT_IEEE_FLOAT and bits == 32:
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)
    raise UnsupportedEncoding(
        f"unsupported sample encoding: format={audio_format} bits={bits} "
        "(PCM-16, PCM-24 and float-32 are accepted)"
    )


def decode_wav(data: bytes) -> AudioClip:
    """Parse a RIFF/WAVE byte stream into a mono AudioClip.

    Stereo input is downmixed by averaging the two channels. Raises
    MalformedWav for structural problems and UnsupportedEncoding for sample
    formats or channel counts outside the supported set.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav("not a RIFF/WAVE stream")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset:offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body_start + 16 > len(data):
                raise MalformedWav("fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            if body_start + chunk_size > len(data):
                raise MalformedWav("data chunk truncated")
            payload = data[body_start:body_start + chunk_size]
        # chunks are word-aligned; odd sizes carry a pad byte
        offset = body_start + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedWav("missing fmt chunk")
    if payload is None:
        raise MalformedWav("missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedEncoding(f"{channels} channels; only mono or stereo accepted")
    if sample_rate <= 0:
        raise MalformedWav(f"invalid sample rate {sample_rate}")

    bytes_per_sample = bits // 8
    frame_size = bytes_per_sample * channels
    if bits not in (16, 24, 32) or frame_size == 0:
        raise UnsupportedEncoding(
            f"unsupported sample encoding: format={audio_format} bits={bits}"
        )
    if len(payload) % frame_size != 0:
        raise MalformedWav("data chunk size is not a whole number of frames")
    if len(payload) == 0:
        raise MalformedWav("empty data chunk")

    flat = _decode_frames(payload, audio_format, bits)
    if channels == 2:
        flat = flat.reshape(-1, 2).mean(axis=1)
    return AudioClip(flat, sample_rate)


def read_wav(path) -> AudioClip:
    with open(path, "rb") as fh:
        return decode_wav(fh.read())


def _sinc_kernel(u: np.ndarray, cutoff: float, half_width: float) -> np.ndarray:
    """Kaiser-windowed sinc evaluated at offsets u (input-sample units)."""
    inside = np.abs(u) <= half_width
    x = np.where(inside, u / half_width, 0.0)
    window = np.i0(_KAISER_BETA * np.sqrt(1.0 - x * x)) / _KAISER_NORM
    return np.where(inside, cutoff * np.sinc(cutoff * u) * window, 0.0)


def _kernel_block(up: int, down: int, cutoff: float, start: int) -> np.ndarray:
    """Read-only kernel rows of outputs start, start + 1, ..., as many as a
    block holds, up to the last phase."""
    half_width = _ZERO_CROSSINGS / cutoff
    pad = int(half_width)
    offsets = np.arange(-pad, pad + 2, dtype=np.float64)
    first = np.arange(start, min(start + max(1, _BLOCK_ENTRIES // offsets.size), up))
    weights = _sinc_kernel(offsets - (first * down % up)[:, None] / up, cutoff, half_width)
    weights.flags.writeable = False
    return weights


_cached_kernel_block = functools.lru_cache(maxsize=_CACHED_BLOCKS)(_kernel_block)


def resample(clip: AudioClip, target_rate: int, limit: int | None = None) -> AudioClip:
    """Resample with a polyphase Kaiser-windowed sinc interpolator.

    Output length is round(n * target / source) (half-up), or limit if that
    is smaller: the first limit outputs, with the same bytes, and the rest
    never computed. When downsampling, the kernel cutoff shrinks to the
    output Nyquist so the result stays free of aliased energy. Signal
    outside the clip is treated as zero, so a few edge samples taper toward
    zero. Each phase is one FIR filter run over strided views of the input,
    so no tap window is copied.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples[:limit].copy(), clip.sample_rate)

    source_rate = clip.sample_rate
    n_out = (2 * clip.samples.size * target_rate + source_rate) // (2 * source_rate)
    n_out = max(int(n_out), 1)
    if limit is not None:
        n_out = min(n_out, limit)

    cutoff = min(1.0, target_rate / source_rate)
    half_width = _ZERO_CROSSINGS / cutoff
    # output j sits at input position j*down/up = base + phase/up exactly, so
    # outputs j, j+up, ... share one kernel row and start down inputs apart
    g = math.gcd(source_rate, target_rate)
    up, down = target_rate // g, source_rate // g
    pad = int(half_width)
    taps = 2 * pad + 2
    padded = np.concatenate([np.zeros(pad), clip.samples, np.zeros(pad + 2)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps)

    out = np.empty(n_out, dtype=np.float64)
    rows = max(1, _BLOCK_ENTRIES // taps)
    kernel = _cached_kernel_block if up <= _CACHED_BLOCKS * rows else _kernel_block
    for start in range(0, min(up, n_out), rows):
        for j, row in enumerate(kernel(up, down, cutoff, start)[:n_out - start], start):
            lane = out[j::up]
            lane[:] = np.einsum("ij,j->i", windows[j * down // up::down][: lane.size], row)

    return AudioClip(out, target_rate)


def fix_duration(clip: AudioClip, target_seconds: float) -> AudioClip:
    """Right-pad with zeros or truncate so the clip lasts target_seconds."""
    if target_seconds <= 0:
        raise ValueError(f"target_seconds must be positive, got {target_seconds}")
    n_target = int(round(target_seconds * clip.sample_rate))
    n_target = max(n_target, 1)
    samples = clip.samples
    if samples.size > n_target:
        samples = samples[:n_target].copy()
    elif samples.size < n_target:
        samples = np.concatenate([samples, np.zeros(n_target - samples.size)])
    else:
        samples = samples.copy()
    return AudioClip(samples, clip.sample_rate)
