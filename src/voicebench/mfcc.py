"""MFCC extraction: framed power spectra, mel filtering, orthonormal DCT.

The chain is power STFT (periodic Hann, no center padding) -> triangular
mel filterbank on the linear power spectrum -> log with an absolute floor
-> DCT-II with orthonormal scaling, keeping the first N_MFCC coefficients.
A clip is summarized by the mean coefficient vector over frames.
"""
from __future__ import annotations

import numpy as np

from .audio import AudioClip
from .errors import ClipTooShort


# Extraction settings, fixed so that every feature row of every corpus comes
# from the same front end (tools/gen_mfcc_golden.py restates them).
SAMPLE_RATE = 16000
DURATION_S = 1.0
N_MFCC = 13
N_MELS = 40
N_FFT = 400
HOP = 160
FMIN = 0.0
FMAX = SAMPLE_RATE / 2
LOG_FLOOR = 1e-10


def hz_to_mel(hz):
    """HTK mel scale: m = 2595 log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (np.power(10.0, np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def periodic_hann(n: int) -> np.ndarray:
    # periodic variant (denominator n, not n-1), the DFT-analysis convention
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_power(clip: AudioClip) -> np.ndarray:
    """Power spectrogram, shape (n_frames, N_FFT//2 + 1).

    Frames are taken from the signal as-is (no center padding); a clip
    shorter than one window raises ClipTooShort.
    """
    x = clip.samples
    if x.size < N_FFT:
        raise ClipTooShort(
            f"clip has {x.size} samples; analysis window needs {N_FFT}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(x, N_FFT)[::HOP]
    spectrum = np.fft.rfft(frames * periodic_hann(N_FFT), n=N_FFT, axis=1)
    return (spectrum.real ** 2 + spectrum.imag ** 2)


def mel_edge_frequencies() -> np.ndarray:
    """N_MELS + 2 filter edge frequencies in Hz, equally spaced in mel."""
    mel_lo = hz_to_mel(FMIN)
    mel_hi = hz_to_mel(FMAX)
    return mel_to_hz(np.linspace(mel_lo, mel_hi, N_MELS + 2))


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters on FFT bin frequencies, shape (N_MELS, n_bins).

    Triangles are unit-peak (no area normalization) and evaluated at the
    bin centers k * SAMPLE_RATE / N_FFT.
    """
    edges = mel_edge_frequencies()
    n_bins = N_FFT // 2 + 1
    bin_freqs = np.arange(n_bins) * (SAMPLE_RATE / N_FFT)

    lower = edges[:-2][:, None]
    center = edges[1:-1][:, None]
    upper = edges[2:][:, None]
    up_slope = (bin_freqs[None, :] - lower) / (center - lower)
    down_slope = (upper - bin_freqs[None, :]) / (upper - center)
    return np.maximum(0.0, np.minimum(up_slope, down_slope))


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix (rows are basis vectors)."""
    k = np.arange(n)
    basis = np.cos(np.pi * np.arange(n)[:, None] * (2 * k[None, :] + 1) / (2 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0, :] = np.sqrt(1.0 / n)
    return basis


# Built once: the transposed filterbank and the DCT rows 1..N_MFCC-1 as
# columns, the operands (and memory layouts) that every clip's products use.
_FILTERBANK_T = mel_filterbank().T
_DCT_REST_T = dct_matrix(N_MELS)[1:N_MFCC].T
_FILTERBANK_T.setflags(write=False)
_DCT_REST_T.setflags(write=False)


def _dct_truncated(x: np.ndarray) -> np.ndarray:
    """First N_MFCC orthonormal DCT-II coefficients of N_MELS values along
    the last axis.

    Coefficients past the first are evaluated on the mean-removed input.
    That is algebraically the same (those basis vectors are orthogonal to
    the constant) but makes a constant input come out exactly zero instead
    of carrying rounding residue.
    """
    c0 = x.sum(axis=-1) * np.sqrt(1.0 / N_MELS)
    centered = x - x.mean(axis=-1, keepdims=True)
    return np.concatenate([c0[..., None], centered @ _DCT_REST_T], axis=-1)


def mfcc(clip: AudioClip) -> np.ndarray:
    """MFCC frames, shape (n_frames, N_MFCC).

    The clip is expected to already be at SAMPLE_RATE; rate normalization
    lives in the audio module.
    """
    power = stft_power(clip)
    mel_energy = power @ _FILTERBANK_T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return _dct_truncated(log_mel)


def temporal_mean(frames: np.ndarray) -> np.ndarray:
    """Collapse (n_frames, N_MFCC) to one N_MFCC vector by mean over time."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("need a non-empty 2-D frame matrix")
    return frames.mean(axis=0)
