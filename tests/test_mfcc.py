import ast
import json
from pathlib import Path

import numpy as np
import pytest

from voicebench.audio import AudioClip
from voicebench.errors import ClipTooShort
from voicebench.mfcc import (
    _DCT_REST_T,
    _FILTERBANK_T,
    HOP,
    LOG_FLOOR,
    N_FFT,
    N_MELS,
    N_MFCC,
    SAMPLE_RATE,
    dct_matrix,
    hz_to_mel,
    mel_edge_frequencies,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    periodic_hann,
    stft_power,
    temporal_mean,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "mfcc_golden.json"
REFERENCE_TOOL = Path(__file__).parent.parent / "tools" / "gen_mfcc_golden.py"


# Test-side helpers; the package itself does not need them.
def frame_count(n_samples: int, n_fft: int, hop: int) -> int:
    """Frames that fit without padding: 1 + floor((n - n_fft)/hop)."""
    if n_samples < n_fft:
        return 0
    return 1 + (n_samples - n_fft) // hop


def dct_ortho(x: np.ndarray) -> np.ndarray:
    """Full orthonormal DCT-II along the last axis."""
    return np.asarray(x, dtype=np.float64) @ dct_matrix(x.shape[-1]).T


def idct_ortho(coeffs: np.ndarray) -> np.ndarray:
    return np.asarray(coeffs, dtype=np.float64) @ dct_matrix(coeffs.shape[-1])


class TestMelScale:
    def test_known_points(self):
        assert hz_to_mel(0.0) == 0.0
        # closed form at 700 Hz: 2595 * log10(2)
        assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-12

    def test_roundtrip(self):
        freqs = np.linspace(0.0, 8000.0, 57)
        again = mel_to_hz(hz_to_mel(freqs))
        assert np.max(np.abs(again - freqs)) < 1e-9

    def test_edges_match_closed_form(self):
        edges = mel_edge_frequencies()
        assert edges.shape == (N_MELS + 2,)
        lo = 2595.0 * np.log10(1.0 + 0.0 / 700.0)
        hi = 2595.0 * np.log10(1.0 + 8000.0 / 700.0)
        mels = np.linspace(lo, hi, N_MELS + 2)
        expected = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
        assert np.max(np.abs(edges - expected)) < 1e-9
        assert np.all(np.diff(edges) > 0)


class TestStft:
    def test_frame_count_one_second(self):
        assert frame_count(16000, 400, 160) == 98

    def test_power_shape(self):
        clip = AudioClip(np.random.default_rng(0).normal(size=16000), 16000)
        power = stft_power(clip)
        assert power.shape == (98, 201)
        assert np.all(power >= 0.0)

    def test_short_clip_raises(self):
        with pytest.raises(ClipTooShort):
            stft_power(AudioClip(np.zeros(399), 16000))

    def test_zero_signal_zero_power(self):
        power = stft_power(AudioClip(np.zeros(16000), 16000))
        assert np.all(power == 0.0)

    def test_hann_window_formula(self):
        n = 400
        w = periodic_hann(n)
        k = np.arange(n)
        assert np.max(np.abs(w - (0.5 - 0.5 * np.cos(2 * np.pi * k / n)))) == 0.0
        assert w[0] == 0.0
        assert w[n // 2] == 1.0

    def test_pure_tone_hits_expected_bin(self):
        # 1600 Hz at 16 kHz with a 400-point FFT lands exactly on bin 40
        t = np.arange(16000) / 16000.0
        clip = AudioClip(np.sin(2 * np.pi * 1600.0 * t), 16000)
        power = stft_power(clip)
        assert np.all(np.argmax(power, axis=1) == 40)

    def test_one_frame_matches_direct_dft(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=800)
        power = stft_power(AudioClip(xs, 16000))

        frame_idx = 2
        segment = xs[frame_idx * 160: frame_idx * 160 + 400]
        windowed = segment * periodic_hann(400)
        n = np.arange(400)
        ref = np.empty(201)
        for k in range(201):
            basis = np.exp(-2j * np.pi * k * n / 400.0)
            ref[k] = np.abs(np.dot(windowed, basis)) ** 2
        scale = np.max(ref) + 1e-30
        assert np.max(np.abs(power[frame_idx] - ref)) / scale < 1e-10


class TestFilterbank:
    def test_shape_and_range(self):
        fb = mel_filterbank()
        assert fb.shape == (40, 201)
        assert np.all(fb >= 0.0)
        assert np.all(fb <= 1.0)

    def test_every_filter_has_mass(self):
        fb = mel_filterbank()
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_support_is_contiguous(self):
        fb = mel_filterbank()
        for row in fb:
            nz = np.flatnonzero(row > 0)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_triangle_peaks_at_center(self):
        fb = mel_filterbank()
        edges = mel_edge_frequencies()
        bin_freqs = np.arange(201) * 16000.0 / 400.0
        for m, row in enumerate(fb):
            center = edges[m + 1]
            peak_freq = bin_freqs[np.argmax(row)]
            # the sampled peak sits within one bin of the true center
            assert abs(peak_freq - center) <= 16000.0 / 400.0 + 1e-9


class TestOperandsBuiltOnce:
    def test_match_their_builders_and_are_read_only(self):
        for built, fresh in ((_FILTERBANK_T, mel_filterbank().T),
                             (_DCT_REST_T, dct_matrix(N_MELS)[1:N_MFCC].T)):
            assert built.tobytes(order="A") == fresh.tobytes(order="A")
            assert built.strides == fresh.strides
            assert not built.flags.writeable
            with pytest.raises(ValueError):
                built[0, 0] = 0.0


class TestDct:
    def test_matrix_is_orthonormal(self):
        m = dct_matrix(40)
        assert np.max(np.abs(m @ m.T - np.eye(40))) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 40))
        assert np.max(np.abs(idct_ortho(dct_ortho(x)) - x)) < 1e-10

    def test_constant_input_is_pure_c0(self):
        x = np.full(40, 2.5)
        coeffs = dct_ortho(x)
        assert abs(coeffs[0] - 2.5 * np.sqrt(40.0)) < 1e-12
        assert np.max(np.abs(coeffs[1:])) < 1e-12


class TestMfcc:
    def test_output_shape(self):
        clip = AudioClip(np.random.default_rng(1).normal(size=16000), 16000)
        coeffs = mfcc(clip)
        assert coeffs.shape == (98, 13)

    def test_silence_canonical_form(self):
        coeffs = mfcc(AudioClip(np.zeros(16000), 16000))
        assert np.all(coeffs[:, 1:] == 0.0)
        assert np.max(np.abs(coeffs[:, 0] - -145.62826800423602)) < 1e-10

    def test_deterministic(self):
        clip = AudioClip(np.random.default_rng(2).normal(size=16000), 16000)
        a = mfcc(clip)
        b = mfcc(clip)
        assert np.array_equal(a, b)

    def test_louder_signal_raises_c0(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=16000)
        quiet = mfcc(AudioClip(0.01 * x, 16000))
        loud = mfcc(AudioClip(1.0 * x, 16000))
        assert np.all(loud[:, 0] > quiet[:, 0])

    def test_temporal_mean(self):
        frames = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(temporal_mean(frames), frames.mean(axis=0))
        with pytest.raises(ValueError):
            temporal_mean(np.zeros((0, 3)))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestGolden:
    def _rebuild_signal(self, recipe):
        t = np.arange(recipe["n_samples"]) / recipe["sample_rate"]
        rng = np.random.default_rng(recipe["seed"])
        return (
            recipe["tone_a_amp"] * np.sin(2 * np.pi * recipe["tone_a_hz"] * t)
            + recipe["tone_b_amp"] * np.sin(2 * np.pi * recipe["tone_b_hz"] * t)
            + recipe["noise_amp"] * rng.standard_normal(recipe["n_samples"])
        )

    def test_matches_frozen_reference(self, golden):
        signal = self._rebuild_signal(golden["recipe"])
        clip = AudioClip(signal, golden["recipe"]["sample_rate"])
        coeffs = mfcc(clip)
        expected = np.array(
            [[float(v) for v in row] for row in golden["mfcc"]]
        )
        assert coeffs.shape == (golden["n_frames"], golden["n_mfcc"])
        assert np.max(np.abs(coeffs - expected)) < 1e-4
        assert np.mean(np.abs(coeffs - expected)) < 1e-6

    def test_temporal_mean_matches(self, golden):
        signal = self._rebuild_signal(golden["recipe"])
        clip = AudioClip(signal, golden["recipe"]["sample_rate"])
        vec = temporal_mean(mfcc(clip))
        expected = np.array([float(v) for v in golden["temporal_mean"]])
        assert np.max(np.abs(vec - expected)) < 1e-6

    def test_reference_tool_uses_package_settings(self):
        # the golden generator keeps its own constants; they must describe
        # the same front end as the package
        tree = ast.parse(REFERENCE_TOOL.read_text())
        tool = {node.targets[0].id: node.value.value
                for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)}
        package = {"SAMPLE_RATE": SAMPLE_RATE, "N_FFT": N_FFT, "HOP": HOP,
                   "N_MELS": N_MELS, "N_MFCC": N_MFCC, "LOG_FLOOR": LOG_FLOOR}
        assert {name: tool[name] for name in package} == package
