"""Daubechies-4 transform: filters, oracle agreement, reconstruction."""

import numpy as np
import pytest

from texsynth import wavelets
from texsynth.wavelets import (
    HIGHPASS,
    LOWPASS,
    WaveletScaleError,
    _analyze_axis0,
    dwt2_daub4,
    idwt2_daub4,
)


def analyze_rows(x, filt):
    """Periodic filter-and-decimate along axis 0, written as a plain loop."""
    n = x.shape[0]
    out = np.zeros((n // 2, x.shape[1]))
    for k in range(n // 2):
        for m in range(4):
            out[k] += filt[m] * x[(2 * k + m) % n]
    return out


def analyze_axis0_tensordot(x):
    """_analyze_axis0 as it was, one tensordot per filter: the bitwise oracle."""
    n = x.shape[0]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    taps = x[idx]  # (n/2, 4, ...)
    lo = np.tensordot(taps, LOWPASS, axes=([1], [0]))
    hi = np.tensordot(taps, HIGHPASS, axes=([1], [0]))
    return lo, hi


def level_oracle(x):
    lo = analyze_rows(x, LOWPASS)
    hi = analyze_rows(x, HIGHPASS)
    ll = analyze_rows(lo.T, LOWPASS).T
    lh = analyze_rows(lo.T, HIGHPASS).T
    hl = analyze_rows(hi.T, LOWPASS).T
    hh = analyze_rows(hi.T, HIGHPASS).T
    return ll, (lh, hl, hh)


class TestFilters:
    def test_lowpass_sums_to_sqrt2(self):
        assert abs(LOWPASS.sum() - np.sqrt(2.0)) < 1e-15

    def test_highpass_sums_to_zero(self):
        assert abs(HIGHPASS.sum()) < 1e-15

    def test_unit_energy(self):
        assert abs(np.sum(LOWPASS**2) - 1.0) < 1e-15
        assert abs(np.sum(HIGHPASS**2) - 1.0) < 1e-15

    def test_filters_are_orthogonal(self):
        assert abs(LOWPASS @ HIGHPASS) < 1e-15


class TestTransform:
    def test_single_level_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 12))
        approx, details = dwt2_daub4(x, scales=1)
        oll, (olh, ohl, ohh) = level_oracle(x)
        assert np.allclose(approx, oll, atol=1e-13)
        lh, hl, hh = details[0]
        assert np.allclose(lh, olh, atol=1e-13)
        assert np.allclose(hl, ohl, atol=1e-13)
        assert np.allclose(hh, ohh, atol=1e-13)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 5), (4, 3), (16, 7), (64, 33), (256, 256),
                                       (2, 3, 5), (8, 5, 3), (32, 9, 1), (6, 1, 7)])
    def test_analysis_is_bit_for_bit_the_tensordot_oracle(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[0] + shape[1])
        x = rng.standard_normal(shape)
        # C order as at the first level; reversed axes, as the transposed
        # bands of every later level come
        flipped = rng.standard_normal(shape[::-1]).transpose(range(len(shape))[::-1])
        for data in (x, flipped):
            got, want = _analyze_axis0(data), analyze_axis0_tensordot(data)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_a_full_decomposition_is_bit_for_bit_the_oracle_one(self, monkeypatch):
        x = np.random.default_rng(6).standard_normal((256, 128))
        got = dwt2_daub4(x, scales=7)
        monkeypatch.setattr(wavelets, "_analyze_axis0", analyze_axis0_tensordot)
        want = dwt2_daub4(x, scales=7)
        assert got[0].tobytes() == want[0].tobytes()
        for bands, oracle_bands in zip(got[1], want[1]):
            assert [b.tobytes() for b in bands] == [b.tobytes() for b in oracle_bands]

    def test_band_shapes_are_finest_first(self):
        x = np.random.default_rng(1).standard_normal((32, 32))
        approx, details = dwt2_daub4(x, scales=3)
        assert approx.shape == (4, 4)
        assert [d[0].shape for d in details] == [(16, 16), (8, 8), (4, 4)]

    def test_perfect_reconstruction_across_depths(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((32, 32))
        for scales in range(1, 6):
            approx, details = dwt2_daub4(x, scales)
            back = idwt2_daub4(approx, details)
            assert np.abs(back - x).max() < 1e-12

    def test_perfect_reconstruction_non_square(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((32, 24))
        approx, details = dwt2_daub4(x, scales=3)
        assert np.abs(idwt2_daub4(approx, details) - x).max() < 1e-12

    def test_energy_is_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((16, 16))
        approx, details = dwt2_daub4(x, scales=2)
        total = np.sum(approx**2) + sum(np.sum(b**2) for bands in details for b in bands)
        assert abs(total / np.sum(x**2) - 1.0) < 1e-12

    def test_constant_image_has_silent_detail_bands(self):
        approx, details = dwt2_daub4(np.full((16, 16), 0.7), scales=2)
        for bands in details:
            for b in bands:
                assert np.abs(b).max() < 1e-13
        assert np.allclose(approx, 0.7 * 4.0)  # each level scales by sqrt(2)^2

    def test_single_channel_axis_accepted(self):
        x = np.random.default_rng(5).standard_normal((8, 8, 1))
        approx, _ = dwt2_daub4(x, scales=1)
        assert approx.shape == (4, 4)

    def test_rgb_input_rejected(self):
        with pytest.raises(ValueError, match="single-channel"):
            dwt2_daub4(np.zeros((8, 8, 3)), scales=1)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"expected a 2-D array, got shape \(8,\)"):
            dwt2_daub4(np.zeros(8), scales=1)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(WaveletScaleError, match="divisible"):
            dwt2_daub4(np.zeros((20, 20)), scales=3)

    def test_zero_scales_rejected(self):
        with pytest.raises(ValueError, match="scales must be"):
            dwt2_daub4(np.zeros((8, 8)), scales=0)
