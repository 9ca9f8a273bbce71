"""Hot kernels against direct-loop oracles."""

import numpy as np
import pytest

from texsynth._kernels import conv3x3, conv3x3_back, displacement_search


def conv_oracle(x, kern, bias):
    """Zero-padded 3x3 correlation written as an explicit scalar loop."""
    h, w, ci = x.shape
    co = kern.shape[0]
    out = np.zeros((h, w, co))
    for i in range(h):
        for j in range(w):
            for o in range(co):
                acc = bias[o]
                for u in range(3):
                    for v in range(3):
                        yy, xx = i + u - 1, j + v - 1
                        if 0 <= yy < h and 0 <= xx < w:
                            for c in range(ci):
                                acc += x[yy, xx, c] * kern[o, c, u, v]
                out[i, j, o] = acc
    return out


def conv_back_oracle(g, kern):
    """Input cotangent of the 3x3 correlation, scattered tap by tap."""
    h, w, co = g.shape
    ci = kern.shape[1]
    out = np.zeros((h, w, ci))
    for i in range(h):
        for j in range(w):
            for u in range(3):
                for v in range(3):
                    yy, xx = i + u - 1, j + v - 1
                    if 0 <= yy < h and 0 <= xx < w:
                        for o in range(co):
                            for c in range(ci):
                                out[yy, xx, c] += g[i, j, o] * kern[o, c, u, v]
    return out


def displacement_oracle(synth, exemplar, patch):
    """Exhaustive SSD argmin, ties to the smallest (dy, dx).

    Inputs are expected to hold dyadic rationals so sums are exact and
    summation order cannot flip a tie.
    """
    r = patch // 2
    hs, ws, nc = synth.shape
    he, we, _ = exemplar.shape
    out = np.empty((hs - 2 * r, ws - 2 * r, 2), dtype=np.int64)
    for y in range(r, hs - r):
        for x in range(r, ws - r):
            best = None
            for ey in range(r, he - r):
                for ex in range(r, we - r):
                    ssd = 0.0
                    for u in range(-r, r + 1):
                        for v in range(-r, r + 1):
                            for c in range(nc):
                                d = synth[y + u, x + v, c] - exemplar[ey + u, ex + v, c]
                                ssd += d * d
                    key = (ssd, ey - y, ex - x)
                    if best is None or key < best:
                        best = key
            out[y - r, x - r] = best[1:]
    return out


def dyadic(rng, shape, denom=16):
    return rng.integers(0, denom + 1, size=shape).astype(np.float64) / denom


class TestConv:
    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 6, 2))
        kern = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        assert np.allclose(conv3x3(x, kern, bias), conv_oracle(x, kern, bias), atol=1e-12)

    def test_backward_is_exact_adjoint(self):
        # <conv(x) - bias, g> == <x, conv_back(g)> for any x, g
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 5, 2))
        kern = rng.standard_normal((4, 2, 3, 3))
        g = rng.standard_normal((6, 5, 4))
        lhs = np.vdot(conv3x3(x, kern, np.zeros(4)), g)
        rhs = np.vdot(x, conv3x3_back(g, kern))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_backward_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5, 4))
        kern = rng.standard_normal((4, 2, 3, 3))
        assert np.allclose(conv3x3_back(g, kern), conv_back_oracle(g, kern), atol=1e-12)


class TestDisplacement:
    def test_matches_exhaustive_oracle_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            synth = dyadic(rng, (10, 9, 3))
            exemplar = dyadic(rng, (11, 10, 3))
            got = displacement_search(synth, exemplar, 3)
            assert np.array_equal(got, displacement_oracle(synth, exemplar, 3))

    def test_single_channel_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        synth = dyadic(rng, (12, 12, 1))
        exemplar = dyadic(rng, (12, 12, 1))
        assert np.array_equal(
            displacement_search(synth, exemplar, 5),
            displacement_oracle(synth, exemplar, 5),
        )

    def test_ties_resolve_to_smallest_offset(self):
        # every candidate matches equally well, so each pixel points at the
        # first valid window center, (r, r)
        synth = np.zeros((8, 8, 1))
        exemplar = np.zeros((6, 7, 1))
        out = displacement_search(synth, exemplar, 3)
        for y in range(out.shape[0]):
            for x in range(out.shape[1]):
                assert out[y, x, 0] == 1 - (y + 1)
                assert out[y, x, 1] == 1 - (x + 1)

    def test_shifted_copy_recovers_the_shift(self):
        rng = np.random.default_rng(6)
        exemplar = dyadic(rng, (16, 16, 3), denom=256)
        synth = np.roll(exemplar, (2, 3), axis=(0, 1))
        out = displacement_search(synth, exemplar, 5)
        # interior pixels away from the wraparound seam all agree
        assert np.array_equal(out[4:-4, 4:-4, 0], np.full((4, 4), -2))
        assert np.array_equal(out[4:-4, 4:-4, 1], np.full((4, 4), -3))

    def test_even_patch_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            displacement_search(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)), 4)

    def test_oversized_patch_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            displacement_search(np.zeros((4, 4, 1)), np.zeros((8, 8, 1)), 5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            displacement_search(np.zeros((8, 8, 1)), np.zeros((8, 8, 3)), 3)
