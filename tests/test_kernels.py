"""Hot kernels against direct-loop oracles."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texsynth import _kernels
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


def single_pass_conv(x, kern, bias):
    """The unbanded conv3x3: nine full-size shifted products of one padded copy."""
    out = np.broadcast_to(bias, x.shape[:2] + bias.shape).copy()
    return single_pass_shifts(x, np.ascontiguousarray(kern.transpose(2, 3, 1, 0)), out)


def single_pass_conv_back(g, kern):
    """The unbanded conv3x3_back."""
    out = np.zeros(g.shape[:2] + (kern.shape[1],))
    return single_pass_shifts(
        g, np.ascontiguousarray(kern[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)), out)


def single_pass_shifts(x, taps, out):
    h, w, _ = x.shape
    xp = np.zeros((h + 2, w + 2, x.shape[2]))
    xp[1:-1, 1:-1] = x
    for u in range(3):
        for v in range(3):
            out += xp[u : u + h, v : v + w] @ taps[u, v]
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


def direct_search(synth, exemplar, patch):
    """The pre-GEMM implementation: one full strided SSD per synth pixel.

    Its sums round exactly as the GEMM search's exact re-rank does, so the
    two agree bit for bit on any input, near-ties included.
    """
    r = patch // 2
    hs, ws, _ = synth.shape
    wins = np.lib.stride_tricks.sliding_window_view(exemplar, (patch, patch), axis=(0, 1))
    out = np.empty((hs - 2 * r, ws - 2 * r, 2), dtype=np.int64)
    for y in range(r, hs - r):
        for x in range(r, ws - r):
            tile = synth[y - r : y + r + 1, x - r : x + r + 1].transpose(2, 0, 1)
            ssd = ((wins - tile) ** 2).sum(axis=(2, 3, 4))
            ey, ex = np.unravel_index(np.argmin(ssd), ssd.shape)
            out[y - r, x - r, 0] = ey + r - y
            out[y - r, x - r, 1] = ex + r - x
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

    @pytest.mark.parametrize("ci,co", [(1, 1), (3, 16), (16, 3)])
    @pytest.mark.parametrize("h", [1, 2, 5, 8])
    @pytest.mark.parametrize("w", [1, 2, 5, 8])
    def test_every_band_size_gives_the_single_pass_bytes(self, monkeypatch, h, w, ci, co):
        rng = np.random.default_rng(h * 1000 + w * 100 + ci * 10 + co)
        x = rng.standard_normal((h, w, ci))
        kern = rng.standard_normal((co, ci, 3, 3))
        bias = rng.standard_normal(co)
        g = rng.standard_normal((h, w, co))
        # zero cotangent rows give adjoint rows of exact zeros, whose sign
        # the byte comparison checks too
        g[: h // 2] = 0.0
        want = single_pass_conv(x, kern, bias).tobytes()
        want_back = single_pass_conv_back(g, kern).tobytes()
        for rows in sorted({1, 2, 3, h - 1, h, h + 3} - {0}):
            # the budget is in bytes of output rows: 8 * w * co (forward)
            # and 8 * w * ci (adjoint) a row
            monkeypatch.setattr(_kernels, "_CONV_BAND_BYTES", rows * 8 * w * co)
            assert conv3x3(x, kern, bias).tobytes() == want, rows
            monkeypatch.setattr(_kernels, "_CONV_BAND_BYTES", rows * 8 * w * ci)
            assert conv3x3_back(g, kern).tobytes() == want_back, rows


def nine_shifts_filled(x, taps, init):
    """_nine_shifts as it was written first: each band filled with init, then
    all nine tap products added through the product buffer."""
    h, w, ci = x.shape
    co = taps.shape[3]
    rows = max(1, min(h, _kernels._CONV_BAND_BYTES // (8 * w * co)))
    xb = np.zeros((rows + 2, w + 2, ci))
    prod = np.empty((rows, w, co))
    out = np.empty((h, w, co))
    for lo in range(0, h, rows):
        n = min(rows, h - lo)
        first, last = max(lo - 1, 0), min(lo + n + 1, h)
        top = first - lo + 1
        xb[top : top + last - first, 1:-1] = x[first:last]
        xb[top + last - first : n + 2] = 0.0
        o, p = out[lo : lo + n], prod[:n]
        o[...] = init
        for u in range(3):
            for v in range(3):
                np.matmul(xb[u : u + n, v : v + w], taps[u, v], out=p)
                o += p
    return out


@pytest.mark.parametrize("ci,co", [(1, 1), (3, 16), (16, 3)])
@pytest.mark.parametrize("h,w", [(6, 8), (5, 7), (1, 6), (7, 1), (1, 1)])
def test_nine_shifts_keep_the_filled_band_bytes(monkeypatch, h, w, ci, co):
    # signed zeros and subnormals among ordinary values, in x, taps and bias
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308])
    rng = np.random.default_rng(h * 1000 + w * 100 + ci * 10 + co)
    x = np.where(rng.random((h, w, ci)) < 0.5, rng.choice(edge, (h, w, ci)),
                 rng.standard_normal((h, w, ci)))
    x[: h // 2] = rng.choice([0.0, -0.0], (h // 2, w, ci))
    taps = np.where(rng.random((3, 3, ci, co)) < 0.3, rng.choice(edge, (3, 3, ci, co)),
                    rng.standard_normal((3, 3, ci, co)))
    bias = rng.choice([0.0, -0.0, 1e-310, 0.5], co)
    for rows in (1, h + 3):
        monkeypatch.setattr(_kernels, "_CONV_BAND_BYTES", rows * 8 * w * co)
        for init in (bias, 0.0):
            assert (_kernels._nine_shifts(x, taps, init).tobytes()
                    == nine_shifts_filled(x, taps, init).tobytes()), (rows, init)


# every vgg-mini conv at a 256^2 input: (size, in channels, out channels)
CONV_DIGESTS = textwrap.dedent("""
    import hashlib
    import numpy as np
    from texsynth._kernels import conv3x3, conv3x3_back

    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for size, ci, co in [(256, 3, 16), (256, 16, 16), (128, 16, 32), (64, 32, 64)]:
        x = rng.standard_normal((size, size, ci))
        kern = rng.standard_normal((co, ci, 3, 3))
        digest.update(conv3x3(x, kern, rng.standard_normal(co)).tobytes())
        digest.update(conv3x3_back(rng.standard_normal((size, size, co)), kern).tobytes())
    print(digest.hexdigest())
""")


def test_conv_outputs_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = [
        subprocess.run([sys.executable, "-c", CONV_DIGESTS], capture_output=True, text=True,
                       check=True, timeout=120,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                       ).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


@pytest.fixture
def estimate_paths(monkeypatch):
    """The estimate precision of every displacement_search call, in order."""
    paths = []
    choose = _kernels._estimate_dtype

    def recording(k, *images):
        paths.append(choose(k, *images))
        return paths[-1]

    monkeypatch.setattr(_kernels, "_estimate_dtype", recording)
    return paths


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), patch=st.sampled_from([1, 3, 5]),
           channels=st.sampled_from([1, 3]), denom=st.sampled_from([1, 2, 4, 8, 16]))
    def test_property_matches_exhaustive_oracle_on_coarse_dyadic_grids(
        self, data, patch, channels, denom
    ):
        # values k/denom on a coarse dyadic grid make exact ties frequent,
        # and sums of their squares are exact, so the oracle's order is moot
        def image():
            h = data.draw(st.integers(patch, patch + 4))
            w = data.draw(st.integers(patch, patch + 4))
            pixels = data.draw(st.lists(st.integers(0, denom), min_size=h * w * channels,
                                        max_size=h * w * channels))
            return np.array(pixels, dtype=np.float64).reshape(h, w, channels) / denom

        synth, exemplar = image(), image()
        assert np.array_equal(
            displacement_search(synth, exemplar, patch),
            displacement_oracle(synth, exemplar, patch),
        )

    @pytest.mark.parametrize("budget", [None, 64])
    def test_non_dyadic_values_match_the_direct_search_exactly(self, monkeypatch, budget,
                                                                estimate_paths):
        # a budget of 64 bytes forces one synth row per block and one
        # candidate pair per re-rank chunk
        if budget is not None:
            monkeypatch.setattr(_kernels, "_SEARCH_BLOCK_BYTES", budget)
        rng = np.random.default_rng(7)

        def two_level(shape):
            # ties in exact arithmetic whose float sums depend on the
            # summation order, and GEMM estimates off from the exact SSD
            return np.array([0.1, 0.3])[rng.integers(0, 2, shape)]

        cases = [
            (rng.random((13, 11, 3)), rng.random((12, 14, 3)), 5),
            (rng.random((9, 10, 1)), rng.random((11, 7, 1)), 3),
            (rng.random((7, 8, 2)), rng.random((6, 6, 2)), 1),
            (two_level((12, 11, 3)), two_level((13, 12, 3)), 5),
            # one exemplar window column, which changes the summation order
            (two_level((12, 11, 3)), two_level((13, 5, 3)), 5),
        ]
        for synth, exemplar, patch in cases:
            assert np.array_equal(
                displacement_search(synth, exemplar, patch),
                direct_search(synth, exemplar, patch),
            )
        assert estimate_paths == [np.float32] * len(cases)

    @pytest.mark.parametrize("budget", [None, 64])
    @pytest.mark.parametrize("case", ["periodic", "flat", "signed-zeros", "late-duplicates"])
    def test_duplicate_windows_match_the_direct_search_exactly(self, monkeypatch, budget, case,
                                                               estimate_paths):
        if budget is not None:
            monkeypatch.setattr(_kernels, "_SEARCH_BLOCK_BYTES", budget)
        rng = np.random.default_rng(8)

        def tiling(tile, h, w):
            reps = (h // tile.shape[0] + 1, w // tile.shape[1] + 1, 1)
            return np.tile(tile, reps)[:h, :w]

        if case == "periodic":  # periods 3 and 4 divide neither side
            pairs = [(tiling(rng.random((3, 3, 3)), 13, 11),
                      tiling(rng.random((4, 4, 3)), 14, 10)),
                     (tiling(rng.random((3, 3, 1)), 13, 11),
                      tiling(rng.random((3, 3, 1)), 14, 10))]
        elif case == "flat":  # one distinct window on each side
            pairs = [(np.full((9, 10, 3), 0.3), np.full((11, 8, 3), 0.7)),
                     (np.full((9, 10, 1), 0.7), np.full((11, 8, 1), 0.7))]
        elif case == "signed-zeros":
            # windows of equal values whose bytes differ in the sign of a zero
            def signed(shape):
                img = rng.integers(0, 2, shape).astype(np.float64)
                return np.where((img == 0) & (rng.random(shape) < 0.5), -0.0, img)

            pairs = [(signed((12, 11, 1)), signed((13, 12, 1))),
                     (-np.zeros((9, 9, 3)), np.zeros((10, 9, 3))),
                     (np.zeros((9, 9, 3)), signed((10, 9, 3)) * 0.0)]
        else:
            # the exemplar's repeated windows first occur in its lower half,
            # below distinct noise, and the synth matches each of them exactly
            tile = rng.random((2, 3, 3))
            exemplar = rng.random((14, 13, 3))
            exemplar[7:] = tiling(tile, 7, 13)
            pairs = [(tiling(tile, 10, 12), exemplar),
                     (tiling(tile[:, :, :1], 10, 12), exemplar[:, :, :1])]
        for synth, exemplar in pairs:
            for patch in (1, 3, 5):
                assert np.array_equal(
                    displacement_search(synth, exemplar, patch),
                    direct_search(synth, exemplar, patch),
                ), patch
        assert estimate_paths == [np.float32] * (3 * len(pairs))

    @pytest.mark.parametrize("budget", [None, 64])
    @pytest.mark.parametrize("patch,channels", [(1, 1), (3, 3)])
    def test_blocks_mixing_decided_and_re_ranked_rows_match_the_direct_search(
            self, monkeypatch, budget, patch, channels, estimate_paths):
        # Against a 0/1 exemplar, a window of 0.5s is at the same exact SSD
        # from every exemplar window, and one of 0.5s and a few 0s and 1s
        # from every window that agrees on those, so their rows re-rank
        # many windows; a noise window has one candidate. A gray 1x1 patch
        # has two distinct exemplar windows, so a 64-byte budget holds four
        # rows, the 0.5s first; with no budget set all rows are one block.
        if budget is not None:
            monkeypatch.setattr(_kernels, "_SEARCH_BLOCK_BYTES", budget)
        rng = np.random.default_rng(9)
        synth = rng.random((12, 11, channels))
        synth[:6] = np.where(rng.random((6, 11, channels)) < 0.1,
                             rng.integers(0, 2, (6, 11, channels)), 0.5)
        exemplar = rng.integers(0, 2, (10, 9, channels)).astype(np.float64)
        assert len(np.unique(exemplar)) == 2
        assert np.array_equal(
            displacement_search(synth, exemplar, patch),
            direct_search(synth, exemplar, patch),
        )
        assert estimate_paths == [np.float32]

    @pytest.mark.parametrize("budget", [None, 64])
    def test_a_tie_heavy_periodic_pair_matches_the_direct_search(self, monkeypatch, budget,
                                                                 estimate_paths):
        # two-level tiles whose periods divide neither side: every window has
        # many exact copies, and many distinct windows tie in exact arithmetic
        # while their float sums differ
        if budget is not None:
            monkeypatch.setattr(_kernels, "_SEARCH_BLOCK_BYTES", budget)
        rng = np.random.default_rng(10)
        tile = np.array([0.1, 0.3])[rng.integers(0, 2, (4, 6, 3))]
        big = np.tile(tile, (6, 5, 1))
        synth, exemplar = big[1:22, 3:26], big[:23, :19].copy()
        exemplar[5:9, 4:8] = np.array([0.1, 0.3])[rng.integers(0, 2, (4, 4, 3))]
        for patch in (3, 5):
            assert np.array_equal(
                displacement_search(synth, exemplar, patch),
                direct_search(synth, exemplar, patch),
            ), patch
        assert estimate_paths == [np.float32] * 2

    @pytest.mark.parametrize("case,path", [
        ("at-the-bounds", np.float32),
        ("above", np.float64),
        ("below", np.float64),
        ("far-beyond", np.float64),
    ])
    def test_values_at_and_beyond_the_float32_range_match_the_direct_search(
            self, case, path, estimate_paths):
        # nonzero |pixel| from 2**-50 to 2**50 keeps the float32 estimate;
        # one pixel past either end, or far past them, falls back to float64
        rng = np.random.default_rng(12)

        def image(shape, lo, hi):
            # signed values of every binade from 2**lo to 2**hi, and zeros
            img = np.ldexp(1.0 + rng.random(shape), rng.integers(lo, hi, shape))
            img *= rng.choice([-1.0, 0.0, 1.0], shape)
            img.flat[:2] = 2.0**lo, -(2.0**hi)
            return img

        lo, hi = {"at-the-bounds": (-50, 50), "above": (-50, 50), "below": (-50, 50),
                  "far-beyond": (-1000, 500)}[case]
        synth, exemplar = image((11, 10, 3), lo, hi), image((10, 12, 3), lo, hi)
        if case == "above":
            exemplar[4, 4, 1] = np.nextafter(2.0**50, np.inf)
        elif case == "below":
            synth[6, 5, 2] = np.nextafter(2.0**-50, 0.0)
        for patch in (1, 3):
            assert np.array_equal(
                displacement_search(synth, exemplar, patch),
                direct_search(synth, exemplar, patch),
            ), patch
        assert estimate_paths == [path] * 2

    def test_a_power_of_two_scale_switches_the_path_and_keeps_the_map(self, estimate_paths):
        # scaling both images by 2**60 scales every SSD exactly, so the
        # float64 fallback must give the float32 path's map
        rng = np.random.default_rng(14)
        synth, exemplar = rng.random((14, 13, 3)), rng.random((12, 15, 3))
        maps = [displacement_search(synth * s, exemplar * s, 5) for s in (1.0, 2.0**60)]
        assert np.array_equal(*maps)
        assert estimate_paths == [np.float32, np.float64]

    def test_windows_of_more_than_2_to_the_20_values_take_float64(self):
        img = np.full((3, 3, 1), 0.5)
        assert _kernels._estimate_dtype(1 << 20, img) is np.float32
        assert _kernels._estimate_dtype((1 << 20) + 1, img) is np.float64
        assert _kernels._estimate_dtype(9, img, np.zeros((3, 3, 1))) is np.float32

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["synth", "exemplar"])
    def test_non_finite_input_rejected(self, bad, which):
        images = {"synth": np.zeros((8, 8, 1)), "exemplar": np.zeros((8, 8, 1))}
        images[which][7, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            displacement_search(images["synth"], images["exemplar"], 3)

    def test_overflowing_values_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            displacement_search(np.full((8, 8, 1), 1e200), np.zeros((8, 8, 1)), 3)

    def test_even_patch_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            displacement_search(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)), 4)

    def test_oversized_patch_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            displacement_search(np.zeros((4, 4, 1)), np.zeros((8, 8, 1)), 5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            displacement_search(np.zeros((8, 8, 1)), np.zeros((8, 8, 3)), 3)
