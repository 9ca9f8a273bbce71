"""Statistics targets, loss terms, and their gradients."""

import numpy as np
import pytest

from texsynth.imagecore import Image
from texsynth.losses import (
    autocorr_loss,
    autocorr_of,
    autocorr_target,
    circular_autocorr,
    compute_targets,
    gram_loss,
    gram_of,
    gram_target,
    spectrum_loss,
    spectrum_project,
    spectrum_target,
    total_loss,
)
from texsynth.net import LayerSpec, Network, random_weights
from texsynth.synth import MethodVariant


def fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = fn()
        flat[i] = keep - eps
        fm = fn()
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * eps)
    return g


def tiny_net(seed=0):
    specs = (
        LayerSpec("c1", "conv3x3", 3, 4),
        LayerSpec("r1", "relu", 4, 4),
        LayerSpec("p1", "pool2", 4, 4),
    )
    return Network(specs, random_weights(specs, seed))


class TestGram:
    def test_hand_example(self):
        # feature rows (1,0) and (0,2): G = F^T F / N^2 with N = 2
        f = np.array([[[1.0, 0.0]], [[0.0, 2.0]]])
        g = gram_of({"l": f})["l"]
        assert np.array_equal(g, np.array([[0.25, 0.0], [0.0, 1.0]]))

    def test_impulse_example(self):
        f = np.zeros((4, 4, 1))
        f[0, 0, 0] = 1.0
        assert np.allclose(gram_of({"l": f})["l"], [[1.0 / 256.0]])

    def test_zero_at_target(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 5, 3))
        target = gram_target({"l": f}, 2.0)
        value, cots = gram_loss({"l": f}, target)
        assert value == 0.0
        assert np.allclose(cots["l"], 0.0)

    def test_value_formula(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((4, 4, 2))
        t = rng.standard_normal((5, 3, 2))
        target = gram_target({"l": t}, 3.0)
        value, _ = gram_loss({"l": f}, target)
        diff = gram_of({"l": f})["l"] - gram_of({"l": t})["l"]
        assert np.isclose(value, 3.0 * np.sum(diff**2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 4, 2))
        target = gram_target({"l": rng.standard_normal((3, 4, 2))}, 1.5)
        _, cots = gram_loss({"l": f}, target)
        num = fd_grad(lambda: gram_loss({"l": f}, target)[0], f)
        assert np.abs(cots["l"] - num).max() < 1e-7 * max(1.0, np.abs(num).max())

    def test_layer_mismatch_rejected(self):
        f = {"a": np.zeros((2, 2, 1))}
        target = gram_target({"b": np.zeros((2, 2, 1))}, 1.0)
        with pytest.raises(ValueError, match="do not match target layers"):
            gram_loss(f, target)

    def test_per_layer_weights(self):
        rng = np.random.default_rng(3)
        feats = {"a": rng.standard_normal((3, 3, 2)), "b": rng.standard_normal((2, 2, 1))}
        tfeats = {"a": rng.standard_normal((3, 3, 2)), "b": rng.standard_normal((2, 2, 1))}
        va, _ = gram_loss(feats, gram_target(tfeats, {"a": 1.0, "b": 0.0}))
        vb, _ = gram_loss(feats, gram_target(tfeats, {"a": 0.0, "b": 1.0}))
        vab, _ = gram_loss(feats, gram_target(tfeats, {"a": 1.0, "b": 1.0}))
        assert np.isclose(va + vb, vab)


class TestSpectrum:
    def test_two_point_example(self):
        target = spectrum_target(np.array([[1.0, 0.0]]))
        proj = spectrum_project(np.array([[0.0, 2.0]]), target)
        assert np.allclose(proj, [[0.0, 1.0]], atol=1e-14)
        value, grad = spectrum_loss(np.array([[0.0, 2.0]]), target)
        assert np.isclose(value, 0.25)
        assert np.allclose(grad, [[0.0, 0.5]], atol=1e-14)

    def test_projection_fixes_the_exemplar(self):
        rng = np.random.default_rng(4)
        ex = rng.random((8, 6, 3))
        target = spectrum_target(ex)
        assert np.allclose(spectrum_project(ex, target), ex, atol=1e-12)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(5)
        target = spectrum_target(rng.random((8, 8, 3)))
        once = spectrum_project(rng.random((8, 8, 3)), target)
        twice = spectrum_project(once, target)
        assert np.abs(once - twice).max() < 1e-12

    def test_circular_shifts_have_zero_loss(self):
        rng = np.random.default_rng(6)
        ex = rng.random((8, 8, 3))
        target = spectrum_target(ex)
        for shift in ((1, 0), (0, 3), (5, 2)):
            value, _ = spectrum_loss(np.roll(ex, shift, axis=(0, 1)), target)
            assert value < 1e-20

    def test_projection_preserves_target_modulus(self):
        rng = np.random.default_rng(7)
        target = spectrum_target(rng.random((6, 7, 3)))
        proj = spectrum_project(rng.random((6, 7, 3)), target)
        got = np.abs(np.fft.fft2(proj, axes=(0, 1)))
        want = np.abs(target.freq)
        assert np.abs(got - want).max() < 1e-9

    def test_value_agrees_with_fourier_side_evaluation(self):
        rng = np.random.default_rng(8)
        ex = rng.random((6, 6, 3))
        img = rng.random((6, 6, 3))
        target = spectrum_target(ex)
        value, _ = spectrum_loss(img, target)
        n = 36
        resid_hat = np.fft.fft2(img - spectrum_project(img, target), axes=(0, 1))
        spectral = np.sum(np.abs(resid_hat) ** 2) / n / (2 * n)
        assert abs(value - spectral) < 1e-10 * max(1.0, value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        target = spectrum_target(rng.random((6, 5, 3)))
        img = rng.random((6, 5, 3))
        _, grad = spectrum_loss(img, target)
        num = fd_grad(lambda: spectrum_loss(img, target)[0], img)
        assert np.abs(grad - num).max() < 1e-7

    def test_image_in_image_out(self):
        rng = np.random.default_rng(10)
        target = spectrum_target(Image(rng.random((4, 4, 3))))
        out = spectrum_project(Image(rng.random((4, 4, 3))), target)
        assert isinstance(out, Image)

    def test_shape_mismatch_rejected(self):
        target = spectrum_target(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError, match="shape"):
            spectrum_project(np.zeros((4, 5, 3)), target)


class TestAutocorr:
    def test_impulse_examples(self):
        x = np.zeros((2, 2))
        x[0, 0] = 1.0
        c = circular_autocorr(x)
        assert np.allclose(c, [[1.0 / 16.0, 0.0], [0.0, 0.0]], atol=1e-15)
        a = autocorr_of({"l": x[:, :, None]})["l"][:, :, 0]
        assert np.allclose(a, 1.0 / 16.0, atol=1e-15)

    def test_constant_examples(self):
        x = np.ones((2, 2))
        assert np.allclose(circular_autocorr(x), 0.25, atol=1e-15)
        a = autocorr_of({"l": x[:, :, None]})["l"][:, :, 0]
        assert np.isclose(a[0, 0], 1.0)
        assert np.abs(a[0, 1]) < 1e-15 and np.abs(a[1, 0]) < 1e-15

    def test_matches_wraparound_double_sum(self):
        rng = np.random.default_rng(11)
        for h in range(1, 7):
            for w in range(1, 7):
                x = rng.standard_normal((h, w))
                direct = np.zeros((h, w))
                for dy in range(h):
                    for dx in range(w):
                        direct[dy, dx] = sum(
                            x[y, z] * x[(y + dy) % h, (z + dx) % w]
                            for y in range(h)
                            for z in range(w)
                        ) / (h * w) ** 2
                got = circular_autocorr(x)
                scale = max(np.abs(direct).max(), 1e-12)
                assert np.abs(got - direct).max() / scale < 1e-12

    def test_zero_at_target(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((4, 4, 2))
        value, cots = autocorr_loss({"l": f}, autocorr_target({"l": f}, 2.0))
        assert value == 0.0
        assert np.allclose(cots["l"], 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((4, 3, 2))
        target = autocorr_target({"l": rng.standard_normal((4, 3, 2))}, 1.2)
        _, cots = autocorr_loss({"l": f}, target)
        num = fd_grad(lambda: autocorr_loss({"l": f}, target)[0], f)
        assert np.abs(cots["l"] - num).max() < 1e-6 * max(1.0, np.abs(num).max())


class TestTargetsAndTotal:
    def test_unknown_term_rejected(self):
        ex = Image(np.random.default_rng(15).random((8, 8, 3)))

        class Cfg:
            terms = ("gram", "wavelet")
            beta = 1.0

        with pytest.raises(ValueError, match="unknown loss terms"):
            compute_targets(ex, Cfg())

    def test_feature_terms_need_a_network(self):
        ex = Image(np.random.default_rng(16).random((8, 8, 3)))
        with pytest.raises(ValueError, match="need a network"):
            compute_targets(ex, MethodVariant(("gram",)))

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(17)
        ex = Image(rng.random((8, 8, 3)))
        img = Image(rng.random((8, 8, 3)))
        net = tiny_net()
        variant = MethodVariant(("gram", "spectrum", "autocorr"), beta=10.0)
        targets = compute_targets(ex, variant, net, layers=["c1", "p1"], layer_weight=2.0)
        report = total_loss(img, variant, targets, net)
        assert np.isclose(sum(report.terms.values()), report.total)
        assert set(report.terms) == {"gram", "spectrum", "autocorr"}

    def test_spectrum_term_scales_with_beta(self):
        rng = np.random.default_rng(18)
        ex = Image(rng.random((8, 8, 3)))
        img = Image(rng.random((8, 8, 3)))
        variant = MethodVariant(("spectrum",), beta=50.0)
        targets = compute_targets(ex, variant)
        report = total_loss(img, variant, targets)
        raw, _ = spectrum_loss(img.data, targets.spectrum)
        assert np.isclose(report.spectrum_distance, raw)
        assert np.isclose(report.terms["spectrum"], 50.0 * raw)

    def test_gram_only_total_is_the_gram_term(self):
        rng = np.random.default_rng(19)
        ex = Image(rng.random((8, 8, 3)))
        img = Image(rng.random((8, 8, 3)))
        net = tiny_net()
        variant = MethodVariant(("gram",))
        targets = compute_targets(ex, variant, net, layers=["p1"])
        report = total_loss(img, variant, targets, net)
        assert report.total == report.terms["gram"]
        assert report.spectrum_distance is None

    def test_total_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        ex = Image(rng.random((6, 6, 3)))
        net = tiny_net(seed=2)
        variant = MethodVariant(("gram", "spectrum", "autocorr"), beta=7.0)
        targets = compute_targets(ex, variant, net, layers=["c1", "p1"], layer_weight=1.0)
        x = rng.random((6, 6, 3)) * 0.6 + 0.2

        def value():
            return total_loss(x, variant, targets, net).total

        grad = total_loss(x, variant, targets, net).grad
        num = fd_grad(value, x)
        assert np.abs(grad - num).max() / max(np.abs(num).max(), 1e-12) < 1e-6
