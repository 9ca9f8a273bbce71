"""Statistics targets, loss terms, and their gradients."""

import json
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from texsynth import losses
from texsynth.imagecore import Image
from texsynth.losses import (
    autocorr_loss,
    autocorr_target,
    circular_autocorr,
    compute_targets,
    gram_loss,
    gram_target,
    spectrum_loss,
    spectrum_project,
    spectrum_target,
    StatTargets,
    total_loss,
)
from texsynth.net import (LayerSpec, Network, forward as net_forward, forward_with_pullback,
                          make_network, random_weights)
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
        g = gram_target(f)
        assert np.array_equal(g, np.array([[0.25, 0.0], [0.0, 1.0]]))

    def test_impulse_example(self):
        f = np.zeros((4, 4, 1))
        f[0, 0, 0] = 1.0
        assert np.allclose(gram_target(f), [[1.0 / 256.0]])

    def test_zero_at_target(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 5, 3))
        value, cot = gram_loss(f, gram_target(f), 2.0)
        assert value == 0.0
        assert np.allclose(cot, 0.0)

    def test_value_formula(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((4, 4, 2))
        t = rng.standard_normal((5, 3, 2))
        value, _ = gram_loss(f, gram_target(t), 3.0)
        diff = gram_target(f) - gram_target(t)
        assert np.isclose(value, 3.0 * np.sum(diff**2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((3, 4, 2))
        target = gram_target(rng.standard_normal((3, 4, 2)))
        _, cot = gram_loss(f, target, 1.5)
        num = fd_grad(lambda: gram_loss(f, target, 1.5)[0], f)
        assert np.abs(cot - num).max() < 1e-7 * max(1.0, np.abs(num).max())


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
        exemplar = rng.random((6, 7, 3))
        target = spectrum_target(exemplar)
        proj = spectrum_project(rng.random((6, 7, 3)), target)
        got = np.abs(np.fft.fft2(proj, axes=(0, 1)))
        want = np.abs(np.fft.fft2(exemplar, axes=(0, 1)))
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
        a = autocorr_target(x[:, :, None])[:, :, 0]
        assert np.allclose(a, 1.0 / 16.0, atol=1e-15)

    def test_constant_examples(self):
        x = np.ones((2, 2))
        assert np.allclose(circular_autocorr(x), 0.25, atol=1e-15)
        a = autocorr_target(x[:, :, None])[:, :, 0]
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
        value, cot = autocorr_loss(f, autocorr_target(f), 2.0)
        assert value == 0.0
        assert np.allclose(cot, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((4, 3, 2))
        target = autocorr_target(rng.standard_normal((4, 3, 2)))
        _, cot = autocorr_loss(f, target, 1.2)
        num = fd_grad(lambda: autocorr_loss(f, target, 1.2)[0], f)
        assert np.abs(cot - num).max() < 1e-6 * max(1.0, np.abs(num).max())


def full_autocorr(f):
    """The full-spectrum statistic the half-spectrum one replaced:
    |fft2 f|^2 / N^2, and its adjoint (diff, w) -> (4 w / N) Re ifft2(diff * fft2 f)."""
    n = f.shape[0] * f.shape[1]
    fhat = np.fft.fft2(f, axes=(0, 1))

    def adjoint(diff, w):
        return (4.0 * w / n) * np.real(np.fft.ifft2(diff * fhat, axes=(0, 1)))

    return np.abs(fhat) ** 2 / n**2, adjoint


def full_autocorr_loss(f, g, w):
    """Value and cotangent of the autocorr term for feature f and exemplar
    feature g, summed over the full spectrum."""
    diff, adjoint = full_autocorr(f)
    diff -= full_autocorr(g)[0]
    return w * np.sum(diff**2), adjoint(diff, w)


def full_spectrum_project(data, exemplar):
    """The full-spectrum projection the half-spectrum one replaced, and the
    number of bins whose cross modulus is under the threshold."""
    freq = np.fft.fft2(exemplar, axes=(0, 1))
    fimg = np.fft.fft2(data, axes=(0, 1))
    cross = np.sum(fimg * np.conj(freq), axis=2)
    mod = np.abs(cross)
    thr = 1e-12 * mod.mean()
    phase = np.where(mod <= thr, 1.0 + 0.0j, cross / np.where(mod > 0, mod, 1.0))
    return np.real(np.fft.ifft2(phase[:, :, None] * freq, axes=(0, 1))), np.sum(mod <= thr)


def full_spectrum_loss(data, exemplar):
    proj = full_spectrum_project(data, exemplar)[0]
    n = data.shape[0] * data.shape[1]
    resid = data - proj
    return float(np.sum(resid**2) / (2 * n)), resid / n


def rel_err(got, want):
    return np.abs(np.asarray(got) - want).max() / max(np.abs(want).max(), 1e-300)


HALF_SPECTRUM_SHAPES = [(h, w, c) for h in range(1, 8) for w in range(1, 8) for c in (1, 3)]


class TestHalfSpectraAgainstFullSpectra:
    """The half-spectrum terms against the full-spectrum code they replaced."""

    @pytest.mark.parametrize("shape", HALF_SPECTRUM_SHAPES, ids=str)
    def test_autocorr_value_and_gradient(self, shape):
        rng = np.random.default_rng(shape)
        f, g = rng.standard_normal(shape), rng.standard_normal(shape)
        value, cot = autocorr_loss(f, autocorr_target(g), 1.7)
        want_value, want_cot = full_autocorr_loss(f, g, 1.7)
        assert rel_err(value, want_value) <= 1e-13
        assert rel_err(cot, want_cot) <= 1e-13

    @pytest.mark.parametrize("shape", HALF_SPECTRUM_SHAPES, ids=str)
    def test_spectrum_projection_value_and_gradient(self, shape):
        rng = np.random.default_rng(shape)
        exemplar, img = rng.random(shape), rng.random(shape)
        self.check_spectrum(img, exemplar)

    @pytest.mark.parametrize("case", ["constant-image", "constant-exemplar", "zero-image",
                                      "constant-row", "one-plane-wave"])
    @pytest.mark.parametrize("shape", [(1, 6, 3), (4, 4, 1), (5, 7, 3), (6, 4, 3)], ids=str)
    def test_spectrum_bins_under_the_threshold(self, case, shape):
        # every cross-spectrum bin but a few is zero, or rounding-level
        rng = np.random.default_rng(30)
        exemplar, img = rng.random(shape), rng.random(shape)
        if case == "constant-image":
            img = np.full(shape, 0.3)
        elif case == "constant-exemplar":
            exemplar = np.full(shape, 0.6)
        elif case == "zero-image":
            img = np.zeros(shape)
        elif case == "constant-row":
            img, exemplar = np.full((1,) + shape[1:], 0.3), exemplar[:1]
        else:
            y, x = np.mgrid[: shape[0], : shape[1]]
            wave = 0.5 + 0.4 * np.cos(2 * np.pi * (y / shape[0] + x / shape[1]))
            img = np.repeat(wave[:, :, None], shape[2], axis=2)
        assert self.check_spectrum(img, exemplar) > 0

    @staticmethod
    def check_spectrum(img, exemplar):
        """Compare with the full-spectrum code; the reference's bins under the threshold."""
        target = spectrum_target(exemplar)
        want_proj, under = full_spectrum_project(img, exemplar)
        assert rel_err(spectrum_project(img, target), want_proj) <= 1e-13
        value, grad = spectrum_loss(img, target)
        want_value, want_grad = full_spectrum_loss(img, exemplar)
        assert rel_err(value, want_value) <= 1e-13
        assert rel_err(grad, want_grad) <= 1e-13
        return under


class TestTargetsAndTotal:
    def test_feature_terms_need_a_network(self):
        ex = Image(np.random.default_rng(16).random((8, 8, 3)))
        with pytest.raises(ValueError, match="need a network"):
            compute_targets(ex, MethodVariant(("gram",)))

    @pytest.mark.parametrize("terms", [("gram",), ("spectrum", "autocorr")])
    def test_feature_terms_need_a_network_in_the_total_too(self, monkeypatch, terms):
        rng = np.random.default_rng(24)
        ex = rng.random((8, 8, 3))
        variant = MethodVariant(terms)
        targets = compute_targets(ex, variant, tiny_net(), layers=["c1", "p1"])
        made = []
        monkeypatch.setattr(losses, "_Task", lambda *args: made.append(args))
        with pytest.raises(ValueError, match="^feature-statistics terms need a network$"):
            total_loss(rng.random((8, 8, 3)), variant, targets)
        assert made == []

    @pytest.mark.parametrize("missing", ["gram", "spectrum", "autocorr"])
    def test_an_active_term_without_its_target_is_rejected(self, missing):
        rng = np.random.default_rng(23)
        ex = rng.random((8, 8, 3))
        net = tiny_net()
        everything = MethodVariant(("gram", "spectrum", "autocorr"))
        others = MethodVariant(tuple(t for t in everything.terms if t != missing))
        targets = compute_targets(ex, others, net, layers=["c1", "p1"])
        with pytest.raises(ValueError, match=f"^{missing} term active but no {missing} target$"):
            total_loss(rng.random((8, 8, 3)), everything, targets, net)

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(17)
        ex = Image(rng.random((8, 8, 3)))
        img = Image(rng.random((8, 8, 3)))
        net = tiny_net()
        variant = MethodVariant(("gram", "spectrum", "autocorr"), beta=10.0, layer_weight=2.0)
        targets = compute_targets(ex, variant, net, layers=["c1", "p1"])
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

    def test_hand_built_targets_name_their_layers(self):
        rng = np.random.default_rng(21)
        net = tiny_net()
        variant = MethodVariant(("gram",), layer_weight=2.0)
        targets = StatTargets(gram={"p1": gram_target(rng.standard_normal((4, 4, 4)))})
        assert targets.stats_layers == ["p1"] and targets.dropped_layers == []
        x = rng.random((8, 8, 3))
        report = total_loss(x, variant, targets, net)
        f = net_forward(net, x, ["p1"])["p1"]
        assert report.total == gram_loss(f, targets.gram["p1"], 2.0)[0]

    def test_total_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        ex = Image(rng.random((6, 6, 3)))
        net = tiny_net(seed=2)
        variant = MethodVariant(("gram", "spectrum", "autocorr"), beta=7.0, layer_weight=1.0)
        targets = compute_targets(ex, variant, net, layers=["c1", "p1"])
        x = rng.random((6, 6, 3)) * 0.6 + 0.2

        def value():
            return total_loss(x, variant, targets, net).total

        grad = total_loss(x, variant, targets, net).grad
        num = fd_grad(value, x)
        assert np.abs(grad - num).max() / max(np.abs(num).max(), 1e-12) < 1e-6

    @pytest.mark.parametrize("pool", ["avg", "max"])
    @pytest.mark.parametrize("terms", [("gram",), ("spectrum",), ("autocorr",),
                                       ("gram", "spectrum"), ("gram", "autocorr"),
                                       ("spectrum", "autocorr"),
                                       ("gram", "spectrum", "autocorr")])
    def test_the_sum_has_the_bytes_of_a_zero_filled_sum(self, terms, pool):
        # gram reads p1 only and autocorr c1 and p1, so one layer gets one
        # term's cotangent and the other two; max pooling routes exact zeros
        rng = np.random.default_rng(22)
        base = tiny_net(seed=3)
        net = Network(base.specs, base.weights, pool=pool)
        ex = rng.random((8, 8, 3))
        feats = net_forward(net, ex, ["c1", "p1"])
        targets = StatTargets(gram={"p1": gram_target(feats["p1"])},
                              spectrum=spectrum_target(ex),
                              autocorr={name: autocorr_target(f) for name, f in feats.items()})
        variant = MethodVariant(terms, beta=5.0, layer_weight=3.0)
        x = rng.random((8, 8, 3))
        report = total_loss(x, variant, targets, net)
        total, values, grad = zero_filled_total_loss(x, variant, targets, net)
        assert (report.total, report.terms) == (total, values)
        assert report.grad.tobytes() == grad.tobytes()


def zero_filled_total_loss(x, cfg, targets, net):
    """total_loss as it was summed before it added only what its terms
    return: into zero-filled cotangents and a zero-filled gradient, each
    term's value summed from 0.0 over its layers in target order."""
    values, grad = {}, np.zeros_like(x)
    active = [term for term in ("gram", "autocorr") if term in cfg.terms]
    if active:
        feats, pull = forward_with_pullback(net, x, targets.stats_layers)
        cots = {name: np.zeros_like(f) for name, f in feats.items()}
        for term in active:
            loss = {"gram": gram_loss, "autocorr": autocorr_loss}[term]
            values[term] = 0.0
            for name, target in getattr(targets, term).items():
                value, cot = loss(feats[name], target, cfg.layer_weight)
                values[term] += value
                cots[name] += cot
        grad += pull(cots)
    if "spectrum" in cfg.terms:
        value, sgrad = spectrum_loss(x, targets.spectrum)
        values["spectrum"] = cfg.beta * value
        grad += cfg.beta * sgrad
    return float(sum(values.values())), values, grad


TRACED_LOSS = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    sys.path[:0] = sys.argv[1:3]
    import tracing
    from texsynth import losses, net, synth

    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    rng = np.random.default_rng(0)
    ex, img = rng.random((32, 32, 3)), rng.random((32, 32, 3))
    network = net.make_network(seed=0)
    variant = synth.MethodVariant.parse("gram+spectrum+autocorr")
    targets = losses.compute_targets(ex, variant, network)
    losses.total_loss(img, variant, targets, network)
    print(json.dumps(sorted({span[0] for span in tracer.spans})))
""")


TRACED_SYNTH = textwrap.dedent("""
    import json
    import os
    import sys

    import numpy as np

    sys.path[:0] = sys.argv[1:3]
    import tracing
    from texsynth import cli, imagecore

    rng = np.random.default_rng(0)
    ex = os.path.join(sys.argv[3], "ex.ppm")
    imagecore.write_image(imagecore.Image(rng.random((16, 16, 3))), ex)
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    rc = cli.main(["synth", "--exemplar", ex, "--out", os.path.join(sys.argv[3], "out.ppm"),
                   "--variant", "gram+msinit", "--K", "1", "--iterations", "2"])
    print(json.dumps([rc, sorted({span[0] for span in tracer.spans})]))
""")


def traced_run(script, *args):
    """Run `script` with perfbench's tracer importable; its last stdout line."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "perfbench"), str(root / "src"), *args],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_hooks_fire_on_the_loss_path():
    names = set(traced_run(TRACED_LOSS))
    assert {"losses.gram", "losses.autocorr", "losses.spectrum", "losses.total_loss",
            "net.forward", "net.pullback", "kernels.conv_fwd", "kernels.conv_adj",
            "synth.targets"} <= names


def test_tracer_hooks_fire_on_the_cli_path(tmp_path):
    rc, names = traced_run(TRACED_SYNTH, str(tmp_path))
    assert rc == 0
    assert {"cli.main", "imagecore.read", "imagecore.write", "imagecore.pyramid",
            "imagecore.upsample", "synth.multiscale", "optim.minimize"} <= set(names)


# (size, channels, pooled): gray and RGB either side of losses.POOL_MIN_PIXELS,
# and the RGB sizes either side of it, which it shares with the 32768-value
# threshold it replaced.
POOL_CASES = [(96, 1, False), (96, 3, False), (104, 3, False), (105, 3, True),
              (112, 1, True), (112, 3, True)]
TERM_SETS = ["gram", "spectrum", "autocorr", "gram+spectrum", "gram+autocorr",
             "spectrum+autocorr", "gram+spectrum+autocorr"]


def report_bytes(report):
    return (report.total, report.terms, report.spectrum_distance, report.grad.tobytes())


def loss_case(size, channels, pool, variant):
    rng = np.random.default_rng([size, channels])
    ex, img = rng.random((size, size, channels)), rng.random((size, size, channels))
    network = make_network(in_channels=channels, seed=0, pool=pool)
    cfg = MethodVariant.parse(variant)
    return img, cfg, compute_targets(ex, cfg, network), network


@pytest.mark.parametrize("pool", ["avg", "max"])
@pytest.mark.parametrize("variant", TERM_SETS)
def test_the_worker_pool_moves_no_byte(monkeypatch, variant, pool):
    worker_pool, chosen = losses.worker_pool, []
    monkeypatch.setattr(losses, "worker_pool",
                        lambda n: chosen.append(worker_pool(n)) or chosen[-1])
    for size, channels, on_pool in POOL_CASES:
        img, cfg, targets, network = loss_case(size, channels, pool, variant)
        monkeypatch.setattr(losses, "WORKERS", 0)
        inline = total_loss(img, cfg, targets, network)
        monkeypatch.setattr(losses, "WORKERS", 1)
        pooled = total_loss(img, cfg, targets, network)
        assert (chosen[-1] is not None) == on_pool
        assert report_bytes(pooled) == report_bytes(inline)
        assert list(pooled.terms) == [t for t in ("gram", "autocorr", "spectrum")
                                      if t in cfg.terms]


@pytest.mark.parametrize("pool", ["avg", "max"])
@pytest.mark.parametrize("size", [64, 112], ids=["inline", "pooled"])
def test_four_layer_sums_have_the_bytes_of_the_all_layer_term_functions(monkeypatch, size, pool):
    # the per-layer tasks add each term's four layer values in the order
    # zero_filled_total_loss adds them, one layer after another
    monkeypatch.setattr(losses, "WORKERS", 1)
    img, cfg, targets, network = loss_case(size, 3, pool, "gram+spectrum+autocorr")
    report = total_loss(img, cfg, targets, network)
    total, values, grad = zero_filled_total_loss(img, cfg, targets, network)
    assert (report.total, report.terms) == (total, values)
    assert report.grad.tobytes() == grad.tobytes()


def test_tasks_the_worker_has_not_started_are_run_by_the_caller(monkeypatch):
    img, cfg, targets, network = loss_case(112, 3, "avg", "gram+spectrum+autocorr")
    inline = losses._evaluate(img, cfg, targets, network, None)
    ran_on = set()
    for name in ("gram_loss", "autocorr_loss", "spectrum_loss"):
        def record(*args, fn=getattr(losses, name)):
            ran_on.add(threading.get_ident())
            return fn(*args)

        monkeypatch.setattr(losses, name, record)
    hold = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        held = pool.submit(hold.wait, 60)  # the one worker waits until every task is cancelled
        try:
            report = losses._evaluate(img, cfg, targets, network, pool)
        finally:
            hold.set()
        assert held.result(timeout=60)
    assert ran_on == {threading.get_ident()}
    assert report_bytes(report) == report_bytes(inline)


def test_a_task_the_worker_ran_keeps_the_workers_result():
    with ThreadPoolExecutor(1) as pool:
        task = losses._Task(pool, threading.get_ident)
        task._future.result()  # finished, so it cannot be cancelled
        assert task.result() != threading.get_ident()
        assert task.result() == task.result()
    assert losses._Task(None, threading.get_ident).result() == threading.get_ident()


def test_a_failing_task_reaches_the_caller_and_no_task_is_left_queued(monkeypatch):
    img, cfg, targets, network = loss_case(112, 3, "avg", "gram+spectrum+autocorr")

    def fail(*args):
        raise RuntimeError("term failed")

    monkeypatch.setattr(losses, "autocorr_loss", fail)
    hold = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        held = pool.submit(hold.wait, 60)
        futures = []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: futures.append(submit(*a)) or futures[-1])
        try:
            with pytest.raises(RuntimeError, match="term failed"):
                losses._evaluate(img, cfg, targets, network, pool)
        finally:
            hold.set()
        assert held.result(timeout=60)
    assert futures and all(f.cancelled() for f in futures)


def test_the_bytes_hold_with_more_workers_than_cpus_switching_often():
    img, cfg, targets, network = loss_case(112, 3, "max", "gram+spectrum+autocorr")
    inline = report_bytes(losses._evaluate(img, cfg, targets, network, None))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * (os.cpu_count() or 1)) as pool:
            for _ in range(5):
                assert report_bytes(losses._evaluate(img, cfg, targets, network, pool)) == inline
    finally:
        sys.setswitchinterval(interval)


POOL_IMPORT = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    from texsynth import _kernels, losses, net, synth

    threads = _kernels.openblas_function("get_num_threads")
    seen = []
    for size in (64, 128):
        rng = np.random.default_rng(size)
        ex, img = rng.random((size, size, 3)), rng.random((size, size, 3))
        network = net.make_network(seed=0)
        variant = synth.MethodVariant.parse("gram+spectrum")
        losses.total_loss(img, variant, losses.compute_targets(ex, variant, network), network)
        seen.append(["concurrent.futures" in sys.modules, threads and threads()])
    print(json.dumps(seen))
""")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker pool needs 2 CPUs")
def test_the_pool_is_made_above_the_threshold_and_holds_openblas_at_1_thread():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**{k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")},
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORT], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    (small_pool, small_threads), (large_pool, large_threads) = json.loads(proc.stdout)
    assert not small_pool and large_pool
    assert large_threads in (None, 1)
    assert small_threads is None or small_threads > 1
