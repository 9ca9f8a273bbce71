"""Synthesis driver: variants, noise init, sessions, and behavior."""

import json
import math

import numpy as np
import pytest

from texsynth import losses, optim, synth
from texsynth.imagecore import Image, InputError, serialize_pnm
from texsynth.losses import compute_targets, spectrum_loss, spectrum_target
from texsynth.net import LayerSpec, Network, make_network, random_weights
from texsynth.optim import LbfgsConfig
from texsynth.synth import (
    MethodVariant,
    SynthSession,
    exemplar_hash,
    synth_multiscale,
    synth_single_scale,
    white_noise,
)


def periodic_rgb(n=64):
    y, x = np.mgrid[0:n, 0:n].astype(float)
    r = 0.5 + 0.2 * np.sin(2 * np.pi * x / 8) * np.cos(2 * np.pi * y / 16)
    g = 0.5 + 0.2 * np.sin(2 * np.pi * (x + y) / 16)
    b = 0.5 + 0.2 * np.cos(2 * np.pi * y / 8)
    return Image(np.stack([r, g, b], axis=2))


def three_layer_net(seed=3):
    """Three layers named as vgg-mini's, so that the default statistics
    layers it has are conv1_1 and pool1."""
    specs = (
        LayerSpec("conv1_1", "conv3x3", 3, 8),
        LayerSpec("relu1_1", "relu", 8, 8),
        LayerSpec("conv1_2", "conv3x3", 8, 16),
        LayerSpec("relu1_2", "relu", 16, 16),
        LayerSpec("pool1", "pool2", 16, 16),
    )
    return Network(specs, random_weights(specs, seed))


class TestVariant:
    def test_parse_round_trips(self):
        v = MethodVariant.parse("gram+spectrum+msinit")
        assert v.terms == ("gram", "spectrum")
        assert v.multiscale
        assert v.to_string() == "gram+spectrum+msinit"

    def test_parse_applies_overrides(self):
        v = MethodVariant.parse("spectrum", beta=250.0, K=4)
        assert v.beta == 250.0 and v.K == 4 and not v.multiscale

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown variant tokens"):
            MethodVariant.parse("gram+fourier")

    def test_repeated_token_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            MethodVariant.parse("gram+gram")

    def test_msinit_alone_has_no_loss_term(self):
        with pytest.raises(ValueError, match="at least one loss term"):
            MethodVariant.parse("msinit")

    def test_negative_K_rejected(self):
        with pytest.raises(ValueError, match="K must be"):
            MethodVariant(("gram",), K=-1)

    def test_unknown_term_rejected(self):
        with pytest.raises(InputError, match=r"^unknown loss terms: \['wavelet'\]$"):
            MethodVariant(("gram", "wavelet"))

    @pytest.mark.parametrize("make, message", [
        (lambda: MethodVariant(("spectrum",), beta=0.0),
         "variant 'spectrum' has no term of nonzero weight: beta is 0"),
        (lambda: MethodVariant(("gram",), layer_weight=0.0),
         "variant 'gram' has no term of nonzero weight: layer_weight is 0"),
        (lambda: MethodVariant.parse("autocorr+msinit", layer_weight=0.0),
         "variant 'autocorr+msinit' has no term of nonzero weight: layer_weight is 0"),
    ], ids=["spectrum", "gram", "autocorr+msinit"])
    def test_active_terms_that_all_weigh_0_are_rejected(self, make, message):
        # with the message the CLI prints for the same options
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("terms, zeros", [
        (("gram", "spectrum"), {"beta": 0.0}), (("spectrum",), {"layer_weight": 0.0}),
    ])
    def test_one_term_of_nonzero_weight_is_enough(self, terms, zeros):
        assert MethodVariant(terms, **zeros).terms == terms

    @pytest.mark.parametrize("terms, name, value", [
        (("spectrum",), "beta", -1.0), (("spectrum",), "beta", math.nan),
        (("spectrum",), "beta", math.inf), (("gram",), "beta", -math.inf),
        (("gram",), "layer_weight", -5.0), (("autocorr",), "layer_weight", math.nan),
        (("spectrum",), "layer_weight", math.inf),
    ])
    def test_a_negative_or_non_finite_weight_is_rejected(self, terms, name, value):
        # whether or not its term is active, with the message the CLI prints
        with pytest.raises(InputError) as info:
            MethodVariant(terms, **{name: value})
        assert str(info.value) == f"{name} must be finite and >= 0, got {value!r}"


class TestWhiteNoise:
    def test_default_is_unit_uniform(self):
        img = white_noise(64, 64, 3, seed=0)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0
        assert abs(img.data.mean() - 0.5) < 0.01
        assert abs(img.data.std() / np.sqrt(1.0 / 12.0) - 1.0) < 0.05

    def test_deterministic_in_seed(self):
        a = white_noise(16, 16, 3, seed=5)
        b = white_noise(16, 16, 3, seed=5)
        c = white_noise(16, 16, 3, seed=6)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_matches_requested_channel_stats(self):
        mean = np.array([0.2, 0.5, 0.8])
        std = np.array([0.05, 0.1, 0.02])
        img = white_noise(128, 128, 3, seed=1, mean=mean, std=std)
        assert np.abs(img.data.mean(axis=(0, 1)) - mean).max() < 0.01
        assert np.abs(img.data.std(axis=(0, 1)) / std - 1.0).max() < 0.05


class TestStatsLayers:
    """compute_targets picks the layers and drops those under 2x2."""

    def layers(self, n, stats_layers=None):
        net = make_network(in_channels=3, seed=0)
        targets = compute_targets(periodic_rgb(n), MethodVariant(("gram", "autocorr")), net,
                                  layers=stats_layers)
        assert list(targets.gram) == list(targets.autocorr) == targets.stats_layers
        return targets.stats_layers, targets.dropped_layers

    def test_tiny_input_drops_deep_layers(self):
        kept, dropped = self.layers(8)
        assert kept == ["conv1_1", "pool1", "pool2"]
        assert dropped == ["pool3"]

    def test_large_input_keeps_all(self):
        kept, dropped = self.layers(64)
        assert kept == ["conv1_1", "pool1", "pool2", "pool3"]
        assert dropped == []

    def test_requested_layers_obey_the_same_rule(self):
        kept, dropped = self.layers(4, ["conv1_2", "pool2", "pool1"])
        assert kept == ["conv1_2", "pool1"]
        assert dropped == ["pool2"]

    def test_only_sub_2x2_layers_raise(self):
        with pytest.raises(ValueError, match=r"no statistics layer has a >= 2x2 feature map at 4x4"):
            self.layers(4, ["pool2", "pool3"])

    def test_unknown_layers_reach_the_network(self):
        with pytest.raises(ValueError, match="unknown layers requested"):
            self.layers(8, ["pool1", "pool9"])

    def test_scale_records_list_kept_and_dropped_layers(self):
        v = MethodVariant(("gram",), multiscale=True, K=1)
        _, session = synth_multiscale(periodic_rgb(16), v, make_network(in_channels=3, seed=0),
                                      0, lbfgs=LbfgsConfig(max_iter=0))
        assert [(rec["k"], rec["stats_layers"], rec["dropped_layers"])
                for rec in session.scales] == [
            (1, ["conv1_1", "pool1", "pool2"], ["pool3"]),
            (0, ["conv1_1", "pool1", "pool2", "pool3"], []),
        ]


class TestSingleScale:
    def test_init_dim_mismatch_rejected(self):
        ex = periodic_rgb(16)
        with pytest.raises(ValueError, match="init dims"):
            synth_single_scale(
                ex, MethodVariant(("spectrum",)), None, 0, init=periodic_rgb(32)
            )

    def test_feature_terms_require_network(self):
        with pytest.raises(ValueError, match="need a network"):
            synth_single_scale(periodic_rgb(16), MethodVariant(("gram",)), None, 0)

    def test_exemplar_init_is_already_converged(self):
        ex = periodic_rgb(32)
        net = three_layer_net()
        _, trace, _ = synth_single_scale(
            ex,
            MethodVariant(("gram", "spectrum")),
            net,
            0,
            init=ex,
        )
        assert trace.iterations == 0
        assert trace.values[0] < 1e-18

    def test_deterministic_output_bytes(self):
        ex = periodic_rgb(16)
        cfg = LbfgsConfig(max_iter=20)
        runs = [
            synth_single_scale(ex, MethodVariant(("spectrum",)), None, 7, lbfgs=cfg)[0]
            for _ in range(2)
        ]
        assert serialize_pnm(runs[0]) == serialize_pnm(runs[1])

    def test_record_summarizes_the_run(self):
        ex = periodic_rgb(16)
        net = three_layer_net()
        _, trace, record = synth_single_scale(
            ex,
            MethodVariant(("gram", "spectrum")),
            net,
            0,
            lbfgs=LbfgsConfig(max_iter=5),
        )
        assert record["dims"] == [16, 16, 3]
        assert record["stats_layers"] == ["conv1_1", "pool1"]
        assert record["dropped_layers"] == []
        assert record["trace"]["iterations"] == trace.iterations
        assert "spectrum" in record["final_terms"]
        assert record["final_spectrum_distance"] is not None

    def test_trace_strictly_decreases(self):
        ex = periodic_rgb(16)
        net = three_layer_net()
        _, trace, _ = synth_single_scale(
            ex,
            MethodVariant(("gram",)),
            net,
            1,
            lbfgs=LbfgsConfig(max_iter=30),
        )
        vals = trace.values
        assert len(vals) >= 2
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_gram_only_loss_collapses_from_noise(self):
        """A few hundred iterations should shed >95% of the initial loss."""
        ex = periodic_rgb(64)
        net = three_layer_net()
        _, trace, _ = synth_single_scale(
            ex,
            MethodVariant(("gram",)),
            net,
            0,
            lbfgs=LbfgsConfig(max_iter=500),
        )
        assert trace.values[-1] < 0.05 * trace.values[0]

    def test_spectrum_only_reaches_the_constraint_set(self):
        ex = periodic_rgb(32)
        _, trace, _ = synth_single_scale(
            ex, MethodVariant(("spectrum",)), None, 0, lbfgs=LbfgsConfig(max_iter=200)
        )
        assert trace.values[-1] < 1e-3 * trace.values[0]


class TestFinalTerms:
    def count_loss_calls(self, monkeypatch):
        calls = []
        total_loss = losses.total_loss

        def counted(*args, **kwargs):
            calls.append(1)
            return total_loss(*args, **kwargs)

        monkeypatch.setattr(losses, "total_loss", counted)
        return calls

    @pytest.mark.parametrize("terms, lbfgs, termination", [
        (("gram", "spectrum"), LbfgsConfig(max_iter=5), "max_iter"),
        (("spectrum",), LbfgsConfig(grad_tol=1e-6), "grad_tol"),
    ], ids=["max_iter", "grad_tol"])
    def test_the_loss_is_evaluated_only_by_the_optimizer(self, monkeypatch, terms, lbfgs,
                                                         termination):
        calls = self.count_loss_calls(monkeypatch)
        v = MethodVariant(terms, multiscale=True, K=1)
        _, session = synth_multiscale(periodic_rgb(16), v, three_layer_net(), 0, lbfgs=lbfgs)
        assert [rec["trace"]["termination"] for rec in session.scales] == [termination] * 2
        assert len(calls) == sum(rec["trace"]["n_evals"] for rec in session.scales)

    @pytest.mark.parametrize("probe_last", [False, True],
                             ids=["line_search_failure", "probe-off-the-result"])
    def test_final_terms_are_at_the_result(self, monkeypatch, probe_last):
        if probe_last:
            minimize = optim.minimize

            def minimize_then_probe(fun, x0, cfg):
                x, trace = minimize(fun, x0, cfg)
                fun(x + 0.25)  # the optimizer's last evaluation is not at its result
                return x, trace

            monkeypatch.setattr(optim, "minimize", minimize_then_probe)
        ex = periodic_rgb(16)
        v = MethodVariant(("spectrum",))
        result, trace, record = synth_single_scale(ex, v, None, 0,
                                                   lbfgs=LbfgsConfig(grad_tol=0.0))
        assert trace.termination == "line_search_failure"
        fresh = losses.total_loss(result, v, losses.compute_targets(ex, v, None))
        assert record["final_terms"] == fresh.terms
        assert record["final_spectrum_distance"] == fresh.spectrum_distance


class TestMultiscale:
    def test_k0_equals_single_scale(self):
        ex = periodic_rgb(16)
        cfg = LbfgsConfig(max_iter=15)
        v = MethodVariant(("spectrum",), multiscale=True, K=0)
        multi, session = synth_multiscale(ex, v, None, 4, lbfgs=cfg)
        single, _, _ = synth_single_scale(ex, v, None, 4, lbfgs=cfg)
        assert serialize_pnm(multi) == serialize_pnm(single)
        assert len(session.scales) == 1

    def test_multiscale_flag_off_ignores_K(self):
        ex = periodic_rgb(16)
        cfg = LbfgsConfig(max_iter=10)
        v = MethodVariant(("spectrum",), multiscale=False, K=5)
        _, session = synth_multiscale(ex, v, None, 0, lbfgs=cfg)
        assert session.K == 0
        assert len(session.scales) == 1

    def test_pyramid_descends_coarse_to_fine(self):
        ex = periodic_rgb(64)
        cfg = LbfgsConfig(max_iter=8)
        v = MethodVariant(("spectrum",), multiscale=True, K=2)
        out, session = synth_multiscale(ex, v, None, 0, lbfgs=cfg)
        assert (out.h, out.w) == (64, 64)
        assert [rec["k"] for rec in session.scales] == [2, 1, 0]
        assert [rec["dims"][:2] for rec in session.scales] == [[16, 16], [32, 32], [64, 64]]

    def test_session_json_round_trips(self):
        ex = periodic_rgb(16)
        cfg = LbfgsConfig(max_iter=5)
        v = MethodVariant(("gram", "spectrum"), multiscale=True, K=1)
        net = three_layer_net()
        _, session = synth_multiscale(
            ex, v, net, 2, lbfgs=cfg, exemplar_path="ex.ppm"
        )
        back = SynthSession(**json.loads(session.to_json()))
        assert back.to_json() == session.to_json()
        assert back.exemplar["sha256"] == exemplar_hash(ex)
        assert back.variant == "gram+spectrum+msinit"

    def test_session_json_bytes_are_deterministic(self):
        ex = periodic_rgb(16)
        cfg = LbfgsConfig(max_iter=5)
        v = MethodVariant(("spectrum",), multiscale=True, K=1)
        a = synth_multiscale(ex, v, None, 3, lbfgs=cfg)[1].to_json()
        b = synth_multiscale(ex, v, None, 3, lbfgs=cfg)[1].to_json()
        assert a == b

    def test_msinit_wins_on_a_periodic_exemplar(self):
        """Coarse-to-fine init lands nearer the spectrum constraint set than
        a cold start when both get the same small per-scale budget."""
        ex = periodic_rgb(64)
        net = make_network(in_channels=3, seed=0)
        cfg = LbfgsConfig(max_iter=60)
        target = spectrum_target(ex)
        v0 = MethodVariant(("gram", "spectrum"), multiscale=False)
        v2 = MethodVariant(("gram", "spectrum"), multiscale=True, K=2)
        flat, _ = synth_multiscale(ex, v0, net, 11, lbfgs=cfg)
        multi, _ = synth_multiscale(ex, v2, net, 11, lbfgs=cfg)
        assert spectrum_loss(multi, target)[0] < spectrum_loss(flat, target)[0]


class TestHash:
    def test_hash_is_the_raster_digest(self):
        import hashlib

        ex = periodic_rgb(16)
        assert exemplar_hash(ex) == hashlib.sha256(serialize_pnm(ex)).hexdigest()

    def test_different_images_differ(self):
        assert exemplar_hash(periodic_rgb(16)) != exemplar_hash(periodic_rgb(17))


class TestBlasKernel:
    def test_names_the_library_and_is_read_once(self):
        kernel = synth.blas_kernel()
        assert synth.blas_kernel() is kernel
        assert kernel.endswith(" " + synth._openblas_core())

    def test_a_library_numpy_does_not_name_is_unknown(self, monkeypatch):
        build = dict(np.__config__.CONFIG["Build Dependencies"])
        build.pop("blas", None)
        monkeypatch.setitem(np.__config__.CONFIG, "Build Dependencies", build)
        synth.blas_kernel.cache_clear()
        try:
            assert synth.blas_kernel() == f"unknown {synth._openblas_core()}"
        finally:
            synth.blas_kernel.cache_clear()

    def test_a_core_that_cannot_be_read_is_unknown(self, monkeypatch):
        def fail(path):
            raise OSError("cannot load")

        monkeypatch.setattr(synth.ctypes, "CDLL", fail)
        assert synth._openblas_core() == "unknown"
