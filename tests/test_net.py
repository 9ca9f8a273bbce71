"""Conv chain forward/backward, pooling, and the weights file format."""

import struct
import zlib

import numpy as np
import pytest

from texsynth.imagecore import InputError
from texsynth.net import (
    LayerSpec,
    Network,
    NetworkWeights,
    WeightsFormatError,
    _unpool2,
    forward,
    forward_with_pullback,
    load_weights,
    make_network,
    provenance_fields,
    random_weights,
    save_weights,
    vgg_mini,
)


def small_specs(in_ch=3):
    return (
        LayerSpec("c1", "conv3x3", in_ch, 4),
        LayerSpec("r1", "relu", 4, 4),
        LayerSpec("p1", "pool2", 4, 4),
        LayerSpec("c2", "conv3x3", 4, 5),
        LayerSpec("r2", "relu", 5, 5),
        LayerSpec("p2", "pool2", 5, 5),
    )


def small_net(seed=0, pool="avg"):
    specs = small_specs()
    return Network(specs, random_weights(specs, seed), pool=pool)


def fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = fn(x)
        flat[i] = keep - eps
        fm = fn(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestSpecs:
    def test_relu_cannot_change_channels(self):
        with pytest.raises(ValueError, match="cannot change channels"):
            LayerSpec("r", "relu", 4, 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerSpec("x", "conv5x5", 3, 3)

    def test_chain_channel_mismatch_rejected(self):
        specs = (LayerSpec("a", "conv3x3", 3, 4), LayerSpec("b", "conv3x3", 8, 4))
        with pytest.raises(ValueError, match="channel mismatch"):
            Network(specs, random_weights((specs[0],), 0))

    def test_layer_dims_ceil_halve_at_pools(self):
        net = make_network(in_channels=3, seed=0)
        dims = net.layer_dims(33, 17)
        assert dims["conv1_1"] == (33, 17, 16)
        assert dims["pool1"] == (17, 9, 16)
        assert dims["pool2"] == (9, 5, 32)
        assert dims["pool3"] == (5, 3, 64)

    def test_forward_shapes_match_layer_dims(self):
        net = small_net()
        x = np.random.default_rng(0).random((9, 7, 3))
        acts = forward(net, x, net.names)
        for name, a in acts.items():
            assert a.shape == net.layer_dims(9, 7)[name]


def top_two_gap(act):
    """Smallest gap between a 2x2 pool window's largest and second-largest
    values, over windows whose largest value is positive."""
    h, w, c = act.shape
    pad = np.full((h + h % 2, w + w % 2, c), -np.inf)
    pad[:h, :w] = act
    windows = pad.reshape(pad.shape[0] // 2, 2, pad.shape[1] // 2, 2, c)
    ranked = np.sort(windows.transpose(0, 2, 4, 1, 3).reshape(-1, 4), axis=1)
    live = ranked[:, 3] > 0
    return (ranked[live, 3] - ranked[live, 2]).min(initial=np.inf)


class TestForwardBackward:
    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_backward_matches_finite_differences(self, pool):
        net = small_net(seed=1, pool=pool)
        rng = np.random.default_rng(2)
        # reseed until every relu input is clear of its kink and, for max
        # pooling, every window's maximum is clear of its runner-up
        for seed in range(20):
            x = np.random.default_rng(seed).random((7, 9, 3))
            acts = forward(net, x, net.names)
            kink = min(np.abs(acts["c1"]).min(), np.abs(acts["c2"]).min())
            if pool == "max":
                kink = min(kink, top_two_gap(acts["r1"]), top_two_gap(acts["r2"]))
            if kink > 1e-4:
                break
        else:
            pytest.fail("no seed keeps the input clear of kinks")
        # a cotangent on a conv, a relu and both pools, ragged edges included
        dims = net.layer_dims(7, 9)
        cots = {name: rng.standard_normal(dims[name]) for name in ("c2", "r1", "p1", "p2")}

        def scalar(img):
            acts = forward(net, img, wanted=list(cots))
            return sum(np.vdot(cots[k], acts[k]) for k in cots)

        ana = forward_with_pullback(net, x, ())[1](cots)
        num = fd_grad(scalar, x)
        denom = max(np.abs(num).max(), 1e-12)
        assert np.abs(ana - num).max() / denom < 1e-6

    def test_backward_is_exact_adjoint_for_conv_only_chain(self):
        specs = (LayerSpec("a", "conv3x3", 2, 3), LayerSpec("b", "conv3x3", 3, 4))
        weights = random_weights(specs, 3)
        for name, (kern, bias) in weights.tensors.items():
            weights.tensors[name] = (kern, np.zeros_like(bias))
        net = Network(specs, weights)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 6, 2))
        g = rng.standard_normal((6, 6, 4))
        lhs = np.vdot(forward(net, x, wanted=["b"])["b"], g)
        rhs = np.vdot(x, forward_with_pullback(net, x, ())[1]({"b": g}))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_relu_passes_zero_at_zero(self):
        specs = (LayerSpec("r", "relu", 1, 1),)
        net = Network(specs, NetworkWeights(specs, {}))
        x = np.array([[-1.0], [0.0], [2.0]])[:, :, None]
        grad = forward_with_pullback(net, x, ())[1]({"r": np.ones((3, 1, 1))})
        assert grad.ravel().tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_pullback_agrees_with_backward(self, pool):
        net = small_net(seed=5, pool=pool)
        rng = np.random.default_rng(6)
        x = rng.random((7, 9, 3))
        cots = {"p2": rng.standard_normal(net.layer_dims(7, 9)["p2"])}
        acts, pull = forward_with_pullback(net, x, wanted=["p2"])
        assert np.array_equal(acts["p2"], forward(net, x, wanted=["p2"])["p2"])
        assert np.array_equal(pull(cots), forward_with_pullback(net, x, ())[1](cots))

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_each_sees_every_wanted_layer_once_in_chain_order(self, pool):
        # the loss terms start on each layer as `each` is called with it
        net = small_net(seed=7, pool=pool)
        x = np.random.default_rng(8).random((7, 9, 3))
        seen = []
        acts, _ = forward_with_pullback(net, x, ["p2", "c1", "r2", "p1"],
                                        lambda name, f: seen.append((name, f)))
        assert [name for name, _ in seen] == ["c1", "p1", "r2", "p2"]
        assert all(f is acts[name] for name, f in seen) and len(acts) == 4

        def unwanted(name, f):
            raise AssertionError(f"each called for {name}")

        forward_with_pullback(net, x, (), unwanted)

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_pull_leaves_the_callers_cotangents_unchanged(self, pool):
        # the adjoints may overwrite what they are given; relu1_1's
        # cotangent goes straight into a ReLU's adjoint, pool3's into a pool's
        net = make_network(in_channels=3, seed=1, pool=pool)
        rng = np.random.default_rng(10)
        x = rng.random((13, 10, 3))
        dims = net.layer_dims(13, 10)
        for wanted in (["relu1_1"], ["conv1_1", "relu1_1", "pool1", "relu2_1", "pool3"]):
            cots = {name: rng.standard_normal(dims[name]) for name in wanted}
            before = {name: cot.tobytes() for name, cot in cots.items()}
            forward_with_pullback(net, x, wanted)[1](cots)
            assert {name: cot.tobytes() for name, cot in cots.items()} == before

    def test_unknown_layer_request_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="unknown layers"):
            forward(net, np.zeros((8, 8, 3)), wanted=["nope"])

    def test_cotangent_shape_mismatch_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="cotangent shape"):
            forward_with_pullback(net, np.zeros((8, 8, 3)), ())[1]({"p1": np.zeros((2, 2, 4))})

    def test_cotangents_for_unknown_layers_rejected(self):
        net = small_net()
        pull = forward_with_pullback(net, np.zeros((8, 8, 3)), ())[1]
        with pytest.raises(ValueError, match=r"cotangents for unknown layers: \['nope'\]"):
            pull({"p1": np.zeros((4, 4, 4)), "nope": np.zeros((8, 8, 4))})

    def test_input_channel_mismatch_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="does not match network input"):
            forward(net, np.zeros((8, 8, 1)), net.names)


def unpool2_filled(parts, shape):
    """_unpool2 as it was written first: each part added into zeros."""
    out = np.zeros(shape)
    for part, (di, dj) in zip(parts, ((0, 0), (0, 1), (1, 0), (1, 1))):
        sub = out[di::2, dj::2]
        sub += part[: sub.shape[0], : sub.shape[1]]
    return out


@pytest.mark.parametrize("shape", [(6, 8, 3), (5, 7, 2), (7, 6, 1), (1, 9, 2), (8, 1, 3),
                                   (1, 1, 1)])
def test_unpool2_keeps_the_zero_filled_bytes(shape):
    # signed zeros and subnormals among ordinary values
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308])
    rng = np.random.default_rng(sum(shape))
    half = (-(-shape[0] // 2), -(-shape[1] // 2), shape[2])
    for trial in range(4):
        g = rng.choice(edge, half)
        if trial % 2:
            g = np.where(rng.random(half) < 0.5, g, rng.standard_normal(half))
        arg = rng.integers(0, 4, half)
        for parts in ([g] * 4, [np.where(arg == i, g, 0.0) for i in range(4)]):
            assert _unpool2(parts, shape).tobytes() == unpool2_filled(parts, shape).tobytes()


class TestPooling:
    def pool_net(self, pool):
        specs = (LayerSpec("p", "pool2", 1, 1),)
        return Network(specs, NetworkWeights(specs, {}), pool=pool)

    def test_avg_pool_odd_edges_use_true_counts(self):
        net = self.pool_net("avg")
        x = np.arange(15, dtype=float).reshape(3, 5, 1)
        out = forward(net, x, wanted=["p"])["p"][:, :, 0]
        expect = np.array(
            [
                [(0 + 1 + 5 + 6) / 4, (2 + 3 + 7 + 8) / 4, (4 + 9) / 2],
                [(10 + 11) / 2, (12 + 13) / 2, 14.0],
            ]
        )
        assert np.allclose(out, expect)

    def test_avg_pool_backward_matches_finite_differences(self):
        net = self.pool_net("avg")
        rng = np.random.default_rng(7)
        x = rng.random((5, 5, 1))
        g = rng.standard_normal((3, 3, 1))

        def scalar(img):
            return np.vdot(g, forward(net, img, wanted=["p"])["p"])

        grad = forward_with_pullback(net, x, ())[1]({"p": g})
        assert np.allclose(grad, fd_grad(scalar, x), atol=1e-8)

    def test_max_pool_takes_blockwise_max(self):
        net = self.pool_net("max")
        x = np.array([[1.0, 4.0], [3.0, 2.0]])[:, :, None]
        out = forward(net, x, wanted=["p"])["p"]
        assert out.ravel().tolist() == [4.0]

    def test_max_pool_backward_routes_to_argmax(self):
        net = self.pool_net("max")
        x = np.array([[1.0, 4.0], [3.0, 2.0]])[:, :, None]
        grad = forward_with_pullback(net, x, ())[1]({"p": np.full((1, 1, 1), 2.0)})
        assert grad[:, :, 0].tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_default_network_uses_avg_pool(self):
        assert make_network(in_channels=3, seed=0).pool == "avg"

    def test_an_unknown_pool_is_rejected(self):
        with pytest.raises(ValueError, match="^pool must be 'avg' or 'max', got 'min'$"):
            self.pool_net("min")

    def test_an_unknown_architecture_is_rejected(self):
        with pytest.raises(InputError, match="^unknown architecture 'resnet'$"):
            make_network("resnet")


class TestWeights:
    def test_random_weights_deterministic_in_seed(self):
        a = random_weights(vgg_mini(3), 42)
        b = random_weights(vgg_mini(3), 42)
        c = random_weights(vgg_mini(3), 43)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name][0], b.tensors[name][0])
        assert not np.array_equal(a.tensors["conv1_1"][0], c.tensors["conv1_1"][0])

    def test_kernel_scale_tracks_fan_in(self):
        w = random_weights(vgg_mini(3), 0)
        kern = w.tensors["conv3_1"][0]  # 32 input channels, large sample
        assert abs(kern.std() / np.sqrt(2.0 / (9 * 32)) - 1.0) < 0.05

    def test_biases_start_at_zero(self):
        w = random_weights(vgg_mini(3), 0)
        assert all(not bias.any() for _, bias in w.tensors.values())

    def test_save_load_round_trip_is_exact(self, tmp_path):
        w = random_weights(vgg_mini(3), 9)
        path = tmp_path / "w.ntw"
        save_weights(w, path)
        back = load_weights(path)
        assert back.specs == w.specs
        for name, (kern, bias) in w.tensors.items():
            assert np.array_equal(back.tensors[name][0], kern)
            assert np.array_equal(back.tensors[name][1], bias)
        assert "crc32=" in back.provenance

    def test_provenance_fields_read_back_what_the_writers_wrote(self, tmp_path):
        assert provenance_fields(random_weights(small_specs(), 17).provenance) == {"seed": 17}
        # a path that itself looks like the end of a provenance string
        path = tmp_path / "w, crc32=00000000).ntw"
        save_weights(random_weights(small_specs(), 0), path)
        crc32 = f"{zlib.crc32(path.read_bytes()[:-4]):08x}"
        assert provenance_fields(load_weights(path).provenance) == {"path": str(path),
                                                                    "crc32": crc32}

    @pytest.mark.parametrize("text", ["random(seed=x)", "random(seed=-1)", "random(seed=)",
                                      "file(w.ntw)", "file(w.ntw, crc32=1234abc)",
                                      "file(w.ntw, crc32=1234ABCD)", "unspecified", ""])
    def test_any_other_provenance_has_no_fields(self, text):
        assert provenance_fields(text) == {}

    def test_flipped_byte_fails_checksum(self, tmp_path):
        w = random_weights(small_specs(), 0)
        path = tmp_path / "w.ntw"
        save_weights(w, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="checksum"):
            load_weights(path)

    def test_truncated_file_rejected(self, tmp_path):
        w = random_weights(small_specs(), 0)
        path = tmp_path / "w.ntw"
        save_weights(w, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(WeightsFormatError):
            load_weights(path)

    @pytest.mark.parametrize("edit", ["other-version", "trailing-bytes"])
    def test_a_resealed_body_the_loader_does_not_know_is_rejected(self, tmp_path, edit):
        path = tmp_path / "w.ntw"
        save_weights(random_weights(small_specs(), 0), path)
        body = path.read_bytes()[:-4]
        if edit == "other-version":
            body = body[:4] + struct.pack("<I", 2) + body[8:]
        else:
            body += bytes(8)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        match = "version 2" if edit == "other-version" else "trailing bytes"
        with pytest.raises(WeightsFormatError, match=match):
            load_weights(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "w.ntw"
        path.write_bytes(b"GIF89a not weights")
        with pytest.raises(WeightsFormatError, match="not a weights file"):
            load_weights(path)

    def test_network_rejects_missing_conv_weights(self):
        specs = small_specs()
        w = random_weights(specs, 0)
        del w.tensors["c2"]
        with pytest.raises(WeightsFormatError, match="no weights"):
            Network(specs, w)

    def test_network_rejects_shape_mismatch(self):
        specs = small_specs()
        w = random_weights(specs, 0)
        kern, _ = w.tensors["c1"]
        w.tensors["c1"] = (kern, np.zeros(7))
        with pytest.raises(WeightsFormatError, match="shape mismatch"):
            Network(specs, w)

    def test_activations_keep_moderate_scale(self):
        # He scaling should keep deep activations within an order of magnitude
        net = make_network(in_channels=3, seed=0)
        x = np.random.default_rng(8).random((32, 32, 3))
        out = forward(net, x, wanted=["pool3"])["pool3"]
        assert 0.05 < out.std() < 20.0
