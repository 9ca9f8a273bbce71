"""Small fixed-topology conv network for texture statistics.

The default architecture ("vgg-mini") is a desk-scale chain of 3x3
convolutions, ReLUs, and stride-2 pools:

    conv1_1 (c -> 16) - relu - conv1_2 (16 -> 16) - relu - pool1
    - conv2_1 (16 -> 32) - relu - pool2 - conv3_1 (32 -> 64) - relu - pool3

Statistics are read at {conv1_1, pool1, pool2, pool3} by default. Weights
are random but deterministic in the seed; no pretrained model is involved.
Everything runs in float64 and the backward pass is the exact adjoint of
the forward pass (ReLU takes subgradient 0 at 0).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .imagecore import as_array, box_average2

DEFAULT_STATS_LAYERS = ("conv1_1", "pool1", "pool2", "pool3")

_KIND_CODES = {"conv3x3": 0, "relu": 1, "pool2": 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

_WEIGHTS_MAGIC = b"NTWF"
_WEIGHTS_VERSION = 1


class WeightsFormatError(Exception):
    """Malformed, corrupt, or mismatched network weights file."""


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv3x3 | relu | pool2
    in_ch: int
    out_ch: int

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind != "conv3x3" and self.in_ch != self.out_ch:
            raise ValueError(f"{self.kind} layer {self.name} cannot change channels")


@dataclass
class NetworkWeights:
    """Conv kernels (out, in, 3, 3) and biases (out,) keyed by layer name."""

    specs: tuple[LayerSpec, ...]
    tensors: dict[str, tuple[np.ndarray, np.ndarray]]
    provenance: str = "unspecified"


def vgg_mini(in_channels: int = 3) -> tuple[LayerSpec, ...]:
    """The default architecture; `in_channels` follows the exemplar."""
    return (
        LayerSpec("conv1_1", "conv3x3", in_channels, 16),
        LayerSpec("relu1_1", "relu", 16, 16),
        LayerSpec("conv1_2", "conv3x3", 16, 16),
        LayerSpec("relu1_2", "relu", 16, 16),
        LayerSpec("pool1", "pool2", 16, 16),
        LayerSpec("conv2_1", "conv3x3", 16, 32),
        LayerSpec("relu2_1", "relu", 32, 32),
        LayerSpec("pool2", "pool2", 32, 32),
        LayerSpec("conv3_1", "conv3x3", 32, 64),
        LayerSpec("relu3_1", "relu", 64, 64),
        LayerSpec("pool3", "pool2", 64, 64),
    )


ARCHITECTURES = {"vgg-mini": vgg_mini}


def _validate_chain(specs) -> None:
    prev = None
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ValueError(f"duplicate layer name {spec.name}")
        seen.add(spec.name)
        if prev is not None and spec.in_ch != prev.out_ch:
            raise ValueError(
                f"channel mismatch at {spec.name}: expects {spec.in_ch}, "
                f"previous layer emits {prev.out_ch}"
            )
        prev = spec


def random_weights(specs, seed: int) -> NetworkWeights:
    """He-scaled gaussian kernels, zero biases, deterministic in the seed.

    The sqrt(2 / fan_in) scaling approximately preserves activation
    variance through conv + ReLU pairs.
    """
    specs = tuple(specs)
    _validate_chain(specs)
    rng = np.random.default_rng(seed)
    tensors = {}
    for spec in specs:
        if spec.kind != "conv3x3":
            continue
        std = np.sqrt(2.0 / (9 * spec.in_ch))
        kern = rng.standard_normal((spec.out_ch, spec.in_ch, 3, 3)) * std
        bias = np.zeros(spec.out_ch)
        tensors[spec.name] = (kern, bias)
    return NetworkWeights(specs, tensors, provenance=f"random(seed={seed})")


def save_weights(weights: NetworkWeights, path) -> None:
    """Write the binary weights file: magic NTWF, layer table, float64 payload.

    All integers little-endian; a CRC32 of everything before it closes the
    file so corruption is detected on load.
    """
    parts = [_WEIGHTS_MAGIC, struct.pack("<II", _WEIGHTS_VERSION, len(weights.specs))]
    for spec in weights.specs:
        name = spec.name.encode()
        parts.append(struct.pack("<BH", _KIND_CODES[spec.kind], len(name)))
        parts.append(name)
        parts.append(struct.pack("<II", spec.in_ch, spec.out_ch))
    for spec in weights.specs:
        if spec.kind != "conv3x3":
            continue
        kern, bias = weights.tensors[spec.name]
        parts.append(np.ascontiguousarray(kern, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(bias, dtype="<f8").tobytes())
    blob = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_weights(path) -> NetworkWeights:
    """Read a weights file written by save_weights, verifying the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _WEIGHTS_MAGIC:
        raise WeightsFormatError(f"not a weights file: {path}")
    body, trailer = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(body) != crc:
        raise WeightsFormatError(f"checksum mismatch in {path}")
    version, n_layers = struct.unpack_from("<II", body, 4)
    if version != _WEIGHTS_VERSION:
        raise WeightsFormatError(f"unsupported weights version {version}")
    off = 12
    specs = []
    try:
        for _ in range(n_layers):
            code, name_len = struct.unpack_from("<BH", body, off)
            off += 3
            name = body[off : off + name_len].decode()
            off += name_len
            in_ch, out_ch = struct.unpack_from("<II", body, off)
            off += 8
            specs.append(LayerSpec(name, _CODE_KINDS[code], in_ch, out_ch))
        tensors = {}
        for spec in specs:
            if spec.kind != "conv3x3":
                continue
            n_k = spec.out_ch * spec.in_ch * 9
            kern = np.frombuffer(body, dtype="<f8", count=n_k, offset=off)
            off += n_k * 8
            bias = np.frombuffer(body, dtype="<f8", count=spec.out_ch, offset=off)
            off += spec.out_ch * 8
            tensors[spec.name] = (
                np.ascontiguousarray(kern.reshape(spec.out_ch, spec.in_ch, 3, 3)),
                np.ascontiguousarray(bias),
            )
    except (struct.error, ValueError, KeyError) as exc:
        raise WeightsFormatError(f"truncated or malformed weights file {path}") from exc
    if off != len(body):
        raise WeightsFormatError(f"trailing bytes in weights file {path}")
    return NetworkWeights(
        tuple(specs), tensors, provenance=f"file({path}, crc32={crc:08x})"
    )


class Network:
    """A validated layer chain bound to weights; pool is 'avg' or 'max'."""

    def __init__(self, specs, weights: NetworkWeights, pool: str = "avg"):
        self.specs = tuple(specs)
        _validate_chain(self.specs)
        if pool not in ("avg", "max"):
            raise ValueError(f"pool must be 'avg' or 'max', got {pool!r}")
        self.pool = pool
        self.weights = weights
        for spec in self.specs:
            if spec.kind != "conv3x3":
                continue
            if spec.name not in weights.tensors:
                raise WeightsFormatError(f"no weights for conv layer {spec.name}")
            kern, bias = weights.tensors[spec.name]
            if kern.shape != (spec.out_ch, spec.in_ch, 3, 3) or bias.shape != (spec.out_ch,):
                raise WeightsFormatError(
                    f"weight shape mismatch for {spec.name}: kernel {kern.shape}, "
                    f"bias {bias.shape}"
                )
        self.names = tuple(s.name for s in self.specs)
        self.in_channels = self.specs[0].in_ch

    def layer_dims(self, h: int, w: int) -> dict[str, tuple[int, int, int]]:
        """Spatial dims and channel count at every layer for an h x w input."""
        dims = {}
        for spec in self.specs:
            if spec.kind == "pool2":
                h, w = -(-h // 2), -(-w // 2)
            dims[spec.name] = (h, w, spec.out_ch)
        return dims


def make_network(arch: str = "vgg-mini", in_channels: int = 3, seed: int = 0,
                 pool: str = "avg") -> Network:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    specs = ARCHITECTURES[arch](in_channels)
    return Network(specs, random_weights(specs, seed), pool=pool)


_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _avgpool2_back(g, cnt, h, w):
    out = np.zeros((h, w, g.shape[2]))
    gn = g / cnt
    for di, dj in _POOL_OFFSETS:
        sub = out[di::2, dj::2]
        sub += gn[: sub.shape[0], : sub.shape[1]]
    return out


def _maxpool2(x):
    h, w, m = x.shape
    h2, w2 = -(-h // 2), -(-w // 2)
    stack = np.full((4, h2, w2, m), -np.inf)
    for idx, (di, dj) in enumerate(_POOL_OFFSETS):
        sub = x[di::2, dj::2]
        stack[idx, : sub.shape[0], : sub.shape[1]] = sub
    arg = np.argmax(stack, axis=0)  # first max wins, fixed offset order
    out = np.take_along_axis(stack, arg[None], axis=0)[0]
    return out, arg


def _maxpool2_back(g, arg, h, w):
    out = np.zeros((h, w, g.shape[2]))
    for idx, (di, dj) in enumerate(_POOL_OFFSETS):
        sub = out[di::2, dj::2]
        sel = arg[: sub.shape[0], : sub.shape[1]] == idx
        sub += np.where(sel, g[: sub.shape[0], : sub.shape[1]], 0.0)
    return out


def _as_array(net: Network, img) -> np.ndarray:
    x = as_array(img)
    if x.ndim != 3 or x.shape[2] != net.in_channels:
        raise ValueError(
            f"input shape {x.shape} does not match network input "
            f"({net.in_channels} channels)"
        )
    return x


def _run_forward(net: Network, x: np.ndarray, keep=(), with_cache=False):
    """Run the chain; record outputs named in `keep` and, optionally, the
    per-layer state the backward walk needs."""
    acts = {}
    cache = [] if with_cache else None
    for spec in net.specs:
        if spec.kind == "conv3x3":
            kern, bias = net.weights.tensors[spec.name]
            out = _kernels.conv3x3(x, kern, bias)
            aux = None
        elif spec.kind == "relu":
            out = np.maximum(x, 0.0)
            aux = x > 0 if with_cache else None
        else:
            out, aux = box_average2(x) if net.pool == "avg" else _maxpool2(x)
        if with_cache:
            cache.append((spec, x.shape, aux))
        if spec.name in keep:
            acts[spec.name] = out
        x = out
    return acts, cache


def _check_wanted(net: Network, wanted) -> tuple[str, ...]:
    wanted = net.names if wanted is None else tuple(wanted)
    unknown = set(wanted) - set(net.names)
    if unknown:
        raise ValueError(f"unknown layers requested: {sorted(unknown)}")
    return wanted


def _pullback(net: Network, cache, cotangents: dict[str, np.ndarray],
              in_shape) -> np.ndarray:
    grad = None
    for spec, shape, aux in reversed(cache):
        h, w, _ = shape
        if spec.name in cotangents:
            cot = np.asarray(cotangents[spec.name], dtype=np.float64)
            grad = cot.copy() if grad is None else grad + cot
        if grad is None:
            continue
        if spec.kind == "conv3x3":
            kern, _ = net.weights.tensors[spec.name]
            grad = _kernels.conv3x3_back(grad, kern)
        elif spec.kind == "relu":
            grad = grad * aux
        else:
            if net.pool == "avg":
                grad = _avgpool2_back(grad, aux, h, w)
            else:
                grad = _maxpool2_back(grad, aux, h, w)
    return np.zeros(in_shape) if grad is None else grad


def forward(net: Network, img, wanted=None) -> dict[str, np.ndarray]:
    """Activations (h_l, w_l, m_l) at the `wanted` layers, keyed by name."""
    x = _as_array(net, img)
    acts, _ = _run_forward(net, x, keep=_check_wanted(net, wanted))
    return acts


def forward_with_pullback(net: Network, img, wanted):
    """Activations plus a one-shot closure mapping per-layer cotangents to
    the input-image gradient. One forward pass total; the closure replays
    the chain in reverse from cached state."""
    x = _as_array(net, img)
    wanted = _check_wanted(net, wanted)
    acts, cache = _run_forward(net, x, keep=wanted, with_cache=True)
    dims = net.layer_dims(x.shape[0], x.shape[1])

    def pull(cotangents: dict[str, np.ndarray]) -> np.ndarray:
        _check_cotangents(net, dims, cotangents)
        return _pullback(net, cache, cotangents, x.shape)

    return acts, pull


def _check_cotangents(net, dims, cotangents):
    unknown = set(cotangents) - set(net.names)
    if unknown:
        raise ValueError(f"cotangents for unknown layers: {sorted(unknown)}")
    for name, cot in cotangents.items():
        if tuple(np.shape(cot)) != dims[name]:
            raise ValueError(
                f"cotangent shape {np.shape(cot)} at {name} does not match "
                f"activation shape {dims[name]}"
            )


def backward(net: Network, img, cotangents: dict[str, np.ndarray]) -> np.ndarray:
    """Gradient w.r.t. the input image of sum_l <cotangents[l], f_l(img)>.

    Exact adjoint of forward: ReLU passes zero at zero, average pooling
    spreads by the window's true pixel count, max pooling routes to the
    first maximum.
    """
    x = _as_array(net, img)
    dims = net.layer_dims(x.shape[0], x.shape[1])
    _check_cotangents(net, dims, cotangents)
    _, cache = _run_forward(net, x, with_cache=True)
    return _pullback(net, cache, cotangents, x.shape)
