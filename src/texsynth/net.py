"""Small fixed-topology conv network for texture statistics.

The default architecture ("vgg-mini") is a desk-scale chain of 3x3
convolutions, ReLUs, and stride-2 pools:

    conv1_1 (c -> 16) - relu - conv1_2 (16 -> 16) - relu - pool1
    - conv2_1 (16 -> 32) - relu - pool2 - conv3_1 (32 -> 64) - relu - pool3

Statistics are read at {conv1_1, pool1, pool2, pool3} by default. Weights
are random but deterministic in the seed; no pretrained model is involved.
Everything runs in float64 and the backward pass is the exact adjoint of
the forward pass (ReLU takes subgradient 0 at 0).

Each layer kind is one forward that returns its adjoint: a closure that
holds only what the reverse step needs (the kernel, the ReLU's bool mask,
the pool's counts or argmax). A forward pass records a tape of these, and
the pullback walks that tape in reverse. An adjoint may overwrite the
array it is given, so the pullback hands each one an array it owns: it
copies the first cotangent a caller supplies and adds the others into
that copy, and a caller's array never changes.
"""

from __future__ import annotations

import re
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .imagecore import InputError, as_array, box_average2

DEFAULT_STATS_LAYERS = ("conv1_1", "pool1", "pool2", "pool3")

_KIND_CODES = {"conv3x3": 0, "relu": 1, "pool2": 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

_WEIGHTS_MAGIC = b"NTWF"
_WEIGHTS_VERSION = 1
_PROVENANCE = re.compile(r"random\(seed=([0-9]+)\)|file\((.*), crc32=([0-9a-f]{8})\)", re.DOTALL)


class WeightsFormatError(InputError):
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
        if self.in_ch < 1 or self.out_ch < 1:
            raise ValueError(f"layer {self.name} needs at least one channel in and out")
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


def _validate_chain(specs) -> None:
    if not specs:
        raise InputError("a network needs at least one layer")
    prev = None
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise InputError(f"duplicate layer name {spec.name}")
        seen.add(spec.name)
        if prev is not None and spec.in_ch != prev.out_ch:
            raise InputError(
                f"channel mismatch at {spec.name}: expects {spec.in_ch}, "
                f"previous layer emits {prev.out_ch}"
            )
        prev = spec


def _convs(specs):
    """The conv layers, the only ones with weights."""
    return [spec for spec in specs if spec.kind == "conv3x3"]


def random_weights(specs, seed: int) -> NetworkWeights:
    """He-scaled gaussian kernels, zero biases, deterministic in the seed.

    The sqrt(2 / fan_in) scaling approximately preserves activation
    variance through conv + ReLU pairs.
    """
    specs = tuple(specs)
    _validate_chain(specs)
    rng = np.random.default_rng(seed)
    tensors = {}
    for spec in _convs(specs):
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
    for spec in _convs(weights.specs):
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
        for spec in _convs(specs):
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


def provenance_fields(provenance: str) -> dict:
    """{"seed": int} from random_weights' provenance string, {"path", "crc32"}
    from load_weights', {} from any other string."""
    match = _PROVENANCE.fullmatch(provenance)
    seed, path, crc32 = match.groups() if match else (None, None, None)
    return {"seed": int(seed)} if seed else {"path": path, "crc32": crc32} if crc32 else {}


class Network:
    """A validated layer chain bound to weights; pool is 'avg' or 'max'."""

    def __init__(self, specs, weights: NetworkWeights, pool: str = "avg"):
        self.specs = tuple(specs)
        _validate_chain(self.specs)
        if pool not in ("avg", "max"):
            raise ValueError(f"pool must be 'avg' or 'max', got {pool!r}")
        self.pool = pool
        self.weights = weights
        for spec in _convs(self.specs):
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
    if arch != "vgg-mini":
        raise InputError(f"unknown architecture {arch!r}")
    specs = vgg_mini(in_channels)
    return Network(specs, random_weights(specs, seed), pool=pool)


_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


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


def _unpool2(parts, shape):
    """The pool input's cotangent: part i goes back to 2x2 offset i, cropped
    where the window runs past a ragged edge.

    Every pixel lies in exactly one window, so each is written once, as
    part + 0.0: the bytes of 0.0 + part added into zeros."""
    out = np.empty(shape)
    for part, (di, dj) in zip(parts, _POOL_OFFSETS):
        sub = out[di::2, dj::2]
        np.add(part[: sub.shape[0], : sub.shape[1]], 0.0, out=sub)
    return out


def _layer(net: Network, spec: LayerSpec, x: np.ndarray):
    """One layer on x: (output, adjoint), where adjoint(g) maps the output's
    cotangent g to the cotangent of x. It may overwrite g, and may return it:
    the ReLU's adjoint masks g in place, the average pool's divides it.

    An adjoint keeps the least it needs (a kernel, a bool mask, the pool
    counts or argmax, x's shape) and never x itself. The `_kernels` entry
    points are looked up at call time so that rebinding them takes effect.
    """
    if spec.kind == "conv3x3":
        kern, bias = net.weights.tensors[spec.name]
        return _kernels.conv3x3(x, kern, bias), lambda g: _kernels.conv3x3_back(g, kern)
    if spec.kind == "relu":
        mask = x > 0
        return np.maximum(x, 0.0), lambda g: np.multiply(g, mask, out=g)
    shape = x.shape
    if net.pool == "avg":
        out, cnt = box_average2(x)
        return out, lambda g: _unpool2([np.divide(g, cnt, out=g)] * 4, shape)
    out, arg = _maxpool2(x)
    return out, lambda g: _unpool2((np.where(arg == i, g, 0.0) for i in range(4)), shape)


def _run(net: Network, img, wanted, each=None):
    """Run the chain on img: the outputs of the `wanted` layers, keyed by
    name, and the tape of (name, output shape, adjoint). `each(name, output)`,
    if given, is called as each wanted layer's output is made."""
    x = as_array(img)
    if x.ndim != 3 or x.shape[2] != net.in_channels:
        raise ValueError(
            f"input shape {x.shape} does not match network input "
            f"({net.in_channels} channels)"
        )
    wanted = tuple(wanted)
    unknown = set(wanted) - set(net.names)
    if unknown:
        raise ValueError(f"unknown layers requested: {sorted(unknown)}")
    acts, tape = {}, []
    for spec in net.specs:
        x, adjoint = _layer(net, spec, x)
        tape.append((spec.name, x.shape, adjoint))
        if spec.name in wanted:
            acts[spec.name] = x
            if each is not None:
                each(spec.name, x)
    return acts, tape


def forward(net: Network, img, wanted) -> dict[str, np.ndarray]:
    """Activations (h_l, w_l, m_l) at the `wanted` layers, keyed by name."""
    return _run(net, img, wanted)[0]


def forward_with_pullback(net: Network, img, wanted, each=None):
    """Activations plus a closure mapping per-layer cotangents to the
    input-image gradient of sum_l <cotangents[l], f_l(img)>.

    One forward pass total, calling `each(name, activation)` as each wanted
    layer is made, if given; the closure walks the tape of layer adjoints in
    reverse and is the exact adjoint of forward: ReLU passes zero at zero,
    average pooling spreads by the window's true pixel count, max pooling
    routes to the first maximum. It reads the cotangents' keys first and
    each value only when the walk reaches its layer, so a mapping may make
    its values late; the first layer is reached last. The walk copies the
    first cotangent it reads and adds every later one into the running
    sum, so the adjoints, which may overwrite what they are given, never
    write into a caller's array.
    """
    acts, tape = _run(net, img, wanted, each)
    layers = {name for name, _, _ in tape}

    def pull(cotangents: Mapping[str, np.ndarray]) -> np.ndarray:
        names = set(cotangents)
        unknown = names - layers
        if unknown:
            raise ValueError(f"cotangents for unknown layers: {sorted(unknown)}")
        grad = None
        for name, shape, adjoint in reversed(tape):
            if name in names:
                cot = cotangents[name]
                if tuple(np.shape(cot)) != shape:
                    raise ValueError(
                        f"cotangent shape {np.shape(cot)} at {name} does not match "
                        f"activation shape {shape}"
                    )
                if grad is None:
                    grad = np.array(cot, dtype=np.float64)
                else:
                    grad += np.asarray(cot, dtype=np.float64)
            if grad is not None:
                grad = adjoint(grad)
        return np.zeros(as_array(img).shape) if grad is None else grad

    return acts, pull
