"""Synthesis pipelines: single-scale optimization and coarse-to-fine init.

A MethodVariant names the active loss terms plus whether multiscale
initialization is used, e.g. "gram+spectrum+msinit". Synthesis always
starts from seeded white noise matched to the exemplar's per-channel
mean and variance; with msinit the coarsest pyramid level is synthesized
first and each finer level starts from the bilinear upsampling of the
previous result. K = 0 collapses to the single-scale path. Each scale's
statistics layers, and those dropped as under 2x2, are losses.compute_targets'.

Every run is deterministic in (exemplar, variant, seed, network), and a
SynthSession records enough to replay it bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, _kernels, losses, net as netmod, optim
from .imagecore import Image, InputError, build_pyramid, serialize_pnm, upsample_bilinear

DEFAULT_K = 2

_VARIANT_TOKENS = {*losses.TERM_NAMES, "msinit"}


@dataclass(frozen=True)
class MethodVariant:
    """Active loss terms, multiscale flag, and the loss weights beta (spectrum) and
    layer_weight (every feature layer). Each weight must be finite and >= 0,
    and active terms that all weigh 0 are rejected."""

    terms: tuple[str, ...] = ("gram",)
    multiscale: bool = False
    beta: float = losses.DEFAULT_BETA
    K: int = DEFAULT_K
    layer_weight: float = losses.DEFAULT_LAYER_WEIGHT

    def __post_init__(self):
        bad = set(self.terms) - set(losses.TERM_NAMES)
        if bad:
            raise InputError(f"unknown loss terms: {sorted(bad)}")
        if not self.terms:
            raise InputError("variant needs at least one loss term")
        if self.K < 0:
            raise InputError(f"K must be >= 0, got {self.K}")
        for name in ("beta", "layer_weight"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # False for a NaN
                raise InputError(f"{name} must be finite and >= 0, got {value!r}")
        weights = {"beta": self.beta} if "spectrum" in self.terms else {}
        if set(self.terms) & set(losses.FEATURE_TERMS):
            weights["layer_weight"] = self.layer_weight
        if not any(weights.values()):
            raise InputError(f"variant {self.to_string()!r} has no term of nonzero weight: "
                             + " and ".join(f"{name} is 0" for name in weights))

    @classmethod
    def parse(cls, text: str, **settings) -> "MethodVariant":
        """Parse 'gram+spectrum+msinit' style strings; `settings` set the other fields."""
        tokens = [t for t in text.split("+") if t]
        bad = set(tokens) - _VARIANT_TOKENS
        if bad:
            raise InputError(f"unknown variant tokens: {sorted(bad)}")
        if len(tokens) != len(set(tokens)):
            raise InputError(f"repeated tokens in variant {text!r}")
        terms = tuple(t for t in tokens if t != "msinit")
        return cls(terms, "msinit" in tokens, **settings)

    def to_string(self) -> str:
        return "+".join(self.terms + (("msinit",) if self.multiscale else ()))


def white_noise(h: int, w: int, c: int, seed: int, mean=0.5,
                std=np.sqrt(1.0 / 12.0)) -> Image:
    """I.i.d. uniform noise with the given per-channel mean and std.

    Defaults reproduce U[0, 1]. mean/std may be scalars or length-c arrays
    (synthesis passes the exemplar's channel statistics). Deterministic in
    the seed.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((h, w, c)) - 0.5
    data = np.asarray(mean, dtype=np.float64) + u * (np.sqrt(12.0) * np.asarray(std))
    return Image(data)


def exemplar_hash(exemplar: Image) -> str:
    """SHA-256 of the exemplar's 16-bit raster serialization."""
    return hashlib.sha256(serialize_pnm(exemplar)).hexdigest()


@functools.cache
def blas_kernel() -> str:
    """numpy's BLAS as "<library> <version> <core>", e.g. "scipy-openblas
    0.3.31.188.0 SkylakeX"; a part that cannot be read is "unknown".

    A DYNAMIC_ARCH OpenBLAS picks its core at load time (OPENBLAS_CORETYPE
    overrides it), and the output bytes depend on that core.
    """
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        library = "unknown"
    return f"{library} {_openblas_core()}"


def _openblas_core() -> str:
    """The core of the OpenBLAS numpy loaded, from its get_corename."""
    corename = _kernels.openblas_function("get_corename")
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return (corename() or b"unknown").decode(errors="replace")


@dataclass
class SynthSession:
    """Everything needed to replay a run and audit its loss curves.

    The fields are the session JSON's top-level keys. `texsynth synth` sets
    `output.sha256` to the image file's digest, which a replay must match.
    """

    exemplar: dict  # {"path", "sha256"}
    variant: str
    beta: float
    K: int
    seed: int
    net: dict | None
    layer_weight: float
    lbfgs: dict
    scales: list[dict]
    output: dict  # {"path", "bits", "sha256"}
    environment: dict  # {"numpy", "texsynth", "blas"}: no run- or thread-dependent value

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _net_desc(network: netmod.Network) -> dict:
    return {
        "provenance": network.weights.provenance,
        "pool": network.pool,
        "in_channels": network.in_channels,
        "layers": [
            [s.name, s.kind, s.in_ch, s.out_ch] for s in network.specs
        ],
    }


def synth_single_scale(exemplar: Image, variant: MethodVariant,
                       network: netmod.Network | None, seed: int,
                       init: Image | None = None,
                       lbfgs: optim.LbfgsConfig | None = None):
    """Optimize one scale; returns (Image, OptTrace, scale_record_dict).

    `init` defaults to white noise matched to the exemplar's channel
    statistics, drawn from `seed`. Dimensions of init and exemplar must
    agree: statistics targets are computed at the exemplar's size.
    """
    data = exemplar.data
    if init is None:
        init = white_noise(*data.shape, seed, data.mean(axis=(0, 1)), data.std(axis=(0, 1)))
    elif init.data.shape != data.shape:
        raise ValueError(f"init dims {init.data.shape} != exemplar dims {data.shape}")
    targets = losses.compute_targets(exemplar, variant, network)
    shape = init.data.shape
    latest = None  # (point, report) of the latest evaluation

    def objective(flat):
        nonlocal latest
        report = losses.total_loss(flat.reshape(shape), variant, targets, network)
        latest = flat, report
        return report.total, report.grad.ravel()

    x, trace = optim.minimize(objective, init.data.ravel(), lbfgs)
    result = Image(x.reshape(shape))
    # the optimizer's last evaluation is at its result, unless a search failed
    point, final = latest
    if not np.array_equal(point, x):
        final = losses.total_loss(result, variant, targets, network)
    record = {
        "dims": [exemplar.h, exemplar.w, exemplar.c],
        "stats_layers": targets.stats_layers,
        "dropped_layers": targets.dropped_layers,
        "trace": asdict(trace),
        "final_terms": {k: float(v) for k, v in final.terms.items()},
        "final_spectrum_distance": final.spectrum_distance,
    }
    return result, trace, record


def synth_multiscale(exemplar: Image, variant: MethodVariant,
                     network: netmod.Network | None, seed: int,
                     lbfgs: optim.LbfgsConfig | None = None, exemplar_path=None):
    """Coarse-to-fine synthesis; returns (Image, SynthSession).

    With the multiscale flag off (or K = 0) this is exactly one
    single-scale run from white noise. Otherwise the exemplar pyramid is
    descended from level K to 0, each level's result bilinearly upsampled
    as the next init. Each level gets the full iteration budget.
    """
    lbfgs = lbfgs or optim.LbfgsConfig()
    K = variant.K if variant.multiscale else 0
    pyramid = build_pyramid(exemplar, K)
    session = SynthSession(
        exemplar={"path": str(exemplar_path) if exemplar_path else None,
                  "sha256": exemplar_hash(exemplar)},
        variant=variant.to_string(),
        beta=variant.beta,
        K=K,
        seed=seed,
        net=_net_desc(network) if network is not None else None,
        layer_weight=variant.layer_weight,
        lbfgs=asdict(lbfgs),
        scales=[],
        output={"path": None, "bits": 16},
        environment={"numpy": np.__version__, "texsynth": __version__,
                     "blas": blas_kernel()},
    )
    current = None
    for k in range(K, -1, -1):
        level = pyramid[k]
        if current is None:
            init = None  # white noise inside synth_single_scale
        else:
            init = upsample_bilinear(current, level.h, level.w)
        current, _, record = synth_single_scale(level, variant, network, seed, init=init,
                                                lbfgs=lbfgs)
        record["k"] = k
        session.scales.append(record)
    return current, session
