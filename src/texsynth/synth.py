"""Synthesis pipelines: single-scale optimization and coarse-to-fine init.

A MethodVariant names the active loss terms plus whether multiscale
initialization is used, e.g. "gram+spectrum+msinit". Synthesis always
starts from seeded white noise matched to the exemplar's per-channel
mean and variance; with msinit the coarsest pyramid level is synthesized
first and each finer level starts from the bilinear upsampling of the
previous result. K = 0 collapses to the single-scale path.

Every run is deterministic in (exemplar, variant, seed, network), and a
SynthSession records enough to replay it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import losses, net as netmod, optim
from .imagecore import Image, build_pyramid, serialize_pnm, upsample_bilinear

DEFAULT_K = 2

_VARIANT_TOKENS = {"gram", "spectrum", "autocorr", "msinit"}


@dataclass(frozen=True)
class MethodVariant:
    """Active loss terms, multiscale flag, and the spectrum weight beta."""

    terms: tuple[str, ...] = ("gram",)
    multiscale: bool = False
    beta: float = losses.DEFAULT_BETA
    K: int = DEFAULT_K

    def __post_init__(self):
        bad = set(self.terms) - set(losses.TERM_NAMES)
        if bad:
            raise ValueError(f"unknown loss terms: {sorted(bad)}")
        if not self.terms:
            raise ValueError("variant needs at least one loss term")
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")

    @classmethod
    def parse(cls, text: str, beta=None, K=None) -> "MethodVariant":
        """Parse 'gram+spectrum+msinit' style strings."""
        tokens = [t for t in text.split("+") if t]
        bad = set(tokens) - _VARIANT_TOKENS
        if bad:
            raise ValueError(f"unknown variant tokens: {sorted(bad)}")
        if len(tokens) != len(set(tokens)):
            raise ValueError(f"repeated tokens in variant {text!r}")
        terms = tuple(t for t in tokens if t != "msinit")
        kwargs = {}
        if beta is not None:
            kwargs["beta"] = float(beta)
        if K is not None:
            kwargs["K"] = int(K)
        return cls(terms, "msinit" in tokens, **kwargs)

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


def active_stats_layers(network: netmod.Network, h: int, w: int,
                        stats_layers=None) -> tuple[list[str], list[str]]:
    """Stats layers whose feature maps are at least 2x2 at h x w input,
    plus the list of layers dropped by that rule."""
    if stats_layers is None:
        stats_layers = [n for n in netmod.DEFAULT_STATS_LAYERS if n in network.names]
    dims = network.layer_dims(h, w)
    kept, dropped = [], []
    for name in stats_layers:
        if min(dims[name][:2]) >= 2:
            kept.append(name)
        else:
            dropped.append(name)
    return kept, dropped


@dataclass
class SynthSession:
    """Everything needed to replay a run and audit its loss curves."""

    exemplar_path: str | None
    exemplar_sha256: str
    variant: str
    beta: float
    K: int
    seed: int
    net_desc: dict
    layer_weight: float
    lbfgs: dict
    scales: list[dict] = field(default_factory=list)
    output_path: str | None = None
    bits: int = 16

    def to_dict(self) -> dict:
        return {
            "exemplar": {"path": self.exemplar_path, "sha256": self.exemplar_sha256},
            "variant": self.variant,
            "beta": self.beta,
            "K": self.K,
            "seed": self.seed,
            "net": self.net_desc,
            "layer_weight": self.layer_weight,
            "lbfgs": self.lbfgs,
            "scales": self.scales,
            "output": {"path": self.output_path, "bits": self.bits},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthSession":
        return cls(
            exemplar_path=obj["exemplar"]["path"],
            exemplar_sha256=obj["exemplar"]["sha256"],
            variant=obj["variant"],
            beta=obj["beta"],
            K=obj["K"],
            seed=obj["seed"],
            net_desc=obj["net"],
            layer_weight=obj["layer_weight"],
            lbfgs=obj["lbfgs"],
            scales=list(obj["scales"]),
            output_path=obj["output"]["path"],
            bits=obj["output"].get("bits", 16),
        )


def _lbfgs_dict(cfg: optim.LbfgsConfig) -> dict:
    return {
        "max_iter": cfg.max_iter,
        "history": cfg.history,
        "grad_tol": cfg.grad_tol,
        "c1": cfg.c1,
        "c2": cfg.c2,
        "step_init": cfg.step_init,
    }


def _net_desc(network: netmod.Network) -> dict:
    return {
        "provenance": network.weights.provenance,
        "pool": network.pool,
        "in_channels": network.in_channels,
        "layers": [
            [s.name, s.kind, s.in_ch, s.out_ch] for s in network.specs
        ],
    }


def _channel_stats(img: Image):
    data = img.data
    return data.mean(axis=(0, 1)), data.std(axis=(0, 1))


def _needs_net(variant: MethodVariant) -> bool:
    return bool(set(variant.terms) & {"gram", "autocorr"})


def synth_single_scale(exemplar: Image, variant: MethodVariant,
                       network: netmod.Network | None, seed: int,
                       init: Image | None = None,
                       lbfgs: optim.LbfgsConfig | None = None,
                       layer_weight: float = losses.DEFAULT_LAYER_WEIGHT,
                       stats_layers=None):
    """Optimize one scale; returns (Image, OptTrace, scale_record_dict).

    `init` defaults to white noise matched to the exemplar's channel
    statistics, drawn from `seed`. Dimensions of init and exemplar must
    agree: statistics targets are computed at the exemplar's size.
    """
    if init is not None and (init.h, init.w, init.c) != (exemplar.h, exemplar.w, exemplar.c):
        raise ValueError(
            f"init dims {(init.h, init.w, init.c)} != exemplar dims "
            f"{(exemplar.h, exemplar.w, exemplar.c)}"
        )
    if init is None:
        mean, std = _channel_stats(exemplar)
        init = white_noise(exemplar.h, exemplar.w, exemplar.c, seed, mean, std)
    lbfgs = lbfgs or optim.LbfgsConfig()

    kept, dropped = [], []
    if _needs_net(variant):
        if network is None:
            raise ValueError("feature-statistics terms need a network")
        kept, dropped = active_stats_layers(network, exemplar.h, exemplar.w, stats_layers)
        if not kept:
            raise ValueError(
                f"no statistics layer has a >= 2x2 feature map at "
                f"{exemplar.h}x{exemplar.w}"
            )
    targets = losses.compute_targets(
        exemplar, variant, network, layers=kept or None, layer_weight=layer_weight
    )
    shape = init.data.shape

    def objective(flat):
        report = losses.total_loss(flat.reshape(shape), variant, targets, network)
        return report.total, report.grad.ravel()

    x, trace = optim.minimize(objective, init.data.ravel(), lbfgs)
    result = Image(x.reshape(shape))
    final = losses.total_loss(result, variant, targets, network)
    record = {
        "dims": [exemplar.h, exemplar.w, exemplar.c],
        "stats_layers": kept,
        "dropped_layers": dropped,
        "trace": trace.to_dict(),
        "final_terms": {k: float(v) for k, v in final.terms.items()},
        "final_spectrum_distance": final.spectrum_distance,
    }
    return result, trace, record


def synth_multiscale(exemplar: Image, variant: MethodVariant,
                     network: netmod.Network | None, seed: int,
                     lbfgs: optim.LbfgsConfig | None = None,
                     layer_weight: float = losses.DEFAULT_LAYER_WEIGHT,
                     stats_layers=None, exemplar_path=None):
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
        exemplar_path=str(exemplar_path) if exemplar_path else None,
        exemplar_sha256=exemplar_hash(exemplar),
        variant=variant.to_string(),
        beta=variant.beta,
        K=K,
        seed=seed,
        net_desc=_net_desc(network) if network is not None else None,
        layer_weight=layer_weight,
        lbfgs=_lbfgs_dict(lbfgs),
    )
    current = None
    for k in range(K, -1, -1):
        level = pyramid[k]
        if current is None:
            init = None  # white noise inside synth_single_scale
        else:
            init = upsample_bilinear(current, level.h, level.w)
        current, _, record = synth_single_scale(
            level, variant, network, seed, init=init, lbfgs=lbfgs,
            layer_weight=layer_weight, stats_layers=stats_layers,
        )
        record["k"] = k
        session.scales.append(record)
    return current, session
