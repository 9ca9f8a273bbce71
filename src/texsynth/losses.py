"""Texture statistics and loss terms with analytic gradients.

Three terms, each differentiable w.r.t. the synthesized image:

  gram      weighted Frobenius distance between Gram matrices of feature
            maps and the exemplar's, the classic feature-statistics term;
  spectrum  half mean-square distance between the image and its projection
            onto the set of images sharing the exemplar's Fourier modulus,
            with the projection treated as locally constant in the gradient;
  autocorr  weighted squared L2 distance between per-channel feature
            autocorrelations, held in DFT modulus-squared form.

DFT convention is numpy's: unnormalized forward, 1/N inverse. The total
loss is gram + beta * spectrum + autocorr over whichever terms a variant
activates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .imagecore import Image, as_array as _as_array

DEFAULT_BETA = 1e5
DEFAULT_LAYER_WEIGHT = 1e9

TERM_NAMES = ("gram", "spectrum", "autocorr")


def circular_autocorr(channel: np.ndarray) -> np.ndarray:
    """Circular autocorrelation of a 2-D array, normalized by N^2.

    Computed as ifft2(|fft2(x)|^2) / N^2, which equals the direct
    wrap-around sum (1/N^2) sum_ij x(i,j) x(i+k mod h, j+l mod w).
    """
    f = np.fft.fft2(channel)
    n = channel.size
    return np.real(np.fft.ifft2(np.abs(f) ** 2)) / n**2


@dataclass
class GramTarget:
    """Per-layer Gram matrices of the exemplar and their loss weights."""

    grams: dict[str, np.ndarray]
    weights: dict[str, float]


@dataclass
class SpectrumTarget:
    """Full complex DFT of each exemplar channel, shape (h, w, c)."""

    freq: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.freq.shape


@dataclass
class AutocorrTarget:
    """Per-layer feature autocorrelations in DFT modulus-squared form."""

    spectra: dict[str, np.ndarray]
    weights: dict[str, float]


@dataclass
class StatTargets:
    gram: GramTarget | None = None
    spectrum: SpectrumTarget | None = None
    autocorr: AutocorrTarget | None = None


@dataclass
class LossReport:
    """Total loss, weighted per-term contributions, and the image gradient.

    `total` is the sum of the active entries in `terms` (spectrum enters
    weighted by beta; `spectrum_distance` keeps the unweighted value so a
    beta of zero still reports how far the spectrum is).
    """

    total: float
    terms: dict[str, float]
    grad: np.ndarray
    spectrum_distance: float | None = None


def gram_of(feats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gram matrix (m, m) per layer: F^T F / N^2 for F of shape (N, m)."""
    out = {}
    for name, f in feats.items():
        n = f.shape[0] * f.shape[1]
        fm = f.reshape(n, f.shape[2])
        out[name] = fm.T @ fm / n**2
    return out


def gram_target(feats: dict[str, np.ndarray], weights) -> GramTarget:
    grams = gram_of(feats)
    return GramTarget(grams, _expand_weights(weights, grams))


def _expand_weights(weights, per_layer: dict) -> dict[str, float]:
    if np.isscalar(weights):
        return {name: float(weights) for name in per_layer}
    return {name: float(weights[name]) for name in per_layer}


def gram_loss(feats: dict[str, np.ndarray], target: GramTarget):
    """Value and per-layer feature cotangents of the Gram term."""
    if set(feats) != set(target.grams):
        raise ValueError(
            f"feature layers {sorted(feats)} do not match target layers "
            f"{sorted(target.grams)}"
        )
    value = 0.0
    cots = {}
    for name, f in feats.items():
        n = f.shape[0] * f.shape[1]
        m = f.shape[2]
        fm = f.reshape(n, m)
        diff = fm.T @ fm / n**2 - target.grams[name]
        w = target.weights[name]
        value += w * np.sum(diff**2)
        cots[name] = (4.0 * w / n**2) * (fm @ diff).reshape(f.shape)
    return value, cots


def spectrum_target(exemplar) -> SpectrumTarget:
    data = _as_array(exemplar)
    if data.ndim == 2:  # gray array counts as one channel
        data = data[:, :, None]
    return SpectrumTarget(np.fft.fft2(data, axes=(0, 1)))


def spectrum_project(img, target: SpectrumTarget):
    """Impose the target's Fourier modulus while keeping the image's phase.

    The cross-spectrum sum_c F(img_c) conj(F(tgt_c)) supplies one unit
    phase factor per frequency, applied to every target channel; bins whose
    cross modulus falls below 1e-12 of its mean keep the target untouched
    (phase 1). Single-channel input degenerates to plain phase transfer.
    The result is idempotent: projecting twice changes nothing.
    """
    data = _as_array(img)
    flat = data.ndim == 2
    if flat:
        data = data[:, :, None]
    if data.shape != target.shape:
        raise ValueError(f"image shape {data.shape} != target shape {target.shape}")
    fimg = np.fft.fft2(data, axes=(0, 1))
    cross = np.sum(fimg * np.conj(target.freq), axis=2)
    mod = np.abs(cross)
    thr = 1e-12 * mod.mean()
    phase = np.where(mod <= thr, 1.0 + 0.0j, cross / np.where(mod > 0, mod, 1.0))
    proj = np.real(np.fft.ifft2(phase[:, :, None] * target.freq, axes=(0, 1)))
    if flat:
        proj = proj[:, :, 0]
    return Image(proj) if isinstance(img, Image) else proj


def spectrum_loss(img, target: SpectrumTarget):
    """Half mean-square distance to the projection, and its gradient.

    With N = h * w: value = ||x - P(x)||^2 / (2N), grad = (x - P(x)) / N,
    the projection being treated as locally constant.
    """
    data = _as_array(img)
    proj = _as_array(spectrum_project(data, target))
    n = data.shape[0] * data.shape[1]
    resid = data - proj
    return float(np.sum(resid**2) / (2 * n)), resid / n


def autocorr_of(feats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Autocorrelation per feature channel as |fft2|^2 / N^2, layer-keyed."""
    out = {}
    for name, f in feats.items():
        n = f.shape[0] * f.shape[1]
        out[name] = np.abs(np.fft.fft2(f, axes=(0, 1))) ** 2 / n**2
    return out


def autocorr_target(feats: dict[str, np.ndarray], weights) -> AutocorrTarget:
    spectra = autocorr_of(feats)
    return AutocorrTarget(spectra, _expand_weights(weights, spectra))


def autocorr_loss(feats: dict[str, np.ndarray], target: AutocorrTarget):
    """Value and per-layer feature cotangents of the autocorrelation term."""
    if set(feats) != set(target.spectra):
        raise ValueError(
            f"feature layers {sorted(feats)} do not match target layers "
            f"{sorted(target.spectra)}"
        )
    value = 0.0
    cots = {}
    for name, f in feats.items():
        n = f.shape[0] * f.shape[1]
        fhat = np.fft.fft2(f, axes=(0, 1))
        diff = np.abs(fhat) ** 2 / n**2 - target.spectra[name]
        w = target.weights[name]
        value += w * np.sum(diff**2)
        cots[name] = (4.0 * w / n) * np.real(
            np.fft.ifft2(diff * fhat, axes=(0, 1))
        )
    return value, cots


def compute_targets(exemplar, cfg, network=None, layers=None,
                    layer_weight=DEFAULT_LAYER_WEIGHT) -> StatTargets:
    """Exemplar statistics for the terms a variant activates.

    `layers` defaults to the network's standard statistics layers; feature
    terms require `network`, the spectrum term does not.
    """
    terms = set(cfg.terms)
    unknown = terms - set(TERM_NAMES)
    if unknown:
        raise ValueError(f"unknown loss terms: {sorted(unknown)}")
    targets = StatTargets()
    if terms & {"gram", "autocorr"}:
        if network is None:
            raise ValueError("feature-statistics terms need a network")
        if layers is None:
            layers = [n for n in netmod.DEFAULT_STATS_LAYERS if n in network.names]
        feats = netmod.forward(network, exemplar, layers)
        if "gram" in terms:
            targets.gram = gram_target(feats, layer_weight)
        if "autocorr" in terms:
            targets.autocorr = autocorr_target(feats, layer_weight)
    if "spectrum" in terms:
        targets.spectrum = spectrum_target(exemplar)
    return targets


def total_loss(img, cfg, targets: StatTargets, network=None) -> LossReport:
    """Combined loss and image-space gradient for the active terms."""
    data = _as_array(img)
    terms = set(cfg.terms)
    beta = getattr(cfg, "beta", DEFAULT_BETA)
    report_terms = {}
    grad = np.zeros_like(data)
    spectrum_distance = None

    feature_layers = set()
    if "gram" in terms:
        if targets.gram is None:
            raise ValueError("gram term active but no gram target")
        feature_layers |= set(targets.gram.grams)
    if "autocorr" in terms:
        if targets.autocorr is None:
            raise ValueError("autocorr term active but no autocorr target")
        feature_layers |= set(targets.autocorr.spectra)

    if feature_layers:
        if network is None:
            raise ValueError("feature-statistics terms need a network")
        feats, pull = netmod.forward_with_pullback(network, data, sorted(feature_layers))
        cots = {name: np.zeros_like(f) for name, f in feats.items()}
        if "gram" in terms:
            sub = {name: feats[name] for name in targets.gram.grams}
            value, term_cots = gram_loss(sub, targets.gram)
            report_terms["gram"] = value
            for name, c in term_cots.items():
                cots[name] += c
        if "autocorr" in terms:
            sub = {name: feats[name] for name in targets.autocorr.spectra}
            value, term_cots = autocorr_loss(sub, targets.autocorr)
            report_terms["autocorr"] = value
            for name, c in term_cots.items():
                cots[name] += c
        grad += pull(cots)

    if "spectrum" in terms:
        if targets.spectrum is None:
            raise ValueError("spectrum term active but no spectrum target")
        value, sgrad = spectrum_loss(data, targets.spectrum)
        spectrum_distance = value
        report_terms["spectrum"] = beta * value
        grad += beta * sgrad

    total = float(sum(report_terms.values()))
    return LossReport(total, report_terms, grad, spectrum_distance)
