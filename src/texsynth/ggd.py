"""Generalized Gaussian subband statistics and the wavelet KL texture metric.

A GGD p(x) = beta / (2 alpha Gamma(1/beta)) exp(-(|x|/alpha)^beta) is fit
to each wavelet detail subband by moment matching: the ratio
(E|x|)^2 / E x^2 pins the shape beta, then alpha follows from the second
moment. Two textures are compared by the closed-form KL divergence
between fitted GGDs, summed over subbands.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma

import numpy as np

from . import wavelets
from .imagecore import InputError, as_array, channel_sum

SHAPE_MIN = 0.05
SHAPE_MAX = 20.0
MIN_SUBBAND_SAMPLES = 32
LOG_ZERO_SENTINEL = -1e9

_ORIENTATIONS = ("lh", "hl", "hh")
_EPS = float(np.finfo(np.float64).eps)


class DegenerateSample(InputError):
    """Zero-variance sample; a GGD cannot be fit. A flat subband is a
    property of the image, so it is bad input."""


@dataclass
class GGDParams:
    """Scale alpha and shape beta; `clamped` marks a bracket-end fit."""

    alpha: float
    beta: float
    clamped: bool = False


def _moment_ratio(beta: float) -> float:
    """(E|x|)^2 / E x^2 for a GGD of shape beta."""
    return exp(2.0 * lgamma(2.0 / beta) - lgamma(1.0 / beta) - lgamma(3.0 / beta))


def fit_ggd(samples) -> GGDParams:
    """Moment-matched GGD fit.

    Needs at least 32 samples, not all equal and with a variance that does
    not underflow to 0. When the empirical moment ratio falls outside what
    shapes in [0.05, 20] can produce, the shape clamps to the bracket end
    and the result is flagged.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_SUBBAND_SAMPLES:
        raise ValueError(f"need >= {MIN_SUBBAND_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    var = np.var(x)
    m1 = np.mean(np.abs(x))
    m2 = np.mean(x**2)
    # Equal samples can leave np.var a rounding residue of their mean
    # (48 x 0.1 give 1.9e-34), a deviation below n eps E|x|; only a spread
    # that small costs the pass that compares the samples. A spread that
    # underflows gives 0.
    if var == 0.0 or (np.sqrt(var) <= x.size * _EPS * m1 and np.all(x == x[0])):
        raise DegenerateSample("all samples equal; GGD fit undefined")
    ratio = float(m1**2 / m2)
    clamped = False
    if ratio <= _moment_ratio(SHAPE_MIN):
        beta, clamped = SHAPE_MIN, True
    elif ratio >= _moment_ratio(SHAPE_MAX):
        beta, clamped = SHAPE_MAX, True
    else:  # the ratio rises with the shape: bisect until no float lies between
        lo, hi = SHAPE_MIN, SHAPE_MAX
        while lo < (beta := 0.5 * (lo + hi)) < hi:
            lo, hi = (beta, hi) if _moment_ratio(beta) < ratio else (lo, beta)
    alpha = np.sqrt(m2 * np.exp(lgamma(1.0 / beta) - lgamma(3.0 / beta)))
    return GGDParams(float(alpha), float(beta), clamped)


def kl_ggd(p: GGDParams, q: GGDParams) -> float:
    """Closed-form KL(p || q) between two GGDs, in nats.

    log(bp aq G(1/bq) / (bq ap G(1/bp)))
      + (ap/aq)^bq G((bq+1)/bp) / G(1/bp) - 1/bp
    """
    ap, bp = p.alpha, p.beta
    aq, bq = q.alpha, q.beta
    if ap == aq and bp == bq:
        return 0.0  # the formula cancels analytically; make it exact
    log_term = (
        np.log(bp / bq)
        + np.log(aq / ap)
        + lgamma(1.0 / bq)
        - lgamma(1.0 / bp)
    )
    power_term = (ap / aq) ** bq * np.exp(lgamma((bq + 1.0) / bp) - lgamma(1.0 / bp))
    return float(log_term + power_term - 1.0 / bp)


def texture_distance_klw(a, b, scales: int = 8, names=("a", "b")):
    """Summed subband KL divergence between two textures.

    Inputs are averaged to one channel, decomposed with dwt2_daub4, and a
    GGD is fit per detail subband of each image; the per-subband
    KL(a-fit || b-fit) values are summed. Subbands with fewer than 32
    coefficients are skipped in both images. A size that cannot take
    `scales` (WaveletScaleError) or a zero-variance subband
    (DegenerateSample) raises naming its image by `names`. Returns
    ([(scale, orientation, kl), ...], aggregate).
    """
    return details_distance_klw(wavelet_details(a, scales, names[0]),
                                wavelet_details(b, scales, names[1]), names)


def wavelet_details(img, scales: int = 8, name="image"):
    """The detail bands of `img`, averaged to one channel, by dwt2_daub4;
    WaveletScaleError names the image by `name`."""
    try:
        return wavelets.dwt2_daub4(_to_gray(img), scales)[1]
    except wavelets.WaveletScaleError as exc:
        raise wavelets.WaveletScaleError(f"{name}: {exc}") from None


def details_distance_klw(details_a, details_b, names=("a", "b")):
    """texture_distance_klw of two images given by their wavelet_details,
    so that one image's decomposition can be scored against many."""
    per_subband = []
    total = 0.0
    for s, (bands_a, bands_b) in enumerate(zip(details_a, details_b), start=1):
        for name, band_a, band_b in zip(_ORIENTATIONS, bands_a, bands_b):
            if (
                band_a.size < MIN_SUBBAND_SAMPLES
                or band_b.size < MIN_SUBBAND_SAMPLES
            ):
                continue
            fits = []
            for image, band in zip(names, (band_a, band_b)):
                try:
                    fits.append(fit_ggd(band))
                except DegenerateSample:
                    raise DegenerateSample(f"{image}: wavelet subband {name} at scale {s} "
                                           "is constant; GGD fit undefined") from None
            kl = kl_ggd(*fits)
            per_subband.append((s, name, kl))
            total += kl
    return per_subband, float(total)


def log_score(aggregate: float) -> float:
    """Natural log of the aggregate; exact zero maps to the -1e9 sentinel."""
    if aggregate <= 0.0:
        return LOG_ZERO_SENTINEL
    return float(np.log(aggregate))


def _to_gray(img) -> np.ndarray:
    data = as_array(img)
    if data.ndim == 3:
        data = channel_sum(data) / data.shape[2]  # np.mean's bytes
    return data
