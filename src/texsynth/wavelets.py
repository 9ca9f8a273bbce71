"""Separable 2-D Daubechies-4 wavelet transform with periodic extension.

Analysis pairs the 4-tap orthonormal lowpass with its quadrature mirror;
downsampling is by 2 with wrap-around indexing, so reconstruction is
exact for inputs whose dimensions are even at every level. Each scale
yields three detail bands (named by the vertical/horizontal filter
order: lh, hl, hh) plus the approximation that feeds the next scale.
"""

from __future__ import annotations

import numpy as np

from . import imagecore

_SQRT3 = np.sqrt(3.0)
# orthonormal 4-tap lowpass and its quadrature mirror highpass
LOWPASS = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (
    4.0 * np.sqrt(2.0)
)
HIGHPASS = np.array([LOWPASS[3], -LOWPASS[2], LOWPASS[1], -LOWPASS[0]])


class WaveletScaleError(imagecore.InputError):
    """Image dimensions cannot support the requested number of scales."""


def _as_gray2d(img) -> np.ndarray:
    data = imagecore.as_array(img)
    if data.ndim == 3:
        if data.shape[2] == 1:
            data = data[:, :, 0]
        else:
            raise ValueError("expected a single-channel input; average channels first")
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {data.shape}")
    return data


def _analyze_axis0(x: np.ndarray):
    n = x.shape[0]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    taps = np.moveaxis(x[idx], 1, -1)  # (n/2, ..., 4)
    # the matrix and np.dot call that tensordot over the tap axis makes, built
    # once for both filters; its layout matters to the last bit: at n = 2 the
    # reshape is a transposed view, which BLAS sums in another order
    mat = taps.reshape(-1, 4)
    lo = np.dot(mat, LOWPASS.reshape(4, 1)).reshape(taps.shape[:-1])
    hi = np.dot(mat, HIGHPASS.reshape(4, 1)).reshape(taps.shape[:-1])
    return lo, hi


def _synthesize_axis0(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    n = 2 * lo.shape[0]
    out = np.zeros((n,) + lo.shape[1:])
    base = 2 * np.arange(lo.shape[0])
    for m in range(4):
        # for fixed m the wrapped targets are distinct, plain += is safe
        out[(base + m) % n] += LOWPASS[m] * lo + HIGHPASS[m] * hi
    return out


def _dwt_level(x: np.ndarray):
    lo, hi = _analyze_axis0(x)
    ll, lh = (band.T for band in _analyze_axis0(lo.T))
    hl, hh = (band.T for band in _analyze_axis0(hi.T))
    return ll, (lh, hl, hh)


def _idwt_level(ll, bands):
    lh, hl, hh = bands
    lo = _synthesize_axis0(ll.T, lh.T).T
    hi = _synthesize_axis0(hl.T, hh.T).T
    return _synthesize_axis0(lo, hi)


def dwt2_daub4(img, scales: int = 8):
    """Decompose into (approximation, details) over `scales` levels.

    `details` lists one (lh, hl, hh) triple per scale, finest first. Both
    dimensions must be divisible by 2**scales so that every level sees
    even dims and periodized reconstruction stays exact.
    """
    x = _as_gray2d(img)
    if scales < 1:
        raise imagecore.InputError(f"scales must be >= 1, got {scales}")
    h, w = x.shape
    if h % 2**scales or w % 2**scales:
        raise WaveletScaleError(
            f"{h}x{w} image cannot support {scales} scales: dims must be "
            f"divisible by 2**{scales}"
        )
    details = []
    for _ in range(scales):
        x, bands = _dwt_level(x)
        details.append(bands)
    return x, details


def idwt2_daub4(approx, details) -> np.ndarray:
    """Exact inverse of dwt2_daub4."""
    x = np.asarray(approx, dtype=np.float64)
    for bands in reversed(details):
        x = _idwt_level(x, bands)
    return x
