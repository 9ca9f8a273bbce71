"""Reference values the benchmark checks the program's outputs against.

Each one is computed here from the seeded inputs, independently of the
package's own code paths: the convolution is an im2col einsum, the patch
search a blocked GEMM with an exact re-rank, the wavelet transform a sum
of rolls and the strength fit an undamped Newton iteration. They follow
the formulas the README and the package docstrings promise, so a change
that keeps behaviour agrees with them to rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq
from scipy.special import gammaln

# vgg-mini: (name, kind, out channels); conv kernels are 3x3
VGG_MINI = (
    ("conv1_1", "conv", 16), ("relu1_1", "relu", 0), ("conv1_2", "conv", 16),
    ("relu1_2", "relu", 0), ("pool1", "pool", 0), ("conv2_1", "conv", 32),
    ("relu2_1", "relu", 0), ("pool2", "pool", 0), ("conv3_1", "conv", 64),
    ("relu3_1", "relu", 0), ("pool3", "pool", 0),
)
STATS_LAYERS = ("conv1_1", "pool1", "pool2", "pool3")


def he_weights(in_ch: int, seed: int) -> dict:
    """He-scaled gaussian kernels drawn in layer order, zero biases."""
    rng = np.random.default_rng(seed)
    weights, ci = {}, in_ch
    for name, kind, co in VGG_MINI:
        if kind == "conv":
            weights[name] = rng.standard_normal((co, ci, 3, 3)) * np.sqrt(2.0 / (9 * ci))
            ci = co
    return weights


def _conv(x, kern):
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    cols = sliding_window_view(xp, (3, 3), axis=(0, 1))  # (h, w, ci, 3, 3)
    return np.einsum("hwcuv,ocuv->hwo", cols, kern, optimize=True)


def features(img, weights, layers) -> dict:
    x, out = img, {}
    for name, kind, _ in VGG_MINI:
        if kind == "conv":
            x = _conv(x, weights[name])
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            h, w, m = x.shape
            if h % 2 or w % 2:
                raise ValueError("the reference pools even sizes only")
            x = x.reshape(h // 2, 2, w // 2, 2, m).mean(axis=(1, 3))
        if name in layers:
            out[name] = x
    return out


def _gram(f):
    n = f.shape[0] * f.shape[1]
    fm = f.reshape(n, -1)
    return fm.T @ fm / n**2


def _autocorr(f):
    n = f.shape[0] * f.shape[1]
    return np.abs(np.fft.fft2(f, axes=(0, 1))) ** 2 / n**2


def _spectrum_distance(x, ex):
    """||x - P(x)||^2 / 2N, P imposing the exemplar's Fourier modulus."""
    fx, fe = np.fft.fft2(x, axes=(0, 1)), np.fft.fft2(ex, axes=(0, 1))
    cross = np.sum(fx * np.conj(fe), axis=2)
    mod = np.abs(cross)
    phase = np.where(mod <= 1e-12 * mod.mean(), 1.0, cross / np.where(mod > 0, mod, 1.0))
    proj = np.real(np.fft.ifft2(phase[:, :, None] * fe, axes=(0, 1)))
    return np.sum((x - proj) ** 2) / (2 * x.shape[0] * x.shape[1])


def loss(img, exemplar, terms, weights, beta=1e5, layer_weight=1e9) -> float:
    """gram + beta * spectrum + autocorr over the active terms."""
    total = 0.0
    stats = [fn for term, fn in (("gram", _gram), ("autocorr", _autocorr)) if term in terms]
    if stats:
        # a statistics layer counts while its feature map is at least 2x2
        side = min(exemplar.shape[:2])
        layers = [n for i, n in enumerate(STATS_LAYERS) if side >> i >= 2]
        fx, fe = features(img, weights, layers), features(exemplar, weights, layers)
        for fn in stats:
            total += sum(layer_weight * np.sum((fn(fx[n]) - fn(fe[n])) ** 2) for n in layers)
    if "spectrum" in terms:
        total += beta * _spectrum_distance(img, exemplar)
    return float(total)


def downsample(img, k: int):
    """k levels of 2x2 box averaging (even dims)."""
    for _ in range(k):
        h, w, c = img.shape
        img = img.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))
    return img


def noise_start(exemplar, seed: int):
    """Seeded uniform noise with the exemplar's channel mean and std."""
    u = np.random.default_rng(seed).random(exemplar.shape) - 0.5
    return exemplar.mean(axis=(0, 1)) + u * (np.sqrt(12.0) * exemplar.std(axis=(0, 1)))


def displacement(synth, exemplar, patch: int = 5, block: int = 512):
    """Nearest-patch offsets (dy, dx), ties to the lexicographically smallest.

    SSD = |a|^2 + |b|^2 - 2 a.b over blocked GEMMs picks the candidates
    within a rounding margin of each row's minimum; those are re-ranked by
    the SSD summed directly, so exact ties resolve exactly.
    """
    def patches(img):
        win = sliding_window_view(img, (patch, patch), axis=(0, 1))
        return win.shape[:2], np.ascontiguousarray(win.reshape(win.shape[0] * win.shape[1], -1))

    (hs, ws), a = patches(synth)
    (he, we), b = patches(exemplar)
    an, bn = (a * a).sum(axis=1), (b * b).sum(axis=1)
    best = np.empty(len(a), dtype=np.int64)
    for lo in range(0, len(a), block):
        rows = slice(lo, lo + block)
        approx = an[rows, None] + bn[None, :] - 2.0 * (a[rows] @ b.T)
        margin = 1e-9 * (an[rows] + bn.max()) + approx.min(axis=1)
        r, c = np.nonzero(approx <= margin[:, None])
        exact = ((a[lo + r] - b[c]) ** 2).sum(axis=1)
        order = np.lexsort((c, exact, r))  # by row, then SSD, then raster index
        first = np.ones(len(order), dtype=bool)
        first[1:] = r[order][1:] != r[order][:-1]
        best[lo + r[order][first]] = c[order][first]
    ys, xs = np.divmod(np.arange(len(a)), ws)
    eys, exs = np.divmod(best, we)
    return np.stack([eys - ys, exs - xs], axis=1).reshape(hs, ws, 2)


def ds_score(disp) -> float:
    eq_h = np.all(disp[:, 1:] == disp[:, :-1], axis=2)
    eq_v = np.all(disp[1:] == disp[:-1], axis=2)
    return 1.0 - (int(eq_h.sum()) + int(eq_v.sum())) / (eq_h.size + eq_v.size)


_S3 = np.sqrt(3.0)
_LO = np.array([1 + _S3, 3 + _S3, 3 - _S3, 1 - _S3]) / (4 * np.sqrt(2.0))
_HI = np.array([_LO[3], -_LO[2], _LO[1], -_LO[0]])


def _analyze(x, axis):
    lo = sum(_LO[m] * np.roll(x, -m, axis=axis) for m in range(4))
    hi = sum(_HI[m] * np.roll(x, -m, axis=axis) for m in range(4))
    take = [slice(None)] * x.ndim
    take[axis] = slice(None, None, 2)
    return lo[tuple(take)], hi[tuple(take)]


def detail_bands(gray, scales: int):
    """Periodic Daubechies-4 detail subbands, all scales, finest first."""
    bands = []
    for _ in range(scales):
        lo, hi = _analyze(gray, 0)
        gray, lh = _analyze(lo, 1)
        hl, hh = _analyze(hi, 1)
        bands += [lh, hl, hh]
    return bands


def _ratio(beta):
    return np.exp(2.0 * gammaln(2.0 / beta) - gammaln(1.0 / beta) - gammaln(3.0 / beta))


def ggd_fit(x):
    """Moment-matched (alpha, beta), beta clamped to [0.05, 20]."""
    m1, m2 = np.mean(np.abs(x)), np.mean(x * x)
    ratio = m1 * m1 / m2
    if ratio <= _ratio(0.05):
        beta = 0.05
    elif ratio >= _ratio(20.0):
        beta = 20.0
    else:
        beta = brentq(lambda b: _ratio(b) - ratio, 0.05, 20.0, xtol=1e-13)
    return np.sqrt(m2 * np.exp(gammaln(1.0 / beta) - gammaln(3.0 / beta))), beta


def ggd_kl(p, q) -> float:
    (ap, bp), (aq, bq) = p, q
    return float(np.log(bp * aq / (bq * ap)) + gammaln(1.0 / bq) - gammaln(1.0 / bp)
                 + (ap / aq) ** bq * np.exp(gammaln((bq + 1.0) / bp) - gammaln(1.0 / bp))
                 - 1.0 / bp)


def klw_sum(synth, ref, scales: int = 8) -> float:
    """Summed KL(fit(synth band) || fit(ref band)) over subbands of >= 32 samples."""
    pairs = zip(detail_bands(synth.mean(axis=2), scales), detail_bands(ref.mean(axis=2), scales))
    return float(sum(ggd_kl(ggd_fit(a), ggd_fit(b)) for a, b in pairs if a.size >= 32))


def bt_strengths(wins, max_iter: int = 100):
    """Sum-zero maximum likelihood strengths by undamped Newton.

    Adding the all-ones matrix to the Hessian fixes its constant null
    direction; the gradient is orthogonal to it, so steps keep the sum.
    Stops when a step moves no strength by more than 1e-13.
    """
    n = len(wins)
    totals = wins + wins.T
    beta = np.zeros(n)
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(beta[None, :] - beta[:, None]))
        grad = wins.sum(axis=1) - (totals * p).sum(axis=1)
        w = totals * p * (1.0 - p)
        step = np.linalg.solve(np.diag(w.sum(axis=1)) - w + 1.0, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            return beta - beta.mean()
    raise RuntimeError("reference strength fit did not converge")


def bt_log_likelihood(beta, wins) -> float:
    """Sum of wins[i, j] * log sigmoid(beta_i - beta_j)."""
    return float(np.sum(wins * -np.logaddexp(0.0, beta[None, :] - beta[:, None])))


def bt_resolution(wins, beta) -> tuple[float, float]:
    """How finely the double-precision log-likelihood resolves the maximum.

    `beta` is the exact maximum. Returns (eps, dist): eps bounds the
    rounding of one log-likelihood sum of n^2 terms (ceil(log2 n^2) + 1
    ulps of its value); dist is the largest strength error a point can
    have while its computed log-likelihood is within 2 eps of the
    maximum's. Such a point is at most 4 eps below in exact arithmetic,
    and the quadratic model 0.5 e'He <= 4 eps with the smallest non-zero
    Hessian eigenvalue gives |e| <= sqrt(8 eps / lambda_2). A fit that
    stops on a likelihood flat to rounding can land anywhere in there.
    """
    n = len(wins)
    eps = (int(np.ceil(np.log2(n * n))) + 1) * float(np.spacing(abs(bt_log_likelihood(beta, wins))))
    p = 1.0 / (1.0 + np.exp(beta[None, :] - beta[:, None]))
    w = (wins + wins.T) * p * (1.0 - p)
    lam2 = np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)[1]
    return eps, float(np.sqrt(8.0 * eps / lam2))
