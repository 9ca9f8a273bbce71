"""Hot numeric kernels in plain numpy: 3x3 convolution, its adjoint, and
exact patch search; and `openblas_function`, the one lookup of the OpenBLAS
numpy runs on.

The convolutions run as nine shifted matrix products, one per kernel tap.
The taps are copied to one contiguous (3, 3, ci, co) block first, so each
tap is a unit-stride matrix and each product is one BLAS GEMM; a strided
tap view would send numpy's matmul to its own naive loop.

The image is walked in bands of output rows, each band's output within
a fixed byte budget (`_CONV_BAND_BYTES`, 256 KiB), so that the band's
zero-padded input rows, its output and one reused product buffer stay in
cache across the nine taps. A full-size product per tap, and a full
padded copy of the input, would each go to memory and back. Banding
keeps the bits: each image row's tap product is still its own
(w x ci)(ci x co) GEMM on the same operands, and each output element is
still the first tap's product plus the bias (0.0 in the adjoint), then
the other eight products added in raster tap order. So the output does
not depend on the band size.

The patch search finds, for every synthesis window a, the exemplar window b
of least SSD |a - b|^2. Windows with the same bytes have the same answer,
so each distinct window of either image is searched once: a periodic or
flat image has few. The estimate is |b|^2 - 2 a.b, the SSD less the row
constant |a|^2, from one GEMM of [a, 1] with [-2b, |b|^2] per block of
synthesis rows; a block's temporaries stay within a fixed byte budget.
The GEMM runs in float32, about twice as fast as in float64, when every
nonzero |pixel| of both images lies in [2^-50, 2^50]; otherwise, and for
windows of more than 2^20 values, in float64. With k = patch^2 * channels
and g(n) = n u / (1 - n u), every candidate within 6 g(k+4) of its row's
least estimate at u = 2^-24, or 10 g(k+3) at u = 2^-53, times
(|a|^2 + max |b|^2) and plus an allowance for underflow, may be the exact
winner. That margin bounds the rounding of both the estimate and the exact
float64 SSD; the derivation is at `displacement_search`. A row with one
such candidate is decided by it; the candidates of every other row are
re-ranked by their exact SSD, summed in the order the direct per-pixel
search summed it, and ties go to the smallest raster index of the exemplar
window, which is the lexicographically smallest (dy, dx). So the map
equals the direct search's bit for bit, whatever the estimate's precision,
the BLAS summation order or the thread count.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .imagecore import InputError


# Byte budget for one band of a conv's output rows, 8 * w * co bytes a row.
_CONV_BAND_BYTES = 256 << 10
# the kernel taps after (0, 0), in raster order
_LATER_TAPS = tuple((u, v) for u in range(3) for v in range(3))[1:]


def _nine_shifts(x: np.ndarray, taps: np.ndarray, init: np.ndarray | float) -> np.ndarray:
    """init + sum over (u, v) in raster order of shift (u, v) of the
    zero-padded x times taps[u, v], one band of rows at a time."""
    h, w, ci = x.shape
    co = taps.shape[3]
    rows = max(1, min(h, _CONV_BAND_BYTES // (8 * w * co)))
    xb = np.zeros((rows + 2, w + 2, ci))  # columns 0 and w + 1 stay zero
    prod = np.empty((rows, w, co))
    # out after the band buffers: the other order left the heap 9 MB
    # larger at the peak of a 256^2 loss evaluation
    out = np.empty((h, w, co))
    for lo in range(0, h, rows):
        n = min(rows, h - lo)
        # xb row r holds x row lo - 1 + r, or zeros beyond the image; row 0
        # is only beyond it in the first band, while xb is still all zeros
        first, last = max(lo - 1, 0), min(lo + n + 1, h)
        top = first - lo + 1
        xb[top : top + last - first, 1:-1] = x[first:last]
        xb[top + last - first : n + 2] = 0.0
        o, p = out[lo : lo + n], prod[:n]
        # the first tap's product goes straight into the band, init after
        # it: t0 + init has the bytes of a band filled with init plus t0,
        # and with init 0.0 it still turns -0.0 into 0.0
        np.matmul(xb[:n, :w], taps[0, 0], out=o)
        o += init
        for u, v in _LATER_TAPS:
            np.matmul(xb[u : u + n, v : v + w], taps[u, v], out=p)
            o += p
    return out


def conv3x3(x: np.ndarray, kern: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution, x (h,w,ci), kern (co,ci,3,3) -> (h,w,co)."""
    # taps[u, v] = kern[:, :, u, v].T
    return _nine_shifts(x, np.ascontiguousarray(kern.transpose(2, 3, 1, 0)), bias)


def conv3x3_back(g: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Adjoint of conv3x3 w.r.t. its input, g (h,w,co) -> (h,w,ci)."""
    # taps[u, v] = kern[:, :, 2 - u, 2 - v]
    return _nine_shifts(g, np.ascontiguousarray(kern[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)),
                        0.0)


# Byte budget for the temporaries of one search block: the (rows, windows)
# distance estimates, and each chunk of re-ranked window pairs.
_SEARCH_BLOCK_BYTES = 16 << 20


def _estimate_dtype(k: int, *images: np.ndarray):
    """np.float32 where the float32 estimate's margin holds for windows of
    k values of `images`: every nonzero |pixel| in [2**-50, 2**50] and
    k <= 2**20 (derived at `displacement_search`); np.float64 otherwise."""
    lo, hi = 2.0**-50, 2.0**50
    if k > 1 << 20:
        return np.float64
    for img in images:
        mag = np.abs(img)
        if not (mag.max() <= hi and mag.min(where=mag > 0, initial=hi) >= lo):
            return np.float64
    return np.float32


def _distinct_windows(img: np.ndarray, patch: int):
    """The windows of `img`, each distinct one once.

    Returns the window columns; the raster index of the first copy of each
    distinct window, ascending; for every window, the position of its first
    copy in that list; and those first copies as the rows of a matrix, each
    window row-major as (patch, patch * c) and followed by a 1. Windows are
    equal when their bytes are, so 0.0 and -0.0 tell two windows apart.
    """
    win = np.lib.stride_tricks.sliding_window_view(img, (patch, patch), axis=(0, 1))
    win = win.transpose(0, 1, 3, 4, 2)
    rows, cols = win.shape[:2]
    every = np.ones((rows * cols, win[0, 0].size + 1))
    every[:, :-1].reshape(win.shape)[...] = win  # a view, so no temporary
    keys = every.view(np.dtype((np.void, every[0].nbytes))).ravel()
    # a stable sort by bytes keeps equal windows in raster order, so each
    # run of equal keys starts with its first copy
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    del ranked
    first = order[new]  # in key order
    raster = np.argsort(first)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[order] = np.argsort(raster)[np.cumsum(new) - 1]
    first = first[raster]
    return cols, first, pos, every[first]


def _exact_ssd(a: np.ndarray, b: np.ndarray, one_column: bool) -> np.ndarray:
    """sum((b - a)**2) for each pair of (patch, patch * c) windows.

    The summation order is the one numpy used when the direct search reduced
    its (windows - tile) temporary, whose memory layout was
    (ey, dy, ex, dx, c): a pairwise sum over each contiguous (dx, c) run,
    then the runs added in dy order. With a single exemplar window column
    the whole window was one contiguous run.
    """
    d = b - a
    d *= d
    if one_column:
        return d.reshape(len(d), -1).sum(axis=1)
    runs = d.sum(axis=2)
    ssd = runs[:, 0].copy()
    for dy in range(1, runs.shape[1]):
        ssd += runs[:, dy]
    return ssd


def displacement_search(synth: np.ndarray, exemplar: np.ndarray, patch: int) -> np.ndarray:
    """Offsets (dy, dx) of the SSD-nearest exemplar patch for every interior pixel.

    Interior means the patch window fits inside `synth`; candidate windows
    must fit inside `exemplar`. Output has shape
    (hs - patch + 1, ws - patch + 1, 2) and offset = exemplar center minus
    synth center. Ties go to the lexicographically smallest (dy, dx).
    """
    if patch < 1 or patch % 2 == 0:
        raise InputError(f"patch size must be odd and positive, got {patch}")
    if min(synth.shape[:2]) < patch or min(exemplar.shape[:2]) < patch:
        raise InputError("patch size exceeds image dimensions")
    if synth.shape[2] != exemplar.shape[2]:
        raise InputError("channel counts differ")
    # Equal bytes give equal exact SSDs, so each distinct window is searched
    # once. The exemplar keeps the first copy of each, in raster order, so
    # the smallest index still wins a tie.
    s_cols, _, a_pos, a_aug = _distinct_windows(synth, patch)
    e_cols, b_first, _, b_aug = _distinct_windows(exemplar, patch)
    k = a_aug.shape[1] - 1
    a_sq = np.einsum("ij,ij->i", a_aug[:, :k], a_aug[:, :k])
    b_sq = np.einsum("ij,ij->i", b_aug[:, :k], b_aug[:, :k])
    b_sq_max = b_sq.max()
    # every pixel lies in some window, so this also rejects NaN and inf input
    if not np.isfinite(4.0 * (a_sq.max() + b_sq_max)):
        raise ValueError("non-finite pixel values, or values so large that "
                         "squared patch distances overflow")
    # [a, 1] . [-2b, |b|^2] is |b|^2 - 2 a.b, the SSD less |a|^2, which is
    # constant along a row and so does not change its ranking. Both scalings
    # of b are exact, so the re-rank gets b back from -2b with its bytes.
    b_aug[:, k] = b_sq
    b_aug[:, :k] *= -2.0
    # the windows as (patch, patch * c) blocks, views for the re-rank
    a, minus_2b = (m[:, :k].reshape(len(m), patch, -1) for m in (a_aug, b_aug))
    # The margin. For windows a, b let t = |b|^2 - 2 a.b, so that the exact
    # SSD is s = |a|^2 + t, and let Q = |a|^2 + max |b|^2. Let the estimate e
    # err from t by at most E, and the computed exact SSD S from s by at
    # most D. If b* wins the exact ranking and b' has the least estimate, then
    #   e(b*) <= t(b*) + E <= S(b*) - |a|^2 + E + D <= S(b') - |a|^2 + E + D
    #         <= t(b') + E + 2D <= e(b') + 2E + 2D,
    # so each candidate within 2E + 2D of its row's least estimate may win.
    # With unit roundoff u and g(n) = n u / (1 - n u):
    # - S, summed in any order from k rounded float64 squares of rounded
    #   differences, errs by at most g(k+2) s at u = 2**-53, and
    #   s <= 2 (|a|^2 + |b|^2), so D = 2 g(k+2) Q.
    # - The float64 estimate (u = 2**-53) is one GEMM of k + 1 products, in
    #   any summation order or thread split. Scaling by -2 is exact,
    #   2 |a.b| <= |a|^2 + |b|^2, and the computed |b|^2 errs by at most
    #   g(k) |b|^2, so
    #     |e - t| <= g(k+1) (|a|^2 + |b|^2 + (1 + g(k)) |b|^2) + g(k) |b|^2
    #             <= E = (3 + g(k)) g(k+1) Q,
    #   and 2E + 2D <= (10 + 2 g(k)) g(k+2) Q. Taking 10 g(k+3) Q adds at
    #   least 10u Q. That covers the rounding of (least estimate + margin),
    #   below 2u Q to first order since |e| <= |b|^2 + 2 |a||b|, and, at
    #   second order, the 2 g(k) g(k+2) term, the rounding of the margin
    #   itself and the computed norms standing in for exact ones. A product
    #   that underflows errs by at most half a subnormal, absolutely; 2E + 2D
    #   hold 6k products (k in the GEMM and k in |b|^2 for each E, k squares
    #   for each D), which the 8k subnormals added to the margin cover.
    # - The float32 estimate (u = 2**-24) runs where `_estimate_dtype` allows
    #   it: every nonzero |pixel| in [2**-50, 2**50] and k <= 2**20. There the
    #   float32 casts of a, of -2b and of the float64 |b|^2 (itself within
    #   2**-24 |b|^2 of exact, as k <= 2**20), and every product of cast
    #   values, are normal float32 numbers, and no sum comes near
    #   overflow (k |pixel|^2 <= 2**120). So each product of cast values is
    #   within g(2) of its exact term, and the GEMM sums the k + 1 of them, in
    #   any order, within g(k+1) of their absolute sum, which is at most
    #   (1 + g(2)) (|a|^2 + 2 |b|^2). Hence
    #     |e - t| <= (g(2) + g(k+1) + g(2) g(k+1)) (|a|^2 + 2 |b|^2)
    #             <= E = 2 g(k+3) Q,
    #   and as D <= 2u Q for k <= 2**20, 2E + 2D <= 4 g(k+4) Q. Taking
    #   6 g(k+4) Q leaves at least 10u Q for the float64 roundings of the
    #   margin, of (least estimate + margin) with |e| <= 3Q, and of the
    #   computed norms, each below 2**-28 Q. The threshold is then rounded
    #   up to float32, which only raises it, and the block is compared in
    #   float32. Within the range no product underflows; the 8k float32
    #   subnormals (2**-149 each) added anyway, as in float64, keep the
    #   bound from resting on the range's lower end.
    dtype = _estimate_dtype(k, synth, exemplar)
    u = np.finfo(dtype).eps / 2
    n, coef = (k + 4, 6) if dtype == np.float32 else (k + 3, 10)
    gamma = n * u / (1 - n * u)
    margin = coef * gamma * (a_sq + b_sq_max) + 8 * k * np.finfo(dtype).smallest_subnormal
    est_b = b_aug.astype(dtype, copy=False)  # the re-rank reads b_aug's float64 windows
    best = np.empty(len(a), dtype=np.int64)
    block = max(1, _SEARCH_BLOCK_BYTES // (est_b.itemsize * len(b_aug)))
    chunk = max(1, _SEARCH_BLOCK_BYTES // (4 * 8 * k))  # two gathers, b, one difference
    # one buffer for every block's estimates: a fresh one per block cost
    # about as much in page faults as the GEMM that fills it
    buf = np.empty((min(block, len(a)), len(b_aug)), dtype=dtype)
    for lo in range(0, len(a), block):
        hi = min(lo + block, len(a))
        est = np.matmul(a_aug[lo:hi].astype(dtype, copy=False), est_b.T, out=buf[: hi - lo])
        least = est.argmin(axis=1)
        at = np.arange(hi - lo)
        # the threshold in float64, rounded up to the estimate's precision
        thr = est[at, least] + margin[lo:hi]
        cut = thr.astype(dtype)
        cut = np.where(cut < thr, np.nextafter(cut, dtype(np.inf)), cut)
        near = est <= cut[:, None]
        # a row whose only candidate is its least estimate is decided by it
        best[lo:hi] = least
        near[at, least] = False
        many = np.flatnonzero(near.any(axis=1))
        if not len(many):
            continue
        near[at, least] = True
        rows, cols = np.nonzero(near[many])
        rows = lo + many[rows]
        ssd = np.concatenate([
            _exact_ssd(a[rows[i : i + chunk]], minus_2b[cols[i : i + chunk]] * -0.5,
                       e_cols == 1)
            for i in range(0, len(rows), chunk)
        ])
        # by row, then exact SSD, then raster index of the exemplar window,
        # which is the lexicographic (dy, dx) order
        order = np.lexsort((cols, ssd, rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        best[rows[first]] = cols[first]
    best = b_first[best[a_pos]]
    ys, xs = np.divmod(np.arange(len(best)), s_cols)
    eys, exs = np.divmod(best, e_cols)
    return np.stack([eys - ys, exs - xs], axis=1).reshape(len(best) // s_cols, s_cols, 2)


def openblas_function(name: str):
    """OpenBLAS's `name` (e.g. "get_corename") as a ctypes function of the
    library numpy loaded, or None if no OpenBLAS of it is found.

    The library and its symbol prefix are found as threadpoolctl finds them
    (https://github.com/joblib/threadpoolctl): the mapped files named
    openblas, then the scipy-openblas and plain symbols, 64-bit first.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    function = getattr(dll, prefix + name + suffix, None)
                    if function is not None:
                        return function
    except OSError:
        pass
    return None
