"""Hot numeric kernels in plain numpy: 3x3 convolution, its adjoint, and
exact patch search.

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
still the bias (0.0 in the adjoint) plus the nine products, added in
raster tap order. So the output does not depend on the band size.

The patch search finds, for every synthesis window a, the exemplar window b
of least SSD |a - b|^2. Candidates come from |a|^2 + |b|^2 - 2 a.b, with
a.b from one GEMM per block of synthesis rows; a block's temporaries stay
within a fixed byte budget. With k = patch^2 * channels, u = 2^-53 and
g(n) = n u / (1 - n u), every candidate within 8 g(k+3) (|a|^2 + max |b|^2)
of its row's minimum (plus an allowance for underflow) is re-ranked by its
exact SSD. That margin bounds the rounding of both the GEMM estimate and
the exact SSD; the derivation is at `displacement_search`. The exact SSD is
summed in the order the direct per-pixel search summed it, and ties go to
the smallest raster index of the exemplar window, which is the
lexicographically smallest (dy, dx). So the map equals the direct search's
bit for bit, whatever the BLAS summation order or thread count.
"""

from __future__ import annotations

import numpy as np

from .imagecore import InputError


# Byte budget for one band of a conv's output rows, 8 * w * co bytes a row.
_CONV_BAND_BYTES = 256 << 10


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
        o[...] = init
        for u in range(3):
            for v in range(3):
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


def _windows(img: np.ndarray, patch: int) -> tuple[int, np.ndarray]:
    """Window columns, and every window as a (patch, patch * c) row-major block."""
    win = np.lib.stride_tricks.sliding_window_view(img, (patch, patch), axis=(0, 1))
    rows, cols = win.shape[:2]
    flat = np.ascontiguousarray(win.transpose(0, 1, 3, 4, 2))
    return cols, flat.reshape(rows * cols, patch, -1)


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
    s_cols, a = _windows(synth, patch)
    e_cols, b = _windows(exemplar, patch)
    k = a[0].size
    a_mat, b_mat = a.reshape(len(a), k), b.reshape(len(b), k)
    a_sq = np.einsum("ij,ij->i", a_mat, a_mat)
    b_sq = np.einsum("ij,ij->i", b_mat, b_mat)
    b_sq_max = b_sq.max()
    # every pixel lies in some window, so this also rejects NaN and inf input
    if not np.isfinite(4.0 * (a_sq.max() + b_sq_max)):
        raise ValueError("non-finite pixel values, or values so large that "
                         "squared patch distances overflow")
    # The margin. Let u = 2**-53 and g(n) = n*u / (1 - n*u). For windows a, b
    # with exact SSD s = |a|^2 + |b|^2 - 2 a.b <= 2 (|a|^2 + |b|^2):
    # - the estimate e = fl(fl(-2 a.b + |b|^2) + |a|^2) errs by at most
    #   g(k) |a|^2 + g(k) |b|^2 from the norms, g(k) (|a|^2 + |b|^2) from the
    #   GEMM's 2 a.b whatever its summation order or thread split, and two
    #   roundings of values below 2 (|a|^2 + |b|^2):
    #   |e - s| <= E = 2 g(k+2) (|a|^2 + |b|^2);
    # - the exact SSD S, summed in any order from k rounded squares of
    #   rounded differences, errs by at most g(k+2) s <= D = E.
    # If b* wins the exact ranking and b' has the least estimate, then
    #   e(b*) <= s(b*) + E <= S(b*) + E + D <= S(b') + E + D <= e(b') + 2E + 2D,
    # so b* lies within 8 g(k+2) (|a|^2 + max |b|^2) of the row minimum.
    # Taking g(k+3) adds at least 8u (|a|^2 + max |b|^2). That covers the
    # rounding of (row minimum + margin), below 2u (|a|^2 + max |b|^2) to
    # first order, and, at second order, the rounding of the margin itself
    # and the computed norms standing in for exact ones. A product that
    # underflows errs by at most half a subnormal, absolutely; 2E + 2D hold
    # 5k products, which the 8k subnormals added to the margin cover.
    u = np.finfo(np.float64).eps / 2
    gamma = (k + 3) * u / (1 - (k + 3) * u)
    underflow = 8 * k * np.finfo(np.float64).smallest_subnormal
    best = np.empty(len(a), dtype=np.int64)
    block = max(1, _SEARCH_BLOCK_BYTES // (8 * len(b)))
    chunk = max(1, _SEARCH_BLOCK_BYTES // (3 * 8 * k))  # two gathers, one difference
    for lo in range(0, len(a), block):
        hi = min(lo + block, len(a))
        approx = a_mat[lo:hi] @ b_mat.T
        approx *= -2.0
        approx += b_sq
        approx += a_sq[lo:hi, None]
        margin = 8 * gamma * (a_sq[lo:hi] + b_sq_max) + underflow
        rows, cols = np.nonzero(approx <= (approx.min(axis=1) + margin)[:, None])
        ssd = np.concatenate([
            _exact_ssd(a[lo + rows[i : i + chunk]], b[cols[i : i + chunk]], e_cols == 1)
            for i in range(0, len(rows), chunk)
        ])
        # by row, then exact SSD, then raster index of the exemplar window,
        # which is the lexicographic (dy, dx) order
        order = np.lexsort((cols, ssd, rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        best[lo + rows[first]] = cols[first]
    ys, xs = np.divmod(np.arange(len(a)), s_cols)
    eys, exs = np.divmod(best, e_cols)
    return np.stack([eys - ys, exs - xs], axis=1).reshape(len(a) // s_cols, s_cols, 2)
