"""Hot numeric kernels in plain numpy: 3x3 convolution, its adjoint, and
exhaustive patch search.

The convolutions run as nine shifted matrix products, one per kernel tap.
The patch search compares each synthesis window against every exemplar
window at once through a strided view.
"""

from __future__ import annotations

import numpy as np


def conv3x3(x: np.ndarray, kern: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 convolution, x (h,w,ci), kern (co,ci,3,3) -> (h,w,co)."""
    h, w, _ = x.shape
    xp = np.zeros((h + 2, w + 2, x.shape[2]))
    xp[1:-1, 1:-1] = x
    out = np.broadcast_to(bias, (h, w, bias.shape[0])).copy()
    for u in range(3):
        for v in range(3):
            out += xp[u : u + h, v : v + w] @ kern[:, :, u, v].T
    return out


def conv3x3_back(g: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Adjoint of conv3x3 w.r.t. its input, g (h,w,co) -> (h,w,ci)."""
    h, w, _ = g.shape
    gp = np.zeros((h + 2, w + 2, g.shape[2]))
    gp[1:-1, 1:-1] = g
    out = np.zeros((h, w, kern.shape[1]))
    for u in range(3):
        for v in range(3):
            out += gp[u : u + h, v : v + w] @ kern[:, :, 2 - u, 2 - v]
    return out


def displacement_search(synth: np.ndarray, exemplar: np.ndarray, patch: int) -> np.ndarray:
    """Offsets (dy, dx) of the SSD-nearest exemplar patch for every interior pixel.

    Interior means the patch window fits inside `synth`; candidate windows
    must fit inside `exemplar`. Output has shape
    (hs - patch + 1, ws - patch + 1, 2) and offset = exemplar center minus
    synth center. Ties go to the lexicographically smallest (dy, dx).
    """
    if patch < 1 or patch % 2 == 0:
        raise ValueError(f"patch size must be odd and positive, got {patch}")
    if min(synth.shape[:2]) < patch or min(exemplar.shape[:2]) < patch:
        raise ValueError("patch size exceeds image dimensions")
    if synth.shape[2] != exemplar.shape[2]:
        raise ValueError("channel counts differ")
    r = patch // 2
    hs, ws, _ = synth.shape
    wins = np.lib.stride_tricks.sliding_window_view(exemplar, (patch, patch), axis=(0, 1))
    out = np.empty((hs - 2 * r, ws - 2 * r, 2), dtype=np.int64)
    for y in range(r, hs - r):
        for x in range(r, ws - r):
            tile = synth[y - r : y + r + 1, x - r : x + r + 1].transpose(2, 0, 1)
            ssd = ((wins - tile) ** 2).sum(axis=(2, 3, 4))
            # argmin scans (ey, ex) ascending, so ties resolve to the
            # lexicographically smallest (dy, dx)
            ey, ex = np.unravel_index(np.argmin(ssd), ssd.shape)
            out[y - r, x - r, 0] = ey + r - y
            out[y - r, x - r, 1] = ex + r - x
    return out
