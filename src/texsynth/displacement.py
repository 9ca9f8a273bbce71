"""Displacement maps and the verbatim-copy score.

For every interior pixel of a synthesis result, the displacement map
records the (dy, dx) offset of the SSD-nearest patch in the exemplar.
Large constant regions in the map betray verbatim copying; the score
DS = 1 - n/N counts how often 4-neighbors agree exactly, so DS = 0 means
a pure copy and values near 1 mean neighbors almost never agree.
"""

from __future__ import annotations

import numpy as np

from ._kernels import displacement_search
from .imagecore import Image, InputError, as_array as _as_array

DEFAULT_PATCH = 5


def displacement_map(synth, exemplar, patch: int = DEFAULT_PATCH) -> np.ndarray:
    """Exhaustive nearest-patch offsets, int64 of shape (hs-p+1, ws-p+1, 2).

    [..., 0] is dy and [..., 1] is dx, both measured exemplar minus synth,
    so a verbatim copy maps to all zeros. Ties break to the smallest
    (dy, dx) in lexicographic order. Patch must be odd.

    With N' distinct synth windows, M' distinct exemplar windows and
    k = patch^2 * channels, the search costs about 2 N' M' k flops in GEMMs,
    float32 ones for pixels whose nonzero magnitudes lie in [2^-50, 2^50]
    and float64 ones otherwise, plus the exact float64 SSDs of the
    candidates it re-ranks (under 1% of the rows of a 256^2 noise pair);
    its temporaries are bounded per block of synth rows, not by N' M'.
    Periodic and flat images have few distinct windows, so they are cheap.
    """
    return displacement_search(_as_array(synth), _as_array(exemplar), patch)


def ds_score(disp: np.ndarray) -> float:
    """1 - n/N over ordered 4-neighbor pairs with exactly equal offsets."""
    disp = np.asarray(disp)
    if disp.ndim != 3 or disp.shape[2] != 2:
        raise ValueError(f"expected an (h, w, 2) offset map, got {disp.shape}")
    eq_h = np.all(disp[:, 1:] == disp[:, :-1], axis=2)
    eq_v = np.all(disp[1:] == disp[:-1], axis=2)
    total = eq_h.size + eq_v.size
    if total == 0:
        raise InputError("offset map too small: no 4-neighbor pairs")
    # each unordered adjacent pair counts twice in the ordered tally,
    # which cancels in the ratio
    return 1.0 - (int(eq_h.sum()) + int(eq_v.sum())) / total


def displacement_to_rgb(disp: np.ndarray) -> Image:
    """Color rendering: dx on red, dy on blue, each affinely mapped to [0, 1]."""
    disp = np.asarray(disp, dtype=np.float64)
    out = np.zeros((disp.shape[0], disp.shape[1], 3))
    for comp, chan in ((1, 0), (0, 2)):  # dx -> red, dy -> blue
        v = disp[:, :, comp]
        lo, hi = v.min(), v.max()
        if hi > lo:
            out[:, :, chan] = (v - lo) / (hi - lo)
    return Image(out)
