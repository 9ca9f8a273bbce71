"""Seeded benchmark inputs, written as 16-bit PPM or CSV before any timing.

Every input is a pure function of the benchmark seed: each one draws from
its own numpy stream `default_rng([seed, stream])`, so adding an input
never shifts another. The program under test only ever sees the files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

MAXVAL = 65535


def quantize(img: np.ndarray) -> np.ndarray:
    """Round [0, 1] samples to 16 bits and back, as the PPM file holds them."""
    return np.round(np.clip(img, 0.0, 1.0) * MAXVAL) / MAXVAL


def write_ppm(img: np.ndarray, path: Path) -> None:
    """Binary 16-bit PPM (P6), big-endian samples."""
    h, w, _ = img.shape
    raw = np.round(np.clip(img, 0.0, 1.0) * MAXVAL).astype(">u2")
    path.write_bytes(b"P6\n%d %d\n%d\n" % (w, h, MAXVAL) + raw.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Inverse of write_ppm for the files the program writes: P6, one
    whitespace byte after each header token, no comments."""
    blob = Path(path).read_bytes()
    tokens = blob.split(maxsplit=4)[:4]
    if len(tokens) != 4 or tokens[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM")
    w, h, maxval = (int(t) for t in tokens[1:])
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    header = sum(len(t) + 1 for t in tokens)
    if len(blob) - header != h * w * 3 * dtype.itemsize:
        raise ValueError(f"{path}: payload size does not match the header")
    return np.frombuffer(blob[header:], dtype=dtype).reshape(h, w, 3) / maxval


def procedural_texture(rng, size: int) -> np.ndarray:
    """Sinusoid mix plus seeded noise, RGB in [0.1, 0.9].

    Three plane waves with integer frequencies (so the texture tiles) are
    shared by the channels with per-channel weights; white noise makes
    every patch distinct, which the displacement oracle relies on.
    """
    y, x = np.mgrid[0:size, 0:size] / size
    waves = []
    for _ in range(3):
        fy, fx = rng.integers(2, max(3, size // 8), size=2) * rng.choice([-1, 1], size=2)
        waves.append(np.cos(2 * np.pi * (fy * y + fx * x) + rng.uniform(0, 2 * np.pi)))
    weights = rng.uniform(0.3, 1.0, size=(3, 3))
    img = np.einsum("kc,kyx->yxc", weights, np.stack(waves))
    img = img + rng.normal(0.0, 0.25, size=img.shape)
    lo, hi = img.min(axis=(0, 1)), img.max(axis=(0, 1))
    return quantize(0.1 + 0.8 * (img - lo) / (hi - lo))


def block_remix(rng, img: np.ndarray, block: int) -> np.ndarray:
    """The image cut into block x block tiles, tiles permuted by the seed."""
    h, w, c = img.shape
    tiles = img.reshape(h // block, block, w // block, block, c).swapaxes(1, 2)
    tiles = tiles.reshape(-1, block, block, c)
    perm = rng.permutation(len(tiles))
    if np.all(perm == np.arange(len(perm))):
        perm = perm[::-1]
    out = tiles[perm].reshape(h // block, w // block, block, block, c)
    return out.swapaxes(1, 2).reshape(h, w, c)


def noisy_remix(rng, img: np.ndarray, block: int) -> np.ndarray:
    """A synthesis stand-in: the image block-remixed plus a little noise."""
    remixed = block_remix(rng, img, block)
    return quantize(remixed + rng.normal(0.0, 0.02, size=img.shape))


def periodic_copy(rng, size: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """A random period x period block tiled to size x size, and a crop of
    the same tiling shifted by a seeded offset that is not a multiple of
    the period. Every synth patch then has several exact matches."""
    tile = quantize(rng.uniform(0.1, 0.9, size=(period, period, 3)))
    reps = size // period + 2
    tiling = np.tile(tile, (reps, reps, 1))
    sy, sx = rng.integers(1, period, size=2)
    return tiling[:size, :size], tiling[sy : sy + size, sx : sx + size]


def duels(rng, n_methods: int, n_duels: int):
    """Simulated duel records for methods with known centered strengths.

    Pairs are uniform over distinct methods and winners are drawn from the
    Bradley-Terry probability; the scale column is global or local at
    random, so the scale filter keeps about half the rows.
    """
    strengths = rng.normal(0.0, 0.8, size=n_methods)
    strengths -= strengths.mean()
    a = rng.integers(0, n_methods, size=n_duels)
    b = (a + rng.integers(1, n_methods, size=n_duels)) % n_methods
    p = 1.0 / (1.0 + np.exp(-(strengths[a] - strengths[b])))
    a_wins = rng.random(n_duels) < p
    image = rng.integers(0, 40, size=n_duels)
    scale = rng.integers(0, 2, size=n_duels)
    names = [f"m{i:02d}" for i in range(n_methods)]
    return [
        (names[i], names[j], names[i] if win else names[j], f"img{k:02d}",
         "global" if s == 0 else "local")
        for i, j, win, k, s in zip(a, b, a_wins, image, scale)
    ]


def write_duels(rows, path: Path) -> None:
    lines = ["method_a,method_b,winner,image_id,scale"]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
