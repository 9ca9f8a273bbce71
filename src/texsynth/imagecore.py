"""Image container, pyramids, resampling, and PNM raster I/O.

Images are held as float64 arrays of shape (h, w, c) with c in {1, 3},
row-major and channel-interleaved. Values are nominally in [0, 1] but are
not clamped anywhere except at export time, so intermediate results of an
optimization may wander outside the range without loss of information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RasterFormatError(Exception):
    """Malformed or unsupported raster file."""


class TooManyScales(Exception):
    """Pyramid depth would shrink the coarsest level below 8 pixels on a side."""


@dataclass
class Image:
    """A float64 raster of shape (h, w, c), c in {1, 3}."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"image data must be 2-D or 3-D, got shape {arr.shape}")
        if arr.shape[2] not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {arr.shape[2]}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty image, shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image data contains non-finite samples")
        self.data = np.ascontiguousarray(arr)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return self.data.shape[2]


def as_array(img) -> np.ndarray:
    """Float64 array view of an Image or array-like; no copy for Image."""
    if isinstance(img, Image):
        return img.data
    return np.asarray(img, dtype=np.float64)


def box_average2(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 block means of an (h, w, c) array and each block's pixel count.

    Output dims are ceil(h/2) x ceil(w/2); edge blocks on odd-sized inputs
    average only the pixels they cover, and the counts, shape (h2, w2, 1),
    say how many that was.
    """
    h2 = -(-data.shape[0] // 2)
    w2 = -(-data.shape[1] // 2)
    acc = np.zeros((h2, w2, data.shape[2]))
    cnt = np.zeros((h2, w2, 1))
    for di in (0, 1):
        for dj in (0, 1):
            sub = data[di::2, dj::2]
            acc[: sub.shape[0], : sub.shape[1]] += sub
            cnt[: sub.shape[0], : sub.shape[1]] += 1.0
    return acc / cnt, cnt


def downsample2(img: Image) -> Image:
    """Halve each dimension by 2x2 box averaging (see box_average2).

    Outputs stay inside the convex hull of the input values.
    """
    return Image(box_average2(img.data)[0])


def _axis_lerp(data: np.ndarray, target: int, axis: int) -> np.ndarray:
    """Bilinear interpolation along one axis with half-pixel-centered samples."""
    src = data.shape[axis]
    pos = (np.arange(target) + 0.5) * (src / target) - 0.5
    pos = np.clip(pos, 0.0, src - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, src - 1)
    frac = pos - i0
    shape = [1, 1, 1]
    shape[axis] = target
    frac = frac.reshape(shape)
    lo = np.take(data, i0, axis=axis)
    hi = np.take(data, i1, axis=axis)
    return lo * (1.0 - frac) + hi * frac


def upsample_bilinear(img: Image, th: int, tw: int) -> Image:
    """Separable bilinear upsampling to (th, tw).

    Sample positions are half-pixel centered, so constant images are
    reproduced exactly. Target dims must be at least the source dims.
    """
    if th < img.h or tw < img.w:
        raise ValueError(
            f"target dims ({th}, {tw}) must be >= source dims ({img.h}, {img.w})"
        )
    out = _axis_lerp(img.data, th, axis=0)
    out = _axis_lerp(out, tw, axis=1)
    return Image(out)


def build_pyramid(img: Image, K: int) -> list[Image]:
    """Return [full res, ..., coarsest], K+1 levels of repeated downsample2.

    Level k has dims ceil(h / 2**k) x ceil(w / 2**k). Raises TooManyScales
    when the coarsest level would fall below 8 pixels on a side.
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if min(img.h, img.w) / 2**K < 8:
        raise TooManyScales(
            f"{img.h}x{img.w} image cannot support K={K}: coarsest side "
            f"{min(img.h, img.w) / 2**K:g} < 8"
        )
    levels = [img]
    for _ in range(K):
        levels.append(downsample2(levels[-1]))
    return levels


def quantize(img: Image, bits: int = 16) -> np.ndarray:
    """Clamp to [0, 1] and round to unsigned integers. The only lossy step."""
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    maxval = (1 << bits) - 1
    clamped = np.clip(img.data, 0.0, 1.0)
    dtype = np.uint8 if bits == 8 else np.uint16
    return np.round(clamped * maxval).astype(dtype)


_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def _read_pnm_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, honoring # comments.

    Returns the tokens and the offset one byte past the final separator,
    which is where the binary payload starts.
    """
    tokens = []
    i = 0
    n = len(blob)
    while len(tokens) < count:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i : i + 1] == b"#":
            while i < n and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise RasterFormatError("truncated header")
        tokens.append(blob[start:i])
        if len(tokens) == count:
            # exactly one whitespace byte separates the header from the payload
            if i >= n or not blob[i : i + 1].isspace():
                raise RasterFormatError("missing separator after header")
            i += 1
    return tokens, i


def read_image(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file, 8- or 16-bit.

    Samples are mapped to [0, 1] by dividing by maxval. 16-bit samples are
    big-endian. PNG input is accepted as a convenience when Pillow is
    installed; PNM is the native format.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(_PNG_MAGIC):
        return _read_png(path)
    if len(blob) < 2 or blob[:2] not in (b"P5", b"P6"):
        raise RasterFormatError(f"not a binary PGM/PPM file: {path}")
    channels = 1 if blob[:2] == b"P5" else 3
    tokens, offset = _read_pnm_tokens(blob[2:], 3)
    offset += 2
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise RasterFormatError(f"bad header token in {path}") from exc
    if w < 1 or h < 1:
        raise RasterFormatError(f"bad dimensions {w}x{h} in {path}")
    if not 0 < maxval < 65536:
        raise RasterFormatError(f"bad maxval {maxval} in {path}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    expect = h * w * channels * dtype.itemsize
    payload = blob[offset : offset + expect]
    if len(payload) != expect:
        raise RasterFormatError(
            f"truncated payload in {path}: expected {expect} bytes, got {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=dtype).reshape(h, w, channels)
    return Image(raw.astype(np.float64) / maxval)


def _read_png(path) -> Image:
    try:
        from PIL import Image as PILImage
    except ImportError as exc:
        raise RasterFormatError("PNG input requires Pillow") from exc
    with PILImage.open(path) as im:
        if im.mode not in ("L", "RGB", "I;16"):
            im = im.convert("RGB" if im.mode not in ("1", "I", "F") else "L")
        arr = np.asarray(im)
    maxval = 65535.0 if arr.dtype == np.uint16 else 255.0
    return Image(arr.astype(np.float64) / maxval)


def write_image(img: Image, path, bits: int = 16) -> None:
    """Write a binary PGM/PPM file; 16-bit samples are big-endian.

    Quantization to `bits` is the only loss: read_image(write_image(x))
    reproduces the quantized raster bit-exactly.
    """
    with open(path, "wb") as fh:
        fh.write(serialize_pnm(img, bits))


def serialize_pnm(img: Image, bits: int = 16) -> bytes:
    """The exact bytes write_image would produce, for hashing and tests."""
    raw = quantize(img, bits)
    maxval = (1 << bits) - 1
    magic = b"P5" if img.c == 1 else b"P6"
    header = magic + b"\n%d %d\n%d\n" % (img.w, img.h, maxval)
    if bits == 16:
        raw = raw.astype(">u2")
    return header + raw.tobytes()
