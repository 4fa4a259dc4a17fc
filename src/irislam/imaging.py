"""Image ingestion and low-level raster operations.

Grayscale images are stored as (height, width) float64 arrays with
intensities in [0, 1]. Only binary PGM (P5, 8-bit) is decoded; anything
else should be converted externally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from irislam.errors import FormatError
from irislam.files import replacing


@dataclass(eq=False)
class GrayImage:
    """A 2-D intensity grid with values in [0, 1]."""

    pixels: np.ndarray  # (height, width) float64

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        if self.pixels.size and not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):
            raise ValueError("intensities must lie in [0, 1]")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(eq=False)
class GradientField:
    """Per-pixel derivatives and their max-normalized magnitude.

    gx and gy are kept unscaled so the magnitude can be recomputed with a
    direction weighting later, and they give the gradient direction;
    magnitude is scaled to a global maximum of 1 for any non-constant image.
    """

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray


# Sobel's derivative and smoothing kernels, as scipy.ndimage.sobel correlates.
_SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])
_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])
# Flat positions per block of _correlate: a block's temporaries stay in cache.
_CORRELATE_BLOCK = 2**16
# Points per block of sample_bilinear: a block's temporaries take about
# 0.3 MB, however many points a call samples.
_SAMPLE_BLOCK = 2**12

# Whitespace and # comments (to the end of their line), then one header
# token: the group is empty only at the end of the data.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*\n?)*([^ \t\r\n#]*)")


def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    terminating the last token (the raster starts there).
    """
    tokens: list[bytes] = []
    i = 0
    for _ in range(count):
        match = _PGM_TOKEN.match(data, i)
        if not match[1]:
            raise FormatError("truncated PGM header")
        tokens.append(match[1])
        i = match.end()
    if data[i : i + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise FormatError("missing whitespace after PGM maxval")
    return tokens, i + 1


def load_gray_image(path: str | Path) -> GrayImage:
    """Decode a binary 8-bit PGM (P5) file into a GrayImage.

    Raises FormatError for non-P5 magic, maxval != 255, or a short raster;
    OSError propagates for unreadable files.
    """
    data = Path(path).read_bytes()
    (magic, w_tok, h_tok, maxval_tok), offset = _read_pgm_tokens(data, 4)
    if magic != b"P5":
        raise FormatError(f"unsupported PNM magic {magic.decode('ascii', 'replace')!r}; only P5 is handled")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise FormatError("non-numeric PGM header field") from None
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is handled")
    if width <= 0 or height <= 0:
        raise FormatError(f"bad dimensions {width}x{height}")
    raster = data[offset : offset + width * height]
    if len(raster) < width * height:
        raise FormatError("raster shorter than width*height")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.astype(np.float64) / 255.0)


def save_gray_image(img: GrayImage, path: str | Path) -> None:
    """Write a GrayImage as binary PGM (P5, maxval 255), replacing path only
    once the file is complete."""
    raster = np.rint(img.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with replacing(path) as partial:
        partial.write_bytes(header + raster.tobytes())


def _edge_padded(pixels: np.ndarray, r: int) -> np.ndarray:
    """pixels with r rows and columns added on every side, each a copy of
    the nearest edge (edge-clamp)."""
    h, w = pixels.shape
    out = np.empty((h + 2 * r, w + 2 * r))
    out[r : r + h, r : r + w] = pixels
    out[r : r + h, :r] = pixels[:, :1]
    out[r : r + h, r + w :] = pixels[:, -1:]
    out[:r] = out[r]
    out[r + h :] = out[r + h - 1]
    return out


def _correlate(src: np.ndarray, weights: np.ndarray, step: int, start: int,
               out: np.ndarray) -> None:
    """One separable pass over a flattened, edge-padded image: out[m] is
    the correlation centred on src[start + m], with tap k at src[start + m
    +- k * step] (step 1 along a row, the row length down a column).

    weights has odd length 2R + 1 and is symmetric or antisymmetric. Each
    value is summed as scipy.ndimage.correlate1d sums it, so the bits
    match: centre * w[R], then (left + right) * w[R - k], or (left - right)
    * w[R - k] for an antisymmetric kernel, added for k from R down to 1,
    the outermost pair first. A weight of 1 multiplies nothing, which
    changes no bit. The caller keeps every tap read inside src.
    """
    r = len(weights) // 2
    combine = np.add if weights[0] == weights[-1] else np.subtract
    tmp = np.empty(min(_CORRELATE_BLOCK, out.size))
    for b0 in range(0, out.size, _CORRELATE_BLOCK):
        b1 = min(b0 + _CORRELATE_BLOCK, out.size)
        lo, hi = start + b0, start + b1
        o, t = out[b0:b1], tmp[: b1 - b0]
        np.multiply(src[lo:hi], weights[r], out=o)
        for k in range(r, 0, -1):
            d = k * step
            combine(src[lo - d : hi - d], src[lo + d : hi + d], out=t)
            if weights[r - k] != 1:
                t *= weights[r - k]
            o += t


def gaussian_smooth(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur with kernel radius ceil(3*sigma).

    Borders are handled by edge-clamp replication; the result is clamped
    back into [0, 1]. The kernel, the pass order (rows, then columns) and
    the sum of every value are scipy.ndimage.gaussian_filter's, so the
    result has its bits.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x**2)
    kernel /= kernel.sum()
    h, w = img.pixels.shape
    stride = w + 2 * radius
    # The pass down the columns runs over the padded columns too, which
    # makes them the edge-clamped columns of the pass along the rows.
    columns = np.empty(h * stride)
    _correlate(_edge_padded(img.pixels, radius).ravel(), kernel, stride, radius * stride, columns)
    out = np.empty((h, stride))
    _correlate(columns, kernel, 1, radius, out.ravel()[: h * stride - 2 * radius])
    return GrayImage(np.clip(out[:, :w], 0.0, 1.0))


def sample_bilinear(pixels: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of pixels at the points (ys, xs), with
    out-of-image points edge-clamped.

    The bits are scipy.ndimage.map_coordinates's at order 1 in mode
    "nearest": per axis the weights are 1 - t and 1 - (1 - t), for t the
    coordinate's distance above its floor, taken before any clamping; only
    the indices of the four neighbours are clamped to the image. The four
    terms, each pixel * row weight * column weight, are added to 0 in
    row-major order.
    """
    ys, xs = np.asarray(ys), np.asarray(xs)
    out = np.zeros(ys.shape)
    flat_out, flat_ys, flat_xs = out.reshape(-1), ys.reshape(-1), xs.reshape(-1)
    for b0 in range(0, out.size, _SAMPLE_BLOCK):
        b1 = b0 + _SAMPLE_BLOCK
        _sample_block(pixels, flat_ys[b0:b1], flat_xs[b0:b1], flat_out[b0:b1])
    return out


def _sample_block(pixels: np.ndarray, ys: np.ndarray, xs: np.ndarray, out: np.ndarray) -> None:
    """sample_bilinear of one block of 1-D points, added into out."""
    h, w = pixels.shape
    flat = pixels.ravel()
    # Per axis, the floor's index and its pixel's weight 1 - t.
    rows, cols = np.floor(ys), np.floor(xs)
    wy, wx = ys - rows, xs - cols
    np.subtract(1.0, wy, out=wy)
    np.subtract(1.0, wx, out=wx)
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)
    col0 = np.clip(cols, 0, w - 1)
    cols += 1
    col_weights = ((col0, wx), (np.clip(cols, 0, w - 1, out=cols), 1.0 - wx))
    for below in (False, True):
        if below:
            rows += 1
            np.subtract(1.0, wy, out=wy)
        row = np.clip(rows, 0, h - 1)
        row *= w
        for col, col_weight in col_weights:
            term = flat[row + col]
            term *= wy
            term *= col_weight
            out += term


def _gradient_field(gx: np.ndarray, gy: np.ndarray) -> GradientField:
    """Magnitude hypot(gx, gy) scaled to a global maximum of 1 (all zeros
    when gx and gy are)."""
    magnitude = np.hypot(gx, gy)
    peak = magnitude.max()
    if peak > 0:
        magnitude /= peak
    return GradientField(gx=gx, gy=gy, magnitude=magnitude)


def compute_gradient(img: GrayImage) -> GradientField:
    """3x3 Sobel derivatives with edge-clamped borders.

    Each derivative is scipy.ndimage.sobel's, bit for bit: the difference
    along its axis, then the smoothing across it. Magnitude is scaled so
    its global maximum is 1 (all zeros for a constant image).
    """
    if img.height < 3 or img.width < 3:
        raise ValueError(f"image must be at least 3x3, got {img.width}x{img.height}")
    h, w = img.pixels.shape
    stride = w + 2
    padded = _edge_padded(img.pixels, 1).ravel()
    # Both differences first, so that at most three full-size arrays live
    # at once. gx's runs along every padded row: its two ends have no row
    # neighbour and are read only by outputs that fall in the padding. gy's
    # runs down rows 1..h over every padded column.
    diff_x = np.zeros(padded.size)
    _correlate(padded, _SOBEL_DIFF, 1, 1, diff_x[1:-1])
    diff_y = np.empty(h * stride)
    _correlate(padded, _SOBEL_DIFF, stride, stride, diff_y)
    del padded
    gx = np.empty((h, stride))
    _correlate(diff_x, _SOBEL_SMOOTH, stride, stride, gx.ravel())
    del diff_x
    gy = np.empty((h, stride))
    _correlate(diff_y, _SOBEL_SMOOTH, 1, 1, gy.ravel()[: h * stride - 2])
    del diff_y
    return _gradient_field(gx[:, 1 : w + 1], gy[:, :w])


def weight_vertical_gradient(field: GradientField, horizontal_weight: float) -> GradientField:
    """Down-weight horizontal intensity changes before edge detection.

    Recomputes magnitude as hypot(horizontal_weight*gx, gy) and rescales
    its maximum to 1. horizontal_weight=1 is the identity; 0 keeps only
    gy, the vertical intensity change. That keeps horizontal edges, the
    top and bottom of the limbus and a horizontal eyelid alike, and drops
    most of the limbus's near-vertical left and right flanks; it does not
    suppress eyelid edges.
    """
    if not 0.0 <= horizontal_weight <= 1.0:
        raise ValueError(f"horizontal_weight must be in [0, 1], got {horizontal_weight}")
    return _gradient_field(field.gx * horizontal_weight, field.gy)
