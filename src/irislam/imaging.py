"""Image ingestion and low-level raster operations.

Grayscale images are stored as (height, width) float64 arrays with
intensities in [0, 1]. Only binary PGM (P5, 8-bit) is decoded; anything
else should be converted externally.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np
from scipy import ndimage

from irislam.errors import FormatError


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


def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    terminating the last token (the raster starts there).
    """
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError("truncated PGM header")
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
            continue
        j = i
        while j < len(data) and data[j : j + 1] not in b" \t\r\n#":
            j += 1
        tokens.append(data[i:j])
        i = j
    if i >= len(data) or data[i : i + 1] not in b" \t\r\n":
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
    """Write a GrayImage as binary PGM (P5, maxval 255)."""
    raster = np.rint(img.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def gaussian_smooth(img: GrayImage, sigma: float) -> GrayImage:
    """Separable Gaussian blur with kernel radius ceil(3*sigma).

    Borders are handled by edge-clamp replication; the result is clamped
    back into [0, 1].
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = ceil(3.0 * sigma)
    out = ndimage.gaussian_filter(img.pixels, sigma=sigma, radius=radius, mode="nearest")
    return GrayImage(np.clip(out, 0.0, 1.0))


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

    Magnitude is scaled so its global maximum is 1 (all zeros for a
    constant image).
    """
    if img.height < 3 or img.width < 3:
        raise ValueError(f"image must be at least 3x3, got {img.width}x{img.height}")
    gx = ndimage.sobel(img.pixels, axis=1, mode="nearest")
    gy = ndimage.sobel(img.pixels, axis=0, mode="nearest")
    return _gradient_field(gx, gy)


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
