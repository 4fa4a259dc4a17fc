"""Pupil and limbic boundary localization.

Canny-style edge extraction (non-maximum suppression + hysteresis at the
0.2/0.19 thresholds) followed by a circular Hough transform. The outer
boundary is searched on a gradient with its horizontal derivative scaled
down (by default to 0, which keeps horizontal eyelid edges and drops most
of the limbus's vertical flanks), then the pupil near the found iris center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import ndimage

from irislam.errors import LocalizationError
from irislam.imaging import (
    GradientField,
    GrayImage,
    compute_gradient,
    gaussian_smooth,
    weight_vertical_gradient,
)

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
_BAND = 2  # radii per band of the coarse vote bound


@dataclass(eq=False)
class EdgeMap:
    """Boolean edge mask with the source field's dimensions."""

    edges: np.ndarray  # (height, width) bool

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=bool)


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")


@dataclass(frozen=True)
class IrisLocalization:
    """Pupil and limbic boundary circles; the pupil must sit strictly
    inside the iris circle so every radial ray from the pupil center
    crosses the iris boundary exactly once."""

    pupil: Circle
    iris: Circle

    def __post_init__(self):
        ox, oy = self.offset
        if self.pupil.r >= self.iris.r:
            raise ValueError("pupil radius must be smaller than iris radius")
        if math.hypot(ox, oy) + self.pupil.r >= self.iris.r:
            raise ValueError("pupil circle must lie strictly inside the iris circle")

    @property
    def offset(self) -> tuple[float, float]:
        """Pupil-center displacement (ox, oy) relative to the iris center."""
        return (self.pupil.cx - self.iris.cx, self.pupil.cy - self.iris.cy)


@dataclass(frozen=True)
class LocalizationConfig:
    """Tunables for the two-pass boundary search (defaults sized for
    320x280 eye images)."""

    sigma: float = 2.0
    t_high: float = 0.2
    t_low: float = 0.19
    horizontal_weight: float = 0.0  # outer pass only
    iris_r_min: int = 90
    iris_r_max: int = 150
    pupil_r_min: int = 25
    pupil_r_max: int = 75
    pupil_center_slack: int = 30


def non_max_suppression(field: GradientField, floor: float = 0.0) -> GradientField:
    """Thin edges to local maxima along the gradient direction.

    Each pixel is compared against the two points where its gradient
    direction crosses the 8-neighbor ring, linearly interpolated between
    the straddling neighbors; it survives iff it is not smaller than both
    (ties survive). Off-image samples are edge-clamped. Only pixels with
    magnitude >= floor are compared; every other pixel is suppressed, so
    a floor at or below the hysteresis low threshold leaves the edge map
    unchanged.
    """
    if field.height < 3 or field.width < 3:
        raise ValueError("field must be at least 3x3")
    mag = field.magnitude
    ys, xs = np.nonzero(mag >= floor)
    theta = field.orientation[ys, xs]
    u = np.cos(theta)
    v = np.sin(theta)
    # Scale the direction so it lands on the unit-square boundary: one
    # component becomes exactly +-1, the other the interpolation offset.
    s = np.maximum(np.abs(u), np.abs(v))
    s[s == 0] = 1.0
    dx = u / s
    dy = v / s
    fwd = ndimage.map_coordinates(mag, [ys + dy, xs + dx], order=1, mode="nearest")
    bwd = ndimage.map_coordinates(mag, [ys - dy, xs - dx], order=1, mode="nearest")
    m = mag[ys, xs]
    keep = (m >= fwd) & (m >= bwd)
    out = np.zeros_like(mag)
    out[ys[keep], xs[keep]] = m[keep]
    return GradientField(gx=field.gx, gy=field.gy, magnitude=out, orientation=field.orientation)


def hysteresis_threshold(field: GradientField, t_high: float, t_low: float) -> EdgeMap:
    """Two-threshold edge acceptance with 8-connectivity chaining.

    Pixels >= t_high seed edges; any pixel >= t_low joins if it reaches a
    seed through a chain of pixels all >= t_low.
    """
    if not (0 < t_low <= t_high <= 1):
        raise ValueError(f"need 0 < t_low <= t_high <= 1, got t_low={t_low}, t_high={t_high}")
    above_low = field.magnitude >= t_low
    labels, _ = ndimage.label(above_low, structure=_EIGHT_CONNECTED)
    seed_labels = np.unique(labels[field.magnitude >= t_high])
    seed_labels = seed_labels[seed_labels > 0]
    return EdgeMap(np.isin(labels, seed_labels))


def _ring_votes(e: np.ndarray, box: tuple[int, int, int, int], block: int, r_max: int):
    """Ring correlation of mask e over block x block cells anchored at the
    origin of the inclusive (x0, x1, y0, y1) box. Returns votes(lo, hi),
    hi <= r_max: per cell C of the box, as an int64 array, the edge pixels
    in cells C + D over the ring of offsets D with some rint|block*D + w|,
    |w_axis| < block, in [lo, hi]. An edge pixel in cell P and a center in
    cell C lie block*(P - C) + w apart, so a cell's votes bound each of its
    centers' at every radius in [lo, hi]; at block 1 they are exact.
    """
    x0, x1, y0, y1 = box
    h, w = e.shape
    py, px = -y0 % block, -x0 % block  # puts the box origin on a cell corner
    ch, cw = (h + py + block - 1) // block, (w + px + block - 1) // block
    grid = np.zeros((ch * block, cw * block), dtype=np.float32)
    grid[py : py + h, px : px + w] = e
    cells = grid.reshape(ch, block, cw, block).sum(axis=(1, 3))

    # Per axis, |block*D + w| runs from max(block|D| - block + 1, 0) to
    # block|D| + block - 1. Offsets one unit step apart differ in distance by
    # at most 1, so the rounded distances over w fill the integer range
    # between those of the nearest and the farthest corner, and D is on the
    # ring iff that range meets [lo, hi]. A rounded distance is at least its
    # larger axis, so no ring reaches past R = ceil(r_max / block) cells.
    R = -(-r_max // block)
    d = block * np.abs(np.arange(-R, R + 1))
    near, far = np.maximum(d - block + 1, 0), d + block - 1
    q = np.arange(far.max() + 1)
    rounded = np.rint(np.hypot(q[:, None], q)).astype(np.int32)  # [i, j]: rint|(i, j)|
    nearest = rounded[near[:, None], near[None, :]]
    farthest = rounded[far[:, None], far[None, :]]

    # Pad by R, not by the full kernel width: circular wrap-around then lands
    # only on output rows/columns below R, which the read window never
    # touches, and kernel rows/columns that s=padded cuts off hold offsets at
    # least as large as the cell grid, which no pair of its cells produces.
    # The transforms run in single precision. Each vote is an integer count
    # read through rint, and the round-trip error is bounded by
    # |err| <~ eps32 * log2(N) * ||cells||_2 * ||ring||_2 (N the padded size).
    # Cell sums are at most block^2, so ||cells||_2 <= block * ||e||_2: about
    # 0.01 at block 1 and 0.04 at block 2 for an all-ones 280x320 map, and
    # about 1e-3 for real eyes, far below the 0.5 rint margin, so every vote
    # is the exact integer correlation, as in double precision.
    padded = (sp_fft.next_fast_len(ch + R), sp_fft.next_fast_len(cw + R))
    cells_fft = sp_fft.rfft2(cells, s=padded)
    window = (  # the box's cells in padded output coordinates
        slice(R + (y0 + py) // block, R + (y1 + py) // block + 1),
        slice(R + (x0 + px) // block, R + (x1 + px) // block + 1),
    )

    def votes(lo: int, hi: int) -> np.ndarray:
        ring = ((nearest <= hi) & (farthest >= lo)).astype(np.float32)
        conv = sp_fft.irfft2(cells_fft * sp_fft.rfft2(ring, s=padded), s=padded)
        return np.rint(conv[window]).astype(np.int64)

    return votes


def _radius_bounds(
    e: np.ndarray, box: tuple[int, int, int, int], r_min: int, r_max: int
) -> np.ndarray:
    """Integer upper bounds on the votes of any center in the inclusive
    (x0, x1, y0, y1) box of mask e, one per radius r_min..r_max: per band
    of _BAND radii, the most votes of any of the box's 2x2 cells."""
    band_votes = _ring_votes(e, box, 2, r_max)
    bounds = np.empty(r_max - r_min + 1, dtype=np.int64)
    for lo in range(r_min, r_max + 1, _BAND):
        hi = min(lo + _BAND - 1, r_max)
        bounds[lo - r_min : hi - r_min + 1] = band_votes(lo, hi).max()
    return bounds


def circular_hough(
    edges: EdgeMap,
    r_min: int,
    r_max: int,
    center_search: tuple[int, int, int, int] | None = None,
) -> tuple[Circle, float]:
    """Vote for circle centers and radii at integer resolution.

    An edge pixel votes for every (cx, cy, r) whose circle passes through
    it, i.e. round(dist(pixel, center)) == r. Returns the maximum-vote
    circle (ties broken by smaller r, then cy, then cx) and the vote count
    as a fraction of the circle perimeter 2*pi*r, capped at 1.

    center_search is an inclusive (x0, x1, y0, y1) box restricting
    candidate centers; by default all in-image centers are considered.

    The search bounds, then verifies, with one ring counter (_ring_votes)
    at two cell sizes. Its votes over 2x2 cells give an integer upper bound
    on the votes of any center in each band of _BAND radii (_radius_bounds).
    Radii are then visited in order of descending bound, then ascending r;
    each visited radius gets the counter's votes over 1x1 cells, which
    equal the brute-force count. The search stops at the first radius whose
    bound is below the best vote count, so no skipped radius could have won
    or tied. On a dense map no bound falls below the best count; every
    radius is visited, and the cost is that of the exact votes plus the
    bound pass.
    """
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    e = edges.edges
    if not e.any():
        raise LocalizationError("no boundary found: edge map is empty")
    h, w = e.shape
    if center_search is None:
        bx0, bx1, by0, by1 = 0, w - 1, 0, h - 1
    else:
        x0, x1, y0, y1 = center_search
        bx0, bx1 = max(x0, 0), min(x1, w - 1)
        by0, by1 = max(y0, 0), min(y1, h - 1)
        if bx0 > bx1 or by0 > by1:
            raise LocalizationError("no boundary found: empty center-search region")

    # Only edge pixels within r_max of the candidate-center box can vote
    # (integer offsets at rounded distance <= r_max), so crop to that
    # window; makes a slack-restricted pupil search much cheaper.
    cy0, cy1 = max(by0 - r_max, 0), min(by1 + r_max, h - 1)
    cx0, cx1 = max(bx0 - r_max, 0), min(bx1 + r_max, w - 1)
    sub = e[cy0 : cy1 + 1, cx0 : cx1 + 1]
    box = (bx0 - cx0, bx1 - cx0, by0 - cy0, by1 - cy0)
    bounds = _radius_bounds(sub, box, r_min, r_max)
    exact_votes = _ring_votes(sub, box, 1, r_max)

    # Within one radius argmax takes the smallest cy, then cx, so across
    # radii the key (votes, -r) completes the tie-break.
    best_key = (0, 0)
    best: tuple[int, int, int] | None = None  # (r, cy, cx) in image coords
    for i in np.argsort(-bounds, kind="stable"):  # ties in ascending r
        if bounds[i] < max(best_key[0], 1):  # a bound of 0 means no votes
            break
        r = r_min + int(i)
        votes = exact_votes(r, r)
        key = (int(votes.max()), -r)
        if key > best_key:
            idx = int(np.argmax(votes))
            best_key = key
            best = (r, by0 + idx // votes.shape[1], bx0 + idx % votes.shape[1])
    if best is None:
        raise LocalizationError("no boundary found: accumulator is empty")
    r, cy, cx = best
    fraction = min(1.0, best_key[0] / (2.0 * math.pi * r))
    return Circle(cx=float(cx), cy=float(cy), r=float(r)), fraction


def _find_boundary(field: GradientField, cfg: LocalizationConfig, r_min: int, r_max: int,
                   center_search: tuple[int, int, int, int] | None, name: str) -> Circle:
    """Edge-map the field (NMS, then hysteresis) and return its best circle."""
    # Hysteresis drops every pixel below t_low, so NMS need not visit them.
    edges = hysteresis_threshold(non_max_suppression(field, cfg.t_low), cfg.t_high, cfg.t_low)
    try:
        circle, _ = circular_hough(edges, r_min, r_max, center_search)
    except LocalizationError as exc:
        raise LocalizationError(f"{name} boundary not found: {exc}") from exc
    return circle


def localize_iris(img: GrayImage, cfg: LocalizationConfig = LocalizationConfig()) -> IrisLocalization:
    """Locate the limbic (outer) and pupil (inner) boundary circles.

    Outer pass: vertically-weighted gradient, NMS, hysteresis, Hough over
    the iris radius range. Inner pass: unweighted gradient through the
    same edge stages, Hough over the pupil radius range with centers
    restricted to a box around the found iris center.
    """
    if min(img.width, img.height) < 2 * cfg.iris_r_min:
        raise LocalizationError(
            f"image {img.width}x{img.height} too small for iris radius >= {cfg.iris_r_min}"
        )
    smoothed = gaussian_smooth(img, cfg.sigma)
    grad = compute_gradient(smoothed)

    weighted = weight_vertical_gradient(grad, cfg.horizontal_weight)
    iris = _find_boundary(weighted, cfg, cfg.iris_r_min, cfg.iris_r_max, None, "iris")
    slack = cfg.pupil_center_slack
    cx, cy = int(iris.cx), int(iris.cy)
    box = (cx - slack, cx + slack, cy - slack, cy + slack)
    pupil = _find_boundary(grad, cfg, cfg.pupil_r_min, cfg.pupil_r_max, box, "pupil")

    try:
        return IrisLocalization(pupil=pupil, iris=iris)
    except ValueError as exc:
        raise LocalizationError(f"implausible geometry: {exc}") from exc
