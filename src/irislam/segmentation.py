"""Pupil and limbic boundary localization.

Canny-style edge extraction (non-maximum suppression + hysteresis at the
0.2/0.19 thresholds) followed by a circular Hough transform. The outer
boundary is searched on a vertically-weighted gradient so horizontal
eyelid edges contribute less, then the pupil is searched near the found
iris center.
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


def _radius_bounds(
    e: np.ndarray, box: tuple[int, int, int, int], r_min: int, r_max: int
) -> np.ndarray:
    """Integer upper bounds on the votes of any center in the inclusive
    (x0, x1, y0, y1) box of mask e, one per radius r_min..r_max.

    Edge pixels are summed over 2x2 blocks anchored at the box origin. An
    edge pixel in block P and a center in block C differ by 2(P - C) + w
    with w in {-1, 0, 1}^2, so correlating the block sums with a coarse
    ring, every block offset D with some rint|2D + w| in a band of
    _BAND radii, counts at least the votes of every center of C at every
    radius of the band. The maximum over the box's blocks bounds the band.
    """
    x0, x1, y0, y1 = box
    h, w = e.shape
    # Shift the mask so the box origin lands on an even row and column.
    py, px = y0 % 2, x0 % 2
    bh, bw = (h + py + 1) // 2, (w + px + 1) // 2
    grid = np.zeros((2 * bh, 2 * bw), dtype=np.float32)
    grid[py : py + h, px : px + w] = e
    blocks = grid.reshape(bh, 2, bw, 2).sum(axis=(1, 3))

    # Per axis, |2D + w| runs from max(2|D| - 1, 0) to 2|D| + 1. Offsets one
    # unit step apart differ in distance by at most 1, so the nine rounded
    # distances fill the integer range between those of the nearest and the
    # farthest corner, and D is on a band's ring iff that range meets the
    # band. Offsets beyond r_max/2 + 1 are on no ring; padding by R keeps
    # circular wrap-around out of the read window, as in circular_hough.
    R = r_max // 2 + 2
    two_d = 2 * np.abs(np.arange(-R, R + 1))
    near, far = np.maximum(two_d - 1, 0), two_d + 1
    nearest = np.rint(np.hypot(near[:, None], near[None, :]))
    farthest = np.rint(np.hypot(far[:, None], far[None, :]))

    # Single precision, with circular_hough's error bound
    # |err| <~ eps32 * log2(N) * ||blocks||_2 * ||ring||_2. Block sums are at
    # most 4, so ||blocks||_2 <= 2 ||e||_2; a coarse ring of an iris-sized
    # band holds at most about 1100 offsets. That gives about 0.04 for an
    # all-ones 280x320 map (measured 1e-3), far below the 0.5 rint margin,
    # so every bound is the exact integer correlation.
    padded = (sp_fft.next_fast_len(bh + R), sp_fft.next_fast_len(bw + R))
    b_fft = sp_fft.rfft2(blocks, s=padded)
    window = (  # the box's blocks in padded output coordinates
        slice(R + (y0 + py) // 2, R + (y1 + py) // 2 + 1),
        slice(R + (x0 + px) // 2, R + (x1 + px) // 2 + 1),
    )
    bounds = np.empty(r_max - r_min + 1, dtype=np.int64)
    for lo in range(r_min, r_max + 1, _BAND):
        hi = min(lo + _BAND - 1, r_max)
        ring = ((nearest <= hi) & (farthest >= lo)).astype(np.float32)
        conv = sp_fft.irfft2(b_fft * sp_fft.rfft2(ring, s=padded), s=padded)
        bounds[lo - r_min : hi - r_min + 1] = np.rint(conv[window].max())
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

    The search bounds, then verifies. A quarter-size correlation of 2x2
    block sums gives an integer upper bound on the votes of any center in
    each band of _BAND radii (see _radius_bounds). Radii are then visited
    in order of descending bound, then ascending r; each visited radius
    gets its exact accumulator, an FFT correlation of the edge mask with
    that radius's ring, which equals the brute-force count. The search
    stops at the first radius whose bound is below the best vote count, so
    no skipped radius could have won or tied. On a dense map no bound
    falls below the best count; every radius is visited, and the cost is
    that of the exact accumulators plus the bound pass.
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
    sh, sw = sub.shape
    bounds = _radius_bounds(sub, (bx0 - cx0, bx1 - cx0, by0 - cy0, by1 - cy0), r_min, r_max)

    # Pad by r_max, not by the full kernel width: circular wrap-around
    # then lands only on output rows/columns below r_max, which the read
    # window never touches, and kernel rows/columns that s=padded cuts off
    # hold offsets at least as large as the crop, which no edge pixel in it
    # can produce.
    padded = (sp_fft.next_fast_len(sh + r_max), sp_fft.next_fast_len(sw + r_max))
    # The transforms run in single precision. Each vote is an integer count
    # read through rint, and the FFT round-trip error is bounded by
    # |err| <~ eps32 * log2(N) * ||e||_2 * ||k||_2 (N the padded size, e the
    # edge crop, k the ring): about 0.01 for an all-ones 280x320 map and
    # about 1e-3 for real eyes, far below the 0.5 rint margin, so the votes,
    # argmax and tie-breaks equal those of double precision.
    e_fft = sp_fft.rfft2(sub.astype(np.float32), s=padded)
    d = np.arange(-r_max, r_max + 1, dtype=np.float64)
    ring = np.rint(np.hypot(d[:, None], d[None, :]))  # rounded distance of each offset
    window = (  # candidate-center box in padded output coordinates
        slice(r_max + by0 - cy0, r_max + by1 - cy0 + 1),
        slice(r_max + bx0 - cx0, r_max + bx1 - cx0 + 1),
    )

    # Within one radius argmax takes the smallest cy, then cx, so across
    # radii the key (votes, -r) completes the tie-break.
    best_key = (0, 0)
    best: tuple[int, int, int] | None = None  # (r, cy, cx) in image coords
    for i in np.argsort(-bounds, kind="stable"):  # ties in ascending r
        if bounds[i] < max(best_key[0], 1):  # a bound of 0 means no votes
            break
        r = r_min + int(i)
        k_fft = sp_fft.rfft2((ring == r).astype(np.float32), s=padded)
        conv = sp_fft.irfft2(e_fft * k_fft, s=padded)
        votes = np.rint(conv[window]).astype(np.int64)
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
    # Hysteresis drops every pixel below t_low, so NMS need not visit them.
    outer_edges = hysteresis_threshold(non_max_suppression(weighted, cfg.t_low),
                                       cfg.t_high, cfg.t_low)
    try:
        iris, _ = circular_hough(outer_edges, cfg.iris_r_min, cfg.iris_r_max)
    except LocalizationError as exc:
        raise LocalizationError(f"iris boundary not found: {exc}") from exc

    inner_edges = hysteresis_threshold(non_max_suppression(grad, cfg.t_low),
                                       cfg.t_high, cfg.t_low)
    slack = cfg.pupil_center_slack
    box = (
        int(iris.cx) - slack,
        int(iris.cx) + slack,
        int(iris.cy) - slack,
        int(iris.cy) + slack,
    )
    try:
        pupil, _ = circular_hough(inner_edges, cfg.pupil_r_min, cfg.pupil_r_max, center_search=box)
    except LocalizationError as exc:
        raise LocalizationError(f"pupil boundary not found: {exc}") from exc

    try:
        return IrisLocalization(pupil=pupil, iris=iris)
    except ValueError as exc:
        raise LocalizationError(f"implausible geometry: {exc}") from exc
