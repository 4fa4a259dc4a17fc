"""Pupil and limbic boundary localization.

Canny-style edge extraction (non-maximum suppression + hysteresis at the
0.2/0.19 thresholds) followed by a circular Hough transform. The outer
boundary is searched on a gradient with its horizontal derivative scaled
down (by default to 0, which keeps horizontal eyelid edges and drops most
of the limbus's vertical flanks), then the pupil near the found iris center.

The Hough is a best-first search over radius bands at cell sizes 4, 2 and
1 (_LEVELS), all counted by one single-precision FFT ring correlation
(_ring_votes). The FFT levels stop at cell size 2 unless a band leaves
many cells: each band there is followed by exact counts, gathered from
the edge mask (_ring_gather), of only the centers whose cell-2 count
reaches the best so far. Each FFT axis is padded only as far as circular
wrap-around could reach the cells that are read, so a crop that already
reaches r_max beyond the center box is padded only up to the next fast
FFT size. A ring's spectrum depends on no image, so each is made once and
kept, as a real quarter-spectrum, in a cache shared by all calls and
threads and capped in bytes (_RingSpectra). Every FFT count is an integer
read through rint; the float32 round-trip error bound is about 0.05 at
cell size 4 and 0.03 for two-radius rings at cell size 1 on an all-ones
280x320 map, far below the 0.5 margin, so votes, circles and tie-breaks
equal those of double precision.
"""

from __future__ import annotations

import heapq
import math
import mmap
import threading
from dataclasses import dataclass

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
# (cell size, radii per band) of the Hough's radius-band search, coarse to
# exact; each level's cell size and band width divide the level's above.
_LEVELS = ((4, 4), (2, 2), (1, 2), (1, 1))
# Cell-size-2 cells counted exactly per gather chunk (see _gather_best).
_GATHER_CELLS = 64
# Bytes of ring spectra kept between Hough calls (see _RingSpectra).
_RING_SPECTRA_CAP = 2 * 2**20


class _RingSpectra:
    """Ring spectra shared by every Hough call and thread, copied first come,
    first served into one anonymous memory map of cap bytes; once a
    spectrum would pass the cap, it is made and not kept. The map, made on
    the first store, takes resident memory only as it fills, and it leaves
    no long-lived arrays among the freed temporaries of the threads that
    fill it. It is outside the heap that tracemalloc traces. A spectrum
    depends only on its key, so one made twice by two threads is the same
    either way."""

    def __init__(self, cap: int):
        self.cap = cap
        self.nbytes = 0
        self._spectra: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self._buffer: np.ndarray | None = None

    def get(self, key: tuple, make) -> np.ndarray:
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = make()
            with self._lock:
                end = self.nbytes + spectrum.nbytes
                if key not in self._spectra and end <= self.cap:
                    if self._buffer is None:
                        self._buffer = np.frombuffer(mmap.mmap(-1, self.cap), dtype=np.uint8)
                    kept = self._buffer[self.nbytes : end].view(spectrum.dtype)
                    kept = kept.reshape(spectrum.shape)
                    kept[...] = spectrum
                    self._spectra[key] = kept
                    self.nbytes = end
        return spectrum


_RING_SPECTRA = _RingSpectra(_RING_SPECTRA_CAP)


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
        for name in ("cx", "cy", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"circle {name} must be finite, got {getattr(self, name)}")
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


def non_max_suppression(field: GradientField, floor: float = 0.0) -> np.ndarray:
    """Thin edges to local maxima along the gradient direction; returns
    the thinned magnitude.

    Each pixel is compared against the two points where its gradient
    direction crosses the 8-neighbor ring, linearly interpolated between
    the straddling neighbors; it survives iff it is not smaller than both
    (ties survive). Off-image samples are edge-clamped. Only pixels with
    magnitude >= floor are compared; every other pixel is suppressed, so
    a floor at or below the hysteresis low threshold leaves the edge map
    unchanged.
    """
    mag = field.magnitude
    if min(mag.shape) < 3:
        raise ValueError("field must be at least 3x3")
    ys, xs = np.nonzero(mag >= floor)
    # (gx, gy) / max(|gx|, |gy|) lands on the unit-square boundary: one
    # component is exactly +-1, the other the interpolation offset. The
    # per-candidate arrays are most of this stage's memory, so each is
    # reused in place or freed once read.
    dx, dy = field.gx[ys, xs], field.gy[ys, xs]
    s = np.maximum(np.abs(dx), np.abs(dy))
    s[s == 0] = 1.0
    dx /= s
    dy /= s
    del s
    m = mag[ys, xs]
    keep = m >= ndimage.map_coordinates(mag, [ys + dy, xs + dx], order=1, mode="nearest")
    keep &= m >= ndimage.map_coordinates(mag, [ys - dy, xs - dx], order=1, mode="nearest")
    del dx, dy
    out = np.zeros_like(mag)
    out[ys[keep], xs[keep]] = m[keep]
    return out


def hysteresis_threshold(magnitude: np.ndarray, t_high: float, t_low: float) -> EdgeMap:
    """Two-threshold edge acceptance with 8-connectivity chaining.

    Pixels >= t_high seed edges; any pixel >= t_low joins if it reaches a
    seed through a chain of pixels all >= t_low.
    """
    if not (0 < t_low <= t_high <= 1):
        raise ValueError(f"need 0 < t_low <= t_high <= 1, got t_low={t_low}, t_high={t_high}")
    labels, count = ndimage.label(magnitude >= t_low, structure=_EIGHT_CONNECTED)
    seeded = np.zeros(count + 1, dtype=bool)  # per label: holds a seed
    seeded[labels[magnitude >= t_high]] = True
    seeded[0] = False  # background
    return EdgeMap(seeded[labels])


def _distance_table(r_max: int) -> np.ndarray:
    """rint|(i, j)| as int32 for every offset (i, j) that the ring counter
    of any level of _LEVELS reads at r_max (see _ring_votes)."""
    # i^2 + j^2 is exact in float64, and its square root is never a
    # half-integer or within rounding of one, so rint gives |(i, j)| rounded
    # as hypot would, in a fifth of the time.
    q2 = np.arange(max(block * (-(-r_max // block) + 1) for block, _ in _LEVELS),
                   dtype=np.float64) ** 2
    return np.rint(np.sqrt(q2[:, None] + q2)).astype(np.int32)


def _ring_votes(e: np.ndarray, box: tuple[int, int, int, int], block: int, r_max: int,
                rounded: np.ndarray):
    """Ring correlation of mask e over block x block cells anchored at the
    origin of the inclusive (x0, x1, y0, y1) box. Returns votes(lo, hi),
    hi <= r_max: per cell C of the box, as an int64 array, the edge pixels
    in cells C + D over the ring of offsets D with some rint|block*D + w|,
    |w_axis| < block, in [lo, hi]. An edge pixel in cell P and a center in
    cell C lie block*(P - C) + w apart, so a cell's votes bound each of its
    centers' at every radius in [lo, hi]; at block 1 they are exact.
    rounded is _distance_table(r_max), shared by the counters of one search.
    Each ring's spectrum is read from _RING_SPECTRA, made on a miss.
    """
    x0, x1, y0, y1 = box
    h, w = e.shape
    py, px = -y0 % block, -x0 % block  # puts the box origin on a cell corner
    ch, cw = (h + py + block - 1) // block, (w + px + block - 1) // block
    grid = np.zeros((ch * block, cw * block), dtype=np.float32)
    grid[py : py + h, px : px + w] = e
    # Sums of strided views: several times faster than a reshaped sum over
    # two axes, and exact in float32 like any order of these integer sums.
    cells = grid[::block, ::block].copy()
    for i, j in np.ndindex(block, block):
        if i or j:
            cells += grid[i::block, j::block]
    del grid

    # Per axis, |block*D + w| runs from max(block|D| - block + 1, 0) to
    # block|D| + block - 1. Offsets one unit step apart differ in distance by
    # at most 1, so the rounded distances over w fill the integer range
    # between those of the nearest and the farthest corner, and D is on the
    # ring iff that range meets [lo, hi]. A rounded distance is at least its
    # larger axis, so no ring reaches past R = ceil(r_max / block) cells.
    R = -(-r_max // block)
    d = block * np.abs(np.arange(-R, R + 1))
    near, far = np.maximum(d - block + 1, 0), d + block - 1
    nearest = rounded[near][:, near]
    # At block 1 near == far == d: the nearest corner is the farthest.
    farthest = nearest if block == 1 else rounded[far][:, far]

    # The ring sits with its center on the origin, negative offsets wrapped,
    # and the read window is the box's cells w0..w1 per axis. Linear
    # correlation output runs over -R..cells + R - 1, so a circular one of
    # size n >= cells + R - w0 wraps nothing onto the window from above,
    # n >= w1 + R + 1 nothing from below, and n >= 2R + 1 keeps the ring's
    # offsets -R..R apart. A crop that reaches R cells beyond the box (the
    # pupil pass) thus needs no padding past its own size; cells beyond n
    # that a short transform cuts off lie more than R cells past the window.
    # The transforms run in single precision. Each vote is an integer count
    # read through rint, and the round-trip error is bounded by
    # |err| <~ eps32 * log2(N) * ||cells||_2 * ||ring||_2 (N the padded size).
    # Cell sums are at most block^2, so ||cells||_2 <= block * ||e||_2. For
    # an all-ones 280x320 map at radii up to 150 the bound is about 0.05 at
    # block 4 (bands of 4 radii), 0.04 at block 2 (bands of 2), 0.03 at block
    # 1 for two-radius rings and 0.02 for one radius (measured: at most 2e-3),
    # and about 1e-3 for real eyes, far below the 0.5 rint margin, so every
    # vote is the exact integer correlation, as in double precision.
    first = ((y0 + py) // block, (x0 + px) // block)
    last = ((y1 + py) // block, (x1 + px) // block)
    padded = tuple(sp_fft.next_fast_len(max(n + R - w0, w1 + R + 1, 2 * R + 1))
                   for n, w0, w1 in zip((ch, cw), first, last))
    cells_fft = sp_fft.rfft2(cells, s=padded)
    del cells
    window = tuple(slice(w0, w1 + 1) for w0, w1 in zip(first, last))
    n0 = padded[0]
    m = n0 // 2 + 1  # rows of the stored quarter; the rest mirror them

    def ring_spectrum(lo: int, hi: int) -> np.ndarray:
        # Membership depends only on |D| per axis, so the origin-centered
        # ring is even in each axis and its spectrum real and even: the
        # quarter of rows 0..n0 // 2 and columns 0..n1 // 2 is all of it.
        ring = np.zeros(padded, dtype=np.float32)
        offsets = np.arange(-R, R + 1)
        ring[np.ix_(offsets % n0, offsets % padded[1])] = (nearest <= hi) & (farthest >= lo)
        return np.ascontiguousarray(sp_fft.rfft2(ring)[:m].real)

    def votes(lo: int, hi: int) -> np.ndarray:
        # Rings reach no further than hi, so within the padded shape a ring
        # depends on its cell size and band alone.
        half = _RING_SPECTRA.get((padded, block, lo, hi), lambda: ring_spectrum(lo, hi))
        spec = np.empty_like(cells_fft)
        np.multiply(cells_fft[:m], half, out=spec[:m])
        np.multiply(cells_fft[m:], half[n0 - m : 0 : -1], out=spec[m:])
        conv = sp_fft.irfft2(spec, s=padded, overwrite_x=True)
        del spec
        return np.rint(conv[window]).astype(np.int64)

    return votes


def _ring_gather(e: np.ndarray, r_max: int, rounded: np.ndarray):
    """Exact ring votes of mask e at chosen centers, by gathering. Returns
    votes(r, ys, xs), r <= r_max: per center (ys[k], xs[k]) of e, as an
    int64 array, the edge pixels at rounded distance r. rounded is
    _distance_table(r_max), shared with the search's ring counters.
    """
    h, w = e.shape
    # Padding by r_max on each side keeps every ring read inside the copy.
    stride = w + 2 * r_max
    flat = np.zeros((h + 2 * r_max, stride), dtype=np.uint8)
    flat[r_max : r_max + h, r_max : r_max + w] = e
    flat = flat.ravel()
    rings = {}  # radius -> the ring's offsets into flat, made on first use

    def votes(r: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if r not in rings:
            # A rounded distance is at least its larger axis, so the ring's
            # offsets (i, j) with i >= 1, j >= 0 lie in rounded[1 : r + 1, : r + 1];
            # its quarter turns cover each other offset exactly once.
            i, j = np.nonzero(rounded[1 : r + 1, : r + 1] == r)
            i += 1
            dy, dx = np.concatenate((i, -j, -i, j)), np.concatenate((j, i, -j, -i))
            rings[r] = dy * stride + dx
        base = (ys + r_max) * stride + xs + r_max
        return flat[base[:, None] + rings[r]].sum(axis=1, dtype=np.int64)

    return votes


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

    The search is best-first over radius bands, coarse to fine through
    _LEVELS, with one ring counter (_ring_votes) per cell size. Evaluating
    a band gives the most votes of any of the box's cells; a band that is
    not yet one radius at cell size 1 splits into the next level's bands,
    each bounded by that count. Every cell grid is anchored at the box
    origin, so the cells nest and a count bounds every finer band and cell
    inside it. A band at cell size 2 instead has one exact child, bounded
    by its own most votes: the centers of its cells whose count reaches the
    best vote count, counted exactly at each of its radii by _ring_gather,
    most votes first (_gather_best). Only where that leaves many cells, as
    on a dense map, do the cell-size-1 levels follow. Bands are popped by
    descending bound, then ascending lo, and the search stops at the first
    bound below the best vote count: a band whose bound equals it is still
    visited, so no skipped radius could have won or tied. On a dense map
    nothing is pruned, and every radius is evaluated at every level.
    """
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    e = edges.edges
    if not e.any():
        raise LocalizationError("no boundary found: edge map is empty")
    h, w = e.shape
    # No rounded distance between two in-image points exceeds the diagonal.
    r_max = min(r_max, int(np.rint(np.hypot(h - 1, w - 1))))
    if r_min > r_max:
        raise LocalizationError("no boundary found: accumulator is empty")
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
    rounded = _distance_table(r_max)
    gather = _ring_gather(sub, r_max, rounded)
    counters = {}  # cell size -> ring counter, built on first use

    # Heap entries are (-bound, lo, level, cells). cells, the largest
    # cell-size-2 counts of the band at (lo, level) (_largest_cells), marks
    # its exact child. No count exceeds the crop's edge pixels, which bounds
    # the top level's bands; a sorted list is a heap. best_key is
    # (votes, -r, -cy, -cx), so the larger key wins the tie-break.
    top = int(np.count_nonzero(sub))
    heap = [(-top, lo, 0, None) for lo in range(r_min, r_max + 1, _LEVELS[0][1])]
    best_key = (0, 0, 0, 0)
    while heap:
        neg_bound, lo, level, cells = heapq.heappop(heap)
        if -neg_bound < max(best_key[0], 1):  # a bound of 0 means no votes
            break
        block, width = _LEVELS[level]
        hi = min(lo + width - 1, r_max)
        if cells is not None:
            # Cells the gather leaves go to the FFT levels, bounded by their
            # most votes.
            best_key, count = _gather_best(gather, cells, lo, hi, box, best_key)
            children = range(lo, hi + 1, _LEVELS[level + 1][1]) if count else ()
        else:
            if block not in counters:
                counters[block] = _ring_votes(sub, box, block, r_max, rounded)
            votes = counters[block](lo, hi)
            count = int(votes.max())
            if block == 2:
                heapq.heappush(heap, (-count, lo, level, _largest_cells(votes)))
                children = ()
            elif level + 1 < len(_LEVELS):
                children = range(lo, hi + 1, _LEVELS[level + 1][1])
            else:
                cy, cx = divmod(int(np.argmax(votes)), votes.shape[1])
                best_key = max(best_key, (count, -lo, -(box[2] + cy), -(box[0] + cx)))
                children = ()
            del votes  # before the next band's are made
        for child in children:
            heapq.heappush(heap, (-count, child, level + 1, None))
    count, neg_r, neg_cy, neg_cx = best_key
    if count == 0:
        raise LocalizationError("no boundary found: accumulator is empty")
    r = -neg_r
    fraction = min(1.0, count / (2.0 * math.pi * r))
    return Circle(cx=float(cx0 - neg_cx), cy=float(cy0 - neg_cy), r=float(r)), fraction


def _largest_cells(votes: np.ndarray):
    """(rows, cols, counts, rest): the 2 * _GATHER_CELLS cells of votes with
    the most votes, and the most votes of any other cell (0 if none). This
    is all _gather_best reads of a band, and holding it instead of the
    whole array keeps the memory of the bands waiting in the heap small."""
    flat = votes.ravel()
    k = 2 * _GATHER_CELLS
    if flat.size <= k:
        order, rest = np.arange(flat.size), 0
    else:
        # The (k + 1)-th largest lands at -k - 1, above every other cell.
        order = np.argpartition(flat, -k - 1)
        order, rest = order[-k:], int(flat[order[-k - 1]])
    return *np.divmod(order, votes.shape[1]), flat[order], rest


def _gather_best(gather, cells, lo: int, hi: int,
                 box: tuple[int, int, int, int], best_key: tuple[int, int, int, int]):
    """(best_key, rest) after counting exactly, at radii lo..hi, the
    centers of each cell-size-2 cell whose count reaches the best votes;
    cells is _largest_cells of the band's votes, and is used up. Cells are
    taken _GATHER_CELLS at a time, most votes first, and the rest filtered
    again as the best rises. If more than _GATHER_CELLS then remain, they
    are left uncounted and rest is their most votes; otherwise rest is 0.
    The cells kept by _largest_cells are those of the first two chunks, so
    more remain after the first one exactly when the best cell left out
    reaches the best votes.

    A chunk of 64 cells takes 1.0-1.4 times as long to gather at two radii
    near 120 as one cell-size-1 FFT evaluation of a 280x320 map whose ring
    spectrum is cached (1.3-1.8 ms on one core; about twice that when the
    evaluation makes its spectrum), and at two radii near 50, 1.8-2.5 times
    as long as one such evaluation of a 211x211 crop (0.2-0.4 ms), so the
    FFT levels count many cells for less. On the 256 eyes of
    make_benchmark(16, 5, 3) at seeds 31 and 32, all 688 bands of the
    whole-image pass needed one chunk; of the 3,203 bands of the pupil
    pass, 2,873 needed one and 330 two, and 444 went on to the FFT levels.
    On non-eye images (noise, checkerboards, blocks) gathering every such
    cell took 4.5-17 s per image, against 0.3 s with the FFT levels.
    """
    x0, x1, y0, y1 = box
    rows, cols, counts, rest = cells
    pick = np.flatnonzero(counts >= max(best_key[0], 1))
    while pick.size:
        if pick.size > _GATHER_CELLS:
            pick = pick[np.argpartition(counts[pick], -_GATHER_CELLS)[-_GATHER_CELLS:]]
        counts[pick] = 0  # visited
        # The up to four centers of each cell, within the box.
        cy = (y0 + 2 * rows[pick])[:, None] + (0, 0, 1, 1)
        cx = (x0 + 2 * cols[pick])[:, None] + (0, 1, 0, 1)
        inside = (cy <= y1) & (cx <= x1)
        cy, cx = cy[inside], cx[inside]
        for r in range(lo, hi + 1):
            votes = gather(r, cy, cx)
            count = int(votes.max())
            if (count, -r) >= best_key[:2]:
                k = np.flatnonzero(votes == count)
                k = k[np.lexsort((cx[k], cy[k]))[0]]
                best_key = max(best_key, (count, -r, -int(cy[k]), -int(cx[k])))
        if rest >= max(best_key[0], 1):
            return best_key, int(counts.max())
        pick = np.flatnonzero(counts >= max(best_key[0], 1))
    return best_key, 0


def _edge_map(field: GradientField, cfg: LocalizationConfig) -> EdgeMap:
    """NMS, then hysteresis at the configured thresholds."""
    # Hysteresis drops every pixel below t_low, so NMS need not visit them.
    return hysteresis_threshold(non_max_suppression(field, cfg.t_low), cfg.t_high, cfg.t_low)


def _find_boundary(edges: EdgeMap, r_min: int, r_max: int,
                   center_search: tuple[int, int, int, int] | None, name: str) -> Circle:
    """The best circle of the edge map, or a LocalizationError naming it."""
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
    # Each gradient field is dropped once its edge map exists, so none lives
    # through the Hough passes, which see only the boolean maps. The pupil
    # edge map does not depend on the iris circle; only its Hough box does.
    grad = compute_gradient(gaussian_smooth(img, cfg.sigma))
    pupil_edges = _edge_map(grad, cfg)
    # The weighting reads only gx and gy; a magnitude kept through it is one
    # more full-size map at the peak.
    grad.magnitude = None
    weighted = weight_vertical_gradient(grad, cfg.horizontal_weight)
    del grad  # the weighted field has its own gx and shares gy
    iris_edges = _edge_map(weighted, cfg)
    del weighted

    iris = _find_boundary(iris_edges, cfg.iris_r_min, cfg.iris_r_max, None, "iris")
    slack = cfg.pupil_center_slack
    cx, cy = int(iris.cx), int(iris.cy)
    box = (cx - slack, cx + slack, cy - slack, cy + slack)
    pupil = _find_boundary(pupil_edges, cfg.pupil_r_min, cfg.pupil_r_max, box, "pupil")

    try:
        return IrisLocalization(pupil=pupil, iris=iris)
    except ValueError as exc:
        raise LocalizationError(f"implausible geometry: {exc}") from exc
