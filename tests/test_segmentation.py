import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import fft as sp_fft
from scipy import ndimage

from irislam import segmentation
from irislam.errors import LocalizationError
from irislam.imaging import (
    GradientField,
    GrayImage,
    compute_gradient,
    gaussian_smooth,
    weight_vertical_gradient,
)
from irislam.segmentation import (
    Circle,
    EdgeMap,
    IrisLocalization,
    LocalizationConfig,
    _LEVELS,
    _distance_table,
    _ring_gather,
    _ring_votes,
    circular_hough,
    hysteresis_threshold,
    localize_iris,
    non_max_suppression,
)
from irislam.synthdata import SyntheticEyeSpec, make_benchmark, render_eye


@pytest.fixture(autouse=True)
def empty_ring_spectra(monkeypatch):
    """Each test starts from an empty ring-spectrum cache of the module's
    cap, so it reads the spectra it stores, whatever ran before it."""
    monkeypatch.setattr(segmentation, "_RING_SPECTRA",
                        segmentation._RingSpectra(segmentation._RING_SPECTRA_CAP))


def field_from(magnitude, gx, gy):
    """A GradientField of the given magnitude and derivatives; scalar
    derivatives are broadcast to the magnitude's shape."""
    magnitude = np.asarray(magnitude, dtype=float)
    gx, gy = (np.broadcast_to(np.asarray(g, dtype=float), magnitude.shape) for g in (gx, gy))
    return GradientField(gx=gx, gy=gy, magnitude=magnitude)


def ring_votes(e, box, block, r_max):
    """The search's ring counter at one cell size, with its own distance table."""
    return _ring_votes(e, box, block, r_max, _distance_table(r_max))


def brute_nms(field: GradientField) -> np.ndarray:
    """Per-pixel re-evaluation of the suppression rule: sample the two
    points where the gradient direction crosses the 8-neighbor ring by
    linear interpolation (edge-clamped); keep iff not smaller than both."""
    mag = field.magnitude
    h, w = mag.shape

    def sample(yf, xf):
        yf = min(max(yf, 0.0), h - 1.0)
        xf = min(max(xf, 0.0), w - 1.0)
        y0, x0 = int(math.floor(yf)), int(math.floor(xf))
        y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
        fy, fx = yf - y0, xf - x0
        return (
            mag[y0, x0] * (1 - fy) * (1 - fx)
            + mag[y0, x1] * (1 - fy) * fx
            + mag[y1, x0] * fy * (1 - fx)
            + mag[y1, x1] * fy * fx
        )

    out = np.zeros_like(mag)
    for y in range(h):
        for x in range(w):
            u, v = field.gx[y, x], field.gy[y, x]
            s = max(abs(u), abs(v))
            if s == 0:
                s = 1.0
            dx, dy = u / s, v / s
            m1 = sample(y + dy, x + dx)
            m2 = sample(y - dy, x - dx)
            if mag[y, x] >= m1 and mag[y, x] >= m2:
                out[y, x] = mag[y, x]
    return out


def full_grid_nms(field: GradientField) -> np.ndarray:
    """The suppression rule evaluated at every pixel with whole-grid
    sampling, the vectorized form of brute_nms."""
    mag = field.magnitude
    u, v = field.gx, field.gy
    s = np.maximum(np.abs(u), np.abs(v))
    s[s == 0] = 1.0
    dx, dy = u / s, v / s
    ys, xs = np.mgrid[0 : mag.shape[0], 0 : mag.shape[1]].astype(np.float64)
    fwd = ndimage.map_coordinates(mag, [ys + dy, xs + dx], order=1, mode="nearest")
    bwd = ndimage.map_coordinates(mag, [ys - dy, xs - dx], order=1, mode="nearest")
    return np.where((mag >= fwd) & (mag >= bwd), mag, 0.0)


def fft64_hough(edges: np.ndarray, r_min, r_max, center_box=None):
    """Double-precision FFT accumulators over all in-image centers, read
    only inside center_box if given; same votes and tie-breaks as
    brute_hough, fast enough for full-size maps."""
    h, w = edges.shape
    x0, x1, y0, y1 = (0, w - 1, 0, h - 1) if center_box is None else center_box
    x0, x1, y0, y1 = max(x0, 0), min(x1, w - 1), max(y0, 0), min(y1, h - 1)
    padded = (sp_fft.next_fast_len(h + r_max), sp_fft.next_fast_len(w + r_max))
    e_fft = sp_fft.rfft2(edges.astype(np.float64), s=padded)
    d = np.arange(-r_max, r_max + 1, dtype=np.float64)
    ring = np.rint(np.hypot(d[:, None], d[None, :]))
    best = (0, None)
    for r in range(r_min, r_max + 1):
        k_fft = sp_fft.rfft2((ring == r).astype(np.float64), s=padded)
        conv = sp_fft.irfft2(e_fft * k_fft, s=padded)[r_max + y0 : r_max + y1 + 1,
                                                       r_max + x0 : r_max + x1 + 1]
        votes = np.rint(conv).astype(np.int64)
        if votes.max() > best[0]:
            cy, cx = np.unravel_index(np.argmax(votes), votes.shape)
            best = (int(votes.max()), (x0 + int(cx), y0 + int(cy), r))
    return best


def brute_hough(edges: np.ndarray, r_min, r_max, center_box=None):
    """Exhaustive integer accumulator: an edge pixel votes for (cx, cy, r)
    iff round(dist) == r. Ties broken by smaller r, then cy, then cx."""
    h, w = edges.shape
    pts = np.argwhere(edges)  # (y, x)
    if center_box is None:
        x_range = range(w)
        y_range = range(h)
    else:
        x0, x1, y0, y1 = center_box
        x_range = range(max(x0, 0), min(x1, w - 1) + 1)
        y_range = range(max(y0, 0), min(y1, h - 1) + 1)
    best = (0, None)
    for r in range(r_min, r_max + 1):
        for cy in y_range:
            for cx in x_range:
                d = np.hypot(pts[:, 1] - cx, pts[:, 0] - cy)
                votes = int(np.sum(np.rint(d) == r))
                if votes > best[0]:
                    best = (votes, (cx, cy, r))
    return best


def exact_votes(edges: np.ndarray, r_min, r_max, box):
    """Brute-force vote count of every center of an inclusive
    (x0, x1, y0, y1) box inside the map, as a (radius, row, column) array
    over r_min..r_max."""
    x0, x1, y0, y1 = box
    pts = np.argwhere(edges)  # (y, x)
    cy, cx = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    d = np.rint(np.hypot(pts[:, 1] - cx.reshape(-1, 1), pts[:, 0] - cy.reshape(-1, 1)))
    votes = (d[:, :, None] == np.arange(r_min, r_max + 1)).sum(axis=1)
    return votes.T.reshape(r_max - r_min + 1, *cy.shape)


def clip_box(edges: np.ndarray, box):
    """The part of an optional (x0, x1, y0, y1) center box inside the map."""
    h, w = edges.shape
    x0, x1, y0, y1 = box or (0, w - 1, 0, h - 1)
    return max(x0, 0), min(x1, w - 1), max(y0, 0), min(y1, h - 1)


def rasterize_circle(h, w, cx, cy, r, arc=(0.0, 2 * math.pi)):
    """All lattice points at rounded distance r within the given angle arc."""
    edges = np.zeros((h, w), dtype=bool)
    ys, xs = np.mgrid[0:h, 0:w]
    d = np.hypot(xs - cx, ys - cy)
    on = np.rint(d) == r
    theta = np.mod(np.arctan2(ys - cy, xs - cx), 2 * math.pi)
    lo, hi = arc
    in_arc = (theta >= lo) & (theta < hi)
    edges[on & in_arc] = True
    return edges


def hough_passes(image: GrayImage, cfg: LocalizationConfig = LocalizationConfig()):
    """(iris, iris fraction, pupil, pupil fraction) of localize_iris's two
    Hough passes on the image."""
    grad = compute_gradient(gaussian_smooth(image, cfg.sigma))
    pupil_edges = segmentation._edge_map(grad, cfg)
    iris_edges = segmentation._edge_map(weight_vertical_gradient(grad, cfg.horizontal_weight), cfg)
    iris, iris_fraction = circular_hough(iris_edges, cfg.iris_r_min, cfg.iris_r_max)
    s, cx, cy = cfg.pupil_center_slack, int(iris.cx), int(iris.cy)
    pupil, pupil_fraction = circular_hough(pupil_edges, cfg.pupil_r_min, cfg.pupil_r_max,
                                           (cx - s, cx + s, cy - s, cy + s))
    return iris, iris_fraction, pupil, pupil_fraction


@st.composite
def hough_cases(draw):
    """(edges, r_min, r_max, box): a small sparse random map, or one of two
    built ties at the maximum: one ring stamped at two centers, or two
    concentric rings thinned to equal pixel counts. The inclusive
    (x0, x1, y0, y1) center box may reach past the map."""
    r_min = draw(st.integers(1, 8))
    r_max = draw(st.integers(r_min + 1, r_min + 6))
    kind = draw(st.sampled_from(["sparse", "two_centers", "concentric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        h, w = draw(st.integers(8, 30)), draw(st.integers(8, 30))
        edges = rng.random((h, w)) < draw(st.floats(0.01, 0.15))
    elif kind == "two_centers":
        r = draw(st.integers(r_min, r_max))
        stamp = rasterize_circle(2 * r + 1, 2 * r + 1, r, r, r)
        dy, dx = draw(st.sampled_from([(0, 2 * r + 2), (2 * r + 2, 0), (2 * r + 2, 2 * r + 2)]))
        edges = np.zeros((2 * r + 1 + dy, 2 * r + 1 + dx), dtype=bool)
        edges[: 2 * r + 1, : 2 * r + 1] |= stamp
        edges[dy:, dx:] |= stamp
    else:
        r_in = draw(st.integers(r_min, r_max - 1))
        r_out = draw(st.integers(r_in + 1, r_max))
        size = 2 * r_out + 1
        rings = [rasterize_circle(size, size, r_out, r_out, r) for r in (r_in, r_out)]
        keep = min(np.count_nonzero(ring) for ring in rings)
        edges = np.zeros((size, size), dtype=bool)
        for ring in rings:
            ys, xs = np.nonzero(ring)
            pick = rng.choice(ys.size, keep, replace=False)
            edges[ys[pick], xs[pick]] = True
    h, w = edges.shape
    box = None
    if draw(st.booleans()):
        x0 = draw(st.integers(-3, w - 1))
        x1 = draw(st.integers(max(x0, 0), w + 2))
        y0 = draw(st.integers(-3, h - 1))
        y1 = draw(st.integers(max(y0, 0), h + 2))
        box = (x0, x1, y0, y1)
    return edges, r_min, r_max, box


class TestNonMaxSuppression:
    def test_ideal_ridge_survives(self):
        mag = np.zeros((7, 7))
        mag[:, 3] = 1.0
        field = field_from(mag, 1.0, 0.0)  # gradient along +x
        out = non_max_suppression(field)
        np.testing.assert_array_equal(out, mag)

    def test_uniform_plateau_ties_survive(self):
        mag = np.full((6, 6), 0.4)
        field = field_from(mag, math.cos(0.3), math.sin(0.3))
        out = non_max_suppression(field)
        np.testing.assert_array_equal(out, mag)

    def test_smoothed_step_thins_to_one_pixel(self):
        pixels = np.zeros((12, 12))
        for x in range(12):
            pixels[:, x] = 1.0 / (1.0 + math.exp(-(x - 5.3)))
        field = compute_gradient(GrayImage(pixels))
        out = non_max_suppression(field)
        interior = out[2:-2, 2:-2]
        for row in interior:
            assert np.count_nonzero(row) == 1

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.random((14, 11)))
        field = compute_gradient(img)
        out = non_max_suppression(field)
        expected = brute_nms(field)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_never_increases_magnitude(self):
        rng = np.random.default_rng(8)
        field = compute_gradient(GrayImage(rng.random((10, 10))))
        out = non_max_suppression(field)
        assert np.all(out <= field.magnitude + 1e-15)

    def test_too_small_rejected(self):
        field = field_from(np.zeros((2, 2)), 1.0, 0.0)
        with pytest.raises(ValueError):
            non_max_suppression(field)

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(3, 16), st.integers(3, 16)),
        data=st.data(),
        floor=st.floats(0.0, 1.0, exclude_min=True),
        t_high=st.floats(0.0, 1.0),
    )
    def test_floor_keeps_hysteresis_edges(self, shape, data, floor, t_high):
        mag = data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        gx, gy = (data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
                  for _ in range(2))
        field = field_from(mag, gx, gy)
        full = non_max_suppression(field)  # floor 0: every pixel compared
        assert full.tobytes() == full_grid_nms(field).tobytes()
        # a floor on a magnitude value tests the boundary pixel itself
        floor = data.draw(st.sampled_from([floor, *mag[mag > 0].ravel()]))
        t_high = max(t_high, floor)
        floored = non_max_suppression(field, floor)
        np.testing.assert_array_equal(floored, np.where(mag >= floor, full, 0.0))
        np.testing.assert_array_equal(
            hysteresis_threshold(floored, t_high, floor).edges,
            hysteresis_threshold(full, t_high, floor).edges,
        )

    @pytest.mark.parametrize("axis", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(3, 12), st.integers(3, 12)), data=st.data())
    def test_axis_gradient_compares_the_two_axis_neighbors(self, axis, shape, data):
        # axis 0: gx == 0, as on the outer pass at horizontal_weight 0, so
        # each pixel meets the pixels directly above and below it; axis 1:
        # gy == 0, the pixels left and right. Off-image neighbors are clamped.
        mag = data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        g = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-2.0, -0.5, 0.25, 3.0])))
        field = field_from(mag, *((0.0, g) if axis == 0 else (g, 0.0)))
        padded = np.pad(mag, [(1, 1) if a == axis else (0, 0) for a in (0, 1)], mode="edge")
        before, after = (np.take(padded, range(k, k + shape[axis]), axis=axis) for k in (0, 2))
        expected = np.where((mag >= before) & (mag >= after), mag, 0.0)
        assert non_max_suppression(field).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(3, 10), st.integers(3, 10)),
        data=st.data(),
        factor=st.integers(1, 2**20),
        exponent=st.integers(-30, 30),
    )
    def test_gradient_scale_does_not_change_the_output(self, shape, data, factor, exponent):
        # Integer derivatives times factor * 2**exponent are exact, so the
        # direction, a quotient of the two, is the same float at either
        # scale: a rule that read the gradient's length would differ.
        mag = data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        gx, gy = (data.draw(arrays(np.float64, shape, elements=st.integers(-64, 64)))
                  for _ in range(2))
        scale = factor * 2.0**exponent
        out = non_max_suppression(field_from(mag, gx, gy))
        scaled = non_max_suppression(field_from(mag, gx * scale, gy * scale))
        assert scaled.tobytes() == out.tobytes()


class TestHysteresisThreshold:
    def chain(self, break_value=None):
        """A 0.25 seed with an 8-connected 0.195 chain leading away;
        optionally one link lowered to break the chain."""
        mag = np.zeros((9, 9))
        chain = [(4, 1), (4, 2), (3, 3), (4, 4), (5, 5), (4, 6), (4, 7)]
        mag[4, 0] = 0.25
        for y, x in chain:
            mag[y, x] = 0.195
        if break_value is not None:
            mag[4, 4] = break_value
        return mag

    def test_all_below_low_is_empty(self):
        out = hysteresis_threshold(np.full((5, 5), 0.1), 0.2, 0.19)
        assert not out.edges.any()

    def test_default_thresholds_mark_whole_chain(self):
        mag = self.chain()
        out = hysteresis_threshold(mag, 0.2, 0.19)
        np.testing.assert_array_equal(out.edges, mag >= 0.19)

    def test_chain_broken_at_weak_link(self):
        out = hysteresis_threshold(self.chain(break_value=0.18), 0.2, 0.19)
        assert out.edges[4, 0] and out.edges[4, 2] and out.edges[3, 3]
        assert not out.edges[4, 4]
        # everything past the broken link is disconnected from the seed
        assert not out.edges[5, 5] and not out.edges[4, 6] and not out.edges[4, 7]

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(9)
        mag = rng.random((12, 12))
        base = hysteresis_threshold(mag, 0.5, 0.3).edges
        lower_low = hysteresis_threshold(mag, 0.5, 0.2).edges
        lower_high = hysteresis_threshold(mag, 0.4, 0.3).edges
        assert np.all(base <= lower_low)
        assert np.all(base <= lower_high)

    def test_bad_ordering_rejected(self):
        mag = np.zeros((4, 4))
        with pytest.raises(ValueError):
            hysteresis_threshold(mag, 0.19, 0.2)
        with pytest.raises(ValueError):
            hysteresis_threshold(mag, 0.2, 0.0)


class TestCircularHough:
    def test_full_circle_recovered(self):
        edges = rasterize_circle(120, 120, 60, 60, 25)
        circle, fraction = circular_hough(EdgeMap(edges), 20, 30)
        assert abs(circle.cx - 60) <= 1 and abs(circle.cy - 60) <= 1
        assert abs(circle.r - 25) <= 1
        assert fraction >= 0.9

    def test_matches_brute_accumulator(self):
        two_circles = rasterize_circle(60, 60, 30, 28, 14) | rasterize_circle(60, 60, 22, 35, 9)
        # fewer rows than r_max + 1: the FFT grid cuts off part of the kernel
        short = rasterize_circle(12, 70, 35, 5, 20) | rasterize_circle(12, 70, 20, 3, 9)
        for edges, r_min, r_max in ((two_circles, 8, 16), (short, 8, 25)):
            circle, fraction = circular_hough(EdgeMap(edges), r_min, r_max)
            votes, (cx, cy, r) = brute_hough(edges, r_min, r_max)
            assert (circle.cx, circle.cy, circle.r) == (cx, cy, r)
            assert fraction == pytest.approx(min(1.0, votes / (2 * math.pi * r)))

    @pytest.mark.parametrize("kind", ["all_ones", "half_random"])
    def test_full_size_maps_match_float64_reference(self, kind):
        # Dense 280x320 maps carry the largest single-precision FFT error.
        # On them every cell reaches the best votes, so each band leaves
        # more cells than one gather chunk and goes on to the cell-size-1
        # levels, over the whole map and in a pupil-sized box.
        if kind == "all_ones":
            edges = np.ones((280, 320), dtype=bool)
        else:
            edges = np.random.default_rng(17).random((280, 320)) < 0.5
        for r_min, r_max, box in ((90, 150, None), (25, 75, (129, 189, 109, 169))):
            circle, fraction = circular_hough(EdgeMap(edges), r_min, r_max, box)
            votes, (cx, cy, r) = fft64_hough(edges, r_min, r_max, box)
            assert (circle.cx, circle.cy, circle.r) == (cx, cy, r)
            assert fraction == min(1.0, votes / (2 * math.pi * r))

    def test_occluded_arc_recovered(self):
        # 25% of the circle removed; center and radius still found
        edges = rasterize_circle(120, 120, 60, 60, 25, arc=(0.0, 1.5 * math.pi))
        circle, fraction = circular_hough(EdgeMap(edges), 20, 30)
        assert abs(circle.cx - 60) <= 1 and abs(circle.cy - 60) <= 1
        assert abs(circle.r - 25) <= 1
        assert 0.6 <= fraction <= 0.85

    def test_radius_range_selects_outer_circle(self):
        edges = rasterize_circle(260, 260, 130, 130, 25)
        edges |= rasterize_circle(260, 260, 130, 130, 110)
        circle, _ = circular_hough(EdgeMap(edges), 90, 150)
        assert circle.r == 110

    def test_translation_equivariance(self):
        base = rasterize_circle(100, 100, 40, 42, 15)
        shifted = np.zeros_like(base)
        dy, dx = 7, 11
        shifted[dy:, dx:] = base[:-dy, :-dx]
        c0, _ = circular_hough(EdgeMap(base), 10, 20)
        c1, _ = circular_hough(EdgeMap(shifted), 10, 20)
        assert (c1.cx - c0.cx, c1.cy - c0.cy) == (dx, dy)
        assert c1.r == c0.r

    def test_center_search_box_respected(self):
        edges = rasterize_circle(100, 100, 40, 40, 15)
        edges |= rasterize_circle(100, 100, 70, 70, 15)
        circle, _ = circular_hough(EdgeMap(edges), 10, 20, center_search=(60, 80, 60, 80))
        assert (circle.cx, circle.cy) == (70, 70)

    def test_center_search_matches_brute(self):
        two_circles = rasterize_circle(70, 70, 30, 30, 12) | rasterize_circle(70, 70, 45, 40, 12)
        short = rasterize_circle(12, 70, 35, 5, 20) | rasterize_circle(12, 70, 20, 3, 9)
        for edges, r_min, r_max, box in (
            (two_circles, 8, 16, (35, 55, 30, 50)),
            (short, 8, 25, (15, 45, 2, 9)),
        ):
            circle, _ = circular_hough(EdgeMap(edges), r_min, r_max, center_search=box)
            votes, (cx, cy, r) = brute_hough(edges, r_min, r_max, center_box=box)
            assert (circle.cx, circle.cy, circle.r) == (cx, cy, r)

    @settings(max_examples=60, deadline=None)
    @given(case=hough_cases())
    def test_random_maps_and_ties_match_brute(self, case):
        edges, r_min, r_max, box = case
        votes, best = brute_hough(edges, r_min, r_max, center_box=box)
        if votes == 0:
            with pytest.raises(LocalizationError, match="no boundary"):
                circular_hough(EdgeMap(edges), r_min, r_max, center_search=box)
            return
        # Gather chunks of one cell hand most bands, of a whole-map search
        # and of a box search alike, to the cell-size-1 levels, which maps
        # this small rarely do at 64.
        for chunk in (segmentation._GATHER_CELLS, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(segmentation, "_GATHER_CELLS", chunk)
                circle, fraction = circular_hough(EdgeMap(edges), r_min, r_max, center_search=box)
            assert (circle.cx, circle.cy, circle.r) == best
            assert fraction == min(1.0, votes / (2 * math.pi * best[2]))

    @settings(max_examples=60, deadline=None)
    @given(case=hough_cases())
    def test_counter_at_cell_size_1_is_the_exact_vote_grid(self, case):
        edges, r_min, r_max, box = case
        box = clip_box(edges, box)
        votes = ring_votes(edges, box, 1, r_max)
        exact = exact_votes(edges, r_min, r_max, box)
        for r in range(r_min, r_max + 1):
            np.testing.assert_array_equal(votes(r, r), exact[r - r_min])

    @settings(max_examples=60, deadline=None)
    @given(case=hough_cases())
    def test_counter_at_cell_size_2_covers_each_center_of_a_cell(self, case):
        edges, r_min, r_max, box = case
        box = clip_box(edges, box)
        votes = ring_votes(edges, box, 2, r_max)
        exact = exact_votes(edges, r_min, r_max, box)
        rows, cols = np.indices(exact.shape[1:]) // 2  # cells anchored at the box origin
        for lo in range(r_min, r_max + 1, 2):
            hi = min(lo + 1, r_max)
            cell_votes = votes(lo, hi)
            assert cell_votes.shape == (rows.max() + 1, cols.max() + 1)
            for r in range(lo, hi + 1):
                assert np.all(cell_votes[rows, cols] >= exact[r - r_min])

    @settings(max_examples=60, deadline=None)
    @given(case=hough_cases())
    def test_bound_covers_exact_votes_per_radius(self, case):
        # At every level of the search, a cell's count over a band bounds
        # each of its centers' votes at each radius of the band.
        edges, r_min, r_max, box = case
        box = clip_box(edges, box)
        exact = exact_votes(edges, r_min, r_max, box)
        for block, width in _LEVELS:
            votes = ring_votes(edges, box, block, r_max)
            rows, cols = np.indices(exact.shape[1:]) // block  # cells anchored at the box origin
            for lo in range(r_min, r_max + 1, width):
                hi = min(lo + width - 1, r_max)
                cell_votes = votes(lo, hi)
                assert cell_votes.shape == (rows.max() + 1, cols.max() + 1)
                for r in range(lo, hi + 1):
                    assert np.all(cell_votes[rows, cols] >= exact[r - r_min])

    @settings(max_examples=60, deadline=None)
    @given(case=hough_cases())
    def test_each_level_bounds_the_finer_cells_inside_it(self, case):
        edges, r_min, r_max, box = case
        box = clip_box(edges, box)
        for (block, width), (fine_block, fine_width) in zip(_LEVELS, _LEVELS[1:]):
            votes = ring_votes(edges, box, block, r_max)
            fine_votes = ring_votes(edges, box, fine_block, r_max)
            for lo in range(r_min, r_max + 1, width):
                hi = min(lo + width - 1, r_max)
                cell_votes = votes(lo, hi)
                for fine_lo in range(lo, hi + 1, fine_width):
                    fine = fine_votes(fine_lo, min(fine_lo + fine_width - 1, r_max))
                    rows, cols = np.indices(fine.shape) * fine_block // block
                    assert np.all(cell_votes[rows, cols] >= fine)

    @settings(max_examples=100, deadline=None)
    @given(r_max=st.integers(1, 9), size=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           density=st.floats(0.05, 0.6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_exact_grid_at_every_box_margin(self, r_max, size, density, seed, data):
        # The FFT is padded only as far as wrap-around could reach the box's
        # cells, which depends on how far the map reaches past the box on
        # each side: from not at all to beyond r_max.
        top, bottom, left, right = (data.draw(st.integers(0, r_max + 2)) for _ in range(4))
        (bh, bw), rng = size, np.random.default_rng(seed)
        edges = rng.random((top + bh + bottom, left + bw + right)) < density
        box = (left, left + bw - 1, top, top + bh - 1)
        votes = ring_votes(edges, box, 1, r_max)
        exact = exact_votes(edges, 1, r_max, box)
        for r in range(1, r_max + 1):
            np.testing.assert_array_equal(votes(r, r), exact[r - 1])

    @settings(max_examples=100, deadline=None)
    @given(r_max=st.integers(1, 40), size=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           density=st.floats(0.02, 0.6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_gather_equals_the_exact_grid(self, r_max, size, density, seed, data):
        # The two exact evaluators, one against the other: gathered counts
        # at sampled centers of the box equal the cell-size-1 FFT grid's,
        # with the map reaching from not at all to beyond r_max past the box.
        top, bottom, left, right = (data.draw(st.integers(0, r_max + 2)) for _ in range(4))
        (bh, bw), rng = size, np.random.default_rng(seed)
        edges = rng.random((top + bh + bottom, left + bw + right)) < density
        box = (left, left + bw - 1, top, top + bh - 1)
        rounded = _distance_table(r_max)
        grid = _ring_votes(edges, box, 1, r_max, rounded)
        gather = _ring_gather(edges, r_max, rounded)
        ys, xs = rng.integers(0, bh, 12), rng.integers(0, bw, 12)
        for r in range(1, r_max + 1):
            np.testing.assert_array_equal(gather(r, top + ys, left + xs), grid(r, r)[ys, xs])

    def test_radius_whose_bound_equals_best_votes_is_visited(self):
        # Concentric rings of equal pixel counts tie; a few pixels one past
        # the outer ring raise its two-radius band's count, so it is
        # evaluated first, and the inner ring, bounded exactly at the tie,
        # must still win.
        inner = rasterize_circle(41, 41, 20, 20, 8)
        outer = rasterize_circle(41, 41, 20, 20, 16)
        ys, xs = np.nonzero(outer)
        keep = np.count_nonzero(inner)
        outer[ys[keep:], xs[keep:]] = False
        beyond = np.argwhere(rasterize_circle(41, 41, 20, 20, 17))[-3:]
        edges = inner | outer
        edges[beyond[:, 0], beyond[:, 1]] = True
        band_votes = ring_votes(edges, (0, 40, 0, 40), 1, 17)
        assert band_votes(16, 17).max() > band_votes(8, 9).max() == keep
        circle, _ = circular_hough(EdgeMap(edges), 8, 17)
        votes, best = brute_hough(edges, 8, 17)
        assert votes == keep and best == (20, 20, 8)
        assert (circle.cx, circle.cy, circle.r) == best

    def test_real_eyes_both_passes_match_float64_reference(self, monkeypatch):
        # Real edge maps are where the search prunes: the outer pass counts
        # exactly by gathers alone, and few pupil bands leave more cells
        # than one gather chunk for the full-size (cell size 1) counter.
        full_size = []
        counter = segmentation._ring_votes

        def counting_ring_votes(e, box, block, r_max, rounded):
            votes = counter(e, box, block, r_max, rounded)

            def counted(lo, hi):
                full_size[-1] += block == 1
                return votes(lo, hi)
            return counted

        monkeypatch.setattr(segmentation, "_ring_votes", counting_ring_votes)
        cfg = LocalizationConfig()
        slack = cfg.pupil_center_slack
        train, test = make_benchmark(1, 2, 1, seed=5)
        for eye in train + test:
            grad = compute_gradient(gaussian_smooth(eye.image, cfg.sigma))
            outer_edges, pupil_edges = (hysteresis_threshold(
                non_max_suppression(field, cfg.t_low), cfg.t_high, cfg.t_low
            ).edges for field in (weight_vertical_gradient(grad, cfg.horizontal_weight), grad))
            full_size.append(0)
            circle, fraction = circular_hough(EdgeMap(outer_edges), cfg.iris_r_min, cfg.iris_r_max)
            votes, (cx, cy, r) = fft64_hough(outer_edges, cfg.iris_r_min, cfg.iris_r_max)
            assert (circle.cx, circle.cy, circle.r) == (cx, cy, r)
            assert fraction == min(1.0, votes / (2 * math.pi * r))
            box = (cx - slack, cx + slack, cy - slack, cy + slack)
            full_size.append(0)
            circle, fraction = circular_hough(EdgeMap(pupil_edges), cfg.pupil_r_min,
                                              cfg.pupil_r_max, box)
            votes, (cx, cy, r) = fft64_hough(pupil_edges, cfg.pupil_r_min, cfg.pupil_r_max, box)
            assert (circle.cx, circle.cy, circle.r) == (cx, cy, r)
            assert fraction == min(1.0, votes / (2 * math.pi * r))
        # Of 51 pupil radii, 9, 0 and 19 reach full size on these eyes.
        assert max(full_size[::2]) == 0 and max(full_size[1::2]) <= 19

    def test_radius_beyond_the_diagonal_gets_no_vote(self):
        edges = rasterize_circle(20, 24, 9, 11, 7) | rasterize_circle(20, 24, 0, 0, 30)
        diagonal = round(math.hypot(19, 23))
        assert circular_hough(EdgeMap(edges), 5, 10**6) == circular_hough(
            EdgeMap(edges), 5, diagonal)
        with pytest.raises(LocalizationError, match="accumulator is empty"):
            circular_hough(EdgeMap(edges), diagonal + 1, 10**6)

    def test_empty_edge_map_rejected(self):
        with pytest.raises(LocalizationError, match="no boundary"):
            circular_hough(EdgeMap(np.zeros((50, 50), dtype=bool)), 10, 20)

    def test_bad_radius_range_rejected(self):
        edges = rasterize_circle(50, 50, 25, 25, 10)
        with pytest.raises(ValueError):
            circular_hough(EdgeMap(edges), 20, 10)

    @pytest.mark.parametrize("box", [(-30, -1, 10, 40), (10, 40, 50, 90), (60, 99, 60, 99)])
    def test_center_search_off_the_image_rejected(self, box):
        edges = rasterize_circle(50, 50, 25, 25, 10)
        with pytest.raises(LocalizationError, match="empty center-search region"):
            circular_hough(EdgeMap(edges), 5, 20, box)


class TestRingSpectra:
    def test_cap_holds_and_votes_stay_exact_once_full(self, monkeypatch):
        requested = {}  # key -> bytes of every spectrum asked for

        class Recording(segmentation._RingSpectra):
            def get(self, key, make):
                spectrum = super().get(key, make)
                requested[key] = spectrum.nbytes
                assert self.nbytes <= self.cap
                return spectrum

        cache = Recording(segmentation._RING_SPECTRA_CAP)
        monkeypatch.setattr(segmentation, "_RING_SPECTRA", cache)
        rng = np.random.default_rng(23)
        # Dense maps: every band is evaluated at every level, so each map
        # asks for spectra of several padded shapes at each cell size.
        for (h, w), r_min, r_max, box in (((120, 150), 10, 60, None),
                                          ((170, 140), 30, 90, None),
                                          ((210, 230), 20, 70, (80, 140, 70, 130)),
                                          ((90, 260), 5, 45, (100, 160, 20, 70))):
            circular_hough(EdgeMap(rng.random((h, w)) < 0.3), r_min, r_max, box)
            assert cache.nbytes <= cache.cap
        assert sum(requested.values()) > 2 * cache.cap
        # Once full, small maps' spectra still fit or are made and dropped;
        # either way the votes are the exact ones.
        stored_before = set(cache._spectra)
        requested.clear()
        for seed in range(6):
            edges = np.random.default_rng(seed).random((20 + seed, 26)) < 0.1
            box = (4, 20, 3, 15)
            votes = ring_votes(edges, box, 1, 9)
            exact = exact_votes(edges, 2, 9, box)
            for r in range(2, 10):
                np.testing.assert_array_equal(votes(r, r), exact[r - 2])
            count, best = brute_hough(edges, 2, 9)
            circle, fraction = circular_hough(EdgeMap(edges), 2, 9)
            assert (circle.cx, circle.cy, circle.r) == best
            assert fraction == min(1.0, count / (2 * math.pi * best[2]))
            assert cache.nbytes <= cache.cap
        assert stored_before <= set(cache._spectra)
        assert any(key not in cache._spectra for key in requested)

    @staticmethod
    def run_threads(work, count):
        """Start count threads of work(index) together, with a short switch
        interval, wait for all of them and re-raise the first error."""
        start = threading.Barrier(count)
        errors = []

        def run(index):
            try:
                start.wait(timeout=60)
                work(index)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]

    def test_threads_match_a_sequential_run(self, monkeypatch):
        # Four eyes of one shape, one per thread (more threads than a 2-core
        # host has cores), all asking for the same spectra from an empty
        # cache.
        train, test = make_benchmark(2, 1, 1, seed=9)
        images = [eye.image for eye in train + test]
        monkeypatch.setattr(segmentation, "_RING_SPECTRA", segmentation._RingSpectra(0))
        expected = [(hough_passes(image), localize_iris(image)) for image in images]
        cache = segmentation._RingSpectra(segmentation._RING_SPECTRA_CAP)
        monkeypatch.setattr(segmentation, "_RING_SPECTRA", cache)
        found = [None] * len(images)

        def work(i):
            found[i] = (hough_passes(images[i]), localize_iris(images[i]))

        self.run_threads(work, len(images))
        assert found == expected
        assert 0 < cache.nbytes == sum(a.nbytes for a in cache._spectra.values())

    def test_byte_count_under_contention(self):
        # Eight threads, in two orders, ask for 2,000 keys of arrays of 8 to
        # 56 bytes, more than the cap holds. A lost update of the byte
        # count, or one key stored twice, would show as a count that is not
        # the sum of what is stored.
        cache = segmentation._RingSpectra(40_000)

        def work(index):
            for key in np.random.default_rng(index % 2).permutation(2000):
                got = cache.get(key, lambda: np.full(key % 7 + 1, key, dtype=np.float64))
                assert got.size == key % 7 + 1 and (got == key).all()

        self.run_threads(work, 8)
        stored = sum(a.nbytes for a in cache._spectra.values())
        assert cache.nbytes == stored and cache.cap - 56 < stored <= cache.cap


class TestLocalizeIris:
    def test_synthetic_eye_recovered(self):
        spec = SyntheticEyeSpec(
            width=320, height=280,
            pupil=Circle(160, 140, 30), iris=Circle(160, 140, 110),
            texture_seed=11, class_id=0,
        )
        loc = localize_iris(render_eye(spec))
        assert abs(loc.pupil.cx - 160) <= 2 and abs(loc.pupil.cy - 140) <= 2
        assert abs(loc.pupil.r - 30) <= 2
        assert abs(loc.iris.cx - 160) <= 2 and abs(loc.iris.cy - 140) <= 2
        assert abs(loc.iris.r - 110) <= 2

    def test_offset_pupil_recovered(self):
        spec = SyntheticEyeSpec(
            width=320, height=280,
            pupil=Circle(168, 140, 30), iris=Circle(160, 140, 110),
            texture_seed=12, class_id=1,
        )
        loc = localize_iris(render_eye(spec))
        assert abs(loc.pupil.cx - 168) <= 2 and abs(loc.pupil.cy - 140) <= 2
        assert abs(loc.iris.cx - 160) <= 2 and abs(loc.iris.cy - 140) <= 2
        ox, oy = loc.offset
        assert abs(ox - 8) <= 2 and abs(oy - 0) <= 2

    def test_keeps_no_memory_between_calls(self):
        spec = SyntheticEyeSpec(
            width=330, height=290,
            pupil=Circle(165, 145, 32), iris=Circle(165, 145, 112),
            texture_seed=14, class_id=3,
        )
        img = render_eye(spec)
        tracemalloc.start()
        try:
            localize_iris(img)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 5 * 2**20

    def test_traced_peak_per_image(self):
        # Before the gradient fields were freed ahead of the Hough passes,
        # the traced peak was 11.05 MB where that change was planned and
        # 10.36 MiB for this eye. It is now 3.31 MiB: the gradient's
        # magnitude is freed once the pupil edge map exists (kept through
        # the weighting, the peak is 3.51 MiB), the gradient's gx once the
        # weighted field exists (kept through the limbic edge stage, 4.00
        # MiB), and the weighted field once the limbic map exists (kept
        # through the Hough passes, 4.75 MiB). The ceiling leaves 1.69 MiB
        # (51%) for other numpy and scipy versions.
        eye = make_benchmark(1, 1, 1, seed=5)[0][0]
        localize_iris(eye.image)  # first-call set-up is not per image
        tracemalloc.start()
        try:
            localize_iris(eye.image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_traced_peak_from_a_cold_cache(self, monkeypatch):
        # A cold call makes every ring spectrum it reads. The kept copies
        # live in a memory map outside the traced heap, at most the cap,
        # which stays under the 5 MiB that test_keeps_no_memory_between_calls
        # allows a call to keep; the traced peak covers the spectra made.
        assert segmentation._RING_SPECTRA_CAP < 5 * 2**20
        eye = make_benchmark(1, 1, 1, seed=5)[0][0]
        localize_iris(eye.image)  # first-call set-up is not per image
        cache = segmentation._RingSpectra(segmentation._RING_SPECTRA_CAP)
        monkeypatch.setattr(segmentation, "_RING_SPECTRA", cache)
        tracemalloc.start()
        try:
            localize_iris(eye.image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < cache.nbytes <= cache.cap
        assert peak < 5 * 2**20

    def test_blank_image_fails(self):
        img = GrayImage(np.full((280, 320), 0.5))
        with pytest.raises(LocalizationError):
            localize_iris(img)

    def test_implausible_geometry_fails(self, monkeypatch):
        # both passes find the same circle, so the pupil is not inside the iris
        monkeypatch.setattr(segmentation, "_find_boundary", lambda *args: Circle(160, 140, 60))
        with pytest.raises(LocalizationError, match="implausible geometry: pupil radius"):
            localize_iris(GrayImage(np.full((280, 320), 0.5)))

    def test_too_small_image_fails(self):
        img = GrayImage(np.zeros((60, 60)))
        with pytest.raises(LocalizationError):
            localize_iris(img)

    def test_invariants_or_error(self):
        spec = SyntheticEyeSpec(
            width=320, height=280,
            pupil=Circle(155, 143, 42), iris=Circle(160, 140, 108),
            texture_seed=13, class_id=2, noise_sigma=0.02,
        )
        loc = localize_iris(render_eye(spec))
        ox, oy = loc.offset
        assert loc.pupil.r < loc.iris.r
        assert math.hypot(ox, oy) + loc.pupil.r < loc.iris.r


class TestGeometryTypes:
    def test_circle_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Circle(0, 0, 0)

    @pytest.mark.parametrize("field", ["cx", "cy", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_circle_rejects_non_finite_values(self, field, value):
        values = {"cx": 0.0, "cy": 0.0, "r": 1.0, field: value}
        with pytest.raises(ValueError, match=f"circle {field} must be finite"):
            Circle(**values)

    def test_pupil_must_be_inside_iris(self):
        with pytest.raises(ValueError):
            IrisLocalization(pupil=Circle(0, 0, 50), iris=Circle(0, 0, 40))
        with pytest.raises(ValueError):
            IrisLocalization(pupil=Circle(80, 0, 30), iris=Circle(0, 0, 100))
        IrisLocalization(pupil=Circle(10, 0, 30), iris=Circle(0, 0, 100))
