import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irislam.errors import FormatError
from irislam.imaging import GrayImage
from irislam.normalization import (
    IrisTemplate,
    load_template,
    radial_extents,
    rotate_template,
    save_template,
    unwrap,
)
from irislam.segmentation import Circle, IrisLocalization
from irislam.synthdata import render_fraction_annulus


def bisect_ray_circle(loc: IrisLocalization, theta: float, tol=1e-12) -> float:
    """Independent oracle: bisection on |pupil_center + t*u - iris_center| = r1."""
    ux, uy = math.cos(theta), math.sin(theta)

    def f(t):
        x = loc.pupil.cx + t * ux - loc.iris.cx
        y = loc.pupil.cy + t * uy - loc.iris.cy
        return math.hypot(x, y) - loc.iris.r

    lo, hi = 0.0, 4.0 * loc.iris.r
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def localizations(draw):
    iris_r = draw(st.floats(50, 150))
    pupil_r = draw(st.floats(5, 0.4 * iris_r))
    max_off = iris_r - pupil_r - 1.0
    off = draw(st.floats(0, min(max_off, 0.3 * iris_r)))
    ang = draw(st.floats(0, 2 * math.pi))
    icx, icy = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    return IrisLocalization(
        pupil=Circle(icx + off * math.cos(ang), icy + off * math.sin(ang), pupil_r),
        iris=Circle(icx, icy, iris_r),
    )


class TestRadialExtent:
    def test_concentric_equals_iris_radius(self):
        loc = IrisLocalization(pupil=Circle(0, 0, 30), iris=Circle(0, 0, 100))
        for theta in np.linspace(0, 2 * math.pi, 360, endpoint=False):
            assert radial_extents(loc, theta) == pytest.approx(100.0, abs=1e-12)

    def test_collinear_near_side(self):
        loc = IrisLocalization(pupil=Circle(10, 0, 5), iris=Circle(0, 0, 100))
        assert radial_extents(loc, 0.0) == pytest.approx(90.0, abs=1e-9)

    def test_collinear_far_side(self):
        loc = IrisLocalization(pupil=Circle(10, 0, 5), iris=Circle(0, 0, 100))
        assert radial_extents(loc, math.pi) == pytest.approx(110.0, abs=1e-9)

    def test_vertical_offset_handled(self):
        # offset along y exercises the atan2-style handling of ox = 0
        loc = IrisLocalization(pupil=Circle(0, 10, 5), iris=Circle(0, 0, 100))
        assert radial_extents(loc, math.pi / 2) == pytest.approx(90.0, abs=1e-9)

    def test_radius_too_large_for_float64_rejected(self):
        # r1 squared overflows; the extent must not come back infinite.
        loc = IrisLocalization(pupil=Circle(150, 140, 40), iris=Circle(160, 140, 1e300))
        with pytest.raises(ValueError, match="too large to sample"):
            radial_extents(loc, np.linspace(0, 2 * math.pi, 8))

    @settings(max_examples=60, deadline=None)
    @given(loc=localizations(), theta=st.floats(0, 2 * math.pi))
    def test_matches_bisection_oracle(self, loc, theta):
        assert radial_extents(loc, theta) == pytest.approx(bisect_ray_circle(loc, theta), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(loc=localizations(), theta=st.floats(0, 2 * math.pi))
    def test_span_fields_consistent(self, loc, theta):
        # the ray's outer end lies on the iris circle, within |offset| of r1
        r_prime = radial_extents(loc, theta)
        ox_ = loc.pupil.cx + r_prime * math.cos(theta)
        oy_ = loc.pupil.cy + r_prime * math.sin(theta)
        assert math.hypot(ox_ - loc.iris.cx, oy_ - loc.iris.cy) == pytest.approx(
            loc.iris.r, abs=1e-9
        )
        ex, ey = loc.offset
        d = math.hypot(ex, ey)
        assert loc.iris.r - d - 1e-9 <= r_prime <= loc.iris.r + d + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(loc=localizations())
    def test_scalar_matches_vector(self, loc):
        thetas = np.linspace(0.0, 2 * math.pi, 97)
        vector = radial_extents(loc, thetas)
        for theta, r_prime in zip(thetas, vector):
            assert radial_extents(loc, float(theta)) == r_prime

    def test_periodicity(self):
        loc = IrisLocalization(pupil=Circle(5, -3, 20), iris=Circle(0, 0, 90))
        for theta in (0.1, 1.7, 4.4):
            a = radial_extents(loc, theta)
            b = radial_extents(loc, theta + 2 * math.pi)
            assert a == pytest.approx(b, abs=1e-12)


class TestUnwrap:
    def test_concentric_graded_annulus_columns_identical(self):
        loc = IrisLocalization(pupil=Circle(110, 110, 30), iris=Circle(110, 110, 90))
        img = render_fraction_annulus(221, 221, loc)
        t = unwrap(img, loc, radial_res=10, angular_res=64)
        fractions = (np.arange(10) + 0.5) / 10
        for j in range(64):
            np.testing.assert_allclose(t.values[:, j], fractions, atol=0.02)

    def test_offset_pupil_compensated(self):
        loc = IrisLocalization(pupil=Circle(118, 110, 30), iris=Circle(110, 110, 90))
        img = render_fraction_annulus(221, 221, loc)
        t = unwrap(img, loc, radial_res=10, angular_res=64)
        col_mean = t.values.mean(axis=1, keepdims=True)
        assert np.abs(t.values - col_mean).max() <= 0.05

    def test_default_template_dimensions(self):
        loc = IrisLocalization(pupil=Circle(160, 140, 30), iris=Circle(160, 140, 110))
        img = render_fraction_annulus(320, 280, loc)
        t = unwrap(img, loc, radial_res=20, angular_res=480)
        assert t.values.shape == (20, 480)
        assert t.radial_res == 20 and t.angular_res == 480

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(20)
        img = GrayImage(rng.random((221, 221)))
        loc = IrisLocalization(pupil=Circle(110, 110, 30), iris=Circle(110, 110, 90))
        t = unwrap(img, loc, 20, 120)
        assert t.values.min() >= 0.0 and t.values.max() <= 1.0

    def test_rotated_image_shifts_columns(self):
        # rotating the image by k angular steps about a concentric center
        # cyclically shifts the template by k columns
        angular_res = 96
        k = 7
        loc = IrisLocalization(pupil=Circle(110, 110, 30), iris=Circle(110, 110, 90))
        ys, xs = np.mgrid[0:221, 0:221].astype(float)
        theta = np.arctan2(ys - 110, xs - 110)
        r = np.hypot(xs - 110, ys - 110)
        tex = lambda th: 0.5 + 0.3 * np.sin(5 * th) * np.cos(np.pi * r / 90)
        base = GrayImage(np.clip(tex(theta), 0, 1))
        rot = GrayImage(np.clip(tex(theta - 2 * np.pi * k / angular_res), 0, 1))
        t_base = unwrap(base, loc, 10, angular_res)
        t_rot = unwrap(rot, loc, 10, angular_res)
        shifted = rotate_template(t_base, k)
        assert np.abs(t_rot.values - shifted.values).max() <= 0.05

    @pytest.mark.parametrize("pupil, iris, problem", [
        (Circle(1e300, 60, 10), Circle(1e300, 60, 40), "pupil center"),
        (Circle(-0.5, 60, 10), Circle(20, 60, 40), "pupil center"),
        (Circle(60, 121, 10), Circle(60, 100, 40), "pupil center"),
        (Circle(60, 60, 10), Circle(60, 60, 1e150), "diagonal"),
        (Circle(60, 60, 10), Circle(60, 60, 170.5), "diagonal"),
    ])
    def test_circles_beyond_the_image_rejected(self, pupil, iris, problem):
        # Clamped sampling would fill the template with border pixels.
        img = GrayImage(np.full((121, 121), 0.5))
        with pytest.raises(ValueError, match=problem):
            unwrap(img, IrisLocalization(pupil=pupil, iris=iris))

    def test_circles_reaching_the_image_limits_accepted(self):
        # round(hypot(120, 120)) = 170, the largest radius circular_hough
        # can return on this image, with the pupil center on its corner.
        img = GrayImage(np.full((121, 121), 0.5))
        loc = IrisLocalization(pupil=Circle(120, 120, 10), iris=Circle(60, 60, 170))
        assert unwrap(img, loc, 10, 64).values.shape == (10, 64)

    def test_resolution_preconditions(self):
        loc = IrisLocalization(pupil=Circle(60, 60, 10), iris=Circle(60, 60, 40))
        img = render_fraction_annulus(121, 121, loc)
        with pytest.raises(ValueError):
            unwrap(img, loc, radial_res=1, angular_res=64)
        with pytest.raises(ValueError):
            unwrap(img, loc, radial_res=10, angular_res=3)


class TestRotateTemplate:
    def make(self):
        rng = np.random.default_rng(21)
        return IrisTemplate(rng.random((6, 24)), label="a")

    def test_zero_shift_identity(self):
        t = self.make()
        np.testing.assert_array_equal(rotate_template(t, 0).values, t.values)

    def test_full_cycle_identity(self):
        t = self.make()
        np.testing.assert_array_equal(rotate_template(t, 24).values, t.values)

    def test_shift_inverse(self):
        t = self.make()
        back = rotate_template(rotate_template(t, 5), -5)
        np.testing.assert_array_equal(back.values, t.values)

    @settings(max_examples=20, deadline=None)
    @given(shift=st.integers(-50, 50))
    def test_preserves_multiset(self, shift):
        t = self.make()
        out = rotate_template(t, shift)
        np.testing.assert_array_equal(np.sort(out.values, axis=None), np.sort(t.values, axis=None))


class TestTemplateFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(22)
        t = IrisTemplate(rng.random((20, 480)), label="subject07")
        p = tmp_path / "t.irt"
        save_template(t, p)
        back = load_template(p)
        assert back.label == "subject07"
        np.testing.assert_array_equal(back.values, t.values)

    def test_unlabeled_roundtrip(self, tmp_path):
        t = IrisTemplate(np.zeros((4, 8)), label=None)
        p = tmp_path / "t.irt"
        save_template(t, p)
        assert load_template(p).label is None

    def test_header_format(self, tmp_path):
        t = IrisTemplate(np.zeros((4, 8)), label="x")
        p = tmp_path / "t.irt"
        save_template(t, p)
        data = p.read_bytes()
        header, body = data.split(b"\n", 1)
        assert header == b"IRT1 4 8 x"
        assert len(body) == 4 * 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "t.irt"
        p.write_bytes(b"IRT2 4 8 x\n" + bytes(256))
        with pytest.raises(FormatError):
            load_template(p)

    def test_short_body_rejected(self, tmp_path):
        p = tmp_path / "t.irt"
        p.write_bytes(b"IRT1 4 8 x\n" + bytes(100))
        with pytest.raises(FormatError):
            load_template(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        values = np.zeros((4, 8))
        values[1, 5] = value
        p = tmp_path / "t.irt"
        p.write_bytes(b"IRT1 4 8 x\n" + values.astype("<f8").tobytes())
        with pytest.raises(FormatError, match="not finite"):
            load_template(p)
        with pytest.raises(ValueError, match="finite"):
            IrisTemplate(values)

    def test_non_numeric_header_field_rejected(self, tmp_path):
        p = tmp_path / "t.irt"
        # also dimensions below 1; the last body is (-2) * (-4) * 8 bytes long
        for data in (b"IRT1 4 eight x\n" + bytes(256), b"IRT1 0 0 x\n",
                     b"IRT1 -2 -4 x\n" + bytes(64)):
            p.write_bytes(data)
            with pytest.raises(FormatError):
                load_template(p)
