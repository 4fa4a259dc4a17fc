
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from irislam.errors import FormatError
from irislam.imaging import (
    GrayImage,
    _read_pgm_tokens,
    compute_gradient,
    gaussian_smooth,
    load_gray_image,
    sample_bilinear,
    save_gray_image,
    weight_vertical_gradient,
)

# Shapes for the bit-for-bit checks against scipy.ndimage: an eye, and
# images narrower or shorter than a kernel's radius.
_ORACLE_SHAPES = [(280, 320), (40, 33), (3, 3), (1, 5), (7, 2), (2, 1), (300, 7)]


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """The truncated, sum-normalized 1-D kernel gaussian_smooth applies:
    radius ceil(3*sigma)."""
    radius = ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def brute_gaussian_2d(pixels: np.ndarray, sigma: float) -> np.ndarray:
    """Non-separable full 2-D convolution with the truncated normalized
    Gaussian kernel and edge-clamped borders. Oracle for gaussian_smooth."""
    k1 = gaussian_kernel_1d(sigma)
    kernel = np.outer(k1, k1)
    radius = len(k1) // 2
    h, w = pixels.shape
    out = np.zeros_like(pixels)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    acc += kernel[dy + radius, dx + radius] * pixels[yy, xx]
            out[y, x] = acc
    return out


def brute_sobel(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct 3x3 Sobel stencil with edge clamping. Oracle for compute_gradient."""
    h, w = pixels.shape
    gx = np.zeros_like(pixels)
    gy = np.zeros_like(pixels)
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
    ky = kx.T
    for y in range(h):
        for x in range(w):
            ax = ay = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    ax += kx[dy + 1, dx + 1] * pixels[yy, xx]
                    ay += ky[dy + 1, dx + 1] * pixels[yy, xx]
            gx[y, x] = ax
            gy[y, x] = ay
    return gx, gy


class TestLoadGrayImage:
    def test_2x2_byte_scaling(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_gray_image(p)
        assert img.width == 2 and img.height == 2
        np.testing.assert_array_equal(
            img.pixels, np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        )

    def test_ascii_magic_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError, match="P2"):
            load_gray_image(p)

    def test_bad_maxval_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(FormatError, match="65535"):
            load_gray_image(p)

    def test_non_numeric_header_field_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 four\n255\n" + bytes(16))
        with pytest.raises(FormatError):
            load_gray_image(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="raster"):
            load_gray_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_gray_image(tmp_path / "nope.pgm")

    def test_typical_frame_dimensions(self, tmp_path):
        # typical 320x280 eye frame; dimensions come from the file
        p = tmp_path / "eye.pgm"
        p.write_bytes(b"P5\n320 280\n255\n" + bytes(320 * 280))
        img = load_gray_image(p)
        assert (img.width, img.height) == (320, 280)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n# generated\n2 1\n255\n" + bytes([10, 20]))
        img = load_gray_image(p)
        assert img.width == 2

    @pytest.mark.parametrize("header, expected", [
        (b"P5 2#c\n1 255\n", ([b"P5", b"2", b"1", b"255"], 13)),
        (b"P5\n# c\n2 2\n255\n\0", ([b"P5", b"2", b"2", b"255"], 15)),
        (b"P5 2 1 # c", "truncated PGM header"),
        (b"P5 2 1 255#x\n", "missing whitespace after PGM maxval"),
        (b"P5 2 1 255", "missing whitespace after PGM maxval"),
        # \x0b is not header whitespace: it stays inside its token
        (b"P5\x0b2 1 255 0\n", ([b"P5\x0b2", b"1", b"255", b"0"], 13)),
        (b"P5 2 1 255\x0b", "missing whitespace after PGM maxval"),
        # after a CRLF maxval the raster starts at the \n, byte 13
        (b"P5\r\n2 1\r\n255\r\n", ([b"P5", b"2", b"1", b"255"], 13)),
    ])
    def test_header_tokens(self, header, expected):
        if isinstance(expected, str):
            with pytest.raises(FormatError, match=expected):
                _read_pgm_tokens(header, 4)
        else:
            assert _read_pgm_tokens(header, 4) == expected

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, size=(7, 9)) / 255.0)
        p = tmp_path / "r.pgm"
        save_gray_image(img, p)
        back = load_gray_image(p)
        np.testing.assert_array_equal(back.pixels, img.pixels)


class TestGaussianSmooth:
    def test_constant_preserved(self):
        img = GrayImage(np.full((8, 8), 0.5))
        out = gaussian_smooth(img, sigma=1.7)
        np.testing.assert_allclose(out.pixels, 0.5, atol=1e-12)

    def test_impulse_center_weight(self):
        img = GrayImage(np.zeros((9, 9)))
        img.pixels[4, 4] = 1.0
        out = gaussian_smooth(img, sigma=1.0)
        k1 = gaussian_kernel_1d(1.0)
        center = k1[len(k1) // 2] ** 2
        assert out.pixels[4, 4] == pytest.approx(center, abs=1e-12)
        np.testing.assert_allclose(out.pixels, out.pixels[::-1, :], atol=1e-12)
        np.testing.assert_allclose(out.pixels, out.pixels[:, ::-1], atol=1e-12)

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.random((12, 15)))
        out = gaussian_smooth(img, sigma=2.0)
        expected = brute_gaussian_2d(img.pixels, 2.0)
        np.testing.assert_allclose(out.pixels, expected, atol=1e-12)

    def test_rejects_nonpositive_sigma(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            gaussian_smooth(img, 0.0)
        with pytest.raises(ValueError):
            gaussian_smooth(img, -1.0)

    def test_preserves_dimensions(self):
        img = GrayImage(np.zeros((11, 6)))
        out = gaussian_smooth(img, 3.3)
        assert (out.height, out.width) == (11, 6)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.1, 0.6),
        b=st.floats(0.1, 0.4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linearity(self, a, b, seed):
        # smoothing is linear before clamping; inputs chosen to stay in range
        rng = np.random.default_rng(seed)
        i1 = rng.random((8, 8)) * 0.5
        i2 = rng.random((8, 8)) * 0.5
        lhs = gaussian_smooth(GrayImage(a * i1 + b * i2), 1.5).pixels
        rhs = a * gaussian_smooth(GrayImage(i1), 1.5).pixels + b * gaussian_smooth(
            GrayImage(i2), 1.5
        ).pixels
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


    @pytest.mark.parametrize("shape", _ORACLE_SHAPES)
    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.3, 2.0, 3.1])
    def test_bits_equal_scipy_gaussian_filter(self, shape, sigma):
        pixels = np.random.default_rng(sum(shape)).random(shape)
        expected = ndimage.gaussian_filter(pixels, sigma, radius=ceil(3.0 * sigma), mode="nearest")
        out = gaussian_smooth(GrayImage(pixels), sigma).pixels
        assert out.tobytes() == np.clip(expected, 0.0, 1.0).tobytes()


class TestComputeGradient:
    def test_constant_zero_magnitude(self):
        field = compute_gradient(GrayImage(np.full((6, 6), 0.3)))
        np.testing.assert_array_equal(field.magnitude, 0.0)

    def test_vertical_step_edge(self):
        pixels = np.zeros((8, 8))
        pixels[:, 4:] = 1.0
        field = compute_gradient(GrayImage(pixels))
        interior = field.magnitude[1:-1, :]
        nonzero_cols = np.unique(np.nonzero(interior)[1])
        np.testing.assert_array_equal(nonzero_cols, [3, 4])
        for y in range(1, 7):
            for x in (3, 4):
                assert field.gx[y, x] > 0 and field.gy[y, x] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_sobel(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.random((10, 13)))
        field = compute_gradient(img)
        gx, gy = brute_sobel(img.pixels)
        np.testing.assert_allclose(field.gx, gx, atol=1e-12)
        np.testing.assert_allclose(field.gy, gy, atol=1e-12)
        mag = np.hypot(gx, gy)
        np.testing.assert_allclose(field.magnitude, mag / mag.max(), atol=1e-12)

    def test_max_magnitude_is_one(self):
        rng = np.random.default_rng(3)
        field = compute_gradient(GrayImage(rng.random((9, 9))))
        assert field.magnitude.max() == pytest.approx(1.0, abs=1e-12)

    def test_rotation_consistency(self):
        rng = np.random.default_rng(4)
        pixels = rng.random((9, 9))
        field = compute_gradient(GrayImage(pixels))
        rotated = compute_gradient(GrayImage(np.rot90(pixels)))
        np.testing.assert_allclose(rotated.magnitude, np.rot90(field.magnitude), atol=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            compute_gradient(GrayImage(np.zeros((2, 5))))

    @pytest.mark.parametrize("shape", [sh for sh in _ORACLE_SHAPES if min(sh) >= 3])
    def test_bits_equal_scipy_sobel(self, shape):
        pixels = np.random.default_rng(sum(shape)).random(shape)
        field = compute_gradient(GrayImage(pixels))
        gx = ndimage.sobel(pixels, axis=1, mode="nearest")
        gy = ndimage.sobel(pixels, axis=0, mode="nearest")
        assert np.ascontiguousarray(field.gx).tobytes() == gx.tobytes()
        assert np.ascontiguousarray(field.gy).tobytes() == gy.tobytes()
        magnitude = np.hypot(gx, gy)
        assert field.magnitude.tobytes() == (magnitude / magnitude.max()).tobytes()


class TestSampleBilinear:
    @pytest.mark.parametrize("shape", [(28, 32), (280, 320), (1, 1), (3, 1), (1, 4)])
    def test_bits_equal_scipy_map_coordinates(self, shape):
        # Sub-pixel points inside and outside the image, whole-pixel points,
        # points a hair above a whole pixel (where 1 - (1 - t) is not t) and
        # points far off the image, as order-1 "nearest" sampling reads them.
        h, w = shape
        rng = np.random.default_rng(h * w)
        ys, xs = rng.uniform(-5, h + 5, 20_000), rng.uniform(-5, w + 5, 20_000)
        ys[:1000] = rng.integers(-3, h + 3, 1000)
        xs[1000:2000] = rng.integers(-3, w + 3, 1000) + 1e-12
        ys[2000:3000] = rng.integers(0, h, 1000) + rng.random(1000) * 1e-9
        xs[3000:4000] = -1e-13
        ys[4000:5000] = rng.uniform(-1e4, 1e4, 1000)
        for pixels in (rng.random(shape), np.full(shape, -0.0)):
            expected = ndimage.map_coordinates(pixels, [ys, xs], order=1, mode="nearest")
            assert sample_bilinear(pixels, ys, xs).tobytes() == expected.tobytes()

    def test_keeps_the_points_shape(self):
        pixels = np.arange(12.0).reshape(3, 4)
        ys, xs = np.meshgrid(np.arange(3.0), np.arange(4.0), indexing="ij")
        np.testing.assert_array_equal(sample_bilinear(pixels, ys, xs), pixels)
        assert sample_bilinear(pixels, ys[:1] + 0.5, xs[:1]).shape == (1, 4)


class TestWeightVerticalGradient:
    def test_identity_at_weight_one(self):
        rng = np.random.default_rng(5)
        field = compute_gradient(GrayImage(rng.random((9, 9))))
        out = weight_vertical_gradient(field, 1.0)
        np.testing.assert_allclose(out.magnitude, field.magnitude, atol=1e-12)

    def test_horizontal_step_untouched_at_zero(self):
        pixels = np.zeros((8, 8))
        pixels[4:, :] = 1.0  # purely vertical gradient
        field = compute_gradient(GrayImage(pixels))
        out = weight_vertical_gradient(field, 0.0)
        np.testing.assert_allclose(out.magnitude, field.magnitude, atol=1e-12)

    def test_vertical_step_suppressed_at_zero(self):
        pixels = np.zeros((8, 8))
        pixels[:, 4:] = 1.0
        field = compute_gradient(GrayImage(pixels))
        out = weight_vertical_gradient(field, 0.0)
        np.testing.assert_array_equal(out.magnitude, 0.0)

    def test_rejects_out_of_range_weight(self):
        field = compute_gradient(GrayImage(np.zeros((4, 4))))
        for w in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weight_vertical_gradient(field, w)

    def test_intensity_range_validated(self):
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                GrayImage(np.array([[0.0, bad]]))


@pytest.mark.parametrize("shape", [(2, 3, 4), (6,), ()], ids=["3d", "1d", "0d"])
def test_argument_errors(shape):
    with pytest.raises(ValueError, match="2-D"):
        GrayImage(np.zeros(shape))
