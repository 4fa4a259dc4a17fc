import math
from dataclasses import replace

import numpy as np
import pytest

from irislam.segmentation import Circle, localize_iris
from irislam.synthdata import (
    PUPIL_INTENSITY,
    SCLERA_INTENSITY,
    SyntheticEyeSpec,
    make_benchmark,
    render_eye,
)

from fraction_annulus import render_fraction_annulus


def spec(class_id=0, rotation=0.0, noise=0.0, seed=1):
    return SyntheticEyeSpec(
        width=320, height=280,
        pupil=Circle(160, 140, 30), iris=Circle(160, 140, 110),
        texture_seed=seed, class_id=class_id,
        noise_sigma=noise, rotation=rotation,
    )


def iris_region_mask(s: SyntheticEyeSpec) -> np.ndarray:
    ys, xs = np.mgrid[0 : s.height, 0 : s.width].astype(float)
    dp = np.hypot(xs - s.pupil.cx, ys - s.pupil.cy)
    di = np.hypot(xs - s.iris.cx, ys - s.iris.cy)
    return (di <= s.iris.r) & (dp > s.pupil.r)


class TestRenderEye:
    def test_deterministic(self):
        a = render_eye(spec(noise=0.02))
        b = render_eye(spec(noise=0.02))
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_intensity_zones(self):
        img = render_eye(spec())
        assert img.pixels[140, 160] == pytest.approx(PUPIL_INTENSITY)
        assert img.pixels[10, 10] == pytest.approx(SCLERA_INTENSITY)
        region = img.pixels[iris_region_mask(spec())]
        assert 0.25 <= region.mean() <= 0.75
        assert region.std() > 0.01  # the annulus actually carries texture

    def test_classes_are_separated(self):
        mask = iris_region_mask(spec())
        diffs = []
        for seed in range(6):
            a = render_eye(spec(class_id=0, seed=seed)).pixels[mask]
            b = render_eye(spec(class_id=1, seed=seed)).pixels[mask]
            diffs.append(np.abs(a - b).mean())
        assert min(diffs) >= 0.05

    def test_full_turn_rotation_is_identity(self):
        a = render_eye(spec(rotation=0.0, noise=0.01))
        b = render_eye(spec(rotation=2 * math.pi, noise=0.01))
        np.testing.assert_allclose(b.pixels, a.pixels, atol=1e-12)

    def test_rotation_moves_texture(self):
        a = render_eye(spec(rotation=0.0))
        b = render_eye(spec(rotation=0.5))
        assert np.abs(a.pixels - b.pixels).max() > 0.01

    def test_geometry_must_fit(self):
        with pytest.raises(ValueError):
            SyntheticEyeSpec(
                width=100, height=100,
                pupil=Circle(50, 50, 20), iris=Circle(50, 50, 60),
                texture_seed=0, class_id=0,
            )

    def test_ground_truth_recoverable_by_segmentation(self):
        s = spec(noise=0.01)
        loc = localize_iris(render_eye(s))
        assert abs(loc.pupil.cx - s.pupil.cx) <= 2
        assert abs(loc.pupil.r - s.pupil.r) <= 2
        assert abs(loc.iris.r - s.iris.r) <= 2


class TestFractionAnnulus:
    def test_profile_is_fraction(self):
        s = spec()
        loc = s.localization
        img = render_fraction_annulus(320, 280, loc)
        # along +x from the pupil edge to the limbus the intensity ramps 0..1
        for frac in (0.1, 0.5, 0.9):
            x = int(round(160 + 30 + frac * (110 - 30)))
            assert img.pixels[140, x] == pytest.approx(frac, abs=0.02)


class TestMakeBenchmark:
    def test_default_protocol_counts(self):
        train, test = make_benchmark(16, 5, 3, seed=0, noise_sigma=0.0)
        assert len(train) == 80 and len(test) == 48
        assert sorted({e.class_id for e in train}) == list(range(16))
        assert sorted({e.class_id for e in test}) == list(range(16))

    def test_minimal_case(self):
        train, test = make_benchmark(1, 1, 1, seed=0, noise_sigma=0.0)
        assert len(train) == 1 and len(test) == 1
        assert train[0].class_id == test[0].class_id == 0
        assert train[0].name != test[0].name

    def test_deterministic(self):
        a_train, a_test = make_benchmark(2, 2, 1, seed=7)
        b_train, b_test = make_benchmark(2, 2, 1, seed=7)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.name == b.name and a.spec == b.spec
            np.testing.assert_array_equal(a.image.pixels, b.image.pixels)

    def test_seed_changes_output(self):
        a, _ = make_benchmark(1, 1, 1, seed=1)
        b, _ = make_benchmark(1, 1, 1, seed=2)
        assert np.abs(a[0].image.pixels - b[0].image.pixels).max() > 0.01

    def test_geometry_varies_within_class(self):
        train, _ = make_benchmark(1, 5, 1, seed=3)
        radii = {e.spec.pupil.r for e in train}
        assert len(radii) == 5

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            make_benchmark(0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            make_benchmark(1, 0, 1, seed=0)


@pytest.mark.parametrize("changes, message", [
    ({"noise_sigma": -0.01}, "noise_sigma"),
    ({"pupil": Circle(260, 140, 30), "iris": Circle(260, 140, 70)}, "does not fit"),
    ({"pupil": Circle(160, 230, 30), "iris": Circle(160, 230, 70)}, "does not fit"),
], ids=["negative_noise", "iris_past_the_right_edge", "iris_past_the_bottom_edge"])
def test_argument_errors(changes, message):
    with pytest.raises(ValueError, match=message):
        replace(spec(), **changes)
