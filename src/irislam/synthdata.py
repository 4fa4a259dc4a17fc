"""Deterministic synthetic eye images with known ground truth.

Every pipeline stage can be exercised without a licensed iris database:
rendered eyes embed exactly known pupil/iris circles, a per-class
band-limited angular-radial texture, and optional pixel noise. The
texture is a function of the angle around the pupil center and of the
fractional position between the two boundaries, so rubber-sheet unwrapping
of the same class yields closely matching templates across pupil sizes
and offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from irislam.imaging import GrayImage, save_gray_image
from irislam.normalization import radial_extents
from irislam.segmentation import Circle, IrisLocalization

PUPIL_INTENSITY = 0.05
SCLERA_INTENSITY = 0.9
TEXTURE_MEAN = 0.5
TEXTURE_AMPLITUDE = 0.2
_NUM_HARMONICS = 8
_SEED_MASK = (1 << 63) - 1
_WIDTH, _HEIGHT = 320, 280  # make_benchmark's image size
_MAX_ROTATION = 3.0 * 2.0 * math.pi / 480  # 3 columns of a 480-column template


@dataclass(frozen=True)
class SyntheticEyeSpec:
    width: int
    height: int
    pupil: Circle
    iris: Circle
    texture_seed: int
    class_id: int
    noise_sigma: float = 0.0
    rotation: float = 0.0

    def __post_init__(self):
        IrisLocalization(pupil=self.pupil, iris=self.iris)  # geometry invariants
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if (
            self.iris.cx - self.iris.r < 0
            or self.iris.cx + self.iris.r > self.width - 1
            or self.iris.cy - self.iris.r < 0
            or self.iris.cy + self.iris.r > self.height - 1
        ):
            raise ValueError("iris circle does not fit inside the image")

    @property
    def localization(self) -> IrisLocalization:
        return IrisLocalization(pupil=self.pupil, iris=self.iris)


def _texture(texture_seed: int, class_id: int, theta: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """The class's band-limited texture in [-1, 1]; theta angular,
    fraction in [0, 1]."""
    rng = np.random.default_rng(
        np.random.SeedSequence([texture_seed & _SEED_MASK, class_id & _SEED_MASK, 0xA11CE])
    )
    harmonics = rng.integers(3, 21, size=_NUM_HARMONICS)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=_NUM_HARMONICS)
    amps = rng.uniform(0.5, 1.0, size=_NUM_HARMONICS)
    radial_cycles = rng.integers(1, 4, size=_NUM_HARMONICS)
    radial_phases = rng.uniform(0.0, 2.0 * math.pi, size=_NUM_HARMONICS)
    raw = np.zeros_like(theta)
    for h, ph, a, rc, rp in zip(harmonics, phases, amps, radial_cycles, radial_phases):
        raw += a * np.sin(h * theta + ph) * np.cos(math.pi * rc * fraction + rp)
    # each sin*cos product has RMS 1/2 and the terms are incoherent; target
    # RMS 0.6 keeps classes far apart, and the clip bounds the excursion
    rms = 0.5 * float(np.sqrt(np.sum(amps**2)))
    return np.clip(raw * (0.6 / rms), -1.0, 1.0)


def _float_bits(*values: float) -> list[int]:
    return [int(np.float64(v).view(np.uint64)) & _SEED_MASK for v in values]


def _annulus(
    width: int, height: int, loc: IrisLocalization
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pixel masks of the pupil disk and the iris annulus, plus, for each
    annulus pixel, its ray angle around the pupil center and its
    fractional position (0 at the pupil edge, 1 at the limbus) along that
    ray."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    dp = np.hypot(xs - loc.pupil.cx, ys - loc.pupil.cy)
    di = np.hypot(xs - loc.iris.cx, ys - loc.iris.cy)
    pupil_mask = dp <= loc.pupil.r
    annulus_mask = (di <= loc.iris.r) & ~pupil_mask
    theta = np.arctan2(ys - loc.pupil.cy, xs - loc.pupil.cx)[annulus_mask]
    span = np.maximum(radial_extents(loc, theta) - loc.pupil.r, 1e-9)
    fraction = np.clip((dp[annulus_mask] - loc.pupil.r) / span, 0.0, 1.0)
    return pupil_mask, annulus_mask, theta, fraction


def render_eye(spec: SyntheticEyeSpec) -> GrayImage:
    """Render the eye: dark pupil disk, textured iris annulus, bright
    sclera, plus optional Gaussian pixel noise. Deterministic given the
    spec; the noise realization does not depend on the rotation, so a
    full-turn rotation reproduces the unrotated image."""
    pupil_mask, annulus_mask, theta, fraction = _annulus(spec.width, spec.height, spec.localization)
    out = np.full((spec.height, spec.width), SCLERA_INTENSITY)
    out[pupil_mask] = PUPIL_INTENSITY
    tex = _texture(spec.texture_seed, spec.class_id, theta - spec.rotation, fraction)
    out[annulus_mask] = TEXTURE_MEAN + TEXTURE_AMPLITUDE * tex

    if spec.noise_sigma > 0:
        noise_seed = np.random.SeedSequence(
            [spec.texture_seed & _SEED_MASK, spec.class_id & _SEED_MASK, 0x9015E]
            + _float_bits(
                spec.pupil.cx, spec.pupil.cy, spec.pupil.r,
                spec.iris.cx, spec.iris.cy, spec.iris.r,
                spec.noise_sigma,
            )
        )
        rng = np.random.default_rng(noise_seed)
        out += rng.normal(0.0, spec.noise_sigma, size=out.shape)

    return GrayImage(np.clip(out, 0.0, 1.0))


@dataclass(frozen=True)
class LabeledEye:
    image: GrayImage
    class_id: int
    name: str
    spec: SyntheticEyeSpec


def _sample_spec(
    rng: np.random.Generator,
    texture_seed: int,
    class_id: int,
    noise_sigma: float,
) -> SyntheticEyeSpec:
    icx = _WIDTH / 2 + rng.uniform(-4.0, 4.0)
    icy = _HEIGHT / 2 + rng.uniform(-4.0, 4.0)
    iris_r = rng.uniform(105.0, 115.0)
    pupil_r = 40.0 * rng.uniform(0.85, 1.15)
    offset_mag = rng.uniform(0.0, 8.0)
    offset_dir = rng.uniform(0.0, 2.0 * math.pi)
    rotation = rng.uniform(-_MAX_ROTATION, _MAX_ROTATION)
    return SyntheticEyeSpec(
        width=_WIDTH,
        height=_HEIGHT,
        pupil=Circle(
            cx=icx + offset_mag * math.cos(offset_dir),
            cy=icy + offset_mag * math.sin(offset_dir),
            r=pupil_r,
        ),
        iris=Circle(cx=icx, cy=icy, r=iris_r),
        texture_seed=texture_seed,
        class_id=class_id,
        noise_sigma=noise_sigma,
        rotation=rotation,
    )


def make_benchmark(
    num_classes: int,
    train_per_class: int,
    test_per_class: int,
    seed: int,
    noise_sigma: float = 0.01,
) -> tuple[list[LabeledEye], list[LabeledEye]]:
    """Disjoint labeled train/test sets of 320x280 eyes, deterministic
    given seed.

    Eyes of one class share a texture but vary in pupil radius (+-15%),
    pupil offset (<= 8 px), rotation (up to 3 of 480 template columns)
    and noise realization.
    """
    if num_classes < 1 or train_per_class < 1 or test_per_class < 1:
        raise ValueError("all counts must be positive")
    train: list[LabeledEye] = []
    test: list[LabeledEye] = []
    for class_id in range(num_classes):
        for idx in range(train_per_class + test_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed & _SEED_MASK, class_id, idx])
            )
            spec = _sample_spec(rng, seed, class_id, noise_sigma)
            eye = LabeledEye(
                image=render_eye(spec),
                class_id=class_id,
                name=f"class{class_id:03d}_img{idx:02d}",
                spec=spec,
            )
            (train if idx < train_per_class else test).append(eye)
    return train, test


def write_dataset(root: str | Path, eyes: list[LabeledEye]) -> None:
    """Save each eye as root/classNNN/<name>.pgm, the directory layout
    harness.index_dataset reads."""
    for eye in eyes:
        class_dir = Path(root) / f"class{eye.class_id:03d}"
        class_dir.mkdir(parents=True, exist_ok=True)
        save_gray_image(eye.image, class_dir / f"{eye.name}.pgm")
