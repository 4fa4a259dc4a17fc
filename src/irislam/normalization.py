"""Rubber-sheet normalization of the iris annulus.

The annular region between the pupil and limbic circles is unwrapped into
a fixed radial x angular grid (default 20x480). Because the pupil can be
non-concentric with the iris, the outer sampling radius at each angle is
the exact ray-circle intersection: with e = pupil_center - iris_center
and u = (cos t, sin t),

    r'(t) = -(e.u) + sqrt((e.u)^2 - |e|^2 + r1^2)

where r1 is the iris radius. Angles are measured from the +x image axis,
increasing with +y (downward in image coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from irislam.errors import FormatError
from irislam.files import replacing

if TYPE_CHECKING:
    from irislam.imaging import GrayImage
    from irislam.segmentation import IrisLocalization


@dataclass(eq=False)
class IrisTemplate:
    """Unwrapped iris intensities: rows = radial samples, columns = angles.

    Column j samples the ray at angle 2*pi*j / angular_res.
    """

    values: np.ndarray  # (radial_res, angular_res) float64 in [0, 1]
    label: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if not np.isfinite(self.values).all():
            raise ValueError("template values must be finite")

    @property
    def radial_res(self) -> int:
        return self.values.shape[0]

    @property
    def angular_res(self) -> int:
        return self.values.shape[1]


def radial_extents(loc: IrisLocalization, thetas: np.ndarray | float) -> np.ndarray | float:
    """r'(theta): distance from the pupil center to the iris boundary along
    each ray, the positive root of the ray-circle equation (the
    localization invariants guarantee it exists). A scalar angle gives a
    scalar. Raises ValueError if the circles are too large for float64."""
    ux, uy = np.cos(thetas), np.sin(thetas)
    ex, ey = loc.offset
    eu = ex * ux + ey * uy
    r = -eu + np.sqrt(eu * eu - (ex * ex + ey * ey) + loc.iris.r * loc.iris.r)
    if not np.isfinite(r).all():
        raise ValueError(f"iris radius {loc.iris.r:g} is too large to sample")
    return r


def unwrap(
    img: GrayImage,
    loc: IrisLocalization,
    radial_res: int = 20,
    angular_res: int = 480,
    label: str | None = None,
) -> IrisTemplate:
    """Sample the annulus onto a radial x angular grid.

    Column j uses the ray at angle 2*pi*j/angular_res; row i samples the
    pupil-to-iris segment at fraction (i + 0.5)/radial_res, so neither
    boundary pixel itself enters the template. Intensities are read by
    bilinear interpolation with out-of-image coordinates clamped. Raises
    ValueError for a pupil center outside the image or an iris radius
    above its rounded diagonal, the largest circular_hough can return.
    """
    if radial_res < 2:
        raise ValueError(f"radial_res must be >= 2, got {radial_res}")
    if angular_res < 4:
        raise ValueError(f"angular_res must be >= 4, got {angular_res}")
    thetas = 2.0 * math.pi * np.arange(angular_res) / angular_res
    ux, uy = np.cos(thetas), np.sin(thetas)
    r_prime = radial_extents(loc, thetas)
    h, w = img.pixels.shape
    if not (0 <= loc.pupil.cx <= w - 1 and 0 <= loc.pupil.cy <= h - 1):
        raise ValueError(f"pupil center ({loc.pupil.cx:g}, {loc.pupil.cy:g}) lies outside "
                         f"the {w}x{h} image")
    if loc.iris.r > round(math.hypot(w - 1, h - 1)):
        raise ValueError(f"iris radius {loc.iris.r:g} exceeds the {w}x{h} image's diagonal")
    fractions = (np.arange(radial_res) + 0.5) / radial_res
    # radius from the pupil center along each ray, (radial, angular)
    radii = loc.pupil.r + fractions[:, None] * (r_prime - loc.pupil.r)[None, :]
    xs = loc.pupil.cx + radii * ux[None, :]
    ys = loc.pupil.cy + radii * uy[None, :]
    values = ndimage.map_coordinates(img.pixels, [ys, xs], order=1, mode="nearest")
    return IrisTemplate(values=values, label=label)


def rotate_template(t: IrisTemplate, shift: int) -> IrisTemplate:
    """Cyclic column shift (positive = rightward); values untouched."""
    return IrisTemplate(values=np.roll(t.values, shift, axis=1), label=t.label)


def save_template(t: IrisTemplate, path: str | Path) -> None:
    """Write an IRT1 file: ASCII header then row-major little-endian f64.
    path is replaced only once the file is complete."""
    label = t.label if t.label is not None else "-"
    if any(c.isspace() for c in label):
        raise ValueError(f"label must not contain whitespace: {label!r}")
    header = f"IRT1 {t.radial_res} {t.angular_res} {label}\n".encode("ascii")
    body = t.values.astype("<f8").tobytes()
    with replacing(path) as partial:
        partial.write_bytes(header + body)


def load_template(path: str | Path) -> IrisTemplate:
    """Read an IRT1 file written by save_template."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing IRT1 header line")
    parts = data[:nl].decode("ascii", "replace").split()
    if len(parts) != 4 or parts[0] != "IRT1":
        raise FormatError(f"bad IRT1 header: {data[:nl]!r}")
    try:
        radial_res, angular_res = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"non-numeric IRT1 header field: {data[:nl]!r}") from None
    if min(radial_res, angular_res) < 1:
        raise FormatError(f"IRT1 dimension below 1: {data[:nl]!r}")
    label = None if parts[3] == "-" else parts[3]
    body = data[nl + 1 :]
    expected = radial_res * angular_res * 8
    if len(body) != expected:
        raise FormatError(f"IRT1 body has {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f8").reshape(radial_res, angular_res)
    if not np.isfinite(values).all():
        raise FormatError("IRT1 template value is not finite")
    return IrisTemplate(values=values.copy(), label=label)
