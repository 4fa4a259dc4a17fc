"""An analytic test image whose unwrapped template is known exactly."""

import numpy as np

from irislam.imaging import GrayImage
from irislam.segmentation import IrisLocalization
from irislam.synthdata import _annulus


def render_fraction_annulus(width: int, height: int, loc: IrisLocalization) -> GrayImage:
    """Annulus intensity equals the fractional position between the pupil
    and iris boundaries along the pupil ray (0 at the pupil edge, 1 at the
    limbus); pupil 0, outside 1."""
    pupil_mask, annulus_mask, _, fraction = _annulus(width, height, loc)
    out = np.ones((height, width))
    out[pupil_mask] = 0.0
    out[annulus_mask] = fraction
    return GrayImage(out)
