"""Iris recognition toolkit: segmentation, rubber-sheet normalization, and a
winner-take-all LAMSTAR-style classifier, with a synthetic-eye benchmark."""

from irislam.imaging import GrayImage, GradientField
from irislam.segmentation import Circle, EdgeMap, IrisLocalization, LocalizationConfig
from irislam.normalization import IrisTemplate
from irislam.lamstar import LamstarConfig, LamstarNetwork, Prediction

__all__ = [
    "GrayImage",
    "GradientField",
    "Circle",
    "EdgeMap",
    "IrisLocalization",
    "LocalizationConfig",
    "IrisTemplate",
    "LamstarConfig",
    "LamstarNetwork",
    "Prediction",
]
