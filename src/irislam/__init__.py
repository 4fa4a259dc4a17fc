"""Iris recognition toolkit: segmentation, rubber-sheet normalization, and a
winner-take-all LAMSTAR-style classifier, with a synthetic-eye benchmark."""
