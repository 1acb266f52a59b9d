"""Analysis routines for the showcase consumers (iso-surfaces, metrics)."""

from .isosurface import contour_length, feature_accuracy, isosurface_area

__all__ = [
    "contour_length",
    "feature_accuracy",
    "isosurface_area",
]
