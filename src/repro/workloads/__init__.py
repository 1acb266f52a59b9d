"""Workload generators: Gray–Scott (the paper's dataset) and synthetic fields."""

from .grayscott import GrayScottParams, PRESETS, paper_grid, simulate
from .synthetic import (
    anisotropic,
    discontinuous,
    mesh,
    multilinear,
    multiscale,
    smooth,
    turbulence,
    white_noise,
)

__all__ = [
    "GrayScottParams",
    "PRESETS",
    "anisotropic",
    "discontinuous",
    "mesh",
    "multilinear",
    "multiscale",
    "paper_grid",
    "simulate",
    "smooth",
    "turbulence",
    "white_noise",
]
