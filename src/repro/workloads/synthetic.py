"""Synthetic field generators for tests and property checks.

Each generator produces fields with a known analytic character so tests
can assert the refactoring behaviours theory predicts: multilinear
fields have zero detail coefficients, smooth fields show ~4x per-level
coefficient decay, discontinuous fields concentrate energy in fine
classes near the jump, and white noise does not decay at all.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mesh",
    "multilinear",
    "smooth",
    "multiscale",
    "discontinuous",
    "white_noise",
    "anisotropic",
]


def mesh(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Unit-cube coordinate grids (ij indexing) for the given shape."""
    axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1) for n in shape]
    return list(np.meshgrid(*axes, indexing="ij"))


def multilinear(shape: tuple[int, ...], coeffs: tuple[float, ...] | None = None) -> np.ndarray:
    """An exactly multilinear field: ``a0 + Σ a_k x_k + Σ a_jk x_j x_k …``.

    Piecewise-linear interpolation reproduces it exactly, so every
    detail coefficient is (up to fp) zero — the sharpest correctness
    probe for the coefficient kernels.
    """
    grids = mesh(shape)
    if coeffs is None:
        coeffs = tuple(1.0 + 0.5 * k for k in range(len(shape)))
    out = np.full(shape, 0.75)
    prod = np.ones(shape)
    for g, a in zip(grids, coeffs):
        out = out + a * g
        prod = prod * (1.0 + g)
    return out + 0.25 * prod  # the cross terms stay multilinear


def smooth(shape: tuple[int, ...], frequency: float = 3.0, seed: int = 0) -> np.ndarray:
    """A smooth band-limited field (sums of low-frequency sinusoids)."""
    rng = np.random.default_rng(seed)
    grids = mesh(shape)
    out = np.zeros(shape)
    for _ in range(4):
        phase = rng.uniform(0, 2 * np.pi)
        freqs = rng.uniform(0.5, frequency, size=len(shape))
        arg = phase
        for g, f in zip(grids, freqs):
            arg = arg + 2 * np.pi * f * g
        out += rng.uniform(0.2, 1.0) * np.sin(arg)
    return out


def multiscale(shape: tuple[int, ...], octaves: int = 5, seed: int = 1) -> np.ndarray:
    """A 1/f-style multiscale field: energy at every level of the hierarchy."""
    rng = np.random.default_rng(seed)
    grids = mesh(shape)
    out = np.zeros(shape)
    for o in range(octaves):
        f = 2.0**o
        amp = 0.5**o
        phase = rng.uniform(0, 2 * np.pi, size=len(shape))
        term = np.ones(shape)
        for g, p in zip(grids, phase):
            term = term * np.cos(2 * np.pi * f * g + p)
        out += amp * term
    return out


def discontinuous(shape: tuple[int, ...], seed: int = 2) -> np.ndarray:
    """A smooth background with an embedded sharp spherical jump."""
    rng = np.random.default_rng(seed)
    grids = mesh(shape)
    center = rng.uniform(0.3, 0.7, size=len(shape))
    r2 = np.zeros(shape)
    for g, c in zip(grids, center):
        r2 = r2 + (g - c) ** 2
    return smooth(shape, seed=seed) + 2.0 * (r2 < 0.09)


def white_noise(shape: tuple[int, ...], seed: int = 3) -> np.ndarray:
    """IID Gaussian noise: the incompressible control case."""
    return np.random.default_rng(seed).standard_normal(shape)


def anisotropic(shape: tuple[int, ...], ratio: float = 16.0, seed: int = 4) -> np.ndarray:
    """Smooth along the first axis, oscillatory along the last."""
    grids = mesh(shape)
    return np.sin(2 * np.pi * grids[0]) + 0.5 * np.sin(2 * np.pi * ratio * grids[-1])


def turbulence(
    shape: tuple[int, ...], slope: float = -5.0 / 3.0, seed: int = 5
) -> np.ndarray:
    """A random field with a power-law (Kolmogorov-like) spectrum.

    Gaussian white noise shaped in Fourier space so the radial power
    spectrum decays as ``k^slope`` — the canonical stand-in for
    turbulent scientific data.  Unlike :func:`smooth` it has energy at
    *every* scale (classes decay slowly but steadily), and unlike
    :func:`white_noise` it is genuinely compressible; it sits exactly in
    the regime the paper's Gray-Scott data occupies.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape)
    spec = np.fft.fftn(noise)
    freqs = np.meshgrid(*[np.fft.fftfreq(n) * n for n in shape], indexing="ij")
    k = np.sqrt(sum(f**2 for f in freqs))
    k[tuple(0 for _ in shape)] = 1.0  # keep the mean mode finite
    spec *= k ** (slope / 2.0)  # power ~ amplitude^2
    out = np.real(np.fft.ifftn(spec))
    out -= out.mean()
    std = out.std()
    return out / std if std > 0 else out
