"""Seeded input fields for the end-to-end benchmark (NumPy only).

A frame is ``base + 0.02 * t * drift (+ noise)``:

* ``base`` — a band-limited multiscale field: a sum of plane waves whose
  wave numbers double per octave while their amplitudes halve,
  normalised to the unit range, so every multigrid level carries
  coefficients and a tolerance means the same thing on every seed;
* ``drift`` — one smooth low-frequency mode in [-1, 1]; scaled by the
  step index it makes consecutive steps differ slowly, which is what the
  closed prediction loop of the stream writer exists to exploit;
* ``noise`` — optional white Gaussian noise of the given standard
  deviation, redrawn per step from ``(seed, t)``, for workloads that
  need high-entropy residuals.

The program under test receives only arrays made here; the same
``(shape, seed, dtype, noise)`` always gives the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["FieldSource", "digest"]

_OCTAVES = 4
_WAVES_PER_OCTAVE = 3
_DRIFT_PER_STEP = 0.02


def _plane_wave_sum(shape, rng, wave_numbers, amplitudes) -> np.ndarray:
    """Σ a·cos(2π k·x + φ) on the unit cube, one broadcast product per wave."""
    out = np.zeros(shape, dtype=np.float64)
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    for k_max, amp in zip(wave_numbers, amplitudes):
        k = rng.integers(-k_max, k_max + 1, size=len(shape))
        k[rng.integers(len(shape))] = k_max  # keep the wave inside its octave
        wave = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        for axis, (x, ka) in enumerate(zip(axes, k)):
            factor = np.exp(2j * np.pi * ka * x)
            wave = wave * factor.reshape([-1 if a == axis else 1 for a in range(len(shape))])
        out += amp * wave.real
    return out


class FieldSource:
    """Frames of one workload: ``frame(t)`` is a pure function of ``t``."""

    def __init__(self, shape, seed: int, dtype=np.float64, noise: float = 0.0):
        self.shape = tuple(int(n) for n in shape)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.noise = float(noise)
        rng = np.random.default_rng([self.seed, len(self.shape), *self.shape])
        ks = [2**o for o in range(_OCTAVES) for _ in range(_WAVES_PER_OCTAVE)]
        base = _plane_wave_sum(self.shape, rng, ks, [1.0 / k for k in ks])
        lo, hi = float(base.min()), float(base.max())
        self.base = (base - lo) / (hi - lo)
        drift = _plane_wave_sum(self.shape, rng, [1], [1.0])
        self.drift = drift / float(np.abs(drift).max())

    @property
    def frame_bytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize

    def frame(self, t: int, region: tuple[slice, ...] | None = None) -> np.ndarray:
        """Step ``t`` (or its ``region`` sub-volume) in the source dtype."""
        region = () if region is None else region
        out = self.base[region] + (_DRIFT_PER_STEP * t) * self.drift[region]
        if self.noise:
            rng = np.random.default_rng([self.seed, 7919, int(t)])
            out += (self.noise * rng.standard_normal(self.shape))[region]
        return out.astype(self.dtype, copy=False)


def digest(shape, seed: int, dtype=np.float64, noise: float = 0.0, steps=(0, 3)) -> str:
    """SHA-256 over a few frames — the selftest's determinism probe."""
    src = FieldSource(shape, seed, dtype, noise)
    h = hashlib.sha256()
    for t in steps:
        h.update(np.ascontiguousarray(src.frame(t)).tobytes())
    return h.hexdigest()
