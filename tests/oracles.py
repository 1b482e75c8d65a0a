"""Reference implementations the tests compare the package against.

Each one computes its quantity for one input at a time, straight from
its definition, and never reads the package's pattern table.
"""

import math

import numpy as np


def momentum_transfer(theta) -> np.ndarray:
    """In-plane momentum transfer (1-cos(theta), -sin(theta)), in units of k0."""
    return np.array([1.0 - np.cos(theta), -np.sin(theta)])


def structure_amplitude(occ, theta: float, setup) -> complex:
    """Phase sum F(theta) = sum_j n_j exp(-i (j-1) k0_a sin(theta))."""
    phase = -setup.k0_a * math.sin(theta)
    return complex(sum(n * np.exp(1j * phase * j) for j, n in enumerate(occ)))


def density_quantile(grid: np.ndarray, density: np.ndarray, q: float) -> float:
    """Inverse CDF of the piecewise-linear density for one q in [0, 1).

    Exact for densities that really are piecewise linear on the grid;
    inside a cell the quadratic CDF is inverted in the numerically stable
    form x = 2 s / (f_k + sqrt(f_k^2 + 2 slope s)).
    """
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    f = np.concatenate([density, density[:1]])
    cell_mass = 0.5 * h * (f[:-1] + f[1:])
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])

    target = q * cum[-1]
    k = int(np.searchsorted(cum, target, side="right")) - 1
    k = min(max(k, 0), n - 1)
    s = target - cum[k]
    slope = (f[k + 1] - f[k]) / h
    denom = f[k] + math.sqrt(max(f[k] * f[k] + 2.0 * slope * s, 0.0))
    x = 2.0 * s / denom if denom > 0.0 else 0.0
    x = min(max(x, 0.0), h)
    theta = grid[k] + x
    if theta >= math.pi:
        theta -= 2.0 * math.pi
    return float(theta)
