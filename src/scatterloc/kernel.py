"""Angular scattering kernel for a probe hitting bosons on a line of sites.

The lattice lies along the y-axis and the probe comes in along x with
wave-number k0, so a detection at angle theta transfers momentum
k0*(1-cos(theta), -sin(theta)) to the system.  Everything here is
precomputed on a uniform angular grid once per configuration; the
trajectory engine then reuses the tables for every event of every
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import FockBasis, LatticeSpec, ManyBodyState

UNIFORM = "uniform"
GAUSSIAN = "gaussian"

# Rows of the pattern table computed per block: the block's complex
# amplitudes take 32 x n_theta x 16 bytes (1 MB at n_theta = 2048).
_TABLE_BLOCK_ROWS = 32


class CouplingTooStrong(Exception):
    """Probe coupling violates the weak-scattering assumption.

    Raised when some basis state would have a total scattering
    probability above one (negative non-scatter probability).
    """


def theta_grid(n_theta: int) -> np.ndarray:
    """n_theta uniformly spaced angles on [-pi, pi), left-closed."""
    return np.linspace(-math.pi, math.pi, n_theta, endpoint=False)


def grid_quadrature(values: np.ndarray) -> float:
    """Periodic trapezoid rule over the uniform angular grid.

    For a 2*pi-periodic integrand sampled on theta_grid(n) this reduces to
    (2*pi/n) * sum(values) and is spectrally accurate for smooth densities.
    """
    n = values.shape[-1]
    return float((2.0 * math.pi / n) * np.sum(values, axis=-1))


@dataclass(frozen=True)
class ScatteringSetup:
    """Probe geometry, coupling and envelope for one lattice.

    gN is the coupling constant times the atom number; the per-atom
    coupling g = gN / N follows the convention used for all quoted
    parameter values.  The admissibility bound gN^2 * mean(I^2) <= 1 is
    checked on construction; violating it raises CouplingTooStrong.
    """

    lattice: LatticeSpec
    k0_a: float = math.pi
    gN: float = 0.1
    envelope: str = UNIFORM
    sigma_a: float = 0.0
    n_theta: int = 2048

    def __post_init__(self):
        if not (self.k0_a > 0 and math.isfinite(self.k0_a)):
            raise ValueError(f"k0_a must be positive and finite, got {self.k0_a}")
        if not (self.gN > 0 and math.isfinite(self.gN)):
            raise ValueError(f"gN must be positive and finite, got {self.gN}")
        if self.envelope not in (UNIFORM, GAUSSIAN):
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == GAUSSIAN and not (self.sigma_a > 0):
            raise ValueError("gaussian envelope requires sigma_a > 0")
        if self.n_theta < 64 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be even and >= 64, got {self.n_theta}")
        # single-site states scatter hardest (|F| = N at every angle), so
        # admissibility reduces to a bound involving only the envelope
        grid = theta_grid(self.n_theta)
        env_sq_mean = grid_quadrature(envelope_factor(grid, self) ** 2) / (2.0 * math.pi)
        if self.gN ** 2 * env_sq_mean > 1.0 + 1e-12:
            raise CouplingTooStrong(
                f"gN={self.gN} gives a single-site scattering probability of "
                f"{self.gN ** 2 * env_sq_mean:.6f} > 1")

    @property
    def g(self) -> float:
        """Per-atom coupling constant."""
        return self.gN / self.lattice.N


def momentum_transfer(theta) -> np.ndarray:
    """In-plane momentum transfer (1-cos(theta), -sin(theta)), in units of k0."""
    return np.array([1.0 - np.cos(theta), -np.sin(theta)])


def envelope_factor(theta, setup: ScatteringSetup):
    """On-site density envelope evaluated at the detection angle.

    Uniform sites give 1 for every angle.  An isotropic gaussian density
    of width sigma gives exp(-k0^2 sigma^2 (1 - cos(theta))), which is its
    Fourier transform at |k(theta)|^2 = 2 k0^2 (1 - cos(theta)).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if setup.envelope == UNIFORM:
        return np.ones_like(theta) if theta.ndim else 1.0
    val = np.exp(-((setup.k0_a * setup.sigma_a) ** 2) * (1.0 - np.cos(theta)))
    return val if theta.ndim else float(val)


def structure_amplitude(occ, theta: float, setup: ScatteringSetup) -> complex:
    """Phase sum F(theta) = sum_j n_j exp(-i (j-1) k0_a sin(theta))."""
    phase = -setup.k0_a * math.sin(theta)
    return complex(sum(n * np.exp(1j * phase * j) for j, n in enumerate(occ)))


def structure_amplitudes(basis: FockBasis, theta: float,
                         setup: ScatteringSetup) -> np.ndarray:
    """F_u(theta) for every basis state at once."""
    sites = np.arange(basis.spec.M)
    phases = np.exp(-1j * setup.k0_a * math.sin(theta) * sites)
    return basis.occupations @ phases


def pattern_signature(occ) -> tuple[int, ...]:
    """Integer occupation autocorrelation (C_0, ..., C_{M-1}).

    C_d = sum_j n_j n_{j+d} with out-of-range terms dropped; the probe
    always sees a line of sites, whatever the tunneling boundary.  Two
    occupations with equal signatures produce identical angular patterns,
    because |F(theta)|^2 = C_0 + 2 sum_{d>0} C_d cos(d k0_a sin(theta)).
    """
    m = len(occ)
    return tuple(int(sum(occ[j] * occ[j + d] for j in range(m - d)))
                 for d in range(m))


def signature_groups(basis: FockBasis):
    """Partition of basis indices by pattern signature.

    Returns ((signature, index_array), ...) sorted by signature in
    descending lexicographic order, which puts the most sharply peaked
    patterns (largest C_0) first.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, occ in enumerate(basis.states):
        groups.setdefault(pattern_signature(occ), []).append(i)
    return tuple((sig, np.array(groups[sig], dtype=np.int64))
                 for sig in sorted(groups, reverse=True))


@dataclass(frozen=True)
class PatternTable:
    """Per-basis-state angular densities and non-scatter amplitudes.

    weights[u, i] is the detection density of basis state u at grid angle
    theta_grid[i]; scatter_prob[u] is its quadrature over the full circle,
    and ns_prob = 1 - scatter_prob with ns_amp its (real, non-negative)
    square root.  Depends only on (basis, setup), never on the state, and
    is immutable, so one table serves every trajectory of an ensemble.
    """

    basis: FockBasis
    setup: ScatteringSetup
    theta_grid: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    scatter_prob: np.ndarray = field(repr=False)
    ns_prob: np.ndarray = field(repr=False)
    ns_amp: np.ndarray = field(repr=False)


def build_pattern_table(basis: FockBasis, setup: ScatteringSetup) -> PatternTable:
    """Precompute angular densities W_u and non-scatter amplitudes A_u.

    W_u(theta) = (g^2 / 2 pi) |I(theta) F_u(theta)|^2 on the grid, and
    |A_u|^2 = 1 - quadrature(W_u) on the same grid, which makes the
    per-state sum rule quadrature(W_u) + |A_u|^2 = 1 hold to rounding.
    """
    if basis.spec != setup.lattice:
        raise ValueError("basis and setup refer to different lattices")
    grid = theta_grid(setup.n_theta)

    sites = np.arange(basis.spec.M)
    phases = np.exp(-1j * setup.k0_a * np.outer(sites, np.sin(grid)))
    env_sq = envelope_factor(grid, setup) ** 2
    prefac = setup.g ** 2 / (2.0 * math.pi)

    # prefac * |F|^2 * env^2, written in place a block of rows at a time so
    # that no complex (D, n_theta) array is ever held
    occ = basis.occupations
    weights = np.empty((basis.dimension, setup.n_theta))
    for a in range(0, basis.dimension, _TABLE_BLOCK_ROWS):
        blk = weights[a:a + _TABLE_BLOCK_ROWS]
        np.abs(occ[a:a + _TABLE_BLOCK_ROWS] @ phases, out=blk)
        np.square(blk, out=blk)
        np.multiply(prefac, blk, out=blk)
        np.multiply(blk, env_sq, out=blk)

    h = 2.0 * math.pi / setup.n_theta
    scatter_prob = h * np.sum(weights, axis=1)
    ns_prob = 1.0 - scatter_prob
    if np.min(ns_prob) < -1e-12:
        raise CouplingTooStrong(
            f"basis state {int(np.argmin(ns_prob))} has scattering "
            f"probability {float(np.max(scatter_prob)):.6f} > 1 at gN={setup.gN}")
    ns_prob = np.maximum(ns_prob, 0.0)

    for arr in (grid, weights, scatter_prob, ns_prob):
        arr.setflags(write=False)
    ns_amp = np.sqrt(ns_prob)
    ns_amp.setflags(write=False)
    return PatternTable(basis, setup, grid, weights, scatter_prob, ns_prob, ns_amp)


def scatter_density(state: ManyBodyState, table: PatternTable) -> np.ndarray:
    """Detection density P(theta_i) = sum_u |c_u|^2 W_u(theta_i).

    The sum is diagonal in the basis index: relative phases between basis
    states never show up in the angular distribution.
    """
    return state.probabilities @ table.weights


def nonscatter_prob(state: ManyBodyState, table: PatternTable) -> float:
    """Probability sum_u |c_u|^2 |A_u|^2 that the probe passes unscattered."""
    return float(state.probabilities @ table.ns_prob)


def density_cdf(grid: np.ndarray, density: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """Cumulative mass of the piecewise-linear density below each point.

    The tabulated density is interpolated linearly inside each grid cell
    (with the periodic wrap cell closing the circle at +pi), so each
    cell's mass is the trapezoid h*(f_k + f_{k+1})/2 and the CDF is
    piecewise quadratic.  Points must lie in [-pi, pi].
    """
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    f = np.concatenate([density, density[:1]])
    cell_mass = 0.5 * h * (f[:-1] + f[1:])
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])

    pts = np.asarray(points, dtype=np.float64)
    k = np.clip(np.floor((pts + math.pi) / h).astype(np.int64), 0, n - 1)
    x = pts - grid[k]
    slope = (f[k + 1] - f[k]) / h
    return cum[k] + f[k] * x + 0.5 * slope * x * x


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
