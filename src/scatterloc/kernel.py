"""Angular scattering kernel for a probe hitting bosons on a line of sites.

The lattice lies along the y-axis and the probe comes in along x with
wave-number k0, so a detection at angle theta transfers momentum
k0*(1-cos(theta), -sin(theta)) to the system.

Basis states with equal pattern signatures scatter identically, so the
detection densities are tabulated once per signature class on a uniform
angular grid, once per configuration.  Both engines read the one table
through the class weights of their state, and both draw scatter angles
from the one inverse-CDF sampler, sample_angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import FockBasis, LatticeSpec, ManyBodyState

UNIFORM = "uniform"
GAUSSIAN = "gaussian"

# Classes of the pattern table computed per block: the block's complex
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
    patterns (largest C_0) first.  The signatures are those of
    pattern_signature, computed for all basis states at once; each index
    array is ascending.
    """
    occ = basis.occupations
    m = occ.shape[1]
    sigs = np.stack([np.sum(occ[:, :m - d] * occ[:, d:], axis=1)
                     for d in range(m)], axis=1)
    # np.unique sorts rows in ascending lexicographic order
    uniq, inverse = np.unique(sigs, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    parts = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
    return tuple((tuple(sig), idx)
                 for sig, idx in zip(uniq.tolist()[::-1], parts[::-1]))


@dataclass(frozen=True)
class PatternTable:
    """Angular densities and non-scatter amplitudes of the signature classes.

    Basis states with equal pattern signatures scatter identically, so
    the table holds one column per class k, in the order of
    signature_groups, and class_of[u] is the class of basis state u.
    weights[i, k] is class k's detection density at grid angle
    theta_grid[i], with the periodic wrap row weights[n_theta] =
    weights[0]; cum[i, k] is its trapezoid mass below grid angle i.  Rows
    are indexed by angle, so a gather of one row per trajectory stays
    (trajectories, K).  scatter_prob[k] is the grid quadrature of the
    density, ns_prob = 1 - scatter_prob and ns_amp its (real,
    non-negative) square root; occupations[k] is the occupation of the
    class's first basis state.  Depends only on (basis, setup), never on
    the state, and is immutable, so one table serves every trajectory of
    every engine.
    """

    basis: FockBasis
    setup: ScatteringSetup
    theta_grid: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    cum: np.ndarray = field(repr=False)
    scatter_prob: np.ndarray = field(repr=False)
    ns_prob: np.ndarray = field(repr=False)
    ns_amp: np.ndarray = field(repr=False)
    class_of: np.ndarray = field(repr=False)
    occupations: np.ndarray = field(repr=False)

    def class_weights(self, probs: np.ndarray) -> np.ndarray:
        """Summed probability of each class, from per-basis-state
        probabilities."""
        return np.bincount(self.class_of, weights=probs,
                           minlength=self.ns_prob.shape[0])


def build_pattern_table(basis: FockBasis, setup: ScatteringSetup) -> PatternTable:
    """Precompute class densities W_k and non-scatter amplitudes A_k.

    W_k(theta) = (g^2 / 2 pi) |I(theta) F_k(theta)|^2 on the grid, from
    one representative occupation per class, and |A_k|^2 = 1 -
    quadrature(W_k) on the same grid, which makes the per-class sum rule
    quadrature(W_k) + |A_k|^2 = 1 hold to rounding.
    """
    if basis.spec != setup.lattice:
        raise ValueError("basis and setup refer to different lattices")
    groups = [idx for _, idx in signature_groups(basis)]
    class_of = np.empty(basis.dimension, dtype=np.int64)
    for k, idx in enumerate(groups):
        class_of[idx] = k
    occ = basis.occupations[[idx[0] for idx in groups]]
    n, n_classes = setup.n_theta, len(groups)
    grid = theta_grid(n)
    h = 2.0 * math.pi / n

    sites = np.arange(basis.spec.M)
    phases = np.exp(-1j * setup.k0_a * np.outer(sites, np.sin(grid)))
    env_sq = envelope_factor(grid, setup) ** 2
    prefac = setup.g ** 2 / (2.0 * math.pi)

    # prefac * |F|^2 * env^2 for a block of classes at a time, in a
    # class-major buffer whose row sums are the quadratures, then copied
    # into the angle-major table: neither a complex (K, n_theta) array nor
    # a second full-size table is ever held
    weights = np.empty((n + 1, n_classes))
    scatter_prob = np.empty(n_classes)
    buf = np.empty((min(n_classes, _TABLE_BLOCK_ROWS), n))
    for a in range(0, n_classes, _TABLE_BLOCK_ROWS):
        blk = buf[:min(_TABLE_BLOCK_ROWS, n_classes - a)]
        b = a + blk.shape[0]
        np.abs(occ[a:b] @ phases, out=blk)
        np.square(blk, out=blk)
        np.multiply(prefac, blk, out=blk)
        np.multiply(blk, env_sq, out=blk)
        scatter_prob[a:b] = h * np.sum(blk, axis=1)
        weights[:n, a:b] = blk.T
    weights[n] = weights[0]

    # trapezoid cell masses, summed down the angle axis
    cum = np.empty_like(weights)
    cum[0] = 0.0
    np.add(weights[:-1], weights[1:], out=cum[1:])
    np.multiply(0.5 * h, cum[1:], out=cum[1:])
    np.cumsum(cum[1:], axis=0, out=cum[1:])

    ns_prob = 1.0 - scatter_prob
    if np.min(ns_prob) < -1e-12:
        k = int(np.argmin(ns_prob))
        raise CouplingTooStrong(
            f"basis state {tuple(int(x) for x in occ[k])} has scattering "
            f"probability {float(scatter_prob[k]):.6f} > 1 at gN={setup.gN}")
    ns_prob = np.maximum(ns_prob, 0.0)
    ns_amp = np.sqrt(ns_prob)
    occupations = occ.astype(np.float64)

    arrays = (grid, weights, cum, scatter_prob, ns_prob, ns_amp, class_of,
              occupations)
    for arr in arrays:
        arr.setflags(write=False)
    return PatternTable(basis, setup, *arrays)


def scatter_density(state: ManyBodyState, table: PatternTable) -> np.ndarray:
    """Detection density P(theta_i) = sum_k w_k W_k(theta_i) over the
    state's class weights w_k = sum_{u in k} |c_u|^2.

    Relative phases between basis states never show up in the angular
    distribution.
    """
    return table.weights[:-1] @ table.class_weights(state.probabilities)


def nonscatter_prob(state: ManyBodyState, table: PatternTable) -> float:
    """Probability sum_k w_k |A_k|^2 that the probe passes unscattered."""
    w = table.class_weights(state.probabilities)
    return float(np.sum(w * table.ns_prob))


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


def sample_angles(w: np.ndarray, v: np.ndarray,
                  table: PatternTable) -> np.ndarray:
    """Scatter angle of each row of class weights w, shape (rows, K), at
    its quantile v in [0, 1) of the piecewise-linear mixture density.

    The mixture CDF at grid index i is the row dot product of w with
    cum[i].  Every term is monotone in i, so the rounded sum is too, and
    a branchless power-of-two search finds the largest i <= n - 1 with
    CDF(i) <= target: the cell searchsorted(side="right") would find.
    Candidates past the wrap row n read it (mode="clip"), so at v * total
    = total the search may end past n - 1, and min(lo, n - 1) is still
    that cell.  Inside it the quadratic CDF is inverted in the
    numerically stable form x = 2 s / (f_k + sqrt(f_k^2 + 2 slope s)).
    Every reduction is an elementwise product summed along one row,
    never a BLAS call, so a row's angle does not depend on the other
    rows, bit for bit.
    """
    grid, dens, cum = table.theta_grid, table.weights, table.cum
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    target = v * (w * cum[n]).sum(axis=1)
    lo = np.zeros(len(v), dtype=np.int64)
    cand = np.empty_like(lo)
    cdf = np.empty(len(v))
    below = np.empty(len(v), dtype=bool)
    prod = np.empty(w.shape)
    step = 1 << ((n - 1).bit_length() - 1)
    while step:
        np.add(lo, step, out=cand)
        cum.take(cand, axis=0, out=prod, mode="clip")
        np.multiply(w, prod, out=prod)
        np.add.reduce(prod, axis=1, out=cdf)
        np.less_equal(cdf, target, out=below)
        np.copyto(lo, cand, where=below)
        step >>= 1
    k = np.minimum(lo, n - 1)
    s = target - (w * cum[k]).sum(axis=1)
    f0 = (w * dens[k]).sum(axis=1)
    f1 = (w * dens[k + 1]).sum(axis=1)
    slope = (f1 - f0) / h
    denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * s, 0.0))
    x = np.divide(2.0 * s, denom, out=np.zeros_like(s), where=denom > 0.0)
    theta = grid[k] + np.clip(x, 0.0, h)
    return np.where(theta >= math.pi, theta - 2.0 * math.pi, theta)
