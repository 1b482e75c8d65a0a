"""Angular scattering kernel for a probe hitting bosons on a line of sites.

The lattice lies along the y-axis and the probe comes in along x with
wave-number k0, so a detection at angle theta transfers momentum
k0*(1-cos(theta), -sin(theta)) to the system.

Basis states with equal pattern signatures scatter identically, and
every pattern is a sum of M basis functions b_d(theta) weighted by the
signature, so the table holds the M basis functions on a uniform angular
grid, once per configuration, plus each class's signature.  Both engines
read the one table through the class weights of their state, and both
draw scatter angles from the one inverse-CDF sampler, sample_angles,
whose CDF (angle_cdf) is the only one: predicted bin masses difference it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import FockBasis, LatticeSpec, ManyBodyState

UNIFORM = "uniform"
GAUSSIAN = "gaussian"

# Grid cells per block of the pattern table's two-level cumulative sum,
# about sqrt(n_theta) at the default n_theta = 2048.
_CUM_BLOCK = 64


class CouplingTooStrong(Exception):
    """Probe coupling violates the weak-scattering assumption.

    Raised when some basis state would have a total scattering
    probability above one (negative non-scatter probability).
    """


def theta_grid(n_theta: int) -> np.ndarray:
    """n_theta uniformly spaced angles on [-pi, pi), left-closed."""
    return np.linspace(-math.pi, math.pi, n_theta, endpoint=False)


@dataclass(frozen=True)
class ScatteringSetup:
    """Probe geometry, coupling and envelope for one lattice.

    gN is the coupling constant times the atom number; the per-atom
    coupling g = gN / N follows the convention used for all quoted
    parameter values.  The admissibility bound gN^2 * mean(I^2) <= 1 is
    checked on construction; violating it raises CouplingTooStrong.  A
    gN whose table prefactor g^2 / 2 pi is subnormal raises ValueError:
    the table's cell masses would lose digits or vanish.
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
        if self.g ** 2 / (2 * math.pi) < np.finfo(float).smallest_normal:
            raise ValueError(f"gN={self.gN} is too weak to scatter")
        if self.envelope not in (UNIFORM, GAUSSIAN):
            raise ValueError(f"envelope must be one of "
                             f"{[UNIFORM, GAUSSIAN]}, got {self.envelope!r}")
        # uniform sites are sigma_a = 0, so a width must not run unnoticed;
        # the envelope's exponent s^2 (1 - cos(theta)) peaks at 2 s^2, at
        # theta = pi, and must not overflow
        gaussian, s = self.envelope == GAUSSIAN, self.k0_a * self.sigma_a
        if not (0 < self.sigma_a and math.isfinite(2 * s * s) if gaussian
                else self.sigma_a == 0):
            need = "> 0 with 2 (k0_a sigma_a)^2 finite" if gaussian else "0"
            raise ValueError(f"sigma_a must be {need} for the {self.envelope}"
                             f" envelope, got {self.sigma_a}")
        if self.n_theta < 64 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be even and >= 64, got {self.n_theta}")
        # single-site states scatter hardest (|F| = N at every angle), so
        # the bound is gN^2 <I^2> <= 1, <I^2> = I_0(2s) / e^{2s} with s =
        # (k0_a sigma_a)^2, exactly 1 at sigma_a = 0.  A grid's mean adds
        # positive aliasing terms, so this never refuses what the table
        # admits.  Past 2s ~ 709 both overflow: nan, and the table decides
        with np.errstate(over="ignore", invalid="ignore"):
            two_s = 2.0 * np.float64(s) ** 2
            env_sq_mean = float(np.i0(two_s) / np.exp(two_s))
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

    An isotropic gaussian density of width sigma gives exp(-k0^2 sigma^2
    (1 - cos(theta))), its Fourier transform at |k(theta)|^2 =
    2 k0^2 (1 - cos(theta)); uniform sites are sigma = 0, exactly 1.
    """
    return np.exp(-((setup.k0_a * setup.sigma_a) ** 2) * (1.0 - np.cos(theta)))


def _structure_amplitudes(occupations, theta, k0_a: float) -> np.ndarray:
    """F(theta) = sum_j n_j exp(-i j k0_a sin(theta)) of every occupation
    row at every angle: shape (len(theta), len(occupations)).  Summed
    elementwise, never by BLAS, so an angle's row ignores the others."""
    sites = np.arange(occupations.shape[1], dtype=np.float64)
    phases = np.exp(-1j * (k0_a * np.sin(theta))[:, None] * sites)
    return (phases[:, None, :] * occupations).sum(axis=2)


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


def pattern_basis(theta, k0_a: float, m: int) -> np.ndarray:
    """Basis functions b_0 = 1 and b_d = 2 cos(d k0_a sin(theta)), d > 0,
    at every angle: shape (len(theta), m).

    |F(theta)|^2 = sum_d C_d b_d(theta) for signature C
    (pattern_signature).
    """
    b = np.cos(np.multiply.outer(k0_a * np.sin(theta), np.arange(m)))
    b[:, 1:] *= 2.0
    return b


@dataclass(frozen=True)
class PatternTable:
    """Angular basis functions and non-scatter amplitudes of the
    signature classes.

    |F(theta)|^2 = sum_d C_d b_d(theta) (pattern_basis), so every class
    density is its signature times one set of M basis functions.
    weights[i, d] is prefactor * I(theta)^2 * b_d(theta) at grid angle
    theta_grid[i], with the periodic wrap row weights[n_theta] =
    weights[0], and cum[i, d] its trapezoid mass below grid angle i.
    signatures[k] is class k's signature (C_0, ..., C_{M-1}), in the
    order of the basis's signature_groups, and class_of[u] is the class
    of basis state u.  Class k's density at grid angle i is
    signatures[k] . weights[i], and a state's is c . weights[i] with c
    its mean signature (mean_signature).  scatter_prob[k] is the grid
    quadrature of class k's density, ns_prob = 1 - scatter_prob and
    ns_amp its (real, non-negative) square root.  Depends only on
    (basis, setup), never on the state, and is immutable, so one table
    serves every trajectory of every engine.
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
    signatures: np.ndarray = field(repr=False)

    def class_weights(self, probs: np.ndarray) -> np.ndarray:
        """Summed probability of each class from per-basis-state
        probabilities, a running sum in ascending basis order."""
        return np.bincount(self.class_of, weights=probs,
                           minlength=self.ns_prob.shape[0])

    def mean_signature(self, w: np.ndarray) -> np.ndarray:
        """c = sum_k w_k signatures[k] of each row of class weights w,
        shape (rows, K): shape (rows, M).

        An elementwise product summed along the class axis, never a BLAS
        call, so a row's c does not depend on the other rows, bit for
        bit.
        """
        prod = np.empty((w.shape[0],) + self.signatures.T.shape)
        np.multiply(w[:, None, :], self.signatures.T, out=prod)
        return prod.sum(axis=2)


def build_pattern_table(basis: FockBasis, setup: ScatteringSetup) -> PatternTable:
    """Precompute the weighted basis functions and the class signatures.

    Class k's density W_k(theta) = (g^2 / 2 pi) |I(theta) F_k(theta)|^2 is
    sum_d C_kd weights[:, d], and |A_k|^2 = 1 - C_k . q with q the grid
    quadratures of the weighted basis functions, which makes the
    per-class sum rule quadrature(W_k) + |A_k|^2 = 1 hold to rounding.
    """
    if basis.spec != setup.lattice:
        raise ValueError("basis and setup refer to different lattices")
    groups = basis.signature_groups
    class_of = np.empty(basis.dimension, dtype=np.int64)
    for k, (_, idx) in enumerate(groups):
        class_of[idx] = k
    signatures = np.array([sig for sig, _ in groups], dtype=np.float64)
    n, m = setup.n_theta, basis.spec.M
    grid = theta_grid(n)
    h = 2.0 * math.pi / n

    prefac = setup.g ** 2 / (2.0 * math.pi)
    b = pattern_basis(grid, setup.k0_a, m)
    b *= (prefac * envelope_factor(grid, setup) ** 2)[:, None]
    weights = np.concatenate([b, b[:1]])
    # quadratures as contiguous row sums, each basis function on its own
    quad = h * np.ascontiguousarray(b.T).sum(axis=1)
    scatter_prob = (signatures * quad).sum(axis=1)

    # trapezoid cell masses, summed down the angle axis within blocks of
    # _CUM_BLOCK cells, then offset by the running sum of the block
    # totals: the signed basis functions do not share the rounding drift
    # of one long running sum, which would then show in a mixture's CDF
    cells = np.zeros((-(-n // _CUM_BLOCK) * _CUM_BLOCK, m))
    np.add(weights[:-1], weights[1:], out=cells[:n])
    cells *= 0.5 * h
    blocks = np.cumsum(cells.reshape(-1, _CUM_BLOCK, m), axis=1)
    blocks[1:] += np.cumsum(blocks[:-1, -1], axis=0)[:, None, :]
    cum = np.concatenate([np.zeros((1, m)), blocks.reshape(-1, m)[:n]])

    ns_prob = 1.0 - scatter_prob
    if np.min(ns_prob) < -1e-12:
        k = int(np.argmin(ns_prob))
        occ = basis.occupations[groups[k][1][0]]
        raise CouplingTooStrong(
            f"basis state {tuple(int(x) for x in occ)} has scattering "
            f"probability {float(scatter_prob[k]):.6f} > 1 at gN={setup.gN}")
    ns_prob = np.maximum(ns_prob, 0.0)
    ns_amp = np.sqrt(ns_prob)

    arrays = (grid, weights, cum, scatter_prob, ns_prob, ns_amp, class_of,
              signatures)
    for arr in arrays:
        arr.setflags(write=False)
    return PatternTable(basis, setup, *arrays)


def _state_weights(state: ManyBodyState, table: PatternTable) -> np.ndarray:
    """The state's class weights in the table; ValueError for a state on
    another lattice than the table's."""
    if state.basis != table.basis:
        a, b = state.basis.spec, table.basis.spec
        raise ValueError(
            f"state on M={a.M}, N={a.N} ({a.boundary.value}) does not "
            f"belong to the table of M={b.M}, N={b.N} ({b.boundary.value})")
    return table.class_weights(state.probabilities)


def scatter_density(state: ManyBodyState, table: PatternTable) -> np.ndarray:
    """Detection density P(theta_i) = sum_k w_k W_k(theta_i) over the
    state's class weights w_k = sum_{u in k} |c_u|^2, evaluated as
    c . weights[i] with c the state's mean signature.

    Relative phases between basis states never show up in the angular
    distribution.  The signed basis functions can cancel to a rounding
    error below zero, so the density is clamped at 0.
    """
    w = _state_weights(state, table)
    c = table.mean_signature(w[None, :])
    return np.maximum((table.weights[:-1] * c).sum(axis=1), 0.0)


def nonscatter_prob(state: ManyBodyState, table: PatternTable) -> float:
    """Probability sum_k w_k |A_k|^2 that the probe passes unscattered."""
    w = _state_weights(state, table)
    return float(np.sum(w * table.ns_prob))


def _cell_terms(c: np.ndarray, k: np.ndarray, table: PatternTable):
    """c . cum[k], the density f_k and the slope (f_{k+1} - f_k) / h of
    grid cell k[r] of each row r of mean signatures c, the densities
    clamped at 0: the CDF at offset x in the cell is c . cum[k] + f_k x
    + slope x^2 / 2, which sample_angles inverts and angle_cdf evaluates.
    """
    h = 2.0 * math.pi / table.theta_grid.shape[0]
    base = (c * table.cum[k]).sum(axis=1)
    f0 = np.maximum((c * table.weights[k]).sum(axis=1), 0.0)
    f1 = np.maximum((c * table.weights[k + 1]).sum(axis=1), 0.0)
    return base, f0, (f1 - f0) / h


def angle_cdf(w: np.ndarray, theta: np.ndarray,
              table: PatternTable) -> np.ndarray:
    """The CDF that sample_angles inverts, of row r of class weights w,
    shape (rows, K), at angle theta[r] in [-pi, pi], or of a single row
    at every angle: c . cum[i] at grid angle i (pi is i = n), c the row's
    mean signature, and _cell_terms' quadratic inside a cell.
    """
    grid = table.theta_grid
    c = np.broadcast_to(table.mean_signature(w),
                        theta.shape + table.signatures.shape[1:])
    k = np.searchsorted(grid, theta, side="right") - 1
    base, f0, slope = _cell_terms(c, k, table)
    x = theta - grid[k]
    cdf = base + f0 * x + 0.5 * slope * x * x
    return np.where(theta >= math.pi, (c * table.cum[-1]).sum(axis=1), cdf)


def sample_angles(w: np.ndarray, v: np.ndarray,
                  table: PatternTable) -> np.ndarray:
    """Scatter angle of each row of class weights w, shape (rows, K), at
    its quantile v in [0, 1] of the piecewise-linear mixture density.

    The mixture CDF at grid index i is CDF(i) = c . cum[i], with c the
    row's mean signature, and CDF(0) = 0 exactly.  The basis functions
    are signed, so where their terms cancel the rounded CDF can step
    down, and the search does not assume it is monotone.  A branchless
    search with power-of-two steps s from 2^(p-1) down to 1, where 2^p
    >= n, keeps two invariants: CDF(lo) <= target, true at lo = 0 since
    target = v * CDF(n) >= 0; and hi = lo + 2 s is 2^p or has CDF(hi) >
    target.  After the pass of step 1, hi = lo + 1, so the cell
    k = min(lo, n - 1) has CDF(k) <= target < CDF(k + 1) unless
    k = n - 1: a cell the target crosses.  Candidates past
    the wrap row n read it (mode="clip"), so at v * CDF(n) = CDF(n) the
    search may end past n - 1, and k = n - 1 is the last cell.  Inside
    the cell the quadratic CDF is inverted in the numerically stable
    form x = 2 s / (f_k + sqrt(f_k^2 + 2 slope s)), with the end
    densities clamped at 0, a negative discriminant read as 0 and x
    clipped to [0, h], so the angle lies in cell k and in [-pi, pi)
    whatever the rounding.  Every reduction is an elementwise product
    summed along one row, never a BLAS call, so a row's angle does not
    depend on the other rows, bit for bit.
    """
    grid, cum = table.theta_grid, table.cum
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    c = table.mean_signature(w)
    target = v * (c * cum[n]).sum(axis=1)
    lo = np.zeros(len(v), dtype=np.int64)
    cand = np.empty_like(lo)
    cdf = np.empty(len(v))
    below = np.empty(len(v), dtype=bool)
    prod = np.empty(c.shape)
    step = 1 << ((n - 1).bit_length() - 1)
    while step:
        np.add(lo, step, out=cand)
        cum.take(cand, axis=0, out=prod, mode="clip")
        np.multiply(c, prod, out=prod)
        np.add.reduce(prod, axis=1, out=cdf)
        np.less_equal(cdf, target, out=below)
        np.copyto(lo, cand, where=below)
        step >>= 1
    k = np.minimum(lo, n - 1)
    base, f0, slope = _cell_terms(c, k, table)
    s = target - base
    denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * s, 0.0))
    x = np.divide(2.0 * s, denom, out=np.zeros_like(s), where=denom > 0.0)
    theta = grid[k] + np.clip(x, 0.0, h)
    return np.where(theta >= math.pi, theta - 2.0 * math.pi, theta)
