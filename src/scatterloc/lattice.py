"""Bosonic Fock basis on a 1D lattice, Bose-Hubbard Hamiltonian, ground state.

Sites sit on a line at positions (j-1)*a for j = 1..M; the site spacing a
enters only through the probe's dimensionless k0_a, and all energies are
in units of the tunneling J unless stated otherwise.

Up to _DENSE_MAX_DIM basis states the Hamiltonian is a dense array and
the ground state comes from LAPACK's full symmetric eigensolver; above
it the Hamiltonian is a sparse CSR array and the ground state comes from
ARPACK's Lanczos iteration.  A Hamiltonian without hopping (J = 0) is
diagonal, and its ground state is read off the diagonal, with a
degenerate minimum resolved by the J -> 0+ limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

# Largest dimension whose Hamiltonian is built dense and solved by eigh.
# Measured with single-threaded BLAS on a 2-vCPU box at M=N, U/J=0.5,
# eigh against eigsh: D=126 2.7 vs 1.5 ms, D=462 39 vs 2.0 ms, D=1716
# 1.3 s vs 4.1 ms.  Importing scipy.sparse.linalg adds about 30 ms, so
# the two cost about the same near D = 500.
_DENSE_MAX_DIM = 512


class Boundary(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class CapacityError(Exception):
    """Fock-space dimension exceeds the configured maximum."""


class EigensolverError(Exception):
    """No ground state could be certified.

    Raised when the dense (LAPACK) or sparse (ARPACK) eigensolver fails,
    when the returned pair misses the residual tolerance, and when a
    hopping-free Hamiltonian has a ground state the J -> 0+ limit does
    not single out.
    """


@dataclass(frozen=True)
class LatticeSpec:
    """M lattice sites on a line holding N bosons."""

    M: int
    N: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"site count M must be >= 1, got {self.M}")
        if self.N < 1:
            raise ValueError(f"atom count N must be >= 1, got {self.N}")
        if self.boundary == Boundary.PERIODIC and self.M <= 2:
            # the wrap-around bond would duplicate an open bond
            raise ValueError("periodic boundary requires M >= 3")

    @property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        """Nearest-neighbour site pairs (0-based)."""
        pairs = [(j, j + 1) for j in range(self.M - 1)]
        if self.boundary == Boundary.PERIODIC:
            pairs.append((self.M - 1, 0))
        return tuple(pairs)


@dataclass(frozen=True)
class HubbardParams:
    """Tunneling energy J and on-site interaction U."""

    J: float
    U: float

    def __post_init__(self):
        if not (self.J >= 0):
            raise ValueError(f"tunneling J must be >= 0, got {self.J}")
        if not math.isfinite(self.U):
            raise ValueError(f"interaction U must be finite, got {self.U}")


def fock_dimension(M: int, N: int) -> int:
    """Number of ways to place N bosons on M sites (stars and bars)."""
    return math.comb(N + M - 1, N)


def _occupations_desc(n: int, m: int):
    """Yield all length-m occupation tuples summing to n, in descending
    lexicographic order."""
    if m == 1:
        yield (n,)
        return
    for head in range(n, -1, -1):
        for tail in _occupations_desc(n - head, m - 1):
            yield (head,) + tail


class FockBasis:
    """Ordered number basis of the N-boson sector on M sites.

    States are kept in descending lexicographic order of their occupation
    tuples, which makes indices (and everything derived from them)
    reproducible across runs.  The index of an occupation is computed
    from it combinatorially (rank), so no lookup table is kept.
    """

    def __init__(self, spec: LatticeSpec, states: list[tuple[int, ...]]):
        self.spec = spec
        self.states = states
        self.dimension = len(states)
        self.occupations = np.array(states, dtype=np.int64)
        self.occupations.setflags(write=False)
        # _beyond[s, j]: states that agree with a given state on sites
        # before j and hold more atoms on site j, when s of its atoms sit
        # on sites after j; every entry is at most the dimension
        M, N = spec.M, spec.N
        self._beyond = np.array(
            [[math.comb(s + M - j - 2, M - j - 1) for j in range(M - 1)]
             for s in range(N + 1)], dtype=np.int64)

    @functools.cached_property
    def signature_groups(self):
        """Partition of basis indices by pattern signature, computed once.

        ((signature, index_array), ...) in descending lexicographic order
        of signature, most sharply peaked pattern (largest C_0) first.
        The signatures are kernel.pattern_signature's, computed for all
        states at once; each index array is ascending and read-only, as
        the classes and the pattern table share it.
        """
        occ, m = self.occupations, self.spec.M
        sigs = np.stack([np.sum(occ[:, :m - d] * occ[:, d:], axis=1)
                         for d in range(m)], axis=1)
        # np.unique sorts rows in ascending lexicographic order
        uniq, inverse = np.unique(sigs, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        order.setflags(write=False)
        parts = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
        return tuple((tuple(sig), idx)
                     for sig, idx in zip(uniq.tolist()[::-1], parts[::-1]))

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an (n, M) array of valid
        occupations: the number of states that precede each row."""
        beyond = self.spec.N - np.cumsum(occ[:, :-1], axis=1)
        return self._beyond[beyond, np.arange(self.spec.M - 1)].sum(axis=1)

    def index_of(self, occ) -> int:
        """Basis index of an occupation tuple; raises ValueError if absent."""
        key = tuple(int(n) for n in occ)
        if (len(key) != self.spec.M or min(key) < 0
                or sum(key) != self.spec.N):
            raise ValueError(f"occupation {key} is not a basis state "
                             f"of M={self.spec.M}, N={self.spec.N}")
        return int(self.rank(np.array([key], dtype=np.int64))[0])

    def __len__(self) -> int:
        return self.dimension

    def __eq__(self, other) -> bool:
        return isinstance(other, FockBasis) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self) -> str:
        return (f"FockBasis(M={self.spec.M}, N={self.spec.N}, "
                f"D={self.dimension})")


def enumerate_basis(spec: LatticeSpec, max_dim: int = 1_000_000) -> FockBasis:
    """Enumerate the full N-boson Fock basis for the given lattice.

    Raises CapacityError if the dimension C(N+M-1, N) exceeds max_dim.
    """
    dim = fock_dimension(spec.M, spec.N)
    if dim > max_dim:
        raise CapacityError(
            f"Fock dimension {dim} for M={spec.M}, N={spec.N} exceeds "
            f"the configured maximum {max_dim}")
    states = list(_occupations_desc(spec.N, spec.M))
    return FockBasis(spec, states)


@dataclass
class ManyBodyState:
    """Normalized complex coefficient vector over a Fock basis."""

    basis: FockBasis
    coeffs: np.ndarray = field(repr=False)

    @classmethod
    def from_coefficients(cls, basis: FockBasis, coeffs,
                          normalize: bool = True) -> "ManyBodyState":
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.shape != (basis.dimension,):
            raise ValueError(f"coefficient vector has shape {c.shape}, "
                             f"expected ({basis.dimension},)")
        norm = np.linalg.norm(c)
        if norm == 0.0:
            raise ValueError("coefficient vector has zero norm")
        if normalize:
            c /= norm
        c.setflags(write=False)
        return cls(basis, c)

    @property
    def probabilities(self) -> np.ndarray:
        """|c_u|^2 for every basis state."""
        return np.abs(self.coeffs) ** 2

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def fock_state(basis: FockBasis, occ) -> ManyBodyState:
    """The basis vector for a single occupation tuple."""
    c = np.zeros(basis.dimension, dtype=np.complex128)
    c[basis.index_of(occ)] = 1.0
    return ManyBodyState.from_coefficients(basis, c, normalize=False)


def _hops(basis: FockBasis, occ: np.ndarray):
    """Every single-atom hop b_dst^dag b_src along a bond from rows of occ.

    Yields, per bond and direction, the rows i that can hop, the basis
    index j of each hopped occupation and the Bose factor
    sqrt(n_src (n_dst + 1)).
    """
    for (s, t) in basis.spec.bonds:
        for src, dst in ((s, t), (t, s)):
            i = np.flatnonzero(occ[:, src])
            hopped = occ[i]
            amp = np.sqrt(hopped[:, src] * (hopped[:, dst] + 1))
            hopped[:, src] -= 1
            hopped[:, dst] += 1
            yield i, basis.rank(hopped), amp


def _assemble(diag: np.ndarray, rows, cols, vals):
    """Symmetric matrix with the given diagonal and off-diagonal entries:
    dense up to _DENSE_MAX_DIM, sparse CSR above."""
    dim = diag.shape[0]
    if dim <= _DENSE_MAX_DIM:
        H = np.zeros((dim, dim), dtype=np.float64)
        H[np.diag_indices(dim)] = diag
        for r, c, v in zip(rows, cols, vals):
            H[r, c] = v
        return H
    import scipy.sparse

    idx = np.arange(dim)
    return scipy.sparse.csr_array(
        (np.concatenate([diag, *vals]),
         (np.concatenate([idx, *rows]), np.concatenate([idx, *cols]))),
        shape=(dim, dim))


def build_hamiltonian(basis: FockBasis, params: HubbardParams):
    """Bose-Hubbard Hamiltonian in the number basis.

    H = -J sum_<i,j> (b_i^dag b_j + h.c.) + (U/2) sum_j n_j (n_j - 1),
    with the bond set fixed by the lattice boundary condition.  Returns
    a dense ndarray up to _DENSE_MAX_DIM basis states and a
    scipy.sparse.csr_array above, with the same entries.
    """
    n = basis.occupations.astype(np.float64)
    diag = 0.5 * params.U * np.sum(n * (n - 1.0), axis=1)
    rows, cols, vals = [], [], []
    if params.J != 0.0:
        for i, j, amp in _hops(basis, basis.occupations):
            rows.append(j)
            cols.append(i)
            vals.append(-(params.J * amp))
    return _assemble(diag, rows, cols, vals)


def _eigensolve(H, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Lowest eigenpairs of a real symmetric H, in ascending order.

    A dense H gets the full LAPACK spectrum and its exact norm; a sparse
    H gets its k lowest pairs from ARPACK and a lower bound of its norm.
    """
    if isinstance(H, np.ndarray):
        try:
            evals, evecs = scipy.linalg.eigh(H)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise EigensolverError(
                f"symmetric eigensolver failed: {exc}") from exc
        return evals, evecs, float(np.max(np.abs(evals)))
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    try:
        evals, evecs = eigsh(H, k=k, which="SA", v0=np.ones(H.shape[0]),
                             tol=0)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise EigensolverError(f"Lanczos eigensolver failed: {exc}") from exc
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    h_norm = max(abs(float(evals[0])), float(np.max(np.abs(H.diagonal()))))
    return evals, evecs, h_norm


def _hard_core_ground_state(diag: np.ndarray,
                            basis: FockBasis) -> tuple[float, np.ndarray]:
    """Ground state of a diagonal Hamiltonian, as the J -> 0+ limit.

    A unique minimum gives its Fock vector.  A degenerate minimum gives
    the lowest eigenvector of the hopping restricted to the minimal
    manifold (first-order degenerate perturbation theory in J); if that
    eigenvector is degenerate too, no state is singled out.
    """
    if not np.all(np.isfinite(diag)):
        raise EigensolverError("Hamiltonian diagonal is not finite")
    energy = float(np.min(diag))
    manifold = np.flatnonzero(diag == energy)
    v = np.zeros(basis.dimension)
    if manifold.size == 1:
        v[manifold[0]] = 1.0
        return energy, v

    rows, cols, vals = [], [], []
    for i, j, amp in _hops(basis, basis.occupations[manifold]):
        pos = np.minimum(np.searchsorted(manifold, j), manifold.size - 1)
        inside = manifold[pos] == j
        rows.append(pos[inside])
        cols.append(i[inside])
        vals.append(-amp[inside])
    hopping = _assemble(np.zeros(manifold.size), rows, cols, vals)
    evals, evecs, h_norm = _eigensolve(hopping, k=2)
    if evals[1] - evals[0] <= 1e-10 * max(h_norm, 1.0):
        raise EigensolverError(
            f"the {manifold.size}-fold degenerate ground state of the "
            f"hopping-free Hamiltonian is not resolved by the J -> 0+ limit")
    v[manifold] = evecs[:, 0]
    return energy, v


def ground_state(H, basis: FockBasis) -> tuple[float, ManyBodyState]:
    """Lowest eigenpair of a real symmetric Hamiltonian.

    H is dense or scipy-sparse, as build_hamiltonian returns it.  A dense
    H is solved by LAPACK eigh, a sparse one by ARPACK Lanczos, and a
    diagonal one (no hopping) without an eigensolver, resolving a
    degenerate minimum by the J -> 0+ limit.  The eigenvector's global
    phase is fixed by making its largest-magnitude coefficient real and
    positive, so repeated runs are bit-comparable.  The returned pair
    satisfies ||H v - E v|| <= 1e-10 max(||H||, 1), with ||H|| the
    spectral norm for a dense H and its lower bound max(|E|, max|H_ii|)
    for a sparse one.
    """
    if H.shape != (basis.dimension, basis.dimension):
        raise ValueError(f"Hamiltonian shape {H.shape} does not match basis "
                         f"dimension {basis.dimension}")
    diag = H.diagonal()
    stored = H if isinstance(H, np.ndarray) else H.data
    if np.count_nonzero(stored) == np.count_nonzero(diag):
        energy, v = _hard_core_ground_state(diag, basis)
        h_norm = float(np.max(np.abs(diag)))
    else:
        evals, evecs, h_norm = _eigensolve(H, k=1)
        energy = float(evals[0])
        v = evecs[:, 0]

    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v

    tol = 1e-10 * max(h_norm, 1.0)
    residual = float(np.linalg.norm(H @ v - energy * v))
    if not residual <= tol:
        raise EigensolverError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {tol:.3e}")

    state = ManyBodyState.from_coefficients(basis, v.astype(np.complex128),
                                            normalize=True)
    return energy, state


def overlap(s1: ManyBodyState, s2: ManyBodyState) -> complex:
    """Inner product <s1|s2> = sum_u conj(c1_u) c2_u."""
    if s1.basis != s2.basis:
        raise ValueError("states are expanded over different bases")
    return complex(np.vdot(s1.coeffs, s2.coeffs))
