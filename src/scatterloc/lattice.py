"""Bosonic Fock basis on a 1D lattice, Bose-Hubbard Hamiltonian, ground state.

Sites sit on a line at positions (j-1)*a for j = 1..M; the site spacing a
enters only through the probe's dimensionless k0_a, and all energies are
in units of the tunneling J unless stated otherwise.

The Fock basis is one (D, M) array of occupations, enumerated by stars
and bars and partitioned into signature classes by one sort; occupation
tuples are built only when asked for.

At every size the Hamiltonian is a SparseSymmetric (its diagonal and its
hops in coordinate form) and the ground state comes from a thick-restart
Lanczos iteration written in numpy, which imports no scipy.  A
Hamiltonian without hopping (J = 0) is diagonal, and its ground state is
read off the diagonal, with a degenerate minimum resolved by the
J -> 0+ limit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Thick-restart Lanczos: the basis size (ARPACK's default ncv), the
# Ritz vectors a restart keeps, and the restarts allowed before giving up
_LANCZOS_NCV = 20
_LANCZOS_KEEP = 8
_LANCZOS_MAX_RESTARTS = 1000


class Boundary(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"boundary must be one of "
                         f"{[b.value for b in cls]}, got {value!r}")


class CapacityError(Exception):
    """Fock-space dimension over the configured maximum, or a run's tables
    over what the process may hold (analysis._check_memory)."""


class EigensolverError(Exception):
    """No ground state could be certified.

    Raised when the Lanczos eigensolver does not converge, when the
    returned pair misses the residual tolerance, when the Hamiltonian has
    a non-finite entry or squared norm, and when a hopping-free
    Hamiltonian has a ground state the J -> 0+ limit does not single
    out.
    """


@dataclass(frozen=True)
class LatticeSpec:
    """M lattice sites on a line holding N bosons."""

    M: int
    N: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
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
        if not (0 <= self.J < math.inf):
            raise ValueError(f"tunneling J must be finite and >= 0, "
                             f"got {self.J}")
        if not math.isfinite(self.U):
            raise ValueError(f"interaction U must be finite, got {self.U}")


def fock_dimension(M: int, N: int) -> int:
    """Number of ways to place N bosons on M sites (stars and bars)."""
    return math.comb(N + M - 1, N)


class FockBasis:
    """Ordered number basis of the N-boson sector on M sites.

    The basis is one read-only (D, M) integer array, occupations, whose
    rows are in descending lexicographic order, which makes indices (and
    everything derived from them) reproducible across runs.  states is
    the same basis as a list of occupation tuples, built on first use.
    The constructor takes the occupations as such a list or as an array,
    and refuses any other rows or order with a ValueError.
    The index of an occupation is computed from it combinatorially
    (rank), so no lookup table is kept.
    """

    def __init__(self, spec: LatticeSpec, states):
        self.spec = spec
        self.occupations = np.array(states, dtype=np.int64)
        self.occupations.setflags(write=False)
        self.dimension = len(self.occupations)
        # _beyond[s, j]: states that agree with a given state on sites
        # before j and hold more atoms on site j, when s of its atoms sit
        # on sites after j; every entry is at most the dimension
        M, N = spec.M, spec.N
        self._beyond = np.array(
            [[math.comb(s + M - j - 2, M - j - 1) for j in range(M - 1)]
             for s in range(N + 1)], dtype=np.int64)
        # valid rows of a full count ranked 0, 1, ... are the basis itself
        occ, D = self.occupations, fock_dimension(M, N)
        if not (occ.shape == (D, M) and occ.min() >= 0
                and (occ.sum(axis=1) == N).all()
                and np.array_equal(self.rank(occ), np.arange(D))):
            raise ValueError(f"states are not the M={M}, N={N} basis in "
                             f"descending lexicographic order")

    @functools.cached_property
    def states(self) -> list[tuple[int, ...]]:
        """The occupations as a list of tuples, in basis order."""
        return list(zip(*self.occupations.T.tolist()))

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
        # a stable sort on the negated signatures, C_0 the primary key,
        # keeps each class's indices ascending
        order = np.lexsort(-sigs.T[::-1])
        order.setflags(write=False)
        sigs = sigs[order]
        starts = np.flatnonzero((sigs[1:] != sigs[:-1]).any(axis=1)) + 1
        return tuple(zip(map(tuple, sigs[np.r_[0, starts]].tolist()),
                         np.split(order, starts)))

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an (n, M) array of valid
        occupations: the number of states that precede each row."""
        beyond = self.spec.N - np.cumsum(occ[:, :-1], axis=1)
        return self._beyond[beyond, np.arange(self.spec.M - 1)].sum(axis=1)

    def index_of(self, occ) -> int:
        """Basis index of an occupation tuple; raises ValueError if absent."""
        occ = tuple(occ)
        key = tuple(int(n) for n in occ)
        if (key != occ or len(key) != self.spec.M or min(key) < 0
                or sum(key) != self.spec.N):
            raise ValueError(f"occupation {key if key == occ else occ} is "
                             f"not a basis state of M={self.spec.M}, "
                             f"N={self.spec.N}")
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
    Stars and bars: the M-1 bars among N+M-1 slots, in the ascending
    lexicographic order of itertools.combinations, give the occupations
    in ascending lexicographic order as the gaps between them, so the
    basis order is their reverse.
    """
    M, N = spec.M, spec.N
    dim = fock_dimension(M, N)
    if dim > max_dim:
        raise CapacityError(
            f"Fock dimension {dim} for M={M}, N={N} exceeds "
            f"the configured maximum {max_dim}")
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(N + M - 1), M - 1)),
        dtype=np.int64, count=dim * (M - 1)).reshape(dim, M - 1)
    occ = np.diff(bars[::-1], axis=1, prepend=-1, append=N + M - 1)
    occ -= 1
    return FockBasis(spec, occ)


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
        # entries near the float maximum overflow the norm to inf
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(c)
        if not (0.0 < norm < math.inf):
            raise ValueError(f"coefficient vector has norm {norm}; it must "
                             f"be nonzero and finite")
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
    """Every single-atom hop b_t^dag b_s along a bond (s, t) from rows of occ.

    Yields, per bond, the rows i that can hop, the basis index j of each
    hopped occupation and the Bose factor sqrt(n_s (n_t + 1)); the hop
    back, t to s, is the transpose with the same factor.
    """
    for (s, t) in basis.spec.bonds:
        i = np.flatnonzero(occ[:, s])
        hopped = occ[i]
        amp = np.sqrt(hopped[:, s] * (hopped[:, t] + 1))
        hopped[:, s] -= 1
        hopped[:, t] += 1
        yield i, basis.rank(hopped), amp


class SparseSymmetric:
    """Real symmetric D x D matrix: its diagonal and its off-diagonal
    entries in coordinate form.

    data[:D] is the diagonal.  data[D:] holds the off-diagonal entries,
    entry k at (rows[k], cols[k]); each is listed with its mirror and no
    position twice.  The class offers what ground_state and the memory
    accounting read from a matrix: shape, diagonal(), data, nbytes and
    the product H @ x with a real vector, one gather and one np.bincount
    scatter, with no BLAS call.
    """

    def __init__(self, data: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        dim = len(data) - len(rows)
        self.shape = (dim, dim)
        self.data, self.rows, self.cols = data, rows, cols
        self._diag, self._vals = data[:dim], data[dim:]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.rows.nbytes + self.cols.nbytes

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # every index is in range by construction, and clipping skips
        # the bounds check of the default mode
        t = x.take(self.cols, mode="clip")
        t *= self._vals
        y = self._diag * x
        # an empty bincount is integer, which the sum casts to float
        y += np.bincount(self.rows, t, minlength=self.shape[0])
        return y


def _assemble(diag: np.ndarray, rows, cols, vals):
    """SparseSymmetric with the given diagonal and off-diagonal entries,
    each at (r, c) and (c, r)."""
    # an empty first piece types the indices when there is no hop
    none = [np.empty(0, dtype=np.int64)]
    return SparseSymmetric(np.concatenate([diag, *vals, *vals]),
                           np.concatenate(none + rows + cols),
                           np.concatenate(none + cols + rows))


def build_hamiltonian(basis: FockBasis, params: HubbardParams):
    """Bose-Hubbard Hamiltonian in the number basis.

    H = -J sum_<i,j> (b_i^dag b_j + h.c.) + (U/2) sum_j n_j (n_j - 1),
    with the bond set fixed by the lattice boundary condition.  Returns
    a SparseSymmetric at every size.
    """
    n = basis.occupations.astype(np.float64)
    # an overflow is an inf, which ground_state refuses
    with np.errstate(over="ignore"):
        diag = 0.5 * params.U * np.sum(n * (n - 1.0), axis=1)
    rows, cols, vals = [], [], []
    if params.J != 0.0:
        for i, j, amp in _hops(basis, basis.occupations):
            rows.append(j)
            cols.append(i)
            vals.append(-(params.J * amp))
    return _assemble(diag, rows, cols, vals)


def _lanczos(H, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of a real symmetric operator by thick-restart
    Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).

    The basis starts from the vector of ones and holds at most
    _LANCZOS_NCV vectors.  Each new vector is orthogonalised against the
    whole basis by classical Gram-Schmidt, with a second pass when the
    first leaves less than half of its norm (the test of Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30, 772 (1976)).  A full basis
    restarts from its _LANCZOS_KEEP lowest Ritz vectors and the residual
    direction.  A breakdown, H v in the span of the basis, continues from
    the next vector of a fixed-seed generator, orthogonalised against
    the basis, so the iteration never stalls.  Converged when the Ritz
    estimate of every wanted pair is at most 10 eps times the largest
    Ritz value yet seen, about the rounding floor of the residual
    itself; EigensolverError after _LANCZOS_MAX_RESTARTS restarts.
    """
    dim = H.shape[0]
    m = min(_LANCZOS_NCV, dim)
    keep = max(min(_LANCZOS_KEEP, m - 1), k)
    eps = np.finfo(np.float64).eps
    fresh = None
    V = np.empty((m + 1, dim))
    V[0] = dim ** -0.5
    T = np.zeros((m, m))
    start, scale = 0, 0.0
    for _ in range(_LANCZOS_MAX_RESTARTS):
        for j in range(start, m):
            w = H @ V[j]
            basis = V[:j + 1]
            h = basis @ w
            w -= h @ basis
            # hh + ww is the squared norm of H v before the pass
            hh, ww = float(h @ h), float(w @ w)
            if ww < 0.25 * (hh + ww):
                h2 = basis @ w
                w -= h2 @ basis
                h += h2
                ww = float(w @ w)
            # eigh reads the lower triangle
            T[j, :j + 1] = h
            beta = math.sqrt(ww)
            # a basis that spans the whole space leaves no residual
            if beta <= eps * math.sqrt(hh) or j + 1 == dim:
                beta = 0.0
                if j + 1 == m:
                    break
                if fresh is None:
                    fresh = np.random.default_rng(0)
                w = fresh.standard_normal(dim)
                for _ in range(2):
                    w -= (basis @ w) @ basis
                ww = float(w @ w)
            np.divide(w, math.sqrt(ww), out=V[j + 1])
        theta, Y = np.linalg.eigh(T)
        scale = max(scale, abs(theta[0]), abs(theta[-1]))
        if np.all(beta * np.abs(Y[-1, :k]) <= 10 * eps * scale):
            return theta[:k], (Y[:, :k].T @ V[:m]).T
        V[:keep] = Y[:, :keep].T @ V[:m]
        V[keep] = V[m]
        T[:] = 0.0
        T[np.diag_indices(keep)] = theta[:keep]
        start = keep
    raise EigensolverError(f"Lanczos eigensolver did not converge in "
                           f"{_LANCZOS_MAX_RESTARTS} restarts")


def _hard_core_ground_state(diag: np.ndarray,
                            basis: FockBasis) -> tuple[float, np.ndarray]:
    """Ground state of a diagonal Hamiltonian, as the J -> 0+ limit.

    A unique minimum gives its Fock vector.  A degenerate minimum gives
    the lowest eigenvector of the hopping restricted to the minimal
    manifold (first-order degenerate perturbation theory in J); if that
    eigenvector is degenerate too, no state is singled out.
    """
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
    evals, evecs = _lanczos(hopping, 2)
    if evals[1] - evals[0] <= 1e-10 * max(abs(evals[0]), 1.0):
        raise EigensolverError(
            f"the {manifold.size}-fold degenerate ground state of the "
            f"hopping-free Hamiltonian is not resolved by the J -> 0+ limit")
    v[manifold] = evecs[:, 0]
    return energy, v


def ground_state(H, basis: FockBasis) -> tuple[float, ManyBodyState]:
    """Lowest eigenpair of a real symmetric Hamiltonian.

    H is a SparseSymmetric, as build_hamiltonian returns it, or any other
    matrix with shape, diagonal() and a product H @ x with a 1-D array:
    a dense ndarray, or a caller's own scipy sparse matrix, whose data
    attribute holds its stored entries.  Every H with hopping is solved
    by the numpy thick-restart Lanczos of _lanczos, and a diagonal one
    (no hopping) without an eigensolver, resolving a degenerate minimum
    by the J -> 0+ limit.  A non-finite entry, or on the Lanczos path a
    non-finite squared norm, is refused before any solver runs.  The
    eigenvector's global phase is fixed by making its largest-magnitude
    coefficient real and positive, so repeated runs are bit-comparable.
    The returned pair satisfies ||H v - E v|| <= 1e-10 max(||H||, 1),
    with ||H|| bounded below by max(|E|, max|H_ii|).
    """
    if H.shape != (basis.dimension, basis.dimension):
        raise ValueError(f"Hamiltonian shape {H.shape} does not match basis "
                         f"dimension {basis.dimension}")
    diag = H.diagonal()
    stored = H if isinstance(H, np.ndarray) else H.data
    if not np.all(np.isfinite(stored)):
        raise EigensolverError("Hamiltonian has a non-finite entry")
    if np.count_nonzero(stored) == np.count_nonzero(diag):
        energy, v = _hard_core_ground_state(diag, basis)
    else:
        # 4 ||H||_F^2 bounds every squared norm the Lanczos and the
        # residual take, so none overflows where this does not
        with np.errstate(over="ignore"):
            if not math.isfinite(4.0 * float(np.vdot(stored, stored))):
                raise EigensolverError("Hamiltonian has a non-finite "
                                       "squared norm")
        evals, evecs = _lanczos(H, 1)
        energy, v = float(evals[0]), evecs[:, 0]

    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v

    tol = 1e-10 * max(abs(energy), float(np.max(np.abs(diag))), 1.0)
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
