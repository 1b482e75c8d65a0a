"""Tests for the Fock basis and Bose-Hubbard Hamiltonian.

Ground-state checks use independent oracles: brute-force enumeration for
basis counts, the closed-form condensate wavefunction (a multinomial
over the lowest single-particle orbital) for the non-interacting chain,
a per-hop loop with a dictionary index for the Hamiltonian, and numpy's
dense eigh and scipy's ARPACK for the Lanczos eigensolver.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense
import scatterloc
from scatterloc import lattice
from scatterloc.lattice import (
    Boundary,
    CapacityError,
    EigensolverError,
    FockBasis,
    HubbardParams,
    LatticeSpec,
    ManyBodyState,
    SparseSymmetric,
    build_hamiltonian,
    enumerate_basis,
    fock_dimension,
    fock_state,
    ground_state,
    overlap,
)
from scatterloc.kernel import pattern_signature


def brute_force_occupations(M, N):
    """All occupation tuples by exhaustive search, independent of the library."""
    return [occ for occ in itertools.product(range(N + 1), repeat=M)
            if sum(occ) == N]


def reference_hamiltonian(basis, params):
    """Dense H from one dictionary lookup per hop, independent of ranking."""
    index = {occ: i for i, occ in enumerate(basis.states)}
    dim = basis.dimension
    H = np.zeros((dim, dim), dtype=np.float64)
    n = basis.occupations.astype(np.float64)
    H[np.diag_indices(dim)] = 0.5 * params.U * np.sum(n * (n - 1.0), axis=1)
    if params.J != 0.0:
        for i, occ in enumerate(basis.states):
            for (s, t) in basis.spec.bonds:
                for src, dst in ((s, t), (t, s)):
                    if occ[src] == 0:
                        continue
                    hopped = list(occ)
                    hopped[src] -= 1
                    hopped[dst] += 1
                    j = index[tuple(hopped)]
                    H[j, i] -= params.J * math.sqrt(occ[src] * (occ[dst] + 1))
    return H


BASIS_CASES = [(M, N, b) for M in range(1, 7) for N in range(1, 7)
               for b in Boundary if b == Boundary.OPEN or M >= 3]


PARAMS = [HubbardParams(J=1.0, U=0.0), HubbardParams(J=0.7, U=1.3),
          HubbardParams(J=0.3, U=-2.1), HubbardParams(J=0.0, U=1.0)]


class TestBasis:
    def test_dimension_against_brute_force(self):
        for M, N in [(1, 5), (2, 3), (3, 3), (4, 2), (5, 5)]:
            assert fock_dimension(M, N) == len(brute_force_occupations(M, N))

    def test_dimension_known_values(self):
        assert fock_dimension(3, 3) == 10
        assert fock_dimension(1, 5) == 1
        assert fock_dimension(5, 5) == 126

    def test_states_are_descending_lex(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        assert basis.states[0] == (3, 0, 0)
        assert basis.states[-1] == (0, 0, 3)
        for a, b in zip(basis.states, basis.states[1:]):
            assert a > b

    def test_states_match_brute_force_set(self):
        spec = LatticeSpec(M=4, N=3)
        basis = enumerate_basis(spec)
        assert set(basis.states) == set(brute_force_occupations(4, 3))
        assert len(basis) == fock_dimension(4, 3)

    def test_index_round_trip(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        for i, occ in enumerate(basis.states):
            assert basis.index_of(occ) == i
        with pytest.raises(ValueError):
            basis.index_of((3, 1, 0))  # wrong particle number

    @pytest.mark.parametrize("M,N", [(1, 4), (3, 3), (5, 5), (7, 7),
                                     (60, 2), (2, 60)])
    def test_rank_round_trip(self, M, N):
        # a base-(N+1) integer key would overflow int64 at M=60, N=2 and
        # M=2, N=60; ranks stay below the dimension
        basis = enumerate_basis(LatticeSpec(M=M, N=N))
        np.testing.assert_array_equal(basis.rank(basis.occupations),
                                      np.arange(basis.dimension))

    def test_index_of_rejects_non_basis_occupations(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        # an entry that is not an integer is refused, not truncated
        for occ in [(3, 0), (3, 0, 0, 0), (4, -1, 0), (1, 1, 0),
                    (1, 1, 1.5), ("1", "1", "1")]:
            with pytest.raises(ValueError):
                basis.index_of(occ)

    def test_constructor_refuses_rows_other_than_the_basis(self):
        # rank and index_of read the descending order enumerate_basis
        # builds: reversed rows once gave a wrong ground energy, and a
        # subset a broadcast error far from the constructor
        spec = LatticeSpec(M=3, N=2)
        states = enumerate_basis(spec).states
        for rows in (states[::-1], states[:4], states[:1] + states[:-1],
                     [(2, 0, 0)] * len(states)):
            with pytest.raises(ValueError, match="M=3, N=2"):
                FockBasis(spec, rows)

    def test_occupations_array_is_readonly(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=2))
        assert basis.occupations.shape == (6, 3)
        with pytest.raises(ValueError):
            basis.occupations[0, 0] = 7

    def test_signature_groups_are_cached_and_readonly(self):
        # computed once per basis object; the classes and the pattern
        # table share the index arrays, so neither may write to them
        basis = enumerate_basis(LatticeSpec(M=4, N=4))
        groups = basis.signature_groups
        assert basis.signature_groups is groups
        assert enumerate_basis(basis.spec).signature_groups is not groups
        for _, idx in groups:
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_basis(LatticeSpec(M=3, N=3), max_dim=9)
        # exactly at the limit is fine
        enumerate_basis(LatticeSpec(M=3, N=3), max_dim=10)

    @settings(max_examples=30, deadline=None)
    @given(M=st.integers(1, 5), N=st.integers(1, 5))
    def test_enumeration_matches_brute_force(self, M, N):
        basis = enumerate_basis(LatticeSpec(M=M, N=N))
        expected = sorted(brute_force_occupations(M, N), reverse=True)
        assert basis.states == expected

    @pytest.mark.parametrize("M,N,boundary",
                             BASIS_CASES + [(8, 8, Boundary.OPEN)])
    def test_basis_array_and_partition(self, M, N, boundary):
        spec = LatticeSpec(M=M, N=N, boundary=boundary)
        basis = enumerate_basis(spec)
        occ = basis.occupations
        rows = occ.tolist()
        assert occ.shape == (fock_dimension(M, N), M) == (len(basis), M)
        assert all(a > b for a, b in zip(rows, rows[1:]))
        np.testing.assert_array_equal(basis.rank(occ), np.arange(len(basis)))

        # the partition against a grouping by the scalar signature
        members = {}
        for i, row in enumerate(rows):
            members.setdefault(pattern_signature(row), []).append(i)
        expected = sorted(members.items(), reverse=True)
        groups = basis.signature_groups
        assert [sig for sig, _ in groups] == [sig for sig, _ in expected]
        for (sig, idx), (_, want) in zip(groups, expected):
            assert all(type(c) is int for c in sig)
            assert idx.tolist() == want
            assert not idx.flags.writeable
        if (M, N) == (8, 8):
            assert len(groups) == 1750

        # the constructor takes tuples or an array, and copies the array
        array = np.array(rows)
        for built in (FockBasis(spec, basis.states), FockBasis(spec, array)):
            np.testing.assert_array_equal(built.occupations, occ)
            assert built.states == basis.states
            assert not built.occupations.flags.writeable
        assert array.flags.writeable


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(M=0, N=1)
        with pytest.raises(ValueError):
            LatticeSpec(M=2, N=0)
        with pytest.raises(ValueError):
            LatticeSpec(M=2, N=2, boundary=Boundary.PERIODIC)

    def test_boundary_names(self):
        spec = LatticeSpec(M=3, N=2, boundary="periodic")
        assert spec.boundary is Boundary.PERIODIC
        with pytest.raises(ValueError, match="boundary"):
            LatticeSpec(M=3, N=2, boundary="twisted")

    def test_hubbard_params_need_finite_tunneling(self):
        for J in (math.inf, math.nan, -0.5):
            with pytest.raises(ValueError, match="J"):
                HubbardParams(J=J, U=0.0)
        with pytest.raises(ValueError, match="U"):
            HubbardParams(J=1.0, U=math.inf)

    def test_bonds(self):
        assert LatticeSpec(M=4, N=1).bonds == ((0, 1), (1, 2), (2, 3))
        assert LatticeSpec(M=1, N=2).bonds == ()
        periodic = LatticeSpec(M=4, N=1, boundary=Boundary.PERIODIC)
        assert periodic.bonds == ((0, 1), (1, 2), (2, 3), (3, 0))


class TestHamiltonian:
    def test_two_site_single_particle(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=1))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0))
        assert isinstance(H, SparseSymmetric)
        np.testing.assert_array_equal(dense(H), [[0.0, -1.0], [-1.0, 0.0]])

    def test_interaction_diagonal(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        H = dense(build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0)))
        assert np.count_nonzero(H - np.diag(np.diag(H))) == 0
        assert H[basis.index_of((3, 0, 0)), basis.index_of((3, 0, 0))] == 3.0
        assert H[basis.index_of((2, 1, 0)), basis.index_of((2, 1, 0))] == 1.0
        assert H[basis.index_of((1, 1, 1)), basis.index_of((1, 1, 1))] == 0.0

    def test_single_particle_chain_spectrum(self):
        # open tridiagonal hopping matrix: eigenvalues -2J cos(k pi / (M+1))
        basis = enumerate_basis(LatticeSpec(M=3, N=1))
        H = dense(build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0)))
        evals = np.linalg.eigvalsh(H)
        expected = sorted(-2.0 * math.cos(k * math.pi / 4) for k in (1, 2, 3))
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    def test_hop_amplitude_bose_factor(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=3))
        H = dense(build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0)))
        i = basis.index_of((2, 1))
        j = basis.index_of((1, 2))
        # b_2^dag b_1 on |2,1>: sqrt(2) * sqrt(2) = 2
        assert H[j, i] == pytest.approx(-2.0, abs=1e-15)

    def test_exact_symmetry(self):
        for M, N, bc in [(3, 3, Boundary.OPEN), (4, 2, Boundary.PERIODIC),
                         (2, 4, Boundary.OPEN)]:
            basis = enumerate_basis(LatticeSpec(M=M, N=N, boundary=bc))
            H = build_hamiltonian(basis, HubbardParams(J=0.7, U=1.3))
            H = dense(H)
            assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("M,N,bc", [
        (1, 4, Boundary.OPEN), (2, 5, Boundary.OPEN), (3, 3, Boundary.OPEN),
        (3, 4, Boundary.PERIODIC), (4, 4, Boundary.OPEN),
        (5, 5, Boundary.PERIODIC), (6, 6, Boundary.OPEN),
        (7, 6, Boundary.OPEN), (7, 6, Boundary.PERIODIC)])
    def test_dense_matches_per_hop_reference_bitwise(self, M, N, bc):
        # the dense copy of H, bit for bit, and how H stores it
        basis = enumerate_basis(LatticeSpec(M=M, N=N, boundary=bc))
        dim = basis.dimension
        for params in PARAMS:
            H = build_hamiltonian(basis, params)
            ref = reference_hamiltonian(basis, params)
            assert isinstance(H, SparseSymmetric)
            np.testing.assert_array_equal(dense(H).view(np.uint64),
                                          ref.view(np.uint64))
            # each entry stored once: the diagonal and every nonzero hop
            # with its mirror, no position twice, none on the diagonal
            assert len(H.rows) == len(H.cols) == len(H.data) - dim
            assert len(H.data) == dim + np.count_nonzero(
                ref - np.diag(np.diag(ref)))
            assert not np.any(H.rows == H.cols)
            keys = H.rows * dim + H.cols
            assert np.unique(keys).size == keys.size
            np.testing.assert_array_equal(np.sort(keys),
                                          np.sort(H.cols * dim + H.rows))

    def test_offdiagonals_are_single_neighbour_hops(self):
        spec = LatticeSpec(M=3, N=2)
        basis = enumerate_basis(spec)
        H = dense(build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0)))
        bonds = set(spec.bonds)
        occs = basis.occupations
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i == j or H[i, j] == 0.0:
                    continue
                diff = occs[i] - occs[j]
                moved = np.nonzero(diff)[0]
                assert len(moved) == 2
                s, t = int(moved[0]), int(moved[1])
                assert abs(diff[s]) == 1 and abs(diff[t]) == 1
                assert (s, t) in bonds or (t, s) in bonds


class TestGroundState:
    def test_hard_core_limit_is_unit_filling(self):
        # with J = 0 the Hamiltonian is diagonal and the unique minimum
        # is one atom per site
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        H = build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0))
        energy, state = ground_state(H, basis)
        assert energy == 0.0
        expected = np.zeros(10)
        expected[basis.index_of((1, 1, 1))] = 1.0
        np.testing.assert_allclose(np.abs(state.coeffs), expected, atol=1e-14)

    def test_free_bosons_energy(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0))
        energy, _ = ground_state(H, basis)
        assert energy == pytest.approx(-3.0 * math.sqrt(2.0), abs=1e-12)

    def test_free_bosons_condensate_coefficients(self):
        # U = 0: all atoms condense into the lowest orbital of the open
        # 3-site chain, v = (1/2, 1/sqrt(2), 1/2); the number-basis
        # coefficients are multinomial amplitudes in that orbital
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0))
        _, state = ground_state(H, basis)

        v = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
        for i, occ in enumerate(basis.states):
            amp = math.sqrt(math.factorial(3) / np.prod(
                [math.factorial(n) for n in occ]))
            expected = amp * np.prod(v ** np.array(occ))
            assert abs(state.coeffs[i] - expected) < 1e-8, occ

    def test_phase_convention(self):
        basis = enumerate_basis(LatticeSpec(M=4, N=2))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=2.0))
        _, state = ground_state(H, basis)
        k = int(np.argmax(np.abs(state.coeffs)))
        assert state.coeffs[k].real > 0
        assert state.coeffs[k].imag == 0.0
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=1))
        with pytest.raises(ValueError):
            ground_state(np.zeros((3, 3)), basis)
        bad = np.full((2, 2), np.nan)
        with pytest.raises(EigensolverError):
            ground_state(bad, basis)

    def test_non_finite_input_is_never_certified(self, monkeypatch):
        # hopping-free dense H with a NaN diagonal entry
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        H = dense(build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0)))
        H[2, 2] = np.nan
        with pytest.raises(EigensolverError):
            ground_state(H, basis)
        # a SparseSymmetric with a NaN diagonal, refused before the
        # Lanczos iteration
        basis = enumerate_basis(LatticeSpec(M=7, N=6))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5))
        data = H.data.copy()
        data[5] = np.nan
        H = SparseSymmetric(data, H.rows, H.cols)
        assert np.isnan(H.diagonal()[5])
        with pytest.raises(EigensolverError, match="non-finite"):
            ground_state(H, basis)
        # a solver that returns a NaN energy must fail the residual check
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5))
        v = np.full((basis.dimension, 1), basis.dimension ** -0.5)
        monkeypatch.setattr(lattice, "_lanczos",
                            lambda H, k: (np.array([np.nan]), v))
        with pytest.raises(EigensolverError, match="residual"):
            ground_state(H, basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offdiagonal_never_reaches_lanczos(self, bad,
                                                          monkeypatch):
        # an off-diagonal entry of an H with hopping, and its mirror, are
        # refused before the Lanczos iteration
        def refuse(H, k):
            raise AssertionError("_lanczos called")

        monkeypatch.setattr(lattice, "_lanczos", refuse)
        basis = enumerate_basis(LatticeSpec(M=4, N=4))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5))
        mirror = np.flatnonzero((H.rows == H.cols[0]) & (H.cols == H.rows[0]))
        data = H.data.copy()
        data[basis.dimension + np.r_[0, mirror]] = bad
        H = SparseSymmetric(data, H.rows, H.cols)
        assert np.all(np.isfinite(H.diagonal()))
        with pytest.raises(EigensolverError, match="non-finite"):
            ground_state(H, basis)

    @pytest.mark.parametrize("J,U", [(1e200, 0.0), (1.0, 1e308)])
    def test_overflow_is_refused_without_a_warning(self, J, U):
        # U = 1e308 overflows the diagonal, and J = 1e200 the squared
        # norms the Lanczos and the residual take: each once leaked a
        # RuntimeWarning
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = build_hamiltonian(basis, HubbardParams(J=J, U=U))
            with pytest.raises(EigensolverError, match="non-finite"):
                ground_state(H, basis)


# the benchmark's four working points, M = N and U, on both boundaries
BENCH_POINTS = [(m, U, bc) for m, U in [(3, 0.0), (5, 5.0), (6, 0.05),
                                        (7, 0.0)] for bc in Boundary]


def bench_point_id(m, U, bc):
    return f"{m}-{m}" if bc == Boundary.OPEN else f"periodic-{m}-{m}"


def assert_matches_dense_eigh(dense, energy, state):
    """The lowest pair of numpy's dense eigh, its vector in the phase
    ground_state fixes, within 1e-12."""
    evals, evecs = np.linalg.eigh(dense)
    v = evecs[:, 0]
    k = int(np.argmax(np.abs(v)))
    v = v if v[k] > 0 else -v
    assert abs(energy - evals[0]) < 1e-12
    np.testing.assert_allclose(state.coeffs, v, rtol=0, atol=1e-12)


class TestSparseGroundState:
    @pytest.mark.parametrize("m,U,bc", BENCH_POINTS,
                             ids=[bench_point_id(*p) for p in BENCH_POINTS])
    def test_sparse_against_dense(self, m, U, bc):
        # numpy's dense eigh of the same H as the oracle
        basis = enumerate_basis(LatticeSpec(M=m, N=m, boundary=bc))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=U))
        assert isinstance(H, SparseSymmetric)
        energy, state = ground_state(H, basis)
        assert_matches_dense_eigh(dense(H), energy, state)

    def test_free_bosons_energy_at_m9_n9(self):
        # D = 24310, where a dense H would take 4.7 GB; U = 0 puts all
        # atoms in the lowest orbital, of energy -2 cos(pi / (M + 1))
        basis = enumerate_basis(LatticeSpec(M=9, N=9))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0))
        energy, state = ground_state(H, basis)
        assert energy == pytest.approx(-2 * 9 * math.cos(math.pi / 10),
                                       abs=1e-9)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,U", [(7, 0.5), (7, 10.0), (8, 0.5), (9, 0.5)])
    def test_energy_matches_arpack(self, m, U):
        # ARPACK's implicitly restarted Lanczos as an independent oracle;
        # at U/J = 10 the spectrum is 35 times wider than the gap, where a
        # basis that loses its orthogonality stops converging
        import scipy.sparse
        import scipy.sparse.linalg

        basis = enumerate_basis(LatticeSpec(M=m, N=m))
        H = build_hamiltonian(basis, HubbardParams(J=1.0, U=U))
        energy, state = ground_state(H, basis)
        csr = scipy.sparse.csr_array(scipy.sparse.coo_array(
            (H.data, (np.r_[np.arange(basis.dimension), H.rows],
                      np.r_[np.arange(basis.dimension), H.cols])),
            shape=H.shape))
        ref = scipy.sparse.linalg.eigsh(csr, k=1, which="SA",
                                        v0=np.ones(basis.dimension),
                                        tol=0)[0][0]
        assert abs(energy - ref) < 1e-12

    @pytest.mark.parametrize("m,U,bc", BENCH_POINTS,
                             ids=[bench_point_id(*p) for p in BENCH_POINTS])
    def test_caller_scipy_matrix_is_certified(self, m, U, bc):
        # ground_state stays duck-typed: a scipy CSR built by the caller
        # runs the Lanczos solver and passes the same residual check; at
        # D = 10 the basis spans the whole space in one pass
        import scipy.sparse

        basis = enumerate_basis(LatticeSpec(M=m, N=m, boundary=bc))
        full = dense(build_hamiltonian(basis, HubbardParams(J=1.0, U=U)))
        energy, state = ground_state(scipy.sparse.csr_array(full), basis)
        assert_matches_dense_eigh(full, energy, state)

    def test_breakdown_continues_to_the_lowest_pairs(self):
        # the vector of ones is the top eigenvector of a ring's adjacency
        # matrix, so the first product already lies in the basis; only a
        # fresh direction reaches the lowest pairs, 2 cos(2 pi k / 40)
        dim = 40
        i = np.arange(dim)
        H = SparseSymmetric(np.r_[np.zeros(dim), np.ones(2 * dim)],
                            np.r_[i, (i + 1) % dim], np.r_[(i + 1) % dim, i])
        evals, evecs = lattice._lanczos(H, 2)
        ring = np.sort(2 * np.cos(2 * np.pi * np.arange(dim) / dim))
        np.testing.assert_allclose(evals, ring[:2], rtol=0, atol=1e-12)
        for e, v in zip(evals, evecs.T):
            assert np.linalg.norm(H @ v - e * v) < 1e-12

    def test_no_run_imports_scipy_sparse(self, tmp_path):
        # importing the package loads numpy.random but no module of the
        # scipy package, the top-level scipy included, nor a process
        # pool; no predict (M=N=6 or 7) loads scipy, nor does building a
        # Hamiltonian
        script = (
            "import sys\n"
            "import scatterloc\n"
            "from scatterloc import cli, lattice\n"
            "def scipy_loaded():\n"
            "    return any(name.partition('.')[0] == 'scipy'\n"
            "               for name in sys.modules)\n"
            "names = ['concurrent.futures', 'multiprocessing', 'numpy.random']\n"
            "print(scipy_loaded(), *[name in sys.modules for name in names])\n"
            "for m in (6, 7):\n"
            f"    code = cli.main(['predict', '--out', {str(tmp_path)!r},\n"
            "                     '--set', f'M={m}', '--set', f'N={m}'])\n"
            "    print(code, scipy_loaded())\n"
            "basis = lattice.enumerate_basis(lattice.LatticeSpec(M=7, N=6))\n"
            "params = lattice.HubbardParams(J=1.0, U=0.0)\n"
            "lattice.build_hamiltonian(basis, params)\n"
            "print(scipy_loaded())\n")
        src = str(Path(scatterloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False False False True", "0 False", "0 False", "False"]


class TestHardCoreLimit:
    def test_degenerate_minimum_follows_j_to_zero(self):
        # M=3, N=4: (2,1,1), (1,2,1), (1,1,2) all cost U; hopping inside
        # the manifold is -2 between neighbours, whose lowest
        # eigenvector is (1/2, 1/sqrt(2), 1/2)
        basis = enumerate_basis(LatticeSpec(M=3, N=4))
        H = build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0))
        energy, state = ground_state(H, basis)
        assert energy == 1.0
        expected = np.zeros(basis.dimension)
        for occ, amp in [((2, 1, 1), 0.5), ((1, 2, 1), 1 / math.sqrt(2)),
                         ((1, 1, 2), 0.5)]:
            expected[basis.index_of(occ)] = amp
        np.testing.assert_allclose(state.coeffs, expected, atol=1e-12)

    # on a ring the wrap bond (M-1, 0) is the only bond whose hop moves
    # an atom to an earlier site, so its mirrored entry is the easiest
    # to lose
    @pytest.mark.parametrize("M,N,bc", [
        (3, 4, Boundary.OPEN), (4, 2, Boundary.OPEN), (4, 6, Boundary.OPEN),
        (4, 3, Boundary.PERIODIC), (4, 6, Boundary.PERIODIC),
        (5, 4, Boundary.PERIODIC)],
        ids=["3-4", "4-2", "4-6", "periodic-4-3", "periodic-4-6",
             "periodic-5-4"])
    def test_agrees_with_small_hopping(self, M, N, bc):
        basis = enumerate_basis(LatticeSpec(M=M, N=N, boundary=bc))
        _, limit = ground_state(
            build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0)), basis)
        _, small = ground_state(
            build_hamiltonian(basis, HubbardParams(J=1e-7, U=1.0)), basis)
        assert abs(overlap(limit, small)) == pytest.approx(1.0, abs=1e-9)

    def test_unique_minimum_is_the_exact_fock_state(self):
        basis = enumerate_basis(LatticeSpec(M=5, N=5))
        H = build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0))
        energy, state = ground_state(H, basis)
        assert energy == 0.0
        assert np.array_equal(state.coeffs,
                              fock_state(basis, (1,) * 5).coeffs)

    def test_unresolved_degeneracy_raises(self):
        # U < 0 piles all atoms on one site; no single hop stays inside
        # that manifold, so the J -> 0+ limit picks no state
        basis = enumerate_basis(LatticeSpec(M=3, N=2))
        H = build_hamiltonian(basis, HubbardParams(J=0.0, U=-1.0))
        with pytest.raises(EigensolverError):
            ground_state(H, basis)

    def test_whole_basis_manifold_gives_the_free_ground_state(self):
        # J = 0 and U = 0 make all 1716 states of M=N=7 degenerate, so
        # the Lanczos solver takes the two lowest pairs of the full
        # hopping, whose lowest vector is the J = 1, U = 0 ground state
        basis = enumerate_basis(LatticeSpec(M=7, N=7))
        energy, limit = ground_state(
            build_hamiltonian(basis, HubbardParams(J=0.0, U=0.0)), basis)
        _, free = ground_state(
            build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0)), basis)
        assert energy == 0.0
        np.testing.assert_allclose(limit.coeffs, free.coeffs, rtol=0,
                                   atol=1e-10)

    def test_hopping_free_manifold_above_the_cutoff_is_not_resolved(
            self, monkeypatch):
        # with every hop removed, the 1716-state manifold's hopping is the
        # zero operator: each Lanczos step breaks down, continues from a
        # fresh vector, and two zero eigenvalues end in the unresolved
        # degeneracy after one basis of _LANCZOS_NCV products
        products = []

        def counting(self, x):
            products.append(len(x))
            return self.data[:self.shape[0]] * x

        monkeypatch.setattr(lattice, "_hops", lambda basis, occ: iter(()))
        monkeypatch.setattr(SparseSymmetric, "__matmul__", counting)
        basis = enumerate_basis(LatticeSpec(M=7, N=7))
        H = build_hamiltonian(basis, HubbardParams(J=0.0, U=0.0))
        with pytest.raises(EigensolverError, match="not resolved"):
            ground_state(H, basis)
        assert products == [basis.dimension] * lattice._LANCZOS_NCV


class TestStatesAndOverlap:
    def test_normalization(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=2))
        state = ManyBodyState.from_coefficients(basis, [3.0, 4.0, 0.0])
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(state.probabilities, [0.36, 0.64, 0.0])
        with pytest.raises(ValueError):
            ManyBodyState.from_coefficients(basis, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ManyBodyState.from_coefficients(basis, [1.0, 2.0])
        # nan and inf once gave a state of nans, and entries whose squares
        # overflow the norm to inf a silent zero state
        for bad in ([math.nan, 1.0, 0.0], [math.inf, 1.0, 0.0],
                    [1e200, 1e200, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                ManyBodyState.from_coefficients(basis, bad)

    def test_coefficients_are_readonly(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=2))
        state = fock_state(basis, (1, 1))
        with pytest.raises(ValueError):
            state.coeffs[0] = 1.0

    def test_fock_states_orthonormal(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=2))
        states = [fock_state(basis, occ) for occ in basis.states]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                assert overlap(si, sj) == (1.0 if i == j else 0.0)

    def test_overlap_conjugates_first_argument(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=1))
        s1 = ManyBodyState.from_coefficients(basis, [1.0, 1.0j])
        s2 = fock_state(basis, (0, 1))
        r = 1.0 / math.sqrt(2.0)
        assert overlap(s1, s2) == pytest.approx(-1.0j * r)
        assert overlap(s2, s1) == pytest.approx(1.0j * r)

    def test_overlap_basis_mismatch(self):
        b1 = enumerate_basis(LatticeSpec(M=2, N=1))
        b2 = enumerate_basis(LatticeSpec(M=3, N=1))
        with pytest.raises(ValueError):
            overlap(fock_state(b1, (1, 0)), fock_state(b2, (1, 0, 0)))
