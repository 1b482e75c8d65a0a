"""Tests for classes, ensemble statistics, and sweeps.

The end-state class probabilities are checked against an independently
recomputed multinomial oracle, ensemble means against the initial
weights (preservation in expectation), and the ensemble runner against
the per-basis, coefficient-evolving trajectory loop in oracles.py.
"""

import concurrent.futures
import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from scatterloc.analysis import (
    EquivalenceClass,
    _pool_size,
    angle_histogram,
    bin_angles,
    bin_edges,
    build_classes,
    class_weights,
    predicted_bin_masses,
    prepare_system,
    run_ensemble,
    sweep_uj,
)
from scatterloc import analysis, trajectory
from scatterloc.config import RunConfig
from oracles import class_columns, per_basis_trajectory, structure_amplitude
from scatterloc.kernel import (
    ScatteringSetup,
    angle_cdf,
    build_pattern_table,
    nonscatter_prob,
    pattern_signature,
    scatter_density,
)
from scatterloc.lattice import (
    CapacityError,
    FockBasis,
    HubbardParams,
    LatticeSpec,
    ManyBodyState,
    build_hamiltonian,
    enumerate_basis,
    fock_state,
    ground_state,
)
from scatterloc.trajectory import (
    RngStream,
    run_trajectories,
    run_trajectory,
    step,
    trajectory_seed,
)

LAT33 = LatticeSpec(M=3, N=3)


@pytest.fixture
def partitions(monkeypatch):
    """Lattices of the signature partitions computed while active."""
    computed = []
    compute = FockBasis.signature_groups.func

    def counting(basis):
        computed.append(basis.spec)
        return compute(basis)

    prop = functools.cached_property(counting)
    prop.__set_name__(FockBasis, "signature_groups")
    monkeypatch.setattr(FockBasis, "signature_groups", prop)
    return computed


@pytest.fixture(scope="module")
def system33():
    basis = enumerate_basis(LAT33)
    classes = build_classes(basis)
    setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
    table = build_pattern_table(basis, setup)
    H = build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0))
    energy, psi = ground_state(H, basis)
    return basis, classes, table, psi


@pytest.fixture(scope="module")
def system55():
    # strong probe at twelve times the dimension: many rows scatter on
    # every event, so the batched scatter branch does most of the work
    lat = LatticeSpec(M=5, N=5)
    basis = enumerate_basis(lat)
    classes = build_classes(basis)
    table = build_pattern_table(
        basis, ScatteringSetup(lattice=lat, gN=1.0, k0_a=math.pi))
    _, psi = ground_state(
        build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5)), basis)
    return basis, classes, table, psi


def multinomial_class_oracle():
    """Class probabilities of the free ground state, recomputed from the
    single-particle orbital v = (1/2, 1/sqrt(2), 1/2) by brute force."""
    v = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
    basis = enumerate_basis(LAT33)
    groups: dict[tuple, float] = {}
    for occ in basis.states:
        denom = np.prod([math.factorial(n) for n in occ])
        prob = math.factorial(3) / denom * np.prod(v ** (2 * np.array(occ)))
        sig = pattern_signature(occ)
        groups[sig] = groups.get(sig, 0.0) + prob
    return [groups[sig] for sig in sorted(groups, reverse=True)]


def allow_cpus(monkeypatch, n):
    """Let the process run on n CPUs, as the pool size reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


class TestSignatures:
    def test_hand_computed_examples(self):
        assert pattern_signature((2, 0, 1)) == (5, 0, 2)
        assert pattern_signature((1, 0, 2)) == (5, 0, 2)
        assert pattern_signature((3, 0, 0)) == (9, 0, 0)
        assert pattern_signature((1, 1, 1)) == (3, 2, 1)

    def test_total_correlation_counts_all_pairs(self):
        # C_0 + 2 sum_{d>0} C_d counts every ordered pair of atoms: N^2
        for M, N in [(3, 3), (4, 2), (2, 5)]:
            basis = enumerate_basis(LatticeSpec(M=M, N=N))
            for occ in basis.states:
                sig = pattern_signature(occ)
                assert sig[0] + 2 * sum(sig[1:]) == N * N


class TestBuildClasses:
    def test_four_classes_with_known_membership(self):
        basis = enumerate_basis(LAT33)
        classes = build_classes(basis)
        got = [(c.signature, set(c.members)) for c in classes]
        assert got == [
            ((9, 0, 0), {(3, 0, 0), (0, 3, 0), (0, 0, 3)}),
            ((5, 2, 0), {(2, 1, 0), (1, 2, 0), (0, 2, 1), (0, 1, 2)}),
            ((5, 0, 2), {(2, 0, 1), (1, 0, 2)}),
            ((3, 2, 1), {(1, 1, 1)}),
        ]

    def test_table_class_index_follows_build_classes(self):
        # the pattern table's class k is build_classes' class k
        for M, N in [(3, 3), (4, 3), (5, 5)]:
            lattice = LatticeSpec(M=M, N=N)
            basis = enumerate_basis(lattice)
            table = build_pattern_table(basis, ScatteringSetup(
                lattice=lattice, gN=0.5, n_theta=64))
            classes = build_classes(basis)
            assert table.ns_prob.shape == (len(classes),)
            for k, c in enumerate(classes):
                assert np.all(table.class_of[c.indices] == k)

    def test_prepare_system_computes_one_partition(self, partitions):
        cfg = RunConfig(M=4, N=4, U=0.0, J=1.0, gN=0.5, k0_a=math.pi)
        system = prepare_system(cfg)
        assert partitions == [cfg.lattice_spec()]
        # the classes hold the partition's own index arrays
        for c, (sig, idx) in zip(system.classes,
                                 system.basis.signature_groups,
                                 strict=True):
            assert c.signature == sig and c.indices is idx

    def test_sweep_computes_one_partition(self, partitions):
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        sweep_uj([0.0, 5.0, math.inf], LAT33, setup, n_traj=3, n_events=5,
                 master_seed=0)
        assert partitions == [LAT33]

    def test_sweep_builds_no_classes(self, monkeypatch):
        # a sweep reads class weights from the pattern table alone, so it
        # builds no EquivalenceClass and no occupation tuples
        def refuse(*args):
            raise AssertionError("classes built")

        monkeypatch.setattr(analysis, "build_classes", refuse)
        monkeypatch.setattr(FockBasis, "states", property(refuse))
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        rows = sweep_uj([0.0, 5.0, math.inf], LAT33, setup, n_traj=3,
                        n_events=5, master_seed=0)
        assert [row.uj for row in rows] == [0.0, 5.0, math.inf]

    def test_single_site_lattice_is_one_class(self):
        basis = enumerate_basis(LatticeSpec(M=1, N=4))
        classes = build_classes(basis)
        assert len(classes) == 1
        assert classes[0].members == ((4,),)

    def test_partition_covers_basis(self):
        for M, N in [(3, 3), (4, 3), (2, 4), (5, 5), (1, 3)]:
            basis = enumerate_basis(LatticeSpec(M=M, N=N))
            classes = build_classes(basis)
            all_idx = np.concatenate([c.indices for c in classes])
            assert sorted(all_idx) == list(range(len(basis)))
            assert sum(len(c.members) for c in classes) == len(basis)
            # one signature per class, descending, each the scalar
            # pattern_signature of every member
            sigs = [c.signature for c in classes]
            assert sigs == sorted(set(sigs), reverse=True)
            for c in classes:
                assert all(pattern_signature(occ) == c.signature
                           for occ in c.members)

    def test_members_share_pattern_at_random_angles(self):
        # 64 random angles: |F|^2 agrees within every class, and matches
        # the cosine expansion of the signature
        basis = enumerate_basis(LatticeSpec(M=4, N=3))
        classes = build_classes(basis)
        setup = ScatteringSetup(lattice=LatticeSpec(M=4, N=3), gN=0.5,
                                k0_a=math.pi)
        rng = np.random.default_rng(77)
        for theta in rng.uniform(-math.pi, math.pi, size=64):
            x = setup.k0_a * math.sin(theta)
            for c in classes:
                expansion = c.signature[0] + 2.0 * sum(
                    cd * math.cos(d * x)
                    for d, cd in enumerate(c.signature) if d > 0)
                for occ in c.members:
                    f2 = abs(structure_amplitude(occ, theta, setup)) ** 2
                    assert f2 == pytest.approx(expansion, abs=1e-12)


class TestClassWeights:
    def test_mott_state_is_class_four(self, system33):
        basis, classes, _, _ = system33
        w = class_weights(fock_state(basis, (1, 1, 1)), classes)
        np.testing.assert_allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_basis_states_give_indicator_vectors(self, system33):
        basis, classes, _, _ = system33
        for k, c in enumerate(classes):
            for occ in c.members:
                w = class_weights(fock_state(basis, occ), classes)
                expected = np.zeros(len(classes))
                expected[k] = 1.0
                np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_uniform_state_gives_class_sizes(self, system33):
        basis, classes, _, _ = system33
        state = ManyBodyState.from_coefficients(basis, np.ones(10))
        np.testing.assert_allclose(class_weights(state, classes),
                                   [0.3, 0.4, 0.2, 0.1], atol=1e-12)

    def test_free_ground_state_against_multinomial_oracle(self, system33):
        _, classes, _, psi = system33
        oracle = multinomial_class_oracle()
        np.testing.assert_allclose(oracle,
                                   [0.15625, 0.5625, 0.09375, 0.1875],
                                   atol=1e-12)
        got = class_weights(psi, classes)
        np.testing.assert_allclose(got, oracle, atol=1e-8)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_bitwise_equal_to_the_table_sum(self, m):
        # the per-class sum runs in the table's order, so the predicted
        # proportions and a trajectory's row 0 agree in every bit
        lattice = LatticeSpec(M=m, N=m)
        basis = enumerate_basis(lattice)
        classes = build_classes(basis)
        table = build_pattern_table(basis, ScatteringSetup(
            lattice=lattice, gN=0.5, n_theta=64))
        rng = np.random.default_rng(m)
        for _ in range(10):
            c = rng.normal(size=(len(basis), 2)) @ [1.0, 1j]
            state = ManyBodyState.from_coefficients(basis, c)
            np.testing.assert_array_equal(
                class_weights(state, classes).view(np.int64),
                table.class_weights(state.probabilities).view(np.int64))

    def test_classes_of_another_lattice_are_refused(self, system33):
        # the M=N=3 classes once summed part of an M=N=4 state without a
        # word, and the M=N=4 ones indexed past the M=N=3 basis
        _, classes33, _, psi33 = system33
        basis44 = enumerate_basis(LatticeSpec(M=4, N=4))
        psi44 = ManyBodyState.from_coefficients(
            basis44, np.ones(len(basis44)))
        with pytest.raises(ValueError, match="dimension 35"):
            class_weights(psi44, classes33)
        with pytest.raises(ValueError, match="dimension 10"):
            class_weights(psi33, build_classes(basis44))
        # nor may a class be left out or counted twice
        with pytest.raises(ValueError, match="dimension 10"):
            class_weights(psi33, classes33[1:])
        with pytest.raises(ValueError, match="dimension 10"):
            class_weights(psi33, classes33 + classes33[:1])


class TestHistograms:
    def test_bin_convention(self):
        counts = bin_angles([-math.pi, 0.0, math.pi - 1e-9], 8)
        assert counts[0] == 1
        assert counts[4] == 1
        assert counts[7] == 1
        assert counts.sum() == 3

    def test_empty_records(self):
        assert angle_histogram([], 10).tolist() == [0] * 10

    def test_pooled_over_trajectories(self, system33):
        _, _, table, psi = system33
        records = [run_trajectory(psi, table, 200, seed=trajectory_seed(3, i))
                   for i in range(4)]
        counts = angle_histogram(records, 32)
        assert counts.sum() == sum(r.n_scatter for r in records)
        manual = np.zeros(32, dtype=np.int64)
        for r in records:
            manual += bin_angles(r.scatter_angles(), 32)
        np.testing.assert_array_equal(counts, manual)

    def test_predicted_masses_are_a_distribution(self):
        # the density of (1, 2, 1, 0) vanishes near theta = pi/2, where
        # the signed rank-M CDF steps down by rounding, so an unclamped
        # difference of it at the bin edges is negative
        lattice = LatticeSpec(M=4, N=4)
        basis = enumerate_basis(lattice)
        table = build_pattern_table(basis, ScatteringSetup(
            lattice=lattice, gN=0.5, k0_a=math.pi))
        state = fock_state(basis, (1, 2, 1, 0))
        w = table.class_weights(state.probabilities)[None]
        assert np.diff(angle_cdf(w, bin_edges(600), table)).min() < 0.0
        masses = predicted_bin_masses(state, table, 600)
        assert masses.shape == (600,)
        assert np.all(masses >= 0.0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_predicted_masses_refuse_no_bins(self, system33, n_bins):
        # these once returned an empty array, where angle_histogram and
        # run_ensemble refuse the count
        _, _, table, psi = system33
        with pytest.raises(ValueError, match=f">= 1, got {n_bins}"):
            predicted_bin_masses(psi, table, n_bins)

    def test_predicted_masses_against_fine_quadrature(self, system33):
        _, _, table, psi = system33
        masses = predicted_bin_masses(psi, table, 60)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

        # independent route: trapezoid over a fine sampling of the
        # piecewise-linear density, with grid nodes landing exactly on
        # the bin edges so no bin picks up a sliver of its neighbour
        from scatterloc.kernel import scatter_density
        dens = scatter_density(psi, table)
        grid = table.theta_grid
        wrapped_x = np.append(grid, math.pi)
        wrapped_f = np.append(dens, dens[0])
        per_bin = 3600
        fine = np.linspace(-math.pi, math.pi, 60 * per_bin + 1)
        fine_f = np.interp(fine, wrapped_x, wrapped_f)
        total = np.trapezoid(fine_f, fine)
        for k in range(60):
            seg = slice(k * per_bin, (k + 1) * per_bin + 1)
            ref = np.trapezoid(fine_f[seg], fine[seg]) / total
            assert masses[k] == pytest.approx(ref, abs=1e-6), k


class TestRunEnsemble:
    def test_class_weight_means_are_preserved(self, system33):
        # the per-class means over many trajectories stay at the initial
        # weights at every recorded time (3 sigma multinomial band)
        _, classes, table, psi = system33
        n_traj = 600
        stats = run_ensemble(psi, n_traj, 100, table, classes,
                             master_seed=101, n_bins=64, snapshot_stride=10)
        p0 = stats.class_proportions_predicted
        for row_idx in [1, 5, 10]:  # m = 10, 50, 100
            m = stats.snapshot_indices[row_idx]
            assert m in (10, 50, 100)
            for k in range(4):
                band = 3.0 * math.sqrt(p0[k] * (1 - p0[k]) / n_traj)
                assert abs(stats.mean_class_weights[row_idx, k] - p0[k]) \
                    < band, (m, k)

    def test_mott_start_is_degenerate(self, system33):
        basis, classes, table, _ = system33
        psi = fock_state(basis, (1, 1, 1))
        stats = run_ensemble(psi, 50, 40, table, classes, master_seed=7,
                             n_bins=30)
        np.testing.assert_allclose(stats.class_proportions, [0, 0, 0, 1],
                                   atol=1e-15)
        assert stats.convergence_rate == 1.0
        assert stats.aborted_count == 0

    def test_bookkeeping_invariants(self, system33):
        _, classes, table, psi = system33
        stats = run_ensemble(psi, 40, 120, table, classes, master_seed=11,
                             n_bins=48)
        assert stats.histogram.sum() == stats.n_scatter_total
        assert stats.n_scatter_total == stats.scatter_counts.sum()
        assert stats.seeds.shape == (40,)
        assert len(set(stats.seeds.tolist())) == 40
        assert stats.class_proportions.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(stats.final_class_weights.sum(axis=1),
                                   1.0, atol=1e-10)
        assert stats.snapshot_indices[0] == 0
        np.testing.assert_allclose(stats.mean_class_weights[0],
                                   stats.class_proportions_predicted,
                                   atol=1e-14)

    @pytest.mark.parametrize("system", ["system33", "system55"])
    def test_deterministic_and_worker_independent(self, system, request):
        _, classes, table, psi = request.getfixturevalue(system)
        a = run_ensemble(psi, 30, 80, table, classes, master_seed=5,
                         n_bins=20)
        b = run_ensemble(psi, 30, 80, table, classes, master_seed=5,
                         n_bins=20)
        c = run_ensemble(psi, 30, 80, table, classes, master_seed=5,
                         n_bins=20, workers=3)
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.final_class_weights,
                                      b.final_class_weights)
        np.testing.assert_array_equal(a.histogram, c.histogram)
        np.testing.assert_array_equal(a.final_class_weights,
                                      c.final_class_weights)
        np.testing.assert_array_equal(a.mean_class_weights,
                                      c.mean_class_weights)

    def test_reduced_runner_matches_full_trajectory_engine(self, system33):
        # the ensemble loop drops coefficient phases; it must still draw
        # exactly the same events as the coefficient-evolving reference
        _, classes, table, psi = system33
        master = 31
        stats = run_ensemble(psi, 3, 500, table, classes, master_seed=master,
                             n_bins=40, snapshot_stride=100)
        recs = [per_basis_trajectory(psi, table, 500,
                                     seed=trajectory_seed(master, i))
                for i in range(3)]
        hist = np.zeros(40, dtype=np.int64)
        for i, rec in enumerate(recs):
            hist += bin_angles(rec.scatter_angles(), 40)
            assert rec.n_scatter == stats.scatter_counts[i]
            np.testing.assert_allclose(stats.final_class_weights[i],
                                       rec.class_weights_final, atol=1e-9)
        np.testing.assert_array_equal(stats.histogram, hist)
        for si, m in enumerate(stats.snapshot_indices):
            mean_at_m = np.mean([rec.class_weights[m] for rec in recs],
                                axis=0)
            np.testing.assert_allclose(stats.mean_class_weights[si],
                                       mean_at_m, atol=1e-9)

    def test_shares_the_event_step_with_run_trajectories(self, system33):
        # both engines advance through one event step, so the ensemble's
        # class weights and angles are those of run_trajectories on the
        # same seeds, bit for bit
        _, classes, table, psi = system33
        master = 31
        stats = run_ensemble(psi, 5, 400, table, classes, master_seed=master,
                             n_bins=40)
        recs = run_trajectories(psi, table, 400,
                                [trajectory_seed(master, i) for i in range(5)])
        np.testing.assert_array_equal(
            stats.final_class_weights,
            np.array([rec.class_weights_final for rec in recs]))
        np.testing.assert_array_equal(stats.scatter_counts,
                                      [rec.n_scatter for rec in recs])
        np.testing.assert_array_equal(stats.histogram,
                                      angle_histogram(recs, 40))

    def test_chunk_sums_are_worker_independent(self, system33, monkeypatch):
        # 70 trajectories are chunks of 16 with a ragged last one of 6;
        # one process runs them as one block, three as blocks of 32, 32
        # and 6, and the mean class weights agree bit for bit
        _, classes, table, psi = system33
        allow_cpus(monkeypatch, 3)
        one, three = (run_ensemble(psi, 70, 200, table, classes,
                                   master_seed=3, n_bins=20,
                                   snapshot_stride=20, workers=workers)
                      for workers in (1, 3))
        np.testing.assert_array_equal(one.mean_class_weights,
                                      three.mean_class_weights)
        # and are the records' mean to rounding
        recs = run_trajectories(psi, table, 200, one.seeds)
        weights = np.array([rec.class_weights for rec in recs])
        np.testing.assert_allclose(
            one.mean_class_weights,
            np.mean(weights[:, one.snapshot_indices], axis=0),
            rtol=0, atol=1e-15)

    def test_memory_does_not_grow_with_snapshots(self, system55):
        # every snapshot of every trajectory was once kept to be averaged:
        # 2000 x 201 x 38 weights, a 233 MB traced peak
        _, classes, table, psi = system55
        tracemalloc.start()
        try:
            run_ensemble(psi, 2000, 200, table, classes, master_seed=2,
                         n_bins=60, snapshot_stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_gaussian_envelope_matches_full_trajectory_engine(self):
        # the envelope branch of the ensemble multiplier against the
        # coefficient-evolving reference; the horizon stays short because
        # both amplify rounding along a trajectory
        lat = LatticeSpec(M=4, N=4)
        basis = enumerate_basis(lat)
        classes = build_classes(basis)
        table = build_pattern_table(basis, ScatteringSetup(
            lattice=lat, gN=0.8, k0_a=math.pi, envelope="gaussian",
            sigma_a=0.3))
        _, psi = ground_state(
            build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5)), basis)
        master = 41
        stats = run_ensemble(psi, 6, 300, table, classes, master_seed=master,
                             n_bins=40)
        hist = np.zeros(40, dtype=np.int64)
        for i in range(6):
            rec = per_basis_trajectory(psi, table, 300,
                                       seed=trajectory_seed(master, i))
            hist += bin_angles(rec.scatter_angles(), 40)
            assert rec.n_scatter == stats.scatter_counts[i]
            np.testing.assert_allclose(stats.final_class_weights[i],
                                       rec.class_weights_final, atol=1e-9)
        assert stats.n_scatter_total > 0
        np.testing.assert_array_equal(stats.histogram, hist)

    def test_pool_size_is_capped(self, monkeypatch):
        # the computed size only: no pool is started here
        allow_cpus(monkeypatch, 4)
        assert _pool_size(1, 1) == 1
        assert _pool_size(3, 3) == 3
        assert _pool_size(64, 3) == 3
        assert _pool_size(64, 1000) == 4
        assert _pool_size(2, 1000) == 2
        # where the platform reports no affinity the CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8, 8) == 1

    def test_pool_size_is_capped_by_the_affinity(self, monkeypatch):
        # pinned to one of two CPUs (taskset -c 0), two processes would
        # share one core
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert _pool_size(8, 100) == 1

    def test_cut_is_sized_by_the_pool_not_by_workers(self, system33,
                                                     monkeypatch):
        # on one CPU no pool starts, and 10^7 requested workers cost no
        # per-worker list: the run is the in-process one of workers=1
        _, classes, table, psi = system33
        allow_cpus(monkeypatch, 1)

        def run(workers):
            return run_ensemble(psi, 30, 80, table, classes, master_seed=5,
                                n_bins=20, workers=workers)

        base = run(1)
        tracemalloc.start()
        try:
            many = run(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        for name, value in vars(base).items():
            np.testing.assert_array_equal(getattr(many, name), value,
                                          err_msg=name)

    def test_absorption_along_trajectories(self, system33):
        # the dominant class weight is a bounded martingale, so a bare
        # 0.99 crossing often dips back below before settling (measured
        # 16 of 30 seeds here).  what does hold: every crossing is
        # eventually resolved by full absorption, and a deep crossing
        # never falls far again
        _, _, table, psi = system33
        n_crossed = 0
        n_deep = 0
        records = run_trajectories(psi, table, 1200,
                                   [trajectory_seed(77, i) for i in range(30)])
        for i, rec in enumerate(records):
            peak = rec.class_weights.max(axis=1)
            crossed = np.nonzero(peak > 0.99)[0]
            if crossed.size:
                n_crossed += 1
                assert peak[-1] > 1 - 1e-9, i
            deep = np.nonzero(peak > 0.9999)[0]
            if deep.size:
                n_deep += 1
                assert np.all(peak[deep[0]:] > 0.99), i
        assert n_crossed == 30
        assert n_deep == 30

    def test_annihilating_scatter_aborts_only_its_trajectory(
            self, system33, monkeypatch):
        # a multiplier forced to zero past theta = 3.0 annihilates the
        # weights of any trajectory that scatters there: that trajectory
        # stops with its last healthy weights and the rest of its block
        # runs on as if nothing happened
        _, classes, table, psi = system33
        cut = 3.0
        real = trajectory._scatter_multipliers

        def killing(theta, tables):
            return np.where((theta > cut)[:, None], 0.0, real(theta, tables))

        monkeypatch.setattr(trajectory, "_scatter_multipliers", killing)
        master, n_traj, n_events = 23, 12, 150
        stats = run_ensemble(psi, n_traj, n_events, table, classes,
                             master_seed=master, n_bins=40)

        # the same ensemble twice, as two rows of one lockstep batch cut
        # into blocks of 16 and 8: the second row straddles the cut
        blocks = []
        real_block = analysis._lockstep_block

        def counting(w0, row_of, seeds, *args):
            blocks.append(len(seeds))
            return real_block(w0, row_of, seeds, *args)

        monkeypatch.setattr(analysis, "_lockstep_block", counting)
        monkeypatch.setattr(analysis, "_BLOCK_WEIGHTS", 16 * len(classes))
        w0 = stats.class_proportions_predicted
        split = analysis._lockstep(
            np.stack([w0, w0]), n_traj, [master, master], table,
            n_events, 40, analysis._snapshot_slots(n_events, 50), workers=1)
        assert blocks == [16, 8]
        np.testing.assert_array_equal(split["seeds"],
                                      np.tile(stats.seeds, 2))
        for row in (slice(None, n_traj), slice(n_traj, None)):
            np.testing.assert_array_equal(stats.final_class_weights,
                                          split["final"][row])
            np.testing.assert_array_equal(stats.scatter_counts,
                                          split["scatter_counts"][row])
            assert stats.aborted_count == \
                np.count_nonzero(~split["alive"][row])
        np.testing.assert_array_equal(split["histogram"],
                                      2 * stats.histogram)

        n_aborted = 0
        for i in range(n_traj):
            rec = per_basis_trajectory(psi, table, n_events,
                                       seed=trajectory_seed(master, i))
            scatters = [e for e in rec.events if e.theta is not None]
            fatal = [j for j, e in enumerate(scatters) if e.theta > cut]
            if not fatal:
                assert stats.scatter_counts[i] == len(scatters)
                expected = rec.class_weights_final
            else:
                n_aborted += 1
                # the fatal scatter is not counted, as in the record
                assert stats.scatter_counts[i] == fatal[0]
                expected = rec.class_weights[scatters[fatal[0]].index - 1]
            np.testing.assert_allclose(stats.final_class_weights[i],
                                       expected, atol=1e-9)
        assert 0 < n_aborted < n_traj
        assert stats.aborted_count == n_aborted
        assert stats.histogram.sum() == stats.scatter_counts.sum()

        # one rule for both engines: the records on the same seeds end
        # before the fatal scatter too, bit for bit
        recs = run_trajectories(psi, table, n_events, stats.seeds)
        assert sum(rec.aborted for rec in recs) == n_aborted
        np.testing.assert_array_equal(stats.scatter_counts,
                                      [rec.n_scatter for rec in recs])
        np.testing.assert_array_equal(
            stats.final_class_weights,
            np.array([rec.class_weights_final for rec in recs]))
        np.testing.assert_array_equal(stats.histogram,
                                      angle_histogram(recs, 40))

    def test_input_validation(self, system33):
        _, classes, table, psi = system33
        with pytest.raises(ValueError):
            run_ensemble(psi, 0, 10, table, classes, master_seed=1)
        with pytest.raises(ValueError):
            run_ensemble(psi, 1, 0, table, classes, master_seed=1)
        with pytest.raises(ValueError):
            run_ensemble(psi, 1, 10, table, classes, master_seed=1,
                         workers=0)
        for n_bins in (0, -1):
            with pytest.raises(ValueError, match="n_bins"):
                run_ensemble(psi, 1, 10, table, classes, master_seed=1,
                             n_bins=n_bins)

    def test_classes_of_another_lattice_are_rejected(self, system33):
        # the initial weights come from the table, so a class list of the
        # wrong size would only mislabel the proportions
        _, _, table, psi = system33
        classes22 = build_classes(enumerate_basis(LatticeSpec(M=2, N=2)))
        with pytest.raises(ValueError, match="2 classes for a table of 4"):
            run_ensemble(psi, 1, 10, table, classes22, master_seed=1)

    def test_classes_in_another_order_are_rejected(self, system33):
        # the proportions follow the table's class order, so reversed
        # classes would put each signature on another class's numbers
        _, classes, table, psi = system33
        with pytest.raises(ValueError, match="signature order"):
            run_ensemble(psi, 1, 10, table, classes[::-1], master_seed=1)


class TestMartingaleOffAxis:
    # the class weights are a martingale, so the mean final weights are
    # the initial weights P at any event count, converged or not.  The
    # acceptance tests run at M=N=3, open, uniform, k0_a = pi; these
    # points leave each of those axes.  At k0_a = 1.3 few trajectories
    # converge in 1000 events, so only the mean weights are unbiased
    @pytest.mark.parametrize("point", [
        {"boundary": "periodic", "U": 1.0},
        {"envelope": "gaussian", "sigma_a": 0.3, "gN": 0.8},
        {"k0_a": 2 * math.pi},
        {"M": 5, "N": 3},
        {"k0_a": 1.3}],
        ids=["periodic", "gaussian", "k0_a-2pi", "M5-N3", "k0_a-1.3"])
    def test_mean_final_weights_are_the_initial_weights(self, point):
        cfg = RunConfig(**({"M": 4, "N": 4, "U": 0.5, "gN": 0.5} | point))
        system = prepare_system(cfg)
        n_traj = 500
        stats = run_ensemble(system.initial_state, n_traj, 1000,
                             system.table, system.classes, master_seed=0)
        assert stats.aborted_count == 0
        final = stats.final_class_weights
        se = final.std(axis=0, ddof=1) / math.sqrt(n_traj)
        z = (final.mean(axis=0) - stats.class_proportions_predicted) / se
        assert np.max(np.abs(z)) <= 4.0, z


# every entry point that reads a state's class weights from a table
STATE_READERS = {
    "scatter_density": lambda psi, table: scatter_density(psi, table),
    "nonscatter_prob": lambda psi, table: nonscatter_prob(psi, table),
    "predicted_bin_masses":
        lambda psi, table: predicted_bin_masses(psi, table, 12),
    "step": lambda psi, table: step(psi, table, RngStream(0)),
    "run_trajectories":
        lambda psi, table: run_trajectories(psi, table, 5, [0, 1]),
    "run_ensemble": lambda psi, table: run_ensemble(
        psi, 2, 5, table, build_classes(table.basis), master_seed=0),
}


@pytest.mark.parametrize("reader", STATE_READERS)
@pytest.mark.parametrize("M,N", [(4, 1), (3, 1)],
                         ids=["equal-D", "unequal-D"])
def test_a_state_of_another_lattice_is_rejected(reader, M, N):
    # a table for M=2, N=3 (D=4) against a state on M=4, N=1 (D=4 too)
    # or M=3, N=1 (D=3): neither may be read as the table's lattice
    lat = LatticeSpec(M=2, N=3)
    table = build_pattern_table(enumerate_basis(lat),
                                ScatteringSetup(lattice=lat, gN=0.5,
                                                k0_a=math.pi))
    psi = fock_state(enumerate_basis(LatticeSpec(M=M, N=N)),
                     (1,) + (0,) * (M - 1))
    with pytest.raises(ValueError,
                       match=rf"M={M}, N={N} .* M=2, N=3 \(open\)"):
        STATE_READERS[reader](psi, table)


def sweep_params(uj):
    """The sweep's Hubbard parameters for one U/J value."""
    if math.isinf(uj):
        return HubbardParams(J=0.0, U=1.0)
    return HubbardParams(J=1.0, U=uj)


def row_fields(row):
    return (row.uj, row.energy, row.predicted.tolist(),
            row.proportions.tolist(), row.convergence_rate)


class TestSweep:
    def test_empty_list(self, system33):
        rows = sweep_uj([], LAT33,
                        ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi),
                        n_traj=5, n_events=10, master_seed=0)
        assert rows == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sweep_uj([-0.1], LAT33,
                     ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi),
                     n_traj=5, n_events=10, master_seed=0)

    @pytest.mark.parametrize("bad", [{"n_traj": 0}, {"n_events": 0},
                                     {"workers": 0}, {"snapshot_stride": 0},
                                     {"n_bins": 0}, {"n_bins": -1}])
    def test_run_bounds_are_checked_before_any_eigensolve(
            self, bad, monkeypatch):
        built, solved = [], []
        monkeypatch.setattr(analysis, "enumerate_basis",
                            lambda spec: built.append(spec))
        monkeypatch.setattr(analysis, "build_hamiltonian",
                            lambda *a: solved.append(a))
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        kwargs = dict(n_traj=5, n_events=10, master_seed=0) | bad
        name = next(iter(bad))
        for values in ([1.0, math.inf], []):
            with pytest.raises(ValueError, match=name):
                sweep_uj(values, LAT33, setup, **kwargs)
        assert built == [] and solved == []

    def test_predictions_concentrate_on_unit_filling(self):
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        rows = sweep_uj([0.05, 1.0, 10.0, math.inf], LAT33, setup,
                        n_traj=4, n_events=20, master_seed=3)
        class4 = [row.predicted[3] for row in rows]
        assert class4 == sorted(class4)
        np.testing.assert_allclose(rows[-1].predicted, [0, 0, 0, 1],
                                   atol=1e-12)
        np.testing.assert_allclose(rows[-1].proportions, [0, 0, 0, 1],
                                   atol=1e-15)
        assert rows[-1].energy == 0.0

    def test_deterministic(self):
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        r1 = sweep_uj([0.3, 2.0], LAT33, setup, n_traj=8, n_events=30,
                      master_seed=12)
        r2 = sweep_uj([0.3, 2.0], LAT33, setup, n_traj=8, n_events=30,
                      master_seed=12)
        for a, b in zip(r1, r2):
            assert a.uj == b.uj and a.energy == b.energy
            np.testing.assert_array_equal(a.proportions, b.proportions)

    def test_memory_does_not_grow_with_n_bins(self):
        # no row reads the angle histogram; 10^6 bins once meant a
        # (rows, 10^6) int64 histogram in every lockstep block
        tracemalloc.start()
        try:
            sweep_uj([0.0, 1.0, 5.0, math.inf], LAT33,
                     ScatteringSetup(lattice=LAT33), n_traj=5, n_events=20,
                     master_seed=0, n_bins=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("m, gN, values", [
        (3, 0.5, [0.05, 1.0, math.inf]),
        (4, 0.8, [0.0, 0.5, 5.0, math.inf]),
    ])
    def test_rows_match_per_row_ensembles(self, m, gN, values):
        # every row of the one lockstep batch is the run_ensemble of its
        # own ground state at the row's master seed, bit for bit
        lat = LatticeSpec(M=m, N=m)
        setup = ScatteringSetup(lattice=lat, gN=gN, k0_a=math.pi)
        master, n_traj, n_events, n_bins = 19, 12, 150, 30
        rows = sweep_uj(values, lat, setup, n_traj=n_traj,
                        n_events=n_events, master_seed=master, n_bins=n_bins)
        basis = enumerate_basis(lat)
        classes = build_classes(basis)
        table = build_pattern_table(basis, setup)
        assert [row.uj for row in rows] == values
        for i, (uj, row) in enumerate(zip(values, rows)):
            energy, psi = ground_state(
                build_hamiltonian(basis, sweep_params(uj)), basis)
            stats = run_ensemble(psi, n_traj, n_events, table, classes,
                                 master_seed=trajectory_seed(master, i),
                                 n_bins=n_bins)
            assert row.energy == energy
            np.testing.assert_array_equal(
                row.predicted, stats.class_proportions_predicted)
            np.testing.assert_array_equal(row.proportions,
                                          stats.class_proportions)
            assert row.convergence_rate == stats.convergence_rate
        # the comparison sees trajectories that converge and ones that
        # do not
        assert any(0 < row.convergence_rate < 1 for row in rows)

    def test_worker_and_block_independent(self, system33, monkeypatch):
        # a trajectory's result does not depend on which pool process or
        # lockstep block it shares, so neither does any row
        setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
        k = 4
        steps = []
        real_step = trajectory._event_step

        def counting(*args):
            steps.append(len(args[0]))
            return real_step(*args)

        monkeypatch.setattr(trajectory, "_event_step", counting)
        # blocks of single trajectories, so the sizes below are the cut's
        monkeypatch.setattr(analysis, "_CHUNK", 1)

        def sweep(values, n_traj, workers=1):
            steps.clear()
            rows = sweep_uj(values, LAT33, setup, n_traj=n_traj,
                            n_events=40, master_seed=8, n_bins=16,
                            workers=workers)
            return [row_fields(row) for row in rows]

        three = [0.05, 1.0, math.inf]
        base = sweep(three, 7)
        assert steps == [21] * 40
        # on 2 CPUs, 3 or 4 workers cut all 21 trajectories into 2 blocks,
        # of 11 and 10 trajectories, inside a row
        allow_cpus(monkeypatch, 2)
        pools, blocks = [], []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                blocks.append(len(iterables[0]))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        for workers in (3, 4):
            pools.clear()
            blocks.clear()
            assert sweep(three, 7, workers=workers) == base
            assert pools == [{"max_workers": 2}]
            assert blocks == [2]
        # a block holds max(1, _BLOCK_WEIGHTS // K) trajectories: blocks
        # of 10 straddle rows, and no run takes more steps than one per
        # row and event
        monkeypatch.setattr(analysis, "_BLOCK_WEIGHTS", 10 * k)
        assert sweep(three, 7) == base
        assert steps == [10] * 40 + [10] * 40 + [1] * 40
        # the budget alone caps a block, at one trajectory at least, in a
        # sweep and in an ensemble alike
        monkeypatch.setattr(analysis, "_BLOCK_WEIGHTS", k)
        assert sweep(three, 7) == base
        assert steps == [1] * (21 * 40)
        _, classes, table, psi = system33
        steps.clear()
        run_ensemble(psi, 9, 40, table, classes, master_seed=8)
        assert steps == [1] * (9 * 40)

        # one trajectory per row: blocks of 1 and of 5 against one block
        seven = [0.0, 0.05, 0.3, 1.0, 2.0, 10.0, math.inf]
        monkeypatch.setattr(analysis, "_BLOCK_WEIGHTS", 1 << 20)
        single = sweep(seven, 1)
        assert steps == [7] * 40
        for per_block in (1, 5):
            monkeypatch.setattr(analysis, "_BLOCK_WEIGHTS", per_block * k)
            assert sweep(seven, 1) == single
            assert len(steps) == 40 * -(-7 // per_block)


class TestPrepareSystem:
    def test_builds_everything_from_config(self):
        cfg = RunConfig(M=3, N=3, U=0.0, J=1.0, gN=0.5, k0_a=math.pi)
        sys = prepare_system(cfg)
        assert sys.basis.dimension == 10
        assert len(sys.classes) == 4
        assert sys.energy == pytest.approx(-3 * math.sqrt(2), abs=1e-12)
        per_state = class_columns(sys.table)[:-1, sys.table.class_of].T
        assert per_state.shape == (10, 2048)
        assert float(np.sum(sys.initial_state.probabilities)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_memory_estimate_bounds_the_traced_peak(self, m):
        # the guard never under-counts, at M=N=5 and 6 as at 7 and 8; the
        # Lanczos path imports no module
        cfg = RunConfig(M=m, N=m, U=0.5, J=1.0, gN=0.5, k0_a=math.pi)
        tracemalloc.start()
        try:
            prepare_system(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analysis._memory_need(cfg.scattering_setup()) >= peak

    @pytest.mark.parametrize("m,n_events,stride,u,gn", [
        (3, 3000, 1, 0.3, 0.5), (4, 3000, 1, 0.3, 0.5),
        (6, 600, 50, 0.3, 0.5), (6, 2000, 50, 0.3, 0.5),
        (7, 200, 1, 0.3, 0.5), (3, 3000, 1, -5.0, 1.0),
        (4, 3000, 1, -5.0, 1.0)], ids=[
        "3-3000-1", "4-3000-1", "6-600-50", "6-2000-50", "7-200-1",
        "3-3000-1-all-scatter", "4-3000-1-all-scatter"])
    def test_trajectory_estimate_bounds_the_traced_peak(self, m, n_events,
                                                        stride, u, gn):
        # the tightest cases read 0.91-0.93 of the estimate: a snapshot at
        # every event at M=N=3 and 4 while every event scatters from the
        # U/J = -5 ground state, each scatter holding its own
        # DetectionEvent and angle beside the shared non-scatter ones
        cfg = RunConfig(M=m, N=m, U=u, J=1.0, gN=gn, k0_a=math.pi)
        system = prepare_system(cfg)
        tracemalloc.start()
        try:
            run_trajectory(system.initial_state, system.table, n_events,
                           seed=1, snapshot_stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analysis._trajectory_memory(
            n_events, stride, system.basis.dimension, len(system.classes),
            m) >= peak

    @pytest.mark.parametrize("m,n_traj,n_events,n_bins,stride,u,gn", [
        (3, 200, 1000, 600, 1000, 0.3, 0.5), (4, 2000, 100, 24, 100, 0.3, 0.5),
        (4, 16, 50, 100000, 50, 0.3, 0.5), (6, 1000, 100, 600, 100, 0.3, 0.5),
        (5, 300, 400, 600, 1, 0.3, 0.5), (7, 2000, 5, 600, 5, -5.0, 1.0),
        (8, 600, 5, 600, 5, -5.0, 1.0), (8, 1300, 3, 600, 3, -5.0, 1.0)],
        ids=["3-200-1000-600-1000", "4-2000-100-24-100", "4-16-50-100000-50",
             "6-1000-100-600-100", "5-300-400-600-1", "7-2000-5-all-scatter",
             "8-600-5-all-scatter", "8-1300-3-all-scatter-three-blocks"])
    def test_ensemble_estimate_bounds_the_traced_peak(
            self, monkeypatch, m, n_traj, n_events, n_bins, stride, u, gn):
        # the estimate run_ensemble checks before its engine runs,
        # recorded by a guard that never refuses.  From the U/J = -5
        # ground state nearly every event scatters; at M=N=8 a block
        # holds 608 trajectories, so 1300 make three blocks
        cfg = RunConfig(M=m, N=m, U=u, J=1.0, gN=gn, k0_a=math.pi)
        system = prepare_system(cfg)
        needs = []
        monkeypatch.setattr(analysis, "_check_memory",
                            lambda setup, engine=0: needs.append(engine))
        tracemalloc.start()
        try:
            run_ensemble(system.initial_state, n_traj, n_events,
                         system.table, system.classes, master_seed=0,
                         n_bins=n_bins, snapshot_stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert needs == [analysis._ensemble_memory(
            n_traj, n_bins, n_events // stride + 1 + (n_events % stride > 0),
            len(system.classes), m)]
        assert needs[0] >= peak

    def test_huge_angular_grid_is_refused_before_allocation(
            self, monkeypatch):
        # 10^9 grid angles pass validation without a grid; the guard then
        # refuses the pattern table's 192 GB on an 8 GiB host
        cfg = RunConfig(M=3, N=3, n_theta=10**9)
        built = []
        monkeypatch.setattr(analysis, "enumerate_basis",
                            lambda spec: built.append(spec))
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 8 * 2**30)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="n_theta=1000000000"):
                prepare_system(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 2**20

    def test_memory_estimate_counts_bonds_without_listing_them(self):
        # a million sites: the estimate is arithmetic, and a ring's one
        # more bond adds two directed entries of 36 bytes per state
        open_, ring = (ScatteringSetup(lattice=LatticeSpec(
            M=10**6, N=1, boundary=b)) for b in ("open", "periodic"))
        tracemalloc.start()
        try:
            need = analysis._memory_need(open_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert analysis._memory_need(ring) - need == 72 * 10**6

    def test_memory_guard_fires_before_allocation(self, monkeypatch):
        # M=N=3 at n_theta=2048: the basis, the 10-state sparse H and the
        # rank-M table
        need = analysis._memory_need(
            RunConfig(M=3, N=3, gN=0.5, k0_a=math.pi).scattering_setup())
        built = []
        monkeypatch.setattr(analysis, "enumerate_basis",
                            lambda spec: built.append(spec))
        monkeypatch.setattr(analysis, "_physical_memory", lambda: need - 1)
        cfg = RunConfig(M=3, N=3, U=0.0, J=1.0, gN=0.5, k0_a=math.pi)
        with pytest.raises(CapacityError):
            prepare_system(cfg)
        with pytest.raises(CapacityError):
            sweep_uj([1.0], LAT33, cfg.scattering_setup(), n_traj=2,
                     n_events=5, master_seed=0)
        assert built == []
        monkeypatch.undo()
        monkeypatch.setattr(analysis, "_physical_memory", lambda: need)
        assert prepare_system(cfg).basis.dimension == 10


class TestMemoryLimit:
    """The guard's limit is the least of what this process may use."""

    @pytest.mark.parametrize("files,want", [
        ({"proc/self/cgroup": "0::/job\n",
          "sys/fs/cgroup/job/memory.max": "1048576\n"},
         (1 << 20, "the cgroup's memory.max")),
        ({"proc/self/cgroup": "5:cpu,cpuacct:/job\n4:memory:/job\n0::/\n",
          "sys/fs/cgroup/memory/job/memory.limit_in_bytes": "2097152\n"},
         (2 << 20, "the cgroup's memory.limit_in_bytes")),
        ({"proc/self/cgroup": "4:memory:/job\n0::/job\n",
          "sys/fs/cgroup/memory/job/memory.limit_in_bytes": "2097152\n",
          "sys/fs/cgroup/job/memory.max": "3145728\n"},
         (2 << 20, "the cgroup's memory.limit_in_bytes")),
        ({"proc/self/cgroup": "0::/job\n",
          "sys/fs/cgroup/job/memory.max": "max\n"},
         (8 << 30, "physical memory")),
        ({"proc/self/cgroup": "0::/job\n",
          "sys/fs/cgroup/job/memory.max/": None},
         (8 << 30, "physical memory")),
        ({"proc/self/cgroup": "0::/job\n"}, (8 << 30, "physical memory")),
        ({}, (8 << 30, "physical memory")),
    ], ids=["v2", "v1", "v1-and-v2", "v2-max", "v2-unreadable",
            "v2-absent", "no-cgroup-file"])
    def test_reads_the_cgroup_of_this_process(self, tmp_path, monkeypatch,
                                              files, want):
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 8 << 30)
        monkeypatch.setattr(analysis.resource, "getrlimit", lambda which: (
            analysis.resource.RLIM_INFINITY,) * 2)
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        assert analysis._memory_limit(str(tmp_path)) == want

    def test_rlimit_data_limits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 8 << 30)
        monkeypatch.setattr(analysis.resource, "getrlimit",
                            lambda which: (300 << 20, 1 << 40))
        assert analysis._memory_limit(str(tmp_path)) == \
            (300 << 20, "RLIMIT_DATA")

    def test_small_rlimit_data_exits_from_the_guard(self, tmp_path):
        # M = N = 11: the guard's estimate is 723 MB.  Under a 300 MB
        # RLIMIT_DATA the command once built the basis for 2.2 s and
        # then failed in numpy; now the guard refuses it first
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_DATA, (300 << 20, "
                "resource.getrlimit(resource.RLIMIT_DATA)[1]))\n"
                "from scatterloc.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        run = subprocess.run(
            [sys.executable, "-c", code, "predict", "--out",
             str(tmp_path / "x"), "--set", "M=11", "--set", "N=11"],
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 4, run.stderr
        assert run.stderr.startswith("error: Fock dimension 352716 "), \
            run.stderr
        assert "0.3 GiB of RLIMIT_DATA" in run.stderr
        assert not (tmp_path / "x").exists()
