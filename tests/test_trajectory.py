"""Tests for single-trajectory detection dynamics.

The event step that both engines share is driven here with chosen
uniforms, one row at a time through step and many rows at once through
_event_step.  Whole records are checked against the per-basis,
coefficient-evolving loop in oracles.py: along its recorded events
without any sampling, and over full runs at the criterion-8 working
point.
"""

import functools
import math

import numpy as np
import pytest
import scipy.stats

from oracles import (
    bisection_angles,
    class_columns,
    density_cdf,
    density_quantile,
    fidelity_multipliers,
    grid_quadrature,
    lockstep_events,
    mean_fidelity,
    mixture_trajectories,
    per_basis_trajectory,
)
from scatterloc import trajectory
from scatterloc.analysis import bin_angles, prepare_system, run_ensemble
from scatterloc.config import RunConfig
from scatterloc.kernel import (
    ScatteringSetup,
    build_pattern_table,
    nonscatter_prob,
    scatter_density,
)
from scatterloc.lattice import (
    HubbardParams,
    LatticeSpec,
    ManyBodyState,
    build_hamiltonian,
    enumerate_basis,
    fock_state,
    ground_state,
)
from scatterloc.trajectory import (
    EventKind,
    RngStream,
    ZeroNormProjectionError,
    _amplitude_ratios,
    _event_step,
    _phase_kicks,
    _scatter_multipliers,
    run_trajectories,
    run_trajectory,
    step,
    trajectory_seed,
)

LAT33 = LatticeSpec(M=3, N=3)


@pytest.fixture(scope="module")
def table33():
    basis = enumerate_basis(LAT33)
    setup = ScatteringSetup(lattice=LAT33, gN=0.5, k0_a=math.pi)
    return build_pattern_table(basis, setup)


class ScriptedRng:
    """Stands in for RngStream with a fixed list of uniforms."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self):
        return next(self._values)


class TestSeeding:
    def test_trajectory_seed_deterministic(self):
        assert trajectory_seed(0, 5) == trajectory_seed(0, 5)
        assert 0 <= trajectory_seed(123, 42) < 2 ** 64

    def test_trajectory_seed_distinct(self):
        seeds = {trajectory_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert trajectory_seed(7, 0) != trajectory_seed(8, 0)

    def test_rng_stream(self):
        a = RngStream(99)
        b = RngStream(99)
        xs = [a.uniform() for _ in range(100)]
        ys = [b.uniform() for _ in range(100)]
        assert xs == ys
        assert all(0.0 <= x < 1.0 for x in xs)
        assert len(set(xs)) == 100

    def test_fill_matches_single_draws(self):
        # 1000 draws in blocks of 32: 31 full blocks and a partial one
        a = RngStream(trajectory_seed(5, 3))
        b = RngStream(trajectory_seed(5, 3))
        single = np.array([a.uniform() for _ in range(1000)])
        blocks = np.empty(1000)
        for start in range(0, 1000, 32):
            b.fill(blocks[start:start + 32])
        np.testing.assert_array_equal(blocks, single)
        # both streams are now at the same position
        assert a.uniform() == b.uniform()


def zero_multipliers(theta, table):
    return np.zeros((len(theta), table.ns_prob.shape[0]))


def uniform_for_angle(state, table, theta):
    """The uniform draw whose excess lands on a scatter at theta."""
    dens = scatter_density(state, table)
    cdf = density_cdf(table.theta_grid, dens, np.array([theta, math.pi]))
    p_ns = nonscatter_prob(state, table)
    return p_ns + cdf[0] / cdf[1] * (1.0 - p_ns)


def scatter_near(state, table, theta):
    """step with the draw that scatters at theta, up to rounding."""
    r = uniform_for_angle(state, table, theta)
    out, event = step(state, table, ScriptedRng([r]), 1)
    assert event.kind is EventKind.SCATTER
    assert event.theta == pytest.approx(theta, abs=1e-9)
    return out


class TestScatterBackaction:
    def test_pure_fock_state_is_fixed_point(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        out = scatter_near(state, table33, math.pi / 2)
        # F(pi/2) = 1 for unit filling at k0_a = pi, so nothing changes
        np.testing.assert_allclose(out.coeffs, state.coeffs, atol=1e-14)

    def test_relative_phases_from_structure_amplitudes(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        for occ in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]:
            c[basis.index_of(occ)] = 1.0 / math.sqrt(3.0)
        state = ManyBodyState.from_coefficients(basis, c)
        out = scatter_near(state, table33, math.pi / 2)
        # at theta = pi/2 the three one-site amplitudes are 3, -3, 3:
        # magnitudes stay equal, the middle coefficient flips sign
        expected = c.copy()
        expected[basis.index_of((0, 3, 0))] *= -1.0
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-12)
        assert float(np.sum(out.probabilities)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_suppresses_states_with_weak_pattern(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0
        c[basis.index_of((1, 1, 1))] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        # |F| = 3 for the one-site state vs 1 for unit filling at pi/2
        out = scatter_near(state, table33, math.pi / 2)
        p = out.probabilities
        assert p[basis.index_of((3, 0, 0))] == pytest.approx(0.9, abs=1e-12)
        assert p[basis.index_of((1, 1, 1))] == pytest.approx(0.1, abs=1e-12)

    def test_vanishing_amplitude_keeps_phase_and_empties_its_class(self):
        # M=N=2 at k0_a = pi: F of (1,1) is 1 + exp(-i pi sin(theta)),
        # zero at pi/2 up to rounding, where the one-site class of (2,0)
        # and (0,2) has |F| = 2
        lat = LatticeSpec(M=2, N=2)
        table = build_pattern_table(enumerate_basis(lat), ScatteringSetup(
            lattice=lat, gN=0.5, k0_a=math.pi))
        basis = table.basis
        i20, i11 = basis.index_of((2, 0)), basis.index_of((1, 1))
        c = np.zeros(3, dtype=complex)
        c[i20], c[i11] = 1.0, 1.0j
        state = ManyBodyState.from_coefficients(basis, c)
        r = uniform_for_angle(state, table, math.pi / 2)
        out, event = step(state, table, ScriptedRng([r]), 1)
        assert event.theta == pytest.approx(math.pi / 2, abs=1e-9)
        assert _phase_kicks(np.array([event.theta]), table)[0, i11] == 1.0
        assert out.probabilities[i11] < 1e-30
        assert out.probabilities[i20] == pytest.approx(1.0, abs=1e-15)
        if out.coeffs[i11] != 0.0:
            assert np.angle(out.coeffs[i11]) == np.angle(c[i11])

    def test_empty_class_stays_exactly_empty(self):
        # a class without weight at the start keeps none, and its
        # members keep zero amplitude, through every event
        lat = LatticeSpec(M=2, N=2)
        table = build_pattern_table(enumerate_basis(lat), ScatteringSetup(
            lattice=lat, gN=0.5, k0_a=math.pi))
        basis = table.basis
        i11 = basis.index_of((1, 1))
        c = np.zeros(3, dtype=complex)
        c[basis.index_of((2, 0))], c[basis.index_of((0, 2))] = 1.0, 1.0j
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table, 300, seed=2, snapshot_stride=10)
        assert rec.n_scatter > 0
        assert np.all(rec.class_weights[:, table.class_of[i11]] == 0.0)
        assert all(snap[i11] == 0.0 for _, snap in rec.snapshots)
        assert rec.final_state.coeffs[i11] == 0.0


class TestNonNegativeMultipliers:
    """The signed basis functions can cancel to a rounding error below
    zero; multipliers and densities are clamped at 0, so no weight turns
    negative and an empty class stays +0.0."""

    def test_clamped_at_m8(self):
        lat = LatticeSpec(M=8, N=8)
        table = build_pattern_table(enumerate_basis(lat), ScatteringSetup(
            lattice=lat, gN=0.5, k0_a=math.pi))
        cols = class_columns(table)[:-1]
        # the unclamped class densities do dip below zero here
        assert cols.min() < 0.0
        grid = table.theta_grid
        for i in range(0, len(grid), 256):
            mult = _scatter_multipliers(grid[i:i + 256], table)
            assert np.all(mult >= 0.0)
        basis = table.basis
        for k in np.flatnonzero((cols < 0.0).any(axis=0)):
            rep = basis.states[basis.signature_groups[k][1][0]]
            dens = scatter_density(fock_state(basis, rep), table)
            assert np.all(dens >= 0.0)
            assert np.all(dens[cols[:, k] < 0.0] == 0.0)

        # three occupied classes: the other 1747 stay +0.0 through a record
        reps = [basis.states[idx[0]] for _, idx in basis.signature_groups[:3]]
        c = np.zeros(basis.dimension, dtype=complex)
        for occ in reps:
            c[basis.index_of(occ)] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table, 300, seed=5)
        assert rec.n_scatter > 0
        empty = np.setdiff1d(np.arange(len(table.ns_prob)),
                             table.class_of[[basis.index_of(o) for o in reps]])
        assert np.all(rec.class_weights[:, empty] == 0.0)
        assert not np.signbit(rec.class_weights[:, empty]).any()
        assert np.all(rec.class_weights >= 0.0)

    @pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
    def test_vanishing_class_at_m2(self, theta, monkeypatch):
        # |F|^2 of (1,1) is 2 + 2 cos(pi sin(theta)), zero at +-pi/2
        lat = LatticeSpec(M=2, N=2)
        table = build_pattern_table(enumerate_basis(lat), ScatteringSetup(
            lattice=lat, gN=0.5, k0_a=math.pi))
        basis = table.basis
        k11 = table.class_of[basis.index_of((1, 1))]
        k20 = table.class_of[basis.index_of((2, 0))]
        mult = _scatter_multipliers(np.array([theta]), table)[0]
        assert mult[k11] == 0.0 and not np.signbit(mult[k11])
        assert mult[k20] == pytest.approx(4.0, abs=1e-15)
        i = int(np.argmin(np.abs(table.theta_grid - theta)))
        dens = scatter_density(fock_state(basis, (1, 1)), table)
        assert np.all(dens >= 0.0)
        assert dens[i] < 1e-30

        # a scatter at theta empties (1,1), and a (1,1) that held no
        # weight keeps exactly +0.0
        monkeypatch.setattr(trajectory, "sample_angles",
                            lambda w, v, table: np.full(len(w), theta))
        w = np.zeros((2, 2))
        w[0, [k11, k20]] = 0.5
        w[1, k20] = 1.0
        new, rows, _, dying = _event_step(w, np.full(2, 1.0 - 1e-12),
                                          np.ones(2, dtype=bool), table)
        assert rows.tolist() == [0, 1] and not dying.any()
        assert np.all(new[:, k11] == 0.0)
        assert not np.signbit(new[:, k11]).any()
        np.testing.assert_array_equal(new[:, k20], 1.0)


class TestNonScatterBackaction:
    def test_reweights_towards_weak_scatterers(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0 / math.sqrt(2.0)
        c[basis.index_of((1, 1, 1))] = 1.0j / math.sqrt(2.0)
        state = ManyBodyState.from_coefficients(basis, c)
        # a draw of 0 is below every non-scatter probability
        out, event = step(state, table33, ScriptedRng([0.0]), 1)
        assert event.kind is EventKind.NONSCATTER
        i3 = basis.index_of((3, 0, 0))
        i1 = basis.index_of((1, 1, 1))
        assert out.probabilities[i1] > out.probabilities[i3]
        # exact reweighting by the tabulated survival probabilities
        ns_prob = table33.ns_prob[table33.class_of]
        expected = 0.5 * ns_prob[i3] / (0.5 * ns_prob[i3] + 0.5 * ns_prob[i1])
        assert out.probabilities[i3] == pytest.approx(expected, abs=1e-12)
        # the imaginary phase on the second branch survives
        assert out.coeffs[i1].real == pytest.approx(0.0, abs=1e-15)
        assert out.coeffs[i1].imag > 0

    def test_critical_coupling_survival_vanishes(self):
        # at gN = 1 a single atom scatters every probe
        lat = LatticeSpec(M=2, N=1)
        setup = ScatteringSetup(lattice=lat, gN=1.0)
        table = build_pattern_table(enumerate_basis(lat), setup)
        np.testing.assert_allclose(table.ns_prob, 0.0, atol=1e-12)

    def test_zero_norm_projection_raises(self, table33, monkeypatch):
        # a non-scatter event renormalizes by p_ns > r >= 0, so only a
        # scatter can annihilate: multipliers forced to zero do
        monkeypatch.setattr(trajectory, "_scatter_multipliers",
                            zero_multipliers)
        state = fock_state(table33.basis, (1, 1, 1))
        with pytest.raises(ZeroNormProjectionError):
            step(state, table33, ScriptedRng([1.0 - 1e-12]), 1)

        # in the batched step the annihilated row dies with its last
        # weights and stays frozen, while the other row goes on; its
        # fatal scatter is dropped from the scatter rows
        w = np.tile(table33.class_weights(
            fock_state(table33.basis, (2, 1, 0)).probabilities), (2, 1))
        r = np.array([0.0, 1.0 - 1e-12])
        alive = np.ones(2, dtype=bool)
        new, rows, theta, dying = _event_step(w, r, alive, table33)
        assert rows.size == 0 and theta.size == 0
        assert dying.tolist() == [False, True]
        assert alive.tolist() == [True, False]
        np.testing.assert_array_equal(new[1], w[1])
        again, rows, _, dying = _event_step(new, r, alive, table33)
        assert rows.size == 0 and not dying.any()
        np.testing.assert_array_equal(again[1], w[1])


class TestStep:
    def test_single_draw_branches(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        p_ns = nonscatter_prob(state, table33)

        _, event = step(state, table33, ScriptedRng([p_ns - 1e-6]), 1)
        assert event.kind is EventKind.NONSCATTER
        assert event.theta is None

        _, event = step(state, table33, ScriptedRng([p_ns + 1e-6]), 1)
        assert event.kind is EventKind.SCATTER
        assert -math.pi <= event.theta < math.pi

    def test_excess_maps_through_inverse_cdf(self, table33):
        state = fock_state(table33.basis, (2, 1, 0))
        p_ns = nonscatter_prob(state, table33)
        r = 0.97
        _, event = step(state, table33, ScriptedRng([r]), 3)
        v = (r - p_ns) / (1.0 - p_ns)
        dens = scatter_density(state, table33)
        assert event.kind is EventKind.SCATTER
        assert event.index == 3
        # the excess reaches the sampler as v, bit for bit: the angle is
        # the oracle bisection of the same rank-M CDF at v.  The oracle's
        # inverse of the density's own running sum differs from that CDF
        # by rounding, so it agrees to the shared sampler's tolerance
        w = np.zeros((1, len(table33.ns_prob)))
        w[0, table33.class_of[table33.basis.index_of((2, 1, 0))]] = 1.0
        assert event.theta == bisection_angles(w, np.array([v]), table33)[0]
        ref = density_quantile(table33.theta_grid, dens, v)
        assert abs(math.remainder(event.theta - ref, 2 * math.pi)) < 1e-12

    def test_step_applies_matching_projection(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        new_state, event = step(state, table33, RngStream(0), 1)
        # unit filling is an eigenstate of both projections
        np.testing.assert_allclose(np.abs(new_state.coeffs),
                                   np.abs(state.coeffs), atol=1e-12)
        assert event.index == 1

    def test_scatter_fraction_and_angles(self, table33):
        # one draw each for many rows of a frozen state through the
        # shared event step: the scatter fraction and the angle
        # histogram must match the state's own density tables
        state = fock_state(table33.basis, (1, 1, 1))
        p_scatter = 1.0 - nonscatter_prob(state, table33)
        dens = scatter_density(state, table33)
        total = grid_quadrature(dens)

        n = 60_000
        r = RngStream(2024).fill(np.empty(n))
        w = np.tile(table33.class_weights(state.probabilities), (n, 1))
        _, _, thetas, _ = _event_step(w, r, np.ones(n, dtype=bool), table33)

        frac = len(thetas) / n
        sigma = math.sqrt(p_scatter * (1 - p_scatter) / n)
        assert abs(frac - p_scatter) < 4 * sigma

        edges = np.linspace(-math.pi, math.pi, 13)
        counts, _ = np.histogram(thetas, bins=edges)
        masses = np.diff(density_cdf(table33.theta_grid, dens, edges)) / total
        m = len(thetas)
        for k in range(12):
            band = 4.5 * math.sqrt(masses[k] * (1 - masses[k]) / m)
            assert abs(counts[k] / m - masses[k]) < band + 1e-9


class TestRunTrajectory:
    def test_deterministic_replay(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        rec1 = run_trajectory(state, table33, 300, seed=17)
        rec2 = run_trajectory(state, table33, 300, seed=17)
        assert rec1.events == rec2.events
        np.testing.assert_array_equal(rec1.final_state.coeffs,
                                      rec2.final_state.coeffs)
        rec3 = run_trajectory(state, table33, 300, seed=18)
        assert rec3.events != rec1.events

    def test_event_bookkeeping(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        rec = run_trajectory(state, table33, 50, seed=3)
        assert len(rec.events) == 50
        assert [e.index for e in rec.events] == list(range(1, 51))
        assert not rec.aborted
        assert rec.n_scatter == len(rec.scatter_angles())
        assert float(np.sum(rec.final_state.probabilities)) == \
            pytest.approx(1.0, abs=1e-12)
        # series carry the starting point in row 0
        assert rec.overlap_sq_series.shape == (51,)
        assert rec.overlap_sq_series[0] == 1.0
        assert np.all(rec.overlap_sq_series >= 0.0)
        assert np.all(rec.overlap_sq_series <= 1.0 + 1e-12)
        assert rec.class_weights.shape[0] == 51
        assert np.sum(rec.class_weights_final) == pytest.approx(1.0,
                                                                abs=1e-10)

    def test_basis_state_record_is_trivially_converged(self, table33):
        rec = run_trajectory(fock_state(table33.basis, (1, 1, 1)), table33,
                             200, seed=3)
        assert rec.converged
        np.testing.assert_allclose(rec.overlap_sq_series, 1.0, atol=1e-10)
        assert rec.n_scatter > 0

    def test_rejects_nonpositive_event_count(self, table33):
        state = fock_state(table33.basis, (2, 1, 0))
        with pytest.raises(ValueError):
            run_trajectory(state, table33, 0, seed=1)
        with pytest.raises(ValueError):
            run_trajectory(state, table33, -1, seed=1)

    def test_snapshot_stride(self, table33):
        state = fock_state(table33.basis, (2, 1, 0))
        rec = run_trajectory(state, table33, 75, seed=4, snapshot_stride=30)
        assert [m for m, _ in rec.snapshots] == [0, 30, 60, 75]
        for m, coeffs in rec.snapshots:
            assert coeffs.shape == (10,)
            assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0,
                                                                abs=1e-12)
        assert run_trajectory(state, table33, 10, seed=4).snapshots is None

    def test_class_weight_recording(self, table33):
        # a one-site state (signature class 1) and unit filling (class 4)
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0
        c[basis.index_of((1, 1, 1))] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table33, 40, seed=9)
        assert rec.class_weights.shape == (41, 4)
        np.testing.assert_allclose(rec.class_weights[0], [0.5, 0, 0, 0.5],
                                   atol=1e-14)
        np.testing.assert_allclose(rec.class_weights.sum(axis=1), 1.0,
                                   atol=1e-10)

    def test_support_inside_one_pattern_group_is_absorbing(self, table33):
        # all one-site states share |F|, so a superposition of them is
        # never reweighted between its members: their signature class 1
        # keeps weight 1
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0
        c[basis.index_of((0, 3, 0))] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table33, 200, seed=5)
        np.testing.assert_allclose(rec.class_weights[:, 0], 1.0, atol=1e-10)


def ground_state_system(M, N, U, gN):
    lattice = LatticeSpec(M=M, N=N)
    basis = enumerate_basis(lattice)
    table = build_pattern_table(
        basis, ScatteringSetup(lattice=lattice, gN=gN, k0_a=math.pi))
    _, psi = ground_state(
        build_hamiltonian(basis, HubbardParams(J=1.0, U=U)), basis)
    return table, psi


class TestRunTrajectories:
    def test_record_is_batch_independent(self, table33):
        # every reduction runs along one trajectory's row, so a record
        # is bit for bit the same alone and inside a batch of 200
        _, psi = ground_state(build_hamiltonian(
            table33.basis, HubbardParams(J=1.0, U=0.0)), table33.basis)
        seeds = [trajectory_seed(12, i) for i in range(200)]
        batch = run_trajectories(psi, table33, 300, seeds,
                                 snapshot_stride=100)
        assert [rec.seed for rec in batch] == seeds
        for i in (0, 117, 199):
            alone = run_trajectory(psi, table33, 300, seeds[i],
                                   snapshot_stride=100)
            rec = batch[i]
            assert rec.n_scatter > 0
            assert rec.events == alone.events
            np.testing.assert_array_equal(rec.class_weights,
                                          alone.class_weights)
            np.testing.assert_array_equal(rec.overlap_sq_series,
                                          alone.overlap_sq_series)
            np.testing.assert_array_equal(rec.final_state.coeffs,
                                          alone.final_state.coeffs)
            assert [m for m, _ in rec.snapshots] == [0, 100, 200, 300]
            for (_, a), (_, b) in zip(rec.snapshots, alone.snapshots):
                np.testing.assert_array_equal(a, b)

    def test_annihilating_scatter_ends_the_record(self, table33,
                                                  monkeypatch):
        # multipliers forced to zero: each record stops before its first
        # scatter and keeps the state that scatter would have annihilated,
        # whose coefficients keep the real ground state's phases
        monkeypatch.setattr(trajectory, "_scatter_multipliers",
                            zero_multipliers)
        _, psi = ground_state(build_hamiltonian(
            table33.basis, HubbardParams(J=1.0, U=0.0)), table33.basis)
        seeds = [trajectory_seed(4, i) for i in range(5)]
        for rec in run_trajectories(psi, table33, 200, seeds,
                                    snapshot_stride=1):
            n = len(rec.events)
            assert rec.aborted and n < 200
            assert all(e.kind is EventKind.NONSCATTER for e in rec.events)
            assert rec.class_weights.shape == (n + 1, 4)
            assert rec.overlap_sq_series.shape == (n + 1,)
            assert [m for m, _ in rec.snapshots] == list(range(n + 1))
            np.testing.assert_array_equal(rec.final_state.coeffs,
                                          rec.snapshots[-1][1])
            np.testing.assert_array_equal(rec.final_state.coeffs.imag, 0.0)
            np.testing.assert_allclose(
                table33.class_weights(rec.final_state.probabilities),
                rec.class_weights[-1], atol=1e-12)

    def test_input_validation(self, table33):
        state = fock_state(table33.basis, (2, 1, 0))
        with pytest.raises(ValueError):
            run_trajectories(state, table33, 0, [1, 2])
        with pytest.raises(ValueError):
            run_trajectories(state, table33, 10, [1, 2], snapshot_stride=0)
        assert run_trajectories(state, table33, 10, []) == []


def rebuild_event_by_event(rec, table):
    """A record's overlaps, snapshots at every event and final state,
    rebuilt one event at a time from its class weights and angles with
    one (1, D) row of ratios and phases per event.  Event 0 is the
    initial state, with overlap 1."""
    c0 = rec.initial_state.coeffs
    p0 = rec.initial_state.probabilities
    big_p = table.class_weights(p0)
    angles = {e.index: e.theta for e in rec.events
              if e.kind is EventKind.SCATTER}
    z = np.ones((1, len(c0)), dtype=np.complex128)
    overlap_sq, coeffs = [np.ones(1)], [c0[None, :]]
    for m, w in enumerate(rec.class_weights[1:], 1):
        if m in angles:
            z *= _phase_kicks(np.array([angles[m]]), table)
        ratios = _amplitude_ratios(w[None, :], big_p)[:, table.class_of]
        overlap_sq.append(np.abs((p0 * z * ratios).sum(axis=1)) ** 2)
        coeffs.append(c0 * ratios * z)
    return np.concatenate(overlap_sq), [c[0] for c in coeffs]


class TestPasses:
    """Overlaps and snapshots are computed after the event loop, in
    passes over events between scatters; they must be bit for bit what
    one event at a time gives."""

    def assert_rebuilt(self, rec, table):
        overlap_sq, coeffs = rebuild_event_by_event(rec, table)
        np.testing.assert_array_equal(rec.overlap_sq_series, overlap_sq)
        assert [m for m, _ in rec.snapshots] == list(range(len(coeffs)))
        for (_, a), b in zip(rec.snapshots, coeffs):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(rec.final_state.coeffs, coeffs[-1])

    def test_single_record_over_several_passes(self):
        # 32 scatters, one run of 80 events between two of them: more
        # than two passes' worth
        table, psi = ground_state_system(6, 6, U=0.05, gN=0.5)
        rec = run_trajectory(psi, table, 600, trajectory_seed(0, 0),
                             snapshot_stride=1)
        scatters = [0, *(e.index for e in rec.events
                         if e.kind is EventKind.SCATTER), 600]
        assert len(scatters) > 20
        assert max(np.diff(scatters)) > 2 * trajectory._PASS_EVENTS
        self.assert_rebuilt(rec, table)

    def test_batch_wider_than_a_pass(self, table33):
        _, psi = ground_state(build_hamiltonian(
            table33.basis, HubbardParams(J=1.0, U=0.0)), table33.basis)
        n_traj = 3 * trajectory._PASS_EVENTS // 2
        recs = run_trajectories(psi, table33, 200,
                                [trajectory_seed(7, i) for i in range(n_traj)],
                                snapshot_stride=1)
        for rec in recs:
            assert rec.n_scatter > 0
            self.assert_rebuilt(rec, table33)

    def test_abort_inside_a_pass(self, monkeypatch):
        # no scatter before the fatal one, so each batch is one run of
        # passes of span events from event 1, and records end inside them
        monkeypatch.setattr(trajectory, "_scatter_multipliers",
                            zero_multipliers)
        table, psi = ground_state_system(3, 3, U=0.05, gN=0.2)
        for n_traj in (1, 5):
            span = max(1, trajectory._PASS_EVENTS // n_traj)
            recs = run_trajectories(
                psi, table, 300, [trajectory_seed(0, i) for i in range(n_traj)],
                snapshot_stride=1)
            ends = [len(rec.events) for rec in recs]
            assert all(rec.aborted for rec in recs)
            assert any(n > span and n % span for n in ends), ends
            for rec in recs:
                self.assert_rebuilt(rec, table)


ONE_ENGINE_POINTS = {
    "M3": dict(M=3, N=3, U=0.0, gN=0.5),
    "M5-gN1": dict(M=5, N=5, U=0.5, gN=1.0),
    "M6": dict(M=6, N=6, U=0.05, gN=0.5),
    "M4-ring-gaussian": dict(M=4, N=4, U=0.5, gN=0.5, boundary="periodic",
                             envelope="gaussian", sigma_a=0.3),
}


class TestOneEngine:
    @pytest.mark.parametrize("point", ONE_ENGINE_POINTS)
    def test_records_are_the_ensemble_trajectories(self, point):
        # a record on seed trajectory_seed(s, j) is trajectory j of the
        # ensemble at master seed s: the same scatters, the same angles
        # and, bit for bit, the same final class weights
        system = prepare_system(RunConfig(**ONE_ENGINE_POINTS[point]))
        n_traj, n_events, n_bins = 40, 300, 60
        recs = run_trajectories(system.initial_state, system.table,
                                n_events,
                                [trajectory_seed(5, j) for j in range(n_traj)])
        stats = run_ensemble(system.initial_state, n_traj, n_events,
                             system.table, system.classes, master_seed=5,
                             n_bins=n_bins)
        assert stats.n_scatter_total > 0
        np.testing.assert_array_equal([rec.n_scatter for rec in recs],
                                      stats.scatter_counts)
        np.testing.assert_array_equal(
            [rec.class_weights_final for rec in recs],
            stats.final_class_weights)
        np.testing.assert_array_equal(
            bin_angles(np.concatenate([rec.scatter_angles() for rec in recs]),
                       n_bins), stats.histogram)
        assert sum(rec.aborted for rec in recs) == stats.aborted_count


class TestAgainstPerBasisLoop:
    def test_criterion_8_point_matches(self):
        # criterion 8's working point: step's event step, run in lockstep
        # on class weights with per-basis phase kicks, gives the
        # per-basis loop's event kinds, and its angles, class weights and
        # overlaps within 1e-9, over 5000 events on the same seeds.
        # Event kinds are compared only here: elsewhere rounding, which
        # both engines amplify along a trajectory, can move an angle far
        # enough to flip a later event
        table, psi = ground_state_system(3, 3, U=0.05, gN=0.1)
        seeds = [trajectory_seed(0, i) for i in range(3)]
        big_p = table.class_weights(psi.probabilities)
        w = np.tile(big_p, (3, 1))
        z = np.ones((3, len(psi.coeffs)), dtype=complex)
        alive = np.ones(3, dtype=bool)
        weights, overlap_sq = [w], [np.ones(3)]
        scattered, angles = np.zeros((3, 5000), bool), [[], [], []]
        for m, w, rows, theta, _ in lockstep_events(w, seeds, alive, table,
                                                    5000):
            weights.append(w)
            scattered[rows, m - 1] = True
            for b, angle in zip(rows.tolist(), theta.tolist()):
                angles[b].append(angle)
            z[rows] *= _phase_kicks(theta, table)
            ratios = _amplitude_ratios(w, big_p)[:, table.class_of]
            overlap_sq.append(
                np.abs((psi.probabilities * ratios * z).sum(axis=1)) ** 2)
        assert alive.all()
        weights = np.stack(weights, axis=1)
        overlap_sq = np.stack(overlap_sq, axis=1)
        for b, seed in enumerate(seeds):
            ref = per_basis_trajectory(psi, table, 5000, seed)
            assert scattered[b].tolist() == \
                [e.kind is EventKind.SCATTER for e in ref.events]
            np.testing.assert_allclose(angles[b], ref.scatter_angles(),
                                       atol=1e-9)
            np.testing.assert_allclose(weights[b], ref.class_weights,
                                       atol=1e-9)
            np.testing.assert_allclose(overlap_sq[b], ref.overlap_sq_series,
                                       atol=1e-9)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_replay_of_recorded_events(self, index):
        # the reference's own (kind, theta) sequence at M=N=6 fed through
        # the engine's multipliers and phase kicks: no sampling, so no
        # rounding can flip an event, and every event is compared
        table, psi = ground_state_system(6, 6, U=0.05, gN=0.5)
        ref = per_basis_trajectory(psi, table, 2000,
                                   trajectory_seed(0, index),
                                   snapshot_stride=1)
        assert ref.n_scatter > 50
        assert not ref.aborted
        c0 = psi.coeffs
        big_p = table.class_weights(psi.probabilities)
        w = big_p[None, :]
        z = np.ones_like(c0)
        weights, overlap_sq, coeffs = [w[0]], [1.0], [c0]
        for event in ref.events:
            if event.kind is EventKind.SCATTER:
                theta = np.array([event.theta])
                q = w * _scatter_multipliers(theta, table)
                z = z * _phase_kicks(theta, table)[0]
            else:
                q = w * table.ns_prob
            w = q / q.sum(axis=1)[:, None]
            c = c0 * _amplitude_ratios(w, big_p)[0, table.class_of] * z
            weights.append(w[0])
            overlap_sq.append(abs(np.vdot(c0, c)) ** 2)
            coeffs.append(c)
        np.testing.assert_allclose(weights, ref.class_weights, atol=1e-9)
        np.testing.assert_allclose(overlap_sq, ref.overlap_sq_series,
                                   atol=1e-9)
        np.testing.assert_allclose(coeffs, [c for _, c in ref.snapshots],
                                   atol=1e-9)


class TestMeanFidelity:
    def test_records_match_the_closed_form(self):
        # averaged over outcomes, the detection channel scales rho_uv by
        # lambda_uv, so the mean of overlap_sq after m events is
        # sum_uv p_u p_v lambda_uv^m: a check of the phase kicks that
        # the class weights alone cannot give
        system = prepare_system(RunConfig(M=4, N=4, U=0.5, gN=0.5))
        psi, table = system.initial_state, system.table
        lam = fidelity_multipliers(table)
        assert np.max(np.abs(np.diag(lam) - 1.0)) <= 1e-13
        n_traj, n_events = 1000, 300
        recs = run_trajectories(psi, table, n_events,
                                [trajectory_seed(0, i) for i in range(n_traj)])
        assert not any(rec.aborted for rec in recs)
        f = np.array([rec.overlap_sq_series for rec in recs])[:, 1:]
        se = f.std(axis=0, ddof=1) / math.sqrt(n_traj)
        z = (f.mean(axis=0) - mean_fidelity(psi, table, n_events)[1:]) / se
        assert np.max(np.abs(z)) <= 4.0, np.max(np.abs(z))


MIXTURE_POINTS = {
    "M3-U0": (dict(M=3, N=3, U=0.0, gN=0.5), 1000, 1000),
    "M4-U0.5": (dict(M=4, N=4, U=0.5, gN=0.5), 1000, 1000),
    "M4-ring-gaussian": (dict(M=4, N=4, U=0.5, gN=0.5, boundary="periodic",
                              envelope="gaussian", sigma_a=0.3), 1000, 1500),
}


@functools.cache
def engine_run(point):
    """step's event step at a MIXTURE_POINTS point, 1000 trajectories in
    lockstep on master seed 1: the system, and per trajectory its first
    passage past CONVERGENCE_THRESHOLD (n_events + 1 if none), scatter
    count and end class."""
    settings, n_traj, n_events = MIXTURE_POINTS[point]
    system = prepare_system(RunConfig(**settings))
    table = system.table
    p0 = table.class_weights(system.initial_state.probabilities)
    seeds = [trajectory_seed(1, i) for i in range(n_traj)]
    w = np.tile(p0, (n_traj, 1))
    alive = np.ones(n_traj, dtype=bool)
    passage = np.full(n_traj, n_events + 1)
    counts = np.zeros(n_traj, dtype=np.int64)
    for m, w, rows, _, _ in lockstep_events(w, seeds, alive, table,
                                            n_events):
        counts[rows] += 1
        passage[(passage > n_events)
                & (w.max(axis=1) > trajectory.CONVERGENCE_THRESHOLD)] = m
    assert alive.all()
    return system, passage, counts, np.argmax(w, axis=1)


@functools.cache
def mixture_run(point):
    """The mixture sampler at a MIXTURE_POINTS point, 1000 trajectories
    on master seed 2: per trajectory its first passage past
    CONVERGENCE_THRESHOLD (n_events + 1 if none) and scatter count."""
    system = engine_run(point)[0]
    _, n_traj, n_events = MIXTURE_POINTS[point]
    return mixture_trajectories(
        system.table.class_weights(system.initial_state.probabilities),
        system.table, n_events,
        [trajectory_seed(2, i) for i in range(n_traj)],
        trajectory.CONVERGENCE_THRESHOLD)


class TestMixtureLaw:
    # sqrt(n_a n_b / (n_a + n_b)) times the two-sample Kolmogorov-Smirnov
    # distance, fixed before the first run at the 0.1% critical value
    # (1.36 at 5%); the samplers share no stream, so only the laws agree
    KS_LIMIT = 1.95
    # the chi-square homogeneity test of end classes, fixed before the
    # first run at its 0.1% critical value; classes with fewer than 10
    # trajectories in both samples together share one cell
    CHI2_QUANTILE = 0.999

    @pytest.mark.parametrize("point", MIXTURE_POINTS)
    def test_engine_law_matches_the_mixture_sampler(self, point):
        # the class weights are the posterior of a hidden class, so a
        # sampler that draws the class first and then independent
        # outcomes has the engine's law of first passage past
        # CONVERGENCE_THRESHOLD and of scatter counts; the three points
        # take 3-4 s
        _, passage, counts, _ = engine_run(point)
        n_traj = MIXTURE_POINTS[point][1]
        scale = math.sqrt(n_traj / 2)
        ks = [scale * scipy.stats.ks_2samp(a, b).statistic
              for a, b in zip((passage, counts), mixture_run(point))]
        assert max(ks) < self.KS_LIMIT, ks

    @pytest.mark.parametrize("point", MIXTURE_POINTS)
    def test_record_law_matches_the_mixture_sampler(self, point):
        # records draw from the mixture on their own seeds, master seed
        # 3, so their first passage past CONVERGENCE_THRESHOLD and their
        # scatter counts must have the sampler's law; 200 records at a
        # time bound the class weights held
        system = engine_run(point)[0]
        _, n_traj, n_events = MIXTURE_POINTS[point]
        seeds = [trajectory_seed(3, i) for i in range(n_traj)]
        passage, counts = [], []
        for a in range(0, n_traj, 200):
            for rec in run_trajectories(system.initial_state, system.table,
                                        n_events, seeds[a:a + 200]):
                assert not rec.aborted
                past = np.flatnonzero(rec.class_weights[1:].max(axis=1)
                                      > trajectory.CONVERGENCE_THRESHOLD)
                passage.append(past[0] + 1 if past.size else n_events + 1)
                counts.append(rec.n_scatter)
        scale = math.sqrt(n_traj / 2)
        ks = [scale * scipy.stats.ks_2samp(a, b).statistic
              for a, b in zip((passage, counts), mixture_run(point))]
        assert max(ks) < self.KS_LIMIT, ks

    @pytest.mark.parametrize("point", MIXTURE_POINTS)
    def test_ensemble_law_matches_the_engine(self, point):
        # run_ensemble draws each trajectory's class once and its events
        # from that class alone; its scatter counts and end classes must
        # have the event engine's law
        system, _, counts, end_class = engine_run(point)
        _, n_traj, n_events = MIXTURE_POINTS[point]
        stats = run_ensemble(system.initial_state, n_traj, n_events,
                             system.table, system.classes, master_seed=2)
        assert stats.aborted_count == 0
        ks = math.sqrt(n_traj / 2) * scipy.stats.ks_2samp(
            counts, stats.scatter_counts).statistic
        assert ks < self.KS_LIMIT, ks
        k = len(system.classes)
        cells = np.array([np.bincount(end_class, minlength=k),
                          np.bincount(stats.end_class_index, minlength=k)])
        small = cells.sum(axis=0) < 10
        cells = np.column_stack([cells[:, ~small],
                                 cells[:, small].sum(axis=1)])
        cells = cells[:, cells.sum(axis=0) > 0]
        chi2, _, dof, _ = scipy.stats.chi2_contingency(cells,
                                                       correction=False)
        assert chi2 < scipy.stats.chi2.ppf(self.CHI2_QUANTILE, dof), \
            (chi2, cells)
