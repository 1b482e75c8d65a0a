"""Tests for single-trajectory detection dynamics."""

import math

import numpy as np
import pytest

from scatterloc.kernel import (
    ScatteringSetup,
    build_pattern_table,
    density_cdf,
    density_quantile,
    grid_quadrature,
    scatter_density,
    nonscatter_prob,
)
from scatterloc.lattice import (
    LatticeSpec,
    ManyBodyState,
    enumerate_basis,
    fock_state,
)
from scatterloc.trajectory import (
    DetectionEvent,
    EventKind,
    RngStream,
    ZeroNormProjectionError,
    apply_nonscatter,
    apply_scatter,
    run_trajectory,
    sample_event,
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


class TestScatterBackaction:
    def test_pure_fock_state_is_fixed_point(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        out = apply_scatter(state, math.pi / 2, table33)
        # F(pi/2) = 1 for unit filling at k0_a = pi, so nothing changes
        np.testing.assert_allclose(out.coeffs, state.coeffs, atol=1e-14)

    def test_relative_phases_from_structure_amplitudes(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        for occ in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]:
            c[basis.index_of(occ)] = 1.0 / math.sqrt(3.0)
        state = ManyBodyState.from_coefficients(basis, c)
        out = apply_scatter(state, math.pi / 2, table33)
        # at theta = pi/2 the three one-site amplitudes are 3, -3, 3:
        # magnitudes stay equal, the middle coefficient flips sign
        expected = c.copy()
        expected[basis.index_of((0, 3, 0))] *= -1.0
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-12)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_suppresses_states_with_weak_pattern(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0
        c[basis.index_of((1, 1, 1))] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        # |F| = 3 for the one-site state vs 1 for unit filling at pi/2
        out = apply_scatter(state, math.pi / 2, table33)
        p = out.probabilities
        assert p[basis.index_of((3, 0, 0))] == pytest.approx(0.9, abs=1e-12)
        assert p[basis.index_of((1, 1, 1))] == pytest.approx(0.1, abs=1e-12)


class TestNonScatterBackaction:
    def test_reweights_towards_weak_scatterers(self, table33):
        basis = table33.basis
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1.0 / math.sqrt(2.0)
        c[basis.index_of((1, 1, 1))] = 1.0j / math.sqrt(2.0)
        state = ManyBodyState.from_coefficients(basis, c)
        out = apply_nonscatter(state, table33)
        i3 = basis.index_of((3, 0, 0))
        i1 = basis.index_of((1, 1, 1))
        assert out.probabilities[i1] > out.probabilities[i3]
        # exact reweighting by the tabulated survival probabilities
        expected = 0.5 * table33.ns_prob[i3] / (
            0.5 * table33.ns_prob[i3] + 0.5 * table33.ns_prob[i1])
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

    def test_zero_norm_projection_raises(self, table33):
        import dataclasses
        zeroed = np.zeros_like(table33.ns_amp)
        broken = dataclasses.replace(table33, ns_amp=zeroed)
        state = fock_state(table33.basis, (1, 1, 1))
        with pytest.raises(ZeroNormProjectionError):
            apply_nonscatter(state, broken)


class TestStep:
    def test_single_draw_branches(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        p_ns = nonscatter_prob(state, table33)

        event = sample_event(state, table33, ScriptedRng([p_ns - 1e-6]), 1)
        assert event.kind is EventKind.NONSCATTER
        assert event.theta is None

        event = sample_event(state, table33, ScriptedRng([p_ns + 1e-6]), 1)
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
        assert event.theta == density_quantile(table33.theta_grid, dens, v)

    def test_step_applies_matching_projection(self, table33):
        state = fock_state(table33.basis, (1, 1, 1))
        new_state, event = step(state, table33, RngStream(0), 1)
        # unit filling is an eigenstate of both projections
        np.testing.assert_allclose(np.abs(new_state.coeffs),
                                   np.abs(state.coeffs), atol=1e-12)
        assert event.index == 1

    def test_scatter_fraction_and_angles(self, table33):
        # repeated draws from a frozen state: scatter fraction and the
        # angle histogram must match the state's own density tables
        state = fock_state(table33.basis, (1, 1, 1))
        p_scatter = 1.0 - nonscatter_prob(state, table33)
        dens = scatter_density(state, table33)
        total = grid_quadrature(dens)

        rng = RngStream(2024)
        n = 60_000
        thetas = []
        for _ in range(n):
            event = sample_event(state, table33, rng, 1)
            if event.kind is EventKind.SCATTER:
                thetas.append(event.theta)

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
        assert rec.final_state.norm_sq() == pytest.approx(1.0, abs=1e-12)
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
        basis = table33.basis
        groups = [
            np.array([basis.index_of(o) for o in ((3, 0, 0), (0, 3, 0),
                                                  (0, 0, 3))]),
            np.array([basis.index_of((1, 1, 1))]),
        ]
        c = np.zeros(10, dtype=complex)
        c[groups[0][0]] = 1.0
        c[groups[1][0]] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table33, 40, seed=9,
                             class_indices=groups)
        assert rec.class_weights.shape == (41, 2)
        np.testing.assert_allclose(rec.class_weights[0], [0.5, 0.5],
                                   atol=1e-14)
        np.testing.assert_allclose(rec.class_weights.sum(axis=1), 1.0,
                                   atol=1e-10)

    def test_support_inside_one_pattern_group_is_absorbing(self, table33):
        # all one-site states share |F|, so a superposition of them is
        # never reweighted between its members: the group keeps weight 1
        basis = table33.basis
        group = np.array([basis.index_of(o) for o in ((3, 0, 0), (0, 3, 0),
                                                      (0, 0, 3))])
        c = np.zeros(10, dtype=complex)
        c[group[0]] = 1.0
        c[group[1]] = 1.0
        state = ManyBodyState.from_coefficients(basis, c)
        rec = run_trajectory(state, table33, 200, seed=5,
                             class_indices=[group])
        np.testing.assert_allclose(rec.class_weights[:, 0], 1.0, atol=1e-10)
