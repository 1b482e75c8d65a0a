"""Tests for the angular scattering kernel.

Grid quadratures are checked against scipy's adaptive integrator, mean
scattering rates against the Bessel-function closed form, and the
tabulated-density sampler against analytic CDF inversion.
"""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from oracles import (
    bisection_angles,
    class_columns,
    density_cdf,
    density_quantile,
    momentum_transfer,
    structure_amplitude,
)
from scatterloc.analysis import predicted_bin_masses
from scatterloc.kernel import (
    CouplingTooStrong,
    ScatteringSetup,
    _structure_amplitudes,
    angle_cdf,
    build_pattern_table,
    envelope_factor,
    grid_quadrature,
    nonscatter_prob,
    sample_angles,
    scatter_density,
    structure_amplitudes,
    theta_grid,
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

LAT33 = LatticeSpec(M=3, N=3)


def make_setup(**kw):
    kw.setdefault("lattice", LAT33)
    return ScatteringSetup(**kw)


class TestGeometry:
    def test_momentum_transfer_special_angles(self):
        np.testing.assert_allclose(momentum_transfer(0.0), [0.0, 0.0])
        np.testing.assert_allclose(momentum_transfer(math.pi), [2.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(momentum_transfer(math.pi / 2), [1.0, -1.0])

    def test_theta_grid(self):
        g = theta_grid(8)
        assert g[0] == -math.pi
        assert g.shape == (8,)
        np.testing.assert_allclose(np.diff(g), 2 * math.pi / 8)
        assert g[-1] < math.pi

    def test_grid_quadrature_constant(self):
        assert grid_quadrature(np.ones(128)) == pytest.approx(2 * math.pi,
                                                              rel=1e-15)


class TestEnvelope:
    def test_uniform_is_one(self):
        setup = make_setup(envelope="uniform")
        assert envelope_factor(0.3, setup) == 1.0
        np.testing.assert_array_equal(
            envelope_factor(theta_grid(64), setup), np.ones(64))

    def test_gaussian_matches_fourier_transform(self):
        # independent route: exp(-sigma^2 |k(theta)|^2 / 2) with |k| taken
        # from the momentum transfer vector itself
        setup = make_setup(envelope="gaussian", sigma_a=0.2)
        for theta in [-2.5, -1.0, 0.0, 0.7, math.pi]:
            k = momentum_transfer(theta) * setup.k0_a
            expected = math.exp(-0.04 * float(k @ k) / 2.0)
            assert envelope_factor(theta, setup) == pytest.approx(expected,
                                                                  abs=1e-14)

    def test_gaussian_backscatter_value(self):
        setup = make_setup(envelope="gaussian", sigma_a=0.2)
        expected = math.exp(-2.0 * math.pi ** 2 * 0.04)
        assert envelope_factor(math.pi, setup) == pytest.approx(expected,
                                                                rel=1e-12)
        assert envelope_factor(0.0, setup) == 1.0


class TestStructureAmplitude:
    def test_forward_scattering_counts_atoms(self):
        setup = make_setup()
        assert structure_amplitude((1, 1, 1), 0.0, setup) == pytest.approx(3.0)
        assert structure_amplitude((2, 0, 1), 0.0, setup) == pytest.approx(3.0)

    def test_single_site_is_flat(self):
        setup = make_setup()
        for theta in np.linspace(-3, 3, 7):
            assert abs(structure_amplitude((3, 0, 0), theta, setup)) == \
                pytest.approx(3.0)

    def test_unit_filling_sidelobe(self):
        # k0_a = pi, theta = pi/2: site phases are (+1, -1, +1)
        setup = make_setup(k0_a=math.pi)
        f = structure_amplitude((1, 1, 1), math.pi / 2, setup)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_autocorrelation_expansion(self):
        # |F|^2 = C_0 + 2 sum_d C_d cos(d k0_a sin(theta)) with integer
        # pair correlations C_d = sum_j n_j n_{j+d}
        setup = make_setup(k0_a=math.pi)
        occ = (2, 0, 1)
        for theta in [-1.3, 0.4, 2.2]:
            x = setup.k0_a * math.sin(theta)
            expected = 5.0 + 2.0 * (0.0 * math.cos(x) + 2.0 * math.cos(2 * x))
            f = structure_amplitude(occ, theta, setup)
            assert abs(f) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        setup = make_setup(k0_a=2.0)
        basis = enumerate_basis(LAT33)
        thetas = [0.0, 0.9, -2.1]
        batch = _structure_amplitudes(basis.occupations, np.array(thetas),
                                      setup.k0_a)
        for theta, row in zip(thetas, batch):
            vec = structure_amplitudes(basis, theta, setup)
            for i, occ in enumerate(basis.states):
                assert vec[i] == pytest.approx(
                    structure_amplitude(occ, theta, setup), abs=1e-12)
            # one implementation: the one-angle call is the batch's row
            np.testing.assert_array_equal(vec.view(np.int64),
                                          row.view(np.int64))


class TestSetupValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_setup(gN=0.0)
        with pytest.raises(ValueError):
            make_setup(k0_a=-1.0)
        with pytest.raises(ValueError):
            make_setup(envelope="boxcar")
        with pytest.raises(ValueError):
            make_setup(envelope="gaussian")  # sigma_a not set
        with pytest.raises(ValueError):
            make_setup(n_theta=32)  # < 64
        with pytest.raises(ValueError):
            make_setup(n_theta=129)  # odd
        for sigma_a in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma_a"):
                make_setup(sigma_a=sigma_a)

    @pytest.mark.parametrize("gN", [0.5, 2.0])
    def test_rejects_an_envelope_exponent_that_overflows(self, gN):
        # (k0_a sigma_a)^2 past the float range once passed construction
        # and raised OverflowError in build_pattern_table, and 2 (k0_a
        # sigma_a)^2, the exponent at theta = pi, once overflowed there
        for sigma_a in (1e100, 1.3e154 / 1e100):
            with pytest.raises(ValueError, match=r"2 \(k0_a sigma_a\)\^2"):
                make_setup(gN=gN, envelope="gaussian", sigma_a=sigma_a,
                           k0_a=1e100)
        # the largest finite exponent is still a setup
        make_setup(envelope="gaussian", sigma_a=9e153, k0_a=1.0)

    def test_largest_envelope_exponent_builds_its_table(self):
        # 2 (k0_a sigma_a)^2 = 1.6e308 is finite, so the envelope takes no
        # floating-point warning on the grid
        setup = make_setup(envelope="gaussian", sigma_a=9e153, k0_a=1.0,
                           gN=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_pattern_table(enumerate_basis(LAT33), setup)
        assert np.all(np.isfinite(table.weights))

    def test_coupling_bound(self):
        # a one-site condensate scatters with probability gN^2 under a
        # uniform envelope, so gN > 1 is inadmissible
        with pytest.raises(CouplingTooStrong):
            make_setup(gN=1.2)
        make_setup(gN=0.99)

    @pytest.mark.parametrize("n_theta", [64, 256, 2048])
    @pytest.mark.parametrize("k0_a", [0.5, math.pi, 6.0])
    def test_bound_is_the_closed_form(self, k0_a, n_theta):
        # <I^2> = e^{-2s} I_0(2s), s = (k0_a sigma_a)^2, is the grid mean
        # of I^2 less positive aliasing terms: it never exceeds the grid
        # mean beyond rounding, so the probe at the grid's own bound
        # passes, and the bound falls where the closed form puts it
        for sigma_a in (0.0, 1e-3, 0.05, 0.3, 1.0, 3.0):
            envelope = "gaussian" if sigma_a else "uniform"
            probe = dict(k0_a=k0_a, envelope=envelope, sigma_a=sigma_a,
                         n_theta=n_theta)
            grid_mean = grid_quadrature(envelope_factor(
                theta_grid(n_theta), make_setup(**probe)) ** 2) / (2 * math.pi)
            closed = scipy.special.i0e(2 * (k0_a * sigma_a) ** 2)
            assert closed <= grid_mean * (1 + 2e-15)
            make_setup(gN=1 / math.sqrt(grid_mean), **probe)
            make_setup(gN=(1 - 1e-9) / math.sqrt(closed), **probe)
            with pytest.raises(CouplingTooStrong):
                make_setup(gN=(1 + 1e-9) / math.sqrt(closed), **probe)

    @pytest.mark.parametrize("sigma_a,gN,n_theta", [(5.0, 7.4, 64),
                                                    (7.0, 9.0, 2048)])
    def test_the_table_refuses_what_the_closed_form_cannot(
            self, sigma_a, gN, n_theta):
        # 64 angles alias <I^2> from 0.017963 up to 0.018530, and at
        # 2s = 967 I_0 overflows: the setup admits both probes without a
        # warning, and the table's per-class check refuses them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            setup = make_setup(gN=gN, envelope="gaussian", sigma_a=sigma_a,
                               n_theta=n_theta)
        with pytest.raises(CouplingTooStrong, match=r"\(3, 0, 0\)"):
            build_pattern_table(enumerate_basis(LAT33), setup)

    def test_overflow_refuses_nothing(self):
        # at 2s = 720 I_0(2s) overflows while e^{-2s} is still above 0,
        # so their product would read inf; <I^2> is 0.0149 there and the
        # table admits gN = 5
        setup = make_setup(gN=5.0, envelope="gaussian",
                           sigma_a=math.sqrt(360.0) / math.pi)
        build_pattern_table(enumerate_basis(LAT33), setup)

    def test_coupling_too_weak_to_scatter(self):
        # every table density carries g^2 / 2 pi.  At gN = 1e-160 on
        # M=N=3 that is 1.8e-322, above 0, yet every cell mass underflows
        # and the predicted angle masses were 0/0.  Below the smallest
        # normal float gN is refused; just above it the masses are those
        # of any stronger probe
        edge = 3 * math.sqrt(2 * math.pi * sys.float_info.min)
        for gN in (1e-200, 1e-160, 0.9999 * edge):
            with pytest.raises(ValueError, match="gN"):
                make_setup(gN=gN)
        basis = enumerate_basis(LAT33)
        _, psi = ground_state(
            build_hamiltonian(basis, HubbardParams(J=1.0, U=0.5)), basis)
        weak, strong = [
            predicted_bin_masses(
                psi, build_pattern_table(basis, make_setup(gN=gN)), 7)
            for gN in (1.0001 * edge, 0.5)]
        np.testing.assert_allclose(weak, strong, rtol=1e-12)

    def test_per_atom_coupling(self):
        assert make_setup(gN=0.5).g == pytest.approx(0.5 / 3)


class TestPatternTable:
    def test_sum_rule_on_grid(self):
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        cols = class_columns(table)
        total = np.array([grid_quadrature(cols[:-1, k])
                          for k in table.class_of])
        ns_prob = table.ns_prob[table.class_of]
        np.testing.assert_allclose(total + ns_prob, 1.0, atol=1e-12)
        np.testing.assert_allclose(table.ns_amp[table.class_of] ** 2, ns_prob,
                                   atol=1e-15)

    def test_single_site_nonscatter_prob(self):
        # |F| = N for all angles, so the one-site states lose exactly
        # gN^2 of the probe: ns_prob = 1 - 0.25 at gN = 0.5
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        k = table.class_of[basis.index_of((3, 0, 0))]
        assert table.scatter_prob[k] == pytest.approx(0.25, rel=1e-13)
        assert table.ns_prob[k] == pytest.approx(0.75, rel=1e-13)

    def test_scatter_prob_against_adaptive_quadrature(self):
        basis = enumerate_basis(LAT33)
        setup = make_setup(gN=0.5, k0_a=math.pi)
        table = build_pattern_table(basis, setup)
        k = table.class_of[basis.index_of((1, 1, 1))]

        def integrand(theta):
            f = structure_amplitude((1, 1, 1), theta, setup)
            return setup.g ** 2 / (2 * math.pi) * abs(f) ** 2

        ref, err = scipy.integrate.quad(integrand, -math.pi, math.pi,
                                        limit=200)
        assert err < 1e-10
        assert table.scatter_prob[k] == pytest.approx(ref, abs=1e-8)

    def test_scatter_prob_bessel_closed_form(self):
        # mean of |F|^2 over angle: C_0 + 2 sum_d C_d J_0(d k0_a)
        basis = enumerate_basis(LAT33)
        setup = make_setup(gN=0.5, k0_a=math.pi)
        table = build_pattern_table(basis, setup)
        g2 = setup.g ** 2
        j0 = scipy.special.j0
        expected = {
            (1, 1, 1): g2 * (3 + 4 * j0(math.pi) + 2 * j0(2 * math.pi)),
            (2, 1, 0): g2 * (5 + 4 * j0(math.pi)),
            (2, 0, 1): g2 * (5 + 4 * j0(2 * math.pi)),
            (3, 0, 0): g2 * 9,
        }
        for occ, ref in expected.items():
            k = table.class_of[basis.index_of(occ)]
            assert table.scatter_prob[k] == pytest.approx(ref, abs=1e-8), occ

    def test_gaussian_envelope_table_against_quad(self):
        basis = enumerate_basis(LAT33)
        setup = make_setup(gN=0.5, envelope="gaussian", sigma_a=0.2)
        table = build_pattern_table(basis, setup)
        occ = (2, 1, 0)

        def integrand(theta):
            f = structure_amplitude(occ, theta, setup)
            env = math.exp(-(setup.k0_a * 0.2) ** 2 * (1 - math.cos(theta)))
            return setup.g ** 2 / (2 * math.pi) * (env * abs(f)) ** 2

        ref, _ = scipy.integrate.quad(integrand, -math.pi, math.pi, limit=200)
        k = table.class_of[basis.index_of(occ)]
        assert table.scatter_prob[k] == pytest.approx(ref, abs=1e-8)

    def test_weights_match_pointwise_definition(self):
        basis = enumerate_basis(LAT33)
        setup = make_setup(gN=0.5)
        table = build_pattern_table(basis, setup)
        cols = class_columns(table)
        i = 137  # arbitrary grid index
        theta = table.theta_grid[i]
        for u, occ in enumerate(basis.states):
            f = structure_amplitude(occ, theta, setup)
            ref = setup.g ** 2 / (2 * math.pi) * abs(f) ** 2
            k = table.class_of[u]
            assert cols[i, k] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("envelope,sigma_a", [("uniform", 0.0),
                                                  ("gaussian", 0.3)])
    def test_blocked_table_matches_whole_array_expression_bitwise(
            self, envelope, sigma_a):
        # the reference holds the whole complex (D, n_theta) amplitude
        # array and evaluates prefac |F|^2 I^2 directly.  The rank-M table
        # sums signed basis functions instead, so each of the K = 38 class
        # columns agrees with the reference row of the class's first basis
        # state to rounding of the column's maximum, not bit for bit; the
        # wrap row repeats the first angle exactly
        lattice = LatticeSpec(M=5, N=5)
        basis = enumerate_basis(lattice)
        setup = make_setup(lattice=lattice, gN=0.5, n_theta=256,
                           envelope=envelope, sigma_a=sigma_a)
        grid = theta_grid(setup.n_theta)
        phases = np.exp(-1j * setup.k0_a
                        * np.outer(np.arange(lattice.M), np.sin(grid)))
        amps = basis.occupations @ phases
        env = envelope_factor(grid, setup)
        ref = setup.g ** 2 / (2.0 * math.pi) * (np.abs(amps) ** 2) * env ** 2
        table = build_pattern_table(basis, setup)
        cols = class_columns(table)
        reps = [idx[0] for _, idx in basis.signature_groups]
        scale = ref[reps].max(axis=1, keepdims=True)
        assert np.all(np.abs(cols[:-1].T - ref[reps]) <= 1e-13 * scale)
        np.testing.assert_array_equal(table.weights[-1].view(np.uint64),
                                      table.weights[0].view(np.uint64))

    def test_table_arrays_hold_under_a_megabyte_at_m8(self):
        # K = 1750 classes, but the weighted basis functions and their
        # CDFs are (n_theta + 1) x M; the basis and its signature
        # partition are built before tracing starts
        lattice = LatticeSpec(M=8, N=8)
        basis = enumerate_basis(lattice)
        assert len(basis.signature_groups) == 1750
        setup = make_setup(lattice=lattice, gN=0.5)
        tracemalloc.start()
        try:
            table = build_pattern_table(basis, setup)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        arrays = (table.theta_grid, table.weights, table.cum,
                  table.scatter_prob, table.ns_prob, table.ns_amp,
                  table.class_of, table.signatures)
        assert sum(a.nbytes for a in arrays) < 1 << 20

    def test_basis_setup_mismatch(self):
        basis = enumerate_basis(LatticeSpec(M=2, N=2))
        with pytest.raises(ValueError):
            build_pattern_table(basis, make_setup())

    def test_tables_are_readonly(self):
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup())
        for arr in (table.theta_grid, table.weights, table.cum,
                    table.scatter_prob, table.ns_prob, table.ns_amp,
                    table.class_of, table.signatures):
            assert not arr.flags.writeable


class TestStateDensities:
    def test_fock_state_density_is_table_row(self):
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        k = table.class_of[basis.index_of((2, 1, 0))]
        state = fock_state(basis, (2, 1, 0))
        np.testing.assert_array_equal(scatter_density(state, table),
                                      class_columns(table)[:-1, k])
        assert nonscatter_prob(state, table) == pytest.approx(
            table.ns_prob[k], abs=1e-15)

    def test_density_ignores_relative_phase(self):
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        c = np.zeros(10, dtype=complex)
        c[basis.index_of((3, 0, 0))] = 1 / math.sqrt(2)
        c[basis.index_of((0, 3, 0))] = 1 / math.sqrt(2)
        plus = ManyBodyState.from_coefficients(basis, c)
        c2 = c.copy()
        c2[basis.index_of((0, 3, 0))] *= np.exp(0.7j)
        twisted = ManyBodyState.from_coefficients(basis, c2)
        np.testing.assert_allclose(scatter_density(plus, table),
                                   scatter_density(twisted, table),
                                   atol=1e-15)

    def test_total_probability_partition(self):
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        rng = np.random.default_rng(11)
        c = rng.normal(size=10) + 1j * rng.normal(size=10)
        state = ManyBodyState.from_coefficients(basis, c)
        total = grid_quadrature(scatter_density(state, table)) + \
            nonscatter_prob(state, table)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSharedSampler:
    """sample_angles, the one angle sampler of both engines, against the
    single-density oracle density_quantile on the mixture density."""

    @pytest.mark.parametrize("M,N,mix", [
        # the (1, 1, 1) density dips to 1.5e-8 at four grid points
        (3, 3, {(1, 1, 1): 1.0}),
        (3, 3, {(1, 1, 1): 0.6, (2, 1, 0): 0.3, (3, 0, 0): 0.1}),
        # (1, 1) vanishes to rounding at theta = +-pi/2
        (2, 2, {(1, 1): 0.9, (2, 0): 0.1}),
    ])
    def test_matches_density_quantile_oracle(self, M, N, mix):
        lattice = LatticeSpec(M=M, N=N)
        basis = enumerate_basis(lattice)
        table = build_pattern_table(basis, make_setup(
            lattice=lattice, gN=0.5, k0_a=math.pi))
        w = np.zeros(table.ns_prob.shape[0])
        for occ, p in mix.items():
            w[table.class_of[basis.index_of(occ)]] += p
        dens = class_columns(table)[:-1] @ w
        qs = np.concatenate([[0.0], np.random.default_rng(8).random(1200)])
        for q in qs:
            got = sample_angles(w[None, :], np.array([q]), table)[0]
            ref = density_quantile(table.theta_grid, dens, float(q))
            assert -math.pi <= got < math.pi
            assert abs(math.remainder(got - ref, 2 * math.pi)) < 1e-12, q


class TestSamplerSearch:
    """sample_angles' power-of-two search against the bisection it
    replaced: the same cell, so the same angle, bit for bit."""

    @pytest.mark.parametrize("M,n_theta,envelope,sigma_a", [
        (3, 66, "uniform", 0.0),
        (3, 2048, "gaussian", 0.3),
        (4, 1000, "uniform", 0.0),
        (5, 2048, "uniform", 0.0),
        (6, 1000, "gaussian", 0.2),
        (7, 2048, "uniform", 0.0),
    ])
    def test_matches_bisection_bitwise(self, M, n_theta, envelope, sigma_a):
        lattice = LatticeSpec(M=M, N=M)
        table = build_pattern_table(enumerate_basis(lattice), make_setup(
            lattice=lattice, gN=0.5, n_theta=n_theta, envelope=envelope,
            sigma_a=sigma_a))
        n_classes = table.ns_prob.shape[0]
        rng = np.random.default_rng(M * n_theta)
        # random mixtures, some concentrated on a few classes, and every
        # one-hot row, each at random quantiles and at the edge values
        mixtures = rng.random((200, n_classes)) ** rng.integers(1, 9, (200, 1))
        mixtures /= mixtures.sum(axis=1, keepdims=True)
        rows = np.concatenate([mixtures, np.eye(n_classes)])
        edges = [0.0, 1.0 - 2.0 ** -53, 1.0]
        # one-hot quantiles at the CDF of a grid angle, mostly hit
        # exactly: the search must take the cell to the right of a tie
        i = rng.integers(1, n_theta, n_classes)
        cum = class_columns(table, table.cum)
        classes = np.arange(n_classes)
        ties = np.concatenate([
            rng.random(len(mixtures)),
            cum[i, classes] / cum[n_theta, classes]])
        for v in [rng.random(len(rows)), ties,
                  *(np.full(len(rows), e) for e in edges)]:
            got = sample_angles(rows, v, table)
            ref = bisection_angles(rows, v, table)
            np.testing.assert_array_equal(got.view(np.int64),
                                          ref.view(np.int64))


class TestSamplerWithoutMonotonicity:
    def test_cdf_stepping_down_once(self):
        # a hand-built table whose CDF column for the one-site class steps
        # down by one cell mass at row j: targets between CDF(j) and
        # CDF(j - 1) cross the CDF twice, and the search must still end
        # in a cell the target crosses, with the angle inside that cell
        lattice = LatticeSpec(M=2, N=2)
        basis = enumerate_basis(lattice)
        table = build_pattern_table(basis, make_setup(
            lattice=lattice, gN=0.5, n_theta=64))
        j = 21
        cum = table.cum.copy()
        cum[j] = cum[j - 2]
        bent = dataclasses.replace(table, cum=cum)
        k20 = table.class_of[basis.index_of((2, 0))]
        cdf = class_columns(bent, cum)[:, k20]
        assert np.count_nonzero(np.diff(cdf) < 0.0) == 1

        n, h, grid = 64, 2 * math.pi / 64, table.theta_grid
        v = np.concatenate([np.linspace(0.0, 1.0, 4001), cdf / cdf[n],
                            [1.0 - 2.0 ** -53]])
        w = np.zeros((len(v), len(table.ns_prob)))
        w[:, k20] = 1.0
        theta = sample_angles(w, v, bent)
        assert np.all((-math.pi <= theta) & (theta < math.pi))
        target = v * cdf[n]
        # an angle wrapped from +pi is the end of the last cell
        x = np.where(theta < grid[0] + 1e-9 * h, theta + 2 * math.pi, theta)
        for t, x_i in zip(target, x):
            # the cells whose closed interval holds the angle, one of
            # which the target must cross (or be the last cell)
            k0 = int(math.floor((x_i + math.pi) / h))
            cells = [k for k in (k0 - 1, k0, k0 + 1) if 0 <= k < n
                     and grid[k] <= x_i <= grid[k] + h]
            assert any(cdf[k] <= t < cdf[k + 1] or k == n - 1
                       for k in cells), (t, x_i)


class TestOneCdf:
    """angle_cdf evaluates the CDF that sample_angles inverts."""

    @pytest.mark.parametrize("M", [3, 4, 5, 6])
    def test_sampler_inverts_angle_cdf(self, M):
        # compared in CDF space: where the density vanishes a span of
        # angles shares one CDF value, and the angle is not unique there
        lattice = LatticeSpec(M=M, N=M)
        basis = enumerate_basis(lattice)
        table = build_pattern_table(basis, make_setup(lattice=lattice,
                                                      gN=0.5))
        _, psi = ground_state(build_hamiltonian(
            basis, HubbardParams(J=1.0, U=0.0)), basis)
        n_classes = table.ns_prob.shape[0]
        # the U = 0 ground state, then each class's Fock state, whose
        # class weights are one-hot
        rows = np.concatenate([table.class_weights(psi.probabilities)[None],
                               np.eye(n_classes)])
        v = np.random.default_rng(M).random(2000)
        for w in rows:
            wv = np.broadcast_to(w, (len(v), n_classes))
            total = angle_cdf(w[None], np.array([math.pi]), table)[0]
            assert angle_cdf(w[None], np.array([-math.pi]), table)[0] == 0.0
            got = angle_cdf(wv, sample_angles(wv, v, table), table)
            np.testing.assert_allclose(got, v * total, rtol=0,
                                       atol=1e-15 * total)

    def test_grid_angles_read_the_table(self):
        # at grid angle i, the wrap row pi included, the CDF is c . cum[i]
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5, n_theta=64))
        w = table.class_weights(
            fock_state(basis, (1, 1, 1)).probabilities)[None]
        c = table.mean_signature(w)
        got = angle_cdf(w, np.append(table.theta_grid, math.pi), table)
        np.testing.assert_array_equal(got, (c * table.cum).sum(axis=1))


class TestTabulatedSampler:
    def test_uniform_density_quantile_is_linear(self):
        grid = theta_grid(64)
        dens = np.ones(64)
        for q in [0.0, 0.25, 0.5, 0.8, 0.999]:
            assert density_quantile(grid, dens, q) == pytest.approx(
                -math.pi + 2 * math.pi * q, abs=1e-12)

    def test_cdf_total_mass(self):
        grid = theta_grid(128)
        rng = np.random.default_rng(5)
        dens = rng.uniform(0.1, 2.0, size=128)
        total = density_cdf(grid, dens, np.array([math.pi]))[0]
        assert total == pytest.approx(grid_quadrature(dens), rel=1e-13)
        assert density_cdf(grid, dens, np.array([-math.pi]))[0] == 0.0

    def test_quantile_inverts_cdf(self):
        grid = theta_grid(64)
        rng = np.random.default_rng(12)
        dens = rng.uniform(0.0, 3.0, size=64)
        total = grid_quadrature(dens)
        for q in np.linspace(0.001, 0.999, 41):
            theta = density_quantile(grid, dens, float(q))
            assert -math.pi <= theta < math.pi
            mass = density_cdf(grid, dens, np.array([theta]))[0]
            assert mass == pytest.approx(q * total, abs=1e-12)

    def test_quantile_monotone(self):
        grid = theta_grid(64)
        rng = np.random.default_rng(3)
        dens = rng.uniform(0.0, 1.0, size=64)
        qs = np.linspace(0.0, 0.9999, 200)
        thetas = [density_quantile(grid, dens, float(q)) for q in qs]
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))

    def test_sampled_histogram_matches_density(self):
        # inverse-CDF draws of sample_angles from the tabulated density
        # of a lattice state must reproduce the bin masses of that density
        basis = enumerate_basis(LAT33)
        table = build_pattern_table(basis, make_setup(gN=0.5))
        k = table.class_of[basis.index_of((1, 1, 1))]
        dens = class_columns(table)[:-1, k]
        total = grid_quadrature(dens)

        rng = np.random.default_rng(42)
        n_draws = 200_000
        one_hot = np.zeros((n_draws, table.ns_prob.shape[0]))
        one_hot[:, k] = 1.0
        draws = sample_angles(one_hot, rng.random(n_draws), table)

        edges = np.linspace(-math.pi, math.pi, 25)
        counts, _ = np.histogram(draws, bins=edges)
        masses = np.diff(density_cdf(table.theta_grid, dens, edges)) / total
        # three-sigma band per bin
        for k in range(24):
            p = masses[k]
            sigma = math.sqrt(p * (1 - p) / n_draws)
            assert abs(counts[k] / n_draws - p) < 4.5 * sigma + 1e-9
