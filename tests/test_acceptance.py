"""Acceptance gate: ten headline behaviors, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines
appear; without -s they show up in the captured output of failing tests
only.  Expect roughly three minutes on one core: the statistics
criteria run a 10000-trajectory ensemble of 1000 events each, which is
also the scale at which the pooled-histogram tolerance below is
statistically meaningful.

Every seed here is fixed up front and was not selected on results, and
no check is expected to fail.  Criterion 8 checks how fast repeated
detections localize the state, through a law the dynamics obey exactly:
the measurement operators are diagonal in the class index, so for
classes a != b the mean coherence E[sqrt(w_a w_b)] after m detections
is sqrt(P_a P_b) B_ab^m, where B_ab is the per-probe Bhattacharyya
overlap of the two classes' outcome distributions.  The summed
coherence must match it within 4 standard errors at four checkpoints.
An earlier version of the criterion required 95% of trajectories to
reach class weight 0.99 within 5000 events, a figure nothing in the
paper or the model supports: an independent class-space Monte Carlo
(4000 trajectories, own grid and RNG) gives a first-passage rate of
0.840 +- 0.006 within 5000 events and 0.946 within 7100, and the engine
gives 174/200.  The rate is still printed for information.
"""

import hashlib
import math

import numpy as np
import pytest

from oracles import class_columns
from scatterloc.analysis import build_classes, run_ensemble
from scatterloc.cli import main as cli_main
from scatterloc.kernel import (
    ScatteringSetup,
    build_pattern_table,
    grid_quadrature,
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
    overlap,
)
from scatterloc.trajectory import (
    EventKind,
    run_trajectories,
    run_trajectory,
    trajectory_seed,
)

MASTER_SEED = 0


def _verdict(num, ok: bool, detail: str) -> None:
    label = f"criterion {num}"
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _free_orbital_class_probs() -> np.ndarray:
    # independent oracle: the open-chain single-particle ground orbital
    # is (1/2, 1/sqrt(2), 1/2); condensing three bosons into it gives
    # each occupation a multinomial probability, summed per class
    v2 = np.array([0.25, 0.5, 0.25])
    lat = LatticeSpec(M=3, N=3)
    basis = enumerate_basis(lat)
    probs = np.zeros(len(build_classes(basis)))
    for k, cls in enumerate(build_classes(basis)):
        for occ in cls.members:
            coeff = math.factorial(3)
            for n_j, w in zip(occ, v2):
                coeff = coeff / math.factorial(n_j) * w ** n_j
            probs[k] += coeff
    return probs


def _class_overlaps(signatures, g: float, k0_a: float) -> np.ndarray:
    """Per-probe Bhattacharyya overlaps B_ab between equivalence classes.

    B_ab = int sqrt(W_a W_b) dtheta + sqrt(A_a^2 A_b^2), built from the
    class signatures alone: a class's angular density is
    W(theta) = (g^2 / 2 pi) (C_0 + 2 sum_d C_d cos(d k0_a sin theta))
    for a uniform envelope, and A^2 = 1 - int W.  The 2^16-point
    midpoint grid is fine enough that the quadrature of |F_a| |F_b|,
    which has kinks at the zeros of F, is converged to about 1e-12.
    """
    n_theta = 1 << 16
    h = 2.0 * math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * h - math.pi
    sig = np.asarray(signatures, dtype=np.float64)
    cosines = np.cos(np.outer(np.arange(sig.shape[1]), k0_a * np.sin(theta)))
    cosines[0] = 0.5        # so that 2 sig @ cosines = |F|^2
    density = g ** 2 / (2.0 * math.pi) * 2.0 * (sig @ cosines)
    ns_prob = 1.0 - h * density.sum(axis=1)
    root = np.sqrt(np.maximum(density, 0.0))
    return h * (root @ root.T) + np.sqrt(np.outer(ns_prob, ns_prob))


@pytest.fixture(scope="module")
def u0_system():
    lat = LatticeSpec(M=3, N=3)
    basis = enumerate_basis(lat)
    classes = build_classes(basis)
    table = build_pattern_table(
        basis, ScatteringSetup(lattice=lat, gN=0.5, k0_a=math.pi))
    energy, psi = ground_state(
        build_hamiltonian(basis, HubbardParams(J=1.0, U=0.0)), basis)
    return basis, classes, table, energy, psi


@pytest.fixture(scope="module")
def main_ensemble(u0_system):
    basis, classes, table, energy, psi = u0_system
    return run_ensemble(psi, 10000, 1000, table, classes,
                        master_seed=MASTER_SEED, n_bins=600,
                        snapshot_stride=50)


@pytest.fixture(scope="module")
def hard_interaction_ensemble(u0_system):
    basis, classes, table, _, _ = u0_system
    _, psi = ground_state(
        build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0)), basis)
    return run_ensemble(psi, 2000, 1500, table, classes,
                        master_seed=MASTER_SEED, n_bins=600,
                        snapshot_stride=50)


@pytest.fixture(scope="module")
def weak_probe_records():
    # the single-trajectory working point: soft interactions, weak probe
    lat = LatticeSpec(M=3, N=3)
    basis = enumerate_basis(lat)
    table = build_pattern_table(
        basis, ScatteringSetup(lattice=lat, gN=0.1, k0_a=math.pi))
    _, psi = ground_state(
        build_hamiltonian(basis, HubbardParams(J=1.0, U=0.05)), basis)
    return run_trajectories(psi, table, 5000,
                            [trajectory_seed(MASTER_SEED, i)
                             for i in range(200)])


class TestAcceptance:
    def test_01_end_state_proportions(self, main_ensemble,
                                      hard_interaction_ensemble):
        stats = main_ensemble
        oracle = _free_orbital_class_probs()
        np.testing.assert_allclose(
            oracle, [0.15625, 0.5625, 0.09375, 0.1875], atol=1e-12)
        n_conv = int(np.count_nonzero(stats.converged_mask))
        sigma = np.sqrt(oracle * (1 - oracle) / n_conv)
        dev = np.abs(stats.class_proportions - oracle) / sigma
        ok = bool(dev.max() < 3.0)

        frozen = hard_interaction_ensemble
        ok_frozen = bool(
            np.array_equal(frozen.class_proportions, [0.0, 0.0, 0.0, 1.0]))
        _verdict(1, ok and ok_frozen,
                 f"max deviation {dev.max():.2f} sigma over {n_conv} "
                 f"converged; hard-interaction proportions "
                 f"{'exact' if ok_frozen else 'WRONG'}")

    def test_02_ensemble_histogram_matches_initial_density(
            self, main_ensemble):
        stats = main_ensemble
        h = stats.histogram / stats.histogram.sum()
        l1 = float(np.abs(h - stats.histogram_predicted).sum())
        _verdict(2, l1 < 0.02,
                 f"L1 = {l1:.5f} over 600 bins, "
                 f"{stats.n_scatter_total} pooled scatter events")

    def test_03_probability_conservation(self, u0_system):
        basis, _, table, _, _ = u0_system
        rng = np.random.default_rng(MASTER_SEED)
        worst = 0.0
        for _ in range(50):
            raw = rng.normal(size=len(basis)) + 1j * rng.normal(
                size=len(basis))
            state = ManyBodyState.from_coefficients(basis, raw)
            total = grid_quadrature(scatter_density(state, table)) \
                + nonscatter_prob(state, table)
            worst = max(worst, abs(total - 1.0))
        _verdict(3, worst < 1e-10,
                 f"max |quadrature + P_NS - 1| = {worst:.2e} "
                 f"over 50 random states")

    def test_04_basis_states_are_fixed_points(self, u0_system):
        basis, _, table, _, _ = u0_system
        worst = 1.0
        for i, occ in enumerate(basis.occupations):
            start = fock_state(basis, tuple(occ))
            rec = run_trajectory(start, table, 1000,
                                 seed=trajectory_seed(MASTER_SEED, i))
            fidelity = abs(overlap(start, rec.final_state)) ** 2
            worst = min(worst, fidelity)
        _verdict(4, worst >= 1.0 - 1e-10,
                 f"min fidelity after 1000 events = {worst:.15f} "
                 f"over all {len(basis)} basis states")

    def test_05_within_class_weights_preserved(self, u0_system):
        basis, _, table, _, _ = u0_system
        coeffs = np.zeros(len(basis), dtype=complex)
        i_a = basis.index_of((2, 0, 1))
        i_b = basis.index_of((1, 0, 2))
        coeffs[i_a] = coeffs[i_b] = 1.0 / math.sqrt(2.0)
        state = ManyBodyState.from_coefficients(basis, coeffs)
        rec = run_trajectory(state, table, 1000,
                             seed=trajectory_seed(MASTER_SEED, 0),
                             snapshot_stride=1)
        worst = 0.0
        for _, snap in rec.snapshots:
            ratio = abs(snap[i_a]) / abs(snap[i_b])
            worst = max(worst, abs(ratio - 1.0))
        _verdict(5, worst < 1e-10,
                 f"max |ratio - 1| = {worst:.2e} across 1000 events")

    def test_06_class_enumeration(self):
        basis = enumerate_basis(LatticeSpec(M=3, N=3))
        classes = build_classes(basis)
        expected = [
            {(3, 0, 0), (0, 3, 0), (0, 0, 3)},
            {(2, 1, 0), (1, 2, 0), (0, 1, 2), (0, 2, 1)},
            {(2, 0, 1), (1, 0, 2)},
            {(1, 1, 1)},
        ]
        got = [set(cls.members) for cls in classes]
        ok = len(classes) == 4 and got == expected
        _verdict(6, ok, "four classes with the expected memberships")

    def test_07_mean_class_weights_are_martingale(self, main_ensemble):
        stats = main_ensemble
        row = int(np.nonzero(stats.snapshot_indices == 100)[0][0])
        p0 = stats.class_proportions_predicted
        band = 3.0 * np.sqrt(p0 * (1 - p0) / stats.n_traj)
        dev = np.abs(stats.mean_class_weights[row] - p0)
        ok = bool(np.all(dev < band))
        _verdict(7, ok,
                 f"max |mean weight - initial| at event 100 = "
                 f"{dev.max():.5f} vs 3 sigma band {band.min():.5f}..."
                 f"{band.max():.5f}, {stats.n_traj} trajectories")

    def test_08_convergence_rate(self, weak_probe_records):
        # localization speed through the exact coherence-decay law
        # E[S(m)] = sum_{a<b} sqrt(P_a P_b) B_ab^m at the fixture's
        # working point (M=N=3, gN=0.1, k0_a=pi, uniform envelope)
        signatures = [cls.signature for cls in
                      build_classes(enumerate_basis(LatticeSpec(M=3, N=3)))]
        overlaps = _class_overlaps(signatures, g=0.1 / 3, k0_a=math.pi)
        a, b = np.triu_indices(len(signatures), 1)
        p0 = weak_probe_records[0].class_weights[0]
        amplitude = np.sqrt(p0[a] * p0[b])

        aborted = sum(rec.aborted for rec in weak_probe_records)
        if aborted:
            _verdict(8, False, f"{aborted} trajectories aborted")
        weights = np.array([rec.class_weights
                            for rec in weak_probe_records])
        zs = []
        for m in (1000, 2000, 3000, 5000):
            s = np.sqrt(weights[:, m, a] * weights[:, m, b]).sum(axis=1)
            exact = float(np.sum(amplitude * overlaps[a, b] ** m))
            se = float(s.std(ddof=1)) / math.sqrt(s.size)
            zs.append((m, (float(s.mean()) - exact) / se))
        ok = all(abs(z) <= 4.0 for _, z in zs)

        hits = int(np.count_nonzero(
            (weights.max(axis=2) > 0.99).any(axis=1)))
        _verdict(8, ok,
                 "mean coherence vs exact law, z at m = "
                 + ", ".join(f"{m}: {z:+.2f}" for m, z in zs)
                 + f" (band 4); {hits}/{len(weak_probe_records)} "
                 f"trajectories reached class weight 0.99 within 5000 "
                 f"events")

    def test_08q_overlap_jumps_and_drift(self, weak_probe_records):
        # qualitative single-realization features: the overlap with the
        # initial state jumps at scatter detections and only drifts
        # between them
        rec = weak_probe_records[0]
        steps = np.abs(np.diff(rec.overlap_sq_series))
        is_scatter = np.array(
            [e.kind is EventKind.SCATTER for e in rec.events])
        scatter_steps = steps[is_scatter]
        drift_steps = steps[~is_scatter]
        ok = (scatter_steps.size > 0
              and scatter_steps.max() > 0.1
              and drift_steps.max() < 0.01
              and scatter_steps.mean() > 100 * drift_steps.mean())
        _verdict("8q", ok,
                 f"largest scatter jump {scatter_steps.max():.3f}, "
                 f"largest non-scatter drift {drift_steps.max():.5f}")

    def test_09_ground_state_oracles(self, u0_system):
        basis, _, _, energy, psi = u0_system
        _, frozen = ground_state(
            build_hamiltonian(basis, HubbardParams(J=0.0, U=1.0)), basis)
        ok_frozen = bool(np.array_equal(
            frozen.coeffs, fock_state(basis, (1, 1, 1)).coeffs))

        ok_energy = abs(energy + 3.0 * math.sqrt(2.0)) < 1e-12
        v = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
        expected = np.array([
            math.sqrt(math.factorial(3)
                      / np.prod([math.factorial(int(n)) for n in occ]))
            * np.prod(v ** np.asarray(occ))
            for occ in basis.occupations])
        worst = float(np.abs(psi.coeffs - expected).max())
        _verdict(9, ok_frozen and ok_energy and worst < 1e-8,
                 f"single-occupation state exact: {ok_frozen}; free energy "
                 f"error {abs(energy + 3 * math.sqrt(2)):.1e}; max "
                 f"coefficient error {worst:.1e}")

    def test_10_byte_identical_reruns(self, tmp_path):
        def run(command, out, extra):
            argv = [command, "--out", str(out), "--seed", "21",
                    "--set", "M=3", "--set", "N=3", "--set", "gN=0.5",
                    *extra]
            assert cli_main(argv) == 0

        cases = {
            "predict": [],
            "trajectory": ["--events", "80"],
            "ensemble": ["--traj", "20", "--events", "60", "--bins", "24"],
            "sweep": ["--traj", "8", "--events", "40", "--bins", "16",
                      "--set", "uj_values=0,0.05,inf"],
        }
        identical = True
        checked = 0
        for command, extra in cases.items():
            out_a = tmp_path / f"{command}_a"
            out_b = tmp_path / f"{command}_b"
            run(command, out_a, extra)
            run(command, out_b, extra)
            for path_a in sorted(out_a.iterdir()):
                path_b = out_b / path_a.name
                if path_a.name == "manifest.json":
                    # identical except the echoed output directory
                    text_a = path_a.read_text().replace(str(out_a), "")
                    text_b = path_b.read_text().replace(str(out_b), "")
                    identical &= text_a == text_b
                else:
                    digest_a = hashlib.sha256(path_a.read_bytes()).hexdigest()
                    digest_b = hashlib.sha256(path_b.read_bytes()).hexdigest()
                    identical &= digest_a == digest_b
                checked += 1
        _verdict(10, identical,
                 f"{checked} files compared across repeated runs of all "
                 f"four commands")


class TestCoherenceOracle:
    """The class-overlap helper behind criterion 8."""

    def test_class_overlaps(self):
        lat = LatticeSpec(M=3, N=3)
        basis = enumerate_basis(lat)
        classes = build_classes(basis)
        overlaps = _class_overlaps([cls.signature for cls in classes],
                                   g=0.1 / 3, k0_a=math.pi)
        np.testing.assert_allclose(np.diag(overlaps), 1.0, atol=1e-12)
        off = overlaps[~np.eye(len(classes), dtype=bool)]
        assert np.all((off > 0.0) & (off < 1.0))

        # same overlaps from the engine's class table, on its own
        # 2048-point grid
        table = build_pattern_table(
            basis, ScatteringSetup(lattice=lat, gN=0.1, k0_a=math.pi,
                                   n_theta=2048))
        rows = [int(table.class_of[cls.indices[0]]) for cls in classes]
        root = np.sqrt(class_columns(table)[:-1, rows].T)
        ns_prob = table.ns_prob[rows]
        from_table = (2.0 * math.pi / 2048) * (root @ root.T) \
            + np.sqrt(np.outer(ns_prob, ns_prob))
        np.testing.assert_allclose(overlaps, from_table, rtol=0, atol=1e-8)
