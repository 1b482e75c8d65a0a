"""Equivalence classes, ensemble statistics, and parameter sweeps.

Basis states whose occupation autocorrelations coincide scatter probes
identically, so measurement can never tell them apart: each signature
group is an absorbing subspace of the detection dynamics.  A long
trajectory localizes into one group, and the fraction of trajectories
ending in group k reproduces the group's weight in the initial state.
This module classifies, runs the ensembles, and aggregates the
statistics that exhibit both facts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .kernel import (
    PatternTable,
    ScatteringSetup,
    build_pattern_table,
    density_cdf,
    scatter_density,
    signature_groups,
)
from .lattice import (
    _DENSE_MAX_DIM,
    CapacityError,
    FockBasis,
    HubbardParams,
    LatticeSpec,
    ManyBodyState,
    build_hamiltonian,
    enumerate_basis,
    fock_dimension,
    ground_state,
)
from .trajectory import (
    CONVERGENCE_THRESHOLD,
    RngStream,
    trajectory_seed,
)

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass(frozen=True)
class EquivalenceClass:
    """Basis states sharing one scattering pattern.

    signature is the occupation autocorrelation (C_0, ..., C_{M-1});
    members are the occupation tuples, indices their basis positions.
    """

    signature: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    indices: np.ndarray = field(compare=False, repr=False)


def build_classes(basis: FockBasis) -> tuple[EquivalenceClass, ...]:
    """Partition the basis into scattering-equivalence classes.

    Classes are ordered by signature, descending lexicographically, so
    the single-site (most sharply diffracting) class comes first and the
    flattest pattern last.  The partition depends only on the occupation
    lists, never on probe parameters.
    """
    classes = []
    for sig, idx in signature_groups(basis):
        members = tuple(basis.states[i] for i in idx)
        classes.append(EquivalenceClass(sig, members, idx))
    return tuple(classes)


def class_weights(state: ManyBodyState, classes) -> np.ndarray:
    """Summed probability of each equivalence class in the given state."""
    probs = state.probabilities
    return np.array([float(np.sum(probs[c.indices])) for c in classes])


def class_probabilities_initial(state: ManyBodyState, classes) -> np.ndarray:
    """Predicted end-state proportions: the class weights of the prepared
    state.  Measurement preserves these in expectation, so they are what
    a large ensemble of trajectories converges to."""
    return class_weights(state, classes)


def bin_edges(n_bins: int) -> np.ndarray:
    """Uniform left-closed bin edges over [-pi, pi)."""
    return np.linspace(-math.pi, math.pi, n_bins + 1)


def bin_centers(n_bins: int) -> np.ndarray:
    edges = bin_edges(n_bins)
    return 0.5 * (edges[:-1] + edges[1:])


def bin_angles(angles, n_bins: int) -> np.ndarray:
    """Histogram counts of angles over the uniform [-pi, pi) bins."""
    a = np.asarray(angles, dtype=np.float64)
    if a.size == 0:
        return np.zeros(n_bins, dtype=np.int64)
    k = _bin_index(a, n_bins)
    return np.bincount(k, minlength=n_bins).astype(np.int64)


def _bin_index(theta, n_bins: int):
    k = np.floor((np.asarray(theta) + math.pi) * (n_bins / (2.0 * math.pi)))
    return np.clip(k.astype(np.int64), 0, n_bins - 1)


def angle_histogram(records, n_bins: int) -> np.ndarray:
    """Pooled scatter-angle counts over a collection of trajectories."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    angles = np.concatenate([r.scatter_angles() for r in records]) \
        if records else np.array([])
    return bin_angles(angles, n_bins)


def predicted_bin_masses(state: ManyBodyState, table: PatternTable,
                         n_bins: int) -> np.ndarray:
    """Conditional probability of each angle bin given that a scatter
    happened, computed from the state's own density surface.

    Integrates the same piecewise-linear density the sampler draws from,
    so sampled histograms converge to exactly these masses.
    """
    dens = scatter_density(state, table)
    cdf = density_cdf(table.theta_grid, dens, bin_edges(n_bins))
    masses = np.diff(cdf)
    return masses / cdf[-1]


@dataclass
class EnsembleStats:
    """Aggregated results of n_traj independent trajectories.

    class_proportions counts converged trajectories only (their final
    dominant class); convergence_rate reports how many converged.
    histogram pools every scatter angle of the whole ensemble;
    histogram_predicted holds the matching bin masses (summing to 1)
    computed from the initial state.  mean_class_weights tracks the
    ensemble-averaged class weights at snapshot_indices.
    """

    n_traj: int
    n_events: int
    n_bins: int
    master_seed: int
    seeds: np.ndarray = field(repr=False)
    class_signatures: tuple[tuple[int, ...], ...] = ()
    class_proportions: np.ndarray = field(default=None, repr=False)
    class_proportions_predicted: np.ndarray = field(default=None, repr=False)
    histogram: np.ndarray = field(default=None, repr=False)
    histogram_predicted: np.ndarray = field(default=None, repr=False)
    convergence_rate: float = 0.0
    final_class_weights: np.ndarray = field(default=None, repr=False)
    converged_mask: np.ndarray = field(default=None, repr=False)
    end_class_index: np.ndarray = field(default=None, repr=False)
    snapshot_indices: np.ndarray = field(default=None, repr=False)
    mean_class_weights: np.ndarray = field(default=None, repr=False)
    scatter_counts: np.ndarray = field(default=None, repr=False)
    n_scatter_total: int = 0
    aborted_count: int = 0


def run_ensemble(initial: ManyBodyState, n_traj: int, n_events: int,
                 table: PatternTable, classes, master_seed: int,
                 n_bins: int = 600, snapshot_stride: int = 50,
                 workers: int = 1) -> EnsembleStats:
    """Run n_traj independently seeded trajectories and aggregate.

    Every detection operator is diagonal in the class index and acts on
    all members of a class by the same factor, so each recorded quantity
    (event kinds, angles, class weights) depends on the state only
    through its K class weights.  The runner therefore evolves a
    (trajectories, K) array of class weights and advances every live
    trajectory of a chunk one event per step, in lockstep.  Each
    trajectory still draws from its own PCG64 stream in order, and every
    reduction is an elementwise product summed along one row, never a
    BLAS call whose rounding can depend on the batch shape, so a
    trajectory's result does not depend, bit for bit, on how many
    others share its chunk.  Results are merged by trajectory index, so
    they do not depend on the execution order or the worker count
    either.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    w0 = class_weights(initial, classes)
    tables = _class_tables(table, classes)
    snap_idx = _snapshot_indices(n_events, snapshot_stride)
    seeds = np.array([trajectory_seed(master_seed, i) for i in range(n_traj)],
                     dtype=np.uint64)

    # chunk bounds follow the requested worker count, never the pool size
    starts = [(n_traj * w) // workers for w in range(workers + 1)]
    chunks = [(seeds[a:b]) for a, b in zip(starts, starts[1:]) if b > a]

    args = [(w0, tables, chunk, n_events, n_bins, snap_idx)
            for chunk in chunks]
    n_procs = _pool_size(workers, len(chunks))
    if n_procs == 1:
        parts = [_ensemble_chunk(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            parts = list(pool.map(_ensemble_chunk_star, args))

    histogram = np.sum([p["histogram"] for p in parts], axis=0)
    final_w = np.concatenate([p["final_weights"] for p in parts], axis=0)
    snaps = np.concatenate([p["snapshots"] for p in parts], axis=0)
    scatter_counts = np.concatenate([p["scatter_counts"] for p in parts])
    aborted = int(sum(p["aborted"] for p in parts))

    converged = np.max(final_w, axis=1) > CONVERGENCE_THRESHOLD
    end_class = np.argmax(final_w, axis=1)
    k = len(classes)
    n_conv = int(np.count_nonzero(converged))
    if n_conv > 0:
        proportions = np.bincount(end_class[converged],
                                  minlength=k).astype(float) / n_conv
    else:
        proportions = np.zeros(k)

    return EnsembleStats(
        n_traj=n_traj, n_events=n_events, n_bins=n_bins,
        master_seed=master_seed, seeds=seeds,
        class_signatures=tuple(c.signature for c in classes),
        class_proportions=proportions,
        class_proportions_predicted=w0,
        histogram=histogram,
        histogram_predicted=predicted_bin_masses(initial, table, n_bins),
        convergence_rate=n_conv / n_traj,
        final_class_weights=final_w,
        converged_mask=converged,
        end_class_index=end_class,
        snapshot_indices=snap_idx,
        mean_class_weights=np.mean(snaps, axis=0),
        scatter_counts=scatter_counts,
        n_scatter_total=int(histogram.sum()),
        aborted_count=aborted)


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: no more than chunks or CPUs."""
    return min(workers, n_chunks, os.cpu_count() or 1)


def _snapshot_indices(n_events: int, stride: int) -> np.ndarray:
    if stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")
    idx = sorted({0, n_events, *range(stride, n_events + 1, stride)})
    return np.array(idx, dtype=np.int64)


# events of uniforms drawn per trajectory at a time
_UNIFORM_BLOCK = 32


@dataclass(frozen=True)
class _ClassTables:
    """Sampling tables of the K classes, one representative basis row each.

    dens[i, k] is class k's detection density at grid angle i, with the
    periodic wrap cell (row n_theta repeats row 0); cum[i, k] is its
    trapezoid mass below grid angle i, so cum[n_theta] is its scattering
    probability.  Rows are indexed by angle so a gather of one row per
    trajectory stays (batch, K).
    """

    grid: np.ndarray
    dens: np.ndarray
    cum: np.ndarray
    ns_prob: np.ndarray
    occupations: np.ndarray
    k0_a: float


def _class_tables(table: PatternTable, classes) -> _ClassTables:
    reps = np.array([c.indices[0] for c in classes], dtype=np.int64)
    n = table.theta_grid.shape[0]
    h = 2.0 * math.pi / n
    f = table.weights[reps]
    dens = np.ascontiguousarray(np.concatenate([f, f[:, :1]], axis=1).T)
    cum = np.zeros_like(dens)
    np.cumsum(0.5 * h * (dens[:-1] + dens[1:]), axis=0, out=cum[1:])
    return _ClassTables(
        grid=table.theta_grid, dens=dens, cum=cum,
        ns_prob=table.ns_prob[reps].copy(),
        occupations=table.basis.occupations[reps].astype(np.float64),
        k0_a=table.setup.k0_a)


def _ensemble_chunk_star(args):
    return _ensemble_chunk(*args)


def _ensemble_chunk(w0, tables, seeds, n_events, n_bins, snap_idx):
    """Run one contiguous block of trajectories on their class weights.

    Every live trajectory advances one event per step.  A trajectory
    whose update annihilates its weights keeps its last healthy state
    and is reported as aborted rather than poisoning the statistics.
    """
    n_chunk = len(seeds)
    streams = [RngStream(int(seed)) for seed in seeds]
    uniforms = np.empty((n_chunk, _UNIFORM_BLOCK))
    ns_prob = tables.ns_prob
    bin_scale = n_bins / (2.0 * math.pi)

    histogram = np.zeros(n_bins, dtype=np.int64)
    snapshots = np.empty((n_chunk, len(snap_idx), len(w0)))
    scatter_counts = np.zeros(n_chunk, dtype=np.int64)
    alive = np.ones(n_chunk, dtype=bool)
    aborted = 0

    w = np.tile(w0, (n_chunk, 1))
    si = 0
    if snap_idx[si] == 0:
        snapshots[:, si] = w
        si += 1
    for m in range(1, n_events + 1):
        col = (m - 1) % _UNIFORM_BLOCK
        if col == 0:
            for stream, row in zip(streams, uniforms):
                stream.fill(row)
        r = uniforms[:, col]
        q = w * ns_prob
        p_ns = q.sum(axis=1)
        hit = r >= p_ns
        if aborted:
            hit &= alive
        rows = np.flatnonzero(hit)
        if rows.size:
            wr = w[rows]
            v = (r[rows] - p_ns[rows]) / (1.0 - p_ns[rows])
            theta = _sample_angles(wr, v, tables)
            b = ((theta + math.pi) * bin_scale).astype(np.int64)
            np.add.at(histogram, np.clip(b, 0, n_bins - 1), 1)
            scatter_counts[rows] += 1
            q[rows] = wr * _scatter_multipliers(theta, tables)
        s = q.sum(axis=1)
        healthy = (s > 0.0) & np.isfinite(s)
        if healthy.all() and not aborted:
            w = q / s[:, None]
        else:
            dying = alive & ~healthy
            aborted += int(np.count_nonzero(dying))
            alive &= ~dying
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(alive[:, None], q / s[:, None], w)
        if si < len(snap_idx) and m == snap_idx[si]:
            snapshots[:, si] = w
            si += 1

    return {"histogram": histogram, "final_weights": w,
            "snapshots": snapshots, "scatter_counts": scatter_counts,
            "aborted": aborted}


def _sample_angles(w, v, tables: _ClassTables) -> np.ndarray:
    """Inverse CDF of each row's piecewise-linear density at quantile v.

    The mixture CDF at grid index i is the row dot product of the class
    weights with cum[i].  Every term is monotone in i, so the rounded sum
    is too, and the bisection finds the cell searchsorted(side="right")
    would; inside it the quadratic CDF is inverted in the stable closed
    form of kernel.density_quantile.
    """
    grid, dens, cum = tables.grid, tables.dens, tables.cum
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    target = v * (w * cum[n]).sum(axis=1)
    lo = np.zeros(len(v), dtype=np.int64)
    hi = np.full(len(v), n + 1, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        below = (w * cum[mid]).sum(axis=1) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    k = np.minimum(lo, n - 1)
    s = target - (w * cum[k]).sum(axis=1)
    f0 = (w * dens[k]).sum(axis=1)
    f1 = (w * dens[k + 1]).sum(axis=1)
    slope = (f1 - f0) / h
    denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * s, 0.0))
    x = np.divide(2.0 * s, denom, out=np.zeros_like(s), where=denom > 0.0)
    theta = grid[k] + np.clip(x, 0.0, h)
    return np.where(theta >= math.pi, theta - 2.0 * math.pi, theta)


def _scatter_multipliers(theta, tables: _ClassTables) -> np.ndarray:
    """|F_k(theta)|^2 of each class's occupation at every row's detected
    angle: shape (len(theta), K).

    The coupling prefactor and the envelope factor I(theta)^2 are common
    to all classes at a given angle, so they cancel on renormalization
    and are left out.
    """
    sites = np.arange(tables.occupations.shape[1], dtype=np.float64)
    phases = np.exp(-1j * (tables.k0_a * np.sin(theta))[:, None] * sites)
    amps = (phases[:, None, :] * tables.occupations).sum(axis=2)
    return np.abs(amps) ** 2


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(setup: ScatteringSetup) -> None:
    """Raise CapacityError if the pattern table, plus the Hamiltonian
    where it is built dense, would not fit in physical memory.

    Called before anything of the basis' size is allocated, so that an
    oversized run exits cleanly instead of being killed for memory.
    """
    dim = fock_dimension(setup.lattice.M, setup.lattice.N)
    need = 8 * dim * setup.n_theta
    if dim <= _DENSE_MAX_DIM:
        need += 8 * dim * dim
    have = _physical_memory()
    if need > have:
        raise CapacityError(
            f"Fock dimension {dim} at n_theta={setup.n_theta} needs "
            f"{need / 2**30:.1f} GiB of tables, more than the "
            f"{have / 2**30:.1f} GiB of physical memory")


@dataclass(frozen=True)
class SweepRow:
    """One ground state along the interaction sweep."""

    uj: float
    energy: float
    predicted: np.ndarray
    proportions: np.ndarray
    convergence_rate: float


def sweep_uj(uj_values, lattice: LatticeSpec, setup: ScatteringSetup,
             n_traj: int, n_events: int, master_seed: int,
             n_bins: int = 600, snapshot_stride: int = 50,
             workers: int = 1) -> list[SweepRow]:
    """Ensemble per interaction strength, plus the ground-state predictions.

    Each U/J value prepares its own ground state with J = 1 as the energy
    unit; math.inf is accepted as the hard-interaction limit and realized
    as J = 0, U = 1, whose ground state is taken in the J -> 0+ limit
    (see lattice.ground_state).  Every row derives its trajectory seeds from
    (master_seed, row index), so rows are independent and the whole sweep
    is reproducible.
    """
    values = list(uj_values)
    for uj in values:
        if not (uj >= 0):
            raise ValueError(f"U/J values must be >= 0, got {uj}")

    _check_memory(setup)
    basis = enumerate_basis(lattice)
    classes = build_classes(basis)
    table = build_pattern_table(basis, setup)

    rows = []
    for i, uj in enumerate(values):
        if math.isinf(uj):
            params = HubbardParams(J=0.0, U=1.0)
        else:
            params = HubbardParams(J=1.0, U=float(uj))
        energy, psi = ground_state(build_hamiltonian(basis, params), basis)
        stats = run_ensemble(psi, n_traj, n_events, table, classes,
                             master_seed=trajectory_seed(master_seed, i),
                             n_bins=n_bins, snapshot_stride=snapshot_stride,
                             workers=workers)
        rows.append(SweepRow(uj=float(uj), energy=energy,
                             predicted=stats.class_proportions_predicted,
                             proportions=stats.class_proportions,
                             convergence_rate=stats.convergence_rate))
    return rows


@dataclass
class PreparedSystem:
    """Ground state plus all precomputed tables for one configuration."""

    basis: FockBasis
    classes: tuple[EquivalenceClass, ...]
    table: PatternTable
    params: HubbardParams
    energy: float
    initial_state: ManyBodyState


def prepare_system(cfg: "RunConfig") -> PreparedSystem:
    """Diagonalize and tabulate everything a run needs from its config."""
    lattice = cfg.lattice_spec()
    params = cfg.hubbard_params()
    setup = cfg.scattering_setup()
    _check_memory(setup)
    basis = enumerate_basis(lattice)
    classes = build_classes(basis)
    table = build_pattern_table(basis, setup)
    energy, state = ground_state(build_hamiltonian(basis, params), basis)
    return PreparedSystem(basis=basis, classes=classes, table=table,
                          params=params, energy=energy, initial_state=state)
