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
    _event_step,
    _uniform_columns,
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
    flattest pattern last.  The partition is the basis' signature_groups,
    which depends only on the occupations, never on probe parameters.
    """
    states = basis.states
    return tuple(EquivalenceClass(sig, tuple(states[i] for i in idx), idx)
                 for sig, idx in basis.signature_groups)


def class_weights(state: ManyBodyState, classes) -> np.ndarray:
    """Summed probability of each equivalence class in the given state.

    Measurement preserves these in expectation, so the class weights of
    the prepared state are the predicted end-state proportions.  Each
    class is summed in ascending index order, as PatternTable.class_weights
    sums it, so the two agree bit for bit.
    """
    idx = np.concatenate([c.indices for c in classes])
    k = np.repeat(np.arange(len(classes)), [len(c.indices) for c in classes])
    return np.bincount(k, weights=state.probabilities[idx],
                       minlength=len(classes))


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
    trajectory of a chunk one event per step, in lockstep, through the
    event step of the trajectory engine without its phases.  Each
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
    k = len(classes)
    if k != len(table.ns_prob):
        raise ValueError(f"{k} classes for a table of {len(table.ns_prob)}")

    w0 = table.class_weights(initial.probabilities)
    snap_idx = _snapshot_indices(n_events, snapshot_stride)
    seeds = np.array([trajectory_seed(master_seed, i) for i in range(n_traj)],
                     dtype=np.uint64)

    # chunk bounds follow the requested worker count, never the pool size
    starts = [(n_traj * w) // workers for w in range(workers + 1)]
    chunks = [(seeds[a:b]) for a, b in zip(starts, starts[1:]) if b > a]

    args = [(w0, table, chunk, n_events, n_bins, snap_idx)
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


def _ensemble_chunk_star(args):
    return _ensemble_chunk(*args)


def _ensemble_chunk(w0, table, seeds, n_events, n_bins, snap_idx):
    """Run one contiguous block of trajectories on their class weights.

    Every live trajectory advances one event per step, through the
    trajectory engine's event step.  A trajectory whose update
    annihilates its weights keeps its last healthy state and is reported
    as aborted rather than poisoning the statistics; its fatal scatter
    is still counted.
    """
    n_chunk = len(seeds)

    histogram = np.zeros(n_bins, dtype=np.int64)
    snapshots = np.empty((n_chunk, len(snap_idx), len(w0)))
    scatter_counts = np.zeros(n_chunk, dtype=np.int64)
    alive = np.ones(n_chunk, dtype=bool)

    w = np.tile(w0, (n_chunk, 1))
    si = 0
    if snap_idx[si] == 0:
        snapshots[:, si] = w
        si += 1
    for m, r in enumerate(_uniform_columns(seeds, n_events), start=1):
        w, rows, theta, _ = _event_step(w, r, alive, table)
        if rows.size:
            np.add.at(histogram, _bin_index(theta, n_bins), 1)
            scatter_counts[rows] += 1
        if si < len(snap_idx) and m == snap_idx[si]:
            snapshots[:, si] = w
            si += 1

    return {"histogram": histogram, "final_weights": w,
            "snapshots": snapshots, "scatter_counts": scatter_counts,
            "aborted": int(np.count_nonzero(~alive))}


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
