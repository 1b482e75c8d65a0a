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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .kernel import (
    PatternTable,
    ScatteringSetup,
    angle_cdf,
    build_pattern_table,
)
from .lattice import (
    _DENSE_MAX_DIM,
    _LANCZOS_KEEP,
    _LANCZOS_NCV,
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
    _snapshot_indices,
    _uniform_columns,
    trajectory_seed,
)

if TYPE_CHECKING:
    from .config import RunConfig

# class weights a lockstep block holds per array (8 MB), unless one
# row's n_traj trajectories need more
_BLOCK_WEIGHTS = 1 << 20


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
    happened: differences at the bin edges of the CDF the sampler
    inverts (kernel.angle_cdf), so sampled histograms converge to
    exactly these masses, up to the clamp at 0 of a rounding step down
    of the signed CDF where the density vanishes.  They sum to 1."""
    w = table.class_weights(state.probabilities)[None, :]
    masses = np.maximum(np.diff(angle_cdf(w, bin_edges(n_bins), table)), 0.0)
    return masses / masses.sum()


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
    event step of the trajectory engine without its phases: the one-row
    case of the lockstep batch that sweep_uj runs, each chunk in one
    block.  Each trajectory still draws from its own PCG64 stream in
    order, and every reduction is an elementwise product summed along
    one row, never a BLAS call whose rounding can depend on the batch
    shape, so a trajectory's result does not depend, bit for bit, on
    how many others share its chunk.  Results are merged by trajectory
    index, so they do not depend on the execution order or the worker
    count either.
    """
    snap_idx = _run_bounds(n_traj, n_events, workers, snapshot_stride)
    k = len(classes)
    if k != len(table.ns_prob):
        raise ValueError(f"{k} classes for a table of {len(table.ns_prob)}")

    w0 = table.class_weights(initial.probabilities)
    seeds = np.array([trajectory_seed(master_seed, i) for i in range(n_traj)],
                     dtype=np.uint64)
    out = _lockstep(w0[None, :], n_traj, seeds, table, n_events, n_bins,
                    snap_idx, workers)
    histogram = out["histogram"][0]
    snaps = out["snapshots"]
    proportions, n_conv = _end_proportions(out["end_class"],
                                           out["converged"], k)

    return EnsembleStats(
        n_traj=n_traj, n_events=n_events, n_bins=n_bins,
        master_seed=master_seed, seeds=seeds,
        class_signatures=tuple(c.signature for c in classes),
        class_proportions=proportions,
        class_proportions_predicted=w0,
        histogram=histogram,
        histogram_predicted=predicted_bin_masses(initial, table, n_bins),
        convergence_rate=n_conv / n_traj,
        # the last snapshot is event n_events
        final_class_weights=snaps[:, -1].copy(),
        converged_mask=out["converged"],
        end_class_index=out["end_class"],
        snapshot_indices=snap_idx,
        mean_class_weights=np.mean(snaps, axis=0),
        scatter_counts=out["scatter_counts"],
        n_scatter_total=int(histogram.sum()),
        aborted_count=int(np.count_nonzero(~out["alive"])))


def _run_bounds(n_traj: int, n_events: int, workers: int,
                snapshot_stride: int) -> np.ndarray:
    """Snapshot indices of an ensemble run; ValueError for a trajectory
    count, event count, worker count or stride no run can take."""
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _snapshot_indices(n_events, snapshot_stride)


def _end_proportions(end_class, converged, k: int):
    """Share of the converged trajectories ending in each of k classes,
    and how many converged."""
    n_conv = int(np.count_nonzero(converged))
    if n_conv == 0:
        return np.zeros(k), 0
    counts = np.bincount(end_class[converged], minlength=k)
    return counts.astype(float) / n_conv, n_conv


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: no more than chunks or CPUs."""
    return min(workers, n_chunks, os.cpu_count() or 1)


def _lockstep(w0, n_traj, seeds, table, n_events, n_bins, snap_idx,
              workers):
    """Run n_traj trajectories from each row of class weights w0, shape
    (rows, K): trajectory i starts from row i // n_traj on seeds[i].

    The trajectory list is cut into chunks by the requested worker count,
    never by the pool size, and one pool runs them all.  Each chunk runs
    in lockstep blocks of max(n_traj, _BLOCK_WEIGHTS // K) trajectories,
    so a block never holds more than one row's trajectories or
    _BLOCK_WEIGHTS class weights, whichever is more, and a chunk of one
    row is one block.  Returns each row's histogram, shape (rows,
    n_bins), and per trajectory, in order: its class weights at
    snap_idx, scatter count, alive flag, end class and whether it
    converged.
    """
    n = len(seeds)
    row_of = np.repeat(np.arange(len(w0)), n_traj)
    block = max(n_traj, _BLOCK_WEIGHTS // w0.shape[1])
    starts = [(n * w) // workers for w in range(workers + 1)]
    args = [(w0, row_of[a:b], seeds[a:b], table, n_events, n_bins, snap_idx,
             block) for a, b in zip(starts, starts[1:]) if b > a]
    n_procs = _pool_size(workers, len(args))
    if n_procs == 1:
        parts = [_lockstep_chunk(*a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            parts = list(pool.map(_lockstep_chunk, *zip(*args)))

    out = {key: np.concatenate([p[key] for p in parts]) for key in
           ("snapshots", "scatter_counts", "alive", "end_class", "converged")}
    out["histogram"] = np.sum([p["histogram"] for p in parts], axis=0)
    return out


def _lockstep_chunk(w0, row_of, seeds, table, n_events, n_bins, snap_idx,
                    block):
    """Run one contiguous run of trajectories, block by block, on their
    class weights.

    Every live trajectory of a block advances one event per step,
    through the trajectory engine's event step.  A trajectory whose
    update annihilates its weights keeps its last healthy state and is
    reported as not alive rather than poisoning the statistics; its
    fatal scatter is still counted.
    """
    n, k = len(seeds), w0.shape[1]
    histogram = np.zeros(len(w0) * n_bins, dtype=np.int64)
    snapshots = np.empty((n, len(snap_idx), k))
    scatter_counts = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    end_class = np.empty(n, dtype=np.int64)
    converged = np.empty(n, dtype=bool)

    for a in range(0, n, block):
        b = min(a + block, n)
        live, counts, snaps = alive[a:b], scatter_counts[a:b], snapshots[a:b]
        offset = row_of[a:b] * n_bins
        w = w0[row_of[a:b]]
        si = 0
        if len(snap_idx) and snap_idx[0] == 0:
            snaps[:, 0] = w
            si = 1
        for m, r in enumerate(_uniform_columns(seeds[a:b], n_events),
                              start=1):
            w, rows, theta, _ = _event_step(w, r, live, table)
            if rows.size:
                np.add.at(histogram, offset[rows] + _bin_index(theta, n_bins),
                          1)
                counts[rows] += 1
            if si < len(snap_idx) and m == snap_idx[si]:
                snaps[:, si] = w
                si += 1
        end_class[a:b] = np.argmax(w, axis=1)
        converged[a:b] = np.max(w, axis=1) > CONVERGENCE_THRESHOLD

    return {"histogram": histogram.reshape(len(w0), n_bins),
            "snapshots": snapshots, "scatter_counts": scatter_counts,
            "alive": alive, "end_class": end_class, "converged": converged}


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _memory_need(setup: ScatteringSetup) -> int:
    """Upper bound, in bytes, of what prepare_system allocates at its peak.

    Per basis state: its occupation tuple and array, the signature
    partition's sort buffers and index arrays, and its class entry, under
    96 + 64 M bytes.  The rank-M pattern table and its build buffers take
    under eight (n_theta + 1) x M arrays.  A dense H (up to
    _DENSE_MAX_DIM states) takes four D x D arrays with eigh's copy,
    eigenvectors and workspace.  A sparse H has at most one off-diagonal
    entry per state and directed bond, 24 bytes each as it is kept (value,
    row, column), 12 more while the per-bond hop lists it is built from
    are alive, or 8 more for the gathered products of a matvec.  Per
    state it adds its diagonal, one bond's hop copies and rank buffers
    (four M-wide rows), the Lanczos basis of _LANCZOS_NCV + 1 vectors,
    the _LANCZOS_KEEP vectors of a restart's product, and four vectors
    of matvec and residual temporaries.  The tracemalloc peak of
    prepare_system is 0.39-0.68 of this bound at M = N = 3..10.
    """
    lattice = setup.lattice
    dim = fock_dimension(lattice.M, lattice.N)
    need = dim * (96 + 64 * lattice.M) + 64 * (setup.n_theta + 1) * lattice.M
    if dim <= _DENSE_MAX_DIM:
        return need + 4 * 8 * dim * dim
    nnz = 2 * dim * len(lattice.bonds)
    per_state = 1 + 4 * lattice.M + _LANCZOS_NCV + 1 + _LANCZOS_KEEP + 4
    return need + 36 * nnz + 8 * dim * per_state


def _check_memory(setup: ScatteringSetup) -> None:
    """Raise CapacityError if prepare_system's basis, Hamiltonian and
    pattern table would not fit in physical memory.

    Called before anything of the basis' size is allocated, so that an
    oversized run exits cleanly instead of being killed for memory.
    """
    dim = fock_dimension(setup.lattice.M, setup.lattice.N)
    need = _memory_need(setup)
    have = _physical_memory()
    if need > have:
        raise CapacityError(
            f"Fock dimension {dim} at n_theta={setup.n_theta} needs "
            f"{need / 2**30:.1f} GiB for its basis, Hamiltonian and pattern "
            f"table, more than the {have / 2**30:.1f} GiB of physical memory")


def _tabulate(lattice: LatticeSpec, setup: ScatteringSetup):
    """Basis and pattern table, once the memory guard passes."""
    _check_memory(setup)
    basis = enumerate_basis(lattice)
    return basis, build_pattern_table(basis, setup)


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
    (see lattice.ground_state).  Trajectory j of row i has the seed
    trajectory_seed(trajectory_seed(master_seed, i), j) and starts from
    row i's class weights, so each row is the run_ensemble of its ground
    state at master seed trajectory_seed(master_seed, i), bit for bit,
    and the whole sweep is reproducible.  All rows share one basis, one
    partition and one pattern table, whose class weights are all a row
    reads, so no EquivalenceClass (nor the occupation tuples it holds)
    is built.  Every row's ground state is solved first, then all rows'
    trajectories advance together in one lockstep batch (_lockstep) with
    one pool of workers.  No row output reads snapshots, so
    snapshot_stride is only validated, with the other run bounds, before
    anything is enumerated or solved.
    """
    values = list(uj_values)
    for uj in values:
        if not (uj >= 0):
            raise ValueError(f"U/J values must be >= 0, got {uj}")
    _run_bounds(n_traj, n_events, workers, snapshot_stride)
    if not values:
        return []

    basis, table = _tabulate(lattice, setup)
    energies, w0 = [], []
    for uj in values:
        if math.isinf(uj):
            params = HubbardParams(J=0.0, U=1.0)
        else:
            params = HubbardParams(J=1.0, U=float(uj))
        energy, psi = ground_state(build_hamiltonian(basis, params), basis)
        energies.append(energy)
        w0.append(table.class_weights(psi.probabilities))

    seeds = np.array([trajectory_seed(trajectory_seed(master_seed, i), j)
                      for i in range(len(values)) for j in range(n_traj)],
                     dtype=np.uint64)
    out = _lockstep(np.array(w0), n_traj, seeds, table, n_events, n_bins,
                    np.empty(0, dtype=np.int64), workers)

    rows = []
    for i, uj in enumerate(values):
        mine = slice(i * n_traj, (i + 1) * n_traj)
        proportions, n_conv = _end_proportions(
            out["end_class"][mine], out["converged"][mine], len(w0[i]))
        rows.append(SweepRow(uj=float(uj), energy=energies[i],
                             predicted=w0[i], proportions=proportions,
                             convergence_rate=n_conv / n_traj))
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
    params = cfg.hubbard_params()
    setup = cfg.scattering_setup()
    basis, table = _tabulate(setup.lattice, setup)
    classes = build_classes(basis)
    energy, state = ground_state(build_hamiltonian(basis, params), basis)
    return PreparedSystem(basis=basis, classes=classes, table=table,
                          params=params, energy=energy, initial_state=state)
