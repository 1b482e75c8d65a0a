"""Equivalence classes, ensemble statistics, and parameter sweeps.

Basis states whose occupation autocorrelations coincide scatter probes
identically, so measurement can never tell them apart: each signature
group is an absorbing subspace of the detection dynamics.  A long
trajectory localizes into one group, and the fraction of trajectories
ending in group k reproduces the group's weight in the initial state.
This module classifies, runs the ensembles as a mixture over classes,
and aggregates the statistics that exhibit both facts; a float sum over
trajectories adds fixed chunks of them.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .kernel import (
    PatternTable,
    ScatteringSetup,
    _state_weights,
    angle_cdf,
    build_pattern_table,
)
from .lattice import (
    _LANCZOS_KEEP,
    _LANCZOS_NCV,
    Boundary,
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
    _PASS_EVENTS,
    _SLICE_WEIGHTS,
    CONVERGENCE_THRESHOLD,
    _draw_classes,
    _posterior,
    _scatter_slices,
    _snapshot_slots,
    trajectory_seed,
)

if TYPE_CHECKING:
    from .config import RunConfig

# class weights a lockstep block holds per array (8 MB)
_BLOCK_WEIGHTS = 1 << 20

# trajectories whose class weights a snapshot sums as one chunk
_CHUNK = 16

# events of uniforms drawn per trajectory at a time
_UNIFORM_BLOCK = 32


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
    sums it, so the two agree bit for bit.  The classes must partition
    the state's basis.
    """
    idx = np.concatenate([c.indices for c in classes])
    d = state.basis.dimension
    if not np.array_equal(np.bincount(idx, minlength=d), np.ones(d)):
        raise ValueError(f"classes do not partition the basis of dimension {d}")
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
    k = np.floor((np.asarray(angles, dtype=np.float64) + math.pi)
                 * (n_bins / (2.0 * math.pi))).astype(np.int64)
    return np.bincount(np.clip(k, 0, n_bins - 1), minlength=n_bins)


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
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    w = _state_weights(state, table)[None, :]
    masses = np.maximum(np.diff(angle_cdf(w, bin_edges(n_bins), table)), 0.0)
    return masses / masses.sum()


@dataclass
class EnsembleStats:
    """Aggregated results of n_traj independent trajectories.

    class_proportions counts converged trajectories only (their final
    dominant class); convergence_rate reports how many converged.
    histogram pools every scatter angle of the whole ensemble;
    histogram_predicted holds the matching bin masses (summing to 1)
    computed from the initial state.  mean_class_weights is the mean
    class weights at snapshot_indices: sums over chunks of _CHUNK
    trajectories, added in index order, divided by n_traj.  A scatter
    at which a trajectory's own class's multiplier is 0 is not recorded:
    the trajectory keeps the weights before it and counts as aborted.
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
    through its K class weights, which are the posterior of a hidden
    class.  So each trajectory draws its class once and its outcomes
    from that class (_lockstep_block): the one-row case of the lockstep
    batch that sweep_uj runs.  Each trajectory draws from
    its own PCG64 stream and no reduction goes through BLAS, so its
    result does not depend, bit for bit, on which others share its
    block; and float sums over trajectories are taken over fixed chunks,
    so no result depends on the execution order or the worker count.
    CapacityError if the table's set-up and the arrays the run holds
    (_ensemble_memory) exceed _memory_limit, before any is allocated.
    """
    slots = _run_bounds(n_traj, n_events, workers, n_bins, snapshot_stride)
    if not np.array_equal([c.signature for c in classes], table.signatures):
        raise ValueError(f"{len(classes)} classes for a table of "
                         f"{len(table.ns_prob)}, or out of its signature order")
    setup = table.setup
    _check_memory(setup, _ensemble_memory(
        n_traj, n_bins, len(slots), len(classes), setup.lattice.M))

    w0 = _state_weights(initial, table)
    out = _lockstep(w0[None, :], n_traj, [master_seed], table, n_events,
                    n_bins, slots, workers)
    histogram = out["histogram"]
    proportions, n_conv, end_class, converged = _end_proportions(out["final"])

    return EnsembleStats(
        n_traj=n_traj, n_events=n_events, n_bins=n_bins,
        master_seed=master_seed, seeds=out["seeds"],
        class_signatures=tuple(c.signature for c in classes),
        class_proportions=proportions,
        class_proportions_predicted=w0,
        histogram=histogram,
        histogram_predicted=predicted_bin_masses(initial, table, n_bins),
        convergence_rate=n_conv / n_traj,
        final_class_weights=out["final"],
        converged_mask=converged,
        end_class_index=end_class,
        snapshot_indices=np.array(list(slots), dtype=np.int64),
        mean_class_weights=out["sums"].sum(axis=0) / n_traj,
        scatter_counts=out["scatter_counts"],
        n_scatter_total=int(histogram.sum()),
        aborted_count=int(np.count_nonzero(~out["alive"])))


def _run_bounds(n_traj: int, n_events: int, workers: int, n_bins: int,
                snapshot_stride: int) -> dict[int, int]:
    """Snapshot schedule of an ensemble run; ValueError for a trajectory
    count, event count, worker count, bin count or stride no run can
    take."""
    for name, value in (("n_traj", n_traj), ("n_events", n_events),
                        ("workers", workers), ("n_bins", n_bins)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return _snapshot_slots(n_events, snapshot_stride)


def _end_proportions(final):
    """From trajectories' final class weights, shape (n, K): the share
    of the converged ones ending in each class, how many converged, and
    per trajectory its end class and whether it converged."""
    end_class = np.argmax(final, axis=1)
    converged = np.max(final, axis=1) > CONVERGENCE_THRESHOLD
    n_conv = int(np.count_nonzero(converged))
    counts = np.bincount(end_class[converged], minlength=final.shape[1])
    return counts / max(n_conv, 1), n_conv, end_class, converged


def _pool_size(workers: int, n: int) -> int:
    """Processes worth starting: no more than trajectories or the CPUs
    this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(workers, n, cpus)


def _block_size(n: int, k: int, procs: int) -> int:
    """Trajectories per lockstep block of n over k classes on procs
    processes, in whole _CHUNKs, the one rule _lockstep cuts by."""
    size = min(max(1, _BLOCK_WEIGHTS // k), -(-n // procs))
    return -(-size // _CHUNK) * _CHUNK


def _lockstep(w0, n_traj, row_seeds, table, n_events, n_bins, slots,
              workers):
    """Run n_traj trajectories from each row r of class weights w0, shape
    (rows, K): trajectory j of row r on seed trajectory_seed(row_seeds[r],
    j), at index r n_traj + j.

    The list is cut once, from index 0, into blocks of _block_size(n, K,
    procs), procs being workers capped by the trajectory and CPU counts;
    one pool runs them, or this process if one suffices.
    Returns the seeds it ran; the histogram of every scatter angle in
    n_bins bins; the weight sums at the slots' snapshots of each chunk,
    which do not depend on the cut, (chunks, snapshots, K); and each
    trajectory's final class weights, scatter count and alive flag.
    """
    seeds = np.array([trajectory_seed(s, j) for s in row_seeds
                      for j in range(n_traj)], dtype=np.uint64)
    n = len(seeds)
    row_of = np.repeat(np.arange(len(w0)), n_traj)
    procs = _pool_size(workers, n)
    size = _block_size(n, w0.shape[1], procs)
    args = [(w0, row_of[a:a + size], seeds[a:a + size], table, n_events,
             n_bins, slots) for a in range(0, n, size)]
    procs = min(procs, len(args))
    if procs == 1:
        parts = [_lockstep_block(*a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_lockstep_block, *zip(*args)))

    out = {key: np.concatenate([p[key] for p in parts]) for key in
           ("sums", "final", "scatter_counts", "alive")}
    out["histogram"] = np.sum([p["histogram"] for p in parts], axis=0)
    out["seeds"] = seeds
    return out


def _lockstep_block(w0, row_of, seeds, table, n_events, n_bins, slots):
    """Run a block of trajectories, trajectory i from row row_of[i] of
    w0, binning every scatter into one histogram and counting each
    trajectory's, and at each snapshot of slots sum the class weights
    over each _CHUNK trajectories from the block's first.

    The weights are the posterior of a hidden class, so trajectory i
    draws its class k from its row's P (_draw_classes), then each event
    from k alone.  Each uniform block, cut at snapshots, is worked where
    it scatters (_scatter_slices), and the log weights are normalised at
    each snapshot and at the end (_posterior), as a record does.
    """
    n, k = len(seeds), w0.shape[1]
    histogram = np.zeros(n_bins, dtype=np.int64)
    starts = np.arange(0, n, _CHUNK)
    sums = np.empty((len(starts), len(slots), k))
    if 0 in slots:
        sums[:, 0] = np.add.reduceat(w0[row_of], starts)
    streams, cls = _draw_classes(w0, row_of, seeds)
    with np.errstate(divide="ignore"):
        log_sums, log_ns = np.log(w0)[row_of], np.log(table.ns_prob)
    counts = np.zeros(n, dtype=np.int64)
    # the events each trajectory has run: n_events unless it ended
    end = np.full(n, n_events)
    ns_own = table.ns_prob[cls]
    block = np.empty((n, _UNIFORM_BLOCK))
    for a in range(0, n_events, _UNIFORM_BLOCK):
        for stream, row in zip(streams, block):
            stream.fill(row)
        lo = a
        for hi in sorted({min(a + _UNIFORM_BLOCK, n_events)}
                         | {m for m in slots if a < m < a + _UNIFORM_BLOCK}):
            uniforms = block[:, lo - a:hi - a]
            rows, cols = ((uniforms >= ns_own[:, None])
                          & (end > lo)[:, None]).nonzero()
            for s, theta, logs in _scatter_slices(rows, cols, uniforms, lo,
                                                  cls, table, end):
                t = rows[s]
                # a trajectory's scatters from its end on are dropped
                keep = lo + cols[s] < end[t]
                if not keep.all():
                    t, theta, logs = t[keep], theta[keep], logs[keep]
                # ufunc.at adds in index order: each sum takes its
                # scatters in turn
                np.add.at(log_sums.reshape(-1),
                          (t[:, None] * k + np.arange(k)).ravel(),
                          logs.ravel())
                histogram += bin_angles(theta, n_bins=n_bins)
                counts += np.bincount(t, minlength=n)
            if hi in slots:
                sums[:, slots[hi]] = np.add.reduceat(_posterior(
                    log_sums, np.minimum(end, hi) - counts, log_ns,
                    np.empty_like(log_sums)), starts)
            lo = hi

    return {"histogram": histogram, "sums": sums,
            "final": _posterior(log_sums, end - counts, log_ns,
                                np.empty_like(log_sums)),
            "scatter_counts": counts, "alive": end == n_events}


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _memory_limit(root: str = "/") -> tuple[int, str]:
    """Bytes this process may hold, and what limits them: the least of
    physical memory, RLIMIT_DATA and its cgroup's memory.max (v2) or
    memory.limit_in_bytes (v1); an absent, unreadable or "max" file not."""
    data = resource.getrlimit(resource.RLIMIT_DATA)[0]
    limits = [(_physical_memory(), "physical memory"), (
        math.inf if data == resource.RLIM_INFINITY else data, "RLIMIT_DATA")]
    with contextlib.suppress(OSError):
        lines = Path(root, "proc/self/cgroup").read_text().splitlines()
        for _, controllers, path in (line.split(":", 2) for line in lines):
            v1 = "memory" in controllers.split(",")
            limit = Path(root, "sys/fs/cgroup", "memory" * v1, path[1:],
                         "memory.limit_in_bytes" if v1 else "memory.max")
            with contextlib.suppress(OSError, ValueError):
                if v1 or not controllers:
                    limits.append((int(limit.read_text()),
                                   f"the cgroup's {limit.name}"))
    return min(limits, key=lambda limit: limit[0])


def _memory_need(setup: ScatteringSetup) -> int:
    """Upper bound, in bytes, of what prepare_system allocates at its peak.

    Per basis state: its occupation tuple and array, the signature
    partition's sort buffers and index arrays, and its class entry, under
    96 + 64 M bytes.  The rank-M pattern table and its build buffers take
    under eight (n_theta + 1) x M arrays.  The sparse H has at most one
    off-diagonal entry per state and directed bond, 24 bytes each as it
    is kept (value, row, column), 12 more while the per-bond hop lists it
    is built from are alive, or 8 more for the gathered products of a
    matvec.  Per state it adds its diagonal, one bond's hop copies and
    rank buffers (four M-wide rows), the Lanczos basis of
    _LANCZOS_NCV + 1 vectors, the _LANCZOS_KEEP vectors of a restart's
    product, and four vectors of matvec and residual temporaries.  The
    tracemalloc peak of prepare_system is 0.42-0.67 of this bound at
    M = N = 3..10.
    """
    lattice = setup.lattice
    dim = fock_dimension(lattice.M, lattice.N)
    need = dim * (96 + 64 * lattice.M) + 64 * (setup.n_theta + 1) * lattice.M
    nnz = 2 * dim * (lattice.M - 1 + (lattice.boundary == Boundary.PERIODIC))
    per_state = 1 + 4 * lattice.M + _LANCZOS_NCV + 1 + _LANCZOS_KEEP + 4
    return need + 36 * nnz + 8 * dim * per_state


def _trajectory_memory(n_events: int, snapshot_stride: int, dim: int,
                       n_classes: int, M: int) -> int:
    """Upper bound, in bytes, of what run_trajectory holds for one record
    of n_events events over dim Fock states of M sites in n_classes classes.

    Throughout: the class weights and overlaps, twelve D-wide complex
    vectors and 64 kB of fixed objects.  Then the larger of the draw, as
    many log sums as weights and under 80 bytes of uniform, indices and
    angle per event as if every event scattered, with the larger of a
    scatter slice (its multiplier products, four K-wide and two M-wide
    rows and eight words per scatter) and a posterior pass (its gathered
    log sums, a K-wide cast and six words per event, a 64 kB buffer); and
    the record: the snapshots, each under 512 bytes of objects, under 304
    bytes of DetectionEvents, angles and indices per event, a pass of
    _PASS_EVENTS events' D-wide ratios and products and K-wide
    quotients, and a kick slice's (scatters, D, M) complex products with
    two complex occupation casts and five D-wide words per scatter.
    """
    scatters = min(max(1, _SLICE_WEIGHTS // (n_classes * M)), n_events)
    events = min(max(1, _SLICE_WEIGHTS // n_classes), n_events + 1)
    kicks = min(max(1, _SLICE_WEIGHTS // (2 * dim * M)), n_events)
    draw = (8 * (n_events + 1) * n_classes + 80 * n_events
            + max(8 * scatters * (n_classes * (M + 4) + 2 * M + 8),
                  8 * events * (2 * n_classes + 6) + (1 << 16)))
    record = ((n_events // snapshot_stride + 2) * (16 * dim + 512)
              + 304 * n_events + _PASS_EVENTS * (24 * dim + 16 * n_classes)
              + 16 * dim * (kicks * (M + 5) + 2 * M))
    return (8 * (n_events + 1) * (n_classes + 1) + 192 * dim
            + max(draw, record) + (1 << 16))


def _ensemble_memory(n_traj: int, n_bins: int, snapshots: int,
                     n_classes: int, M: int) -> int:
    """Upper bound, in bytes, of what run_ensemble holds for n_traj
    trajectories, n_bins histogram bins, snapshots snapshot sums and
    n_classes classes on M sites.

    Per bin: the histogram and a block's, the bin edges and centres, the
    predicted masses and angle_cdf's (n_bins + 1) x M temporaries, under
    (16 + 8 M) words.  Per row of the largest block this process runs:
    K log weights and K normalised ones, a PCG64 stream (944 bytes),
    class, count and end, and per event of a uniform block its uniform,
    scatter flag and, as if it scattered, two indices.  Per scatter of
    the largest slice: the (scatters, K, M) product of the multipliers,
    four K-wide rows and the search's eight M-wide rows and 32 words.
    Per trajectory: its final weights in its block and in their
    concatenation, and eight words of seed, row, count and flags.  Per
    chunk of _CHUNK trajectories: its K class weights at each snapshot,
    in its block and in the concatenated sums.  And 64 kB of fixed
    objects.
    """
    chunks = -(-n_traj // _CHUNK)
    b = min(n_traj, _block_size(n_traj, n_classes, 1))
    scatters = min(max(1, _SLICE_WEIGHTS // (n_classes * M)),
                   b * _UNIFORM_BLOCK)
    return (8 * (n_bins + 1) * (16 + 8 * M)
            + 8 * n_classes * (2 * n_traj + 2 * b + 2 * snapshots * chunks)
            + b * (1024 + 25 * _UNIFORM_BLOCK)
            + 8 * scatters * (n_classes * (M + 4) + 8 * M + 32)
            + 64 * n_traj + (1 << 16))


def _gib(n: int) -> str:
    """n bytes in GiB to one decimal; inf where no float holds it."""
    return f"{n / 2**30 if n < 2**1000 else math.inf:.1f}"


def _check_memory(setup: ScatteringSetup, engine: int = 0) -> None:
    """Raise CapacityError if prepare_system's basis, Hamiltonian and
    pattern table, and the engine bytes an engine holds on top of them,
    would not fit in the memory this process may use (_memory_limit).

    Called with engine = 0 before anything of the basis' size is
    allocated, and again by run_ensemble, sweep_uj and the trajectory
    command with their engine's bytes before the engine allocates them,
    so that an oversized run exits cleanly instead of being killed for
    memory.
    """
    dim = fock_dimension(setup.lattice.M, setup.lattice.N)
    need = _memory_need(setup) + engine
    have, limit = _memory_limit()
    if need > have:
        held = f", with {_gib(engine)} GiB for its engine" if engine else ""
        raise CapacityError(
            f"Fock dimension {dim} at n_theta={setup.n_theta} needs "
            f"{_gib(need)} GiB for its basis, Hamiltonian and pattern "
            f"table{held}, more than the {_gib(have)} GiB of {limit}")


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
    (see lattice.ground_state).  Row i's trajectories start from its
    class weights on the seeds _lockstep derives from the row's master
    seed, trajectory_seed(master_seed, i), as run_ensemble derives them
    from its own, so each row is the run_ensemble of its ground state at
    that master seed, bit for bit, and the whole sweep is reproducible.
    All rows share one basis, one partition and one pattern table, whose
    class weights are all a row reads, so no EquivalenceClass (nor the
    occupation tuples it holds) is built.  Every row's ground state is
    solved first, then all rows' trajectories advance together in one
    lockstep batch (_lockstep), cut once into blocks that one pool of
    workers runs.  No row output reads snapshots or the angle histogram,
    so snapshot_stride and n_bins are only validated, with the other run
    bounds, before anything is enumerated or solved.  Once the table is
    built, the memory guard counts the batch's arrays too.
    """
    values = list(uj_values)
    for uj in values:
        if not (uj >= 0):
            raise ValueError(f"U/J values must be >= 0, got {uj}")
    _run_bounds(n_traj, n_events, workers, n_bins, snapshot_stride)
    if not values:
        return []

    basis, table = _tabulate(lattice, setup)
    _check_memory(setup, _ensemble_memory(
        len(values) * n_traj, 1, 0, len(table.signatures), lattice.M))
    energies, w0 = [], []
    for uj in values:
        if math.isinf(uj):
            params = HubbardParams(J=0.0, U=1.0)
        else:
            params = HubbardParams(J=1.0, U=float(uj))
        energy, psi = ground_state(build_hamiltonian(basis, params), basis)
        energies.append(energy)
        w0.append(_state_weights(psi, table))

    # no row output reads the histogram: one bin keeps it from growing
    out = _lockstep(np.array(w0), n_traj,
                    [trajectory_seed(master_seed, i)
                     for i in range(len(values))],
                    table, n_events, 1, {}, workers)

    rows = []
    for i, uj in enumerate(values):
        proportions, n_conv, _, _ = _end_proportions(
            out["final"][i * n_traj:(i + 1) * n_traj])
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
