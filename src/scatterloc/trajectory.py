"""Stochastic measurement trajectories on class weights and phases.

Each detection event either records a scattered probe at some angle or
records that the probe passed through.  Every detection operator is
diagonal in the Fock basis and scales all members of a signature class
by the same modulus: |A_k| for a missed probe, |F_k(theta)| for a probe
detected at theta.  A trajectory is therefore its K class weights w_k
plus the phases Phi_u = sum_j arg F_u(theta_j) of its scatter events,

    c_u(m) = c_u(0) sqrt(w_k(m) / P_k) exp(i Phi_u(m)),   u in class k,

with P = w(0): the quantum-jump unravelling (Dalibard, Castin and
Molmer, PRL 68, 580 (1992)) restricted to the classes.

The class weights are the posterior of a hidden class given the
outcomes, so records and ensembles (analysis) draw each trajectory's
class k once from P (_draw_classes), then each event from class k alone
(_scatter_slices), and take its weights as the _posterior of its log
multipliers.  step applies one event to a state through _event_step,
which draws from the state's own density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
# numpy loads numpy.random on first attribute access; load it with the
# package, so that its import is set-up, not part of the first command
import numpy.random

from .kernel import (PatternTable, _signature_angles, _state_weights,
                     _structure_amplitudes, pattern_basis, sample_angles)
from .lattice import ManyBodyState

CONVERGENCE_THRESHOLD = 0.99

# trajectories x events of overlaps and snapshots computed per pass
_PASS_EVENTS = 16

# scatters x classes x sites of multiplier products a slice holds (256 kB)
_SLICE_WEIGHTS = 1 << 15


class EventKind(str, Enum):
    SCATTER = "scatter"
    NONSCATTER = "nonscatter"


class ZeroNormProjectionError(Exception):
    """A measurement projected the state onto the zero vector."""


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """One detection: 1-based index m, outcome kind, angle if scattered."""

    index: int
    kind: EventKind
    theta: float | None = None


def trajectory_seed(master_seed: int, traj_index: int) -> int:
    """Independent per-trajectory seed derived from the master seed.

    Spawning through SeedSequence decorrelates the streams no matter how
    close the (master_seed, traj_index) pairs are.
    """
    ss = np.random.SeedSequence((master_seed, traj_index))
    return int(ss.generate_state(1, np.uint64)[0])


class RngStream:
    """Uniform [0, 1) stream backed by a counter-seeded PCG64 generator.

    Same seed, same sequence, bit for bit, on every platform numpy
    supports.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self) -> float:
        return float(self._gen.random())

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Fill a contiguous float64 array with the next out.size draws,
        bit for bit the values of out.size successive uniform() calls."""
        return self._gen.random(out=out)


def _snapshot_slots(n_events: int, stride: int) -> dict[int, int]:
    """The snapshot schedule: the slot, in event order, of each snapshot
    event: 0, every multiple of the stride, and the last."""
    if stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")
    events = sorted({0, n_events, *range(stride, n_events + 1, stride)})
    return {m: s for s, m in enumerate(events)}


def _scatter_multipliers(theta, table: PatternTable) -> np.ndarray:
    """|F_k(theta)|^2 = C_k . b(theta) of each class's signature C_k at
    every row's detected angle: shape (len(theta), K).

    The coupling prefactor and the envelope factor I(theta)^2 are common
    to all classes at a given angle, so they cancel on renormalization
    and are left out.  The basis functions are signed, so a vanishing
    |F_k|^2 can round below zero; it is clamped at 0.  Summed elementwise
    along each row, never by a BLAS call, so an angle's multipliers do
    not depend on the other angles, bit for bit.
    """
    sig = table.signatures
    b = pattern_basis(theta, table.setup.k0_a, sig.shape[1])
    return np.maximum((b[:, None, :] * sig).sum(axis=2), 0.0)


def _draw_classes(w0, row_of, seeds):
    """Each trajectory i's stream on seeds[i], and its class drawn from
    class weights w0[row_of[i]] with the stream's first uniform u: the
    first whose cumulative weight exceeds u cum[-1], never one of
    weight 0."""
    streams = [RngStream(int(seed)) for seed in seeds]
    u = np.array([stream.uniform() for stream in streams])
    cum = np.cumsum(w0, axis=1)
    cls = np.count_nonzero(cum[row_of] <= (u * cum[row_of, -1])[:, None],
                           axis=1)
    last = w0.shape[1] - 1 - np.argmax(w0[:, ::-1] > 0, axis=1)
    return streams, np.minimum(cls, last[row_of])


def _scatter_slices(rows, cols, uniforms, lo, cls, table: PatternTable,
                    end):
    """Angles and log multipliers of the scatters of trajectories rows,
    in trajectory then event order, at 0-based events lo + cols with
    uniforms uniforms[rows, cols] and classes cls[rows], in slices of
    max(1, _SLICE_WEIGHTS // (K M)) scatters: yields each slice with its
    angles, at quantile (u - |A_k|^2) / (1 - |A_k|^2) of class k's own
    density, and every class's log multiplier at them.  A scatter at
    which its own class's multiplier is 0 first lowers end, in place, to
    its event: the trajectory ends before it."""
    sig = table.signatures
    per = max(1, _SLICE_WEIGHTS // sig.size)
    for a in range(0, rows.size, per):
        s = slice(a, a + per)
        t, col = rows[s], cols[s]
        k = cls[t]
        ns = table.ns_prob[k]
        v = (uniforms[t, col] - ns) / (1.0 - ns)
        theta = _signature_angles(sig[k], v, table)
        with np.errstate(divide="ignore"):
            logs = np.log(_scatter_multipliers(theta, table))
        fatal = logs[np.arange(t.size), k] == -np.inf
        np.minimum.at(end, t[fatal], lo + col[fatal])
        yield s, theta, logs


def _posterior(log_sums, n_ns, log_ns, out) -> np.ndarray:
    """Class weights exp(log_sums + n_ns log_ns), written to out and
    returned, the product 0 where n_ns = 0, each row normalised after its
    largest entry is subtracted."""
    out[...] = 0.0
    np.multiply(n_ns[:, None], log_ns, out=out, where=n_ns[:, None] > 0)
    out += log_sums
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _event_step(w, r, alive, table: PatternTable):
    """One detection on every row of class weights w, shape (rows, K),
    decided by the row's uniform r.

    A live row scatters where r >= its non-scatter probability p_ns, at
    the angle of quantile (r - p_ns) / (1 - p_ns), and is multiplied by
    |F_k(theta)|^2; every other row by |A_k|^2.  Then each row is
    renormalized.  Rows not alive keep their weights.  A live row whose
    weights are annihilated keeps its last weights and is cleared from
    alive, in place, and its fatal scatter is dropped.  Returns the new
    weights, the rows that scattered and survived, their angles and the
    mask of rows that died at this event.  Every reduction is an
    elementwise product summed along one row, never a BLAS call, so a
    row's result does not depend, bit for bit, on the other rows.
    """
    q = w * table.ns_prob
    s = p_ns = np.add.reduce(q, axis=1)
    rows = ((r >= p_ns) & alive).nonzero()[0]
    theta = np.empty(0)
    if rows.size:
        wr = w[rows]
        v = (r[rows] - p_ns[rows]) / (1.0 - p_ns[rows])
        theta = sample_angles(wr, v, table)
        q[rows] = wr * _scatter_multipliers(theta, table)
        s = np.add.reduce(q, axis=1)
    healthy = (s > 0.0) & np.isfinite(s)
    if healthy.all() and alive.all():
        return q / s[:, None], rows, theta, ~healthy
    dying = alive & ~healthy
    alive &= ~dying
    keep = ~dying[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(alive[:, None], q / s[:, None], w)
    return w, rows[keep], theta[keep], dying


def _phase_kicks(theta, table: PatternTable) -> np.ndarray:
    """exp(i arg F_u(theta)) of every basis state at every angle: shape
    (len(theta), D).

    Where F_u vanishes to rounding, below eps N (1 + k0_a M), the kick is
    1, so the old phase is kept; the class weight goes to zero there.
    """
    setup = table.setup
    amps = _structure_amplitudes(table.basis.occupations, theta, setup.k0_a)
    mod = np.abs(amps)
    floor = (np.finfo(np.float64).eps * setup.lattice.N
             * (1.0 + setup.k0_a * setup.lattice.M))
    return np.divide(amps, mod, out=np.ones_like(amps), where=mod > floor)


def _amplitude_ratios(w, p) -> np.ndarray:
    """sqrt(w_k / p_k) of every row of class weights w; 0 where p_k = 0."""
    return np.sqrt(np.divide(w, p, out=np.zeros_like(w), where=p > 0.0))


def step(state: ManyBodyState, table: PatternTable, rng: RngStream,
         index: int = 0) -> tuple[ManyBodyState, DetectionEvent]:
    """Sample one detection event with one rng.uniform() draw and apply
    the matching projection.

    The event step runs on the state's one row of class weights; each
    coefficient is then rescaled by sqrt(w'_k / w_k) of its class and,
    on a scatter, kicked by the phase of its structure amplitude.
    Raises ZeroNormProjectionError if the projection annihilates the
    state.
    """
    w = _state_weights(state, table)[None, :]
    new, rows, theta, dying = _event_step(
        w, np.array([rng.uniform()]), np.ones(1, dtype=bool), table)
    if dying[0]:
        raise ZeroNormProjectionError("projection annihilated the state")
    c = state.coeffs * _amplitude_ratios(new, w)[0, table.class_of]
    event = DetectionEvent(index, EventKind.NONSCATTER)
    if rows.size:
        c = c * _phase_kicks(theta, table)[0]
        event = DetectionEvent(index, EventKind.SCATTER, float(theta[0]))
    return ManyBodyState.from_coefficients(state.basis, c), event


@dataclass
class TrajectoryRecord:
    """Everything observed along one trajectory.

    Series include the starting point: row/element 0 describes the state
    before any probe, element m the state after the m-th detection.
    snapshots holds (m, coefficient copy) pairs when a stride was
    requested.
    """

    seed: int
    events: list[DetectionEvent]
    initial_state: ManyBodyState
    final_state: ManyBodyState
    overlap_sq_series: np.ndarray = field(repr=False)
    class_weights: np.ndarray = field(repr=False)
    snapshots: tuple[tuple[int, np.ndarray], ...] | None = None
    aborted: bool = False

    @property
    def class_weights_final(self) -> np.ndarray:
        return self.class_weights[-1]

    @property
    def converged(self) -> bool:
        return bool(np.max(self.class_weights_final) > CONVERGENCE_THRESHOLD)

    @property
    def n_scatter(self) -> int:
        return sum(1 for e in self.events if e.kind == EventKind.SCATTER)

    def scatter_angles(self) -> np.ndarray:
        return np.array([e.theta for e in self.events
                         if e.kind == EventKind.SCATTER])


def _mixture_weights(big_p, table: PatternTable, n_events: int, seeds):
    """Class weights of one trajectory per seed from class weights P at
    events 0..n_events, shape (seeds, n_events + 1, K), past a
    trajectory's end its last; the scatters before the ends as
    trajectory, 0-based event and angle, in trajectory then event order;
    and the events each trajectory ran.  Trajectory b's log sums are
    log P, then their running sum over its scatters' log multipliers."""
    n_traj, n_classes = len(seeds), len(big_p)
    streams, cls = _draw_classes(big_p[None, :],
                                 np.zeros(n_traj, dtype=np.intp), seeds)
    uniforms = np.empty((n_traj, n_events))
    for stream, row in zip(streams, uniforms):
        stream.fill(row)
    rows, cols = (uniforms >= table.ns_prob[cls][:, None]).nonzero()
    end = np.full(n_traj, n_events)
    # trajectory b's scatters from before[b], its log sums from first[b]
    before = np.searchsorted(rows, np.arange(n_traj + 1))
    first = before + np.arange(n_traj + 1)
    log_sums = np.empty((first[-1], n_classes))
    with np.errstate(divide="ignore"):
        log_sums[first[:-1]] = np.log(big_p)
        log_ns = np.log(table.ns_prob)
    thetas = np.empty(rows.size)
    at = np.arange(rows.size) + rows + 1
    for s, theta, logs in _scatter_slices(rows, cols, uniforms, 0, cls,
                                          table, end):
        thetas[s] = theta
        log_sums[at[s]] = logs

    weights = np.empty((n_traj, n_events + 1, n_classes))
    per = max(1, _SLICE_WEIGHTS // n_classes)
    for b in range(n_traj):
        logs = log_sums[first[b]:first[b + 1]]
        np.cumsum(logs, axis=0, out=logs)
        after = cols[before[b]:before[b + 1]] + 1
        for a in range(0, n_events + 1, per):
            m = np.minimum(np.arange(a, min(a + per, n_events + 1)), end[b])
            j = np.searchsorted(after, m, side="right")
            _posterior(logs[j], m - j, log_ns, weights[b, a:a + per])
    weights[:, 0] = big_p
    kept = cols < end[rows]
    return weights, rows[kept], cols[kept], thetas[kept], end


def run_trajectories(initial_state: ManyBodyState, table: PatternTable,
                     n_events: int, seeds,
                     snapshot_stride: int | None = None
                     ) -> list[TrajectoryRecord]:
    """Run n_events detection events from the given initial state, one
    trajectory per seed: the one run_ensemble runs on that seed, drawn
    with no loop over events.

    Row m of a record's class_weights holds the summed probability in
    each signature class of the table, in the order of build_classes,
    after the m-th detection (_mixture_weights).  Snapshots and the
    final state are c_u(0) sqrt(w_k / P_k) z_u, with phase factors z_u
    kicked per slice of scatters, so a class with P_k = 0 stays exactly
    0, and the overlap <psi_0|psi_m> is sum_u |c_u(0)|^2 sqrt(w_k / P_k)
    z_u, both computed over each run of events in which no z changed.  A
    scatter at which the record's own class's multiplier is 0 ends it
    before that scatter, aborted.  A record does not depend, bit for
    bit, on which other seeds share the batch.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    due = {} if snapshot_stride is None else _snapshot_slots(
        n_events, snapshot_stride)

    seeds = [int(seed) for seed in seeds]
    n_traj = len(seeds)
    c0 = initial_state.coeffs
    p0 = initial_state.probabilities
    big_p = _state_weights(initial_state, table)
    class_of = table.class_of

    weights, rows, cols, thetas, end = _mixture_weights(big_p, table,
                                                        n_events, seeds)
    z = np.ones((n_traj, len(c0)), dtype=np.complex128)
    pz = p0 * z
    overlap_sq = np.empty((n_traj, n_events + 1))
    overlap_sq[:, 0] = 1.0
    snaps = [(0, np.tile(c0, (n_traj, 1)))] if due else []

    span = max(1, _PASS_EVENTS // max(1, n_traj))

    def flush(start, stop):
        # events start..stop - 1, over which no row's z changed, span at
        # a time; take keeps each event's (rows, D) sum in its own order
        for a in range(start, stop, span):
            b = min(a + span, stop)
            ratios = _amplitude_ratios(weights[:, a:b], big_p).take(
                class_of, axis=-1)
            overlap_sq[:, a:b] = np.abs(
                (pz[:, None] * ratios).sum(axis=2)) ** 2
            snaps.extend((m, c0 * ratios[:, m - a] * z)
                         for m in range(a, b) if m in due)

    # the kept scatters in event then trajectory order, in slices whose
    # (scatters, D, M) complex amplitude products hold 256 kB
    order = np.argsort(cols, kind="stable")
    per = max(1, _SLICE_WEIGHTS // (2 * table.basis.occupations.size))
    start = 1
    for a in range(0, order.size, per):
        s = order[a:a + per]
        kicks = _phase_kicks(thetas[s], table)
        m = cols[s] + 1
        cuts = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), s.size]
        for i, k in zip(cuts[:-1], cuts[1:]):
            flush(start, m[i])
            start = m[i]
            t = rows[s[i:k]]
            z[t] *= kicks[i:k]
            pz[t] = p0 * z[t]
    flush(start, n_events + 1)

    final = c0 * _amplitude_ratios(weights[:, -1], big_p)[:, class_of] * z
    # events are immutable, so the records share their non-scatter ones
    nonscatter = [DetectionEvent(m, EventKind.NONSCATTER)
                  for m in range(1, n_events + 1)]
    bounds = np.searchsorted(rows, np.arange(n_traj + 1))
    records = []
    for b, seed in enumerate(seeds):
        n = int(end[b])
        events = nonscatter[:n]
        own = slice(bounds[b], bounds[b + 1])
        for i, theta in zip(cols[own].tolist(), thetas[own].tolist()):
            events[i] = DetectionEvent(i + 1, EventKind.SCATTER, theta)
        records.append(TrajectoryRecord(
            seed=seed, events=events, initial_state=initial_state,
            final_state=ManyBodyState.from_coefficients(
                initial_state.basis, final[b], normalize=False),
            overlap_sq_series=overlap_sq[b, :n + 1],
            class_weights=weights[b, :n + 1],
            snapshots=(tuple((m, c[b]) for m, c in snaps if m <= n)
                       if due else None),
            aborted=n < n_events))
    return records


def run_trajectory(initial_state: ManyBodyState, table: PatternTable,
                   n_events: int, seed: int,
                   snapshot_stride: int | None = None) -> TrajectoryRecord:
    """Run n_events detection events from the given initial state: a
    batch of one in run_trajectories, whose docstring has the details."""
    return run_trajectories(initial_state, table, n_events, [seed],
                            snapshot_stride)[0]
