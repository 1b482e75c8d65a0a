"""Single stochastic measurement trajectories.

Each detection event either records a scattered probe at some angle or
records that the probe passed through.  Both outcomes update the lattice
state: a scattered probe multiplies every coefficient by its structure
amplitude at the detected angle, a missed probe multiplies by the
non-scatter amplitude.  Renormalizing after each update keeps the state
a proper probability amplitude vector.

One uniform draw decides each event.  If it falls below the current
non-scatter probability the probe passed; otherwise the excess,
rescaled to [0, 1), is pushed through the inverse CDF of the current
angular density to give the detection angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernel import (
    PatternTable,
    density_quantile,
    envelope_factor,
    signature_groups,
    structure_amplitudes,
)
from .lattice import ManyBodyState, overlap

CONVERGENCE_THRESHOLD = 0.99


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


def apply_scatter(state: ManyBodyState, theta: float,
                  table: PatternTable) -> ManyBodyState:
    """Backaction of a probe detected at angle theta.

    Every coefficient picks up the (complex) structure amplitude of its
    basis state, times the envelope; states whose density patterns cannot
    scatter to theta are suppressed.
    """
    amps = structure_amplitudes(state.basis, theta, table.setup)
    c = state.coeffs * (envelope_factor(theta, table.setup) * amps)
    norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
    if not math.isfinite(norm) or norm < 1e-300:
        raise ZeroNormProjectionError(
            f"scatter projection at theta={theta} annihilated the state")
    return ManyBodyState.from_coefficients(state.basis, c)


def apply_nonscatter(state: ManyBodyState, table: PatternTable) -> ManyBodyState:
    """Backaction of a probe that passed without scattering.

    The non-scatter amplitudes are real and non-negative, so this leaves
    all coefficient phases alone and reweights towards weakly scattering
    basis states.
    """
    c = state.coeffs * table.ns_amp
    norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
    if not math.isfinite(norm) or norm < 1e-300:
        raise ZeroNormProjectionError("non-scatter projection annihilated "
                                      "the state")
    return ManyBodyState.from_coefficients(state.basis, c)


def sample_event(state: ManyBodyState, table: PatternTable, rng: RngStream,
                 index: int = 0) -> DetectionEvent:
    """Draw the outcome of the next probe with a single uniform number.

    Below the non-scatter probability the probe passed; otherwise the
    excess, rescaled to [0, 1), picks the angle through the inverse CDF
    of the current angular density.
    """
    probs = state.probabilities
    p_ns = float(probs @ table.ns_prob)
    r = rng.uniform()
    if r < p_ns:
        return DetectionEvent(index, EventKind.NONSCATTER)
    v = (r - p_ns) / (1.0 - p_ns)
    density = probs @ table.weights
    theta = density_quantile(table.theta_grid, density, v)
    return DetectionEvent(index, EventKind.SCATTER, theta)


def step(state: ManyBodyState, table: PatternTable, rng: RngStream,
         index: int = 0) -> tuple[ManyBodyState, DetectionEvent]:
    """Sample one detection event and apply the matching projection."""
    event = sample_event(state, table, rng, index)
    if event.kind is EventKind.NONSCATTER:
        return apply_nonscatter(state, table), event
    return apply_scatter(state, event.theta, table), event


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


def run_trajectory(initial_state: ManyBodyState, table: PatternTable,
                   n_events: int, seed: int, class_indices=None,
                   snapshot_stride: int | None = None) -> TrajectoryRecord:
    """Run n_events detection events from the given initial state.

    class_indices is a sequence of basis-index arrays defining the groups
    whose summed probability is tracked; by default the basis is grouped
    by pattern signature.  A zero-norm projection aborts the trajectory
    early and sets the aborted flag instead of raising.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if class_indices is None:
        class_indices = [ix for _, ix in signature_groups(initial_state.basis)]

    rng = RngStream(seed)
    state = initial_state
    events: list[DetectionEvent] = []
    overlaps = [1.0]
    rows = [_group_weights(state.probabilities, class_indices)]
    snaps = [(0, initial_state.coeffs.copy())] if snapshot_stride else None

    aborted = False
    for m in range(1, n_events + 1):
        try:
            state, event = step(state, table, rng, m)
        except ZeroNormProjectionError:
            aborted = True
            break
        events.append(event)
        overlaps.append(abs(overlap(initial_state, state)) ** 2)
        rows.append(_group_weights(state.probabilities, class_indices))
        if snapshot_stride and (m % snapshot_stride == 0 or m == n_events):
            snaps.append((m, state.coeffs.copy()))

    return TrajectoryRecord(
        seed=seed, events=events, initial_state=initial_state,
        final_state=state, overlap_sq_series=np.array(overlaps),
        class_weights=np.array(rows),
        snapshots=tuple(snaps) if snaps is not None else None,
        aborted=aborted)


def _group_weights(probs: np.ndarray, class_indices) -> np.ndarray:
    return np.array([float(np.sum(probs[ix])) for ix in class_indices])
