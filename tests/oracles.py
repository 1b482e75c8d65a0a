"""Reference implementations the tests compare the package against.

Each one computes its quantity for one input at a time, straight from
its definition, and never reads the package's pattern table; the
per-basis trajectory loop at the end reads only its class densities and
angle sampler, and evolves the complex coefficients themselves.
"""

import math

import numpy as np

from scatterloc.kernel import (
    PatternTable,
    envelope_factor,
    sample_angles,
    structure_amplitudes,
)
from scatterloc.lattice import ManyBodyState, overlap
from scatterloc.trajectory import (
    DetectionEvent,
    EventKind,
    RngStream,
    TrajectoryRecord,
    ZeroNormProjectionError,
)


def momentum_transfer(theta) -> np.ndarray:
    """In-plane momentum transfer (1-cos(theta), -sin(theta)), in units of k0."""
    return np.array([1.0 - np.cos(theta), -np.sin(theta)])


def structure_amplitude(occ, theta: float, setup) -> complex:
    """Phase sum F(theta) = sum_j n_j exp(-i (j-1) k0_a sin(theta))."""
    phase = -setup.k0_a * math.sin(theta)
    return complex(sum(n * np.exp(1j * phase * j) for j, n in enumerate(occ)))


def density_quantile(grid: np.ndarray, density: np.ndarray, q: float) -> float:
    """Inverse CDF of the piecewise-linear density for one q in [0, 1).

    Exact for densities that really are piecewise linear on the grid;
    inside a cell the quadratic CDF is inverted in the numerically stable
    form x = 2 s / (f_k + sqrt(f_k^2 + 2 slope s)).
    """
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    f = np.concatenate([density, density[:1]])
    cell_mass = 0.5 * h * (f[:-1] + f[1:])
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])

    target = q * cum[-1]
    k = int(np.searchsorted(cum, target, side="right")) - 1
    k = min(max(k, 0), n - 1)
    s = target - cum[k]
    slope = (f[k + 1] - f[k]) / h
    denom = f[k] + math.sqrt(max(f[k] * f[k] + 2.0 * slope * s, 0.0))
    x = 2.0 * s / denom if denom > 0.0 else 0.0
    x = min(max(x, 0.0), h)
    theta = grid[k] + x
    if theta >= math.pi:
        theta -= 2.0 * math.pi
    return float(theta)


# The per-basis trajectory engine the package ran before its class-weight
# event step: every event evolves the complex coefficient vector itself.

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
    c = state.coeffs * table.ns_amp[table.class_of]
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
    of the current angular density, both computed from the state's class
    weights.
    """
    w = table.class_weights(state.probabilities)
    p_ns = float(np.sum(w * table.ns_prob))
    r = rng.uniform()
    if r < p_ns:
        return DetectionEvent(index, EventKind.NONSCATTER)
    v = (r - p_ns) / (1.0 - p_ns)
    theta = sample_angles(w[None, :], np.array([v]), table)[0]
    return DetectionEvent(index, EventKind.SCATTER, float(theta))


def step(state: ManyBodyState, table: PatternTable, rng: RngStream,
         index: int = 0) -> tuple[ManyBodyState, DetectionEvent]:
    """Sample one detection event and apply the matching projection."""
    event = sample_event(state, table, rng, index)
    if event.kind is EventKind.NONSCATTER:
        return apply_nonscatter(state, table), event
    return apply_scatter(state, event.theta, table), event


def per_basis_trajectory(initial_state: ManyBodyState, table: PatternTable,
                         n_events: int, seed: int,
                         snapshot_stride: int | None = None
                         ) -> TrajectoryRecord:
    """Run n_events detection events from the given initial state.

    Row m of the record's class_weights holds the state's summed
    probability in each signature class of the table, in the order of
    build_classes, after the m-th detection.  A zero-norm projection aborts the
    trajectory early and sets the aborted flag instead of raising.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")

    rng = RngStream(seed)
    state = initial_state
    events: list[DetectionEvent] = []
    overlaps = [1.0]
    rows = [table.class_weights(state.probabilities)]
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
        rows.append(table.class_weights(state.probabilities))
        if snapshot_stride and (m % snapshot_stride == 0 or m == n_events):
            snaps.append((m, state.coeffs.copy()))

    return TrajectoryRecord(
        seed=seed, events=events, initial_state=initial_state,
        final_state=state, overlap_sq_series=np.array(overlaps),
        class_weights=np.array(rows),
        snapshots=tuple(snaps) if snaps is not None else None,
        aborted=aborted)
