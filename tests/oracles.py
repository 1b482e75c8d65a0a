"""Reference implementations the tests compare the package against.

Each one computes its quantity for one input at a time, straight from
its definition, and never reads the package's pattern table; the
per-basis trajectory loop reads only its class densities and angle
sampler, and evolves the complex coefficients themselves, and the mean
fidelity reads only the table's grid quadratures and non-scatter
amplitudes.  The mixture sampler reads only the non-scatter
probabilities and the angle sampler, on one class at a time.  Tests
read the table's per-class columns through class_columns.  The CSV
oracle at the end builds each command's files field by field through
csv.writer.
"""

import csv
import io
import math

import numpy as np

from scatterloc.analysis import (
    bin_centers,
    class_weights,
    prepare_system,
    run_ensemble,
    sweep_uj,
)
from scatterloc.kernel import (
    PatternTable,
    envelope_factor,
    sample_angles,
    scatter_density,
)
from scatterloc.lattice import ManyBodyState, overlap
from scatterloc.trajectory import (
    DetectionEvent,
    EventKind,
    RngStream,
    TrajectoryRecord,
    ZeroNormProjectionError,
    run_trajectory,
    trajectory_seed,
)


def momentum_transfer(theta) -> np.ndarray:
    """In-plane momentum transfer (1-cos(theta), -sin(theta)), in units of k0."""
    return np.array([1.0 - np.cos(theta), -np.sin(theta)])


def grid_quadrature(values: np.ndarray) -> float:
    """Periodic trapezoid rule on theta_grid(n): (2 pi / n) sum(values)."""
    return float((2.0 * math.pi / values.shape[-1]) * np.sum(values, axis=-1))


def dense(H) -> np.ndarray:
    """Dense copy of a SparseSymmetric, from its data, rows and cols."""
    dim = H.shape[0]
    out = np.zeros(H.shape)
    out[np.diag_indices(dim)] = H.data[:dim]
    out[H.rows, H.cols] = H.data[dim:]
    return out


def structure_amplitude(occ, theta: float, setup) -> complex:
    """Phase sum F(theta) = sum_j n_j exp(-i (j-1) k0_a sin(theta))."""
    phase = -setup.k0_a * math.sin(theta)
    return complex(sum(n * np.exp(1j * phase * j) for j, n in enumerate(occ)))


def density_cdf(grid: np.ndarray, density: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """Cumulative mass of the piecewise-linear density below each point.

    The tabulated density is interpolated linearly inside each grid cell
    (with the periodic wrap cell closing the circle at +pi), so each
    cell's mass is the trapezoid h*(f_k + f_{k+1})/2 and the CDF is
    piecewise quadratic.  Points must lie in [-pi, pi].
    """
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    f = np.concatenate([density, density[:1]])
    cell_mass = 0.5 * h * (f[:-1] + f[1:])
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])

    pts = np.asarray(points, dtype=np.float64)
    k = np.clip(np.floor((pts + math.pi) / h).astype(np.int64), 0, n - 1)
    x = pts - grid[k]
    slope = (f[k + 1] - f[k]) / h
    return cum[k] + f[k] * x + 0.5 * slope * x * x


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


def class_columns(table: PatternTable, basis_table=None) -> np.ndarray:
    """Per-class columns sum_d C_kd basis_table[:, d] of a rank-M table
    column set, shape (n_theta + 1, K): the class densities for the
    default table.weights, the class CDFs for table.cum.

    Each entry is an elementwise product summed along the signature
    axis, as the sampler sums a one-hot row's CDF, so a column of
    table.cum is bit for bit the CDF sample_angles searches for that
    class.
    """
    rows = table.weights if basis_table is None else basis_table
    return np.concatenate([(rows[i:i + 64, None, :] * table.signatures)
                           .sum(axis=2) for i in range(0, len(rows), 64)])


def bisection_angles(w: np.ndarray, v: np.ndarray,
                     table: PatternTable) -> np.ndarray:
    """kernel.sample_angles with its grid search as a plain bisection
    over the n + 1 rows of the mixture CDF c . cum[i], c the row's mean
    signature, n.bit_length() passes, each an np.where pair; the
    package's sampler before its power-of-two search.  c_d is the
    np.sum of the contiguous product w_k signatures[k, d] over k, one
    row and one d at a time.
    """
    grid, dens, cum = table.theta_grid, table.weights, table.cum
    n = grid.shape[0]
    h = 2.0 * math.pi / n
    sig = table.signatures
    c = np.array([[np.sum(row * sig[:, d]) for d in range(sig.shape[1])]
                  for row in w])
    target = v * (c * cum[n]).sum(axis=1)
    lo = np.zeros(len(v), dtype=np.int64)
    hi = np.full(len(v), n + 1, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        below = (c * cum[mid]).sum(axis=1) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    k = np.minimum(lo, n - 1)
    s = target - (c * cum[k]).sum(axis=1)
    f0 = np.maximum((c * dens[k]).sum(axis=1), 0.0)
    f1 = np.maximum((c * dens[k + 1]).sum(axis=1), 0.0)
    slope = (f1 - f0) / h
    denom = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * s, 0.0))
    x = np.divide(2.0 * s, denom, out=np.zeros_like(s), where=denom > 0.0)
    theta = grid[k] + np.clip(x, 0.0, h)
    return np.where(theta >= math.pi, theta - 2.0 * math.pi, theta)


# The per-basis trajectory engine the package ran before its class-weight
# event step: every event evolves the complex coefficient vector itself.

def apply_scatter(state: ManyBodyState, theta: float,
                  table: PatternTable) -> ManyBodyState:
    """Backaction of a probe detected at angle theta.

    Every coefficient picks up the (complex) structure amplitude of its
    basis state, times the envelope; states whose density patterns cannot
    scatter to theta are suppressed.
    """
    amps = np.array([structure_amplitude(occ, theta, table.setup)
                     for occ in state.basis.occupations])
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


def fidelity_multipliers(table: PatternTable) -> np.ndarray:
    """lambda_uv = A_u A_v + sum_d X_uv(d) beta_d for every pair of basis
    states: the factor by which the outcome-averaged detection channel
    scales rho_uv.

    X_uv(d) = sum_j n^u_j n^v_{j+d}, d = -(M-1)..M-1, over sites of the
    line, and beta_d = (g^2 / 2 pi) int I^2 exp(i d k0_a sin theta) by
    the table's grid quadrature: I^2 is even in theta and sin odd, so
    beta_d is the quadrature of weights column |d| (which holds
    2 cos(|d| k0_a sin theta) for d != 0), halved for d != 0.  So
    lambda_uu = |A_u|^2 + scatter probability of u = 1, the per-class
    sum rule.
    """
    n = table.basis.occupations.astype(np.float64)
    cells = table.weights[:-1]
    beta = (2.0 * math.pi / cells.shape[0]) * cells.sum(axis=0)
    beta[1:] /= 2.0
    a = table.ns_amp[table.class_of]
    lam = np.outer(a, a) + beta[0] * (n @ n.T)
    for d in range(1, n.shape[1]):
        x = n[:, :-d] @ n[:, d:].T
        lam += beta[d] * (x + x.T)
    return lam


def mean_fidelity(state: ManyBodyState, table: PatternTable,
                  n_events: int) -> np.ndarray:
    """E|<psi_0|psi_m>|^2 = sum_uv p_u p_v lambda_uv^m, m = 0..n_events:
    averaged over records, |<psi_0|psi_m>|^2 is the squared overlap of
    psi_0 with the unnormalized K_record psi_0, and each event's sum of
    K_u conj(K_v) over outcomes is lambda_uv."""
    lam = fidelity_multipliers(table)
    p = state.probabilities
    power = np.ones_like(lam)
    out = np.empty(n_events + 1)
    for m in range(n_events + 1):
        out[m] = p @ power @ p
        power *= lam
    return out


def mixture_trajectories(weights: np.ndarray, table: PatternTable,
                         n_events: int, seeds, threshold: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """First passage and scatter count of trajectories drawn as a mixture
    over classes from class weights P, one per seed.

    Every detection operator is diagonal in the class index, so the
    class weights after m events are the posterior of a hidden class
    given the m outcomes, and the outcomes' law is sum_k P_k prod_i
    p_k(o_i).  Each trajectory therefore draws its class k from P on its
    own stream, then every outcome from class k alone: a non-scatter
    with probability |A_k|^2 (the table's ns_prob), otherwise an angle
    from sample_angles on k's one-hot row.  Its class weights are the
    posterior P_j prod_i p_j(o_i), normalised, with p_j(theta) taken as
    |F_j(theta)|^2 of a member of class j: the probe's coupling and
    envelope are common to every class and cancel.  Returns, per
    trajectory, the first event after which a class weight exceeds
    threshold (n_events + 1 if none does) and its scatter count.
    """
    n_classes = len(weights)
    occ = table.basis.occupations[np.unique(table.class_of,
                                            return_index=True)[1]]
    sites = np.arange(occ.shape[1])
    cum = np.cumsum(weights)
    with np.errstate(divide="ignore"):
        log_p, log_ns = np.log(weights), np.log(table.ns_prob)
    passage, counts = [], []
    for seed in seeds:
        gen = np.random.Generator(np.random.PCG64(seed))
        k = min(int(np.searchsorted(cum, gen.random() * cum[-1],
                                    side="right")), n_classes - 1)
        hits = np.flatnonzero(gen.random(n_events) >= table.ns_prob[k])
        theta = sample_angles(np.eye(n_classes)[np.full(hits.size, k)],
                              gen.random(hits.size), table)
        phases = np.exp(-1j * table.setup.k0_a * np.outer(np.sin(theta),
                                                          sites))
        logs = np.tile(log_ns, (n_events, 1))
        with np.errstate(divide="ignore"):
            logs[hits] = np.log(np.abs(phases @ occ.T) ** 2)
        log_w = log_p + np.cumsum(logs, axis=0)
        # the largest weight is exp(0) = 1 before normalisation
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        past = np.flatnonzero(threshold * w.sum(axis=1) < 1.0)
        passage.append(past[0] + 1 if past.size else n_events + 1)
        counts.append(hits.size)
    return np.array(passage), np.array(counts)


# The CLI's CSV rows as it built them before its one-template-per-file
# format: every field formatted on its own, then csv.writer.  Each
# function runs one command's pipeline on a RunConfig and returns
# {file name: text} for its CSVs.

def _fmt(x: float) -> str:
    """Floats at 17 significant digits: round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def _occ_str(occ) -> str:
    return " ".join(str(int(n)) for n in occ)


class _CsvFiles:
    def __init__(self):
        self.files: dict[str, str] = {}

    def write_csv(self, name: str, header, rows) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.files[name] = buf.getvalue()


def predict_csvs(cfg) -> dict[str, str]:
    system = prepare_system(cfg)
    writer = _CsvFiles()
    psi = system.initial_state

    rows = [
        [i, _occ_str(occ), _fmt(c.real), _fmt(c.imag), _fmt(p), _fmt(system.energy)]
        for i, (occ, c, p) in enumerate(
            zip(system.basis.occupations, psi.coeffs, psi.probabilities))
    ]
    writer.write_csv(
        "ground_state.csv",
        ["basis_index", "occupation", "coeff_re", "coeff_im", "probability",
         "energy"],
        rows)

    density = scatter_density(psi, system.table)
    writer.write_csv(
        "scatter_density.csv",
        ["theta", "density"],
        [[_fmt(t), _fmt(d)] for t, d in zip(system.table.theta_grid, density)])

    probs = class_weights(psi, system.classes)
    rows = [
        [k + 1, _occ_str(cls.signature), len(cls.members),
         "|".join(_occ_str(m) for m in cls.members), _fmt(probs[k])]
        for k, cls in enumerate(system.classes)
    ]
    writer.write_csv(
        "classes.csv",
        ["class_index", "signature", "size", "members", "probability"],
        rows)
    return writer.files


def trajectory_csvs(cfg) -> dict[str, str]:
    system = prepare_system(cfg)
    record = run_trajectory(
        system.initial_state, system.table, cfg.n_events,
        seed=trajectory_seed(cfg.master_seed, 0),
        snapshot_stride=cfg.snapshot_stride)
    writer = _CsvFiles()

    n_classes = len(system.classes)
    header = (["m", "kind", "theta", "overlap_sq"]
              + [f"weight_{k + 1}" for k in range(n_classes)])
    rows = [["0", "start", "", _fmt(record.overlap_sq_series[0]),
             *(_fmt(w) for w in record.class_weights[0])]]
    for event in record.events:
        m = event.index
        rows.append([
            str(m), event.kind.value,
            "" if event.theta is None else _fmt(event.theta),
            _fmt(record.overlap_sq_series[m]),
            *(_fmt(w) for w in record.class_weights[m]),
        ])
    writer.write_csv("events.csv", header, rows)

    rows = []
    for m, coeffs in record.snapshots or ():
        for i, c in enumerate(coeffs):
            rows.append([str(m), str(i), _fmt(c.real), _fmt(c.imag)])
    writer.write_csv(
        "snapshots.csv", ["m", "basis_index", "coeff_re", "coeff_im"], rows)
    return writer.files


def ensemble_csvs(cfg) -> dict[str, str]:
    system = prepare_system(cfg)
    stats = run_ensemble(
        system.initial_state, cfg.n_traj, cfg.n_events, system.table,
        system.classes, master_seed=cfg.master_seed, n_bins=cfg.n_bins,
        snapshot_stride=cfg.snapshot_stride, workers=cfg.workers)
    writer = _CsvFiles()

    rows = [
        [k + 1, _occ_str(sig), _fmt(stats.class_proportions[k]),
         _fmt(stats.class_proportions_predicted[k])]
        for k, sig in enumerate(stats.class_signatures)
    ]
    writer.write_csv(
        "class_proportions.csv",
        ["class_index", "signature", "empirical", "predicted"],
        rows)

    width = 2.0 * math.pi / cfg.n_bins
    rows = [
        [_fmt(center), str(int(count)), _fmt(mass / width)]
        for center, count, mass in zip(
            bin_centers(cfg.n_bins), stats.histogram,
            stats.histogram_predicted)
    ]
    writer.write_csv(
        "histogram.csv", ["bin_center", "count", "predicted_density"], rows)

    n_converged = int(np.count_nonzero(stats.converged_mask))
    writer.write_csv(
        "convergence.csv",
        ["n_traj", "n_events", "n_converged", "convergence_rate", "aborted",
         "total_scatter_events"],
        [[stats.n_traj, stats.n_events, n_converged,
          _fmt(stats.convergence_rate), stats.aborted_count,
          stats.n_scatter_total]])
    return writer.files


def sweep_csvs(cfg) -> dict[str, str]:
    rows_out = sweep_uj(
        cfg.uj_values, cfg.lattice_spec(), cfg.scattering_setup(),
        n_traj=cfg.n_traj, n_events=cfg.n_events,
        master_seed=cfg.master_seed, n_bins=cfg.n_bins,
        snapshot_stride=cfg.snapshot_stride, workers=cfg.workers)
    writer = _CsvFiles()

    n_classes = len(rows_out[0].predicted)
    header = (["uj", "energy"]
              + [f"empirical_{k + 1}" for k in range(n_classes)]
              + [f"predicted_{k + 1}" for k in range(n_classes)]
              + ["convergence_rate"])
    rows = []
    for row in rows_out:
        rows.append([
            "inf" if math.isinf(row.uj) else _fmt(row.uj),
            _fmt(row.energy),
            *(_fmt(x) for x in row.proportions),
            *(_fmt(x) for x in row.predicted),
            _fmt(row.convergence_rate),
        ])
    writer.write_csv("sweep.csv", header, rows)
    return writer.files
