"""Physics and integrity checks on the files one CLI command wrote.

Every check reads the CSVs back as text with the standard library, so it
shares no code with the program it checks.  ``check_outputs`` returns
the manifest's checksums (for the determinism check across repetitions)
and a list of problems; an empty list means the output passed.

Statistical bound.  With n converged trajectories, the end-class counts
are multinomial with the predicted class weights p_k, so each empirical
proportion must satisfy

    |empirical_k - p_k| <= Z * sqrt(p_k (1 - p_k) / n) + 1 / n

with Z = 5: a false alarm has probability below 1e-6 per class, and the
1/n term lets a single trajectory land in a class of vanishing weight.

Scatter fraction.  A basis state with occupation autocorrelation
C_0 .. C_{M-1} (its class signature) scatters a probe with probability

    s = g^2 <|F(theta)|^2>,   |F|^2 = C_0 + 2 sum_d C_d cos(d k0 sin theta)

averaged over the angle, with g = gN / N and a uniform envelope.  The
posterior over basis states is a martingale, so every event of every
trajectory scatters with expected probability sum_k P_k s_k over the
predicted class weights P_k.  One trajectory's scatter fraction is a
sum of bounded martingale increments, of standard deviation at most
1 / (2 sqrt(n_events)), plus a mean of the s_k it visits, of standard
deviation at most (max s_k - min s_k) / 2.  Over n_traj independent
trajectories the ensemble's fraction must lie within Z times the sum
of the two, over sqrt(n_traj), of the prediction.  This computes s_k
from the signatures, not from the program's pattern table.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

Z = 5.0
SUM_TOL = 1e-12
ENERGY_TOL = 1e-9


def free_boson_energy(M: int, N: int) -> float:
    """Ground energy of N non-interacting bosons on an open M-site chain
    (J = 1): all in the lowest orbital, -2 cos(pi / (M + 1)) each."""
    return -2.0 * N * math.cos(math.pi / (M + 1))


def scatter_probability(signature, gN: float, N: int, k0_a: float,
                        n_theta: int = 1024) -> float:
    """Scatter probability of a basis state with autocorrelation
    signature C_0 .. C_{M-1}, uniform envelope; the angular mean uses the
    periodic trapezoid rule, exact to rounding for this integrand."""
    mean = 0.0
    for i in range(n_theta):
        phase = k0_a * math.sin(2.0 * math.pi * i / n_theta)
        mean += signature[0] + 2.0 * sum(
            c * math.cos(d * phase) for d, c in enumerate(signature)
            if d > 0)
    return (gN / N) ** 2 * mean / n_theta


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _sum_is_one(values, what: str) -> list[str]:
    total = math.fsum(values)
    if abs(total - 1.0) > SUM_TOL:
        return [f"{what} sum to {total!r}, not 1 within {SUM_TOL}"]
    return []


def _multinomial(empirical, predicted, n: int, what: str) -> list[str]:
    if n < 1:
        return [f"{what}: no trajectory converged"]
    problems = []
    for k, (e, p) in enumerate(zip(empirical, predicted)):
        bound = Z * math.sqrt(max(p * (1.0 - p), 0.0) / n) + 1.0 / n
        if abs(e - p) > bound:
            problems.append(f"{what}: class {k + 1} empirical {e:.6f} vs "
                            f"predicted {p:.6f} exceeds bound {bound:.6f} "
                            f"(n={n})")
    return problems


def _check_predict(workload, out: Path, config: dict) -> list[str]:
    settings = workload.settings
    rows = _rows(out / "ground_state.csv")[1:]
    problems = _sum_is_one((float(r[4]) for r in rows),
                           "ground-state probabilities")
    if float(settings.get("U", 0)) == 0.0:
        expected = free_boson_energy(int(settings["M"]), int(settings["N"]))
        energy = float(rows[0][5])
        if abs(energy - expected) > ENERGY_TOL:
            problems.append(f"energy {energy!r} differs from the free-boson "
                            f"value {expected!r}")
    classes = _rows(out / "classes.csv")[1:]
    problems += _sum_is_one((float(r[4]) for r in classes),
                            "class probabilities")
    return problems


def _check_scatter_fraction(config: dict, props, conv: dict) -> list[str]:
    if config["envelope"] != "uniform":
        return [f"no scatter-fraction oracle for envelope "
                f"{config['envelope']!r}"]
    weights = [float(r[3]) for r in props]
    probs = [scatter_probability([int(c) for c in r[1].split()],
                                 config["gN"], config["N"], config["k0_a"])
             for r in props]
    expected = math.fsum(w * s for w, s in zip(weights, probs))
    visited = [s for w, s in zip(weights, probs) if w > 0.0]
    n_traj, n_events = int(conv["n_traj"]), int(conv["n_events"])
    sd = (0.5 / math.sqrt(n_events)
          + (max(visited) - min(visited)) / 2.0) / math.sqrt(n_traj)
    fraction = int(conv["total_scatter_events"]) / (n_traj * n_events)
    if abs(fraction - expected) > Z * sd:
        return [f"scatter fraction {fraction:.6f} vs predicted "
                f"{expected:.6f} exceeds bound {Z * sd:.6f}"]
    return []


def _check_ensemble(workload, out: Path, config: dict) -> list[str]:
    conv = dict(zip(*_rows(out / "convergence.csv")))
    problems = []
    if int(conv["aborted"]) != 0:
        problems.append(f"{conv['aborted']} trajectories aborted")
    # two files must agree; the program derives both from one array now,
    # so this guards a change that counts them apart
    counts = sum(int(r[1]) for r in _rows(out / "histogram.csv")[1:])
    if counts != int(conv["total_scatter_events"]):
        problems.append(f"histogram holds {counts} events, convergence.csv "
                        f"reports {conv['total_scatter_events']}")
    props = _rows(out / "class_proportions.csv")[1:]
    problems += _check_scatter_fraction(config, props, conv)
    problems += _multinomial([float(r[2]) for r in props],
                             [float(r[3]) for r in props],
                             int(conv["n_converged"]), "proportions")
    return problems


def _check_sweep(workload, out: Path, config: dict) -> list[str]:
    rows = _rows(out / "sweep.csv")
    header, rows = rows[0], rows[1:]
    uj_values = workload.uj_values
    if [float(r[0]) for r in rows] != uj_values:
        return [f"sweep rows {[r[0] for r in rows]} do not match U/J "
                f"values {uj_values}"]
    k = sum(1 for h in header if h.startswith("empirical_"))
    problems = []
    for r in rows:
        uj, energy = r[0], float(r[1])
        empirical = [float(x) for x in r[2:2 + k]]
        predicted = [float(x) for x in r[2 + k:2 + 2 * k]]
        n = round(float(r[2 + 2 * k]) * workload.n_traj)
        problems += _sum_is_one(empirical, f"U/J={uj} empirical proportions")
        problems += _sum_is_one(predicted, f"U/J={uj} predicted proportions")
        problems += _multinomial(empirical, predicted, n, f"U/J={uj}")
        if float(uj) == 0.0:
            expected = free_boson_energy(int(workload.settings["M"]),
                                         int(workload.settings["N"]))
            if abs(energy - expected) > ENERGY_TOL:
                problems.append(f"U/J=0 energy {energy!r} differs from the "
                                f"free-boson value {expected!r}")
    return problems


def _check_trajectory(workload, out: Path, config: dict) -> list[str]:
    rows = _rows(out / "events.csv")[1:]
    problems = []
    if len(rows) != workload.n_events + 1:
        problems.append(f"events.csv has {len(rows)} rows, expected "
                        f"{workload.n_events + 1}")
    for r in rows:
        problems += _sum_is_one((float(x) for x in r[4:]),
                                f"class weights at m={r[0]}")
        # |<psi_0|psi_m>|^2 of unit vectors; the tolerance is rounding
        if float(r[3]) > 1.0 + SUM_TOL:
            problems.append(f"overlap_sq {r[3]} > 1 at m={r[0]}")
    return problems


_CHECKS = {
    "predict": _check_predict,
    "ensemble": _check_ensemble,
    "sweep": _check_sweep,
    "trajectory": _check_trajectory,
}


def check_outputs(workload, out: Path) -> tuple[dict, list[str]]:
    """(manifest checksums, problems) for one command's output dir."""
    try:
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return {}, [f"no readable manifest: {exc}"]
    checksums = manifest.get("checksums", {})
    problems = []
    for name, digest in sorted(checksums.items()):
        try:
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if actual != digest:
            problems.append(f"{name}: sha256 {actual} differs from the "
                            f"manifest's {digest}")
    if problems:
        return checksums, problems
    try:
        problems += _CHECKS[workload.command](workload, out,
                                             manifest["config"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return checksums, problems
