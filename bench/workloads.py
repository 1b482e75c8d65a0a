"""The benchmark's workloads and its metric names.

Each workload is one scatterloc CLI command at a fixed working point.
The workload seed becomes the command's ``--seed``; nothing else about
the inputs varies between runs.  Every command runs with ``workers=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed working point.

    settings are configuration keys passed as ``--set KEY=VALUE``;
    n_traj and n_events, when given, go through ``--traj``/``--events``.
    """

    name: str
    command: str
    settings: dict = field(default_factory=dict)
    n_traj: int | None = None
    n_events: int | None = None
    why: str = ""

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """Arguments for ``scatterloc.cli.main``."""
        argv = [self.command, "--seed", str(seed), "--out", out_dir,
                "--set", "workers=1"]
        for key, value in self.settings.items():
            argv += ["--set", f"{key}={value}"]
        if self.n_traj is not None:
            argv += ["--traj", str(self.n_traj)]
        if self.n_events is not None:
            argv += ["--events", str(self.n_events)]
        return argv

    def setup_settings(self, seed: int) -> dict:
        """Configuration whose ``prepare_system`` is the set-up cost.

        For a sweep this is its first row, J = 1 and U = the first
        (finite) U/J value.
        """
        settings = dict(self.settings, master_seed=seed)
        if settings.pop("uj_values", None) is not None:
            settings.update(J=1.0, U=self.uj_values[0])
        return settings

    @property
    def uj_values(self) -> list[float]:
        text = str(self.settings.get("uj_values", ""))
        return [float(v) for v in text.split(",") if v]

    @property
    def events(self) -> int:
        """Detection events one command completes (0 for predict)."""
        if self.command == "trajectory":
            return self.n_events
        if self.command == "ensemble":
            return self.n_traj * self.n_events
        if self.command == "sweep":
            return self.n_traj * self.n_events * len(self.uj_values)
        return 0

    def sizes(self) -> dict:
        """Problem sizes, recorded with every result for comparability."""
        M, N = int(self.settings["M"]), int(self.settings["N"])
        out = {"command": self.command, "M": M, "N": N,
               "D": math.comb(N + M - 1, N), "n_traj": self.n_traj,
               "n_events": self.n_events, "events": self.events}
        if self.command == "sweep":
            out["uj_values"] = self.settings["uj_values"]
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "ensemble_acceptance", "ensemble",
        {"M": 3, "N": 3, "U": 0, "gN": 0.5}, n_traj=200, n_events=1000,
        why="headline statistic at the tier-1 acceptance point; nearly all "
            "time is the ensemble engine, 13% of events scatter"),
    Workload(
        "sweep_strong", "sweep",
        {"M": 5, "N": 5, "gN": 1.0, "uj_values": "0,0.5,5,inf"},
        n_traj=50, n_events=600,
        why="same engine on its scatter branch (14-33% of events scatter) "
            "at 12x the dimension, one ground state per row"),
    Workload(
        "trajectory_record", "trajectory",
        {"M": 6, "N": 6, "U": 0.05, "gN": 0.5}, n_events=2000,
        why="complex-coefficient trajectory.step engine the ensemble path "
            "bypasses, plus 7 MB of CSV formatting, hashing and writes"),
    Workload(
        "predict_large", "predict",
        {"M": 7, "N": 7, "U": 0, "gN": 0.5},
        why="no events: dense Hamiltonian, eigh and the D x 2048 pattern "
            "table drive setup time and peak memory"),
)}

# name -> unit, for the metrics reported with tracing off
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# name -> unit, for the metrics reported by the traced run
PER_LAYER = {
    "config.parse_s": "s",
    "lattice.enumerate_basis_s": "s",
    "lattice.build_hamiltonian_s": "s",
    "lattice.ground_state_s": "s",
    "lattice.ground_state_calls": "count",
    "lattice.dimension": "count",
    "lattice.hamiltonian_bytes": "bytes",
    "lattice.residual": "norm",
    "kernel.build_pattern_table_s": "s",
    "kernel.table_bytes": "bytes",
    "analysis.build_classes_s": "s",
    "analysis.classes": "count",
    "analysis.run_ensemble_s": "s",
    "analysis.event_us": "us",
    "analysis.events": "count",
    "analysis.scatter_frac": "fraction",
    "analysis.converged_frac": "fraction",
    "analysis.aborted": "count",
    "analysis.sweep_rows": "count",
    "trajectory.run_trajectory_s": "s",
    "trajectory.step_us_p50": "us",
    "trajectory.step_us_p99": "us",
    "trajectory.events": "count",
    "trajectory.scatter_frac": "fraction",
    "trajectory.aborted": "count",
    "cli.self_s": "s",
    "cli.write_csv_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# per-layer values that depend only on the physics and the data layout,
# so they must repeat exactly at one seed
EXACT_COUNTS = (
    "lattice.ground_state_calls", "lattice.dimension",
    "lattice.hamiltonian_bytes", "kernel.table_bytes", "analysis.classes",
    "analysis.events", "analysis.scatter_frac", "analysis.converged_frac",
    "analysis.aborted", "analysis.sweep_rows", "trajectory.events",
    "trajectory.scatter_frac", "trajectory.aborted", "cli.output_bytes",
)
