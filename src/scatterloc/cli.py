"""Command line front end.

Four commands share one configuration model: ``predict`` writes the
ground state and its scattering predictions, ``trajectory`` records a
single stochastic measurement sequence, ``ensemble`` aggregates many
trajectories, ``sweep`` repeats the ensemble across interaction
strengths.  Every run writes CSV files plus a ``manifest.json`` echoing
the full configuration, library versions, and output checksums.

One parser reads the command and its flags, before or after it.  Each
dedicated flag spells --set of one key and wins over --set; the parser
only routes, and parse_config turns every value's text into its type.

Exit codes: 0 success, 2 bad configuration, 3 coupling too strong for a
probability interpretation, 4 runtime or I/O failure (a refused
allocation included).  All files are written atomically (temp file in
the target directory, then rename) with the mode the umask gives any new
file.  ``main`` writes the manifest once the command has returned, so a
manifest always describes complete outputs, and a run that fails before
its first CSV leaves no output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (bin_centers, class_weights, prepare_system,
                       run_ensemble, sweep_uj)
from .config import ConfigError, RunConfig, config_to_mapping, load_config_file, parse_config
from .kernel import CouplingTooStrong, scatter_density
from .lattice import CapacityError, EigensolverError
from .trajectory import run_trajectory, trajectory_seed


def _atomic_write(path: Path, data: bytes) -> None:
    # temp file beside the target so os.replace stays within one
    # filesystem and is atomic.  "xb" (O_CREAT | O_EXCL) takes the umask's
    # mode and never follows or truncates an existing file, nor, opened
    # outside the try, unlinks one; a random suffix keeps a killed run's
    # temp from colliding.  Any later failure unlinks the temp
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class OutputWriter:
    """Accumulates checksummed CSVs for one run, manifest written last."""

    def __init__(self, command: str, cfg: RunConfig):
        self.command = command
        self.cfg = cfg
        self.out_dir = Path(cfg.output_path)
        self.checksums: dict[str, str] = {}

    def write_csv(self, name: str, header, lines) -> None:
        """Write the header and the formatted lines, each ending in a
        newline.

        Each command formats its rows with one %-template per file:
        floats as %.17g, which round-trips IEEE doubles exactly and is
        the text format(x, ".17g") gives, integers as %d.  No field ever
        needs CSV quoting: fields are numbers, inf, nan, event kinds, the
        empty angle of a non-scatter event and occupation lists of
        digits, spaces and "|", none of which holds a comma, a quote or
        a line break.
        """
        data = "\n".join([",".join(header), *lines, ""]).encode("utf-8")
        _atomic_write(self.out_dir / name, data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()

    def write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "config": config_to_mapping(self.cfg),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scatterloc": __version__,
            },
            "checksums": dict(sorted(self.checksums.items())),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(self.out_dir / "manifest.json", text.encode("utf-8"))


def cmd_predict(cfg: RunConfig, writer: OutputWriter) -> None:
    """Ground state, its scatter-density curve, and the class table."""
    system = prepare_system(cfg)
    psi = system.initial_state
    occ = " ".join(["%d"] * cfg.M)

    row = f"%d,{occ},%.17g,%.17g,%.17g,%.17g"
    writer.write_csv(
        "ground_state.csv",
        ["basis_index", "occupation", "coeff_re", "coeff_im", "probability",
         "energy"],
        [row % (i, *n, c.real, c.imag, p, system.energy)
         for i, (n, c, p) in enumerate(zip(
             system.basis.occupations.tolist(), psi.coeffs.tolist(),
             psi.probabilities.tolist()))])

    density = scatter_density(psi, system.table)
    writer.write_csv(
        "scatter_density.csv",
        ["theta", "density"],
        ["%.17g,%.17g" % td
         for td in zip(system.table.theta_grid.tolist(), density.tolist())])

    probs = class_weights(psi, system.classes).tolist()
    row = f"%d,{occ},%d,%s,%.17g"
    writer.write_csv(
        "classes.csv",
        ["class_index", "signature", "size", "members", "probability"],
        [row % (k + 1, *cls.signature, len(cls.members),
                "|".join([occ % m for m in cls.members]), probs[k])
         for k, cls in enumerate(system.classes)])


def cmd_trajectory(cfg: RunConfig, writer: OutputWriter) -> None:
    """One measurement record: per-event rows plus coefficient snapshots."""
    system = prepare_system(cfg)
    record = run_trajectory(
        system.initial_state, system.table, cfg.n_events,
        seed=trajectory_seed(cfg.master_seed, 0),
        snapshot_stride=cfg.snapshot_stride)

    n_classes = len(system.classes)
    header = (["m", "kind", "theta", "overlap_sq"]
              + [f"weight_{k + 1}" for k in range(n_classes)])
    # row m: overlap_sq, then the class weights, after the m-th event
    series = np.column_stack(
        [record.overlap_sq_series, record.class_weights]).tolist()
    row = "%d,%s,%s" + ",%.17g" * (n_classes + 1)
    lines = [row % (0, "start", "", *series[0])]
    lines += [row % (e.index, e.kind.value,
                     "" if e.theta is None else "%.17g" % e.theta,
                     *series[e.index])
              for e in record.events]
    writer.write_csv("events.csv", header, lines)

    lines = []
    for m, coeffs in record.snapshots or ():
        lines += ["%d,%d,%.17g,%.17g" % (m, i, c.real, c.imag)
                  for i, c in enumerate(coeffs.tolist())]
    writer.write_csv(
        "snapshots.csv", ["m", "basis_index", "coeff_re", "coeff_im"], lines)


def cmd_ensemble(cfg: RunConfig, writer: OutputWriter) -> None:
    """Many trajectories: proportions, pooled angle histogram, convergence."""
    system = prepare_system(cfg)
    # no CSV reads the ensemble's snapshots: a stride of n_events keeps
    # only the first and last of them
    stats = run_ensemble(
        system.initial_state, cfg.n_traj, cfg.n_events, system.table,
        system.classes, master_seed=cfg.master_seed, n_bins=cfg.n_bins,
        snapshot_stride=cfg.n_events, workers=cfg.workers)

    row = "%d," + " ".join(["%d"] * cfg.M) + ",%.17g,%.17g"
    writer.write_csv(
        "class_proportions.csv",
        ["class_index", "signature", "empirical", "predicted"],
        [row % (k + 1, *sig, emp, pred)
         for k, (sig, emp, pred) in enumerate(zip(
             stats.class_signatures, stats.class_proportions.tolist(),
             stats.class_proportions_predicted.tolist()))])

    width = 2.0 * math.pi / cfg.n_bins
    writer.write_csv(
        "histogram.csv", ["bin_center", "count", "predicted_density"],
        ["%.17g,%d,%.17g" % row for row in zip(
            bin_centers(cfg.n_bins).tolist(), stats.histogram.tolist(),
            (stats.histogram_predicted / width).tolist())])

    n_converged = int(np.count_nonzero(stats.converged_mask))
    writer.write_csv(
        "convergence.csv",
        ["n_traj", "n_events", "n_converged", "convergence_rate", "aborted",
         "total_scatter_events"],
        ["%d,%d,%d,%.17g,%d,%d" % (
            stats.n_traj, stats.n_events, n_converged,
            stats.convergence_rate, stats.aborted_count,
            stats.n_scatter_total)])


def cmd_sweep(cfg: RunConfig, writer: OutputWriter) -> None:
    """One ensemble per U/J value, one summary row each."""
    if not cfg.uj_values:
        raise ConfigError("uj_values: sweep needs at least one U/J value")
    rows_out = sweep_uj(
        cfg.uj_values, cfg.lattice_spec(), cfg.scattering_setup(),
        n_traj=cfg.n_traj, n_events=cfg.n_events,
        master_seed=cfg.master_seed, n_bins=cfg.n_bins,
        snapshot_stride=cfg.n_events, workers=cfg.workers)

    n_classes = len(rows_out[0].predicted)
    header = (["uj", "energy"]
              + [f"empirical_{k + 1}" for k in range(n_classes)]
              + [f"predicted_{k + 1}" for k in range(n_classes)]
              + ["convergence_rate"])
    row = ",".join(["%.17g"] * len(header))
    writer.write_csv("sweep.csv", header, [
        row % (r.uj, r.energy, *r.proportions.tolist(),
               *r.predicted.tolist(), r.convergence_rate)
        for r in rows_out])


_COMMANDS = {
    "predict": cmd_predict,
    "trajectory": cmd_trajectory,
    "ensemble": cmd_ensemble,
    "sweep": cmd_sweep,
}
# each dedicated flag spells --set of one key
_FLAGS = {"seed": "master_seed", "out": "output_path", "traj": "n_traj",
          "events": "n_events", "bins": "n_bins"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterloc",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Simulate measurement-induced localization of lattice\n"
                    "bosons under off-resonant light scattering.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{cmd.__doc__}" for name, cmd in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with configuration keys")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override any configuration key; repeatable")
    for flag, key in _FLAGS.items():
        parser.add_argument(f"--{flag}", dest=key, metavar="VALUE",
                            help=f"--set {key}=VALUE, winning over --set")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides: dict = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    # dedicated flags win over --set
    overrides.update((key, getattr(args, key)) for key in _FLAGS.values()
                     if getattr(args, key) is not None)
    return parse_config(file_values, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        writer = OutputWriter(args.command, cfg)
        _COMMANDS[args.command](cfg, writer)
        writer.write_manifest()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CouplingTooStrong as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, EigensolverError, CapacityError, MemoryError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
