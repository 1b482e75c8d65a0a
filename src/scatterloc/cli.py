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
file.  A CSV is formatted, hashed and written in blocks of rows, so its
text is never held whole.  ``main`` writes the manifest once the command
has returned, so a manifest always describes complete outputs, and a run
that fails before its first CSV leaves no output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (_check_memory, _trajectory_memory, bin_centers,
                       prepare_system, run_ensemble, sweep_uj)
from .config import ConfigError, RunConfig, config_to_mapping, load_config_file, parse_config
from .kernel import CouplingTooStrong, scatter_density
from .lattice import CapacityError, EigensolverError
from .trajectory import run_trajectory, trajectory_seed


# fields of CSV text one block holds: a file whose rows hold F fields is
# formatted, hashed and written max(1, _BLOCK_FIELDS // F) rows at a time
_BLOCK_FIELDS = 1 << 15

# bytes a formatted field takes at most while its block is alive: its
# float or int, its list slot, its text in the line, the joined block
# and the encoded bytes
_FIELD_BYTES = 128

# fewest trailing floats a block vectorizes, and most per format_17g call
_VECTOR_FIELDS = 1 << 13


def _lines(template: str, n_rows: int, *columns):
    """The bytes of the lines template % row of n_rows rows, in blocks of
    max(1, _BLOCK_FIELDS // F) rows, F the template's fields, each made
    when the writer asks.  A 1-D array fills one field, a 2-D array one
    per column, any other iterable one.  A block's trailing ",%.17g" run
    filled by float64 arrays goes through _float17.format_17g if it holds
    at least _VECTOR_FIELDS values, and all else through %."""
    size = max(1, _BLOCK_FIELDS // template.count("%"))
    columns = [c if isinstance(c, np.ndarray) else iter(c) for c in columns]
    run = width = 0
    for c in reversed(columns):
        w = c.shape[1] if getattr(c, "ndim", 0) == 2 else 1
        if not (getattr(c, "dtype", None) == np.float64 and
                ("," + template).endswith(",%.17g" * (width + w))):
            break
        run, width = run + 1, width + w
    # the template with the run as one %s, and rows per format_17g call
    head = (("," + template)[:len(template) + 1 - 6 * width] + ",%s")[1:]
    step = max(1, _VECTOR_FIELDS // max(1, width))
    for a in range(0, n_rows, size):
        n = min(size, n_rows - a)
        vector = n * width >= _VECTOR_FIELDS
        fields = []
        for c in columns[:len(columns) - run] if vector else columns:
            fields += (c[a:a + n].reshape(n, -1).T.tolist()
                       if isinstance(c, np.ndarray)
                       else [list(itertools.islice(c, n))])
        if vector:
            from ._float17 import format_17g
            values = np.column_stack([c[a:a + n] for c in columns[-run:]])
            fields.append(b"".join(map(format_17g, np.split(
                values, range(step, n, step)))).decode().splitlines())
        yield ("\n".join([(head if vector else template) % row
                          for row in zip(*fields)]) + "\n").encode()


def _atomic_write(path: Path, chunks) -> None:
    # temp file beside the target so os.replace stays within one
    # filesystem and is atomic.  "xb" (O_CREAT | O_EXCL) takes the umask's
    # mode and never follows or truncates an existing file, nor, opened
    # outside the try, unlinks one; a random suffix keeps a killed run's
    # temp from colliding.  Any later failure, including one raised while
    # a chunk is made, unlinks the temp
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
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

    def write_csv(self, name: str, header, blocks) -> None:
        """Write the header line, then each block, the bytes of whole
        lines each ending in a newline, as it comes, and feed the sha256
        the same bytes as they are written.

        Each command formats its rows with one %-template per file:
        floats as %.17g, which round-trips IEEE doubles exactly and is
        the text format(x, ".17g") gives, integers as %d.  No field ever
        needs CSV quoting: fields are numbers, inf, nan, event kinds, the
        empty angle of a non-scatter event and occupation lists of
        digits, spaces and "|", none of which holds a comma, a quote or
        a line break.
        """
        digest = hashlib.sha256()

        def chunks():
            for data in itertools.chain(
                    [(",".join(header) + "\n").encode()], blocks):
                digest.update(data)
                yield data

        _atomic_write(self.out_dir / name, chunks())
        self.checksums[name] = digest.hexdigest()

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
        _atomic_write(self.out_dir / "manifest.json", [text.encode("utf-8")])


def cmd_predict(cfg: RunConfig, writer: OutputWriter) -> None:
    """Ground state, its scatter-density curve, and the class table."""
    system = prepare_system(cfg)
    psi = system.initial_state
    occ = " ".join(["%d"] * cfg.M)

    writer.write_csv(
        "ground_state.csv",
        ["basis_index", "occupation", "coeff_re", "coeff_im", "probability",
         "energy"],
        _lines(f"%d,{occ},%.17g,%.17g,%.17g,%.17g", len(psi.coeffs),
               range(len(psi.coeffs)), *system.basis.occupations.T,
               psi.coeffs.real, psi.coeffs.imag, psi.probabilities,
               np.broadcast_to(system.energy, psi.coeffs.shape)))

    theta = system.table.theta_grid
    writer.write_csv(
        "scatter_density.csv", ["theta", "density"],
        _lines("%.17g,%.17g", len(theta), theta,
               scatter_density(psi, system.table)))

    classes = system.classes
    writer.write_csv(
        "classes.csv",
        ["class_index", "signature", "size", "members", "probability"],
        _lines(f"%d,{occ},%d,%s,%.17g", len(classes),
               range(1, len(classes) + 1),
               *zip(*(cls.signature for cls in classes)),
               (len(cls.members) for cls in classes),
               ("|".join([occ % m for m in cls.members]) for cls in classes),
               system.table.class_weights(psi.probabilities)))


def cmd_trajectory(cfg: RunConfig, writer: OutputWriter) -> None:
    """One measurement record: per-event rows plus coefficient snapshots."""
    system = prepare_system(cfg)
    n_classes = len(system.classes)
    # row m: overlap_sq, then the class weights, after the m-th event
    row = "%d,%s,%s" + ",%.17g" * (n_classes + 1)
    snap, dim = "%d,%d,%.17g,%.17g", system.basis.dimension
    per = max(1, _BLOCK_FIELDS // snap.count("%") // dim)
    # the engine's arrays, one block of events.csv, the wider file, and
    # one group of per snapshots' coefficients, m and basis indices
    _check_memory(system.table.setup, _trajectory_memory(
        cfg.n_events, cfg.snapshot_stride, dim, n_classes, cfg.M)
        + _FIELD_BYTES * max(_BLOCK_FIELDS, row.count("%"))
        + 32 * per * dim)
    record = run_trajectory(
        system.initial_state, system.table, cfg.n_events,
        seed=trajectory_seed(cfg.master_seed, 0),
        snapshot_stride=cfg.snapshot_stride)

    events, snapshots = record.events, record.snapshots or ()
    writer.write_csv(
        "events.csv",
        ["m", "kind", "theta", "overlap_sq"]
        + [f"weight_{k + 1}" for k in range(n_classes)],
        _lines(row, len(events) + 1, range(len(events) + 1),
               itertools.chain(["start"], (e.kind.value for e in events)),
               itertools.chain([""], ("" if e.theta is None
                                      else "%.17g" % e.theta
                                      for e in events)),
               record.overlap_sq_series, record.class_weights))

    def groups():
        # as many whole snapshots as one block holds, in one _lines call
        for i in range(0, len(snapshots), per):
            ms, coeffs = zip(*snapshots[i:i + per])
            c = np.concatenate(coeffs)
            yield from _lines(snap, len(c), np.repeat(ms, dim), np.tile(
                np.arange(dim), len(ms)), c.real, c.imag)

    writer.write_csv(
        "snapshots.csv", ["m", "basis_index", "coeff_re", "coeff_im"],
        groups())


def cmd_ensemble(cfg: RunConfig, writer: OutputWriter) -> None:
    """Many trajectories: proportions, pooled angle histogram, convergence."""
    system = prepare_system(cfg)
    # no CSV reads the ensemble's snapshots: a stride of n_events keeps
    # only the first and last of them
    stats = run_ensemble(
        system.initial_state, cfg.n_traj, cfg.n_events, system.table,
        system.classes, master_seed=cfg.master_seed, n_bins=cfg.n_bins,
        snapshot_stride=cfg.n_events, workers=cfg.workers)

    signatures = stats.class_signatures
    writer.write_csv(
        "class_proportions.csv",
        ["class_index", "signature", "empirical", "predicted"],
        _lines("%d," + " ".join(["%d"] * cfg.M) + ",%.17g,%.17g",
               len(signatures), range(1, len(signatures) + 1),
               *zip(*signatures), stats.class_proportions,
               stats.class_proportions_predicted))

    writer.write_csv(
        "histogram.csv", ["bin_center", "count", "predicted_density"],
        _lines("%.17g,%d,%.17g", cfg.n_bins, bin_centers(cfg.n_bins),
               stats.histogram,
               stats.histogram_predicted / (2.0 * math.pi / cfg.n_bins)))

    n_converged = int(np.count_nonzero(stats.converged_mask))
    writer.write_csv(
        "convergence.csv",
        ["n_traj", "n_events", "n_converged", "convergence_rate", "aborted",
         "total_scatter_events"],
        [("%d,%d,%d,%.17g,%d,%d\n" % (
            stats.n_traj, stats.n_events, n_converged,
            stats.convergence_rate, stats.aborted_count,
            stats.n_scatter_total)).encode()])


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
    table = np.array([[r.uj, r.energy, *r.proportions, *r.predicted,
                       r.convergence_rate] for r in rows_out])
    writer.write_csv("sweep.csv", header, _lines(
        ",".join(["%.17g"] * len(header)), len(rows_out), table))


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
