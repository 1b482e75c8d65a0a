"""One scatterloc CLI command in a fresh process, with its costs.

    python3 child.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``scatterloc``
package), ``argv`` (arguments for ``scatterloc.cli.main``), ``setup``
(configuration keys for the set-up timing) and ``spans`` (a path to
write spans to, or null to run untraced).

The process first times the import of ``scatterloc`` plus one
``prepare_system`` of the set-up configuration; this also lets lazy
library set-up and first page faults happen before the command is
timed.  It then times ``cli.main(argv)`` and prints one JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import tracer as tracing


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    spec = json.loads(sys.argv[1])

    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import scatterloc
    from scatterloc import analysis, cli, config
    import_s = time.perf_counter() - t0
    source = os.path.dirname(os.path.dirname(os.path.abspath(
        scatterloc.__file__)))
    if source != os.path.abspath(spec["src"]):
        print(f"error: scatterloc imported from {source}, not {spec['src']}",
              file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    system = analysis.prepare_system(config.parse_config(None, spec["setup"]))
    prepare_s = time.perf_counter() - t0
    del system

    tracer = None
    if spec["spans"]:
        tracer = tracing.Tracer(spec["trace_id"])
        tracer.install()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0

    result = {
        "code": code,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "setup_s": import_s + prepare_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        out_dir = spec["argv"][spec["argv"].index("--out") + 1]
        layers["cli.output_bytes"] = sum(
            entry.stat().st_size for entry in os.scandir(out_dir)
            if entry.is_file())
        tracer.write(spec["spans"])
        result["layers"] = layers
        result["spans"] = len(tracer.names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
