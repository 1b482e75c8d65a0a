"""scatterloc benchmark: CLI commands at fixed working points, checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Each repetition runs one ``scatterloc.cli.main(argv)`` command in a fresh
child process (``child.py``), one after another, until ``--seconds`` is
used up.  The seed is the command's ``--seed``, so every repetition of
a run has the same inputs.  Every output is checked against physics
oracles (``checks.py``), and every repetition must write the same CSV
checksums.  BLAS and OpenMP run one thread each: with their default of
one thread per core, runs on a shared 2-vCPU machine spread about twice
as wide (``README.md``).

``--trace 0`` reports the end-to-end metrics, medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (``tracer.py``), plus the
tracing overhead.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, sizes, every repetition) goes to
``.bench_out/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from checks import check_outputs  # noqa: E402
from workloads import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS  # noqa: E402

MIN_REPS = 4
CHILD_TIMEOUT_S = 150
THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_rep(workload, seed: int, rep: int, traced: bool, work: Path) -> dict:
    """One command in a fresh child process, its outputs checked."""
    # the manifest records the output path, so keep it relative and of
    # fixed width: output sizes must not depend on the checkout's
    # location or the repetition number
    out_dir = work / f"rep{rep:04d}"
    spec = {
        "src": str(SRC),
        "argv": workload.argv(seed, str(out_dir.relative_to(ROOT))),
        "setup": workload.setup_settings(seed),
        "spans": str(work / "spans.jsonl") if traced else None,
        "trace_id": f"{workload.name}-seed{seed}-rep{rep}-{os.getpid()}",
    }
    rep_out = {"rep": rep, "traced": traced, "problems": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=dict(os.environ, **THREADS), capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep_out["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return rep_out
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rep_out["problems"].append(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rep_out
    rep_out.update(json.loads(lines[-1]))
    if rep_out["code"] != 0:
        rep_out["problems"].append(
            f"scatterloc exited {rep_out['code']}: "
            f"{proc.stderr.strip()[-500:]}")
        return rep_out
    rep_out["checksums"], problems = check_outputs(workload, out_dir)
    if len(problems) > 20:
        problems = problems[:20] + [f"... and {len(problems) - 20} more"]
    rep_out["problems"] += problems
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep_out


def check_repeats(reps: list[dict]) -> None:
    """Every repetition must write the same bytes and, when traced, the
    same exact counts as the first repetition that passed."""
    passed = [r for r in reps if not r["problems"]]
    traced = [r for r in passed if r["traced"]]
    for r in passed:
        if r["checksums"] != passed[0]["checksums"]:
            r["problems"].append("CSV checksums differ from repetition "
                                 f"{passed[0]['rep']}")
    for r in traced:
        ref = traced[0]["layers"]
        for key in EXACT_COUNTS:
            if r["layers"][key] != ref[key]:
                r["problems"].append(
                    f"{key} = {r['layers'][key]} differs from repetition "
                    f"{traced[0]['rep']}: {ref[key]}")


def environment(reps: list[dict]) -> dict:
    env = next((r["env"] for r in reps if "env" in r), {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(env, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), cpu=cpu,
                threads=THREADS)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced repetitions and
        # stops after a whole pair
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, len(reps), traced, work))
        elapsed = time.perf_counter() - start
        if (len(reps) >= MIN_REPS and (traced or not trace)
                and elapsed + elapsed / len(reps) > seconds):
            break
    check_repeats(reps)

    failed = sum(1 for r in reps if r["problems"])
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    metrics: dict[str, float] = {}
    if trace:
        traced = [r for r in timed if r["traced"]]
        for key in PER_LAYER:
            if key != "trace.overhead_s" and traced:
                metrics[key] = statistics.median(
                    r["layers"][key] for r in traced)
        if traced and plain:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        for key in END_TO_END:
            if key != "ok_frac" and plain:
                metrics[key] = statistics.median(r[key] for r in plain)
        metrics["ok_frac"] = (len(reps) - failed) / len(reps)
        units = END_TO_END
    result = {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "sizes": workload.sizes(),
        "argv": workload.argv("SEED", "OUT"), "env": environment(reps),
        "result": result, "repetitions": reps,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record, plain)
    return result


def report(record: dict, plain: list[dict]) -> None:
    """Human-readable summary: every metric by name with its unit."""
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  sizes {json.dumps(record['sizes'])}")
    print(f"  repetitions {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    for r in record["repetitions"]:
        for problem in r["problems"][:5]:
            print(f"  rep {r['rep']}: {problem}")
    for key, m in result["metrics"].items():
        note = f"  median of {len(plain)}" if key.endswith(("_s", "_mb")) \
            and not record["trace"] else ""
        print(f"  {key:<30} {m['value']:>14.6g} {m['unit']:<9}{note}")
    events = record["sizes"]["events"]
    if events and "wall_s" in result["metrics"]:
        print(f"  {'events_per_s':<30} "
              f"{events / result['metrics']['wall_s']['value']:>14.6g} 1/s")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "scatterloc" / "__init__.py").is_file():
        print(f"error: no scatterloc sources under {SRC}; run from a "
              f"source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
