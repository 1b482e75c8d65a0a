"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

Each workload runs at a tiny working point, traced and untraced; the
metric names must match BENCHMARK.json, the span trees must be well
formed, and the output checks must catch a damaged file.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ensemble_acceptance": dict(n_traj=10, n_events=300),
    "sweep_strong": dict(settings={"M": 3, "N": 3, "gN": 1.0,
                                   "uj_values": "0,inf"},
                         n_traj=6, n_events=300),
    "trajectory_record": dict(settings={"M": 3, "N": 3, "U": 0.05,
                                        "gN": 0.5}, n_events=100),
    "predict_large": dict(settings={"M": 3, "N": 3, "U": 0, "gN": 0.5}),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], name=f"tiny_{name}",
                               **TINY[name])


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("name", ["ensemble_acceptance",
                                  "trajectory_record"])
def test_span_tree_is_well_formed(name):
    workload = tiny(name)
    run.run_workload(workload, seed=1, seconds=0, trace=True)
    path = run.OUT / workload.name / "spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    assert len({s["trace_id"] for s in spans}) == 1
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < s["span_id"]
            assert parent["start_ns"] <= s["start_ns"]
            assert s["end_ns"] <= parent["end_ns"]
    assert min(tracer.self_times(spans)) >= 0
    roots = [s["name"] for s in spans if s["parent"] < 0]
    assert roots == ["cli.main"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"parent": -1, "start_ns": 0, "end_ns": 100},
        {"parent": 0, "start_ns": 10, "end_ns": 60},
        {"parent": 1, "start_ns": 20, "end_ns": 50},
        {"parent": 0, "start_ns": 70, "end_ns": 80},
    ]
    assert tracer.self_times(spans) == [40, 20, 30, 10]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 50) == 50
    assert tracer.percentile(values, 99) == 99
    assert tracer.percentile([], 99) == 0


def test_checks_catch_a_damaged_file(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from scatterloc import cli

    workload = tiny("predict_large")
    out = tmp_path / "out"
    assert cli.main(workload.argv(0, str(out))) == 0
    _, problems = checks.check_outputs(workload, out)
    assert problems == []

    path = out / "classes.csv"
    path.write_text(path.read_text().replace("1,", "2,", 1))
    _, problems = checks.check_outputs(workload, out)
    assert any("sha256" in p for p in problems)


def test_multinomial_bound_flags_a_biased_ensemble():
    predicted = [0.25, 0.75]
    assert checks._multinomial([0.26, 0.74], predicted, 1000, "x") == []
    assert checks._multinomial([0.5, 0.5], predicted, 1000, "x")
    assert checks._multinomial([0.0, 0.0], predicted, 0, "x")


def test_scatter_fraction_oracle():
    # all atoms on one site: |F|^2 = N^2 at every angle, so s = gN^2
    assert checks.scatter_probability([9, 0, 0], 0.5, 3, math.pi) == \
        pytest.approx(0.25, abs=1e-15)
    config = {"envelope": "uniform", "gN": 0.5, "N": 3, "k0_a": math.pi}
    props = [["1", "9 0 0", "", "0.5"], ["2", "5 2 0", "", "0.5"]]
    expected = 0.5 * 0.25 + 0.5 * checks.scatter_probability(
        [5, 2, 0], 0.5, 3, math.pi)
    conv = {"n_traj": "200", "n_events": "1000",
            "total_scatter_events": str(round(expected * 200_000))}
    assert checks._check_scatter_fraction(config, props, conv) == []
    conv["total_scatter_events"] = str(round(1.3 * expected * 200_000))
    assert checks._check_scatter_fraction(config, props, conv)


def test_free_boson_energy_matches_the_stated_values():
    assert checks.free_boson_energy(7, 7) == pytest.approx(-12.934313455,
                                                           abs=1e-9)
    assert checks.free_boson_energy(5, 5) == pytest.approx(-8.6602540378,
                                                           abs=1e-9)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         "predict_large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
