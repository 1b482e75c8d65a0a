"""Command line layer: parsing, output formats, atomicity, golden files.

Golden outputs live in tests/golden/ and pin the byte-level format of
every CSV for a tiny fixed run.  Regenerate deliberately with

    SCATTERLOC_REGEN_GOLDEN=1 python -m pytest tests/test_cli.py -k golden

after a reviewed format change; never regenerate to silence a diff you
cannot explain.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from scatterloc import _float17, analysis, cli
from scatterloc.config import ConfigError, config_to_mapping, parse_config

GOLDEN_DIR = Path(__file__).parent / "golden"

# the fixed tiny run pinned by the golden files
GOLDEN_CONFIG = {
    "M": 2,
    "N": 2,
    "n_events": 100,
    "master_seed": 7,
    "n_theta": 256,
    "n_traj": 20,
    "n_bins": 24,
}


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_round_trip_through_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("predict", "--out", str(out), "--seed", "3",
                       "--set", "M=3", "--set", "N=3", "--set", "U=0.05",
                       "--set", "envelope=gaussian", "--set", "sigma_a=0.2",
                       "--set", "uj_values=0,0.5,inf")
        assert code == 0
        echoed = read_manifest(out)["config"]
        cfg = parse_config(echoed)
        assert config_to_mapping(cfg) == echoed
        assert cfg.master_seed == 3
        assert cfg.U == 0.05
        assert cfg.uj_values == (0.0, 0.5, math.inf)

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=2", "--set", "N=2",
                       "--set", "bogus_knob=3")
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_missing_required_key_is_exit_2(self, tmp_path, capsys):
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=2")
        assert code == 2
        assert "N" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,key", [
        ("--traj", "abc", "n_traj"), ("--seed", "x", "master_seed"),
        ("--events", "1.5", "n_events"), ("--bins", "", "n_bins")])
    def test_bad_dedicated_flag_value_is_exit_2(self, tmp_path, capsys,
                                                flag, value, key):
        # the configuration parses a dedicated flag's text as it parses
        # --set text, so the message names the key, not the flag
        code = run_cli("predict", flag, value, "--set", "M=2",
                       "--set", "N=2", "--out", str(tmp_path / "x"))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_flags_before_the_command_parse_the_same(self, tmp_path,
                                                     command):
        flags = ["--seed", "4", "--out", str(tmp_path), "--traj", "30",
                 "--events", "50", "--bins", "12", "--set", "M=3",
                 "--set", "N=3", "--set", "uj_values=0,inf"]

        def config(argv):
            return cli.config_from_args(cli.build_parser().parse_args(argv))

        after = config([command, *flags])
        assert config([*flags, command]) == after
        assert config([*flags[:6], command, *flags[6:]]) == after
        assert (after.master_seed, after.n_traj, after.n_events,
                after.n_bins) == (4, 30, 50, 12)

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for command, fn in cli._COMMANDS.items():
            assert command in text
            assert fn.__doc__ in text

    def test_malformed_set_is_exit_2(self, tmp_path):
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=2", "--set", "N=2", "--set", "n_theta")
        assert code == 2

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = run_cli("predict", "--config",
                       str(tmp_path / "does_not_exist.json"))
        assert code == 2
        assert "does_not_exist" in capsys.readouterr().err

    def test_json_integer_beyond_the_float_range_is_exit_2(self, tmp_path,
                                                           capsys):
        path = tmp_path / "big.json"
        path.write_text('{"M": 3, "N": 3, "U": 1' + "0" * 400 + "}")
        code = run_cli("predict", "--config", str(path),
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: U: "), err
        assert not (tmp_path / "x").exists()

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"M": 2, "N": 2, "n_events": 500, "master_seed": 1}))
        out = tmp_path / "out"
        code = run_cli("trajectory", "--config", str(cfg_file),
                       "--events", "40", "--out", str(out))
        assert code == 0
        echoed = read_manifest(out)["config"]
        assert echoed["n_events"] == 40
        assert echoed["master_seed"] == 1

    def test_dedicated_flag_beats_set(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("predict", "--out", str(out), "--seed", "9",
                       "--set", "M=2", "--set", "N=2",
                       "--set", "master_seed=1")
        assert code == 0
        assert read_manifest(out)["config"]["master_seed"] == 9

    def test_coupling_too_strong_is_exit_3(self, tmp_path, capsys):
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=2", "--set", "N=1", "--set", "gN=1.5")
        assert code == 3
        assert capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("probe", [
        ("sigma_a=5", "gN=7.4", "n_theta=64"), ("sigma_a=7", "gN=9")])
    def test_coupling_refused_by_the_table_is_exit_3(self, tmp_path, capsys,
                                                     probe):
        # probes the parse-time closed form admits and the table's grid
        # check refuses, naming the state
        sets = [arg for kv in ("envelope=gaussian", *probe)
                for arg in ("--set", kv)]
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=3", "--set", "N=3", *sets)
        assert code == 3
        assert "basis state (3, 0, 0)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_coupling_too_weak_is_exit_2(self, tmp_path, capsys):
        # a probe whose table prefactor underflows once wrote nan for
        # every predicted_density of histogram.csv and exited 0
        code = run_cli("ensemble", "--out", str(tmp_path / "x"),
                       "--set", "M=3", "--set", "N=3", "--set", "gN=1e-200",
                       "--traj", "5", "--events", "10", "--bins", "4")
        assert code == 2
        assert "gN" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("gN", ["0.5", "2"])
    def test_envelope_exponent_overflow_is_exit_2(self, tmp_path, capsys,
                                                  gN):
        # k0_a sigma_a = 1e200 once printed an OverflowError traceback
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=3", "--set", "N=3",
                       "--set", "envelope=gaussian", "--set", "sigma_a=1e100",
                       "--set", "k0_a=1e100", "--set", f"gN={gN}")
        assert code == 2
        assert "(k0_a sigma_a)^2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,sets,code", [
        ("predict", ["envelope=gaussian", "k0_a=1", "gN=0.5",
                     "sigma_a=1.3e154"], 2),
        ("predict", ["envelope=gaussian", "k0_a=1", "gN=0.5",
                     "sigma_a=9e153"], 0),
        ("predict", ["J=1e200"], 4),
        ("predict", ["U=1e308"], 4),
        ("sweep", ["uj_values=1e308"], 4),
        ("predict", ["J=0", "U=1e300"], 0)],
        ids=["sigma_a", "sigma_a-below", "J", "U", "sweep-U", "hard-core-U"])
    def test_overflow_is_an_exit_code_not_a_warning(self, tmp_path, capsys,
                                                    command, sets, code):
        # each failing run once printed a RuntimeWarning and went on, a
        # traceback and exit 1 where warnings are errors
        argv = [command, "--out", str(tmp_path / "x"), "--set", "M=3",
                "--set", "N=3"]
        for item in sets:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (code != 0)
        assert all(line.startswith("error: ") for line in err)
        if code == 2:
            assert "sigma_a" in err[0]

    def test_unwritable_output_is_exit_4(self, tmp_path):
        target = tmp_path / "blocker"
        target.write_text("a file where a directory must go")
        code = run_cli("predict", "--out", str(target / "sub"),
                       "--set", "M=2", "--set", "N=2")
        assert code == 4

    def test_tables_beyond_physical_memory_are_exit_4(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setattr(analysis, "_physical_memory", lambda: 1 << 16)
        code = run_cli("predict", "--out", str(tmp_path / "x"),
                       "--set", "M=3", "--set", "N=3")
        assert code == 4
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,extra,module,engine", [
        ("trajectory", ["--events", "10000000"], cli, "run_trajectory"),
        ("trajectory", ["--events", "1" + "0" * 400], cli, "run_trajectory"),
        ("ensemble", ["--traj", "1000000", "--events", "10"], analysis,
         "_lockstep"),
        ("ensemble", ["--traj", "1" + "0" * 400], analysis, "_lockstep"),
        ("sweep", ["--traj", "500000", "--set", "uj_values=0,inf"],
         analysis, "_lockstep")],
        ids=["trajectory", "trajectory-10^400", "ensemble",
             "ensemble-10^400", "sweep"])
    def test_engine_arrays_beyond_physical_memory_are_exit_4(
            self, tmp_path, monkeypatch, capsys, command, extra, module,
            engine):
        # the set-up fits with 64 MiB to spare; 10^7 events of class
        # weights, or 10^6 trajectories' streams and weights, do not.  A
        # 400-digit count once ran until killed
        setup = parse_config({"M": 3, "N": 3}).scattering_setup()
        have = analysis._memory_need(setup) + 2**26
        monkeypatch.setattr(analysis, "_physical_memory", lambda: have)
        called = []
        monkeypatch.setattr(module, engine, lambda *a, **k: called.append(a))
        start = time.perf_counter()
        code = run_cli(command, "--out", str(tmp_path / "x"),
                       "--set", "M=3", "--set", "N=3", *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert called == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "for its engine" in err[0] and "physical memory" in err[0]
        assert not (tmp_path / "x").exists()

    def test_refused_allocation_is_exit_4(self, tmp_path, monkeypatch,
                                          capsys):
        # what numpy raises when the host refuses an array, e.g. the
        # histogram of an --bins 10^12 ensemble
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "run_ensemble", refuse)
        code = run_cli("ensemble", "--out", str(tmp_path / "x"),
                       "--set", "M=2", "--set", "N=2", "--traj", "2",
                       "--events", "10")
        assert code == 4
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB\n"
        assert not (tmp_path / "x").exists()

    def test_sweep_without_values_is_exit_2(self, tmp_path, capsys):
        code = run_cli("sweep", "--out", str(tmp_path / "x"),
                       "--set", "M=2", "--set", "N=2")
        assert code == 2
        assert "uj_values" in capsys.readouterr().err


class TestAtomicity:
    def test_crash_between_write_and_rename_leaves_nothing(
            self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = parse_config({"M": 2, "N": 2, "output_path": str(out)})

        def boom(src, dst):
            raise RuntimeError("injected crash before rename")

        monkeypatch.setattr(cli.os, "replace", boom)
        with pytest.raises(RuntimeError):
            cli.cmd_predict(cfg, cli.OutputWriter("predict", cfg))
        assert list(out.iterdir()) == []

    def test_manifest_written_last(self, tmp_path, monkeypatch):
        # fail the third CSV once its temp file is written; the manifest
        # must not exist, so nothing downstream mistakes the partial run
        # for a complete one, and the temp file must be gone
        out = tmp_path / "out"
        cfg = parse_config({"M": 2, "N": 2, "output_path": str(out)})
        real_write, real_replace = cli._atomic_write, cli.os.replace
        calls = []

        def counting(path, data):
            calls.append(path.name)
            real_write(path, data)

        def failing_third(src, dst):
            assert Path(src).exists()
            if len(calls) == 3:
                raise OSError("injected write failure")
            real_replace(src, dst)

        monkeypatch.setattr(cli, "_atomic_write", counting)
        monkeypatch.setattr(cli.os, "replace", failing_third)
        with pytest.raises(OSError):
            cli.cmd_predict(cfg, cli.OutputWriter("predict", cfg))
        names = {p.name for p in out.iterdir()}
        assert "manifest.json" not in names
        assert names == {"ground_state.csv", "scatter_density.csv"}

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_failure_mid_stream_leaves_nothing(self, tmp_path, monkeypatch,
                                               capsys, error):
        # the first block of events.csv reaches its temp file, then the
        # rows fail: the temp file goes, no file or manifest is left and
        # the exit code is that of the exception
        real_lines = cli._lines

        def failing(*args):
            yield next(real_lines(*args))
            raise error("injected failure after the first block")

        monkeypatch.setattr(cli, "_lines", failing)
        out = tmp_path / "out"
        code = run_cli("trajectory", "--out", str(out), "--set", "M=2",
                       "--set", "N=2", "--events", "20")
        assert code == 4
        assert capsys.readouterr().err == \
            "error: injected failure after the first block\n"
        assert list(out.iterdir()) == []

    def test_writer_streams_blocks_and_unlinks_on_failure(self, tmp_path):
        cfg = parse_config({"M": 2, "N": 2, "output_path": str(tmp_path)})
        writer = cli.OutputWriter("trajectory", cfg)
        # no block, and an empty block, write the header alone
        writer.write_csv("empty.csv", ["a", "b"], [])
        writer.write_csv("hollow.csv", ["a", "b"], [b"", b"1,2\n", b""])
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
        assert (tmp_path / "hollow.csv").read_bytes() == b"a,b\n1,2\n"
        for name in ("empty.csv", "hollow.csv"):
            assert writer.checksums[name] == hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest()

        def blocks():
            yield b"1,2\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            writer.write_csv("broken.csv", ["a", "b"], blocks())
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["empty.csv", "hollow.csv"]
        assert "broken.csv" not in writer.checksums

    @pytest.mark.parametrize("command,extra", [
        ("predict", []),
        ("trajectory", ["--events", "20"]),
        ("ensemble", ["--traj", "4", "--events", "20", "--bins", "8"]),
        ("sweep", ["--traj", "4", "--events", "20",
                   "--set", "uj_values=0,inf"]),
    ])
    def test_outputs_follow_the_umask(self, tmp_path, command, extra):
        # outputs are created like any file the user makes, not with a
        # private temp file's 0600
        out = tmp_path / "out"
        old = os.umask(0o027)
        try:
            assert run_cli(command, "--out", str(out), "--set", "M=2",
                           "--set", "N=2", *extra) == 0
        finally:
            os.umask(old)
        paths = list(out.iterdir())
        assert "manifest.json" in {p.name for p in paths}
        for path in paths:
            assert path.stat().st_mode & 0o777 == 0o640, path.name


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("predict", []),
        ("trajectory", ["--events", "60"]),
        ("ensemble", ["--traj", "15", "--events", "60", "--bins", "16"]),
        ("sweep", ["--traj", "8", "--events", "40", "--bins", "16",
                   "--set", "uj_values=0,inf"]),
    ])
    def test_identical_reruns_are_byte_identical(self, tmp_path, command,
                                                 extra):
        base = ["--set", "M=2", "--set", "N=2", "--set", "gN=0.4",
                "--seed", "11", *extra]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(command, *base, "--out", str(out_a)) == 0
        assert run_cli(command, *base, "--out", str(out_b)) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "manifest.json":
                # config echoes differ in output_path only
                man_a = read_manifest(out_a)
                man_b = read_manifest(out_b)
                man_a["config"].pop("output_path")
                man_b["config"].pop("output_path")
                assert man_a == man_b
            else:
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes(), name

    def test_checksums_match_files(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("predict", "--out", str(out),
                       "--set", "M=3", "--set", "N=2") == 0
        for name, digest in read_manifest(out)["checksums"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest, name


class TestOutputs:
    def test_predict_j0_gives_single_class_probability_one(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("predict", "--out", str(out), "--set", "M=3",
                       "--set", "N=3", "--set", "J=0", "--set", "U=1") == 0
        rows = csv_rows(out / "classes.csv")
        assert len(rows) == 4
        probs = [float(r["probability"]) for r in rows]
        assert rows[3]["signature"] == "3 2 1"
        assert probs[3] == 1.0
        assert probs[:3] == [0.0, 0.0, 0.0]

    def test_ensemble_mott_proportions(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ensemble", "--out", str(out), "--set", "M=3",
                       "--set", "N=3", "--set", "J=0", "--set", "U=1",
                       "--traj", "30", "--events", "50",
                       "--bins", "20") == 0
        rows = csv_rows(out / "class_proportions.csv")
        empirical = [float(r["empirical"]) for r in rows]
        assert empirical == [0.0, 0.0, 0.0, 1.0]
        conv = csv_rows(out / "convergence.csv")[0]
        assert conv["convergence_rate"] == "1"
        assert conv["n_converged"] == "30"

    def test_ensemble_and_sweep_record_no_intermediate_snapshots(
            self, tmp_path, monkeypatch):
        # no CSV of either command reads the ensemble's snapshots, so
        # the engine is asked for the first and last event only
        strides = []

        def spy(real):
            def wrapper(*args, **kw):
                strides.append(kw["snapshot_stride"])
                return real(*args, **kw)
            return wrapper

        monkeypatch.setattr(cli, "run_ensemble", spy(cli.run_ensemble))
        monkeypatch.setattr(cli, "sweep_uj", spy(cli.sweep_uj))
        for command in ("ensemble", "sweep"):
            assert run_cli(command, "--out", str(tmp_path / command),
                           "--set", "M=2", "--set", "N=2",
                           "--set", "snapshot_stride=3",
                           "--set", "uj_values=0.5", "--traj", "4",
                           "--events", "30", "--bins", "8") == 0
        assert strides == [30, 30]

    def test_trajectory_event_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("trajectory", "--out", str(out), "--set", "M=2",
                       "--set", "N=2", "--events", "50", "--seed", "2",
                       "--set", "gN=0.5") == 0
        rows = csv_rows(out / "events.csv")
        assert len(rows) == 51
        assert rows[0]["m"] == "0" and rows[0]["kind"] == "start"
        assert [r["m"] for r in rows[1:]] == [str(m) for m in range(1, 51)]
        for row in rows:
            kind = row["kind"]
            assert kind in ("start", "scatter", "nonscatter")
            if kind == "scatter":
                assert -math.pi <= float(row["theta"]) < math.pi
            else:
                assert row["theta"] == ""
            weights = [float(row["weight_1"]), float(row["weight_2"])]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert any(r["kind"] == "scatter" for r in rows)

    def test_trajectory_snapshot_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("trajectory", "--out", str(out), "--set", "M=2",
                       "--set", "N=2", "--events", "120", "--seed", "2",
                       "--set", "snapshot_stride=50") == 0
        rows = csv_rows(out / "snapshots.csv")
        dim = 3  # two sites, two bosons
        ms = sorted({int(r["m"]) for r in rows})
        assert ms == [0, 50, 100, 120]
        assert len(rows) == len(ms) * dim
        by_m = {}
        for r in rows:
            by_m.setdefault(int(r["m"]), []).append(
                complex(float(r["coeff_re"]), float(r["coeff_im"])))
        for m, coeffs in by_m.items():
            norm = sum(abs(c) ** 2 for c in coeffs)
            assert norm == pytest.approx(1.0, abs=1e-12), m

    def test_histogram_totals_match_convergence_summary(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ensemble", "--out", str(out), "--set", "M=2",
                       "--set", "N=2", "--set", "gN=0.5", "--traj", "25",
                       "--events", "80", "--bins", "16", "--seed", "4") == 0
        hist = csv_rows(out / "histogram.csv")
        assert len(hist) == 16
        total = sum(int(r["count"]) for r in hist)
        conv = csv_rows(out / "convergence.csv")[0]
        assert total == int(conv["total_scatter_events"])
        # predicted densities integrate to one over the angle range
        width = 2 * math.pi / 16
        mass = sum(float(r["predicted_density"]) * width for r in hist)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--out", str(out), "--set", "M=3",
                       "--set", "N=3", "--set", "uj_values=0,inf",
                       "--traj", "10", "--events", "60",
                       "--bins", "16") == 0
        rows = csv_rows(out / "sweep.csv")
        assert [r["uj"] for r in rows] == ["0", "inf"]
        assert float(rows[0]["energy"]) == pytest.approx(
            -3 * math.sqrt(2), abs=1e-9)
        assert float(rows[1]["energy"]) == 0.0
        assert float(rows[1]["predicted_4"]) == 1.0
        assert float(rows[1]["empirical_4"]) == 1.0

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "scatterloc.cli", "predict",
             "--out", str(out), "--set", "M=2", "--set", "N=2"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()


# the oracle's runs, at the writer's block size and at blocks of one
# row, or of a few rows of a narrow file (9 fields)
_CSV_RUNS = [
    ("predict", []),
    ("trajectory", ["--events", "300", "--set", "snapshot_stride=40"]),
    ("ensemble", ["--traj", "40", "--events", "200", "--bins", "32"]),
    ("sweep", ["--traj", "20", "--events", "100", "--bins", "32",
               "--set", "uj_values=0,2,inf"]),
]


class TestCsvFormat:
    """Every CSV of every command, byte for byte, against the oracle that
    formats field by field and writes through csv.writer."""

    # 280 block fields hold two whole snapshots of D = 35 rows of 4 fields
    @pytest.mark.parametrize("command,extra,block_fields,vector_fields", [
        *(pytest.param(command, extra, None, None, id=f"{command}-extra{i}")
          for i, (command, extra) in enumerate(_CSV_RUNS)),
        *(pytest.param(command, extra, fields, None,
                       id=f"{command}-fields{fields}")
          for command, extra in _CSV_RUNS for fields in (1, 9, 280)),
        # every block's trailing float run through _float17.format_17g
        *(pytest.param(command, extra, fields, 1, id=f"{command}-vector"
                       + (f"-fields{fields}" if fields else ""))
          for command, extra in _CSV_RUNS for fields in (None, 1, 9, 280))])
    def test_matches_field_by_field_oracle(self, tmp_path, monkeypatch,
                                           command, extra, block_fields,
                                           vector_fields):
        # at M = N = 4 no block holds 2^13 fields, so the writer's own
        # size rule formats every field through %
        formatted = []
        real_format = _float17.format_17g
        monkeypatch.setattr(_float17, "format_17g", lambda values: (
            formatted.append(values.size), real_format(values))[1])
        if vector_fields is not None:
            monkeypatch.setattr(cli, "_VECTOR_FIELDS", vector_fields)
        chunks = {}
        if block_fields is not None:
            # count the chunks each file is written in
            real_write = cli._atomic_write

            def counting(path, data):
                def counted():
                    for chunk in data:
                        chunks[path.name] = chunks.get(path.name, 0) + 1
                        yield chunk
                real_write(path, counted())

            monkeypatch.setattr(cli, "_BLOCK_FIELDS", block_fields)
            monkeypatch.setattr(cli, "_atomic_write", counting)
        argv = [command, "--out", str(tmp_path), "--seed", "5",
                "--set", "M=4", "--set", "N=4", "--set", "gN=0.5",
                "--set", "U=0.3", *extra]
        assert run_cli(*argv) == 0
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        expected = getattr(oracles, f"{command}_csvs")(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([*expected, "manifest.json"])
        checksums = read_manifest(tmp_path)["checksums"]
        # F, the fields of a file's row template: an occupation or a
        # signature is M = 4 of them, and K classes give K weights
        n_classes = len(analysis.prepare_system(cfg).classes)
        fields = {"ground_state.csv": 9, "scatter_density.csv": 2,
                  "classes.csv": 8, "events.csv": n_classes + 4,
                  "snapshots.csv": 4, "class_proportions.csv": 7,
                  "histogram.csv": 3, "convergence.csv": 6,
                  "sweep.csv": 2 * n_classes + 3}
        for name, text in expected.items():
            data = text.encode("utf-8")
            assert (tmp_path / name).read_bytes() == data, name
            assert checksums[name] == hashlib.sha256(data).hexdigest(), name
            if block_fields is not None:
                # the header, then ceil(rows / max(1, block_fields // F))
                # blocks, counted per group for snapshots.csv: as many
                # whole snapshots of D rows as one block holds, at least 1
                rows = text.splitlines()[1:]
                runs = [len(rows)]
                if name == "snapshots.csv":
                    snaps = list(Counter(r.partition(",")[0]
                                         for r in rows).values())
                    per = max(1, block_fields // fields[name] // snaps[0])
                    runs = [sum(snaps[i:i + per])
                            for i in range(0, len(snaps), per)]
                size = max(1, block_fields // fields[name])
                assert chunks[name] == 1 + sum(-(-n // size) for n in runs), \
                    name
        # the rows cover every kind of field
        if command == "trajectory":
            assert ",scatter," in expected["events.csv"]
            assert ",nonscatter,," in expected["events.csv"]
            assert "\n300,0," in expected["snapshots.csv"]
        if command == "sweep":
            assert "\ninf," in expected["sweep.csv"]
        assert bool(formatted) == (vector_fields is not None)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_percent_17g_is_format_17g(self, x):
        assert "%.17g" % x == format(x, ".17g")

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_format_17g_is_percent_17g(self, x):
        assert _float17.format_17g(np.array([[x]])) == b"%.17g\n" % x


class TestFormat17g:
    """_float17.format_17g against Python's b"%.17g" % v, byte for byte."""

    @staticmethod
    def mismatches(values, width=1):
        x = np.asarray(values, dtype=np.float64)
        x = x[:len(x) // width * width].reshape(-1, width)
        bad = []
        # the writer's largest call, so the arrays stay small
        for a in range(0, len(x), cli._VECTOR_FIELDS // width):
            rows = x[a:a + cli._VECTOR_FIELDS // width]
            got = _float17.format_17g(rows)
            want = b"".join(b",".join([b"%.17g" % v for v in row]) + b"\n"
                            for row in rows.tolist())
            if got != want:
                bad += [(row, line) for row, line in zip(
                    rows.tolist(), got.split(b"\n"))
                    if line != b",".join([b"%.17g" % v for v in row])]
        return bad

    def test_random_bit_patterns(self):
        # every exponent, nan payloads, infinities and subnormals among
        # them; values on rows of 1 and of 7 fields
        bits = np.random.default_rng(20261020).integers(
            0, 2**64, 210_000, dtype=np.uint64, endpoint=False)
        x = np.concatenate([bits.view(np.float64), [
            0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
            np.uint64(0x7FF0000000000001).view(np.float64),
            np.uint64(0xFFF800000000ABCD).view(np.float64),
            np.uint64(1).view(np.float64), -np.uint64(12345).view(np.float64)]])
        assert np.isnan(x).sum() > 50 and (np.abs(x) < 2.0**-1022).sum() > 50
        assert self.mismatches(x) == []
        assert self.mismatches(x, width=7) == []

    def test_powers_of_two_and_ten(self):
        x = [2.0**e for e in range(-1074, 1024)]
        x += [float(f"1e{e}") for e in range(-323, 309)]
        assert self.mismatches(x + [-v for v in x]) == []

    def test_ties_switch_points_and_extremes(self):
        # 2^-25 and 3 * 2^-25 end in an exact half at the 18th digit, as
        # do 1607 more odd multiples i * 2^-j; half of them round up
        ties = [x for j in range(1, 80) for i in range(1, 2000, 2) if len(
            Decimal(x := i * 2.0**-j).as_tuple().digits) == 18]
        assert len(ties) == 1607
        x = [2.0**-25, 3 * 2.0**-25, *ties, 1e-5, 1e-4,
             math.nextafter(1e-4, 0), 1e16, 1e17, 5e-324,
             sys.float_info.max]
        assert self.mismatches(x + [-v for v in x]) == []
        assert _float17.format_17g(np.array([x[:2]])) == \
            b"2.9802322387695312e-08,8.9406967163085938e-08\n"


def _golden_argv(command: str, out: Path) -> list[str]:
    argv = [command, "--out", str(out)]
    for key, value in GOLDEN_CONFIG.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _regenerate_golden(command: str, golden: Path) -> None:
    """Rerun command into its golden directory.  An existing manifest
    keeps its own output_path and versions, which the comparison drops,
    so a regeneration diff shows only payload changes, never the local
    checkout's path or library versions."""
    old = read_manifest(golden) if (golden / "manifest.json").exists() \
        else None
    golden.mkdir(parents=True, exist_ok=True)
    assert run_cli(*_golden_argv(command, golden)) == 0
    if old is not None:
        new = read_manifest(golden)
        new["config"]["output_path"] = old["config"]["output_path"]
        new["versions"] = old["versions"]
        (golden / "manifest.json").write_text(
            json.dumps(new, indent=2, sort_keys=True) + "\n")


class TestGoldenFiles:
    @pytest.mark.parametrize("command", ["predict", "trajectory", "ensemble"])
    def test_golden(self, tmp_path, command):
        golden = GOLDEN_DIR / command
        if os.environ.get("SCATTERLOC_REGEN_GOLDEN"):
            _regenerate_golden(command, golden)
            pytest.skip("regenerated golden files")
        out = tmp_path / command
        assert run_cli(*_golden_argv(command, out)) == 0
        golden_names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out.iterdir()) == golden_names
        for name in golden_names:
            if name == "manifest.json":
                man_new = read_manifest(out)
                man_gold = read_manifest(golden)
                man_new["config"].pop("output_path")
                man_gold["config"].pop("output_path")
                # versions may drift across environments; checksums pin
                # the payload bytes regardless
                man_new.pop("versions")
                man_gold.pop("versions")
                assert man_new == man_gold
            else:
                assert (out / name).read_bytes() == \
                    (golden / name).read_bytes(), name


# refuses every import of the scipy package, then runs each argv list
# given as JSON in sys.argv[1] and prints its exit code
_REFUSE_SCIPY = """\
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from scatterloc import cli
for argv in json.loads(sys.argv[1]):
    print(cli.main(argv))
"""


class TestNumpyOnlyRuntime:
    def test_commands_run_with_scipy_refused(self, tmp_path):
        # numpy is the only runtime dependency: with every scipy import
        # refused, each command exits 0, writes the bytes of an ordinary
        # run and records no scipy version
        commands = {"predict": [], "trajectory": [], "ensemble": [],
                    "sweep": ["--set", "uj_values=0,inf"]}
        refused = [_golden_argv(command, tmp_path / "refused" / command)
                   + extra for command, extra in commands.items()]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _REFUSE_SCIPY, json.dumps(refused)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0"] * len(commands)
        for command, extra in commands.items():
            ordinary = tmp_path / "ordinary" / command
            assert run_cli(*_golden_argv(command, ordinary), *extra) == 0
            manifest = read_manifest(tmp_path / "refused" / command)
            assert manifest["checksums"] == \
                read_manifest(ordinary)["checksums"], command
            assert sorted(manifest["versions"]) == \
                ["numpy", "python", "scatterloc"], command
