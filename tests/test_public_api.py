"""The documented public API: exported names, call signatures, the
attributes the benchmark tracer reads, and README's Library example.

Names and signatures are pinned as literals, so that a change to any of
them fails here first and has to be made on purpose.
"""

import contextlib
import inspect
import io
import re
from pathlib import Path

import scatterloc
from scatterloc import lattice

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTED = [
    "Boundary", "CapacityError", "ConfigError", "CouplingTooStrong",
    "DetectionEvent", "EigensolverError", "EnsembleStats",
    "EquivalenceClass", "EventKind", "FockBasis", "HubbardParams",
    "LatticeSpec", "ManyBodyState", "PatternTable", "PreparedSystem",
    "RngStream", "RunConfig", "ScatteringSetup", "SweepRow",
    "TrajectoryRecord", "ZeroNormProjectionError", "angle_histogram",
    "build_classes", "build_hamiltonian", "build_pattern_table",
    "class_weights", "enumerate_basis", "fock_state", "ground_state",
    "load_config_file", "nonscatter_prob", "overlap", "parse_config",
    "pattern_signature", "predicted_bin_masses", "prepare_system",
    "run_ensemble", "run_trajectory", "scatter_density", "step",
    "sweep_uj", "trajectory_seed", "__version__",
]

SIGNATURES = {
    "build_pattern_table":
        "(basis: 'FockBasis', setup: 'ScatteringSetup') -> 'PatternTable'",
    "run_trajectory":
        "(initial_state: 'ManyBodyState', table: 'PatternTable', "
        "n_events: 'int', seed: 'int', snapshot_stride: 'int | None' = None)"
        " -> 'TrajectoryRecord'",
    "run_ensemble":
        "(initial: 'ManyBodyState', n_traj: 'int', n_events: 'int', "
        "table: 'PatternTable', classes, master_seed: 'int', "
        "n_bins: 'int' = 600, snapshot_stride: 'int' = 50, "
        "workers: 'int' = 1) -> 'EnsembleStats'",
    "step":
        "(state: 'ManyBodyState', table: 'PatternTable', rng: 'RngStream', "
        "index: 'int' = 0) -> 'tuple[ManyBodyState, DetectionEvent]'",
    "class_weights":
        "(state: 'ManyBodyState', classes) -> 'np.ndarray'",
    "build_classes":
        "(basis: 'FockBasis') -> 'tuple[EquivalenceClass, ...]'",
}

CONSTRUCTORS = {
    "EquivalenceClass": ["signature", "members", "indices"],
    "FockBasis": ["spec", "states"],
}

# README's Library example as documented; lines may be added around them
LIBRARY_LINES = [
    "import math",
    "from scatterloc import (LatticeSpec, HubbardParams, ScatteringSetup,",
    "                        enumerate_basis, build_hamiltonian, ground_state,",
    "                        build_pattern_table, build_classes, run_trajectory,",
    "                        run_ensemble, trajectory_seed)",
    "lattice = LatticeSpec(M=3, N=3)",
    "basis = enumerate_basis(lattice)",
    "energy, psi = ground_state(build_hamiltonian(basis, "
    "HubbardParams(J=1.0, U=0.0)), basis)",
    "table = build_pattern_table(basis, ScatteringSetup(lattice=lattice, "
    "gN=0.5, k0_a=math.pi))",
    "record = run_trajectory(psi, table, n_events=1000, "
    "seed=trajectory_seed(0, 0))",
    "print(record.converged, record.class_weights_final)",
    "stats = run_ensemble(psi, n_traj=2000, n_events=1000, table=table,",
    "                     classes=build_classes(basis), master_seed=0)",
    "print(stats.class_proportions)          # ~ (0.156, 0.563, 0.094, 0.187)",
    "print(stats.class_proportions_predicted)",
]


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_every_documented_name_is_exported():
    missing = [n for n in EXPORTED if n not in scatterloc.__all__]
    assert missing == []
    for name in EXPORTED:
        assert hasattr(scatterloc, name), name


def test_signatures_are_unchanged():
    for name, expected in SIGNATURES.items():
        got = str(inspect.signature(getattr(scatterloc, name)))
        assert got == expected, name
    for name, params in CONSTRUCTORS.items():
        got = list(inspect.signature(getattr(scatterloc, name)).parameters)
        assert got == params, name


def test_attributes_the_benchmark_tracer_reads():
    table_fields = set(scatterloc.PatternTable.__dataclass_fields__)
    assert {"theta_grid", "weights", "scatter_prob", "ns_prob",
            "ns_amp"} <= table_fields
    record_fields = set(scatterloc.TrajectoryRecord.__dataclass_fields__)
    assert {"events", "aborted"} <= record_fields
    assert isinstance(scatterloc.TrajectoryRecord.n_scatter, property)
    # the stored bytes and the residual's product of a sparse Hamiltonian
    assert isinstance(lattice.SparseSymmetric.nbytes, property)
    assert callable(lattice.SparseSymmetric.__matmul__)


def test_readme_library_example_keeps_its_lines_and_runs():
    block = library_block()
    lines = [ln for ln in block.splitlines() if ln.strip()]
    # the documented lines, in order, with only additions between them
    it = iter(lines)
    for expected in LIBRARY_LINES:
        assert any(ln == expected for ln in it), expected

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0].split()[0] in ("True", "False")
