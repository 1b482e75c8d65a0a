"""Measurement-induced localization of lattice bosons under light scattering.

The package splits into four layers: ``lattice`` (Fock basis, Hamiltonian,
ground states), ``kernel`` (scattering amplitudes, the per-signature-class
pattern table, and the one angle sampler), ``trajectory`` (the one event
step on signature-class weights, and measurement records that add the
per-basis phases of the scatter events), and ``analysis`` (equivalence
classes, and ensembles and sweeps on class weights alone).  Both engines
advance their trajectories through the same event step.  ``config`` and
``cli`` wrap them for batch runs.
"""

from .analysis import (
    EnsembleStats,
    EquivalenceClass,
    PreparedSystem,
    SweepRow,
    angle_histogram,
    build_classes,
    class_weights,
    predicted_bin_masses,
    prepare_system,
    run_ensemble,
    sweep_uj,
)
from .config import ConfigError, RunConfig, load_config_file, parse_config
from .kernel import (
    CouplingTooStrong,
    PatternTable,
    ScatteringSetup,
    build_pattern_table,
    nonscatter_prob,
    pattern_signature,
    scatter_density,
)
from .lattice import (
    Boundary,
    CapacityError,
    EigensolverError,
    FockBasis,
    HubbardParams,
    LatticeSpec,
    ManyBodyState,
    build_hamiltonian,
    enumerate_basis,
    fock_state,
    ground_state,
    overlap,
)
from .trajectory import (
    DetectionEvent,
    EventKind,
    RngStream,
    TrajectoryRecord,
    ZeroNormProjectionError,
    run_trajectories,
    run_trajectory,
    step,
    trajectory_seed,
)

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "CapacityError",
    "ConfigError",
    "CouplingTooStrong",
    "DetectionEvent",
    "EigensolverError",
    "EnsembleStats",
    "EquivalenceClass",
    "EventKind",
    "FockBasis",
    "HubbardParams",
    "LatticeSpec",
    "ManyBodyState",
    "PatternTable",
    "PreparedSystem",
    "RngStream",
    "RunConfig",
    "ScatteringSetup",
    "SweepRow",
    "TrajectoryRecord",
    "ZeroNormProjectionError",
    "angle_histogram",
    "build_classes",
    "build_hamiltonian",
    "build_pattern_table",
    "class_weights",
    "enumerate_basis",
    "fock_state",
    "ground_state",
    "load_config_file",
    "nonscatter_prob",
    "overlap",
    "parse_config",
    "pattern_signature",
    "predicted_bin_masses",
    "prepare_system",
    "run_ensemble",
    "run_trajectories",
    "run_trajectory",
    "scatter_density",
    "step",
    "sweep_uj",
    "trajectory_seed",
    "__version__",
]
