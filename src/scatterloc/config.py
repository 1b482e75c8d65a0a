"""Run configuration: defaults, JSON file parsing, flag overrides.

A config file is a flat JSON object whose keys are exactly the RunConfig
field names.  Values given on the command line override file values,
which override the built-in defaults.  Unknown keys are hard errors, not
warnings: a typo in a parameter name must never silently run the default.

A configuration is validated when it is built, each rule once, by its
owner: RunConfig turns each value, or its text, into its field's kind
and checks the bounds only a run has, and the LatticeSpec, HubbardParams
and ScatteringSetup it builds on creation check the physics.  So a
command can build every RunConfig.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .kernel import UNIFORM, ScatteringSetup
from .lattice import HubbardParams, LatticeSpec


class ConfigError(Exception):
    """Invalid or malformed run configuration; message names the key."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run.  Only M and N have no default.

    Each value, or its text ("3", "pi", "0,1,inf"), becomes its field's
    kind.  A value of no such kind, or out of a lattice, Hubbard, probe
    or run bound, raises ConfigError naming its key; an inadmissible
    probe raises CouplingTooStrong.
    """

    M: int
    N: int
    boundary: str = "open"
    U: float = 0.0
    J: float = 1.0
    gN: float = 0.1
    k0_a: float = math.pi
    envelope: str = UNIFORM
    sigma_a: float = 0.0
    n_theta: int = 2048
    n_events: int = 3000
    n_traj: int = 1000
    master_seed: int = 0
    n_bins: int = 600
    snapshot_stride: int = 50
    workers: int = 1
    uj_values: tuple[float, ...] = ()
    output_path: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = _of_kind(f.name, f.type, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        for key, minimum in _RUN_MINIMA.items():
            if getattr(self, key) < minimum:
                raise ConfigError(f"{key}: must be >= {minimum}, "
                                  f"got {getattr(self, key)}")
        self.hubbard_params()
        self.scattering_setup()

    def lattice_spec(self) -> LatticeSpec:
        return _build(LatticeSpec, M=self.M, N=self.N, boundary=self.boundary)

    def hubbard_params(self) -> HubbardParams:
        return _build(HubbardParams, J=self.J, U=self.U)

    def scattering_setup(self) -> ScatteringSetup:
        # CouplingTooStrong passes through untouched: an inadmissible
        # probe strength is a physics error, not a parse error
        return _build(ScatteringSetup, lattice=self.lattice_spec(),
                      k0_a=self.k0_a, gN=self.gN, envelope=self.envelope,
                      sigma_a=self.sigma_a, n_theta=self.n_theta)


_KINDS = {f.name: f.type for f in fields(RunConfig)}
_KIND_NAMES = {"int": "an integer", "float": "a finite number",
               "str": "a non-empty string",
               "tuple[float, ...]": "a list of U/J values",
               "U/J": "a number >= 0"}
_RUN_MINIMA = {"n_events": 1, "n_traj": 1, "master_seed": 0, "n_bins": 1,
               "snapshot_stride": 1, "workers": 1}


def _build(cls, **kwargs):
    """cls(**kwargs), with a ValueError raised as a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _of_kind(key: str, kind: str, value):
    """The value, or its text ("pi" for a float, a comma-separated list
    of U/J values), as its field's kind, or ConfigError naming the key."""
    if kind == "tuple[float, ...]":
        if isinstance(value, str):
            value = [v for v in value.split(",") if v != ""]
        if isinstance(value, (list, tuple)):
            return tuple(_of_kind(f"{key}[{i}]", "U/J", v)
                         for i, v in enumerate(value))
    elif kind != "str" and isinstance(value, str):
        text = value.strip().lower()
        try:
            value = (int(text) if kind == "int" else
                     math.pi if text in ("pi", "π") else float(text))
        except ValueError:
            pass
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and isinstance(value, int):
        return value
    if number and kind in ("float", "U/J"):
        # a JSON integer may be beyond any float
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{key}: must be {_KIND_NAMES[kind]}, got an "
                              f"integer beyond the float range") from None
    # nan fails v >= 0; inf is the hard-interaction limit
    if number and (math.isfinite(value) if kind == "float" else
                   kind == "U/J" and value >= 0):
        return value
    if kind == "str" and isinstance(value, str) and value:
        return value
    raise ConfigError(f"{key}: must be {_KIND_NAMES[kind]}, got {value!r}")


def parse_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Merge file values and overrides over the defaults, then validate.

    Both mappings use RunConfig field names as keys; overrides win.
    The first unknown key and a missing required key (M, N) raise
    ConfigError; RunConfig turns every other value, or its text, into
    its field's kind.
    """
    merged = {**(file_values or {}), **(overrides or {})}
    for key in merged:
        if key not in _KINDS:
            raise ConfigError(f"unknown configuration key: {key!r}")
    for required in ("M", "N"):
        if required not in merged:
            raise ConfigError(f"{required}: required key is missing")
    return RunConfig(**merged)


def load_config_file(path: str) -> dict:
    """Read a JSON config file into a raw key-value mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer of more digits than int reads
        raise ConfigError(f"config file {path} cannot be read as JSON: "
                          f"{exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def config_to_mapping(cfg: RunConfig) -> dict:
    """Plain JSON-safe mapping that parse_config reads back to cfg."""
    out = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "uj_values":
            value = ["inf" if math.isinf(v) else v for v in value]
        out[f.name] = value
    return out
