"""Run configuration: defaults, JSON file parsing, flag overrides.

A config file is a flat JSON object whose keys are exactly the RunConfig
field names.  Values given on the command line override file values,
which override the built-in defaults.  Unknown keys are hard errors, not
warnings: a typo in a parameter name must never silently run the default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .kernel import GAUSSIAN, UNIFORM, ScatteringSetup
from .lattice import Boundary, HubbardParams, LatticeSpec


class ConfigError(Exception):
    """Invalid or malformed run configuration; message names the key."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run.  Only M and N have no default."""

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
        for key in _FLOAT_FIELDS:
            value = getattr(self, key)
            if isinstance(value, int) and not isinstance(value, bool):
                object.__setattr__(self, key, float(value))
        _check_int("M", self.M, minimum=1)
        _check_int("N", self.N, minimum=1)
        if self.boundary not in ("open", "periodic"):
            raise ConfigError(f"boundary: must be 'open' or 'periodic', "
                              f"got {self.boundary!r}")
        _check_float("U", self.U)
        _check_float("J", self.J, minimum=0.0)
        _check_float("gN", self.gN, strict_minimum=0.0)
        _check_float("k0_a", self.k0_a, strict_minimum=0.0)
        if self.envelope not in (UNIFORM, GAUSSIAN):
            raise ConfigError(f"envelope: must be '{UNIFORM}' or "
                              f"'{GAUSSIAN}', got {self.envelope!r}")
        _check_float("sigma_a", self.sigma_a, minimum=0.0)
        if self.envelope == GAUSSIAN and not self.sigma_a > 0:
            raise ConfigError("sigma_a: gaussian envelope requires "
                              "sigma_a > 0")
        _check_int("n_theta", self.n_theta, minimum=64)
        if self.n_theta % 2 != 0:
            raise ConfigError(f"n_theta: must be even, got {self.n_theta}")
        _check_int("n_events", self.n_events, minimum=1)
        _check_int("n_traj", self.n_traj, minimum=1)
        _check_int("master_seed", self.master_seed, minimum=0)
        _check_int("n_bins", self.n_bins, minimum=1)
        _check_int("snapshot_stride", self.snapshot_stride, minimum=1)
        _check_int("workers", self.workers, minimum=1)
        values = []
        for i, v in enumerate(self.uj_values):
            bad = isinstance(v, bool) or not isinstance(v, (int, float))
            if bad or math.isnan(v) or v < 0:
                raise ConfigError(f"uj_values[{i}]: must be a number >= 0, "
                                  f"got {v!r}")
            values.append(float(v))
        object.__setattr__(self, "uj_values", tuple(values))
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ConfigError("output_path: must be a non-empty string")

    def lattice_spec(self) -> LatticeSpec:
        try:
            return LatticeSpec(M=self.M, N=self.N,
                               boundary=Boundary(self.boundary))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def hubbard_params(self) -> HubbardParams:
        try:
            return HubbardParams(J=self.J, U=self.U)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def scattering_setup(self) -> ScatteringSetup:
        # CouplingTooStrong passes through untouched: an inadmissible
        # probe strength is a physics error, not a parse error
        try:
            return ScatteringSetup(lattice=self.lattice_spec(),
                                   k0_a=self.k0_a, gN=self.gN,
                                   envelope=self.envelope,
                                   sigma_a=self.sigma_a,
                                   n_theta=self.n_theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_INT_FIELDS = {"M", "N", "n_theta", "n_events", "n_traj", "master_seed",
               "n_bins", "snapshot_stride", "workers"}
_FLOAT_FIELDS = {"U", "J", "gN", "k0_a", "sigma_a"}
_STR_FIELDS = {"boundary", "envelope", "output_path"}
_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def _check_int(key, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")


def _check_float(key, value, minimum=None, strict_minimum=None):
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    if strict_minimum is not None and value <= strict_minimum:
        raise ConfigError(f"{key}: must be > {strict_minimum}, got {value}")


def _coerce(key: str, value):
    """Convert a raw JSON or command-line value to the field's type."""
    if key in _INT_FIELDS:
        if isinstance(value, bool):
            raise ConfigError(f"{key}: must be an integer, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise ConfigError(f"{key}: must be an integer, "
                                  f"got {value!r}") from None
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if key in _FLOAT_FIELDS:
        return _parse_float(key, value)
    if key in _STR_FIELDS:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: must be a string, got {value!r}")
        return value
    if key == "uj_values":
        if isinstance(value, str):
            value = [v for v in value.split(",") if v != ""]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"uj_values: must be a list, got {value!r}")
        return tuple(_parse_float(f"uj_values[{i}]", v, allow_inf=True)
                     for i, v in enumerate(value))
    raise ConfigError(f"unknown configuration key: {key!r}")


def _parse_float(key, value, allow_inf=False):
    if isinstance(value, bool):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("pi", "π"):
            return math.pi
        if text == "inf" and allow_inf:
            return math.inf
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{key}: must be a number, "
                              f"got {value!r}") from None
    if isinstance(value, (int, float)):
        value = float(value)
        if math.isinf(value) and allow_inf:
            return value
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
        return value
    raise ConfigError(f"{key}: must be a number, got {value!r}")


def parse_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Merge file values and overrides over the defaults, then validate.

    Both mappings use RunConfig field names as keys; overrides win.
    Unknown keys and missing required keys (M, N) raise ConfigError.
    """
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in _FIELD_NAMES:
                raise ConfigError(f"unknown configuration key: {key!r}")
            merged[key] = _coerce(key, value)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: "
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

