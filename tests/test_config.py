"""Configuration model: coercion, validation, file loading, round trips."""

import json
import math
from dataclasses import replace

import pytest

from scatterloc.config import (
    ConfigError,
    RunConfig,
    _coerce,
    config_to_mapping,
    load_config_file,
    parse_config,
)


def with_overrides(cfg: RunConfig, **kw) -> RunConfig:
    """Copy of cfg with the given fields replaced (and revalidated)."""
    coerced = {k: _coerce(k, v) for k, v in kw.items()}
    return replace(cfg, **coerced)


class TestDefaults:
    def test_only_sizes_are_required(self):
        cfg = RunConfig(M=3, N=2)
        assert cfg.boundary == "open"
        assert cfg.J == 1.0 and cfg.U == 0.0
        assert cfg.k0_a == math.pi
        assert cfg.n_theta == 2048 and cfg.n_bins == 600
        assert cfg.uj_values == ()

    def test_missing_size_names_the_key(self):
        with pytest.raises(ConfigError, match="N"):
            parse_config({"M": 3})


class TestCoercion:
    def test_pi_spellings(self):
        for text in ("pi", "PI", "3.5", "0.5"):
            cfg = parse_config({"M": 2, "N": 2, "k0_a": text})
            expected = math.pi if text.lower() == "pi" else float(text)
            assert cfg.k0_a == expected

    def test_int_literals_fill_float_fields(self):
        cfg = parse_config({"M": 2, "N": 2, "U": 1, "gN": 1})
        assert isinstance(cfg.U, float) and cfg.U == 1.0
        assert isinstance(cfg.gN, float)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="n_events"):
            parse_config({"M": 2, "N": 2, "n_events": True})

    def test_uj_values_from_string_and_list(self):
        cfg = parse_config({"M": 2, "N": 2, "uj_values": "0,0.5,inf"})
        assert cfg.uj_values == (0.0, 0.5, math.inf)
        cfg = parse_config({"M": 2, "N": 2, "uj_values": [0, 1.5, "inf"]})
        assert cfg.uj_values == (0.0, 1.5, math.inf)

    def test_inf_is_rejected_outside_uj_values(self):
        with pytest.raises(ConfigError, match="k0_a"):
            parse_config({"M": 2, "N": 2, "k0_a": "inf"})

    def test_numeric_strings_for_ints(self):
        cfg = parse_config({"M": "3", "N": "2", "n_traj": "17"})
        assert (cfg.M, cfg.N, cfg.n_traj) == (3, 2, 17)


class TestValidation:
    @pytest.mark.parametrize("key,value", [
        ("M", 0),
        ("N", -1),
        ("J", -0.5),
        ("gN", 0.0),
        ("k0_a", -1.0),
        ("n_theta", 63),
        ("n_theta", 129),
        ("n_events", 0),
        ("n_traj", 0),
        ("n_bins", 0),
        ("snapshot_stride", 0),
        ("workers", 0),
        ("boundary", "twisted"),
        ("envelope", "lorentzian"),
        ("uj_values", "-1,2"),
    ])
    def test_bad_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config({"M": 3, "N": 3, key: value})

    def test_gaussian_needs_width(self):
        with pytest.raises(ConfigError, match="sigma_a"):
            parse_config({"M": 2, "N": 2, "envelope": "gaussian"})
        cfg = parse_config({"M": 2, "N": 2, "envelope": "gaussian",
                            "sigma_a": 0.2})
        assert cfg.sigma_a == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="hopping"):
            parse_config({"M": 2, "N": 2, "hopping": 1.0})

    def test_overrides_beat_file_values(self):
        cfg = parse_config({"M": 2, "N": 2, "n_events": 100},
                           {"n_events": "250"})
        assert cfg.n_events == 250


class TestFileLoading:
    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"M": 3, "N": 3, "k0_a": "pi"}))
        values = load_config_file(str(path))
        assert parse_config(values).k0_a == math.pi

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestRoundTrip:
    def test_mapping_reparses_to_equal_config(self):
        cfg = parse_config({
            "M": 4, "N": 3, "U": 0.3, "gN": 0.7, "boundary": "periodic",
            "envelope": "gaussian", "sigma_a": 0.15,
            "uj_values": "0,2.5,inf", "master_seed": 99,
        })
        mapping = config_to_mapping(cfg)
        assert mapping["uj_values"] == [0.0, 2.5, "inf"]
        assert parse_config(mapping) == cfg

    def test_with_overrides_revalidates(self):
        cfg = RunConfig(M=2, N=2)
        assert with_overrides(cfg, n_events="40").n_events == 40
        with pytest.raises(ConfigError):
            with_overrides(cfg, gN=0)

    def test_builders_reject_inconsistent_setup(self):
        cfg = parse_config({"M": 2, "N": 2})
        assert cfg.lattice_spec().M == 2
        assert cfg.hubbard_params().J == 1.0
        assert cfg.scattering_setup().gN == 0.1
