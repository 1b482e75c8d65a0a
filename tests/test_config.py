"""Configuration model: coercion, validation, file loading, round trips."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from scatterloc.config import (
    ConfigError,
    RunConfig,
    config_to_mapping,
    load_config_file,
    parse_config,
)
from scatterloc.kernel import CouplingTooStrong


def with_overrides(cfg: RunConfig, **kw) -> RunConfig:
    """Copy of cfg with the given fields replaced (and revalidated)."""
    return replace(cfg, **kw)


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

    def test_run_config_reads_text_as_a_config_file_does(self):
        # one step from text to value, whoever builds the RunConfig
        assert RunConfig(M="3", N=3) == parse_config({"M": "3", "N": 3})
        cfg = RunConfig(M=3, N=3, k0_a=" PI ", uj_values="0,1,inf")
        assert cfg.k0_a == math.pi and cfg.uj_values == (0.0, 1.0, math.inf)
        for key, value in (("M", "3.0"), ("gN", "pi pi"),
                           ("uj_values", "1,x")):
            with pytest.raises(ConfigError, match=key):
                RunConfig(**{"M": 3, "N": 3, key: value})


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
        ("sigma_a", 0.3),
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

    def test_periodic_ring_needs_three_sites(self):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config({"M": 2, "N": 2, "boundary": "periodic"})
        assert parse_config({"M": 3, "N": 2, "boundary": "periodic"}).M == 3

    def test_inadmissible_probe_is_rejected_on_parse(self):
        with pytest.raises(CouplingTooStrong):
            parse_config({"M": 3, "N": 3, "gN": 5})
        with pytest.raises(CouplingTooStrong):
            parse_config({"M": 2, "N": 2, "envelope": "gaussian",
                          "sigma_a": 0.2, "gN": 1.5})

    @pytest.mark.parametrize("probe", [
        {}, {"envelope": "gaussian", "sigma_a": 0.2, "gN": 1.0},
        {"envelope": "gaussian", "sigma_a": 0.2, "gN": 1.1,
         "n_theta": 2 * 10**7}])
    def test_admissibility_builds_no_grid(self, probe):
        # the bound is a closed form in (k0_a sigma_a)^2, so 10^9 angles
        # (a 16 GB grid) are left for the memory guard to refuse.  A
        # gaussian probe at gN > 1 once built its 2 * 10^7-angle grid
        # here, a 458 MiB peak
        values = {"M": 3, "N": 3, "n_theta": 10**9} | probe
        tracemalloc.start()
        try:
            cfg = parse_config(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.n_theta == values["n_theta"]
        assert peak < 2**20

    def test_kinds_come_from_the_annotations(self):
        for key, value in (("n_traj", 2.0), ("gN", "x"), ("gN", [0.5]),
                           ("boundary", 3), ("output_path", ""),
                           ("uj_values", 5), ("uj_values", [None])):
            with pytest.raises(ConfigError, match=key):
                parse_config({"M": 3, "N": 3, key: value})

    @pytest.mark.parametrize("key,value", [
        ("U", 10**400), ("J", -10**400), ("sigma_a", 10**400),
        ("uj_values", [1, 10**400])])
    def test_integer_beyond_the_float_range_names_the_key(self, key, value):
        # a JSON integer of 400 digits once ended in an OverflowError
        with pytest.raises(ConfigError, match=key):
            RunConfig(M=3, N=3, **{key: value})

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

    def test_integer_past_the_digit_limit(self, tmp_path):
        # json reads integers through int(), which refuses more than
        # sys.get_int_max_str_digits() digits with a ValueError
        path = tmp_path / "long.json"
        path.write_text('{"M": 3, "N": 3, "U": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="long.json"):
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
