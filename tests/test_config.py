"""Config validation: defaults, rejection messages, grid expansion, overrides."""

import json

import pytest

from qlebath import (ConfigError, ParticleModel, PhysicalConstants, load_config,
                     validate_config)


def minimal(command="welton", **extra):
    data = {"command": command, "model": {"M": 1.0}, "grids": {"T": [1.0, 2.0]}}
    data.update(extra)
    return data


def test_defaults_are_filled():
    cfg = validate_config(minimal())
    assert cfg.units == "dimensionless"
    assert cfg.dim == 1
    assert cfg.seed is None
    assert cfg.tolerance == 1e-8
    assert cfg.out_dir == "."
    assert cfg.output == {"csv": "welton.csv", "json": "welton.json"}
    assert list(cfg.grid("T")) == [1.0, 2.0]


def test_missing_command_rejected():
    with pytest.raises(ConfigError, match="command"):
        validate_config({"model": {"M": 1.0}})
    with pytest.raises(ConfigError, match="unknown command"):
        validate_config(minimal(command="frobnicate"))


def test_unknown_keys_rejected_with_dotted_paths():
    with pytest.raises(ConfigError, match="unknown key bogus"):
        validate_config(minimal(bogus=1))
    data = minimal()
    data["model"]["whatever"] = 2
    with pytest.raises(ConfigError, match=r"unknown key model\.whatever"):
        validate_config(data)
    data = minimal("susceptibility",
                   kernel={"variant": "ohmic", "gamma": 1.0, "oops": 1},
                   grids={"omega": [1.0, 2.0]})
    with pytest.raises(ConfigError, match=r"unknown key kernel\.oops"):
        validate_config(data)
    with pytest.raises(ConfigError, match=r"unknown key grids\.q"):
        validate_config(minimal(grids={"T": [1.0, 2.0], "q": [1.0, 2.0]}))


def test_unknown_kernel_variant_names_the_field():
    data = minimal("susceptibility", kernel={"variant": "pink-noise"},
                   grids={"omega": [1.0, 2.0]})
    with pytest.raises(ConfigError, match="variant"):
        validate_config(data)


def test_grid_expansion_linear_and_log():
    cfg = validate_config(minimal(grids={"T": {"start": 1.0, "stop": 100.0,
                                               "num": 3, "spacing": "log"}}))
    assert list(cfg.grid("T")) == pytest.approx([1.0, 10.0, 100.0])
    cfg = validate_config(minimal(grids={"T": {"start": 0.0, "stop": 1.0,
                                               "num": 5}}))
    assert list(cfg.grid("T")) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_decreasing_grid_rejected():
    with pytest.raises(ConfigError, match="grid not increasing"):
        validate_config(minimal(grids={"T": [2.0, 1.0]}))


def test_required_grid_per_command():
    with pytest.raises(ConfigError, match=r"grids\.T"):
        validate_config({"command": "welton", "model": {"M": 1.0}})
    with pytest.raises(ConfigError, match=r"grids\.omega"):
        validate_config({"command": "susceptibility",
                         "kernel": {"variant": "ohmic", "gamma": 1.0},
                         "model": {"M": 1.0}})


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "welton",}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)


def test_overrides_replace_top_level_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal()))
    cfg = load_config(path, overrides={"out_dir": "elsewhere", "dim": 3})
    assert cfg.out_dir == "elsewhere"
    assert cfg.dim == 3


def test_units_select_the_constant_set():
    cfg = validate_config(minimal(units="cgs"))
    assert cfg.constants == PhysicalConstants.cgs()
    assert validate_config(minimal()).constants.hbar == 1.0
    with pytest.raises(ConfigError, match="units"):
        validate_config(minimal(units="si"))


def test_dim_must_be_one_or_three():
    with pytest.raises(ConfigError, match="dim"):
        validate_config(minimal(dim=2))


def test_seed_must_be_a_nonnegative_integer():
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal(seed=-1))
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal(seed=True))
    with pytest.raises(ConfigError, match="seed"):
        validate_config(minimal(seed=1.5))


def test_stochastic_command_requires_seed():
    data = {"command": "oracle", "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 0.0}, "grids": {"t": [0.0, 1.0]}}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(data)
    data["seed"] = 3
    assert validate_config(data).seed == 3


def test_diffusion_requires_a_free_particle():
    data = {"command": "diffusion", "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 1.0}}
    with pytest.raises(ConfigError, match=r"model\.K"):
        validate_config(data)


def test_thermo_commands_require_a_bound_oscillator():
    for command in ("shift", "free-energy"):
        data = {"command": command, "kernel": {"variant": "ohmic", "gamma": 1.0},
                "model": {"M": 1.0, "K": 0.0}, "grids": {"T": [1.0, 2.0]}}
        with pytest.raises(ConfigError, match=r"model\.K"):
            validate_config(data)


def test_blackbody_cutoff_conflict_detected():
    data = {"command": "susceptibility",
            "kernel": {"variant": "blackbody", "Omega": 5.0},
            "model": {"M": 1.0, "Omega": 7.0},
            "grids": {"omega": [1.0, 2.0]}}
    with pytest.raises(ConfigError):
        validate_config(data)


def test_blackbody_cutoff_conflicts_with_the_point_limit():
    # the default model sits at Omega = 1/tau_e = 205.5...
    data = {"command": "causality",
            "kernel": {"variant": "blackbody", "Omega": 5.0}}
    with pytest.raises(ConfigError, match=r"kernel\.Omega .* 205\.5") as info:
        validate_config(data)
    assert info.value.key == "kernel.Omega"
    data["kernel"]["Omega"] = ParticleModel.point_limit(1.0, 1.0).Omega
    assert validate_config(data).kernel() == ParticleModel.point_limit(
        1.0, 1.0).kernel()


def test_blackbody_kernel_inherits_model_cutoff():
    data = {"command": "susceptibility", "kernel": {"variant": "blackbody"},
            "model": {"M": 2.0, "Omega": 7.0}, "grids": {"omega": [1.0, 2.0]}}
    cfg = validate_config(data)
    kernel = cfg.kernel()
    assert kernel.Omega == 7.0
    assert kernel.M == 2.0


@pytest.mark.parametrize("kernel, mass_key", [
    ({"variant": "ohmic", "gamma": 0.1}, "mass"),
    ({"variant": "single_relaxation", "gamma": 0.1, "tau": 2.0}, "mass"),
    ({"variant": "blackbody"}, "M"),
], ids=lambda v: v["variant"] if isinstance(v, dict) else v)
def test_kernel_mass_follows_model_mass(kernel, mass_key):
    data = {"command": "susceptibility", "kernel": dict(kernel),
            "model": {"M": 4.0, "Omega": 7.0}, "grids": {"omega": [1.0, 2.0]}}
    assert getattr(validate_config(data).kernel(), mass_key) == 4.0
    data["kernel"][mass_key] = 4.0
    assert getattr(validate_config(data).kernel(), mass_key) == 4.0
    data["kernel"][mass_key] = 1.0
    with pytest.raises(ConfigError, match=rf"kernel\.{mass_key} .* model\.M"):
        validate_config(data)


def test_output_names_stay_inside_the_output_directory():
    with pytest.raises(ConfigError, match=r"output\.csv"):
        validate_config(minimal(output={"csv": "/etc/evil.csv"}))
    with pytest.raises(ConfigError, match=r"output\.csv"):
        validate_config(minimal(output={"csv": "../up.csv"}))
    cfg = validate_config(minimal(output={"csv": "custom.csv"}))
    assert cfg.output["csv"] == "custom.csv"
    assert cfg.output["json"] == "welton.json"


def test_force_specs_validated():
    base = {"command": "electron-motion", "model": {"M": 1.0, "K": 0.0},
            "grids": {"t": [0.0, 1.0]}}
    ok = dict(base, force={"type": "sinusoid", "f0": 1.0, "omega": 2.0})
    assert validate_config(ok).options["force"]["type"] == "sinusoid"
    with pytest.raises(ConfigError, match="force"):
        validate_config(dict(base, force={"type": "warp-field"}))
    with pytest.raises(ConfigError, match="f0"):
        validate_config(dict(base, force={"type": "sinusoid", "omega": 2.0}))


def test_resolved_config_round_trips():
    data = {"command": "shift", "kernel": {"variant": "blackbody"},
            "model": {"M": 1.0, "K": 1e-8, "Omega": 100.0},
            "grids": {"T": {"start": 0.1, "stop": 10.0, "num": 5,
                            "spacing": "log"}},
            "allow_acausal": True, "seed": 1}
    cfg = validate_config(data)
    again = validate_config(cfg.to_json())
    assert again.to_json() == cfg.to_json()
    assert list(again.grid("T")) == list(cfg.grid("T"))
