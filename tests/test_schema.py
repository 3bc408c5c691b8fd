"""The config schema follows the kernel classes and the drive table."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from qlebath import ConfigError, cli, kernel_from_json, motion, validate_config
from qlebath.kernels import KERNELS

# Per variant: the fields a config must give and the keys it requires.
KERNEL_CASES = {
    "ohmic": ({"gamma": 0.5}, ["gamma"]),
    "single_relaxation": ({"gamma": 0.5, "tau": 2.0}, ["gamma", "tau"]),
    "blackbody": ({}, []),
}


def susceptibility(kernel):
    return {"command": "susceptibility", "kernel": kernel,
            "model": {"M": 2.0, "Omega": 7.0}, "grids": {"omega": [1.0, 2.0]}}


def test_every_kernel_variant_has_a_case():
    assert set(KERNEL_CASES) == set(KERNELS)


@pytest.mark.parametrize("variant", sorted(KERNELS))
def test_config_accepts_exactly_the_keys_of_the_json_form(variant):
    given, _ = KERNEL_CASES[variant]
    kernel = validate_config(susceptibility({"variant": variant, **given})).kernel()
    spec = kernel.to_json()
    cfg = validate_config(susceptibility(spec))
    assert cfg.kernel_spec.keys() == spec.keys()
    assert cfg.kernel() == kernel
    # every other field of the class, and any other key, is rejected
    names = {f.name for f in dataclasses.fields(KERNELS[variant])}
    for extra in sorted(names - spec.keys()) + ["bogus"]:
        with pytest.raises(ConfigError, match=rf"unknown key kernel\.{extra}") as info:
            validate_config(susceptibility({**spec, extra: 1.0}))
        assert info.value.key == f"kernel.{extra}"


@pytest.mark.parametrize("variant", sorted(KERNELS))
def test_config_requires_the_fields_without_a_default(variant):
    given, required = KERNEL_CASES[variant]
    for name in required:
        spec = {"variant": variant, **given}
        del spec[name]
        with pytest.raises(ConfigError, match=f"needs '{name}'") as info:
            validate_config(susceptibility(spec))
        assert info.value.key == f"kernel.{name}"


@pytest.mark.parametrize("data, key", [
    (susceptibility({"variant": ["ohmic"]}), "kernel.variant"),
    ({"command": "electron-motion", "grids": {"t": [0.0, 1.0]},
      "force": {"type": {"sinusoid": 1}}}, "force.type"),
    ({"command": ["welton"]}, "command"),
], ids=["variant", "force", "command"])
def test_names_that_are_not_strings_are_config_errors(data, key):
    with pytest.raises(ConfigError) as info:
        validate_config(data)
    assert info.value.key == key


def test_kernel_from_json_rejects_a_variant_that_is_not_a_string():
    with pytest.raises(ConfigError, match="variant"):
        kernel_from_json({"variant": ["ohmic"]})


@pytest.mark.parametrize("spec, key, message", [
    ({"variant": "pink"}, "kernel.variant", r"unknown kernel\.variant 'pink'"),
    ({"variant": "ohmic", "gamma": 1.0, "bogus": 2}, "kernel.bogus",
     r"unknown key kernel\.bogus"),
    ({"variant": "single_relaxation", "tau": 1.0}, "kernel.gamma",
     "kernel needs 'gamma'"),
    ({"variant": "single_relaxation", "gamma": 1.0, "tau": "1"}, "kernel.tau",
     r"kernel\.tau must be a number"),
    ({"variant": "ohmic", "gamma": -1.0}, "kernel.gamma",
     r"kernel\.gamma must be >= 0"),
    ("ohmic", "kernel", "kernel must be a JSON object"),
    ({"variant": "blackbody", "Omega": 1e300}, "kernel.Omega",
     r"C Omega\^2 .* overflows"),
], ids=["variant", "unknown-key", "missing", "string", "negative", "not-an-object",
        "overflow"])
def test_kernel_from_json_reports_the_keys_and_messages_of_the_config(
        spec, key, message):
    with pytest.raises(ConfigError, match=message) as info:
        kernel_from_json(spec)
    assert info.value.key == key
    if isinstance(spec, dict) and key != "kernel.Omega":
        # the config says the same of the same kernel
        with pytest.raises(ConfigError, match=message) as info:
            validate_config(susceptibility(spec))
        assert info.value.key == key


# Distinct parameter values, so that a swapped parameter order shows.
DRIVES = {
    "zero": ({}, motion.zero_force),
    "constant_ramp": ({"f0": 0.7, "t_ramp": 1.5},
                      lambda: motion.constant_with_ramp(0.7, 1.5)),
    "sinusoid": ({"f0": 0.7, "omega": 1.3}, lambda: motion.sinusoid(0.7, 1.3)),
    "gaussian_pulse": ({"f0": 0.7, "t0": 2.0, "sigma": 0.5},
                       lambda: motion.gaussian_pulse(0.7, 2.0, 0.5)),
}


@pytest.mark.parametrize("ftype", sorted(DRIVES))
def test_every_drive_runs_through_the_cli(tmp_path, ftype):
    params, direct = DRIVES[ftype]
    data = {"command": "electron-motion", "integrator": "point-limit",
            "model": {"M": 1.0, "K": 1.0}, "x0": 0.1,
            "force": {"type": ftype, **params},
            "grids": {"t": {"start": 0.0, "stop": 8.0, "num": 401}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 0
    with open(out / "electron_motion.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "v", "a"]
    a = np.array([float(row[3]) for row in rows[1:]])
    cfg = validate_config(data)
    want = motion.integrate_point_limit(direct(), cfg.model(), cfg.grid("t"),
                                        x0=0.1, rtol=cfg.tolerance)
    assert np.array_equal(a, want.a)
