"""Every config rejection through the command line: exit 2, one stderr line
``error: config: ...``, the offending key, and no file written."""

import json

import pytest

from qlebath import ConfigError, load_config
from qlebath.cli import main as cli_main

WELTON = {"command": "welton", "model": {"M": 1.0}, "grids": {"T": [1.0, 2.0]}}
SUSCEPTIBILITY = {"command": "susceptibility",
                  "kernel": {"variant": "ohmic", "gamma": 1.0},
                  "grids": {"omega": [1.0, 2.0]}}
SHIFT = {"command": "shift", "kernel": {"variant": "ohmic", "gamma": 0.1},
         "grids": {"T": [1.0, 2.0]}}
MOTION = {"command": "electron-motion", "model": {"M": 1.0, "K": 0.0},
          "grids": {"t": [0.0, 1.0]}}
DIFFUSION = {"command": "diffusion", "kernel": {"variant": "ohmic", "gamma": 1.0}}
ORACLE = {"command": "oracle", "seed": 5, "N": 40, "n_traj": 8,
          "kernel": {"variant": "ohmic", "gamma": 1.0},
          "model": {"M": 1.0, "K": 0.0},
          "grids": {"t": {"start": 0.0, "stop": 5.0, "num": 11}}}


def with_grid(value, base=WELTON, name="T"):
    return {**base, "grids": {name: value}}


LINEAR = {"start": 1.0, "stop": 2.0, "num": 3}

# id -> (config, or the raw text of the config file; the key it names)
REJECTIONS = {
    # the file itself
    "unparsable": ('{"command": "welton",}', None),
    "top-level-list": ([WELTON], None),
    "integer-past-the-parser-limit": (
        '{"command": "welton", "tolerance": 1' + "0" * 5000 + "}", None),
    # the top level
    "no-command": ({"model": {"M": 1.0}}, "command"),
    "unknown-command": ({**WELTON, "command": "frobnicate"}, "command"),
    "command-not-a-string": ({**WELTON, "command": ["welton"]}, "command"),
    "unknown-key": ({**WELTON, "bogus": 1}, "bogus"),
    "option-of-another-command": ({**WELTON, "N": 40}, "N"),
    "units": ({**WELTON, "units": "si"}, "units"),
    "dim-2": ({**WELTON, "dim": 2}, "dim"),
    "dim-bool": ({**WELTON, "dim": True}, "dim"),
    "dim-float": ({**WELTON, "dim": 3.0}, "dim"),
    "seed-negative": ({**WELTON, "seed": -1}, "seed"),
    "seed-past-uint64": ({**WELTON, "seed": 2 ** 64}, "seed"),
    "seed-bool": ({**WELTON, "seed": True}, "seed"),
    "seed-float": ({**WELTON, "seed": 1.5}, "seed"),
    "tolerance-string": ({**WELTON, "tolerance": "tight"}, "tolerance"),
    "tolerance-nan": ({**WELTON, "tolerance": float("nan")}, "tolerance"),
    "tolerance-zero": ({**WELTON, "tolerance": 0.0}, "tolerance"),
    "tolerance-past-float": ({**WELTON, "tolerance": 10 ** 400}, "tolerance"),
    "out-dir-empty": ({**WELTON, "out_dir": ""}, "out_dir"),
    # model
    "model-number": ({**WELTON, "model": 5}, "model"),
    "model-unknown-key": ({**WELTON, "model": {"M": 1.0, "Q": 1.0}}, "model.Q"),
    "model-mass-zero": ({**WELTON, "model": {"M": 0.0}}, "model.M"),
    "model-K-negative": ({**WELTON, "model": {"M": 1.0, "K": -1.0}}, "model.K"),
    "model-Omega-negative": ({**WELTON, "model": {"Omega": -1.0}},
                             "model.Omega"),
    # kernel
    "kernel-missing": ({k: v for k, v in SUSCEPTIBILITY.items()
                        if k != "kernel"}, "kernel"),
    "kernel-string": ({**SUSCEPTIBILITY, "kernel": "ohmic"}, "kernel"),
    "kernel-no-variant": ({**SUSCEPTIBILITY, "kernel": {"gamma": 1.0}},
                          "kernel.variant"),
    "kernel-unknown-variant": ({**SUSCEPTIBILITY,
                                "kernel": {"variant": "pink-noise"}},
                               "kernel.variant"),
    "kernel-variant-not-a-string": ({**SUSCEPTIBILITY,
                                     "kernel": {"variant": 3}}, "kernel.variant"),
    "kernel-unknown-key": ({**SUSCEPTIBILITY, "kernel": {
        "variant": "ohmic", "gamma": 1.0, "oops": 1}}, "kernel.oops"),
    "kernel-needs-gamma": ({**SUSCEPTIBILITY, "kernel": {"variant": "ohmic"}},
                           "kernel.gamma"),
    "kernel-tau-zero": ({**SUSCEPTIBILITY, "kernel": {
        "variant": "single_relaxation", "gamma": 1.0, "tau": 0.0}}, "kernel.tau"),
    "kernel-gamma-negative": ({**SUSCEPTIBILITY, "kernel": {
        "variant": "ohmic", "gamma": -1.0}}, "kernel.gamma"),
    "kernel-mass-conflict": ({**SUSCEPTIBILITY, "kernel": {
        "variant": "ohmic", "gamma": 1.0, "mass": 2.0}}, "kernel.mass"),
    "kernel-Omega-conflict": ({**SUSCEPTIBILITY,
                               "kernel": {"variant": "blackbody", "Omega": 5.0},
                               "model": {"Omega": 7.0}}, "kernel.Omega"),
    # grids
    "grids-list": ({**WELTON, "grids": [[1.0, 2.0]]}, "grids"),
    "grid-unread": ({**WELTON, "grids": {"T": [1.0], "t": [1.0]}}, "grids.t"),
    "grid-missing": ({**WELTON, "grids": {}}, "grids.T"),
    "grid-string": (with_grid("1..2"), "grids.T"),
    "grid-empty": (with_grid([]), "grids.T"),
    "grid-point-not-a-number": (with_grid([1.0, "2"]), "grids.T[1]"),
    "grid-point-infinite": (with_grid([1.0, float("inf")]), "grids.T[1]"),
    "grid-decreasing": (with_grid([2.0, 1.0]), "grids.T"),
    "grid-unknown-key": (with_grid({**LINEAR, "step": 1}), "grids.T.step"),
    "grid-no-stop": (with_grid({"start": 1.0, "num": 3}), "grids.T.stop"),
    "grid-start-string": (with_grid({**LINEAR, "start": "1"}), "grids.T.start"),
    "grid-num-float": (with_grid({**LINEAR, "num": 2.5}), "grids.T.num"),
    "grid-num-zero": (with_grid({**LINEAR, "num": 0}), "grids.T.num"),
    "grid-num-huge": (with_grid({**LINEAR, "num": 10 ** 20}), "grids.T.num"),
    "grid-log-from-zero": (with_grid({**LINEAR, "start": 0.0,
                                      "spacing": "log"}), "grids.T.spacing"),
    "grid-spacing": (with_grid({**LINEAR, "spacing": "cubic"}),
                     "grids.T.spacing"),
    # output
    "output-string": ({**WELTON, "output": "run.csv"}, "output"),
    "output-unknown-key": ({**WELTON, "output": {"pdf": "run.pdf"}},
                           "output.pdf"),
    "output-empty-name": ({**WELTON, "output": {"csv": ""}}, "output.csv"),
    "output-name-not-a-string": ({**WELTON, "output": {"json": 3}},
                                 "output.json"),
    "output-absolute": ({**WELTON, "output": {"csv": "/tmp/evil.csv"}},
                        "output.csv"),
    "output-parent": ({**WELTON, "output": {"csv": "../up.csv"}}, "output.csv"),
    "output-nested": ({**WELTON, "output": {"csv": "sub/r.csv"}}, "output.csv"),
    "output-dot": ({**WELTON, "output": {"json": "."}}, "output.json"),
    "output-clash": ({**WELTON, "output": {"csv": "r.txt", "json": "r.txt"}},
                     "output.json"),
    "output-clash-with-default": ({**WELTON, "output": {"json": "welton.csv"}},
                                  "output.json"),
    "output-dump-clash": ({**ORACLE, "output": {"dump": "oracle.json"}},
                          "output.dump"),
    "output-dump-non-uniform": ({**ORACLE, "grids": {"t": [0.0, 1.0, 3.0]},
                                 "output": {"dump": "raw.bin"}}, "output.dump"),
    # options
    "allow-acausal-string": ({**SHIFT, "allow_acausal": "yes"}, "allow_acausal"),
    "shift-of-a-free-particle": ({**SHIFT, "model": {"K": 0.0}}, "model.K"),
    "diffusion-of-a-bound-particle": ({**DIFFUSION, "model": {"K": 1.0}},
                                      "model.K"),
    "classical-string": ({**DIFFUSION, "classical": "maybe"}, "classical"),
    "T-negative": ({**DIFFUSION, "T": -1.0}, "T"),
    "integrator": ({**MOTION, "integrator": "euler"}, "integrator"),
    "x0-string": ({**MOTION, "x0": "left"}, "x0"),
    "force-string": ({**MOTION, "force": "zero"}, "force"),
    "force-no-type": ({**MOTION, "force": {"f0": 1.0}}, "force.type"),
    "force-unknown-type": ({**MOTION, "force": {"type": "warp-field"}},
                           "force.type"),
    "force-type-not-a-string": ({**MOTION, "force": {"type": {"zero": 1}}},
                                "force.type"),
    "force-unknown-key": ({**MOTION, "force": {"type": "zero", "f0": 1.0}},
                          "force.f0"),
    "force-needs-f0": ({**MOTION, "force": {"type": "sinusoid", "omega": 2.0}},
                       "force.f0"),
    "force-omega-zero": ({**MOTION, "force": {"type": "sinusoid", "f0": 1.0,
                                              "omega": 0.0}}, "force.omega"),
    "oracle-without-seed": ({k: v for k, v in ORACLE.items() if k != "seed"},
                            "seed"),
    "freeze-particle-number": ({**ORACLE, "freeze_particle": 1},
                               "freeze_particle"),
    "N-one": ({**ORACLE, "N": 1}, "N"),
    "N-float": ({**ORACLE, "N": 40.0}, "N"),
    "N-past-memory": ({**ORACLE, "N": 10 ** 15}, "N"),
    "n-traj-zero": ({**ORACLE, "n_traj": 0}, "n_traj"),
    "n-traj-past-uint32": ({**ORACLE, "n_traj": 2 ** 32}, "n_traj"),
    "frozen-n-traj-one": ({**ORACLE, "n_traj": 1, "freeze_particle": True},
                          "n_traj"),
    "omega-max-negative": ({**ORACLE, "omega_max": -1.0}, "omega_max"),
    "omega-max-below-the-kernel": ({**ORACLE, "omega_max": 9.0}, "omega_max"),
    "blackbody-coefficient-past-the-float-range": (
        {**SHIFT, "kernel": {"variant": "blackbody"}, "allow_acausal": True,
         "model": {"M": 1e-300, "K": 1.0, "Omega": 1e300}}, "model.Omega"),
    "frozen-window-past-recurrence": ({**ORACLE, "N": 10, "omega_max": 16.0,
                                       "freeze_particle": True}, "N"),
}


@pytest.mark.parametrize("config, key", REJECTIONS.values(), ids=REJECTIONS)
def test_a_rejected_config_exits_2_with_one_line_and_no_file(
        tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    # --out would override the config's own out_dir
    out = [] if "out_dir" in config else ["--out", str(tmp_path / "out")]
    assert cli_main(["--config", str(path), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: ")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.key == key


def test_an_unreadable_config_file_exits_2(tmp_path, capsys):
    assert cli_main(["--config", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())
