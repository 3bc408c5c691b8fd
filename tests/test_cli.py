"""End-to-end command-line runs: artifacts, formats, exit codes, determinism."""

import csv
import json
import math

import pytest

from qlebath import diffusion, load_ensemble, motion, validate_config
from qlebath.cli import main as cli_main

TAU_E_INVERSE = 1.0 / (2.0 * (1.0 / 137.036) / 3.0)  # dimensionless 1/tau_e


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(tmp_path, data, out="out", extra=(), name="config.json"):
    path = write_config(tmp_path, data, name=name)
    rc = cli_main(["--config", str(path), "--out", str(tmp_path / out), *extra])
    return rc, tmp_path / out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SMOKE_CASES = {
    "susceptibility": ({"command": "susceptibility",
                        "kernel": {"variant": "ohmic", "gamma": 0.5},
                        "model": {"M": 1.0, "K": 1.0},
                        "grids": {"omega": [0.5, 1.0, 1.5]}},
                       ["omega", "re_alpha", "im_alpha"]),
    "causality": ({"command": "causality",
                   "kernel": {"variant": "blackbody"},
                   "model": {"M": 1.0, "K": 1.0, "Omega": 20.0}},
                  ["re_pole", "im_pole"]),
    "free-energy": ({"command": "free-energy",
                     "kernel": {"variant": "ohmic", "gamma": 0.1},
                     "model": {"M": 1.0, "K": 1.0},
                     "grids": {"T": {"start": 0.5, "stop": 2.0, "num": 6}}},
                    ["T", "F0", "baseline", "shift", "U", "S", "C",
                     "quad_error"]),
    "shift": ({"command": "shift",
               "kernel": {"variant": "ohmic", "gamma": 0.1},
               "model": {"M": 1.0, "K": 1.0},
               "grids": {"T": {"start": 0.5, "stop": 2.0, "num": 6}}},
              ["T", "F0", "baseline", "shift", "U", "S", "C", "quad_error"]),
    "welton": ({"command": "welton", "model": {"M": 1.0},
                "grids": {"T": [0.5, 1.0, 2.0]}},
               ["T", "welton_energy", "closed_form", "quad_error"]),
    "electron-motion": ({"command": "electron-motion", "integrator": "cutoff",
                         "model": {"M": 1.0, "K": 0.0, "Omega": 100.0},
                         "force": {"type": "sinusoid", "f0": 1.0,
                                   "omega": 0.5},
                         "grids": {"t": {"start": 0.0, "stop": 20.0,
                                         "num": 201}}},
                        ["t", "x", "v", "a"]),
    "diffusion": ({"command": "diffusion", "T": 1.0, "classical": True,
                   "kernel": {"variant": "ohmic", "gamma": 1.0},
                   "model": {"M": 1.0, "K": 0.0},
                   "grids": {"t": {"start": 2.0, "stop": 20.0, "num": 9}}},
                  ["t", "msd", "regime_tag"]),
    "oracle": ({"command": "oracle", "seed": 7, "N": 50, "n_traj": 64,
                "T": 1.0, "freeze_particle": True,
                "kernel": {"variant": "ohmic", "gamma": 1.0},
                "model": {"M": 1.0, "K": 0.0},
                "grids": {"t": {"start": 0.0, "stop": 5.0, "num": 26}}},
               ["t", "facf_mean", "facf_stderr", "facf_target"]),
}


@pytest.mark.parametrize("command", sorted(SMOKE_CASES), ids=str)
def test_command_produces_csv_and_sidecar(tmp_path, command):
    data, header = SMOKE_CASES[command]
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    base = command.replace("-", "_")
    rows = read_rows(out / f"{base}.csv")
    assert rows[0] == header
    assert len(rows) > 1
    sidecar = json.loads((out / f"{base}.json").read_text())
    assert sidecar["meta"]["package"] == "qlebath"
    assert sidecar["command"] == command
    # the sidecar is itself a valid, fully resolved config
    assert validate_config(sidecar).command == command


def test_csv_floats_survive_text_round_trip(tmp_path):
    data, _ = SMOKE_CASES["welton"]
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    rows = read_rows(out / "welton.csv")
    for row in rows[1:]:
        for cell in row:
            assert repr(float(cell)) == cell


def test_causality_flags_an_acausal_cutoff(tmp_path):
    data = {"command": "causality", "kernel": {"variant": "blackbody"},
            "model": {"M": 1.0, "K": 1.0, "Omega": 1.1 * TAU_E_INVERSE}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0  # an acausal verdict is a result, not an error
    sidecar = json.loads((out / "causality.json").read_text())
    assert sidecar["meta"]["result"]["causal"] is False
    assert sidecar["meta"]["result"]["max_im"] > 0


def test_decreasing_grid_is_a_config_error(tmp_path, capsys):
    data, _ = SMOKE_CASES["welton"]
    data = dict(data, grids={"T": [2.0, 1.0]})
    rc, _ = run_cli(tmp_path, data)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: grid not increasing")
    assert err.count("\n") == 1


def test_acausal_thermo_without_override_is_a_numerical_error(tmp_path, capsys):
    data = {"command": "shift", "kernel": {"variant": "blackbody"},
            "model": {"M": 1.0, "K": 1e-8, "Omega": 1e4},
            "grids": {"T": {"start": 0.1, "stop": 10.0, "num": 5,
                            "spacing": "log"}}}
    rc, _ = run_cli(tmp_path, data)
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_blackbody_shift_at_the_default_point_limit_runs(tmp_path):
    # the default model sits at Omega = 1/tau_e, the largest causal cutoff
    data = {"command": "shift", "kernel": {"variant": "blackbody"},
            "grids": {"T": {"start": 0.1, "stop": 10.0, "num": 5,
                            "spacing": "log"}}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    rows = read_rows(out / "shift.csv")
    assert len(rows) == 6
    assert all(math.isfinite(float(cell)) for cell in rows[1])


def test_unwritable_output_directory_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    data, _ = SMOKE_CASES["welton"]
    rc, _ = run_cli(tmp_path, data, out="blocked/sub")
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: io:")


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = cli_main(["--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_seed_override_changes_stochastic_output(tmp_path):
    data, _ = SMOKE_CASES["oracle"]
    rc1, out1 = run_cli(tmp_path, data, out="a", extra=("--seed", "7"))
    rc2, out2 = run_cli(tmp_path, data, out="b", extra=("--seed", "8"))
    assert rc1 == rc2 == 0
    assert ((out1 / "oracle.csv").read_bytes()
            != (out2 / "oracle.csv").read_bytes())


def test_identical_runs_are_bit_identical(tmp_path):
    data, _ = SMOKE_CASES["oracle"]
    _, out1 = run_cli(tmp_path, data, out="a")
    _, out2 = run_cli(tmp_path, data, out="b")
    assert ((out1 / "oracle.csv").read_bytes()
            == (out2 / "oracle.csv").read_bytes())


def test_sidecar_reruns_to_identical_output(tmp_path):
    data, _ = SMOKE_CASES["shift"]
    rc, out1 = run_cli(tmp_path, data, out="a")
    assert rc == 0
    sidecar = json.loads((out1 / "shift.json").read_text())
    rc, out2 = run_cli(tmp_path, sidecar, out="b", name="replay.json")
    assert rc == 0
    assert ((out1 / "shift.csv").read_bytes()
            == (out2 / "shift.csv").read_bytes())


def test_dimension_switch_scales_thermo_columns(tmp_path):
    data, _ = SMOKE_CASES["welton"]
    _, out1 = run_cli(tmp_path, data, out="d1", extra=("--dim", "1"))
    _, out3 = run_cli(tmp_path, data, out="d3", extra=("--dim", "3"))
    rows1 = read_rows(out1 / "welton.csv")[1:]
    rows3 = read_rows(out3 / "welton.csv")[1:]
    for r1, r3 in zip(rows1, rows3):
        assert float(r3[1]) == pytest.approx(3.0 * float(r1[1]), rel=1e-12)
        assert float(r3[2]) == pytest.approx(3.0 * float(r1[2]), rel=1e-12)


def test_oracle_ensemble_mode_and_binary_dump(tmp_path):
    data = {"command": "oracle", "seed": 5, "N": 40, "n_traj": 8, "T": 1.0,
            "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 0.0},
            "grids": {"t": {"start": 0.0, "stop": 3.0, "num": 7}},
            "output": {"dump": "raw.bin"}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    rows = read_rows(out / "oracle.csv")
    assert rows[0] == ["t", "msd_mean", "msd_stderr"]
    ens = load_ensemble(out / "raw.bin")
    assert ens.n_traj == 8
    assert ens.N_bath == 40
    assert ens.seed == 5


def test_electron_motion_point_limit_and_runaway_summary(tmp_path):
    data = {"command": "electron-motion", "integrator": "abraham-lorentz",
            "model": {"M": 1.0, "K": 0.0}, "a0": 1.0,
            "grids": {"t": {"start": 0.0, "stop": 0.1, "num": 201}}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    result = json.loads((out / "electron_motion.json").read_text())["meta"]["result"]
    assert result["runaway"] is True
    assert result["growth_rate"] == pytest.approx(TAU_E_INVERSE, rel=1e-2)


@pytest.mark.parametrize("command, module, function", [
    ("diffusion", diffusion, "msd_curve"),
    ("electron-motion", motion, "integrate_point_limit"),
    ("electron-motion", motion, "bounded_al_trajectory"),
], ids=["diffusion", "point-limit", "bounded-al"])
def test_tolerance_reaches_the_computation(tmp_path, monkeypatch, command,
                                           module, function):
    original = getattr(module, function)
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("rtol"))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, recording)
    data = dict(SMOKE_CASES[command][0])
    if command == "electron-motion":
        integrator = ("point-limit" if function == "integrate_point_limit"
                      else "bounded-al")
        data.update(integrator=integrator, model={"M": 1.0, "K": 0.0},
                    grids={"t": {"start": 0.0, "stop": 8.0, "num": 401}})
    rc, _ = run_cli(tmp_path, data)
    assert rc == 0
    rc, _ = run_cli(tmp_path, {**data, "tolerance": 1e-6}, out="loose")
    assert rc == 0
    assert seen == [1e-8, 1e-6]
