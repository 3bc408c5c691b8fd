"""End-to-end command-line runs: artifacts, formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import qlebath
from qlebath import cli, diffusion, load_ensemble, motion, validate_config
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


def test_ohmic_shift_uses_the_model_mass(tmp_path):
    # D(z) must resonate at omega_0 = sqrt(K/M), the baseline's frequency;
    # M = 4, K = 1 is then the M = 1, K = 1/4 oscillator scaled by 4
    rows = []
    for M, K in ((4.0, 1.0), (1.0, 0.25)):
        data = {"command": "shift", "kernel": {"variant": "ohmic", "gamma": 0.001},
                "model": {"M": M, "K": K}, "grids": {"T": [0.1, 1.0]}}
        rc, out = run_cli(tmp_path, data, out=f"M{M}")
        assert rc == 0
        rows.append(read_rows(out / "shift.csv"))
    header, *scaled = rows[0]
    for row, ref in zip(scaled, rows[1][1:]):
        got = dict(zip(header, map(float, row)))
        assert abs(got["shift"]) < 0.1 * abs(got["baseline"])
        assert got["F0"] == pytest.approx(float(ref[1]), rel=1e-9)


@pytest.mark.parametrize("kernel, want", [
    ({"variant": "ohmic", "gamma": 0.02}, -math.pi * 0.02 / (6.0 * 0.25)),
    ({"variant": "blackbody"}, 0.0),
], ids=["ohmic", "blackbody"])
def test_sidecar_reports_the_closed_form_t2_law(tmp_path, kernel, want):
    # -(pi k_B^2 / 6 hbar)(sum_k 1/lam_k - 1/lam_b): -pi gamma/(6 omega_0^2)
    # for Ohmic friction, exactly 0 for the blackbody kernel (T^4 leads)
    data = {"command": "shift", "kernel": kernel, "dim": 3,
            "model": {"M": 1.0, "K": 0.25, "Omega": 20.0},
            "grids": {"T": [0.01, 0.02]}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    result = json.loads((out / "shift.json").read_text())["meta"]["result"]
    assert result["t2_low_temperature"] == pytest.approx(3.0 * want, rel=1e-14,
                                                         abs=0.0)
    assert "t2_low_temperature" not in (out / "shift.csv").read_text()


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


@pytest.mark.parametrize("grid", [
    {"start": 0.1, "stop": 3.0, "num": 7, "spacing": "log"},
    [0.0, 1.0, 3.0],
])
def test_dump_of_a_non_uniform_grid_is_a_config_error(tmp_path, capsys, grid):
    data = {"command": "oracle", "seed": 5, "N": 40, "n_traj": 8, "T": 1.0,
            "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 0.0}, "grids": {"t": grid},
            "output": {"dump": "raw.bin"}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: output.dump")
    assert not (out / "raw.bin").exists()
    with pytest.raises(qlebath.ConfigError) as info:
        validate_config(data)
    assert info.value.key == "output.dump"
    del data["output"]
    validate_config(data)  # the same grid is valid without a dump


def test_frozen_oracle_with_one_trajectory_is_a_config_error(tmp_path, capsys):
    # the force statistics need a standard error: nothing may run or be left
    data = {"command": "oracle", "seed": 5, "N": 40, "n_traj": 1, "T": 1.0,
            "freeze_particle": True,
            "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 0.0},
            "grids": {"t": {"start": 0.0, "stop": 3.0, "num": 7}},
            "output": {"dump": "raw.bin"}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: n_traj")
    assert not out.exists()
    with pytest.raises(qlebath.ConfigError) as info:
        validate_config(data)
    assert info.value.key == "n_traj"
    validate_config({**data, "freeze_particle": False})  # a moving run is valid


def test_failed_oracle_statistics_leave_no_dump(tmp_path, capsys):
    # two trajectories cannot resolve <F(0)^2>: the statistics fail only
    # after the simulation
    data = {"command": "oracle", "seed": 5, "N": 40, "omega_max": 16.0,
            "n_traj": 2, "T": 1.0, "freeze_particle": True,
            "kernel": {"variant": "ohmic", "gamma": 1.0},
            "model": {"M": 1.0, "K": 0.0},
            "grids": {"t": {"start": 0.0, "stop": 5.0, "num": 11}},
            "output": {"dump": "raw.bin"}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 3
    assert "insufficient statistics" in capsys.readouterr().err
    assert not (out / "raw.bin").exists()
    assert not (out / "raw.bin.tmp").exists()


ORACLE_BASE = {"command": "oracle", "seed": 5, "N": 40, "n_traj": 8, "T": 1.0,
               "kernel": {"variant": "ohmic", "gamma": 1.0},
               "model": {"M": 1.0, "K": 0.0},
               "grids": {"t": {"start": 0.0, "stop": 5.0, "num": 11}},
               "output": {"dump": "raw.bin"}}


def assert_config_error(tmp_path, capsys, data, key):
    """Exit 2 with the key named, before anything is written."""
    rc, out = run_cli(tmp_path, data)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()
    with pytest.raises(qlebath.ConfigError) as info:
        validate_config(data)
    assert info.value.key == key


def test_oracle_seed_must_fit_the_dump(tmp_path, capsys):
    # the dump packs the seed as uint64
    assert_config_error(tmp_path, capsys, {**ORACLE_BASE, "seed": 2 ** 64},
                        "seed")
    rc, out = run_cli(tmp_path, {**ORACLE_BASE, "seed": 2 ** 64 - 1}, out="max")
    assert rc == 0
    assert load_ensemble(out / "raw.bin").seed == 2 ** 64 - 1


def test_oracle_n_traj_must_fit_a_uint32_stream_key(tmp_path, capsys,
                                                    monkeypatch):
    # checked at config time only: a run of this size must never start
    def no_run(cfg):
        raise AssertionError("the run must not start")

    monkeypatch.setattr(cli, "run", no_run)
    assert_config_error(tmp_path, capsys, {**ORACLE_BASE, "n_traj": 2 ** 32},
                        "n_traj")
    validate_config({**ORACLE_BASE, "n_traj": 2 ** 32 - 1})


def test_oracle_bath_needs_two_modes(tmp_path, capsys):
    assert_config_error(tmp_path, capsys, {**ORACLE_BASE, "N": 1}, "N")


def test_oracle_omega_max_must_cover_the_kernel(tmp_path, capsys):
    # gamma = 1 sets the kernel scale: omega_max >= 10
    assert_config_error(tmp_path, capsys, {**ORACLE_BASE, "omega_max": 9.0},
                        "omega_max")
    validate_config({**ORACLE_BASE, "omega_max": 10.0})


def test_frozen_window_past_the_recurrence_horizon_is_a_config_error(
        tmp_path, capsys):
    # N = 10 modes up to 16: t_rec = 2 pi 10/16 ~ 3.9 < 5/gamma = 5
    data = {**ORACLE_BASE, "N": 10, "omega_max": 16.0, "freeze_particle": True}
    assert_config_error(tmp_path, capsys, data, "N")
    with pytest.raises(qlebath.ConfigError, match="recurrence horizon"):
        validate_config(data)
    validate_config({**data, "N": 13})     # t_rec ~ 5.1
    validate_config({**data, "freeze_particle": False})  # no force window


def test_susceptibility_on_a_pole_is_a_numerical_error(tmp_path, capsys):
    # undamped oscillator: omega = 1 is a pole of alpha
    data = {"command": "susceptibility", "kernel": {"variant": "ohmic",
                                                    "gamma": 0.0},
            "model": {"M": 1.0, "K": 1.0},
            "grids": {"omega": {"start": 0.5, "stop": 1.5, "num": 3}}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 3
    assert capsys.readouterr().err.rstrip().endswith("z = (1+0j)")
    assert not (out / "susceptibility.csv").exists()


def test_main_calls_do_not_share_overrides(tmp_path):
    data, _ = SMOKE_CASES["welton"]
    # one process, one parser: each call resolves only its own flags
    path = write_config(tmp_path, {**data, "seed": 3})
    calls = [(("--seed", "9", "--dim", "3"), 9, 3), ((), 3, 1),
             (("--dim", "3"), 3, 3), (("--seed", "11"), 11, 1), ((), 3, 1)]
    for i, (extra, seed, dim) in enumerate(calls):
        out = tmp_path / f"run{i}"
        assert cli_main(["--config", str(path), "--out", str(out),
                         *extra]) == 0
        sidecar = json.loads((out / "welton.json").read_text())
        assert (sidecar["seed"], sidecar["dim"]) == (seed, dim), extra


def test_electron_motion_point_limit_and_runaway_summary(tmp_path):
    data = {"command": "electron-motion", "integrator": "abraham-lorentz",
            "model": {"M": 1.0, "K": 0.0}, "a0": 1.0,
            "grids": {"t": {"start": 0.0, "stop": 0.1, "num": 201}}}
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    result = json.loads((out / "electron_motion.json").read_text())["meta"]["result"]
    assert result["runaway"] is True
    assert result["growth_rate"] == pytest.approx(TAU_E_INVERSE, rel=1e-2)


def _reject_constant(name):
    raise ValueError(f"sidecar holds {name}, which is not JSON")


@pytest.mark.parametrize("data, name, key", [
    # no poles at all: Ohmic gamma = 0 with K = 0
    ({"command": "causality", "kernel": {"variant": "ohmic", "gamma": 0.0},
      "model": {"M": 1.0, "K": 0.0, "Omega": 1.0}}, "causality", "max_im"),
    # a runaway that overflows before its final third can be fitted
    ({"command": "electron-motion", "integrator": "abraham-lorentz",
      "a0": 1.0, "grids": {"t": {"start": 0.0, "stop": 100.0, "num": 21}}},
     "electron_motion", "growth_rate"),
], ids=["causality", "electron-motion"])
def test_sidecar_is_strict_json(tmp_path, data, name, key):
    rc, out = run_cli(tmp_path, data)
    assert rc == 0
    text = (out / f"{name}.json").read_text()
    sidecar = json.loads(text, parse_constant=_reject_constant)
    assert sidecar["meta"]["result"][key] is None


def test_a_sidecar_value_outside_json_fails_the_run(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(motion.Trajectory, "summary_json",
                        lambda self: {"growth_rate": math.nan})
    rc, out = run_cli(tmp_path, SMOKE_CASES["electron-motion"][0])
    assert rc == 3
    assert "error: numerical" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, integrator, module, function", [
    ("diffusion", None, diffusion, "msd_curve"),
    ("electron-motion", "point-limit", motion, "integrate_point_limit"),
    ("electron-motion", "bounded-al", motion, "bounded_al_trajectory"),
    # the default integrator at the default point-limit model delegates
    ("electron-motion", "cutoff", motion, "integrate_point_limit"),
], ids=["diffusion", "point-limit", "bounded-al", "cutoff"])
def test_tolerance_reaches_the_computation(tmp_path, monkeypatch, command,
                                           integrator, module, function):
    original = getattr(module, function)
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("rtol"))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, recording)
    data = dict(SMOKE_CASES[command][0])
    if command == "electron-motion":
        data.update(integrator=integrator, model={"M": 1.0, "K": 0.0},
                    grids={"t": {"start": 0.0, "stop": 8.0, "num": 401}})
    rc, _ = run_cli(tmp_path, data)
    assert rc == 0
    rc, _ = run_cli(tmp_path, {**data, "tolerance": 1e-6}, out="loose")
    assert rc == 0
    assert seen == [1e-8, 1e-6]


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test reference only
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlebath.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qlebath.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
