"""Acceptance gate: nine deliverable-level checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` the lines still appear for any failing criterion.
Desk scale throughout: hbar = k_B = c = M = 1 and alpha_fs = 1/137.036.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import qlebath
from qlebath import (
    DIMENSIONLESS,
    FreeEnergyCurve,
    OhmicKernel,
    ParticleModel,
    PhysicalConstants,
    bbr_shift_closed_form,
    bounded_al_trajectory,
    constant_with_ramp,
    discretize_bath,
    ensemble_msd,
    fit_quadratic_coefficient,
    force_autocorrelation_check,
    free_energy_shift,
    gaussian_pulse,
    integrate_third_order,
    msd,
    msd_curve,
    poles_and_causality,
    report_from_curve,
    simulate_classical_io,
    sinusoid,
    thermo_derivatives,
    welton_closed_form,
    welton_energy,
    zero_force,
)
from qlebath.kernels import ELECTRON_MASS_CGS

ALPHA_FS = 1.0 / 137.036


def check(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: FAIL — {detail}"


@pytest.fixture(scope="module")
def quadratic_shift_sweep():
    """Radiation-bath free-energy shift on kT in [0.1, 10] (omega_0 = 1e-4,
    cutoff 1e4), shared by criteria 1 and 2."""
    model = ParticleModel(M=1.0, K=1e-8, Omega=1e4)
    kernel = model.kernel()
    temps = np.geomspace(0.1, 10.0, 12)
    start = time.perf_counter()
    shifts = np.array([
        free_energy_shift(kernel, model, T, allow_acausal=True)[0]
        for T in temps
    ])
    elapsed = time.perf_counter() - start
    return {"temps": temps, "shifts": shifts, "elapsed": elapsed}


def test_criterion_1_quadratic_temperature_law(quadratic_shift_sweep):
    temps = quadratic_shift_sweep["temps"]
    shifts = quadratic_shift_sweep["shifts"]
    elapsed = quadratic_shift_sweep["elapsed"]
    c = fit_quadratic_coefficient(temps, shifts)
    target = math.pi * ALPHA_FS / 9.0
    rel = abs(c / target - 1.0)
    check(1, rel <= 0.02 and elapsed < 60.0,
          f"fitted T^2 coefficient {c:.6e} vs pi*alpha/9 = {target:.6e} "
          f"(off by {100 * rel:.2f}%, limit 2%); sweep took {elapsed:.1f}s "
          f"(limit 60s)")


def test_criterion_2_energy_is_minus_free_energy(quadratic_shift_sweep):
    temps = quadratic_shift_sweep["temps"]
    shifts = quadratic_shift_sweep["shifts"]
    curve = FreeEnergyCurve(temperatures=temps, values=shifts)
    d = thermo_derivatives(curve)
    worst = float(np.max(np.abs(d["U"] + shifts) / np.abs(shifts)))
    check(2, worst <= 0.01,
          f"max |U + F| / |F| over the sweep = {100 * worst:.2f}% (limit 1%)")


def test_criterion_3_single_electron_thermal_energy():
    T = 1.0
    value, _ = welton_energy(T, 1.0)
    closed = welton_closed_form(T, 1.0)
    rel = abs(value / closed - 1.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    ratio = closed / bbr_shift_closed_form(T, model)
    check(3, rel <= 1e-8 and abs(ratio - 3.0) <= 1e-6,
          f"quadrature vs pi*alpha*(kT)^2/3: off by {rel:.2e} (limit 1e-8); "
          f"ratio to the one-direction shift = {ratio:.9f} (3 ± 1e-6)")


def test_criterion_4_causality_boundary_and_cgs_scale():
    rng = np.random.default_rng(20260818)
    tau_e = ParticleModel(M=1.0, K=1.0, Omega=1.0).tau_e
    verdicts_low = []
    verdicts_high = []
    for _ in range(10):
        m = ParticleModel(M=1.0, K=1.0, Omega=rng.uniform(0.01, 0.99) / tau_e)
        verdicts_low.append(poles_and_causality(m.kernel(), m).causal)
    for _ in range(10):
        m = ParticleModel(M=1.0, K=1.0, Omega=rng.uniform(1.01, 10.0) / tau_e)
        verdicts_high.append(poles_and_causality(m.kernel(), m).causal)
    cgs = ParticleModel(M=ELECTRON_MASS_CGS, K=1.0, Omega=1.0,
                        constants=PhysicalConstants.cgs())
    tau_cgs = cgs.tau_e
    dev_tau = abs(tau_cgs / 6.26e-24 - 1.0)
    dev_inv = abs((1.0 / tau_cgs) / 1.60e23 - 1.0)
    ok = (all(verdicts_low) and not any(verdicts_high)
          and dev_tau <= 5e-3 and dev_inv <= 5e-3)
    check(4, ok,
          f"10/10 causal below 0.99/tau_e, 10/10 acausal above 1.01/tau_e; "
          f"CGS tau_e = {tau_cgs:.4e} s (6.26e-24 ± 0.5%), "
          f"1/tau_e = {1.0 / tau_cgs:.4e} 1/s (1.60e23 ± 0.5%)")


def test_criterion_5_runaway_dichotomy():
    model = ParticleModel.point_limit(1.0, 0.0)
    tau_e = model.tau_e

    t = np.linspace(0.0, 0.1, 401)
    self_acc = integrate_third_order(zero_force(), model, t, a0=1.0,
                                     variant="abraham_lorentz")
    rate_ok = (self_acc.runaway_flag
               and abs(self_acc.growth_rate * tau_e - 1.0) <= 0.01)

    bounded_ok = True
    drives = [zero_force(), constant_with_ramp(1.0, 2.0), sinusoid(1.0, 2.0),
              gaussian_pulse(1.0, 3.0, 0.5)]
    tb = np.linspace(0.0, 8.0, 401)
    for sig in drives:
        if bounded_al_trajectory(sig, model, tb).runaway_flag:
            bounded_ok = False

    cut = ParticleModel(M=1.0, K=0.0, Omega=0.2 / tau_e)
    decay = 1.0 / (1.0 / cut.Omega - cut.tau_e)
    tc = np.linspace(0.0, 20.0 * tau_e, 401)
    damped = integrate_third_order(zero_force(), cut, tc, a0=1.0,
                                   variant="cutoff")
    decay_ok = (not damped.runaway_flag
                and abs(-damped.fit_rate / decay - 1.0) <= 0.01)

    check(5, rate_ok and bounded_ok and decay_ok,
          f"self-acceleration rate {self_acc.growth_rate * tau_e:.4f}/tau_e "
          f"(1 ± 1%); bounded integrator runaway-free on 4 drives: "
          f"{bounded_ok}; cutoff decay {-damped.fit_rate / decay:.4f} of "
          f"1/(1/Omega - tau_e) (1 ± 1%)")


def test_criterion_6_memoryless_diffusion_constant():
    gamma, M = 1.0, 1.0
    kernel = OhmicKernel(gamma=gamma)
    model = ParticleModel(M=M, K=0.0, Omega=1.0)
    times = np.geomspace(10.0 / gamma, 100.0 / gamma, 21)

    def slope(T):
        report = report_from_curve(msd_curve(kernel, model, T, times,
                                             classical=True))
        assert not report.anomalous
        return 2.0 * report.D

    s1 = slope(1.0)
    s2 = slope(2.0)
    dev1 = abs(s1 / (2.0 * 1.0 / (M * gamma)) - 1.0)
    dev2 = abs(s2 / s1 - 2.0)
    check(6, dev1 <= 0.01 and dev2 <= 0.01,
          f"MSD slope {s1:.6f} vs 2kT/(M gamma) = 2 (off {100 * dev1:.3f}%, "
          f"limit 1%); doubling T scales the slope by {s2 / s1:.6f} "
          f"(2 ± 1%)")


def test_criterion_7_microscopic_bath_reproduces_the_kernel():
    start = time.perf_counter()
    gamma, T = 1.0, 1.0
    kernel = OhmicKernel(gamma=gamma)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=200, omega_max=16.0)

    t_facf = np.linspace(0.0, 5.0 / gamma, 51)
    frozen = simulate_classical_io(osc, model, T, t_facf, n_traj=4000,
                                   seed=12345, freeze_particle=True)
    facf = force_autocorrelation_check(frozen, osc, kernel)

    t_msd = np.linspace(0.0, 30.0, 61)
    moving = simulate_classical_io(osc, model, T, t_msd, n_traj=4000,
                                   seed=12345)
    times, mean, _ = ensemble_msd(moving)
    # Relative comparison needs the MSD clear of its t -> 0 zero; one
    # relaxation time in is the first scale where that holds.
    mask = times >= 1.0 / gamma
    target = np.array([msd(kernel, model, T, float(tk), classical=True)
                       for tk in times[mask]])
    msd_dev = float(np.max(np.abs(mean[mask] - target) / target))
    elapsed = time.perf_counter() - start
    ok = facf.max_dev_sigma <= 3.0 and msd_dev <= 0.05 and elapsed < 600.0
    check(7, ok,
          f"force autocorrelation within {facf.max_dev_sigma:.2f} sigma of "
          f"kT mu(t) on [0, 5/gamma] (limit 3); ensemble MSD within "
          f"{100 * msd_dev:.2f}% of the quadrature answer on "
          f"[1/gamma, 30/gamma] (limit 5%); {elapsed:.0f}s (limit 600s)")


def test_criterion_8_shift_vanishes_linearly_with_coupling():
    epsilons = np.array([1e-2, 1e-3, 1e-4])
    shifts = []
    for eps in epsilons:
        constants = DIMENSIONLESS.scale_charge(float(eps))
        model = ParticleModel(M=1.0, K=1e-8, Omega=1e4, constants=constants)
        value, _ = free_energy_shift(model.kernel(), model, 1.0)
        shifts.append(abs(value))
    shifts = np.array(shifts)
    slope = np.polyfit(np.log(epsilons), np.log(shifts), 1)[0]
    ok = abs(slope - 1.0) <= 0.1 and np.all(np.diff(shifts) < 0)
    check(8, ok,
          f"|shift| at e^2 scaled by 1e-2/1e-3/1e-4: "
          f"{shifts[0]:.3e}/{shifts[1]:.3e}/{shifts[2]:.3e}; "
          f"log-log slope {slope:.4f} (1 ± 0.1)")


def test_criterion_9_bitwise_deterministic_outputs(tmp_path):
    config = {
        "command": "oracle", "seed": 7, "N": 50, "n_traj": 64, "T": 1.0,
        "freeze_particle": True,
        "kernel": {"variant": "ohmic", "gamma": 1.0},
        "model": {"M": 1.0, "K": 0.0},
        "grids": {"t": {"start": 0.0, "stop": 5.0, "num": 26}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # the child imports the same package as this test, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlebath.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for run in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "qlebath.cli", "--config", str(path),
             "--out", str(tmp_path / run)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / run / "oracle.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    check(9, ok,
          f"two CLI runs of the same seeded config: CSV bytes "
          f"{'identical' if ok else 'DIFFER'} ({len(outputs[0])} bytes)")
