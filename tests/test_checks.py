"""The library's argument checks: one temperature rule for every entry point
that takes T, and one row per check that no other test reaches (the call,
the exception and a fragment of its message)."""

import math
import os
import struct

import numpy as np
import pytest

from qlebath import (
    DIMENSIONLESS,
    BlackbodyKernel,
    FitError,
    FreeEnergyCurve,
    GridError,
    OhmicKernel,
    ParticleModel,
    SingleRelaxationKernel,
    StepSizeError,
    bath_sim,
    cli,
    diffusion,
    motion,
    thermo,
)

KERNEL = OhmicKernel(gamma=1.0)
BOUND = ParticleModel(M=1.0, K=1.0, Omega=1.0)
FREE = ParticleModel(M=1.0, K=0.0, Omega=1.0)
BATH = bath_sim.discretize_bath(KERNEL, 20)
GRID = np.linspace(0.0, 1.0, 5)

# every public function of a temperature, as a call of T alone
TEMPERATURE_CALLS = {
    "oscillator_free_energy": lambda T: thermo.oscillator_free_energy(1.0, T),
    "welton_energy": lambda T: thermo.welton_energy(T, 1.0),
    "welton_closed_form": lambda T: thermo.welton_closed_form(T, 1.0),
    "coupled_free_energy": lambda T: thermo.coupled_free_energy(KERNEL, BOUND, T),
    "free_energy_shift": lambda T: thermo.free_energy_shift(KERNEL, BOUND, T),
    "free_energy_curve": lambda T: thermo.free_energy_curve(KERNEL, BOUND, T),
    "bbr_shift_closed_form": lambda T: thermo.bbr_shift_closed_form(T, BOUND),
    "msd": lambda T: diffusion.msd(KERNEL, FREE, T, 1.0),
    "msd_curve": lambda T: diffusion.msd_curve(KERNEL, FREE, T),
    "simulate_classical_io": lambda T: bath_sim.simulate_classical_io(
        BATH, FREE, T, GRID, 2, 0),
}


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, -1.0, -1e-300],
                         ids=["nan", "inf", "-inf", "-1", "-tiny"])
@pytest.mark.parametrize("shape", ["number", "array"])
@pytest.mark.parametrize("call", TEMPERATURE_CALLS.values(),
                         ids=TEMPERATURE_CALLS)
def test_every_temperature_entry_point_rejects_a_bad_temperature(call, shape, T):
    value = T if shape == "number" else np.array([0.5, T])
    with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
        call(value)


def _frozen_ensemble(times):
    return bath_sim.simulate_classical_io(BATH, FREE, 1.0, times, 2, 0,
                                          freeze_particle=True)


def _dump_of_version(tmp_path, version):
    path = tmp_path / "ens.bin"
    bath_sim.dump_ensemble(_frozen_ensemble(GRID), path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(data))
    return path


def _curve(**fit):
    return diffusion.MsdCurve(times=[1.0, 2.0], values=[1.0, 2.0],
                              temperature=1.0, **fit)


# id -> (call, exception type, message fragment)
CHECKS = {
    # thermo
    "oscillator-omega-zero": (lambda: thermo.oscillator_free_energy(0.0, 1.0),
                              ValueError, "omega must be > 0"),
    "welton-mass-zero": (lambda: thermo.welton_energy(1.0, 0.0),
                         ValueError, "mass must be > 0"),
    "t2-of-a-free-particle": (lambda: thermo.t2_low_temperature(KERNEL, FREE),
                              ValueError, "needs K > 0"),
    "bbr-dimensions": (lambda: thermo.bbr_shift_closed_form(1.0, BOUND, 2),
                       ValueError, "dimensions must be 1 or 3"),
    "curve-lengths": (lambda: FreeEnergyCurve([1.0, 2.0], [1.0]),
                      ValueError, "equal-length 1D arrays"),
    "curve-decreasing": (lambda: FreeEnergyCurve([2.0, 1.0], [1.0, 1.0]),
                         ValueError, "strictly increasing"),
    "curve-baseline-shape": (
        lambda: FreeEnergyCurve([1.0, 2.0], [1.0, 1.0], baseline=[1.0]),
        ValueError, "baseline must match temperatures"),
    "fit-at-zero-temperature": (
        lambda: thermo.fit_quadratic_coefficient([0.0, 0.0], [1.0, 1.0]),
        ValueError, "no nonzero points"),
    # kernels and the particle model
    "mu-at-infinity": (lambda: KERNEL.mu_tilde(math.inf), ValueError,
                       "kernel argument must be finite"),
    "relaxation-gamma": (lambda: SingleRelaxationKernel(gamma=-1.0, tau=1.0),
                         ValueError, "gamma must be >= 0"),
    "relaxation-mass": (
        lambda: SingleRelaxationKernel(gamma=1.0, tau=1.0, mass=0.0),
        ValueError, "mass must be positive"),
    "blackbody-mass": (
        lambda: BlackbodyKernel(Omega=1.0, constants=DIMENSIONLESS, M=0.0),
        ValueError, "M must be positive"),
    "model-mass": (lambda: ParticleModel(M=0.0, K=1.0, Omega=1.0),
                   ValueError, "M must be positive"),
    "model-spring": (lambda: ParticleModel(M=1.0, K=-1.0, Omega=1.0),
                     ValueError, "K must be >= 0"),
    "model-cutoff": (lambda: ParticleModel(M=1.0, K=1.0, Omega=0.0),
                     ValueError, "Omega must be positive"),
    # diffusion
    "classical-at-zero-temperature": (
        lambda: diffusion.msd(KERNEL, FREE, 0.0, 1.0, classical=True),
        ValueError, "classical weight requires T > 0"),
    "msd-negative-times": (
        lambda: diffusion.msd_curve(KERNEL, FREE, 1.0, [-1.0, 1.0]),
        GridError, "time grid must be nonnegative"),
    "msd-curve-lengths": (
        lambda: diffusion.MsdCurve(times=[1.0, 2.0], values=[1.0],
                                   temperature=1.0),
        ValueError, "equal length"),
    "msd-curve-not-finite": (
        lambda: diffusion.MsdCurve(times=[1.0, 2.0], values=[1.0, math.inf],
                                   temperature=1.0),
        ValueError, "must be finite"),
    "msd-curve-negative": (
        lambda: diffusion.MsdCurve(times=[1.0, 2.0], values=[1.0, -1.0],
                                   temperature=1.0),
        ValueError, "nonnegative"),
    "report-without-a-fit": (lambda: diffusion.report_from_curve(_curve()),
                             FitError, "fewer than three usable points"),
    "report-of-a-bad-fit": (
        lambda: diffusion.report_from_curve(_curve(
            fit_exponent=1.0, fit_prefactor=1.0, fit_stderr=0.1,
            fit_residual=10.0)),
        FitError, "log-log fit residual"),
    # motion
    "ramp-duration": (lambda: motion.constant_with_ramp(1.0, 0.0),
                      ValueError, "t_ramp must be > 0"),
    "sinusoid-frequency": (lambda: motion.sinusoid(1.0, 0.0),
                           ValueError, "omega_d must be > 0"),
    "pulse-width": (lambda: motion.gaussian_pulse(1.0, 0.0, 0.0),
                    ValueError, "sigma must be > 0"),
    "trajectory-lengths": (
        lambda: motion.Trajectory(GRID, GRID, GRID, GRID[:2]),
        ValueError, "equal length"),
    "runaway-without-rate": (
        lambda: motion.Trajectory(GRID, GRID, GRID, GRID, runaway_flag=True),
        ValueError, "must record growth_rate"),
    "rate-without-runaway": (
        lambda: motion.Trajectory(GRID, GRID, GRID, GRID, growth_rate=1.0),
        ValueError, "only recorded for runaways"),
    "third-order-variant": (
        lambda: motion.integrate_third_order(motion.zero_force(), BOUND, GRID,
                                             variant="euler"),
        ValueError, "variant must be one of"),
    "motion-past-the-float-range": (
        lambda: motion.integrate_point_limit(
            motion.sinusoid(1e308, 1.0), FREE, np.linspace(0.0, 1e10, 5)),
        StepSizeError, "left the finite range"),
    # bath_sim
    "omega-max-negative": (lambda: bath_sim.bath_frequencies(KERNEL, 10, -1.0),
                           GridError, "omega_max must be positive"),
    "bath-of-a-decoupled-kernel": (
        lambda: bath_sim.discretize_bath(OhmicKernel(gamma=0.0), 10),
        ValueError, "must be positive and finite"),
    "recurrence-of-equal-frequencies": (
        lambda: bath_sim.recurrence_time([1.0, 1.0]),
        ValueError, "bath frequencies must be distinct"),
    "ensemble-shapes": (
        lambda: bath_sim.Ensemble(times=GRID, x=np.zeros((2, 4)),
                                  v=np.zeros((2, 4)), seed=0, N_bath=20, T=1.0),
        ValueError, "(n_traj, n_times) matching times"),
    "simulate-negative-times": (
        lambda: bath_sim.simulate_classical_io(BATH, FREE, 1.0, [-1.0, 0.0],
                                               2, 0),
        GridError, "time grid must be nonnegative"),
    "simulate-no-trajectories": (
        lambda: bath_sim.simulate_classical_io(BATH, FREE, 1.0, GRID, 0, 0),
        ValueError, "n_traj must be a positive integer"),
    "facf-window-past-the-grid": (
        lambda: bath_sim.force_autocorrelation_check(
            _frozen_ensemble([10.0, 20.0]), BATH, KERNEL),
        GridError, "fewer than two points inside the comparison window"),
}


@pytest.mark.parametrize("call, error, fragment", CHECKS.values(), ids=CHECKS)
def test_every_check_raises_its_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_a_dump_of_an_unknown_version_is_refused(tmp_path):
    with pytest.raises(ValueError, match="unsupported dump version 99"):
        bath_sim.load_ensemble(_dump_of_version(tmp_path, 99))


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old")

    def write(fh):
        fh.write(b"half")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._replace_file(str(path), write)
    assert os.listdir(tmp_path) == ["table.csv"]
    assert path.read_text() == "old"


def test_one_trajectory_has_a_zero_standard_error():
    ens = bath_sim.simulate_classical_io(BATH, FREE, 1.0, GRID, 1, 0)
    times, mean, stderr = bath_sim.ensemble_msd(ens)
    assert np.array_equal(times, GRID) and np.all(mean >= 0.0)
    assert np.array_equal(stderr, np.zeros(GRID.size))


def test_a_curve_without_a_baseline_shifts_by_nothing():
    curve = FreeEnergyCurve([1.0, 2.0], [-1.0, -3.0])
    assert np.array_equal(curve.shift, curve.values)


def test_a_single_mode_never_recurs():
    assert bath_sim.recurrence_time([1.0]) == math.inf
