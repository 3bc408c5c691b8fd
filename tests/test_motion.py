"""Driven-motion integrators against closed-form trajectories."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qlebath import (
    DIMENSIONLESS,
    ParticleModel,
    StepSizeError,
    bounded_al_acceleration,
    bounded_al_trajectory,
    characteristic_roots,
    constant_with_ramp,
    gaussian_pulse,
    integrate_point_limit,
    integrate_third_order,
    sinusoid,
    zero_force,
)

TAU_E = ParticleModel(M=1.0, K=0.0001, Omega=1.0).tau_e  # 2 alpha_fs / 3


def free_model(Omega=None, constants=DIMENSIONLESS):
    if Omega is None:
        return ParticleModel.point_limit(1.0, 0.0, constants=constants)
    return ParticleModel(M=1.0, K=0.0, Omega=Omega, constants=constants)


def test_point_limit_sinusoid_closed_form():
    f0, w = 1.0, 2.0
    model = free_model()
    t = np.linspace(0.0, 20.0, 801)
    traj = integrate_point_limit(sinusoid(f0, w), model, t)
    xa = (f0 / model.M) * ((t - np.sin(w * t) / w) / w
                           + model.tau_e * (1.0 - np.cos(w * t)) / w)
    va = (f0 / model.M) * ((1.0 - np.cos(w * t)) / w
                           + model.tau_e * np.sin(w * t))
    aa = (f0 / model.M) * (np.sin(w * t) + model.tau_e * w * np.cos(w * t))
    assert np.max(np.abs(traj.x - xa)) < 1e-6 * np.max(np.abs(xa))
    assert np.max(np.abs(traj.v - va)) < 1e-6 * np.max(np.abs(va))
    assert np.allclose(traj.a, aa, rtol=1e-12)
    assert not traj.runaway_flag


def test_point_limit_ramped_constant_velocity_offset():
    f0, t_ramp = 1.5, 2.0
    model = free_model()
    t = np.linspace(0.0, 10.0, 501)
    traj = integrate_point_limit(constant_with_ramp(f0, t_ramp), model, t)
    # smooth ramp carries half its duration of impulse; the force-derivative
    # term leaves a permanent extra velocity tau_e * f0 / M
    base = (f0 / model.M) * (t[-1] - t_ramp / 2.0)
    assert traj.v[-1] == pytest.approx(base + model.tau_e * f0 / model.M,
                                       rel=1e-8)
    assert traj.v[-1] - base == pytest.approx(model.tau_e * f0 / model.M,
                                              rel=1e-4)


def test_point_limit_gaussian_pulse_momentum_theorem():
    sig = gaussian_pulse(2.0, 5.0, 0.5)
    model = free_model()
    t = np.linspace(0.0, 10.0, 501)
    traj = integrate_point_limit(sig, model, t)
    impulse, _ = quad(sig.f, 0.0, t[-1])
    expected = (impulse + model.tau_e * (sig.f(t[-1]) - sig.f(0.0))) / model.M
    assert traj.v[-1] == pytest.approx(expected, rel=1e-8)


def test_self_accelerating_growth_rate():
    model = free_model()
    t = np.linspace(0.0, 0.1, 401)  # about 20 growth times
    traj = integrate_third_order(zero_force(), model, t, a0=1.0,
                                 variant="abraham_lorentz")
    assert traj.runaway_flag
    assert traj.growth_rate == pytest.approx(1.0 / model.tau_e, rel=1e-2)
    assert traj.fit_r2 > 0.999
    assert traj.a[-1] > 1e8  # e^{t/tau_e} at t = 20.6 tau_e


def test_cutoff_damps_initial_acceleration():
    model = free_model(Omega=0.2 / TAU_E)
    rate = 1.0 / (1.0 / model.Omega - model.tau_e)  # 1 / (4 tau_e)
    t = np.linspace(0.0, 20.0 * TAU_E, 401)
    traj = integrate_third_order(zero_force(), model, t, a0=1.0,
                                 variant="cutoff")
    assert not traj.runaway_flag
    assert traj.growth_rate is None
    assert traj.fit_rate == pytest.approx(-rate, rel=1e-2)
    assert traj.a[-1] == pytest.approx(math.exp(-rate * t[-1]), rel=1e-3)


def test_cutoff_at_largest_causal_value_matches_point_limit():
    model = free_model()
    t = np.linspace(0.0, 10.0, 401)
    sig = sinusoid(1.0, 1.5)
    third = integrate_third_order(sig, model, t, variant="cutoff")
    second = integrate_point_limit(sig, model, t)
    assert np.allclose(third.x, second.x, rtol=0, atol=1e-10 * np.max(np.abs(second.x)))
    assert np.allclose(third.v, second.v, rtol=0, atol=1e-10 * np.max(np.abs(second.v)))


def test_stability_dichotomy_across_the_critical_cutoff():
    for u in np.geomspace(0.05, 0.9, 10):
        model = free_model(Omega=u / TAU_E)
        rate = abs(1.0 / (1.0 / model.Omega - model.tau_e))
        t = np.linspace(0.0, 6.0 / rate, 301)
        traj = integrate_third_order(zero_force(), model, t, a0=1.0,
                                     variant="cutoff")
        assert not traj.runaway_flag, f"u={u}"
    for u in np.geomspace(1.1, 10.0, 10):
        model = free_model(Omega=u / TAU_E)
        rate = abs(1.0 / (1.0 / model.Omega - model.tau_e))
        t = np.linspace(0.0, 6.0 / rate, 301)
        traj = integrate_third_order(zero_force(), model, t, a0=1.0,
                                     variant="cutoff")
        assert traj.runaway_flag, f"u={u}"
        assert traj.growth_rate == pytest.approx(rate, rel=5e-2)


def test_bounded_variant_sinusoid_closed_form():
    f0, w = 1.0, 3.0
    model = free_model()
    tau = model.tau_e
    t = np.linspace(0.0, 8.0, 601)
    traj = bounded_al_trajectory(sinusoid(f0, w), model, t)
    aa = (f0 / model.M) * (np.sin(w * t) + w * tau * np.cos(w * t)) \
        / (1.0 + (w * tau) ** 2)
    assert np.allclose(traj.a, aa, rtol=1e-9, atol=1e-12)
    assert not traj.runaway_flag


@pytest.mark.parametrize("sig", [
    zero_force(),
    constant_with_ramp(1.0, 2.0),
    sinusoid(1.0, 2.0),
    gaussian_pulse(1.0, 3.0, 0.5),
], ids=["zero", "ramp", "sinusoid", "pulse"])
def test_bounded_variant_never_runs_away(sig):
    model = free_model()
    t = np.linspace(0.0, 8.0, 401)
    traj = bounded_al_trajectory(sig, model, t)
    assert not traj.runaway_flag
    assert traj.growth_rate is None


def test_bounded_acceleration_deviation_scales_with_coupling():
    # the deviation of a(t) from f(t)/M is linear in tau_e, i.e. in e^2:
    # scaling e^2 by 1/4 must scale the max deviation by 1/4
    f0, w = 1.0, 2.0
    sig = sinusoid(f0, w)
    t = np.linspace(0.0, math.pi, 2001)

    def max_deviation(constants):
        model = free_model(constants=constants)
        dev = [abs(bounded_al_acceleration(sig, model, tk) - sig.f(tk) / model.M)
               for tk in t]
        return max(dev)

    full = max_deviation(DIMENSIONLESS)
    quarter = max_deviation(DIMENSIONLESS.scale_charge(0.25))
    assert full / quarter == pytest.approx(4.0, rel=1e-3)


def test_zero_force_conserves_velocity():
    model = free_model(Omega=0.5 / TAU_E)
    t = np.linspace(0.0, 5.0, 101)
    traj = integrate_third_order(zero_force(), model, t, v0=2.5, a0=0.0,
                                 variant="cutoff")
    assert np.allclose(traj.x, 2.5 * t, rtol=1e-10, atol=1e-12)
    assert np.allclose(traj.v, 2.5, rtol=1e-10)
    assert np.allclose(traj.a, 0.0, atol=1e-12)


def test_characteristic_roots():
    model = free_model(Omega=0.2 / TAU_E)
    roots = characteristic_roots(model, variant="cutoff")
    assert roots[:2] == [0j, 0j]
    assert roots[2].real == pytest.approx(-1.0 / (4.0 * model.tau_e), rel=1e-12)
    al = characteristic_roots(model, variant="abraham_lorentz")
    assert al[2].real == pytest.approx(1.0 / model.tau_e, rel=1e-12)
    point = free_model()
    assert len(characteristic_roots(point, variant="cutoff")) == 2
    with pytest.raises(ValueError):
        characteristic_roots(model, variant="nope")


@pytest.mark.parametrize("integrate", [integrate_point_limit,
                                       bounded_al_trajectory])
def test_step_halving_guard(integrate):
    model = free_model()
    with pytest.raises(StepSizeError, match="step too large"):
        integrate(sinusoid(1.0, 2.0), model, np.linspace(0.0, 8.0, 201))
    traj = integrate(sinusoid(1.0, 2.0), model, np.linspace(0.0, 8.0, 401))
    assert len(traj.x) == 401


def test_time_grid_validation():
    model = free_model()
    with pytest.raises(ValueError):
        integrate_point_limit(zero_force(), model, [1.0, 0.5])
    with pytest.raises(ValueError):
        integrate_third_order(zero_force(), model, [0.0], variant="cutoff")
