"""Driven-motion integrators against closed-form trajectories."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qlebath import (
    DIMENSIONLESS,
    GridError,
    ParticleModel,
    StepSizeError,
    bounded_al_acceleration,
    bounded_al_trajectory,
    constant_with_ramp,
    gaussian_pulse,
    integrate_point_limit,
    integrate_third_order,
    sinusoid,
    zero_force,
)
from qlebath import motion

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


@pytest.mark.parametrize("integrate", [integrate_point_limit,
                                       bounded_al_trajectory])
def test_step_halving_guard(integrate):
    model = free_model()
    with pytest.raises(StepSizeError, match="step too large"):
        integrate(sinusoid(1.0, 2.0), model, np.linspace(0.0, 8.0, 201))
    traj = integrate(sinusoid(1.0, 2.0), model, np.linspace(0.0, 8.0, 401))
    assert len(traj.x) == 401


@pytest.mark.parametrize("integrate", [integrate_point_limit,
                                       bounded_al_trajectory])
def test_known_acceleration_reaches_the_sinusoid_closed_form(integrate):
    # a = A (sin wt + B w cos wt): B = tau_e at the point limit, and the
    # bounded solution scales it by 1/(1 + (w tau_e)^2)
    f0, w, x0, v0 = 1.0, 2.0, 0.3, -0.5
    model = free_model()
    tau = model.tau_e
    A = f0 / model.M
    if integrate is bounded_al_trajectory:
        A /= 1.0 + (w * tau) ** 2
    t = np.linspace(0.0, 8.0, 401)
    traj = integrate(sinusoid(f0, w), model, t, x0=x0, v0=v0)
    va = v0 + A * ((1.0 - np.cos(w * t)) / w + tau * np.sin(w * t))
    xa = x0 + v0 * t + A * ((t - np.sin(w * t) / w) / w
                            + tau * (1.0 - np.cos(w * t)) / w)
    assert np.max(np.abs(traj.x - xa)) < 1e-13 * np.max(np.abs(xa))
    assert np.max(np.abs(traj.v - va)) < 1e-13 * np.max(np.abs(va))


@pytest.mark.parametrize("sig", [sinusoid(0.8, 1.3), gaussian_pulse(1.2, 3.0, 0.6)],
                         ids=["sinusoid", "pulse"])
def test_known_acceleration_is_the_exponential_step_at_q_zero(sig):
    # one rule: xdd = a(t) is a' = 0 a + s(t) with x as v and v as a
    model = free_model()
    t = np.concatenate((np.linspace(0.0, 4.0, 161), np.geomspace(4.05, 8.0, 80)))
    traj = integrate_point_limit(sig, model, t, x0=0.4, v0=-1.1)
    _, x, v = motion._exponential_path(
        lambda tk: (sig.f(tk) + model.tau_e * sig.fdot(tk)) / model.M, 0.0, t,
        0.0, 0.4, -1.1)
    assert np.max(np.abs(traj.x - x)) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(traj.v - v)) <= 1e-14 * np.max(np.abs(v))


def test_time_grid_validation():
    model = free_model()
    with pytest.raises(GridError, match="strictly increasing"):
        integrate_point_limit(zero_force(), model, [1.0, 0.5])
    with pytest.raises(GridError, match="two points"):
        integrate_third_order(zero_force(), model, [0.0], variant="cutoff")
    with pytest.raises(GridError, match="finite"):
        bounded_al_trajectory(zero_force(), model, [0.0, 1.0, math.inf])


def _sinusoid_cutoff_solution(f0, w, model, t, a0):
    """Closed form of M (1/Omega - tau_e) xddd + M xdd = f + fdot/Omega for
    f = f0 sin(w t) from x = v = 0: the particular solution
    C sin(wt) + D cos(wt) plus (a0 - D) e^{qt}, q = -1/(1/Omega - tau_e)."""
    eps = 1.0 / model.Omega - model.tau_e
    q = -1.0 / eps
    A = f0 / (model.M * eps)                    # s(t) = A sin + B cos
    B = A * w / model.Omega
    C = (B * w - q * A) / (w * w + q * q)
    D = -(A * w + q * B) / (w * w + q * q)
    E = a0 - D                                  # weight of e^{qt}
    grow = np.expm1(q * t)
    a = C * np.sin(w * t) + D * np.cos(w * t) + E * (grow + 1.0)
    v = C * (1.0 - np.cos(w * t)) / w + D * np.sin(w * t) / w + E * grow / q
    x = (C * (t - np.sin(w * t) / w) / w + D * (1.0 - np.cos(w * t)) / w ** 2
         + E * (grow - q * t) / q ** 2)
    return x, v, a


@pytest.mark.parametrize("ratio, stop, num", [
    (0.9, 8.0, 401),        # near the point limit: ~185 substeps per interval
    (2.0, 2.5 * TAU_E, 1001),  # acausal: e^{qt} grows by e^5
], ids=["near-limit", "acausal"])
def test_driven_cutoff_matches_the_closed_form(ratio, stop, num):
    f0, w, a0 = 1.3, 1.7, 0.4
    model = free_model(Omega=ratio / TAU_E)
    t = np.linspace(0.0, stop, num)
    eps = 1.0 / model.Omega - model.tau_e
    n_sub = math.ceil((t[1] - t[0]) / (0.2 * abs(eps)))
    assert (n_sub > 100) == (ratio < 1.0)
    traj = integrate_third_order(sinusoid(f0, w), model, t, a0=a0,
                                 variant="cutoff")
    assert len(traj.times) == num
    assert traj.runaway_flag == (ratio > 1.0)
    for got, want in zip((traj.x, traj.v, traj.a),
                         _sinusoid_cutoff_solution(f0, w, model, t, a0)):
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


# Omega tau_e anywhere in [0.05, 1 - 1e-13], or within 1e-13 .. 1e-1 of 1
near_limit_ratios = st.one_of(
    st.floats(0.05, 1.0 - 1e-13),
    st.floats(-13.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
)


# derandomize: the same examples on every run, as in test_properties.py
@settings(max_examples=300, deadline=None, derandomize=True)
@given(ratio=near_limit_ratios, M=st.floats(-0.5, 0.5).map(lambda e: 10.0 ** e),
       f0=st.floats(0.5, 2.0), w=st.floats(0.5, 2.0), a0=st.floats(-1.0, 1.0))
def test_driven_cutoff_up_to_rounding_of_the_point_limit(ratio, M, f0, w, a0):
    # the stiff rate 1/(1/Omega - tau_e) reaches ~1e15 per unit time: one
    # exponential step per interval still gives the closed form
    tau_e = ParticleModel(M=M, K=0.0, Omega=1.0).tau_e
    model = ParticleModel(M=M, K=0.0, Omega=ratio / tau_e)
    t = np.linspace(0.0, 8.0, 401)
    traj = integrate_third_order(sinusoid(f0, w), model, t, a0=a0,
                                 variant="cutoff")
    assert len(traj.times) == len(t)
    assert not traj.runaway_flag
    for got, want in zip((traj.x, traj.v, traj.a),
                         _sinusoid_cutoff_solution(f0, w, model, t, a0)):
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [0.1, 0.71, 1.0])
def test_point_limit_cutoff_runs_the_point_limit(M):
    # 1/Omega and tau_e differ by an ulp at M = 0.1 (above) and 0.71 (below)
    model = ParticleModel.point_limit(M, 0.0)
    t = np.linspace(0.0, 8.0, 401)
    sig = gaussian_pulse(1.2, 3.0, 0.6)
    third = integrate_third_order(sig, model, t, a0=0.3, variant="cutoff")
    second = integrate_point_limit(sig, model, t)
    for name in ("times", "x", "v", "a"):
        np.testing.assert_array_equal(getattr(third, name), getattr(second, name))
    assert not third.runaway_flag


def test_steps_beyond_the_float_range_keep_an_exact_zero():
    # 800 growth times per step: e^{qh} is inf, but a zero drive from a0 = 0
    # keeps a = 0 exactly, with no runaway and no NaN
    model = free_model()
    t = np.linspace(0.0, 16000.0 * model.tau_e, 21)
    traj = integrate_third_order(zero_force(), model, t, x0=0.5, v0=-2.0,
                                 variant="abraham_lorentz")
    assert len(traj.times) == 21
    assert np.all(traj.a == 0.0)
    np.testing.assert_allclose(traj.v, -2.0, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(traj.x, 0.5 - 2.0 * t, rtol=1e-15, atol=1e-15)
    assert not traj.runaway_flag


def test_phi_functions_match_mpmath():
    # both sides of the switch at |z| = 5 and of |z| = k, densely in between
    mags = np.concatenate((np.geomspace(1e-8, 700.0, 240),
                           np.linspace(0.5, 12.0, 116),
                           [0.9999, 1.0001, 4.9999, 5.0, 5.0001, 7.9999, 8.0001]))
    z = np.concatenate((mags, -mags, [0.0]))
    phi = motion._phi(z)
    with mpmath.workdps(50):
        for k in range(8):
            # phi_k(z) = 1F1(1; k + 1; z) / k!
            want = [mpmath.hyp1f1(1, k + 1, mpmath.mpf(float(zi)))
                    / mpmath.factorial(k) for zi in z]
            err = max(abs(mpmath.mpf(float(p)) / w - 1) for p, w in zip(phi[k], want))
            assert err < 2e-14, f"phi_{k}: {float(err):.2e}"


def test_abraham_lorentz_overflow_truncates_as_a_runaway():
    model = free_model()
    t = np.linspace(0.0, 1000.0 * model.tau_e, 401)
    traj = integrate_third_order(zero_force(), model, t, a0=1.0,
                                 variant="abraham_lorentz")
    # a = e^{t/tau_e} leaves the float range at t = 709.8 tau_e
    assert 700.0 * model.tau_e < traj.times[-1] < 710.0 * model.tau_e
    assert len(traj.times) < len(t)
    assert np.all(np.isfinite(traj.a)) and np.all(np.isfinite(traj.x))
    assert traj.runaway_flag
    assert traj.growth_rate is not None and not math.isnan(traj.growth_rate)


def test_coarse_truncated_runaway_still_fits_its_rate():
    # 15.6 tau_e per step: log|a| is exactly linear, but the final third of
    # the kept points spans ~100 decades below the last one
    model = ParticleModel.point_limit(1.9, 0.0)
    traj = integrate_third_order(zero_force(), model, np.linspace(0.0, 8.0, 201),
                                 a0=0.7, variant="abraham_lorentz")
    assert len(traj.times) < 201
    assert traj.runaway_flag
    assert traj.fit_rate == pytest.approx(1.0 / model.tau_e, rel=1e-3)
    assert traj.growth_rate == traj.fit_rate


DRIVES = [zero_force(), constant_with_ramp(-1.5, 2.0), sinusoid(0.8, 1.3),
          gaussian_pulse(1.2, 3.0, 0.6)]
DRIVE_IDS = ["zero", "ramp", "sinusoid", "pulse"]


@pytest.mark.parametrize("sig", DRIVES, ids=DRIVE_IDS)
def test_drives_on_arrays_match_pointwise_evaluation(sig):
    t = np.linspace(-1.0, 6.0, 57)
    for fn in (sig.f, sig.fdot):
        values = fn(t)
        assert values.dtype == np.float64 and values.shape == t.shape
        np.testing.assert_allclose(values, [float(fn(tk)) for tk in t],
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("sig", DRIVES, ids=DRIVE_IDS)
def test_bounded_acceleration_on_arrays_matches_pointwise(sig):
    model = free_model()
    t = np.linspace(-1.0, 6.0, 57)
    nodes, weights = np.polynomial.laguerre.laggauss(48)
    loop = [sum(w * float(sig.f(tk + u * model.tau_e))
                for u, w in zip(nodes, weights)) / model.M for tk in t]
    values = bounded_al_acceleration(sig, model, t)
    assert values.shape == t.shape
    # 48-term sums in another order: a few ulp of the largest term
    atol = 1e-14 * max(np.max(np.abs(loop)), 1e-300)
    np.testing.assert_allclose(values, loop, rtol=0.0, atol=atol)
    np.testing.assert_allclose(
        [float(bounded_al_acceleration(sig, model, tk)) for tk in t], loop,
        rtol=0.0, atol=atol)


def _phi12(w):
    """phi_1(w) = (e^w - 1)/w and phi_2(w) = (e^w - 1 - w)/w^2, by their
    Taylor series where the closed forms cancel."""
    small = np.abs(w) < 0.5
    ws = np.where(small, 1.0, w)
    taylor = [1.0 / math.factorial(j) for j in range(20, 0, -1)]
    phi1 = np.where(small, np.polyval(taylor[1:], w), np.expm1(ws) / ws)
    phi2 = np.where(small, np.polyval(taylor[:-1], w), (np.expm1(ws) - ws) / ws ** 2)
    return phi1, phi2


def _variation_of_constants(sig, model, t, y, variant, ramp_ends=(0.0, 2.0)):
    """Exact (x, v, a) of a' = q a + s(t), v' = a, x' = v from y at t[0]:
    a(t) = e^{q(t - t0)} a0 + int_t0^t e^{q(t - u)} s(u) du, and v, x from
    the kernels (t - u) phi_1(q(t - u)) and (t - u)^2 phi_2(q(t - u)).  The
    integrals are composite 16-node Gauss-Legendre on eight panels per grid
    interval, split at the ramp ends, for every grid point at once."""
    inv_om = 1.0 / model.Omega if variant == "cutoff" else 0.0
    eps = inv_om - model.tau_e
    q = -1.0 / eps
    breaks = np.union1d(t, [b for b in ramp_ends if t[0] < b < t[-1]])
    edges = np.linspace(breaks[:-1], breaks[1:], 9)
    lo, hi = edges[:-1].ravel(), edges[1:].ravel()
    nodes, weights = np.polynomial.legendre.leggauss(16)
    u = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes).ravel()
    ds = ((sig.f(u) + inv_om * sig.fdot(u)) / (model.M * eps)
          * (0.5 * (hi - lo)[:, None] * weights).ravel())
    lag = t[:, None] - u
    after = lag > 0.0  # panels end on grid points: all or none of a panel
    lag = np.where(after, lag, 0.0)
    phi1, phi2 = _phi12(q * lag)
    dt = t - t[0]
    e1, e2 = _phi12(q * dt)
    x0, v0, a0 = y
    a = np.exp(q * dt) * a0 + np.where(after, np.exp(q * lag), 0.0) @ ds
    v = v0 + dt * e1 * a0 + (lag * phi1) @ ds
    x = x0 + dt * v0 + dt * dt * e2 * a0 + (lag * lag * phi2) @ ds
    return x, v, a


@pytest.mark.parametrize("sig", DRIVES, ids=DRIVE_IDS)
@pytest.mark.parametrize("ratio, variant, grid, bound", [
    (0.9, "cutoff", np.linspace(0.0, 0.5, 21), 1e-11),
    (0.3, "cutoff", np.geomspace(1e-2, 1.0, 61), 2e-9),
    (3.0, "cutoff", np.linspace(0.0, 8.0 * TAU_E, 41), 1e-13),
    (None, "abraham_lorentz", np.geomspace(0.1 * TAU_E, 15.0 * TAU_E, 61), 1e-13),
], ids=["near-limit", "causal-log-grid", "acausal", "abraham-lorentz"])
def test_third_order_matches_generic_rk4(sig, ratio, variant, grid, bound):
    # the name is kept; the reference is the exact variation-of-constants
    # solution, which the quarter-point exponential step reaches to the
    # interpolation error of the drive
    model = free_model() if ratio is None else free_model(Omega=ratio / TAU_E)
    traj = integrate_third_order(sig, model, grid, x0=0.2, v0=-0.4, a0=0.7,
                                 variant=variant)
    want = _variation_of_constants(sig, model, grid, (0.2, -0.4, 0.7), variant)
    for got, ref in zip((traj.x, traj.v, traj.a), want):
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


def test_ramp_is_exact_outside_the_ramp():
    f0, t_ramp = -1.5, 2.0
    sig = constant_with_ramp(f0, t_ramp)
    before = np.array([-5.0, -1e-300, 0.0])
    after = np.array([t_ramp, t_ramp + 1e-12, 50.0])
    assert np.all(sig.f(before) == 0.0) and np.all(sig.fdot(before) == 0.0)
    assert np.all(sig.f(after) == f0) and np.all(sig.fdot(after) == 0.0)
    assert sig.f(1.0) == pytest.approx(0.5 * f0, rel=1e-15)


def test_growth_fit_matches_a_polynomial_least_squares_fit():
    # the closed-form slope and R^2 against numpy's Vandermonde/SVD fit
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = np.sort(rng.uniform(0.0, 10.0, 90))
        # at most ~12 decades of decay: every point of the tail is fitted
        log_a = rng.uniform(-2.5, 3.0) * t + rng.normal(0.0, 1.0, t.size)
        slope, r2 = motion._fit_log_growth(t, np.exp(log_a))
        tail, la = t[60:], log_a[60:]
        ref_slope, intercept = np.polyfit(tail, la, 1)
        resid = la - (ref_slope * tail + intercept)
        ref_r2 = 1.0 - np.sum(resid ** 2) / np.sum((la - la.mean()) ** 2)
        assert slope == pytest.approx(ref_slope, rel=1e-10, abs=1e-12)
        assert r2 == pytest.approx(ref_r2, rel=1e-10, abs=1e-12)
