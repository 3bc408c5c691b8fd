"""Mean-square displacement against the exact memoryless answer and a
50-digit Matsubara reference."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlebath import (
    AcausalModelError,
    GridError,
    MsdCurve,
    OhmicKernel,
    ParticleModel,
    SingleRelaxationKernel,
    cli,
    diffusion,
    msd,
    msd_curve,
    regime_tag,
    report_from_curve,
)
from qlebath._quad import quad
from qlebath.response import decay_rates, mass_for_kernel


GAMMA = 1.2
KT = 2.0
MODEL = ParticleModel(M=1.0, K=0.0, Omega=1.0)
KERNEL = OhmicKernel(gamma=GAMMA)


def exact_memoryless_msd(t, kT=KT, gamma=GAMMA, M=1.0):
    # 2 kT / (M gamma) * (t - (1 - e^{-gamma t}) / gamma)
    return 2.0 * kT / (M * gamma) * (t - (1.0 - math.exp(-gamma * t)) / gamma)


def test_zero_time_displacement_is_zero():
    assert msd(KERNEL, MODEL, KT, 0.0, classical=True) == 0.0
    assert msd(KERNEL, MODEL, KT, 0.0, classical=False) == 0.0


@pytest.mark.parametrize("t", [0.5 / GAMMA, 2.0 / GAMMA, 10.0 / GAMMA,
                               30.0 / GAMMA])
def test_classical_matches_closed_form(t):
    got = msd(KERNEL, MODEL, KT, t, classical=True)
    assert got == pytest.approx(exact_memoryless_msd(t), rel=1e-5)


def test_short_time_ballistic_spreading():
    t = 0.01 / GAMMA
    got = msd(KERNEL, MODEL, KT, t, classical=True)
    assert got == pytest.approx(KT / MODEL.M * t ** 2, rel=2e-2)


def test_quantum_reduces_to_classical_when_hot():
    # hbar gamma / kT = 0.024: quantum corrections are negligible
    T = 50.0
    for t in (10.0 / GAMMA, 30.0 / GAMMA):
        q = msd(KERNEL, MODEL, T, t, classical=False)
        c = msd(KERNEL, MODEL, T, t, classical=True)
        assert q == pytest.approx(c, rel=1e-2)


def test_classical_displacement_linear_in_temperature():
    t = 5.0 / GAMMA
    one = msd(KERNEL, MODEL, 1.0, t, classical=True)
    two = msd(KERNEL, MODEL, 2.0, t, classical=True)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_curve_is_monotone_and_reports_normal_diffusion():
    times = np.geomspace(10.0 / GAMMA, 100.0 / GAMMA, 21)
    curve = msd_curve(KERNEL, MODEL, KT, times, classical=True)
    assert np.all(np.diff(curve.values) > 0)
    report = report_from_curve(curve)
    assert not report.anomalous
    assert report.D == pytest.approx(KT / (MODEL.M * GAMMA), rel=1e-3)
    data = report.to_json()
    assert data["anomalous"] is False
    assert "D" in data


def test_diffusion_constant_default_window():
    report = report_from_curve(msd_curve(KERNEL, MODEL, KT, classical=True))
    assert report.D == pytest.approx(KT / (MODEL.M * GAMMA), rel=1e-3)
    assert not report.anomalous


def test_normal_diffusion_not_misflagged_by_tight_fit():
    # on [10, 100]/gamma the log-log slope sits near 1.04 with a tiny formal
    # fit uncertainty; the classifier must not call that anomalous
    times = np.geomspace(10.0 / GAMMA, 100.0 / GAMMA, 21)
    curve = msd_curve(KERNEL, MODEL, KT, times, classical=True)
    assert curve.fit_exponent is not None
    assert abs(curve.fit_exponent - 1.0) > 3.0 * curve.fit_stderr
    assert not report_from_curve(curve).anomalous


def test_zero_temperature_radiation_bath_is_anomalous():
    model = ParticleModel(M=1.0, K=0.0, Omega=10.0)
    kernel = model.kernel()
    times = np.geomspace(10.0, 1000.0, 17)
    curve = msd_curve(kernel, model, 0.0, times, classical=False)
    report = report_from_curve(curve)
    assert report.anomalous
    assert report.exponent is not None
    assert report.exponent < 0.8
    assert report.to_json()["anomalous"] is True


def test_acausal_radiation_bath_rejected():
    model = ParticleModel(M=1.0, K=0.0, Omega=300.0)  # above the causal cutoff
    with pytest.raises(AcausalModelError):
        msd(model.kernel(), model, 1.0, 1.0)


@pytest.mark.parametrize("T", [1.0, 0.0])
def test_quantum_point_limit_msd_is_rejected_before_any_work(monkeypatch, T):
    # bare mass 0: Im alpha falls only as 1/omega, so the symmetrized msd
    # diverges logarithmically in the cutoff
    calls = count_quad_calls(monkeypatch)
    model = ParticleModel.point_limit(1.0, 0.0)
    with pytest.raises(ValueError, match="undefined at bare mass 0"):
        msd(model.kernel(), model, T, 1.0, classical=False)
    with pytest.raises(ValueError, match="classical: true or Omega < 1/tau_e"):
        msd_curve(model.kernel(), model, T)
    assert calls == []


def test_quantum_point_limit_diffusion_run_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "diffusion",
                                "kernel": {"variant": "blackbody"},
                                "model": {"M": 1, "K": 0}, "T": 1}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: the quantum msd is undefined")
    assert err.count("\n") == 1
    assert not out.exists()


def test_bound_particle_rejected():
    bound = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    with pytest.raises(ValueError):
        msd(KERNEL, bound, KT, 1.0)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        msd(KERNEL, MODEL, KT, -1.0)
    with pytest.raises(GridError):
        msd_curve(KERNEL, MODEL, KT, [2.0, 1.0])


def test_regime_tags_progress_from_ballistic_to_diffusive():
    times = np.concatenate(([0.0], np.geomspace(1e-3 / GAMMA, 1e3 / GAMMA, 25)))
    curve = msd_curve(KERNEL, MODEL, KT, times, classical=True)
    tags = regime_tag(curve)
    assert len(tags) == len(times)
    assert tags[0] == "ballistic"
    assert tags[1] == "ballistic"
    assert tags[-1] == "diffusive"
    # once diffusive motion sets in it does not revert
    first_diff = tags.index("diffusive")
    assert all(tag == "diffusive" for tag in tags[first_diff:])


# ---- the closed form from the poles --------------------------------------

TAU_E = 2.0 / (3.0 * 137.036)   # dimensionless radiation-reaction time
# the closed form's rounding bound, relative: against the 50-digit reference
# the largest error over 1,000 random draws of the space below was 1.4e-13
# (~640 eps), at nu_1 t ~ 0.1, where W's O(1) terms cancel to O(0.01);
# elsewhere it was below 2e-14
CLOSED_FORM_RTOL = 1e-12


def mp_msd(kernel, model, kT, t, quantum, dps=50):
    """Reference msd at 50 digits, from mpmath's own poles and residues.

    Classical: 2kT times the integral of the impulse response, the residues
    of alpha(z) e^{-izt} at its poles (polyroots, residue 1/D' by
    differentiation) and at z = 0.  Quantum: the Matsubara sum term by term,
    sum_n Re[alpha(i nu_n)(1 - e^{-nu_n t}/2) + alpha(-i nu_n) e^{-nu_n t}/2
    + sum_k e^{-lam_k t} z_k/((z_k^2 + nu_n^2) D'(z_k)) + c2/nu_n^2], the
    smooth part by Euler-Maclaurin summation with alpha = 1/D itself, the
    pole sums over n in cot form and the e^{-nu_n t} part until it drops
    below the working precision.
    """
    with mpmath.workdps(dps):
        a0, a1, b0, b1 = [mpmath.mpc(complex(c)) for c in kernel.coefficients]
        m = mpmath.mpf(mass_for_kernel(kernel, model))
        kT, t = mpmath.mpf(kT), mpmath.mpf(t)

        def D(z):
            return -m * z * z - 1j * z * (a0 + a1 * z) / (b0 + b1 * z)

        coeffs = [-m * b1, -m * b0 - 1j * a1, -1j * a0]  # D (b0 + b1 z) / z
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        roots = (mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
                 if len(coeffs) > 1 else [])
        res = [1 / mpmath.diff(D, z) for z in roots]
        if a0 == 0:  # alpha = 1/(z^2 h(z)): a double pole at z = 0
            def h(z):
                return -1j * a1 / (b0 + b1 * z) - m
            c2, c1 = 1 / h(0), mpmath.diff(lambda z: 1 / h(z), 0)
        else:
            c2, c1 = 0, 1j * b0 / a0
        value = -1j * c1 * t - c2 * t * t / 2
        for z, r in zip(roots, res):
            value += r * (mpmath.exp(-1j * z * t) - 1) / z
        value = 2 * kT * mpmath.re(value)
        if not quantum:
            return value
        nu1 = 2 * mpmath.pi * kT

        def smooth(n):
            return mpmath.re(1 / D(1j * nu1 * n) + c2 / (nu1 * n) ** 2)

        total = mpmath.nsum(smooth, [1, mpmath.inf], method="euler-maclaurin")
        for z, r in zip(roots, res):
            y = 1j * z / nu1   # sum_n 1/(n^2 - y^2) = (1 - pi y cot pi y)/2y^2
            total += mpmath.re(mpmath.exp(-1j * z * t) * z * r / nu1 ** 2
                               * (1 - mpmath.pi * y * mpmath.cot(mpmath.pi * y))
                               / (2 * y * y))
        n = 1
        while nu1 * n * t < (dps + 5) * mpmath.log(10):
            nu = nu1 * n
            total += mpmath.re(mpmath.exp(-nu * t)
                               * (1 / D(-1j * nu) - 1 / D(1j * nu)) / 2)
            n += 1
        return value + 4 * kT * total


def blackbody_classical(kT, t, omega_tau):
    """kT t^2/M + (2 kT tau_e/M)(t - (1 - e^{-lam t})/lam), lam = Omega M/m."""
    lam = omega_tau / TAU_E / (1.0 - omega_tau)
    return kT * t * t + 2.0 * kT * TAU_E * (t + math.expm1(-lam * t) / lam)


def free_particles():
    """(kernel, model) of an Ohmic, single-relaxation or causal blackbody
    free particle, with its kernel time 1/scale."""
    unit = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    ohmic = st.builds(OhmicKernel, gamma=log_uniform(-1, 1)).map(
        lambda k: (k, unit))
    relaxation = st.tuples(log_uniform(-1, 1), log_uniform(-2, 2)).map(
        lambda p: (SingleRelaxationKernel(gamma=p[0], tau=p[1] / p[0]), unit))
    blackbody = st.floats(0.05, 0.95).map(
        lambda x: ParticleModel(M=1.0, K=0.0, Omega=x / TAU_E)).map(
        lambda model: (model.kernel(), model))
    return st.one_of(ohmic, relaxation, blackbody)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def count_quad_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(diffusion, "quad", counting)
    return calls


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(particle=free_particles(), kernel_times=log_uniform(-3, 3),
       phase=log_uniform(-1, 3), quantum=st.booleans())
def test_closed_form_matches_the_matsubara_reference(monkeypatch, particle,
                                                      kernel_times, phase,
                                                      quantum):
    kernel, model = particle
    rates = decay_rates(kernel, model)
    assume(len(rates) < 2 or abs(rates[0] - rates[1])
           >= 0.05 * max(map(abs, rates)))  # nearly equal rates: quadrature
    t = kernel_times / kernel.scale
    kT = phase / (2.0 * math.pi * t)   # nu_1 t from 0.1 to 1000
    calls = count_quad_calls(monkeypatch)
    got = msd(kernel, model, kT, t, classical=not quantum)
    assert calls == []
    want = mp_msd(kernel, model, kT, t, quantum)
    assert abs(got - want) <= CLOSED_FORM_RTOL * want
    if quantum:  # coth x >= 1/x
        assert got >= msd(kernel, model, kT, t, classical=True)


@pytest.mark.parametrize("t", [0.01, 0.3, 1.0, 3.0])
def test_blackbody_classical_msd_is_ballistic(t):
    # alpha's double pole at z = 0 carries kT t^2/M
    model = ParticleModel(M=1.0, K=0.0, Omega=0.5 / TAU_E)
    got = msd(model.kernel(), model, 1.0, t, classical=True)
    assert got == pytest.approx(blackbody_classical(1.0, t, 0.5), rel=1e-13)


@pytest.mark.parametrize("t", [0.02, 1.0, 3.0])
def test_blackbody_quantum_msd_keeps_the_ballistic_term(t):
    # t = 0.02 has nu_1 t < 0.1 and takes the quadrature, which adds the
    # double pole's kT t^2/M; its envelope tail costs it ~1e-7
    model = ParticleModel(M=1.0, K=0.0, Omega=0.5 / TAU_E)
    got = msd(model.kernel(), model, 1.0, t, classical=False)
    want = mp_msd(model.kernel(), model, 1.0, t, quantum=True)
    assert got == pytest.approx(float(want), rel=1e-6 if t < 0.1 else 1e-12)
    assert got > blackbody_classical(1.0, t, 0.5)


def test_msd_is_the_one_point_curve(monkeypatch):
    model = ParticleModel(M=1.0, K=0.0, Omega=0.3 / TAU_E)
    times = np.geomspace(0.05, 50.0, 13)
    for kernel, mdl in ((KERNEL, MODEL), (model.kernel(), model),
                        (SingleRelaxationKernel(gamma=1.0, tau=2.0), MODEL)):
        for classical in (True, False):
            curve = msd_curve(kernel, mdl, 0.5, times, classical=classical)
            one = [msd(kernel, mdl, 0.5, t, classical=classical)
                   for t in times]
            assert one == curve.values.tolist()
            assert curve.diagnostics["route"] == {"poles": 13,
                                                  "quadrature": 0}


def test_points_off_the_closed_form_take_the_quadrature(monkeypatch):
    calls = count_quad_calls(monkeypatch)
    times = np.array([0.0, 0.01, 0.02, 1.0])
    curve = msd_curve(KERNEL, MODEL, 0.5, times, classical=False)
    # nu_1 t = pi t: the two short times are quadrature points
    assert curve.diagnostics == {"route": {"poles": 2, "quadrature": 2},
                                 "matsubara_terms": 13}
    assert len(calls) == 2
    assert curve.values[0] == 0.0
    for t, value in zip(times[1:], curve.values[1:]):
        want = mp_msd(KERNEL, MODEL, 0.5, t, quantum=True)
        assert value == pytest.approx(float(want), rel=1e-6)
    calls.clear()
    curve = msd_curve(KERNEL, MODEL, 0.0, [1.0, 10.0], classical=False)
    assert len(calls) == 2
    assert curve.diagnostics["route"] == {"poles": 0, "quadrature": 2}


def test_equal_decay_rates_take_the_quadrature(monkeypatch):
    # gamma tau = 1/4: a double pole, where partial fractions fail
    kernel = SingleRelaxationKernel(gamma=1.0, tau=0.25)
    calls = count_quad_calls(monkeypatch)
    curve = msd_curve(kernel, MODEL, 0.7, [1.0, 3.0], classical=True)
    assert len(calls) == 2
    for t, value in zip((1.0, 3.0), curve.values):
        # msd is smooth in tau: bracket it by two split pairs of rates
        want = [mp_msd(SingleRelaxationKernel(gamma=1.0, tau=0.25 + d), MODEL,
                       0.7, t, quantum=False) for d in (-1e-9, 1e-9)]
        assert value == pytest.approx(float(sum(want) / 2), rel=1e-6)


def test_tail_fits_match_polyfit():
    rng = np.random.default_rng(3)
    times = np.geomspace(1.0, 100.0, 21)
    values = 3.0 * times ** 1.2 * np.exp(0.05 * rng.standard_normal(21))
    p, A, stderr, residual, mask = diffusion._tail_power_fit(times, values)
    lt, lv = np.log(times[mask]), np.log(values[mask])
    (p_ref, b_ref), cov = np.polyfit(lt, lv, 1, cov=True)
    resid = lv - (p_ref * lt + b_ref)
    assert p == pytest.approx(p_ref, rel=1e-12)
    assert A == pytest.approx(math.exp(b_ref), rel=1e-12)
    assert stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    assert residual == pytest.approx(math.sqrt(np.mean(resid ** 2)), rel=1e-12)
    curve = MsdCurve(times=times, values=values, temperature=1.0,
                     fit_exponent=1.0, fit_prefactor=A, fit_stderr=1.0,
                     fit_residual=residual)
    slope = np.polyfit(times[mask], values[mask], 1)[0]
    assert report_from_curve(curve).D == pytest.approx(slope / 2.0, rel=1e-12)
