"""Free-energy quadratures against closed forms and textbook oscillator values."""

import math

import numpy as np
import pytest

from qlebath import (
    DIMENSIONLESS,
    AcausalModelError,
    FreeEnergyCurve,
    GridError,
    OhmicKernel,
    ParticleModel,
    PhysicalConstants,
    QuadratureError,
    bbr_shift_closed_form,
    coupled_free_energy,
    fit_quadratic_coefficient,
    free_energy_curve,
    free_energy_shift,
    oscillator_free_energy,
    thermo_derivatives,
    welton_closed_form,
    welton_energy,
)

# kT ln(1 - e^{-1}): single oscillator at hbar omega / kT = 1
LOG_ONE_MINUS_INV_E = math.log(1.0 - math.exp(-1.0))


def test_oscillator_free_energy_reference_value():
    assert oscillator_free_energy(1.0, 1.0) == pytest.approx(
        LOG_ONE_MINUS_INV_E, rel=1e-14)
    # scaling form: f(omega, T) = kT ln(1 - e^{-hbar omega/kT})
    assert oscillator_free_energy(3.0, 2.0) == pytest.approx(
        2.0 * math.log(1.0 - math.exp(-1.5)), rel=1e-14)
    assert oscillator_free_energy(1.0, 0.0) == 0.0


def test_welton_quadrature_matches_closed_form():
    for T in (0.25, 1.0, 5.0):
        value, err = welton_energy(T, 1.0)
        target = welton_closed_form(T, 1.0)
        assert value == pytest.approx(target, rel=1e-8)
        assert err < 1e-6 * abs(value)
    assert welton_energy(0.0, 1.0) == (0.0, 0.0)


def test_welton_closed_form_quadratic_in_temperature():
    assert welton_closed_form(2.0, 1.0) == pytest.approx(
        4.0 * welton_closed_form(1.0, 1.0), rel=1e-12)
    k = DIMENSIONLESS
    assert welton_closed_form(1.0, 1.0) == pytest.approx(
        math.pi * k.alpha_fs / 3.0, rel=1e-12)


def test_one_direction_shift_is_one_third_of_welton():
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    ratio = welton_closed_form(1.0, 1.0) / bbr_shift_closed_form(1.0, model)
    assert ratio == pytest.approx(3.0, rel=1e-12)
    assert bbr_shift_closed_form(1.0, model, dimensions=3) == pytest.approx(
        3.0 * bbr_shift_closed_form(1.0, model), rel=1e-12)


def test_shift_route_matches_direct_difference():
    kernel = OhmicKernel(gamma=0.02)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    for T in (0.3, 1.0, 4.0):
        total, err_total = coupled_free_energy(kernel, model, T, rtol=1e-12)
        direct = total - oscillator_free_energy(model.omega_0, T)
        shift, err_shift = free_energy_shift(kernel, model, T)
        assert shift == pytest.approx(direct,
                                      abs=max(1e-8 * abs(shift),
                                              4.0 * (err_total + err_shift)))


def test_shift_zero_at_zero_temperature():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    assert free_energy_shift(kernel, model, 0.0) == (0.0, 0.0)


def test_shift_requires_bound_oscillator():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    with pytest.raises(ValueError):
        free_energy_shift(kernel, model, 1.0)


def test_acausal_cutoff_needs_explicit_override():
    model = ParticleModel(M=1.0, K=1e-8, Omega=1e4)
    kernel = model.kernel()
    with pytest.raises(AcausalModelError):
        free_energy_shift(kernel, model, 1.0)
    shift, _ = free_energy_shift(kernel, model, 1.0, allow_acausal=True)
    assert shift > 0


def test_blackbody_shift_matches_quadratic_law():
    # hbar omega_0 << kT << hbar Omega: the shift is pi alpha (kT)^2 / (9 M c^2)
    model = ParticleModel(M=1.0, K=1e-8, Omega=1e4)
    kernel = model.kernel()
    shift, _ = free_energy_shift(kernel, model, 1.0, allow_acausal=True)
    assert shift == pytest.approx(bbr_shift_closed_form(1.0, model), rel=1e-2)


@pytest.mark.parametrize("make_kernel", [
    lambda m: OhmicKernel(gamma=0.2),
    lambda m: m.kernel(),
], ids=["ohmic", "blackbody"])
def test_entropy_nonnegative_and_vanishing_at_low_temperature(make_kernel):
    model = ParticleModel(M=1.0, K=1.0, Omega=10.0)
    kernel = make_kernel(model)
    temps = np.linspace(0.05, 5.0, 41)
    curve = free_energy_curve(kernel, model, temps)
    d = thermo_derivatives(curve, rtol=0.05)  # sign test, not a precision test
    # one-sided edge stencils overshoot on the steep onset; judge the interior
    S = d["S"][1:-1]
    assert np.all(S >= -1e-9 * np.max(np.abs(S)))
    assert S[0] < 0.05 * S[-1]
    assert np.all(np.diff(S) > 0)  # entropy rises with temperature


def test_energy_from_derivatives_matches_planck_occupation():
    omega0 = 1.0
    temps = np.linspace(0.5, 3.0, 51)
    values = np.array([oscillator_free_energy(omega0, T) for T in temps])
    curve = FreeEnergyCurve(temperatures=temps, values=values)
    d = thermo_derivatives(curve)
    expected = omega0 / np.expm1(omega0 / temps)
    assert np.allclose(d["U"], expected, rtol=5e-3)


def test_derivatives_reject_short_grids():
    temps = np.array([0.5, 1.0, 1.5, 2.0])
    values = np.array([oscillator_free_energy(1.0, T) for T in temps])
    with pytest.raises(GridError):
        thermo_derivatives(FreeEnergyCurve(temperatures=temps, values=values))


def test_derivatives_reject_underresolved_grids():
    temps = np.geomspace(0.05, 5.0, 5)
    values = np.array([oscillator_free_energy(1.0, T) for T in temps])
    with pytest.raises(GridError):
        thermo_derivatives(FreeEnergyCurve(temperatures=temps, values=values))


def test_quadrature_error_estimates_are_honest():
    kernel = OhmicKernel(gamma=0.5)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    loose, err_loose = coupled_free_energy(kernel, model, 1.0, rtol=1e-6)
    tight, _ = coupled_free_energy(kernel, model, 1.0, rtol=1e-12)
    assert abs(loose - tight) <= 10.0 * err_loose + 1e-13 * abs(tight)


@pytest.mark.parametrize("route, kernel, model, T", [
    ("shift", OhmicKernel(gamma=0.05283), ParticleModel.point_limit(1.0, 2.859),
     0.1688),
    ("free-energy", None, ParticleModel(M=1.0, K=0.8838, Omega=18.95), 8.766),
], ids=["ohmic-shift", "blackbody-free-energy"])
def test_error_estimate_bounds_the_error_at_the_default_tolerance(
        route, kernel, model, T):
    # two inputs where an estimate rescaled QUADPACK's way came out over
    # ten times too small at rtol 1e-8
    kernel = kernel or model.kernel()
    fn = free_energy_shift if route == "shift" else coupled_free_energy
    value, err = fn(kernel, model, T, rtol=1e-8)
    exact, _ = fn(kernel, model, T, rtol=1e-12)
    assert abs(value - exact) <= 10.0 * err


def test_decoupled_shift_is_exactly_zero():
    # Im D is +0.0 above omega_0 here; the continuous branch of arg D must
    # still be -pi there, not +pi
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    assert free_energy_shift(OhmicKernel(gamma=0.0), model, 1.0) == (0.0, 0.0)
    neutral = ParticleModel(M=1.0, K=1.0, Omega=10.0,
                            constants=DIMENSIONLESS.scale_charge(0.0))
    assert free_energy_shift(neutral.kernel(), neutral, 1.0) == (0.0, 0.0)


def test_unresolvable_line_is_a_quadrature_error():
    # CGS, one gram on a unit spring: the radiative linewidth (~3e-51 of
    # omega_0) is below the float spacing at omega_0, so no node can see it
    k = PhysicalConstants.cgs()
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0, constants=k)
    T = k.hbar * model.omega_0 / k.k_B
    with pytest.raises(QuadratureError, match="linewidth"):
        coupled_free_energy(model.kernel(), model, T, rtol=1e-8)
    # the shift route still works: the shift is negligible beside f(omega_0)
    shift, _ = free_energy_shift(model.kernel(), model, T, rtol=1e-8)
    assert abs(shift) <= 1e-12 * abs(oscillator_free_energy(1.0, T, k))


def test_tolerance_reaches_the_cgs_quadratures():
    # CGS electron: every energy here is far below one erg, so no fixed
    # absolute error floor may decide when the quadrature stops
    k = PhysicalConstants.cgs()
    M = 9.109e-28
    model = ParticleModel(M=M, K=M * 1e30, Omega=1e20, constants=k)
    coarse, err_coarse = free_energy_shift(model.kernel(), model, 300.0,
                                           rtol=1e-8)
    fine, err_fine = free_energy_shift(model.kernel(), model, 300.0,
                                       rtol=1e-13)
    assert err_fine <= 1e-13 * abs(fine)
    assert err_fine < err_coarse
    assert abs(fine - coarse) <= err_coarse + err_fine
    value, err = welton_energy(300.0, M, k, rtol=1e-13)
    assert err <= 1e-13 * value
    assert value == pytest.approx(welton_closed_form(300.0, M, k), rel=1e-13)


def test_curve_shift_property_and_metadata():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.linspace(0.5, 2.0, 6)
    curve = free_energy_curve(kernel, model, temps, use_shift_route=True)
    assert curve.baseline is not None
    assert np.all(np.isfinite(curve.shift))
    assert curve.kernel_meta["variant"] == "ohmic"
    assert curve.model_meta["K"] == 1.0


def test_shift_route_curve_honours_rtol():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.linspace(0.5, 2.0, 4)
    rtol = 1e-6
    curve = free_energy_curve(kernel, model, temps, rtol=rtol,
                              use_shift_route=True)
    for T, err, shift in zip(temps, curve.errors, curve.shift):
        assert (shift, err) == free_energy_shift(kernel, model, T, rtol=rtol)


def test_quadratic_fit_recovers_exact_coefficient():
    temps = np.linspace(0.1, 10.0, 20)
    assert fit_quadratic_coefficient(temps, 3.7 * temps ** 2) == pytest.approx(
        3.7, rel=1e-12)
