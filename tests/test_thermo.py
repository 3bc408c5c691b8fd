"""Free energies against closed forms, reference quadratures and textbook
oscillator values."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SingleRelaxationKernel,
    oscillator_free_energy,
    thermo_derivatives,
    welton_closed_form,
    welton_energy,
)
from qlebath._quad import quad
from qlebath.response import decay_rates, denominator_closure, mass_for_kernel
from qlebath.thermo import _binet, t2_low_temperature

# kT ln(1 - e^{-1}): single oscillator at hbar omega / kT = 1
LOG_ONE_MINUS_INV_E = math.log(1.0 - math.exp(-1.0))
EPS = float(np.finfo(float).eps)


# ---- reference quadratures -------------------------------------------------
# The two real-axis integrals the closed forms replace, kept as independent
# references.  The phase-rate route
#     F0(T) = (1/pi) int_0^inf f(omega, T) Im{-D'(omega)/D(omega)} domega,
# f = kT log(1 - exp(-hbar omega/kT)), and the shift route
#     F0 - f(omega_0, T) = (1/pi) int_0^inf w(omega, T)
#                          [arg D(omega) + pi H(omega - omega_0)] domega,
# w = hbar/(exp(hbar omega/kT) - 1), arg D on its branch in (-pi, 0).  Each
# returns (value, error estimate): the panels' summed |K21 - G10| plus a bound
# on the rounding of D at the line.

def _bose(x):
    return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))


def _log1mexp(x):
    """log(1 - e^-x) of a positive array, accurate at both ends."""
    ln2 = math.log(2.0)
    return np.where(x < ln2, np.log(-np.expm1(-x)),
                    np.log1p(-np.exp(-np.maximum(x, ln2))))


def _resonance(D_Dp, w0, gamma_w):
    """Centre (Newton on Re D from w0) and full width 2 |Im D / Re D'| of
    the line near w0; (w0, gamma_w) when Newton leaves (w0/2, 2 w0)."""
    w = w0
    for _ in range(20):
        D, Dp = D_Dp(w)
        if Dp.real == 0.0 or not 0.5 * w0 < w < 2.0 * w0:
            break
        step = D.real / Dp.real
        if abs(step) <= 1e-13 * w:
            return w, 2.0 * abs(D.imag / Dp.real)
        w -= step
    return w0, gamma_w


def _resonance_points(w0, w_r, width, w_th):
    """Breakpoints graded by decades of distance from the line at w_r, and
    by decades of omega from 10 w0 up to 30 w_th."""
    pts = {w0, w_r, 20.0 * w0}
    d = max(width, 1e-15 * w_r)
    while d < 10.0 * w_r:
        pts |= {max(w_r - d, 0.5 * w_r), w_r + d}
        d *= 10.0
    w = 10.0 * w0
    while w < 30.0 * w_th:
        pts.add(w)
        w *= 10.0
    return pts


def reference_free_energy(kernel, model, T, rtol=1e-10):
    """F0(T) by the phase-rate quadrature; QuadratureError for a line
    narrower than the float spacing at its centre."""
    D_Dp = denominator_closure(kernel, model)
    k = model.constants
    kT = k.k_B * T
    w_th = kT / k.hbar
    cut = 746.0 * w_th  # f is exactly 0 beyond
    pts = {0.0, 30.0 * w_th, kernel.scale}
    if model.K > 0:
        w0 = model.omega_0
        w_r, width = _resonance(D_Dp, w0, kernel.re_mu_real_axis(w0) / model.M)
        if w_r - width == w_r or w_r + width == w_r:
            raise QuadratureError(f"linewidth {width:.3g} is below the "
                                  f"float resolution at omega = {w_r:.6g}")
        pts |= _resonance_points(w0, w_r, width, w_th)
    pts = sorted(p for p in pts if 0.0 <= p < cut) + [cut]
    w1 = pts[1]

    def integrand(u):
        # omega = w1 (u/w1)^4 on [0, w1] smooths the log singularity of f
        first = u < w1
        r = u / w1
        om = np.where(first, w1 * r ** 4, u)
        f = _log1mexp(k.hbar * om / kT) * kT
        f *= np.where(first, 4.0 * r ** 3, 1.0)
        D, Dp = D_Dp(om)
        return -f * (Dp / D).imag / math.pi

    rounding = 0.0
    if model.K > 0:
        # D = K - m w^2 + w f(w) cancels at the line down to its imaginary
        # part, so the integrand there is good to eps (its terms) / |D|
        m = mass_for_kernel(kernel, model)
        D, _ = D_Dp(w_r)
        size = model.K + abs(m) * w_r * w_r + abs(D - (model.K - m * w_r * w_r))
        rounding = EPS * size / abs(D) * abs(oscillator_free_energy(w_r, T, k))
    value, err, _ = quad(integrand, pts, epsabs=rounding, epsrel=rtol)
    return value, err + rounding


def reference_shift(kernel, model, T, rtol=1e-11):
    """F0(T) - f(omega_0, T) by the integration-by-parts quadrature."""
    D_Dp = denominator_closure(kernel, model)
    k = model.constants
    kT = k.k_B * T
    w_th = kT / k.hbar
    w0 = model.omega_0

    def integrand(om):
        D, _ = D_Dp(om)
        # the branch in [-pi, 0] of Im D <= 0, also where Im D is +0.0
        psi = np.arctan2(-np.abs(D.imag), D.real) + np.where(om > w0, math.pi, 0.0)
        return k.hbar * _bose(k.hbar * om / kT) * psi / math.pi

    w_r, width = _resonance(D_Dp, w0, kernel.re_mu_real_axis(w0) / model.M)
    pts = sorted({0.0, 30.0 * w_th, kernel.scale}
                 | _resonance_points(w0, w_r, width, w_th))
    cut = 800.0 * w_th  # the Bose weight is exactly 0 beyond
    if cut > pts[-1]:
        pts.append(cut)
    # arg D steps by -pi across the line, placed only to within eps w_r
    rounding = EPS * w_r * k.hbar * float(_bose(k.hbar * w_r / kT))
    return quad(integrand, pts, epsabs=rounding, epsrel=rtol)[:2]


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
        total, err_total = coupled_free_energy(kernel, model, T)
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
    loose, err_loose = reference_free_energy(kernel, model, 1.0, rtol=1e-6)
    tight, _ = reference_free_energy(kernel, model, 1.0, rtol=1e-12)
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
    fn = reference_shift if route == "shift" else reference_free_energy
    value, err = fn(kernel, model, T, rtol=1e-8)
    exact, _ = fn(kernel, model, T, rtol=1e-12)
    assert abs(value - exact) <= 10.0 * err
    closed, closed_err = (free_energy_shift if route == "shift"
                          else coupled_free_energy)(kernel, model, T)
    assert abs(closed - exact) <= 10.0 * err + closed_err

def test_decoupled_shift_is_exactly_zero():
    # Im D is +0.0 above omega_0 here; the continuous branch of arg D must
    # still be -pi there, not +pi
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    assert free_energy_shift(OhmicKernel(gamma=0.0), model, 1.0) == (0.0, 0.0)
    neutral = ParticleModel(M=1.0, K=1.0, Omega=10.0,
                            constants=DIMENSIONLESS.scale_charge(0.0))
    assert free_energy_shift(neutral.kernel(), neutral, 1.0) == (0.0, 0.0)


def test_line_below_the_float_resolution_has_a_closed_form():
    # CGS, one gram on a unit spring: the radiative linewidth (~3e-51 of
    # omega_0) is below the float spacing at omega_0, so no quadrature node
    # can see it; the poles carry it
    k = PhysicalConstants.cgs()
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0, constants=k)
    kernel = model.kernel()
    T = k.hbar * model.omega_0 / k.k_B
    with pytest.raises(QuadratureError, match="linewidth"):
        reference_free_energy(kernel, model, T, rtol=1e-8)
    # the half width tau_e omega_0^2 Omega^2 / (2 (omega_0^2 + Omega^2))
    damping = max(lam.real for lam in map(complex, decay_rates(kernel, model))
                  if lam.imag)
    assert damping == pytest.approx(model.tau_e / 4.0, rel=1e-12, abs=0.0)
    F, err = coupled_free_energy(kernel, model, T)
    shift, err_shift = free_energy_shift(kernel, model, T)
    baseline = oscillator_free_energy(1.0, T, k)
    assert abs(F - (baseline + shift)) <= err + err_shift + EPS * abs(baseline)
    ref, ref_err = reference_shift(kernel, model, T, rtol=1e-8)
    assert abs(shift - ref) <= err_shift + ref_err
    assert abs(shift) <= 1e-12 * abs(baseline)


def test_narrow_relaxation_line_has_a_closed_form():
    # Gamma/omega_0 ~ 2e-10: D cancels at the line down to its imaginary
    # part, so the phase-rate quadrature stops at a rounding floor ~3e-6 of
    # F0 (nearby inputs exhaust its panels at rtol 1e-8 instead)
    kernel = SingleRelaxationKernel(gamma=1.98e-4, tau=1.41, mass=0.0288)
    model = ParticleModel(M=0.0288, K=211.0, Omega=1.0)
    T = model.omega_0 / 8.37
    F, err = coupled_free_energy(kernel, model, T)
    ref_F, ref_F_err = reference_free_energy(kernel, model, T, rtol=1e-8)
    assert ref_F_err > 1e-6 * abs(ref_F)
    assert err <= 1e-8 * abs(F)
    assert abs(F - ref_F) <= err + ref_F_err
    shift, err_shift = free_energy_shift(kernel, model, T)
    baseline = oscillator_free_energy(model.omega_0, T)
    assert abs(F - (baseline + shift)) <= err + err_shift + EPS * abs(baseline)
    ref, ref_err = reference_shift(kernel, model, T)
    assert abs(shift - ref) <= err_shift + ref_err


def test_tolerance_reaches_the_cgs_quadratures():
    # CGS electron: every energy here is far below one erg, so no fixed
    # absolute error floor may decide when the quadrature stops
    k = PhysicalConstants.cgs()
    M = 9.109e-28
    model = ParticleModel(M=M, K=M * 1e30, Omega=1e20, constants=k)
    coarse, err_coarse = reference_shift(model.kernel(), model, 300.0,
                                         rtol=1e-8)
    fine, err_fine = reference_shift(model.kernel(), model, 300.0,
                                     rtol=1e-13)
    assert err_fine <= 1e-13 * abs(fine)
    assert err_fine < err_coarse
    assert abs(fine - coarse) <= err_coarse + err_fine
    closed, err_closed = free_energy_shift(model.kernel(), model, 300.0)
    assert abs(closed - fine) <= err_closed + err_fine
    value, err = welton_energy(300.0, M, k)
    assert err <= 1e-13 * value
    assert value == pytest.approx(welton_closed_form(300.0, M, k), rel=1e-13,
                                  abs=0.0)


def test_curve_shift_property_and_metadata():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.linspace(0.5, 2.0, 6)
    curve = free_energy_curve(kernel, model, temps, use_shift_route=True)
    assert curve.baseline is not None
    assert np.all(np.isfinite(curve.shift))


def test_shift_route_curve_matches_the_pointwise_shift():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.linspace(0.5, 2.0, 4)
    rtol = 1e-6   # of the reference quadrature
    curve = free_energy_curve(kernel, model, temps, use_shift_route=True)
    for T, err, shift in zip(temps, curve.errors, curve.shift):
        assert (shift, err) == free_energy_shift(kernel, model, T)
        ref, ref_err = reference_shift(kernel, model, T, rtol=rtol)
        assert ref_err <= rtol * abs(ref)
        assert abs(shift - ref) <= err + ref_err


def test_a_positional_argument_after_T_is_a_type_error():
    # allow_acausal is keyword-only: an old positional rtol must not turn
    # it on
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    for fn in (coupled_free_energy, free_energy_shift):
        with pytest.raises(TypeError):
            fn(kernel, model, 1.0, 1e-8)
    with pytest.raises(TypeError):
        free_energy_curve(kernel, model, [1.0, 2.0], 1e-8)


def test_quadratic_fit_recovers_exact_coefficient():
    temps = np.linspace(0.1, 10.0, 20)
    assert fit_quadratic_coefficient(temps, 3.7 * temps ** 2) == pytest.approx(
        3.7, rel=1e-12)


def test_binet_matches_mpmath():
    # B(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 and B' on both
    # sides of the recurrence's switch at |x| = 12, near 0 and near the
    # imaginary axis
    mags = np.geomspace(1e-6, 1e6, 37)
    x = np.concatenate([mags, mags * np.exp(0.7j), mags * np.exp(1.5j),
                        1j * mags, [11.9, 12.1, 0.5 + 11.99j]])
    B, Bp, size, size_p = _binet(x)
    with mpmath.workdps(40):
        for xi, b, bp, s, sp in zip(x, B, Bp, size, size_p):
            z = mpmath.mpc(xi)
            want = (mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z
                    - mpmath.log(2 * mpmath.pi) / 2)
            want_p = mpmath.digamma(z) - mpmath.log(z) + 1 / (2 * z)
            assert abs(b - want) <= 4 * EPS * s, xi
            assert abs(bp - want_p) <= 4 * EPS * sp, xi


def test_t2_low_temperature_coefficients():
    k = DIMENSIONLESS
    gamma, M, K = 0.03, 2.0, 0.5
    model = ParticleModel(M=M, K=K, Omega=1.0)
    w0 = model.omega_0
    c = t2_low_temperature(OhmicKernel(gamma=gamma, mass=M), model)
    assert c == pytest.approx(-math.pi * gamma * k.k_B ** 2
                              / (6.0 * k.hbar * w0 ** 2), rel=1e-14)
    # and it is the shift's low-temperature law
    T = 1e-3 * w0
    shift, _ = free_energy_shift(OhmicKernel(gamma=gamma, mass=M), model, T)
    assert shift == pytest.approx(c * T ** 2, rel=1e-3, abs=0.0)
    # blackbody: sum_k 1/lam_k = 1/Omega exactly, so the T^2 term vanishes
    bb = ParticleModel(M=1.0, K=1.0, Omega=30.0)
    assert t2_low_temperature(bb.kernel(), bb) == 0.0
    cgs = ParticleModel(M=9.109e-28, K=9.109e2, Omega=1e20,
                        constants=PhysicalConstants.cgs())
    assert t2_low_temperature(cgs.kernel(), cgs) == 0.0


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def thermal_cases(draw):
    """(kernel, model, T, allow_acausal): every kernel family, Gamma/omega_0
    down to 1e-10, CGS blackbody models and acausal cutoffs."""
    family = draw(st.sampled_from(["ohmic", "single_relaxation", "blackbody",
                                   "cgs", "acausal"]))
    if family in ("ohmic", "single_relaxation"):
        M, w0 = draw(_log_uniform(-2, 2)), draw(_log_uniform(-2, 2))
        gamma = w0 * draw(_log_uniform(-10, 0.3))
        kernel = (OhmicKernel(gamma=gamma, mass=M) if family == "ohmic" else
                  SingleRelaxationKernel(gamma=gamma, mass=M,
                                         tau=draw(_log_uniform(-2, 2)) / w0))
        model = ParticleModel(M=M, K=M * w0 ** 2, Omega=1.0)
    else:
        k = PhysicalConstants.cgs() if family == "cgs" else DIMENSIONLESS
        M = (draw(_log_uniform(-27.5, 0.5)) if family == "cgs"
             else draw(_log_uniform(-1, 1)))
        tau_e = ParticleModel(M=M, K=1.0, Omega=1.0, constants=k).tau_e
        ratio = (draw(_log_uniform(0.01, 2)) if family == "acausal"
                 else draw(_log_uniform(-6, -0.01)))
        Omega = ratio / tau_e
        w0 = (draw(_log_uniform(10, 16)) if family == "cgs"
              else Omega * draw(_log_uniform(-5, 0.5)))
        model = ParticleModel(M=M, K=M * w0 ** 2, Omega=Omega, constants=k)
        kernel = model.kernel()
    k = model.constants
    T = k.hbar * model.omega_0 / (k.k_B * draw(_log_uniform(-1.5, 1.5)))
    return kernel, model, T, family == "acausal"


# few examples: each draws two adaptive quadratures
THERMO_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@THERMO_SETTINGS
@given(case=thermal_cases())
def test_closed_forms_match_both_reference_quadratures(case):
    kernel, model, T, acausal = case
    F, err = coupled_free_energy(kernel, model, T, allow_acausal=acausal)
    shift, err_shift = free_energy_shift(kernel, model, T, allow_acausal=acausal)
    ref, ref_err = reference_shift(kernel, model, T)
    assert abs(shift - ref) <= err_shift + ref_err
    baseline = oscillator_free_energy(model.omega_0, T, model.constants)
    assert abs(F - (baseline + shift)) <= err + err_shift + 4 * EPS * abs(baseline)
    try:
        ref_F, ref_F_err = reference_free_energy(kernel, model, T)
    except QuadratureError:
        # the direct route's reach ends at narrow lines: rounding in D at
        # the line, or a line below the float spacing at its centre
        width = kernel.re_mu_real_axis(model.omega_0) / model.M
        assert width < 1e-6 * model.omega_0
        return
    assert abs(F - ref_F) <= err + ref_F_err


@pytest.mark.parametrize("gamma", [1e-4, 1e-7, 1e-9, 1e-10])
def test_weak_coupling_shift_keeps_its_digits(gamma):
    # Subtracting the decoupled baseline from F0 would leave ~eps |F0| of
    # error, 1e-6 of this shift at gamma = 1e-10.  What the pairing leaves
    # is the rounding of the line's frequency sqrt(1 - gamma^2/4), which
    # moves the shift by hbar n(omega_0) per unit of frequency.
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    kernel = OhmicKernel(gamma=gamma)
    shift, err = free_energy_shift(kernel, model, 1.0)
    freq = max(complex(lam).imag for lam in decay_rates(kernel, model))
    with mpmath.workdps(50):
        nu = 2 * mpmath.pi
        lam = gamma / 2 + 1j * mpmath.sqrt(1 - mpmath.mpf(gamma) ** 2 / 4)

        def binet(x):
            return (mpmath.loggamma(x) - (x - 0.5) * mpmath.log(x) + x
                    - mpmath.log(2 * mpmath.pi) / 2)

        exact = -2 * (binet(lam / nu) - binet(1j / nu)).real
        rounding = abs(freq - lam.imag) / mpmath.expm1(1)
    assert abs(shift - exact) <= 1e-12 * abs(exact) + 2 * rounding
    assert abs(shift - exact) <= err


def test_oscillator_free_energy_keeps_every_digit_of_log_one_minus_exp():
    # kT = 1, so x = hbar omega/kT is omega exactly; log1p(-exp(-x)) alone
    # loses ~eps/x at small x (1.1e-12 relative at x = 1e-6)
    xs = np.concatenate([np.geomspace(1e-8, 700.0, 301), [math.log(2.0)]])
    values = [oscillator_free_energy(x, 1.0) for x in xs]
    with mpmath.workdps(40):
        for x, value in zip(xs, values):
            exact = mpmath.log1p(-mpmath.exp(-mpmath.mpf(x)))
            assert abs(value - exact) <= 4e-16 * abs(exact), x


def test_oscillator_free_energy_of_an_array_is_the_array_of_its_values():
    temps = np.array([0.0, 1e-3, 0.5, 2.0, 1e6])
    values = oscillator_free_energy(1.5, temps)
    assert isinstance(values, np.ndarray) and values.shape == temps.shape
    for T, value in zip(temps, values):
        single = oscillator_free_energy(1.5, T)
        assert type(single) is float and single == value
    # +0.0, not -0.0, where e^-x underflows and at T = 0: the CSV writes repr
    assert repr(oscillator_free_energy(1.5, 1e-3)) == "0.0"
    assert repr(oscillator_free_energy(1.5, 0.0)) == "0.0"


def test_every_closed_form_of_an_array_matches_its_pointwise_values():
    kernel = OhmicKernel(gamma=0.1)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.array([[0.0, 0.3], [1.0, 4.0]])
    for fn in (coupled_free_energy, free_energy_shift):
        values, errors = fn(kernel, model, temps)
        assert values.shape == errors.shape == temps.shape
        for T, value, error in zip(temps.flat, values.flat, errors.flat):
            assert fn(kernel, model, T) == (value, error)
    for fn in (lambda T: welton_closed_form(T, 2.0),
               lambda T: bbr_shift_closed_form(T, model, 3),
               lambda T: welton_energy(T, 2.0)[0]):
        values = fn(temps)
        assert [fn(T) for T in temps.flat] == list(values.flat)


@pytest.mark.parametrize("constants, mass", [
    (DIMENSIONLESS, 1.0), (PhysicalConstants.cgs(), 9.1093837015e-28)],
    ids=["dimensionless", "cgs-electron"])
def test_welton_error_estimate_bounds_the_error_on_the_whole_grid(constants,
                                                                   mass):
    temps = (np.geomspace(1e-3, 1e3, 61) if constants is DIMENSIONLESS
             else np.append(np.geomspace(1.0, 1e5, 60), 300.0))
    values, errors = welton_energy(temps, mass, constants)
    closed = welton_closed_form(temps, mass, constants)
    assert np.all(np.abs(values - closed) <= errors)
    assert np.max(np.abs(values - closed) / closed) <= 1e-13
    # the estimate is the 24- against the 48-node rule: ~6e-14 relative
    assert np.all(errors <= 1e-13 * values)
    assert welton_energy(0.0, mass, constants) == (0.0, 0.0)


def test_welton_energy_has_no_tolerance_to_set():
    with pytest.raises(TypeError):
        welton_energy(1.0, 1.0, DIMENSIONLESS, rtol=1e-8)


def test_a_cutoff_far_above_every_other_rate_leaves_the_ohmic_shift():
    # single relaxation with tau = 1e-300: the cubic's outer root is 1e300,
    # past where its cube overflows, and B(x) ~ 1/(12 x) there
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    temps = np.array([0.1, 0.5, 1.0, 4.0])
    relaxed = free_energy_shift(SingleRelaxationKernel(gamma=1.0, tau=1e-300),
                                model, temps)
    ohmic = free_energy_shift(OhmicKernel(gamma=1.0), model, temps)
    assert np.array_equal(relaxed[0], ohmic[0])
    assert np.all(relaxed[1] <= 2.0 * ohmic[1])
