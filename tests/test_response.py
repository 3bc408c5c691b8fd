"""Susceptibility structure: reality, poles, causality, mass bookkeeping."""

import math
import warnings

import numpy as np
import pytest

from qlebath import (
    DIMENSIONLESS,
    AcausalCutoffWarning,
    OhmicKernel,
    ParticleModel,
    PhysicalConstants,
    PoleEvaluationError,
    SingleRelaxationKernel,
    bare_mass,
    denominator_closure,
    poles_and_causality,
    susceptibility,
)
from qlebath.kernels import ELECTRON_MASS_CGS


def random_upper_half_points(rng, n):
    mag = 10.0 ** rng.uniform(-2.0, 2.0, n)
    phase = rng.uniform(0.05, math.pi - 0.05, n)
    return mag * np.exp(1j * phase)


def test_reality_symmetry_ohmic_and_blackbody():
    rng = np.random.default_rng(37)
    z = random_upper_half_points(rng, 200)
    cases = [
        (OhmicKernel(gamma=0.3), ParticleModel(M=1.0, K=2.0, Omega=1.0)),
        (None, ParticleModel(M=1.0, K=1.0, Omega=50.0)),
    ]
    for kernel, model in cases:
        if kernel is None:
            kernel = model.kernel()
        left = susceptibility(kernel, model, -np.conj(z))
        right = np.conj(susceptibility(kernel, model, z))
        assert np.allclose(left, right, rtol=1e-12, atol=0.0)


def test_static_response_is_inverse_stiffness():
    model = ParticleModel(M=1.0, K=3.5, Omega=1.0)
    kernel = OhmicKernel(gamma=0.4)
    assert susceptibility(kernel, model, 0.0) == pytest.approx(1.0 / 3.5)


def test_causality_dichotomy_random_cutoffs():
    rng = np.random.default_rng(12345)
    tau_e = ParticleModel(M=1.0, K=1.0, Omega=1.0).tau_e
    for _ in range(50):
        u = rng.uniform(0.05, 0.99)
        model = ParticleModel(M=1.0, K=1.0, Omega=u / tau_e)
        assert model.is_causal
        assert poles_and_causality(model.kernel(), model).causal
    for _ in range(50):
        u = rng.uniform(1.01, 10.0)
        model = ParticleModel(M=1.0, K=1.0, Omega=u / tau_e)
        assert not model.is_causal
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AcausalCutoffWarning)
            report = poles_and_causality(model.kernel(), model)
        assert not report.causal
        assert report.max_im > 0


def test_poles_are_denominator_roots():
    model = ParticleModel(M=1.0, K=1.0, Omega=20.0)
    kernel = model.kernel()
    report = poles_and_causality(kernel, model)
    assert len(report.poles) == 3
    coeff_scale = model.M + model.K
    for z in report.poles:
        # the denominator with the cutoff factor cleared is a polynomial
        # whose value at each reported root must be far below its size
        p = (-model.m_bare * z ** 2 * (z + 1j * kernel.Omega)
             - 1j * z * kernel.radiation_coefficient * kernel.Omega ** 2 * z
             + model.K * (z + 1j * kernel.Omega))
        size = (abs(model.m_bare) * abs(z) ** 2 * (abs(z) + kernel.Omega)
                + abs(z) ** 2 * kernel.radiation_coefficient * kernel.Omega ** 2
                + model.K * (abs(z) + kernel.Omega))
        assert abs(p) <= 1e-9 * size


def test_pole_report_json_shape():
    model = ParticleModel(M=1.0, K=1.0, Omega=20.0)
    data = poles_and_causality(model.kernel(), model).to_json()
    assert set(data) >= {"poles", "causal", "max_im", "marginal"}
    assert data["causal"] is True


def test_marginal_decoupled_oscillator():
    kernel = OhmicKernel(gamma=0.0)
    model = ParticleModel(M=1.0, K=4.0, Omega=1.0)
    report = poles_and_causality(kernel, model)
    assert report.marginal
    assert sorted(z.real for z in report.poles) == pytest.approx([-2.0, 2.0],
                                                                 abs=1e-9)
    assert max(abs(z.imag) for z in report.poles) < 1e-9


def test_susceptibility_at_pole_raises():
    kernel = OhmicKernel(gamma=0.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    with pytest.raises(PoleEvaluationError):
        susceptibility(kernel, model, 1.0)


def renormalize_mass(m_bare, Omega, constants):
    """Reference observed mass M = m + (2 e^2 / 3 c^3) Omega."""
    return m_bare + (2.0 * constants.e ** 2 / (3.0 * constants.c ** 3)) * Omega


def test_mass_renormalization_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = 10.0 ** rng.uniform(-2, 2)
        Omega = 10.0 ** rng.uniform(-1, 3)
        M = renormalize_mass(m, Omega, DIMENSIONLESS)
        assert M > m
        assert bare_mass(M, Omega, DIMENSIONLESS) == pytest.approx(m, rel=1e-12)


def test_point_limit_has_zero_bare_mass():
    model = ParticleModel.point_limit(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AcausalCutoffWarning)
        assert abs(model.m_bare) < 1e-12
    assert model.Omega * model.tau_e == pytest.approx(1.0, rel=1e-12)


def test_acausal_cutoff_warns_on_negative_bare_mass():
    tau_e = ParticleModel(M=1.0, K=1.0, Omega=1.0).tau_e
    model = ParticleModel(M=1.0, K=1.0, Omega=2.0 / tau_e)
    with pytest.warns(AcausalCutoffWarning):
        assert model.m_bare < 0


def test_cgs_electron_radiation_time():
    model = ParticleModel(M=ELECTRON_MASS_CGS, K=1.0, Omega=1.0,
                          constants=PhysicalConstants.cgs())
    assert model.tau_e == pytest.approx(6.26e-24, rel=5e-3)
    assert 1.0 / model.tau_e == pytest.approx(1.60e23, rel=5e-3)


def reference_D_Dp(kernel, model, z):
    """D(z) and D'(z) written out by hand for each kernel family."""
    K = model.K
    if isinstance(kernel, OhmicKernel):
        m, g = kernel.mass, kernel.mass * kernel.gamma
        return K - m * z * z - 1j * g * z, -2.0 * m * z - 1j * g
    if isinstance(kernel, SingleRelaxationKernel):
        m, g = kernel.mass, kernel.mass * kernel.gamma
        den = 1.0 - 1j * z * kernel.tau
        return (K - m * z * z - 1j * z * g / den,
                -2.0 * m * z - 1j * g / (den * den))
    m, Om = model.m_bare, kernel.Omega
    C = kernel.radiation_coefficient * Om ** 2
    den = z + 1j * Om
    return (K - m * z * z - 1j * C * z * z / den,
            -2.0 * m * z - 1j * C * z * (z + 2j * Om) / (den * den))


def test_closure_matches_pointwise_denominator():
    # the closure comes from the kernel's coefficients, so the independent
    # reference is the per-family form above
    cases = [
        (OhmicKernel(gamma=0.4, mass=1.5), ParticleModel(M=1.5, K=2.0, Omega=1.0)),
        (SingleRelaxationKernel(gamma=0.7, tau=0.3, mass=0.8),
         ParticleModel(M=0.8, K=1.3, Omega=1.0)),
        (None, ParticleModel(M=1.0, K=1.0, Omega=30.0)),
    ]
    rng = np.random.default_rng(55)
    for kernel, model in cases:
        if kernel is None:
            kernel = model.kernel()
        closure = denominator_closure(kernel, model)
        for w in 10.0 ** rng.uniform(-3, 3, 25):
            d, dp = closure(w)
            d_ref, dp_ref = reference_D_Dp(kernel, model, w)
            assert d == pytest.approx(d_ref, rel=1e-12)
            assert dp == pytest.approx(dp_ref, rel=1e-12)
        z = np.concatenate([10.0 ** rng.uniform(-3, 3, 25),
                            random_upper_half_points(rng, 25)])
        d_ref, dp_ref = reference_D_Dp(kernel, model, z)
        d, dp = closure(z)
        assert np.allclose(d, d_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(dp, dp_ref, rtol=1e-12, atol=0.0)


def test_resonance_peak_dominates_off_resonance():
    kernel = OhmicKernel(gamma=0.01)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    on = abs(susceptibility(kernel, model, 1.0))
    off = abs(susceptibility(kernel, model, 2.0))
    assert on > 50 * off
