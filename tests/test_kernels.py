"""Memory-kernel invariants: positive-real structure, symmetry, limits."""

import math

import numpy as np
import pytest

from qlebath import (
    DIMENSIONLESS,
    BlackbodyKernel,
    OhmicKernel,
    PhysicalConstants,
    SingleRelaxationKernel,
    kernel_from_json,
)

ALPHA_FS = 1.0 / 137.036


def sample_kernels():
    return [
        OhmicKernel(gamma=0.7, mass=2.0),
        OhmicKernel(gamma=0.0),
        SingleRelaxationKernel(gamma=0.9, tau=1.3, mass=1.5),
        BlackbodyKernel(Omega=3.0, constants=DIMENSIONLESS, M=1.2),
    ]


def random_upper_half_points(rng, n):
    mag = 10.0 ** rng.uniform(-3.0, 3.0, n)
    phase = rng.uniform(0.05, math.pi - 0.05, n)
    return mag * np.exp(1j * phase)


@pytest.mark.parametrize("kernel", sample_kernels(), ids=lambda k: k.variant)
def test_positive_real_part_in_upper_half_plane(kernel):
    rng = np.random.default_rng(101)
    z = random_upper_half_points(rng, 500)
    vals = kernel.mu_tilde(z)
    assert np.all(vals.real >= -1e-15 * np.abs(vals))


@pytest.mark.parametrize("kernel", sample_kernels(), ids=lambda k: k.variant)
def test_reflection_symmetry(kernel):
    rng = np.random.default_rng(202)
    z = random_upper_half_points(rng, 200)
    left = kernel.mu_tilde(-np.conj(z))
    right = np.conj(kernel.mu_tilde(z))
    assert np.allclose(left, right, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kernel", sample_kernels(), ids=lambda k: k.variant)
def test_real_axis_limit_matches_re_mu(kernel):
    omega = np.geomspace(1e-4, 1e4, 81)
    on_axis = kernel.mu_tilde(omega.astype(complex))
    assert np.allclose(on_axis.real, kernel.re_mu_real_axis(omega),
                       rtol=1e-12, atol=0.0)


def test_blackbody_real_axis_formula_eight_decades():
    k = BlackbodyKernel(Omega=5.0, constants=DIMENSIONLESS, M=1.0)
    omega = np.geomspace(1e-4 * k.Omega, 1e4 * k.Omega, 161)
    # the radiated-power rate times the form factor Omega^2/(omega^2 + Omega^2)
    expected = (k.radiation_coefficient * omega ** 2
                * k.Omega ** 2 / (omega ** 2 + k.Omega ** 2))
    got = k.re_mu_real_axis(omega)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
    # saturates at radiation_coefficient * Omega^2 far above the cutoff
    assert got[-1] == pytest.approx(k.radiation_coefficient * k.Omega ** 2,
                                    rel=1e-7)


def test_blackbody_low_frequency_quadratic():
    k = BlackbodyKernel(Omega=5.0, constants=DIMENSIONLESS, M=1.0)
    w = 1e-6 * k.Omega
    assert k.re_mu_real_axis(w) == pytest.approx(
        k.radiation_coefficient * w ** 2, rel=1e-10)


def test_characteristic_scales():
    assert OhmicKernel(gamma=0.7).scale == 0.7
    assert OhmicKernel(gamma=0.0).scale == 1.0
    assert SingleRelaxationKernel(gamma=0.9, tau=1.3).scale == pytest.approx(0.9)
    assert SingleRelaxationKernel(gamma=0.1, tau=0.2).scale == pytest.approx(5.0)
    assert BlackbodyKernel(Omega=3.0, constants=DIMENSIONLESS).scale == 3.0


def test_single_relaxation_reduces_to_frequency_independent():
    sr = SingleRelaxationKernel(gamma=0.8, tau=1e-9, mass=1.3)
    flat = OhmicKernel(gamma=0.8, mass=1.3)
    z = 0.5 + 0.2j
    assert sr.mu_tilde(z) == pytest.approx(flat.mu_tilde(z), rel=1e-6)


@pytest.mark.parametrize("kernel", sample_kernels(), ids=lambda k: k.variant)
def test_json_round_trip(kernel):
    clone = kernel_from_json(kernel.to_json(), constants=DIMENSIONLESS)
    z = 1.2 + 0.7j
    assert clone.variant == kernel.variant
    assert clone.mu_tilde(z) == kernel.mu_tilde(z)


def test_json_unknown_variant_rejected():
    with pytest.raises(Exception, match="variant"):
        kernel_from_json({"variant": "nope"}, constants=DIMENSIONLESS)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        OhmicKernel(gamma=-1.0)
    with pytest.raises(ValueError):
        OhmicKernel(gamma=1.0, mass=0.0)
    with pytest.raises(ValueError):
        SingleRelaxationKernel(gamma=1.0, tau=0.0)
    with pytest.raises(ValueError):
        BlackbodyKernel(Omega=-2.0, constants=DIMENSIONLESS)


def test_lower_half_plane_rejected():
    for kernel in sample_kernels():
        with pytest.raises(ValueError):
            kernel.mu_tilde(1.0 - 1e-6j)


def test_dimensionless_constants():
    k = DIMENSIONLESS
    assert (k.hbar, k.k_B, k.c) == (1.0, 1.0, 1.0)
    assert k.alpha_fs == pytest.approx(ALPHA_FS, rel=1e-12)


def test_charge_scaling_scales_coupling_quadratically():
    k = DIMENSIONLESS.scale_charge(0.25)
    assert k.alpha_fs == pytest.approx(0.25 * DIMENSIONLESS.alpha_fs, rel=1e-12)
    assert k.e ** 2 == pytest.approx(0.25 * DIMENSIONLESS.e ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        DIMENSIONLESS.scale_charge(-1.0)

