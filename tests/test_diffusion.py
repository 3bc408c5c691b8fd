"""Mean-square displacement quadratures against the exact memoryless answer."""

import math

import numpy as np
import pytest

from qlebath import (
    AcausalModelError,
    GridError,
    OhmicKernel,
    ParticleModel,
    msd,
    msd_curve,
    regime_tag,
    report_from_curve,
)


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
