"""The spectral record of alpha(z): residues against 80-digit poles, the
blackbody cutoff pole's tau_e term in CGS, and motion's stiff rate."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlebath import (
    OhmicKernel,
    ParticleModel,
    PhysicalConstants,
    SingleRelaxationKernel,
    cli,
    diffusion,
    integrate_third_order,
    zero_force,
)
from qlebath.kernels import ELECTRON_MASS_CGS
from qlebath.response import spectrum

EPS = float(np.finfo(float).eps)
TAU_E = 2.0 / (3.0 * 137.036)   # dimensionless radiation-reaction time, M = 1
CGS = PhysicalConstants.cgs()
# a residue of rates s apart (relative, at most 1) rounds like eps/s^2: D' is
# ~s there and the root ~eps/s off.  Against the 80-digit reference the
# largest error over 1,600 draws near critical damping was 5.5 eps/s^2, and
# over 300 draws of the space below 7 eps.  Rates closer than 5% (the msd
# closed form's rule) are left out.
RESIDUE_UNITS = 20.0


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def blackbody(M, Omega, K, constants=PhysicalConstants.dimensionless()):
    model = ParticleModel(M=M, K=K, Omega=Omega, constants=constants)
    return model.kernel(), model


def particles():
    """(kernel, model): Ohmic, single relaxation, or a causal or acausal
    blackbody cutoff, dimensionless or a CGS electron, free or bound."""
    K = st.just(0.0) | log_uniform(-3, 3)
    M = log_uniform(-1, 1)
    ohmic = st.tuples(log_uniform(-3, 3), M, K).map(lambda p: (
        OhmicKernel(gamma=p[0], mass=p[1]), ParticleModel(M=p[1], K=p[2], Omega=1.0)))
    relaxation = st.tuples(log_uniform(-3, 3), log_uniform(-3, 3), M, K).map(
        lambda p: (SingleRelaxationKernel(gamma=p[0], tau=p[1], mass=p[2]),
                   ParticleModel(M=p[2], K=p[3], Omega=1.0)))
    radiation = st.tuples(M, st.floats(0.01, 1.99), K).map(  # Omega tau_e
        lambda p: blackbody(p[0], p[1] * p[0] / TAU_E, p[2]))
    electron = st.tuples(log_uniform(0, 21), st.just(0.0) | log_uniform(-30, 0)).map(
        lambda p: blackbody(ELECTRON_MASS_CGS, p[0], p[1], CGS))
    return st.one_of(ohmic, relaxation, radiation, electron)


def mp_poles(kernel, m, K, dps=80):
    """(z_k, 1/D'(z_k)) at ``dps`` digits for the float parameters given: the
    roots of D(z) (b0 + b1 z) (of D itself for a decoupled kernel), without
    the zero mode, and D' differentiated by hand."""
    with mpmath.workdps(dps):
        a0, a1, b0, b1 = [mpmath.mpc(complex(c)) for c in kernel.coefficients]
        m, K = mpmath.mpf(m), mpmath.mpf(K)
        coeffs = ([-m, 0, K] if a0 == 0 and a1 == 0 else
                  [-m * b1, -m * b0 - 1j * a1, K * b1 - 1j * a0, K * b0])
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        roots = (mpmath.polyroots(coeffs, maxsteps=500, extraprec=400)
                 if len(coeffs) > 1 else [])

        def Dp(z):
            B = b0 + b1 * z
            return (-2 * m * z - 1j * (a0 + a1 * z) / B
                    - 1j * z * (a1 * b0 - a0 * b1) / (B * B))

        return [(complex(z), 1 / Dp(z)) for z in roots]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(particle=particles())
def test_residues_match_80_digit_poles(particle):
    kernel, model = particle
    spec = spectrum(kernel, model)
    rates = spec.rates
    s = min([abs(a - b) / max(abs(a), abs(b))
             for i, a in enumerate(rates) for b in rates[i + 1:]], default=1.0)
    assume(s >= 0.05)
    reference = mp_poles(kernel, spec.m, model.K)
    assert len(reference) == len(rates)
    for lam, r in zip(rates, spec.residues):
        _, want = min(reference, key=lambda p: abs(p[0] + 1j * lam))
        assert abs(r - want) <= RESIDUE_UNITS * EPS / min(s, 1.0) ** 2 * abs(want)


@pytest.mark.parametrize("Omega", np.geomspace(1.0, 1e21, 22))
def test_cgs_blackbody_tau_e_term(Omega):
    # the cutoff pole lam = Omega M/m lies ~tau_e Omega from the kernel's own
    # pole Omega; its msd term is 2kT tau_e/M (t - (1 - e^{-lam t})/lam)
    kernel, model = blackbody(ELECTRON_MASS_CGS, Omega, 0.0, CGS)
    spec = spectrum(kernel, model)
    kT = CGS.k_B * 300.0
    with mpmath.workdps(30):
        tau_e, M = mpmath.mpf(model.tau_e), mpmath.mpf(model.M)
        lam = mpmath.mpf(Omega) / (1 - tau_e * mpmath.mpf(Omega))
        assert abs(spec.rates[0] - lam) <= 4 * EPS * lam
        times = np.array([1.0, 10.0, 1000.0]) / float(lam)
        got = diffusion._closed_form(spec._replace(c2=0.0), kT, CGS.hbar, times,
                                     quantum=False)[0]
        for t, value in zip(times, got):
            t = mpmath.mpf(t)
            want = 2 * kT * tau_e / M * (t + mpmath.expm1(-lam * t) / lam)
            assert abs(value - want) <= 1e-14 * want


@pytest.mark.parametrize("T", [300.0, 0.0])
def test_cgs_electron_with_a_slow_cutoff_diffuses_cleanly(tmp_path, capsys, T):
    # Omega = 1/s: the cutoff pole rounds onto the kernel's own pole
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "command": "diffusion", "units": "cgs", "T": T,
        "kernel": {"variant": "blackbody"},
        "model": {"M": ELECTRON_MASS_CGS, "K": 0.0, "Omega": 1.0}}))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(omega_tau=st.floats(1e-6, 2.0, exclude_max=True).filter(
    lambda x: abs(x - 1.0) >= 1e-9))
def test_motion_stiff_rate_is_the_cutoff_pole(omega_tau):
    # the cutoff equation's characteristic rate -1/(1/Omega - tau_e) is
    # alpha's pole rate Omega M/m; both round ~eps/|1 - tau_e Omega|
    model = ParticleModel(M=1.0, K=0.0, Omega=omega_tau / TAU_E)
    h = abs(1.0 / model.Omega - model.tau_e)
    traj = integrate_third_order(zero_force(), model, [0.0, h, 2.0 * h],
                                 a0=1.0, variant="cutoff")
    q = math.log(traj.a[1] / traj.a[0]) / h
    (lam,) = spectrum(model.kernel(), model).rates
    assert abs(-q - lam) <= 8.0 * EPS / abs(1.0 - model.tau_e * model.Omega) * abs(lam)
