"""Thermodynamics of the coupled oscillator: free energy, T^2 shift, U/S/C.

The free energy is the phase-rate integral (1/pi) int_0^inf kT log(1 -
e^{-hbar omega/kT}) Im{d log alpha/d omega} domega.  With z_k = -i lam_k the
poles of alpha (``response.spectrum``), lam_b the zero of the kernel's
denominator (Omega for blackbody, 1/tau for single relaxation, none for
Ohmic friction) and nu = 2 pi kT/hbar it is, in closed form,

    F0(T) = -kT [sum_k B(lam_k/nu) - B(lam_b/nu)],

with B Binet's function (Ford, Lewis & O'Connell, Phys. Rev. A 37, 4419
(1988)); a runaway pole (Re lam < 0) enters as -B(-lam/nu).  The shift
F0 - f(omega_0, T) pairs each pole with its decoupled position, so it keeps
its digits at weak coupling, where |F0| can exceed it by 10^5.

The naive fluctuating-field energy (``welton_energy``, a Gauss-Laguerre
rule) gives +pi alpha (kT)^2 / (3 m c^2): three times the magnitude of, and
opposite in sign to, the true 3D energy shift obtained by differentiating F0.
Every function of T takes a number or an array of temperatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grid import check_temperatures
# quad and denominator_closure stay importable: perfbench/spans.py patches them
from ._quad import quad  # noqa: F401
from .errors import AcausalModelError, GridError
from .kernels import DIMENSIONLESS, MemoryKernel, PhysicalConstants
from .response import ParticleModel, denominator_closure, spectrum  # noqa: F401

_EPS, _LN2 = float(np.finfo(float).eps), math.log(2.0)
# int_0^inf x/(e^x - 1) dx = pi^2/6 by the n-node Gauss-Laguerre rules,
# sum_i w_i x_i/(1 - e^-x_i): 24 nodes are 1.9e-14 off, 48 nodes 4.3e-14
_BOSE_MOMENT_24, _BOSE_MOMENT_48 = (
    float(w @ (x / -np.expm1(-x)))
    for x, w in map(np.polynomial.laguerre.laggauss, (24, 48)))


def _number_or_array(values: np.ndarray):
    """A 0-d result as a float, any other as the array."""
    return float(values) if values.ndim == 0 else values


def oscillator_free_energy(omega: float, T,
                           constants: PhysicalConstants = DIMENSIONLESS):
    """Free energy kT log(1 - exp(-hbar omega/kT)) of one oscillator mode,
    +0.0 at T = 0 and where e^-x underflows.  log(1 - e^-x) is log(-expm1(-x))
    below x = ln 2 and log1p(-e^-x) above (Maechler, "Accurately computing
    log(1 - exp(-|a|))", 2012).
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    kT = constants.k_B * check_temperatures(T)
    with np.errstate(divide="ignore"):  # x = inf at T = 0
        x = constants.hbar * omega / kT
    log = np.where(x < _LN2, np.log(-np.expm1(-np.minimum(x, _LN2))),
                   np.log1p(-np.exp(-np.maximum(x, _LN2))))
    return _number_or_array(kT * log + 0.0)


def welton_closed_form(T, mass: float,
                       constants: PhysicalConstants = DIMENSIONLESS):
    """pi alpha_fs (kT)^2 / (3 m c^2)."""
    kT = constants.k_B * check_temperatures(T)
    return _number_or_array(
        math.pi * constants.alpha_fs * kT ** 2 / (3.0 * mass * constants.c ** 2))


def welton_energy(T, mass: float, constants: PhysicalConstants = DIMENSIONLESS):
    """Naive 3D thermal energy of a field-driven electron, by quadrature.

    An electron driven in one dimension by a field of amplitude E0 at
    frequency omega stores W = e^2 E0^2 / (4 m omega^2); identifying
    3 E0^2 / 8 pi with the thermal spectral energy density
    u = (hbar omega^3 / pi^2 c^3) / (e^{hbar omega/kT} - 1) gives
    W = (2 pi e^2 / 3 m omega^2) u.  Over all frequencies 3 W integrates to
    (2 e^2 hbar / pi m c^3) (kT/hbar)^2 int_0^inf x/(e^x - 1) dx = pi alpha_fs
    (kT)^2 / (3 m c^2).  Returns (value, error estimate): the 24-node
    Gauss-Laguerre rule and its distance from the 48-node rule.
    """
    if mass <= 0:
        raise ValueError("mass must be > 0")
    k = constants
    w_th = k.k_B * check_temperatures(T) / k.hbar
    scale = 2.0 * k.e ** 2 * k.hbar * w_th ** 2 / (math.pi * mass * k.c ** 3)
    return tuple(_number_or_array(scale * moment) for moment in (
        _BOSE_MOMENT_24, abs(_BOSE_MOMENT_24 - _BOSE_MOMENT_48)))


# Stirling series B(x) ~ sum_k c_k x^(1 - 2k) of Binet's function and
# B'(x) ~ sum_k (1 - 2k) c_k x^(-2k): eight terms reach rounding at |x| >= 12
_STIRLING = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                      -691 / 360360, 1 / 156, -3617 / 122400])
_STIRLING_PRIME = -np.arange(1, 16, 2) * _STIRLING
# 5-node Gauss-Legendre rule on [0, 1]
_GL_T, _GL_W = np.polynomial.legendre.leggauss(5)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W
# the rounding bound of a closed-form value, in units of eps times the size
# of the terms summed (measured against 250-digit mpmath: at most ~6)
_ROUNDING_UNITS = 16.0


def _binet(x):
    """Binet's function B(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2,
    B'(x) = psi(x) - ln x + 1/(2x) and the sizes of the terms summed for
    each, for Re x >= 0, x != 0.  The recurrence B(x) = B(x + 1)
    + (x + 1/2) ln(1 + 1/x) - 1 raises |x| to 12 for the Stirling series,
    its n < 13 steps taken side by side.
    """
    x = np.asarray(x, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # 1/x^2 = 0 past 1e154
        n = np.ceil(np.sqrt(np.maximum(144.0 - x.imag ** 2, 0.0)) - x.real)
        take = np.arange(12) < n[..., None]
        y = x[..., None] + np.arange(12)
        u = np.log1p(1.0 / y)
        v = (y + 0.5) * u
        w = (y + 0.5) / (y * (y + 1.0))
        x = x + np.clip(n, 0, 12)
        w2 = 1.0 / (x * x)
        w2 = np.where(np.isfinite(w2), w2, 0.0)  # complex x^2 overflows to nan
        series = np.polyval(_STIRLING[::-1], w2) / x
        series_p = np.polyval(_STIRLING_PRIME[::-1], w2) * w2
        return (np.where(take, v - 1.0, 0.0).sum(-1) + series,
                np.where(take, u - w, 0.0).sum(-1) + series_p,
                np.where(take, np.abs(v) + 1.0, 0.0).sum(-1) + np.abs(series),
                np.where(take, np.abs(u) + np.abs(w), 0.0).sum(-1)
                + np.abs(series_p))


def _closed_form(kernel: MemoryKernel, model: ParticleModel, T,
                 allow_acausal: bool, shift: bool):
    """F0(T), or with ``shift`` F0(T) - f(omega_0, T), and a rounding bound,
    as arrays shaped as T.  The shift pairs the poles, in order of Im lam,
    with -i omega_0, lam_b and +i omega_0, and takes B(x + d) - B(x) = d
    times a 5-node Gauss-Legendre mean of B' while |d| <= |x|/8.  The bound
    counts eps per unit size of every term summed, and a pole rounded to eps
    in damping and in frequency, times |m|/M for a bare mass m < -M.
    """
    temps = check_temperatures(T)
    if shift and model.K <= 0:
        raise ValueError("shift baseline needs K > 0 (an oscillation frequency)")
    spec = spectrum(kernel, model)
    if spec.m < 0 and not allow_acausal:
        raise AcausalModelError(
            f"cutoff Omega = {model.Omega:.6g} > 1/tau_e = {1.0 / model.tau_e:.6g} "
            "puts a runaway pole in the upper half plane; pass allow_acausal=True "
            "to evaluate the real-axis formulas anyway")
    values, errors = np.zeros(temps.shape), np.zeros(temps.shape)
    hot = temps > 0
    decoupled = not any(kernel.coefficients[:2])  # a0 = a1 = 0: the oscillator
    if decoupled and model.K > 0 and not shift:
        values += oscillator_free_energy(model.omega_0, temps, model.constants)
    if decoupled or not hot.any():
        return values, errors
    kT = model.constants.k_B * temps[hot][:, None]
    nu = 2.0 * math.pi * kT / model.constants.hbar
    lam = np.array(spec.rates, dtype=complex)
    lam = lam[np.argsort(lam.imag, kind="stable")]
    sign = np.where(lam.real < 0.0, -1.0, 1.0)
    lam_b = np.array([] if spec.lam_b is None else [spec.lam_b])
    ref = np.zeros(0)
    if shift:
        w0 = 1j * model.omega_0
        ref = np.array([-w0, *lam_b, w0] if lam.size == 3 else [-w0, w0])
        lam_b = lam_b[:3 - lam.size]  # m = 0: no cutoff pole to pair with
    x, x0 = sign * lam / nu, ref / nu
    d = (sign * lam - ref) / nu if shift else x0  # the difference first
    nodes = x0[..., None] + d[..., None] * _GL_T
    B, Bp, sB, sBp = _binet(np.concatenate(
        [x, x0, lam_b / nu, nodes.reshape(len(kT), -1)], axis=1))
    i, j = lam.size, lam.size + ref.size
    B_x, B_0, B_b, s_x, s_0, s_b = B[:, :i], B[:, i:j], B[:, j:j + lam_b.size], \
        sB[:, :i], sB[:, i:j], sB[:, j:j + lam_b.size]
    Bp_x, Bp_n, sBp_n = Bp[:, :i], Bp[:, j + lam_b.size:], sBp[:, j + lam_b.size:]
    terms = sign * B_x
    pole = (np.abs(x.real * Bp_x.real) + np.abs(x.imag * Bp_x.imag)) \
        * max(1.0, -spec.m / model.M)
    if shift:
        near = (sign > 0.0) & (np.abs(d) <= np.abs(x0) / 8.0)
        terms = np.where(near, d * (Bp_n.reshape(nodes.shape) @ _GL_W),
                         terms - B_0)
        s_x = np.where(near, np.abs(d) * (sBp_n.reshape(nodes.shape) @ _GL_W),
                       s_x + s_0)
    kT = kT[:, 0]
    values[hot] = -kT * (terms.sum(axis=1) - B_b.sum(axis=1)).real
    size = (pole + s_x).sum(axis=1) + s_b.sum(axis=1)
    errors[hot] = _ROUNDING_UNITS * _EPS * kT * size
    return values, errors


def coupled_free_energy(kernel: MemoryKernel, model: ParticleModel, T,
                        *, allow_acausal: bool = False):
    """Free energy F0(T) of the oscillator coupled to the bath, as (value,
    rounding bound)."""
    return tuple(map(_number_or_array, _closed_form(
        kernel, model, T, allow_acausal, shift=False)))


def free_energy_shift(kernel: MemoryKernel, model: ParticleModel, T,
                      *, allow_acausal: bool = False):
    """F0(T) - f(omega_0, T) without cancellation (K > 0), as (value,
    rounding bound)."""
    return tuple(map(_number_or_array, _closed_form(
        kernel, model, T, allow_acausal, shift=True)))


def t2_low_temperature(kernel: MemoryKernel, model: ParticleModel) -> float:
    """The coefficient c of the shift's law c T^2 for kT far below hbar
    times every pole rate (K > 0): B(x) ~ 1/(12 x) gives -(pi k_B^2/6 hbar)
    (sum_k 1/lam_k - 1/lam_b), which is -pi k_B^2 mu(0)/(6 hbar K) by Vieta's
    formulas: -pi gamma k_B^2/(6 hbar omega_0^2) for Ohmic friction, exactly 0
    for the blackbody kernel, whose shift starts at T^4.
    """
    if model.K <= 0:
        raise ValueError("the T^2 law needs K > 0 (an oscillation frequency)")
    k = model.constants
    mu0 = kernel.re_mu_real_axis(0.0)
    return -math.pi * k.k_B ** 2 * mu0 / (6.0 * k.hbar * model.K) + 0.0


def bbr_shift_closed_form(T, model: ParticleModel, dimensions: int = 1):
    """Low-temperature blackbody shift pi alpha_fs (kT)^2 / (9 M c^2).

    Valid in the regime hbar omega_0 << kT << hbar Omega; ``dimensions=3``
    multiplies by 3 (one factor per spatial direction).
    """
    if dimensions not in (1, 3):
        raise ValueError("dimensions must be 1 or 3")
    k = model.constants
    kT = k.k_B * check_temperatures(T)
    val = math.pi * k.alpha_fs * kT ** 2 / (9.0 * model.M * k.c ** 2)
    return _number_or_array(dimensions * val)


@dataclass(frozen=True)
class FreeEnergyCurve:
    """F(T) samples with optional decoupled baseline and rounding bounds.

    ``raw_shift`` holds F - baseline as the shift route computed it, before
    the baseline was added back; at weak coupling it is far more accurate
    than the difference of the two large numbers.
    """

    temperatures: np.ndarray
    values: np.ndarray
    baseline: np.ndarray | None = None
    errors: np.ndarray | None = None
    raw_shift: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("temperatures and values must be equal-length 1D arrays")
        if len(t) >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("temperatures must be strictly increasing")
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "values", v)
        for name in ("baseline", "errors", "raw_shift"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != t.shape:
                    raise ValueError(f"{name} must match temperatures in shape")
                object.__setattr__(self, name, arr)

    @property
    def shift(self) -> np.ndarray:
        """raw_shift if recorded, else values - baseline (zero if none)."""
        if self.raw_shift is not None:
            return self.raw_shift.copy()
        if self.baseline is None:
            return self.values.copy()
        return self.values - self.baseline


def free_energy_curve(kernel: MemoryKernel, model: ParticleModel,
                      temperatures, *, allow_acausal: bool = False,
                      use_shift_route: bool = False) -> FreeEnergyCurve:
    """Sample F0(T) on a grid, every temperature in one closed-form pass.

    With ``use_shift_route`` the cancellation-free shift is evaluated (kept
    as ``raw_shift``) and the decoupled baseline f(omega_0, T) added back,
    which is the accurate choice at weak coupling.
    """
    temps = check_temperatures(temperatures)
    base = (oscillator_free_energy(model.omega_0, temps, model.constants)
            if model.K > 0 else np.zeros(temps.shape))
    vals, errs = _closed_form(kernel, model, temps, allow_acausal, use_shift_route)
    if use_shift_route:
        return FreeEnergyCurve(temps, base + vals, base, errs, raw_shift=vals)
    return FreeEnergyCurve(temps, vals, base, errs)


def thermo_derivatives(curve: FreeEnergyCurve, rtol: float = 1e-3) -> dict:
    """Entropy S = -dF/dT, energy U = F + TS, specific heat C = dU/dT.

    Central differences on the grid; a coarsened-grid Richardson comparison
    guards against under-resolved curves (raises GridError).  For a pure-T^2
    free energy the differences are exact and U = -F pointwise.
    """
    T, F = curve.temperatures, curve.values
    if len(T) < 5:
        raise GridError("grid too coarse: need at least 5 temperature points")
    S = -np.gradient(F, T, edge_order=2)
    U = F + T * S
    C = np.gradient(U, T, edge_order=2)

    S_coarse = -np.gradient(F[::2], T[::2], edge_order=2)
    est = np.abs(S[::2][1:-1] - S_coarse[1:-1]) / 3.0
    scale = np.max(np.abs(S)) + np.finfo(float).tiny
    worst = float(np.max(est)) if est.size else 0.0
    if worst > rtol * scale:
        raise GridError(
            f"grid too coarse: Richardson derivative estimate {worst:.3e} exceeds "
            f"{rtol:g} of the entropy scale {scale:.3e}"
        )
    return {"T": T.copy(), "U": U, "S": S, "C": C}


def fit_quadratic_coefficient(temperatures, values) -> float:
    """Least-squares c minimizing |values - c T^2|^2 (one-parameter fit)."""
    t = np.asarray(temperatures, dtype=float)
    v = np.asarray(values, dtype=float)
    t2 = t ** 2
    denom = float(np.sum(t2 * t2))
    if denom == 0.0:
        raise ValueError("temperature grid has no nonzero points")
    return float(np.sum(v * t2) / denom)
