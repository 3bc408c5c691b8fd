"""Thermodynamics of the coupled oscillator: free energy, T^2 shift, U/S/C.

Two routes to the free energy are provided.

``coupled_free_energy`` integrates the phase-rate formula directly:

    F0(T) = (1/pi) int_0^inf f(omega, T) Im{ d log alpha / d omega } domega,

with f(omega, T) = kT log(1 - exp(-hbar omega / kT)) and the log-derivative
taken in closed form as -D'(omega)/D(omega).

``free_energy_shift`` computes F0(T) - f(omega_0, T) *without* cancellation,
using the exact integration-by-parts identity

    shift = (1/pi) int_0^inf w(omega, T) [arg D(omega) + pi H(omega - omega_0)] domega,

where w = hbar/(exp(hbar omega/kT) - 1) and arg D is the continuous branch in
(-pi, 0) guaranteed by Im D = -omega Re mu <= 0.  Both the boundary terms of
the integration by parts and the branch ambiguity vanish identically, so the
two routes agree to quadrature accuracy; only the shift route survives the
catastrophic cancellation at weak coupling (|F0| can exceed |shift| by 10^5).

The naive fluctuating-field energy (``welton_energy``) is included as the
comparison calculation: it gives +pi alpha (kT)^2 / (3 m c^2), three times the
magnitude of — and opposite in sign to — the true 3D energy shift obtained by
differentiating the free energy.

All three integrals are one call each of the vectorized Gauss–Kronrod
quadrature in ``_quad``: the integrands take an array of omega, and the
returned error is the sum of the panels' |K21 - G10|, a bound rather than
QUADPACK's rescaled guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import quad
from .errors import AcausalModelError, GridError, QuadratureError
from .kernels import DIMENSIONLESS, MemoryKernel, PhysicalConstants
from .response import ParticleModel, denominator_closure, mass_for_kernel

# exp(-x) underflows to exactly 0.0 beyond ~745, so every thermal weight used
# here is *exactly* zero past these cuts; integrating further is pure noise.
_LOG_WEIGHT_CUT = 746.0   # for kT log(1 - e^-x)
_BOSE_CUT = 800.0         # for 1/(e^x - 1)
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)


def _bose(x):
    """1/(e^x - 1) of a positive array without overflow; 0 past x = 700."""
    return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))


def _log1mexp(x):
    """log(1 - e^-x) of a positive array, accurate at both ends."""
    return np.where(x < _LN2, np.log(-np.expm1(-x)),
                    np.log1p(-np.exp(-np.maximum(x, _LN2))))


def oscillator_free_energy(omega: float, T: float,
                           constants: PhysicalConstants = DIMENSIONLESS) -> float:
    """Free energy kT log(1 - exp(-hbar omega/kT)) of one oscillator mode.

    Returns 0 at T = 0 and when the exponential underflows.
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return 0.0
    kT = constants.k_B * T
    x = constants.hbar * omega / kT
    if x > _LOG_WEIGHT_CUT:
        return 0.0
    return kT * math.log1p(-math.exp(-x))


def welton_closed_form(T: float, mass: float,
                       constants: PhysicalConstants = DIMENSIONLESS) -> float:
    """pi alpha_fs (kT)^2 / (3 m c^2)."""
    kT = constants.k_B * T
    return math.pi * constants.alpha_fs * kT ** 2 / (3.0 * mass * constants.c ** 2)


def welton_energy(T: float, mass: float,
                  constants: PhysicalConstants = DIMENSIONLESS,
                  rtol: float = 1e-12) -> tuple[float, float]:
    """Naive 3D thermal energy of a field-driven electron, by quadrature.

    An electron driven in one dimension by a field of amplitude E0 at
    frequency omega stores W = e^2 E0^2 / (4 m omega^2); identifying
    3 E0^2 / 8 pi with the thermal spectral energy density
    u = (hbar omega^3 / pi^2 c^3) / (e^{hbar omega/kT} - 1) gives
    W = (2 pi e^2 / 3 m omega^2) u.  Integrates 3 W(omega) over all
    frequencies; equals pi alpha_fs (kT)^2 / (3 m c^2).  Returns (value,
    error estimate).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if mass <= 0:
        raise ValueError("mass must be > 0")
    if T == 0:
        return 0.0, 0.0
    k = constants
    kT = k.k_B * T
    w_th = kT / k.hbar
    pref = 2.0 * k.e ** 2 * k.hbar / (math.pi * mass * k.c ** 3)

    def integrand(om):
        # 3 W(om) = (2 e^2 hbar / pi m c^3) om / (e^{hbar om/kT} - 1)
        return pref * om * _bose(k.hbar * om / kT)

    pts = [0.0, w_th, 10.0 * w_th, 40.0 * w_th, _BOSE_CUT * w_th]
    return quad(integrand, pts, epsabs=0.0, epsrel=rtol)[:2]


def _resonance(D_Dp, w0: float, gamma_w: float) -> tuple[float, float]:
    """Centre and full width of the resonance near w0.

    The centre is the zero of Re D found by Newton's method from w0 (a
    blackbody line sits away from w0 when Omega < w0), the width
    2 |Im D / Re D'| there.  Falls back to (w0, gamma_w) when Newton leaves
    (w0/2, 2 w0) or has not settled after 20 steps.
    """
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


def _resonance_points(w0: float, w_r: float, width: float, w_th: float) -> set:
    """Panel breakpoints around a line at w_r of the given width.

    Both free-energy integrands fall off from the line like a power of the
    distance to its centre and carry the thermal weight's kT/omega or
    log(omega) below w_th, so panels are graded by decades: in distance
    from w_r, from the width (at least 1e-15 w_r) out to 10 w_r but never
    below w_r/2, and in omega from 10 w0 up to 30 w_th.  Splitting these
    panels further is then rarely needed, which keeps the number of
    adaptive passes small.
    """
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


def _require_causal_or_override(kernel: MemoryKernel, model: ParticleModel,
                                allow_acausal: bool) -> None:
    if mass_for_kernel(kernel, model) < 0 and not allow_acausal:
        raise AcausalModelError(
            f"cutoff Omega = {model.Omega:.6g} > 1/tau_e = {1.0 / model.tau_e:.6g} "
            "puts a runaway pole in the upper half plane; pass allow_acausal=True "
            "to integrate the real-axis formulas anyway"
        )


def coupled_free_energy(kernel: MemoryKernel, model: ParticleModel, T: float,
                        rtol: float = 1e-10,
                        allow_acausal: bool = False) -> tuple[float, float]:
    """Free energy of the oscillator coupled to the bath, by direct quadrature.

    Returns (value, error estimate).  The integrand has a near-Lorentzian
    line near omega_0 of width about Gamma = Re mu(omega_0)/M, so the domain
    is split at its centre and at decades of distance from it before the
    adaptive passes; a blind single pass misses the peak at weak coupling.
    The error estimate adds a bound on the rounding of D at the line to the
    quadrature's |K - G|.  A line narrower than the float spacing at its
    centre cannot be sampled and raises QuadratureError.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    _require_causal_or_override(kernel, model, allow_acausal)
    if T == 0:
        return 0.0, 0.0

    K = model.K
    D_Dp = denominator_closure(kernel, model)
    k = model.constants
    kT = k.k_B * T
    w_th = kT / k.hbar

    cut = _LOG_WEIGHT_CUT * w_th
    pts = {0.0, 30.0 * w_th, kernel.scale}
    if K > 0:
        w0 = model.omega_0
        gamma_w = kernel.re_mu_real_axis(w0) / model.M
        if gamma_w == 0.0:
            # Decoupled oscillator: the phase jumps by -pi exactly at omega_0.
            return oscillator_free_energy(w0, T, k), 0.0
        w_r, width = _resonance(D_Dp, w0, gamma_w)
        if w_r - width == w_r or w_r + width == w_r:
            raise QuadratureError(
                f"linewidth {width:.3g} is below the floating-point "
                f"resolution at omega = {w_r:.6g}: no quadrature node can "
                "sample the resonance; use the shift route")
        pts |= _resonance_points(w0, w_r, width, w_th)
    pts = sorted(p for p in pts if 0.0 <= p < cut) + [cut]
    w1 = pts[1]

    def integrand(u):
        # omega = w1 (u/w1)^4 on the first panel [0, w1] smooths the log
        # singularity of f at omega -> 0 into s^3 log s
        first = u < w1
        r = u / w1
        om = np.where(first, w1 * r ** 4, u)
        f = _log1mexp(k.hbar * om / kT) * kT
        f *= np.where(first, 4.0 * r ** 3, 1.0)
        D, Dp = D_Dp(om)
        return -f * (Dp / D).imag / math.pi  # f * Im{-D'/D} / pi

    rounding = 0.0
    if K > 0:
        # |K - G| cannot see rounding shared by every node: at the line
        # D = K - m w^2 + w f(w) cancels down to its imaginary part, so the
        # integrand there is only good to eps (|K| + |m| w^2 + |w f|) / |D|,
        # over a line of weight f(w_r).  The quadrature stops there too.
        m = mass_for_kernel(kernel, model)
        D, _ = D_Dp(w_r)
        size = K + abs(m) * w_r * w_r + abs(D - (K - m * w_r * w_r))
        rounding = (_EPS * size / abs(D)
                    * abs(oscillator_free_energy(w_r, T, k)))
    value, err, _ = quad(integrand, pts, epsabs=rounding, epsrel=rtol)
    return value, err + rounding


def free_energy_shift(kernel: MemoryKernel, model: ParticleModel, T: float,
                      rtol: float = 1e-11,
                      allow_acausal: bool = False) -> tuple[float, float]:
    """F0(T) - f(omega_0, T) computed without cancellation.

    Uses the exact integration-by-parts form (module docstring); valid for
    K > 0.  Returns (shift, error estimate).
    """
    if model.K <= 0:
        raise ValueError("shift baseline needs K > 0 (an oscillation frequency)")
    if T < 0:
        raise ValueError("T must be >= 0")
    _require_causal_or_override(kernel, model, allow_acausal)
    if T == 0:
        return 0.0, 0.0

    D_Dp = denominator_closure(kernel, model)
    k = model.constants
    kT = k.k_B * T
    w_th = kT / k.hbar
    w0 = model.omega_0
    hbar = k.hbar

    def integrand(om):
        D, _ = D_Dp(om)
        # the branch in [-pi, 0] of Im D <= 0, also where Im D is +0.0
        psi = np.arctan2(-np.abs(D.imag), D.real) + np.where(om > w0, math.pi, 0.0)
        return hbar * _bose(hbar * om / kT) * psi / math.pi

    w_r, width = _resonance(D_Dp, w0, kernel.re_mu_real_axis(w0) / model.M)
    pts = sorted({0.0, 30.0 * w_th, kernel.scale}
                 | _resonance_points(w0, w_r, width, w_th))
    cut = _BOSE_CUT * w_th
    if cut > pts[-1]:
        pts.append(cut)
    # arg D steps by -pi across the line, and rounding places the step only
    # to within eps w_r: below that error, weighted by hbar n(w_r), the
    # quadrature may stop.
    rounding = _EPS * w_r * hbar * float(_bose(hbar * w_r / kT))
    return quad(integrand, pts, epsabs=rounding, epsrel=rtol)[:2]


def bbr_shift_closed_form(T: float, model: ParticleModel,
                          dimensions: int = 1) -> float:
    """Low-temperature blackbody shift pi alpha_fs (kT)^2 / (9 M c^2).

    Valid in the regime hbar omega_0 << kT << hbar Omega; ``dimensions=3``
    multiplies by 3 (one factor per spatial direction).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if dimensions not in (1, 3):
        raise ValueError("dimensions must be 1 or 3")
    k = model.constants
    kT = k.k_B * T
    val = math.pi * k.alpha_fs * kT ** 2 / (9.0 * model.M * k.c ** 2)
    return 3.0 * val if dimensions == 3 else val


@dataclass(frozen=True)
class FreeEnergyCurve:
    """F(T) samples with optional decoupled baseline and quadrature errors.

    ``raw_shift`` holds F - baseline as the shift route computed it, before
    the baseline was added back; at weak coupling it is far more accurate
    than the difference of the two large numbers.
    """

    temperatures: np.ndarray
    values: np.ndarray
    baseline: np.ndarray | None = None
    errors: np.ndarray | None = None
    kernel_meta: dict = field(default_factory=dict)
    model_meta: dict = field(default_factory=dict)
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
                      temperatures, rtol: float = 1e-10,
                      allow_acausal: bool = False,
                      use_shift_route: bool = False) -> FreeEnergyCurve:
    """Sample F0(T) on a grid.  Each T is an independent pure computation.

    With ``use_shift_route`` the cancellation-free shift integral is evaluated
    (kept as ``raw_shift``) and the decoupled baseline f(omega_0, T) added
    back, which is the accurate choice at weak coupling.  ``rtol`` reaches
    the quadrature of either route.
    """
    temps = np.asarray(temperatures, dtype=float)
    vals = np.empty_like(temps)
    errs = np.empty_like(temps)
    base = np.empty_like(temps)
    shifts = np.empty_like(temps) if use_shift_route else None
    k = model.constants
    has_w0 = model.K > 0
    for i, T in enumerate(temps):
        base[i] = oscillator_free_energy(model.omega_0, T, k) if has_w0 and T > 0 else 0.0
        if use_shift_route:
            shifts[i], errs[i] = free_energy_shift(kernel, model, T, rtol=rtol,
                                                   allow_acausal=allow_acausal)
            vals[i] = base[i] + shifts[i]
        else:
            vals[i], errs[i] = coupled_free_energy(kernel, model, T, rtol=rtol,
                                                   allow_acausal=allow_acausal)
    return FreeEnergyCurve(
        temperatures=temps, values=vals, baseline=base, errors=errs,
        kernel_meta=kernel.to_json(), model_meta=model.to_json(),
        raw_shift=shifts,
    )


def thermo_derivatives(curve: FreeEnergyCurve, rtol: float = 1e-3) -> dict:
    """Entropy S = -dF/dT, energy U = F + TS, specific heat C = dU/dT.

    Central differences on the grid; a coarsened-grid Richardson comparison
    guards against under-resolved curves (raises GridError).  For a pure-T^2
    free energy the differences are exact and U = -F pointwise.
    """
    T = curve.temperatures
    F = curve.values
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
