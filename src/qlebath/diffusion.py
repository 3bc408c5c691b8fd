"""Mean-square displacement and diffusion constants for the free particle.

The equilibrium mean-square displacement follows from the
fluctuation-dissipation relation,

    msd(t) = (2 hbar / pi) int_0^inf Im[alpha(omega + i0)]
                            coth(hbar omega / 2 kT) (1 - cos omega t) domega,

with the classical weight coth -> 2kT/(hbar omega) taken automatically deep
in the classical regime.  It closes by residues at the poles z_k = -i lam_k
of alpha, r_k = 1/D'(z_k), and at z = 0, where alpha = c2/z^2 + ... when
mu(0) = 0 (the blackbody kernel; c2 = -1/M); lam_k, r_k and c2 come from
``response.spectrum``, which keeps the cutoff pole's residue to rounding.
The classical weight gives 2kT times the integral of the impulse response,

    msd_cl(t) = 2kT t^2 [Re(i sum_k r_k lam_k phi2(-lam_k t)) - c2/2],

phi2(z) = (e^z - 1 - z)/z^2: Einstein's 2kT t/mu(0) at long times, and for
mu(0) = 0 the ballistic kT t^2/M of the double pole.  (At bare mass m = 0,
the point limit, alpha has no other pole and 2kT t tau_e/M is added.)  The
Matsubara series coth = 2kT/(hbar omega) + (4kT/hbar) sum_n omega/(omega^2
+ nu_n^2), nu_n = 2 pi n kT/hbar, adds for m > 0

    (2 hbar/pi) Re sum_k i r_k W(lam_k/nu_1, nu_1 t),
    W(x, s) = psi(1 + x) + gamma_E + x^2 sum_n e^{-n s}/(n (n^2 - x^2))
              - x e^{-x s} sum_n 1/(n^2 - x^2),

the digamma function from Binet's (``thermo._binet``) and the last sum in
cot form, written about the integer nearest x so that a rate on a Matsubara
frequency costs no digits; for |x| <= 1/4, W is a zeta series times x^2.
Only the e^{-n s} series is summed term by term, to e^{-40}.  Points at T = 0,
at nu_1 t < 0.1 (where that series is long), or of two decay rates closer
than 5% (where partial fractions lose eps over the squared separation) take
the adaptive quadrature of ``_quad`` instead, with kT t^2 (-c2) added for
alpha's double pole.  At bare mass 0 Im alpha falls only as 1/omega, so the
quantum msd diverges logarithmically in the cutoff: it raises ValueError.

The long-time tail of a curve is fitted to A t^p; p = 1 identifies normal
(Einstein) diffusion with D = A/2, anything else is reported as anomalous
with the fitted exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._grid import check_temperatures, check_time_grid
from ._quad import quad
from .errors import AcausalModelError, FitError, GridError
from .kernels import MemoryKernel
from .response import ParticleModel, denominator_closure, spectrum
from .thermo import _binet

# The (1 - cos omega t) factor is integrated period by period out to
# omega t = 40 pi; beyond that the oscillation is dropped (envelope) and the
# neglected part is bounded by 2 g(a)/t via integration by parts.
_OSC_PERIODS = 20
_MAX_PHASE = 2.0 * math.pi * _OSC_PERIODS

# Fitted exponent must differ from 1 by more than max(3 stderr, this floor)
# before a curve is called anomalous: the floor absorbs the finite-window
# transient of exact normal diffusion, whose log-log slope over [10, 100]/gamma
# is t/(t - 1/gamma) and fits to ~1.04 with a tiny formal stderr.
_ANOMALY_FLOOR = 0.1
_FIT_RESIDUAL_MAX = 0.15

# Switch to the classical weight when hbar omega / 2kT < this bound over the
# dominant support (omega up to ~20 kernel scales): coth then equals its
# classical limit to better than a part in 10^6.
_CLASSICAL_SWITCH = 1.0e-3

_BALLISTIC_TOL = 0.25
_DIFFUSIVE_TOL = 0.25

# The closed form needs nu_1 t >= this (at most 400 terms of e^{-n nu_1 t}),
# and decay rates apart by this fraction of the larger one.
_MIN_MATSUBARA_PHASE = 0.1
_MIN_POLE_SEPARATION = 0.05
_MATSUBARA_CUT = 40.0  # e^{-n nu_1 t} is summed while n nu_1 t <= this


def _zeta(s: float, n: int = 64) -> float:
    """Riemann zeta(s), s >= 2: n - 1 terms and an Euler-Maclaurin tail."""
    k = np.arange(1.0, n)
    return float((k ** -s).sum() + n ** (1 - s) / (s - 1) + 0.5 * n ** -s
                 + s * n ** (-s - 1) / 12
                 - s * (s + 1) * (s + 2) * n ** (-s - 3) / 720
                 + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * n ** (-s - 5)
                 / 30240)


# sum_n 1/(n^2 - x^2) = sum_j zeta(2j) x^(2j-2) and sum_n 1/(n (n^2 - x^2))
# = sum_j zeta(2j+1) x^(2j-2) as the columns of one matrix: 14 terms reach
# rounding at |x| <= 1/4
_ZETA = np.array([[_zeta(2.0 * j), _zeta(2.0 * j + 1.0)] for j in range(1, 15)])
# phi2(z) = sum_k z^k/(k+2)!: 18 terms reach rounding at |z| < 1
_PHI2 = np.array([1.0 / math.factorial(k + 2) for k in range(18)])


def _series(coefficients, z):
    """sum_k c_k z^k along the first axis of c, elementwise in z (no BLAS
    call, so an entry does not depend on the shape of z)."""
    z = np.asarray(z)[..., None]
    return (z ** np.arange(len(coefficients)) * coefficients.T[..., None, :]).sum(-1)


def _phi1(z):
    """(e^z - 1)/z, 1 at z = 0."""
    zero = z == 0
    z = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(z) / z)


def _phi2(z):
    """(e^z - 1 - z)/z^2 for Re z <= 0, by its series where |z| < 1."""
    near = np.abs(z) < 1.0
    far = np.where(near, 1.0, z)
    return np.where(near, _series(_PHI2, z),
                    (np.expm1(far) - far) / (far * far))


def _matsubara_w(x, s):
    """W(x_k, s_i) as an (s, x) array and the number of terms summed.

    Each point sums its own ceil(40/s_i) terms of the e^{-n s} series, in
    order, so a point's value does not depend on the rest of the grid.
    """
    n_i = np.ceil(_MATSUBARA_CUT / s)
    n = np.arange(1.0, n_i.max() + 1.0)[:, None]
    n0 = np.maximum(np.rint(x.real), 0.0)
    d = x - n0
    y = np.concatenate([1.0 + x, 1.0 - d, 1.0 + d])
    p = _binet(y)[1] + np.log(y) - 0.5 / y  # psi(y), from Binet's B'(y)
    k = x.size
    # H(x) = psi(1 + x) + gamma_E = sum_n x/(n (n + x)); g(d) = pi cot(pi d)
    # - 1/d, so that the cot sum without its n0 term is (1/x + 1/(n0 + x)
    # - g)/(2x), or -g/(2x) when n0 = 0
    H, g = p[:k] + np.euler_gamma, p[k:2 * k] - p[2 * k:]
    # the e^{-n s} series without its n = n0 term (no term when n0 = 0)
    skip = n == n0
    terms = np.where(skip, 0.0, x * x / (n * np.where(skip, 1.0, n * n - x * x)))
    weights = np.exp(-s[:, None] * n[:, 0]) * (n[:, 0] <= n_i[:, None])
    partial = np.cumsum(weights[:, :, None] * terms, axis=1)
    series = np.take_along_axis(
        partial, (n_i.astype(int) - 1)[:, None, None], axis=1)[:, 0]
    s = s[:, None]
    ex, e0 = np.exp(-x * s), np.exp(-n0 * s)
    # the n0 terms of both sums, together: -x (e^{-n0 s}/n0 + (e^{-n0 s}
    # - e^{-x s})/d)/(2 n0 + d), the difference as s e^{-n0 s} phi1(-d s)
    # where d s is small
    ds = d * s
    small = np.abs(ds) < 1.0
    diff = np.where(small, e0 * s * _phi1(-np.where(small, ds, 0.0)),
                    (e0 - ex) / np.where(small, 1.0, d))
    has = n0 >= 1.0
    n0s = np.where(has, n0, 1.0)
    pair = np.where(has, -x * (e0 / n0s + diff) / (2.0 * n0s + d), 0.0)
    cot = np.where(has, 1.0 / x + 1.0 / (n0 + x), 0.0) - g
    general = H + series + pair - 0.5 * ex * cot
    # |x| <= 1/4: psi and the cot form cancel to O(x^2); use the zeta series
    x2 = x * x
    even, odd = _series(_ZETA, x2)
    zeta = series + x2 * (even * s * _phi1(-x * s) - odd)
    return np.where(np.abs(x) <= 0.25, zeta, general), int(n_i.max())


def _closed_form(spec, kT: float, hbar: float, times, quantum: bool):
    """msd at times > 0 from the ``Spectrum``, and the Matsubara terms summed."""
    lam, r = (np.array(v, dtype=complex) for v in (spec.rates, spec.residues))
    t = times[:, None]
    per_t2 = (1j * r * lam * _phi2(-lam * t)).sum(axis=1).real - 0.5 * spec.c2
    with np.errstate(over="ignore"):  # t^2 past the float range: regrouped
        values = 2.0 * kT * (spec.g0 * times + times * times * per_t2)
        big = ~np.isfinite(values)
        t_big = times[big]
        values[big] = 2.0 * kT * t_big * (spec.g0 + t_big * per_t2[big])
    if not quantum or lam.size == 0:  # no pole: no quantum correction
        return values, 0
    nu1 = 2.0 * math.pi * kT / hbar
    w, n_terms = _matsubara_w(lam / nu1, nu1 * times)
    return values + (2.0 * hbar / math.pi) * (1j * r * w).sum(axis=1).real, n_terms


def _weighted_im_alpha(kernel: MemoryKernel, model: ParticleModel,
                       T: float, classical: bool):
    """g(omega) = (thermal weight) * Im alpha(omega), prefactors included."""
    D_Dp = denominator_closure(kernel, model)
    k = model.constants

    def im_alpha(om):
        return (1.0 / D_Dp(om)[0]).imag

    if classical:
        pref = 4.0 * k.k_B * T / math.pi

        def g(om):
            return pref * im_alpha(om) / om

    elif T == 0.0:
        pref = 2.0 * k.hbar / math.pi

        def g(om):
            return pref * im_alpha(om)

    else:
        pref = 2.0 * k.hbar / math.pi
        half_beta_hbar = k.hbar / (2.0 * k.k_B * T)

        def g(om):
            return pref * im_alpha(om) / np.tanh(half_beta_hbar * om)

    return g


def _resolve_classical(kernel: MemoryKernel, model: ParticleModel,
                       T: float, classical) -> bool:
    if classical is None:
        if T <= 0.0:
            return False
        k = model.constants
        x_max = k.hbar * 20.0 * kernel.scale / (2.0 * k.k_B * T)
        return x_max < _CLASSICAL_SWITCH
    if classical and T <= 0.0:
        raise ValueError("classical weight requires T > 0")
    return bool(classical)


def _quadrature(kernel: MemoryKernel, model: ParticleModel, T: float,
                t: float, classical: bool, rtol: float) -> float:
    """The integral over omega > 0 at one t > 0, by adaptive quadrature."""
    g = _weighted_im_alpha(kernel, model, T, classical)

    # One panel per oscillation period up to omega t = 40 pi, with kernel and
    # thermal feature frequencies inserted where they fall below the cut.
    a = _MAX_PHASE / t
    pts = [2.0 * math.pi * j / t for j in range(_OSC_PERIODS)] + [a]
    features = [kernel.scale]
    k = model.constants
    if not classical and T > 0.0:
        features.append(2.0 * k.k_B * T / k.hbar)
    pts.extend(f for f in features if 0.0 < f < a)
    pts = sorted(set(pts))
    # Envelope tail: (1 - cos) averages to 1 beyond the cut; integrating g
    # alone there drops the cosine part, an error bounded by 2 g(a) / t
    # (integration by parts on the decaying envelope).
    for f in (10.0 * kernel.scale, 10.0 * a):
        if f > pts[-1]:
            pts.append(f)
    pts.append(math.inf)

    def integrand(om):
        s = np.sin(0.5 * om * t)
        return g(om) * np.where(om < a, 2.0 * s * s, 1.0)

    return quad(integrand, pts, epsabs=0.0, epsrel=rtol)[0]


def _msd_values(kernel: MemoryKernel, model: ParticleModel, T: float, times,
                classical, rtol: float):
    """msd at every t >= 0 of ``times`` and the diagnostics of the routes."""
    if model.K != 0.0:
        raise ValueError("msd requires a free particle (model.K == 0)")
    check_temperatures(T)
    spec = spectrum(kernel, model)
    if spec.m < 0:
        raise AcausalModelError(
            "mean-square displacement is undefined for an acausal model "
            f"(Omega = {model.Omega:.6g} > 1/tau_e = {1.0 / model.tau_e:.6g})")
    use_classical = _resolve_classical(kernel, model, T, classical)
    k = model.constants
    kT = k.k_B * T
    if spec.g0 and not use_classical:  # Im alpha ~ g0/omega at large omega
        raise ValueError("the quantum msd is undefined at bare mass 0 (point "
                         "limit), where it diverges logarithmically in the "
                         "cutoff; use classical: true or Omega < 1/tau_e")
    closed = times > 0.0
    lam = spec.rates  # two rates within 5%: partial fractions lose digits
    if T == 0.0 or len(lam) == 2 and abs(lam[0] - lam[1]) < (
            _MIN_POLE_SEPARATION * max(map(abs, lam))):
        closed[:] = False
    elif not use_classical:
        closed &= 2.0 * math.pi * kT * times / k.hbar >= _MIN_MATSUBARA_PHASE
    values, n_terms = np.zeros(times.shape), 0
    if closed.any():
        values[closed], n_terms = _closed_form(spec, kT, k.hbar, times[closed],
                                               not use_classical)
    fallback = np.flatnonzero(~closed & (times > 0.0))
    for i in fallback:  # alpha's double pole at 0 is not on the real axis
        t = float(times[i])
        values[i] = (_quadrature(kernel, model, T, t, use_classical, rtol)
                     - kT * spec.c2 * t * t)
    if not np.all(np.isfinite(values)):
        raise OverflowError("the msd overflows the float range at t = "
                            f"{times[~np.isfinite(values)][0]:.6g}")
    return values, {"route": {"poles": int(times.size - fallback.size),
                              "quadrature": int(fallback.size)},
                    "matsubara_terms": n_terms}


def msd(kernel: MemoryKernel, model: ParticleModel, T: float, t: float,
        classical: bool | None = None, rtol: float = 1.0e-9) -> float:
    """Mean-square displacement of the free particle at time t: the
    one-point case of ``msd_curve``.

    classical=None picks the weight automatically; True forces the classical
    2kT/(hbar omega) weight (requires T > 0), False forces the full coth.
    ``rtol`` reaches only the quadrature route.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("time must be >= 0 and finite")
    return float(_msd_values(kernel, model, T, np.array([float(t)]),
                             classical, rtol)[0][0])


@dataclass(frozen=True)
class MsdCurve:
    """Mean-square displacement sampled on a time grid, with its tail fit.

    The long-time law msd ~ prefactor * t^exponent is fitted over the last
    decade of the grid; fit fields are None when fewer than three usable
    points fall in that window.  ``diagnostics`` counts the points of each
    route ("poles", "quadrature") and the Matsubara terms summed.
    """

    times: np.ndarray
    values: np.ndarray
    temperature: float
    fit_exponent: float | None = None
    fit_prefactor: float | None = None
    fit_stderr: float | None = None
    fit_residual: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        if np.any(v < 0):
            raise ValueError("msd values must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def _line_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares slope, intercept and residuals of y on x, from centred
    sums."""
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    slope = float(dx @ dy) / float(dx @ dx)
    return slope, float(ym - slope * xm), dy - slope * dx


def _tail_power_fit(times: np.ndarray, values: np.ndarray):
    """Least-squares fit of log msd vs log t over the grid's last decade.

    Returns (exponent, prefactor, stderr, residual, mask) with None entries
    when fewer than three usable points are available; stderr is the
    exponent's, from the residual variance over n - 2 degrees of freedom.
    """
    mask = (times >= times[-1] / 10.0) & (times > 0.0) & (values > 0.0)
    n = int(mask.sum())
    if n < 3:
        return None, None, None, None, mask
    lt = np.log(times[mask])
    p, b, resid = _line_fit(lt, np.log(values[mask]))
    ssr = float(resid @ resid)
    dt = lt - lt.mean()
    stderr = math.sqrt(ssr / ((n - 2) * float(dt @ dt)))
    return p, math.exp(b), stderr, math.sqrt(ssr / n), mask


def msd_curve(kernel: MemoryKernel, model: ParticleModel, T: float,
              times=None, classical: bool | None = None,
              rtol: float = 1.0e-9) -> MsdCurve:
    """Evaluate msd on a time grid and fit the long-time power law.

    With times=None the grid is the decade [10, 100] in units of the
    kernel's relaxation time, sampled at 21 logarithmic points.  The whole
    grid is one array pass of the closed form; ``rtol`` reaches only the
    points that take the quadrature.
    """
    if times is None:
        times = np.geomspace(10.0 / kernel.scale, 100.0 / kernel.scale, 21)
    t_arr = check_time_grid(times)
    if t_arr[0] < 0:
        raise GridError("time grid must be nonnegative")
    values, diagnostics = _msd_values(kernel, model, T, t_arr, classical, rtol)
    p, A, stderr, residual, _ = _tail_power_fit(t_arr, values)
    return MsdCurve(times=t_arr, values=values, temperature=T,
                    fit_exponent=p, fit_prefactor=A, fit_stderr=stderr,
                    fit_residual=residual, diagnostics=diagnostics)


@dataclass(frozen=True)
class DiffusionReport:
    """Outcome of the long-time diffusion fit.

    D is the Einstein diffusion constant (half the fitted linear slope) when
    the tail is normal, None when the growth is anomalous; the fitted
    exponent and its standard error are always recorded.
    """

    D: float | None
    anomalous: bool
    exponent: float
    exponent_stderr: float
    prefactor: float
    fit_residual: float
    window: tuple[float, float]

    def to_json(self) -> dict:
        out: dict = {"anomalous": self.anomalous,
                     "fit_error": self.fit_residual}
        if self.anomalous:
            out["exponent"] = self.exponent
        else:
            out["D"] = self.D
        return out


def report_from_curve(curve: MsdCurve) -> DiffusionReport:
    """Fit the curve's long-time tail; return D for normal diffusion.

    The tail is anomalous when the fitted exponent differs from 1 by more
    than max(3 stderr, 0.1).
    """
    if curve.fit_exponent is None:
        raise FitError("no linear regime found: fewer than three usable "
                       "points in the tail decade")
    if curve.fit_residual > _FIT_RESIDUAL_MAX:
        raise FitError("no linear regime found: log-log fit residual "
                       f"{curve.fit_residual:.3g} exceeds {_FIT_RESIDUAL_MAX}")
    p = curve.fit_exponent
    stderr = curve.fit_stderr
    anomalous = abs(p - 1.0) > max(3.0 * stderr, _ANOMALY_FLOOR)

    t_arr = curve.times
    mask = (t_arr >= t_arr[-1] / 10.0) & (t_arr > 0.0)
    window = (float(t_arr[mask][0]), float(t_arr[mask][-1]))
    D = None
    if not anomalous:
        D = _line_fit(t_arr[mask], curve.values[mask])[0] / 2.0
    return DiffusionReport(D=D, anomalous=anomalous, exponent=p,
                           exponent_stderr=stderr,
                           prefactor=curve.fit_prefactor,
                           fit_residual=curve.fit_residual, window=window)


def regime_tag(curve: MsdCurve) -> list:
    """Per-point growth regime from the local log-log slope.

    'ballistic' for slope within 0.25 of 2, 'diffusive' within 0.25 of 1,
    'anomalous' otherwise.  Points with t = 0 or msd = 0 sit in the
    short-time limit and are tagged ballistic.
    """
    t = curve.times
    v = curve.values
    tags = ["ballistic"] * len(t)
    valid = np.flatnonzero((t > 0.0) & (v > 0.0))
    if valid.size >= 2:
        slopes = np.gradient(np.log(v[valid]), np.log(t[valid]))
        for idx, s in zip(valid, slopes):
            if abs(s - 2.0) <= _BALLISTIC_TOL:
                tags[idx] = "ballistic"
            elif abs(s - 1.0) <= _DIFFUSIVE_TOL:
                tags[idx] = "diffusive"
            else:
                tags[idx] = "anomalous"
    return tags
