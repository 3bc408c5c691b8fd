"""Mean-square displacement and diffusion constants for the free particle.

The equilibrium mean-square displacement follows from the
fluctuation-dissipation relation,

    msd(t) = (2 hbar / pi) int_0^inf Im[alpha(omega + i0)]
                            coth(hbar omega / 2 kT) (1 - cos omega t) domega,

with the classical weight coth -> 2kT/(hbar omega) taken automatically deep
in the classical regime.  The long-time tail of a curve is fitted to
A t^p; p = 1 identifies normal (Einstein) diffusion with D = A/2, anything
else is reported as anomalous with the fitted exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from ._grid import check_time_grid
from .errors import AcausalModelError, FitError, GridError, QuadratureError
from .kernels import BlackbodyKernel, MemoryKernel
from .response import ParticleModel, denominator_closure

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


def _coth(x: float) -> float:
    if x < 1.0e-8:
        return 1.0 / x + x / 3.0
    if x > 19.0:
        return 1.0
    return 1.0 / math.tanh(x)


def _weighted_im_alpha(kernel: MemoryKernel, model: ParticleModel,
                       T: float, classical: bool):
    """g(omega) = (thermal weight) * Im alpha(omega), prefactors included."""
    D_Dp = denominator_closure(kernel, model)
    k = model.constants

    def im_alpha(om: float) -> float:
        D, _ = D_Dp(om)
        return -D.imag / (D.real * D.real + D.imag * D.imag)

    if classical:
        pref = 4.0 * k.k_B * T / math.pi

        def g(om: float) -> float:
            return pref * im_alpha(om) / om

    elif T == 0.0:
        pref = 2.0 * k.hbar / math.pi

        def g(om: float) -> float:
            return pref * im_alpha(om)

    else:
        pref = 2.0 * k.hbar / math.pi
        half_beta_hbar = k.hbar / (2.0 * k.k_B * T)

        def g(om: float) -> float:
            return pref * im_alpha(om) * _coth(half_beta_hbar * om)

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


def msd(kernel: MemoryKernel, model: ParticleModel, T: float, t: float,
        classical: bool | None = None, rtol: float = 1.0e-9) -> float:
    """Mean-square displacement of the free particle at time t.

    classical=None picks the weight automatically; True forces the classical
    2kT/(hbar omega) weight (requires T > 0), False forces the full coth.
    """
    if model.K != 0.0:
        raise ValueError("msd requires a free particle (model.K == 0)")
    if not (T >= 0.0 and math.isfinite(T)):
        raise ValueError("temperature must be >= 0 and finite")
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("time must be >= 0 and finite")
    if isinstance(kernel, BlackbodyKernel) and not model.is_causal:
        raise AcausalModelError(
            "mean-square displacement is undefined for an acausal model "
            f"(Omega = {model.Omega:.6g} > 1/tau_e = {1.0 / model.tau_e:.6g})")
    use_classical = _resolve_classical(kernel, model, T, classical)
    if t == 0.0:
        return 0.0
    if T == 0.0 and use_classical:
        raise ValueError("classical weight requires T > 0")

    g = _weighted_im_alpha(kernel, model, T, use_classical)

    def integrand(om: float) -> float:
        if om <= 0.0:
            return 0.0
        s = math.sin(0.5 * om * t)
        return g(om) * 2.0 * s * s

    # One panel per oscillation period up to omega t = 40 pi, with kernel and
    # thermal feature frequencies inserted where they fall below the cut.
    a = _MAX_PHASE / t
    pts = [2.0 * math.pi * j / t for j in range(_OSC_PERIODS + 1)]
    features = [kernel.scale]
    k = model.constants
    if not use_classical and T > 0.0:
        features.append(2.0 * k.k_B * T / k.hbar)
    pts.extend(f for f in features if 0.0 < f < a)
    pts = sorted(set(pts))

    total = 0.0
    err_sum = 0.0
    flagged = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        res = quad(integrand, lo, hi, epsabs=0.0, epsrel=rtol,
                   limit=200, full_output=1)
        total += res[0]
        err_sum += res[1]
        if len(res) > 3:
            flagged += res[1]

    # Envelope tail: (1 - cos) averages to 1 beyond the cut; computing
    # int_a^inf g and dropping the cosine part leaves an error bounded by
    # 2 g(a) / t (integration by parts on the decaying envelope).
    tail_pts = [a]
    for f in (10.0 * kernel.scale, 10.0 * a):
        if f > tail_pts[-1]:
            tail_pts.append(f)
    tail_pts.append(math.inf)
    for lo, hi in zip(tail_pts[:-1], tail_pts[1:]):
        res = quad(g, lo, hi, epsabs=0.0, epsrel=rtol,
                   limit=200, full_output=1)
        total += res[0]
        err_sum += res[1]
        if len(res) > 3:
            flagged += res[1]
    err_sum += 2.0 * g(a) / t

    if flagged > max(10.0 * rtol * abs(total), 1.0e-12 * (abs(total) + err_sum)):
        raise QuadratureError(
            f"msd quadrature failed to converge (t = {t:.6g}, "
            f"flagged error {flagged:.3g} on total {total:.6g})",
            achieved=flagged)
    return total


@dataclass(frozen=True)
class MsdCurve:
    """Mean-square displacement sampled on a time grid, with its tail fit.

    The long-time law msd ~ prefactor * t^exponent is fitted over the last
    decade of the grid; fit fields are None when fewer than three usable
    points fall in that window.
    """

    times: np.ndarray
    values: np.ndarray
    temperature: float
    kernel_meta: dict = field(default_factory=dict)
    model_meta: dict = field(default_factory=dict)
    fit_exponent: float | None = None
    fit_prefactor: float | None = None
    fit_stderr: float | None = None
    fit_residual: float | None = None

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

    def to_json(self) -> dict:
        return {
            "temperature": self.temperature,
            "kernel": dict(self.kernel_meta),
            "model": dict(self.model_meta),
            "fit": {
                "exponent": self.fit_exponent,
                "prefactor": self.fit_prefactor,
                "stderr": self.fit_stderr,
                "residual": self.fit_residual,
            },
        }


def _tail_power_fit(times: np.ndarray, values: np.ndarray):
    """Least-squares fit of log msd vs log t over the grid's last decade.

    Returns (exponent, prefactor, stderr, residual, mask) with None entries
    when fewer than three usable points are available.
    """
    mask = (times >= times[-1] / 10.0) & (times > 0.0) & (values > 0.0)
    if int(mask.sum()) < 3:
        return None, None, None, None, mask
    lt = np.log(times[mask])
    lv = np.log(values[mask])
    (p, b), cov = np.polyfit(lt, lv, 1, cov=True)
    resid = lv - (p * lt + b)
    residual = float(np.sqrt(np.mean(resid ** 2)))
    stderr = float(np.sqrt(max(cov[0, 0], 0.0)))
    return float(p), float(np.exp(b)), stderr, residual, mask


def msd_curve(kernel: MemoryKernel, model: ParticleModel, T: float,
              times=None, classical: bool | None = None,
              rtol: float = 1.0e-9) -> MsdCurve:
    """Evaluate msd on a time grid and fit the long-time power law.

    With times=None the grid is the decade [10, 100] in units of the
    kernel's relaxation time, sampled at 21 logarithmic points.
    """
    if times is None:
        times = np.geomspace(10.0 / kernel.scale, 100.0 / kernel.scale, 21)
    t_arr = check_time_grid(times)
    if t_arr[0] < 0:
        raise GridError("time grid must be nonnegative")
    values = np.array([msd(kernel, model, T, float(t), classical=classical,
                           rtol=rtol) for t in t_arr])
    p, A, stderr, residual, _ = _tail_power_fit(t_arr, values)
    return MsdCurve(times=t_arr, values=values, temperature=T,
                    kernel_meta=kernel.to_json(), model_meta=model.to_json(),
                    fit_exponent=p, fit_prefactor=A,
                    fit_stderr=stderr, fit_residual=residual)


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
    """Classify an already computed curve's tail (see diffusion_constant)."""
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
        slope = np.polyfit(t_arr[mask], curve.values[mask], 1)[0]
        D = float(slope / 2.0)
    return DiffusionReport(D=D, anomalous=anomalous, exponent=p,
                           exponent_stderr=stderr,
                           prefactor=curve.fit_prefactor,
                           fit_residual=curve.fit_residual, window=window)


def diffusion_constant(kernel: MemoryKernel, model: ParticleModel, T: float,
                       times=None, classical: bool | None = None,
                       rtol: float = 1.0e-9) -> DiffusionReport:
    """Fit the long-time msd tail; return D for normal diffusion.

    With times=None the fit window is the one of ``msd_curve``.  The tail
    is anomalous when the fitted exponent differs from 1 by more than
    max(3 stderr, 0.1).
    """
    curve = msd_curve(kernel, model, T, times, classical=classical, rtol=rtol)
    return report_from_curve(curve)


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
