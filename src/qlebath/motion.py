"""Classical equations of motion for the radiating electron.

Three integrations are provided for a free particle (V = 0) driven by a
smooth c-number force f(t):

* ``integrate_point_limit``: M xdd = f + tau_e fdot — the second-order
  equation at the largest causal cutoff Omega = 1/tau_e.  Bounded forces
  give bounded accelerations; there is no runaway mode.
* ``integrate_third_order`` with ``variant="cutoff"``:
  M (1/Omega - tau_e) xddd + M xdd = f + fdot/Omega.  The nonzero
  characteristic root is -1/(1/Omega - tau_e): decaying for
  Omega < 1/tau_e, a runaway for Omega > 1/tau_e.
* ``variant="abraham_lorentz"``: the Omega -> infinity limit
  -M tau_e xddd + M xdd = f, whose homogeneous solutions grow like
  e^{t/tau_e}.

``bounded_al_trajectory`` computes the unique bounded (runaway-free)
Abraham-Lorentz solution via the preacceleration integral
a(t) = (1/M) int_0^inf e^{-u} f(t + u tau_e) du.  Forward integration from
any finite-precision initial acceleration cannot reach this solution: an
initial error of size delta seeds delta e^{t/tau_e}, which immediately
dominates the O((omega tau_e)^2) difference one wants to measure.

The point-limit and bounded solutions have an acceleration that is an
explicit function of time, so both go through one RK4 path with no state
feedback: a(t) is sampled once at the quarter points of each grid interval,
the paths at the grid step and at half of it are running sums, and their
endpoint disagreement is the step check.  Only the third-order equations
feed the state back and are stepped by generic RK4 with substeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepSizeError
from .response import ParticleModel

_VARIANTS = ("cutoff", "abraham_lorentz")
_MAX_INTERNAL_STEPS = 2_000_000
_RUNAWAY_RATE_FACTOR = 1e-3  # flag when fitted rate > this / tau_e
_RUNAWAY_R2 = 0.99


@dataclass(frozen=True)
class ForceSignal:
    """A drive f(t) with its analytic derivative.

    ``fdot`` must be the derivative of ``f``.  ``fddot``, an optional second
    derivative, is carried along for callers; no integrator reads it.
    """

    f: Callable[[float], float]
    fdot: Callable[[float], float]
    fddot: Callable[[float], float] | None = None
    name: str = "custom"


def zero_force() -> ForceSignal:
    return ForceSignal(f=lambda t: 0.0, fdot=lambda t: 0.0, name="zero")


def _smoothstep(u: float) -> float:
    # Quintic smoothstep: C^2, s(0)=0, s(1)=1, s'=s''=0 at both ends.
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_d1(u: float) -> float:
    return 30.0 * u * u * (1.0 - u) ** 2


def constant_with_ramp(f0: float, t_ramp: float) -> ForceSignal:
    """Force rising smoothly from 0 to f0 over [0, t_ramp], constant after.

    A true step would inject a delta through the tau_e fdot term; the ramp
    keeps the drive C^2 while preserving the integrated impulse
    int tau_e fdot dt = tau_e f0 independent of the ramp duration.
    """
    if t_ramp <= 0:
        raise ValueError("t_ramp must be > 0")

    def f(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= t_ramp:
            return f0
        return f0 * _smoothstep(t / t_ramp)

    def fdot(t: float) -> float:
        if t <= 0.0 or t >= t_ramp:
            return 0.0
        return f0 * _smoothstep_d1(t / t_ramp) / t_ramp

    return ForceSignal(f=f, fdot=fdot, name="ramped_constant")


def sinusoid(f0: float, omega_d: float) -> ForceSignal:
    """f0 sin(omega_d t) for all t."""
    if omega_d <= 0:
        raise ValueError("omega_d must be > 0")
    return ForceSignal(
        f=lambda t: f0 * math.sin(omega_d * t),
        fdot=lambda t: f0 * omega_d * math.cos(omega_d * t),
        name="sinusoid",
    )


def gaussian_pulse(f0: float, t0: float, sigma: float) -> ForceSignal:
    """f0 exp(-(t - t0)^2 / 2 sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")

    def f(t: float) -> float:
        return f0 * math.exp(-0.5 * ((t - t0) / sigma) ** 2)

    def fdot(t: float) -> float:
        return -f(t) * (t - t0) / sigma ** 2

    return ForceSignal(f=f, fdot=fdot, name="gaussian_pulse")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly useful bundle of a single integration result.

    ``fit_rate``/``fit_r2`` hold the exponential fit of log|a| over the
    final third whenever the fit was possible (any sign of slope);
    ``growth_rate`` repeats the rate only when ``runaway_flag`` is set, so
    growth_rate is present iff the trajectory ran away.
    """

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray | None = None
    runaway_flag: bool = False
    growth_rate: float | None = None
    fit_rate: float | None = None
    fit_r2: float | None = None

    def __post_init__(self):
        n = len(self.times)
        if len(self.x) != n or len(self.v) != n:
            raise ValueError("times, x, v must have equal length")
        if self.a is not None and len(self.a) != n:
            raise ValueError("a must match times in length")
        if self.runaway_flag and self.growth_rate is None:
            raise ValueError("runaway trajectories must record growth_rate")
        if not self.runaway_flag and self.growth_rate is not None:
            raise ValueError("growth_rate is only recorded for runaways")

    def summary_json(self) -> dict:
        return {
            "runaway": self.runaway_flag,
            "growth_rate": self.growth_rate,
            "fit_r2": self.fit_r2,
        }


def characteristic_roots(model: ParticleModel, variant: str = "cutoff") -> list[complex]:
    """Rates s of the homogeneous solutions e^{st}.

    cutoff: M (1/Omega - tau_e) s^3 + M s^2 = 0 -> {0, 0, -1/(1/Omega - tau_e)};
    the third root disappears at Omega = 1/tau_e (second-order point limit).
    abraham_lorentz: {0, 0, +1/tau_e} — the runaway.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if variant == "abraham_lorentz":
        return [0j, 0j, complex(1.0 / model.tau_e)]
    eps = 1.0 / model.Omega - model.tau_e
    if eps == 0.0:
        return [0j, 0j]
    return [0j, 0j, complex(-1.0 / eps)]


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must be a 1D array with at least 2 points")
    if not np.all(np.diff(t) > 0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _rk4_path(deriv, t: np.ndarray, y0: list[float], n_sub: int):
    """Classic RK4 over the grid with n_sub substeps per interval.

    Returns (samples, n_good): samples[i] is the state at t[i]; integration
    stops early (n_good < len(t)) if the state stops being finite.
    """
    dim = len(y0)
    out = np.empty((len(t), dim))
    y = [float(c) for c in y0]
    out[0] = y
    n_good = 1
    for i in range(len(t) - 1):
        h = (t[i + 1] - t[i]) / n_sub
        ti = t[i]
        for k in range(n_sub):
            tk = ti + k * h
            k1 = deriv(tk, y)
            y1 = [y[j] + 0.5 * h * k1[j] for j in range(dim)]
            k2 = deriv(tk + 0.5 * h, y1)
            y2 = [y[j] + 0.5 * h * k2[j] for j in range(dim)]
            k3 = deriv(tk + 0.5 * h, y2)
            y3 = [y[j] + h * k3[j] for j in range(dim)]
            k4 = deriv(tk + h, y3)
            y = [
                y[j] + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range(dim)
            ]
        if not all(math.isfinite(c) for c in y):
            break
        out[n_good] = y
        n_good += 1
    return out, n_good


def _fit_log_growth(times: np.ndarray, a: np.ndarray):
    """Least-squares slope and R^2 of log|a| over the final third."""
    n = len(times)
    start = (2 * n) // 3
    t = times[start:]
    aa = np.abs(a[start:])
    peak = float(np.max(np.abs(a))) if n else 0.0
    mask = np.isfinite(aa) & (aa > 1e-280) & (aa > 1e-14 * peak)
    if np.count_nonzero(mask) < 5:
        return None, None
    t, la = t[mask], np.log(aa[mask])
    slope, intercept = np.polyfit(t, la, 1)
    resid = la - (slope * t + intercept)
    ss_tot = float(np.sum((la - la.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), 1.0
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(r2)


def _classify(times: np.ndarray, a: np.ndarray, tau_e: float):
    fit_rate, fit_r2 = _fit_log_growth(times, a)
    runaway = (
        fit_rate is not None
        and fit_r2 is not None
        and fit_rate > _RUNAWAY_RATE_FACTOR / tau_e
        and fit_r2 > _RUNAWAY_R2
    )
    growth = fit_rate if runaway else None
    return bool(runaway), growth, fit_rate, fit_r2


def _rk4_known(h: np.ndarray, a0: np.ndarray, am: np.ndarray,
               a1: np.ndarray, x0: float, v0: float):
    """RK4 for xdd = a(t) over steps h, from a at each step's start, middle, end.

    With no state feedback the RK4 update collapses to
    v += h/6 (a0 + 4 am + a1) and x += h v + h^2/6 (a0 + 2 am), so the whole
    path is two running sums.
    """
    v = np.cumsum(np.concatenate(([v0], h / 6.0 * (a0 + 4.0 * am + a1))))
    dx = h * v[:-1] + h * h / 6.0 * (a0 + 2.0 * am)
    return np.cumsum(np.concatenate(([x0], dx))), v


def _integrate_known_acceleration(accel, t_grid, x0: float, v0: float,
                                  rtol: float, tau_e: float) -> Trajectory:
    """Integrate xdd = accel(t) by RK4 at the grid step and at half of it.

    accel is sampled once at the quarter points of every interval: the full
    step uses the ends and the middle, the two half steps use all five.  The
    half-step path is returned; StepSizeError is raised when either path
    leaves the finite range or when the two endpoints disagree beyond
    ``rtol`` of the position scale.
    """
    t = _check_grid(t_grid)
    h = np.diff(t)
    quarters = t[:-1, None] + h[:, None] * np.array([0.0, 0.25, 0.5, 0.75])
    samples = np.array([accel(tk) for tk in np.append(quarters.ravel(), t[-1])])
    x_full, v_full = _rk4_known(h, samples[0:-1:4], samples[2::4],
                                samples[4::4], x0, v0)
    x_half, v_half = _rk4_known(np.repeat(0.5 * h, 2), samples[0:-1:2],
                                samples[1::2], samples[2::2], x0, v0)
    if not all(np.all(np.isfinite(p)) for p in (x_full, v_full, x_half, v_half)):
        raise StepSizeError("integration left the finite range (check the drive)")
    scale = float(np.max(np.abs(x_half))) + 1e-300
    if abs(x_full[-1] - x_half[-1]) > rtol * scale:
        raise StepSizeError(
            f"step too large: halving the step moves the endpoint by "
            f"{abs(x_full[-1] - x_half[-1]):.3e} (> {rtol:g} of scale {scale:.3e})"
        )
    a = samples[::4]
    runaway, growth, fit_rate, fit_r2 = _classify(t, a, tau_e)
    return Trajectory(times=t, x=x_half[::2], v=v_half[::2], a=a,
                      runaway_flag=runaway, growth_rate=growth,
                      fit_rate=fit_rate, fit_r2=fit_r2)


def integrate_point_limit(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0,
                          rtol: float = 1e-8) -> Trajectory:
    """Integrate M xdd = f + tau_e fdot with fixed-step RK4.

    The acceleration is the closed form (f + tau_e fdot)/M, so runaways are
    impossible; the solution for given (x0, v0) is unique.  The step check
    integrates again at half step and raises StepSizeError when the
    endpoints disagree beyond ``rtol`` of the position scale.
    """
    tau_e = model.tau_e
    M = model.M

    def accel(tk: float) -> float:
        return (sig.f(tk) + tau_e * sig.fdot(tk)) / M

    return _integrate_known_acceleration(accel, t_grid, x0, v0, rtol, tau_e)


def integrate_third_order(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0, a0: float = 0.0,
                          variant: str = "cutoff") -> Trajectory:
    """Integrate the third-order equation of motion from (x0, v0, a0).

    variant="cutoff": M (1/Omega - tau_e) xddd + M xdd = f + fdot/Omega.
    variant="abraham_lorentz": -M tau_e xddd + M xdd = f.

    At Omega = 1/tau_e the third-order term vanishes identically and the
    integration delegates to ``integrate_point_limit`` (a0 is then fixed by
    the equation itself, not by the caller).  Overflow mid-run truncates
    the trajectory and reports it as a runaway.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    t = _check_grid(t_grid)
    tau_e = model.tau_e
    M = model.M

    if variant == "cutoff":
        inv_Om = 1.0 / model.Omega
        eps = inv_Om - tau_e
        if eps == 0.0:
            return integrate_point_limit(sig, model, t, x0=x0, v0=v0)
    else:
        inv_Om = 0.0
        eps = -tau_e

    Meps = M * eps

    def deriv(tk: float, y):
        f_eff = sig.f(tk) + inv_Om * sig.fdot(tk)
        return [y[1], y[2], (f_eff - M * y[2]) / Meps]

    h = float(np.max(np.diff(t)))
    n_sub = max(1, math.ceil(h / (0.2 * abs(eps))))
    if n_sub * (len(t) - 1) > _MAX_INTERNAL_STEPS:
        raise StepSizeError(
            f"time grid needs {n_sub} substeps per interval to resolve the "
            f"stiff rate 1/|1/Omega - tau_e| = {1.0 / abs(eps):.3e}; refine "
            "or shorten the grid"
        )
    path, n_good = _rk4_path(deriv, t, [x0, v0, a0], n_sub=n_sub)
    truncated = n_good < len(t)
    t_used = t[:n_good]
    x, v, a = path[:n_good, 0], path[:n_good, 1], path[:n_good, 2]
    runaway, growth, fit_rate, fit_r2 = _classify(t_used, a, tau_e)
    if truncated:
        runaway = True
        if growth is None:
            growth = fit_rate if fit_rate is not None else math.inf
    return Trajectory(times=t_used, x=x, v=v, a=a,
                      runaway_flag=runaway, growth_rate=growth,
                      fit_rate=fit_rate, fit_r2=fit_r2)


_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(48)


def bounded_al_acceleration(sig: ForceSignal, model: ParticleModel,
                            t: float) -> float:
    """The runaway-free Abraham-Lorentz acceleration at time t.

    a(t) = (1/M) int_0^inf e^{-u} f(t + u tau_e) du, evaluated with 48-node
    Gauss-Laguerre quadrature (exact for polynomial drives of degree < 96,
    and accurate to machine precision for slow drives omega tau_e << 1).
    """
    tau_e = model.tau_e
    total = 0.0
    for u, w in zip(_LAGUERRE_NODES, _LAGUERRE_WEIGHTS):
        total += w * sig.f(t + u * tau_e)
    return total / model.M


def bounded_al_trajectory(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0,
                          rtol: float = 1e-8) -> Trajectory:
    """Integrate x using the bounded Abraham-Lorentz acceleration.

    The acceleration is a known smooth function of time (no state
    feedback), so the trajectory exists for all times and never runs away.
    The step check is the one of ``integrate_point_limit``.
    """
    return _integrate_known_acceleration(
        lambda tk: bounded_al_acceleration(sig, model, tk), t_grid, x0, v0,
        rtol, model.tau_e)
