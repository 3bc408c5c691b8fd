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

Every integration takes one step per grid interval on the same rule: the
drive is sampled once at the quarter points of each interval, and the step
is exact for the quartic through those five samples (Hochbruck & Ostermann,
Acta Numerica 19, 209 (2010)).  The third-order equations are linear,
a' = q a + s(t): however stiff q is, each step is an exact exponential step,
a is a scalar recurrence and x, v are running sums.  The point-limit and
bounded solutions have an acceleration that is an explicit function of time
(no state feedback), the q = 0 case of the same step: v and x are running
sums, v's by Boole's rule, and Simpson's rule on the same samples is the
step check.  Drives are sampled on arrays of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._grid import check_time_grid
from .errors import StepSizeError
from .response import ParticleModel

_VARIANTS = ("cutoff", "abraham_lorentz")
_RUNAWAY_RATE_FACTOR = 1e-3  # flag when fitted rate > this / tau_e
_RUNAWAY_R2 = 0.99
_QUARTERS = np.array([0.0, 0.25, 0.5, 0.75])
# phi_7's Taylor coefficients 1/(j + 7)!, highest power first: rounding for |z| < 5
_PHI7_TAYLOR = np.array([1.0 / math.factorial(j + 7) for j in range(29, -1, -1)])
# row i: the Lagrange polynomial of the quarter point i/4, sum_k l_ik s^k, as
# l_ik k!, so that int_0^1 e^{z (1 - s)} l_i(s) ds = sum_k l_ik k! phi_{k+1}(z)
_LAGRANGE = np.array([[3, -25, 140, -480, 768], [0, 48, -416, 1728, -3072],
                      [0, -36, 456, -2304, 4608], [0, 16, -224, 1344, -3072],
                      [0, -3, 44, -288, 768]]) / 3.0
# phi_{k+1}(0) = 1/(k+1)! and phi_{k+2}(0): c_k's weights in a q = 0 step
_PHI_AT_ZERO = 1.0 / np.array([[math.factorial(k + 1), math.factorial(k + 2)]
                               for k in range(5)])
# Simpson's v and x weights of the samples at s = 0, 1/2, 1, for the step check
_SIMPSON = np.array([[1.0, 1.0], [4.0, 2.0], [1.0, 0.0]]) / 6.0


@dataclass(frozen=True)
class ForceSignal:
    """A drive f(t) with its analytic derivative.

    ``f`` and ``fdot`` map a float64 array of times to values of its shape
    (scalars work too), and ``fdot`` must be the derivative of ``f``.
    ``fddot``, an optional second derivative, is kept for callers only.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fdot: Callable[[np.ndarray], np.ndarray]
    fddot: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"


def zero_force() -> ForceSignal:
    return ForceSignal(f=lambda t: np.zeros(np.shape(t)),
                       fdot=lambda t: np.zeros(np.shape(t)), name="zero")


def constant_with_ramp(f0: float, t_ramp: float) -> ForceSignal:
    """Force rising smoothly from 0 to f0 over [0, t_ramp], constant after.

    A true step would inject a delta through the tau_e fdot term; the ramp
    keeps the drive C^2 while preserving the integrated impulse
    int tau_e fdot dt = tau_e f0 independent of the ramp duration.
    """
    if t_ramp <= 0:
        raise ValueError("t_ramp must be > 0")

    # Quintic smoothstep of u = t / t_ramp clipped to [0, 1]: C^2, exactly 0
    # and f0 outside the ramp, with s' = s'' = 0 at both ends.
    def f(t):
        u = np.clip(np.asarray(t, dtype=float) / t_ramp, 0.0, 1.0)
        return f0 * (u * u * u * (10.0 + u * (-15.0 + 6.0 * u)))

    def fdot(t):
        u = np.clip(np.asarray(t, dtype=float) / t_ramp, 0.0, 1.0)
        return f0 * (30.0 * u * u * (1.0 - u) ** 2) / t_ramp

    return ForceSignal(f=f, fdot=fdot, name="ramped_constant")


def sinusoid(f0: float, omega_d: float) -> ForceSignal:
    """f0 sin(omega_d t) for all t."""
    if omega_d <= 0:
        raise ValueError("omega_d must be > 0")
    return ForceSignal(
        f=lambda t: f0 * np.sin(omega_d * np.asarray(t, dtype=float)),
        fdot=lambda t: f0 * omega_d * np.cos(omega_d * np.asarray(t, dtype=float)),
        name="sinusoid",
    )


def gaussian_pulse(f0: float, t0: float, sigma: float) -> ForceSignal:
    """f0 exp(-(t - t0)^2 / 2 sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")

    def f(t):
        return f0 * np.exp(-0.5 * ((np.asarray(t, dtype=float) - t0) / sigma) ** 2)

    def fdot(t):
        return -f(t) * (np.asarray(t, dtype=float) - t0) / sigma ** 2

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
    a: np.ndarray
    runaway_flag: bool = False
    growth_rate: float | None = None
    fit_rate: float | None = None
    fit_r2: float | None = None

    def __post_init__(self):
        n = len(self.times)
        if not len(self.x) == len(self.v) == len(self.a) == n:
            raise ValueError("times, x, v, a must have equal length")
        if self.runaway_flag and self.growth_rate is None:
            raise ValueError("runaway trajectories must record growth_rate")
        if not self.runaway_flag and self.growth_rate is not None:
            raise ValueError("growth_rate is only recorded for runaways")

    def summary_json(self) -> dict:
        """The sidecar summary: a rate that overflowed unfitted (inf) is null."""
        growth = self.growth_rate
        return {
            "runaway": self.runaway_flag,
            "growth_rate": growth if growth != math.inf else None,
            "fit_r2": self.fit_r2,
        }


def _fit_log_growth(times: np.ndarray, a: np.ndarray):
    """Least-squares slope and R^2 of log|a| over the final third, from
    centred sums.

    Points more than 14 decades below the largest |a| reached up to them are
    left out: there |a| is rounding noise left by a decay from an earlier
    peak.  A runaway never falls below its own past, so even a coarse grid
    keeps every point of its final third.
    """
    n = len(times)
    start = (2 * n) // 3
    t = times[start:]
    aa = np.abs(a[start:])
    peak_so_far = np.maximum.accumulate(np.abs(a))[start:]
    mask = np.isfinite(aa) & (aa > 1e-280) & (aa > 1e-14 * peak_so_far)
    if np.count_nonzero(mask) < 5:
        return None, None
    t, la = t[mask] - t[mask].mean(), np.log(aa[mask])
    la -= la.mean()
    slope = float(t @ la) / float(t @ t)
    ss_tot = float(la @ la)
    if ss_tot == 0.0:
        return slope, 1.0
    resid = la - slope * t
    return slope, 1.0 - float(resid @ resid) / ss_tot


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


def _interval_samples(fn, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """fn at the quarter points of each grid interval, a row of 5, one call."""
    s = fn(np.append((t[:-1, None] + h[:, None] * _QUARTERS).ravel(), t[-1]))
    return np.column_stack((s[:-1].reshape(-1, 4), s[4::4]))


def _integrate_known_acceleration(accel, t_grid, x0: float, v0: float,
                                  rtol: float, tau_e: float) -> Trajectory:
    """Integrate xdd = accel(t) exactly for accel interpolated at the quarter
    points of every grid interval.

    This is ``_exponential_path`` at q = 0 with the roles shifted (x as v, v
    as a): phi_k(0) = 1/k!, so v += h sum_k c_k/(k+1)!, which is Boole's
    rule, and x += h v + h^2 sum_k c_k/(k+2)!.  StepSizeError is raised when
    the path leaves the finite range, or when its endpoint and that of
    Simpson's rule on each interval's ends and middle differ beyond ``rtol``
    of the position scale.
    """
    t = check_time_grid(t_grid)
    h = np.diff(t)
    samples = _interval_samples(accel, t, h)
    steps = np.array([h, h * h])
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        increments = (samples @ _LAGRANGE @ _PHI_AT_ZERO).T * steps
        dv, dx = increments
        v = np.cumsum(np.append(v0, dv))
        x = np.cumsum(np.append(x0, h * v[:-1] + dx))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise StepSizeError("integration left the finite range (check the drive)")
    scale = float(np.max(np.abs(x))) + 1e-300
    # v += dv, x += h v + dx ends at x0 + v0 (t[-1] - t[0])
    # + sum_j (dv_j (t[-1] - t[j+1]) + dx_j): Simpson's endpoint is off by
    ev, ex = increments - (samples[:, ::2] @ _SIMPSON).T * steps
    gap = abs((t[-1] - t[1:]) @ ev + ex.sum())
    if not gap <= rtol * scale:
        raise StepSizeError(
            f"step too large: Simpson's rule moves the endpoint by {gap:.3e} "
            f"(> {rtol:g} of scale {scale:.3e})")
    a = np.append(samples[:, 0], samples[-1, 4])
    runaway, growth, fit_rate, fit_r2 = _classify(t, a, tau_e)
    return Trajectory(times=t, x=x, v=v, a=a, runaway_flag=runaway,
                      growth_rate=growth, fit_rate=fit_rate, fit_r2=fit_r2)


def _phi(z: np.ndarray) -> np.ndarray:
    """phi_0(z) = e^z, phi_1(z) = (e^z - 1)/z, ..., phi_7(z) as rows.

    The upward recurrence phi_{k+1} = (phi_k - 1/k!)/z loses digits for
    small |z|, so for |z| < 5 phi_7 is its Taylor series and phi_6 ... phi_2
    follow downward, phi_k = z phi_{k+1} + 1/k!, which loses digits for large
    |z|.  Large positive z overflows to inf.
    """
    phi = np.empty((8, len(z)))
    with np.errstate(over="ignore"):
        phi[0] = np.exp(z)
        phi[1] = np.divide(np.expm1(z), z, out=np.ones(len(z)), where=z != 0.0)
    small = np.abs(z) < 5.0
    zs, zl = z[small], z[~small]
    down = [np.vander(zs, len(_PHI7_TAYLOR)) @ _PHI7_TAYLOR]
    for k in range(6, 1, -1):
        down.append(zs * down[-1] + 1.0 / math.factorial(k))
    up = [phi[1, ~small]]
    for k in range(2, 8):
        up.append((up[-1] - 1.0 / math.factorial(k - 1)) / zl)
    phi[2:, small] = down[::-1]
    phi[2:, ~small] = up[1:]
    return phi


def _exponential_path(source, q: float, t: np.ndarray, x: float, v: float,
                      a: float):
    """x' = v, v' = a, a' = q a + source(t) by one exact exponential step per
    grid interval, for source interpolated at the interval's quarter points.

    With z = q h and c_k = k! times the interpolant's s^k coefficient (the
    samples times ``_LAGRANGE``), a+ = e^z a + h sum_k c_k phi_{k+1}(z),
    v+ = v + h phi_1 a + h^2 sum_k c_k phi_{k+2} and x+ = x + h v + h^2 phi_2 a
    + h^3 sum_k c_k phi_{k+3}, phi evaluated once per distinct step.  Overflow
    leaves x, v, a non-finite from that grid point on.
    """
    h = np.diff(t)
    c = (_interval_samples(source, t, h) @ _LAGRANGE).T
    steps, which = np.unique(h, return_inverse=True)
    phi = _phi(q * steps)[:, which]
    with np.errstate(over="ignore", invalid="ignore"):
        # where a step spans > ~709 growth times phi is inf: a coefficient or
        # an acceleration that is exactly 0 still contributes 0
        terms = c * np.stack([phi[j:j + 5] for j in (1, 2, 3)])
        drive = np.where(c == 0.0, 0.0, terms).sum(axis=1)
        a_k = float(a)  # a Python float overflows to inf without a warning
        path = [a_k]
        for r, g in zip(phi[0].tolist(), (h * drive[0]).tolist()):
            a_k = r * a_k + g if a_k else g
            path.append(a_k)
        a = np.array(path)
        phi_a = np.where(a[:-1] == 0.0, 0.0, phi[1:3] * a[:-1])
        v = np.cumsum(np.append(v, h * (phi_a[0] + h * drive[1])))
        x = np.cumsum(np.append(x, h * (v[:-1] + h * (phi_a[1] + h * drive[2]))))
    return x, v, a


def integrate_point_limit(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0,
                          rtol: float = 1e-8) -> Trajectory:
    """Integrate M xdd = f + tau_e fdot, one quarter-point step per grid
    interval.

    The acceleration is the closed form (f + tau_e fdot)/M, so runaways are
    impossible; the solution for given (x0, v0) is unique.  The step check
    raises StepSizeError when Simpson's rule on the same samples moves the
    endpoint beyond ``rtol`` of the position scale.
    """
    return _integrate_known_acceleration(
        lambda tk: (sig.f(tk) + model.tau_e * sig.fdot(tk)) / model.M, t_grid,
        x0, v0, rtol, model.tau_e)


def integrate_third_order(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0, a0: float = 0.0,
                          variant: str = "cutoff",
                          rtol: float = 1e-8) -> Trajectory:
    """Integrate the third-order equation of motion from (x0, v0, a0).

    variant="cutoff": M (1/Omega - tau_e) xddd + M xdd = f + fdot/Omega.
    variant="abraham_lorentz": -M tau_e xddd + M xdd = f.

    When 1/Omega equals tau_e to rounding the third-order term vanishes and
    the integration delegates to ``integrate_point_limit`` with step check
    ``rtol`` (a0 is then fixed by the equation itself, not by the caller).
    Overflow mid-run truncates the trajectory and reports it as a runaway.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    t = check_time_grid(t_grid)
    tau_e = model.tau_e
    inv_Om = 1.0 / model.Omega if variant == "cutoff" else 0.0
    eps = inv_Om - tau_e
    if abs(eps) <= math.ulp(tau_e):
        return integrate_point_limit(sig, model, t, x0=x0, v0=v0, rtol=rtol)
    x, v, a = _exponential_path(  # Abraham-Lorentz (inv_Om = 0): no fdot term
        lambda tk: (sig.f(tk) + inv_Om * sig.fdot(tk) if inv_Om else sig.f(tk))
        / (model.M * eps), -1.0 / eps, t, x0, v0, a0)
    # a state that overflowed stays non-finite: the first n rows are kept
    n = np.count_nonzero(np.isfinite(x) & np.isfinite(v) & np.isfinite(a))
    runaway, growth, fit_rate, fit_r2 = _classify(t[:n], a[:n], tau_e)
    if n < len(t):
        runaway = True
        if growth is None:
            growth = fit_rate if fit_rate is not None else math.inf
    return Trajectory(times=t[:n], x=x[:n], v=v[:n], a=a[:n],
                      runaway_flag=runaway, growth_rate=growth,
                      fit_rate=fit_rate, fit_r2=fit_r2)


_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(48)


def bounded_al_acceleration(sig: ForceSignal, model: ParticleModel, t):
    """The runaway-free Abraham-Lorentz acceleration at time(s) t.

    a(t) = (1/M) int_0^inf e^{-u} f(t + u tau_e) du, evaluated with 48-node
    Gauss-Laguerre quadrature (exact for polynomial drives of degree < 96,
    and accurate to machine precision for slow drives omega tau_e << 1).
    t may be a scalar or an array; the result has its shape.
    """
    nodes = np.add.outer(t, _LAGUERRE_NODES * model.tau_e)
    return sig.f(nodes) @ _LAGUERRE_WEIGHTS / model.M


def bounded_al_trajectory(sig: ForceSignal, model: ParticleModel, t_grid,
                          x0: float = 0.0, v0: float = 0.0,
                          rtol: float = 1e-8) -> Trajectory:
    """Integrate x using the bounded Abraham-Lorentz acceleration.

    The acceleration is a known smooth function of time (no state
    feedback), so the trajectory exists for all times and never runs away.
    x and v take the quarter-point steps of ``integrate_point_limit``, with
    its Simpson step check.
    """
    return _integrate_known_acceleration(
        lambda tk: bounded_al_acceleration(sig, model, tk), t_grid, x0, v0,
        rtol, model.tau_e)
