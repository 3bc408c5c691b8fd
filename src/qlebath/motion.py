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
endpoint disagreement is the step check.  The third-order equations are
linear, so an RK4 substep maps a to r a + g, and x, v are the same running
sums over the stage values of a.  Drives are sampled on arrays of times.
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
_MAX_INTERNAL_STEPS = 2_000_000
_RUNAWAY_RATE_FACTOR = 1e-3  # flag when fitted rate > this / tau_e
_RUNAWAY_R2 = 0.99
_BLOCK_SUBSTEPS = 8192  # third-order substeps per block: bounds the working set


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


def _rk4_known(h: np.ndarray, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray,
               a4: np.ndarray, x0: float, v0: float):
    """RK4 x and v paths over steps h, given the acceleration at the four stages.

    The RK4 update of (x, v) with x' = v, v' = a is
    v += h/6 (a1 + 2 a2 + 2 a3 + a4) and x += h v + h^2/6 (a1 + a2 + a3), so
    the whole path is two running sums.  For a known a(t) the stages are
    (a0, a_mid, a_mid, a1).
    """
    v = np.cumsum(np.concatenate(([v0], h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4))))
    dx = h * v[:-1] + h * h / 6.0 * (a1 + a2 + a3)
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
    t = check_time_grid(t_grid)
    h = np.diff(t)
    quarters = t[:-1, None] + h[:, None] * np.array([0.0, 0.25, 0.5, 0.75])
    samples = accel(np.append(quarters.ravel(), t[-1]))
    x_full, v_full = _rk4_known(h, samples[0:-1:4], samples[2::4],
                                samples[2::4], samples[4::4], x0, v0)
    x_half, v_half = _rk4_known(np.repeat(0.5 * h, 2), samples[0:-1:2],
                                samples[1::2], samples[1::2], samples[2::2],
                                x0, v0)
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


def _third_order_path(source, q: float, t: np.ndarray, n_sub: int,
                      x: float, v: float, a: float):
    """Classic RK4 for x' = v, v' = a, a' = q a + source(t) with n_sub
    substeps per grid interval, in blocks of _BLOCK_SUBSTEPS substeps.

    A substep of size h maps a to r a + g, r = 1 + z + z^2/2 + z^3/6 + z^4/24
    (z = q h), g its value from a = 0: the only sequential loop.  The stage
    values are arrays and x, v running sums (``_rk4_known``).  Returns the
    (x, v, a) samples at t and n_good, which stops before the first grid
    point where the state is not finite."""
    out = np.empty((len(t), 3))
    out[0] = x, v, a
    a = float(a)  # a Python float overflows to inf without a warning
    h_int = np.diff(t) / n_sub
    r_int = np.polyval([1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0], q * h_int)
    n_steps = n_sub * len(h_int)
    for k0 in range(0, n_steps, _BLOCK_SUBSTEPS):
        k1 = min(k0 + _BLOCK_SUBSTEPS, n_steps)
        # interval of each substep start (and of the block's end), place in it
        i, j = np.divmod(np.arange(k0, k1 + 1), n_sub)
        h_all = h_int[np.minimum(i, len(h_int) - 1)]
        starts, h = t[i] + j * h_all, h_all[:-1]
        s = source(np.concatenate((starts, starts[:-1] + 0.5 * h)))
        s0, s1, sm = s[:k1 - k0], s[1:k1 - k0 + 1], s[k1 - k0 + 1:]
        k2 = q * (0.5 * h * s0) + sm
        k3 = q * (0.5 * h * k2) + sm
        g = (h / 6.0 * (s0 + 2.0 * k2 + 2.0 * k3 + q * (h * k3) + s1)).tolist()
        # r is constant within an interval: one inner loop per interval
        cuts = (np.flatnonzero(np.diff(i[:-1])) + 1).tolist()
        a_starts = []
        for rk, lo, hi in zip(r_int[i[[0] + cuts]].tolist(), [0] + cuts,
                              cuts + [len(g)]):
            for gk in g[lo:hi]:
                a_starts.append(a)
                a = rk * a + gk
        with np.errstate(over="ignore", invalid="ignore"):
            a1 = np.fromiter(a_starts, float, len(a_starts))
            a2 = a1 + 0.5 * h * (q * a1 + s0)
            a3 = a1 + 0.5 * h * (q * a2 + sm)
            a4 = a1 + h * (q * a3 + sm)
            xs, vs = _rk4_known(h, a1, a2, a3, a4, x, v)
        on_grid = np.flatnonzero(j[1:] == 0) + 1  # block points on the grid
        block = np.column_stack((xs, vs, np.append(a1, a)))[on_grid]
        # the rows before the first one that is not finite
        n_ok = int(np.argmin(np.append(np.isfinite(block).all(axis=1), False)))
        out[i[on_grid[:n_ok]]] = block[:n_ok]
        if n_ok < len(block):
            return out, int(i[on_grid[n_ok]])
        x, v = xs[-1], vs[-1]
    return out, len(t)


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

    def accel(t: np.ndarray) -> np.ndarray:
        return (sig.f(t) + tau_e * sig.fdot(t)) / M

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
    t = check_time_grid(t_grid)
    tau_e = model.tau_e

    if variant == "cutoff":
        inv_Om = 1.0 / model.Omega
        eps = inv_Om - tau_e
        if eps == 0.0:
            return integrate_point_limit(sig, model, t, x0=x0, v0=v0)
    else:
        inv_Om = 0.0
        eps = -tau_e

    def source(tk: np.ndarray) -> np.ndarray:
        return (sig.f(tk) + inv_Om * sig.fdot(tk)) / (model.M * eps)

    h = float(np.max(np.diff(t)))
    n_sub = max(1, math.ceil(h / (0.2 * abs(eps))))
    if n_sub * (len(t) - 1) > _MAX_INTERNAL_STEPS:
        raise StepSizeError(
            f"time grid needs {n_sub} substeps per interval to resolve the "
            f"stiff rate 1/|1/Omega - tau_e| = {1.0 / abs(eps):.3e}; refine "
            "or shorten the grid"
        )
    path, n_good = _third_order_path(source, -1.0 / eps, t, n_sub, x0, v0, a0)
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
    The step check is the one of ``integrate_point_limit``.
    """
    return _integrate_known_acceleration(
        lambda tk: bounded_al_acceleration(sig, model, tk), t_grid, x0, v0,
        rtol, model.tau_e)
