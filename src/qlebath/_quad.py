"""Globally adaptive Gauss–Kronrod quadrature over array integrands.

One embedded G10/K21 rule (QUADPACK's nodes) is applied to every panel, and
each pass evaluates the 21 nodes of every newly split panel in a single call
of the integrand, which takes and returns float64 arrays.  A panel's error
is |K21 - G10| itself, without QUADPACK's (200 e)^1.5 rescaling, so the
returned estimate bounds the error instead of guessing it.  See Shampine,
J. Comput. Appl. Math. 211, 131 (2008), and Gander & Gautschi, BIT 40, 84
(2000).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

# Kronrod nodes on [-1, 1], outermost first; the odd-indexed ones are the
# Gauss nodes.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208931596981, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651146])

# All 21 nodes, left to right, and the weights of K21 and of K21 - G10 as
# the two columns of one matrix.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_WEIGHTS = np.zeros((21, 2))
_WEIGHTS[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS[1:10:2, 1] = -_WG
_WEIGHTS[11:20:2, 1] = -_WG[::-1]
_WEIGHTS[:, 1] += _WEIGHTS[:, 0]

# Largest number of panels one integral may split into.
_MAX_PANELS = 1000


def _rule(f, lo, hi, tail, tail_start, tail_scale):
    """Kronrod sums and |K - G| of the panels [lo, hi].

    Tail panels live in t in [0, 1), where x = tail_start + tail_scale
    t / (1 - t); the Kronrod nodes never reach t = 1.
    """
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _NODES
    if tail.any():
        s = 1.0 / (1.0 - x[tail])
        x[tail] = tail_start + tail_scale * x[tail] * s
        jac = np.ones_like(x)
        jac[tail] = tail_scale * s * s
        y = f(x.ravel()).reshape(x.shape) * jac
    else:
        y = f(x.ravel()).reshape(x.shape)
    sums = (y @ _WEIGHTS) * half[:, None]
    if not np.isfinite(sums).all():
        # every Kronrod weight is positive, so a bad node spoils its sum
        bad = x[~np.isfinite(y)]
        where = f" at x = {bad[0]:.6g}" if bad.size else ""
        raise QuadratureError(f"integrand is not finite{where}",
                              achieved=np.inf)
    return sums[:, 0], np.abs(sums[:, 1])


def quad(f, breakpoints, *, epsabs: float = 0.0, epsrel: float = 1e-10):
    """Integrate the array function f over consecutive breakpoint panels.

    ``breakpoints`` is increasing; a final ``inf`` maps the last panel to
    t in [0, 1) with x = b + |b| t / (1 - t), b the last finite breakpoint
    (|b| = 1 when b = 0).  Each pass bisects the panel with the largest
    |K - G| and every panel whose |K - G| exceeds the mean share tol /
    n_panels, until the summed |K - G| is at most tol = max(epsabs,
    epsrel |total|).  Returns (value, error estimate, info) with
    info["neval"] the number of nodes evaluated and info["panels"] the final
    panel count.  Raises QuadratureError, with ``achieved`` set, when the
    panel budget runs out, a panel can no longer be split, or f is not
    finite at a node.
    """
    pts = np.asarray(breakpoints, dtype=float)
    tail_start, tail_scale = np.inf, 1.0
    if pts[-1] == np.inf:
        pts = pts[:-1]
        tail_start = pts[-1]
        tail_scale = abs(tail_start) or 1.0
    keep = pts[1:] > pts[:-1]
    lo, hi = pts[:-1][keep], pts[1:][keep]
    tail = np.zeros(lo.size, dtype=bool)
    if tail_start < np.inf:
        lo, hi, tail = np.append(lo, 0.0), np.append(hi, 1.0), np.append(tail, True)
    val, err = _rule(f, lo, hi, tail, tail_start, tail_scale)
    neval = _NODES.size * lo.size
    while True:
        total, achieved = val.sum(), err.sum()
        tol = max(epsabs, epsrel * abs(total))
        if achieved <= tol:
            return float(total), float(achieved), {"neval": neval,
                                                   "panels": lo.size}
        split = err > tol / err.size
        split[err.argmax()] = True
        idx = np.flatnonzero(split)
        room = _MAX_PANELS - err.size
        if idx.size > room:
            idx = np.argsort(err)[::-1][:room]
        a, b = lo[idx], hi[idx]
        mid = 0.5 * (a + b)
        if idx.size == 0 or not ((a < mid) & (mid < b)).all():
            why = (f"budget of {_MAX_PANELS} panels exhausted" if idx.size == 0
                   else "a panel is too narrow to split")
            raise QuadratureError(
                f"quadrature failed ({why}): error {achieved:.3g} above the "
                f"requested {tol:.3g}", achieved=float(achieved))
        # the left halves replace their parents; the right halves go last
        k = idx.size
        new_val, new_err = _rule(f, np.concatenate((a, mid)),
                                 np.concatenate((mid, b)),
                                 np.concatenate((tail[idx], tail[idx])),
                                 tail_start, tail_scale)
        neval += _NODES.size * 2 * k
        hi[idx] = mid
        val[idx] = new_val[:k]
        err[idx] = new_err[:k]
        lo = np.concatenate((lo, mid))
        hi = np.concatenate((hi, b))
        tail = np.concatenate((tail, tail[idx]))
        val = np.concatenate((val, new_val[k:]))
        err = np.concatenate((err, new_err[k:]))
