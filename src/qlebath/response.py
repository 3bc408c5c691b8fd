"""Linear response of the damped oscillator: susceptibility, poles, causality.

The position response to an external force is alpha(z) = 1/D(z) with

    D(z) = -m z^2 - i z mu(z) + K,    mu(z) = (a0 + a1 z)/(b0 + b1 z).

D, D' and the pole polynomial are written once, from the kernel's four
``coefficients`` and (m, K); ``spectrum`` gives the poles, their residues
and lam_b once for every reader.  Here m is the mass multiplying the second
derivative, and ``mass_for_kernel`` is the one place that tells kernels
apart.  For the blackbody kernel m is the *bare* mass M (1 - tau_e Omega) —
the radiation field carries the rest of the observed inertia — while
low-frequency response and the oscillation frequency omega_0 = sqrt(K/M) are
governed by the observed mass M.  For the Ohmic and single-relaxation kernels
no renormalization occurs and m is the observed mass itself.

Causality is equivalent to every pole of alpha lying in the open lower half
plane, which for the blackbody kernel happens exactly when the bare mass is
positive, i.e. Omega < 1/tau_e.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AcausalCutoffWarning, PoleEvaluationError
from .kernels import (
    DIMENSIONLESS, BlackbodyKernel, MemoryKernel, PhysicalConstants,
    _check_upper_half)


@dataclass(frozen=True)
class ParticleModel:
    """Charged oscillator: observed mass M, spring constant K, cutoff Omega."""

    M: float
    K: float
    Omega: float
    constants: PhysicalConstants = DIMENSIONLESS

    def __post_init__(self):
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ValueError("M must be positive and finite")
        if self.K < 0 or not math.isfinite(self.K):
            raise ValueError("K must be >= 0 and finite")
        if not (self.Omega > 0 and math.isfinite(self.Omega)):
            raise ValueError("Omega must be positive and finite")

    @property
    def tau_e(self) -> float:
        """Radiation-reaction time 2 e^2 / (3 M c^3)."""
        k = self.constants
        return 2.0 * k.e ** 2 / (3.0 * self.M * k.c ** 3)

    @property
    def m_bare(self) -> float:
        """Bare mass M (1 - tau_e Omega); emits AcausalCutoffWarning if < 0."""
        return bare_mass(self.M, self.Omega, self.constants)

    @property
    def omega_0(self) -> float:
        """Oscillation frequency sqrt(K/M) of the observed-mass oscillator."""
        ratio = self.K / self.M
        if math.isinf(ratio):       # K/M past the float range, not its root
            return math.sqrt(self.K) / math.sqrt(self.M)
        return math.sqrt(ratio)

    @property
    def is_causal(self) -> bool:
        """True when Omega <= 1/tau_e (bare mass >= 0): the point limit is causal."""
        return self.Omega * self.tau_e <= 1.0

    @classmethod
    def point_limit(cls, M: float, K: float,
                    constants: PhysicalConstants = DIMENSIONLESS) -> "ParticleModel":
        """Model at the largest causal cutoff, Omega = 1/tau_e (point electron)."""
        tau_e = 2.0 * constants.e ** 2 / (3.0 * M * constants.c ** 3)
        return cls(M=M, K=K, Omega=1.0 / tau_e, constants=constants)

    def kernel(self) -> BlackbodyKernel:
        """The blackbody kernel matching this particle's cutoff and mass."""
        return BlackbodyKernel(Omega=self.Omega, constants=self.constants, M=self.M)


def bare_mass(M: float, Omega: float,
              constants: PhysicalConstants = DIMENSIONLESS) -> float:
    """Bare mass m = M (1 - tau_e Omega), from M = m + (2 e^2/3 c^3) Omega.

    Warns (AcausalCutoffWarning) when the result is < 0, i.e. the cutoff is
    above 1/tau_e: the model then has a runaway pole in the upper half
    plane (the point limit Omega = 1/tau_e gives m = 0 and is causal).
    Callers may proceed for demonstration runs; the sign of the returned
    mass carries the flag.
    """
    tau_e = 2.0 * constants.e ** 2 / (3.0 * M * constants.c ** 3)
    m = M * (1.0 - tau_e * Omega)
    if m < 0:
        warnings.warn(
            f"bare mass {m:.6g} < 0 at Omega = {Omega:.6g} > 1/tau_e = "
            f"{1.0 / tau_e:.6g}: model is acausal (runaway pole)",
            AcausalCutoffWarning,
            stacklevel=2,
        )
    return m


def mass_for_kernel(kernel: MemoryKernel, model: ParticleModel) -> float:
    """Mass multiplying z^2 in D(z): bare for blackbody, observed otherwise."""
    if isinstance(kernel, BlackbodyKernel):  # bare_mass without its warning
        return model.M * (1.0 - model.tau_e * model.Omega)
    return kernel.mass


def denominator_closure(kernel: MemoryKernel, model: ParticleModel):
    """Evaluator z -> (D(z), D'(z)) for Im z >= 0, on scalars or arrays.

    With n = -i a, f(z) = -i mu(z) = (n0 + n1 z)/(b0 + b1 z) and
    D(z) = z f(z) + K - m z^2, D'(z) = f(z) + z (n1 b0 - n0 b1)/(b0 + b1 z)^2 - 2 m z.
    The spectral quadratures call it once per adaptive pass with every node
    of the pass in one array.
    """
    m = mass_for_kernel(kernel, model)
    K = model.K
    a0, a1, b0, b1 = kernel.coefficients
    n0, n1 = -1j * a0, -1j * a1
    c = n1 * b0 - n0 * b1
    m2 = 2.0 * m

    def D_Dp(om):
        q = 1.0 / (b0 + b1 * om)
        f = (n0 + n1 * om) * q
        return om * f + (K - m * om * om), f + om * c * q * q - m2 * om

    return D_Dp


def susceptibility(kernel: MemoryKernel, model: ParticleModel, z):
    """alpha(z) = 1/D(z) for finite z with Im z >= 0 (else ValueError), 0
    where |D| overflows.  Raises PoleEvaluationError, naming the first such
    z, when D = 0 or |D| < 1e-14 |z D'|: z within ~1e-14 |z| of a pole.
    """
    z = _check_upper_half(z)
    with np.errstate(over="ignore"):
        D, Dp = denominator_closure(kernel, model)(z)
        bad = (D == 0) | (np.abs(D) < 1e-14 * np.abs(z * Dp))
    if np.any(bad):
        raise PoleEvaluationError("susceptibility evaluated on a pole (to "
                                  f"rounding): z = {complex(z[bad][0])}")
    val = 1.0 / D
    return complex(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class PoleReport:
    """Poles of alpha(z) and the causality verdict.

    ``causal`` is True iff every pole lies strictly below the real axis —
    except real-axis poles within the marginal tolerance (an undamped
    oscillator), which set ``marginal`` and leave the verdict causal.
    ``max_im`` is -inf when there are no poles, null in ``to_json``.
    """

    poles: tuple[complex, ...]
    causal: bool
    max_im: float
    marginal: bool

    def to_json(self) -> dict:
        return {
            "poles": [[z.real, z.imag] for z in self.poles],
            "causal": self.causal,
            "max_im": self.max_im if self.poles else None,
            "marginal": self.marginal,
        }


def _rate_polynomial(kernel: MemoryKernel, model: ParticleModel) -> list[float]:
    """Real coefficients, highest power first, of (m lam^2 + K)(b0 - i b1 lam)
    - lam (a0 - i a1 lam) = D(-i lam) (b0 - i b1 lam) over the phase of b0
    (mu(-i lam) is real for real lam): its roots lam are the poles -i lam of
    alpha; the cleared factor's zero is not one.  Decoupled: no factor.
    """
    m = mass_for_kernel(kernel, model)
    K = model.K
    a0, a1, b0, b1 = kernel.coefficients
    if a0 == 0 and a1 == 0:
        return [m, 0.0, K]
    unit = complex(b0).conjugate() / abs(b0)
    return [(c * unit).real for c in (-1j * m * b1, m * b0 + 1j * a1,
                                      -1j * K * b1 - a0, K * b0)]


def _horner(q, x):
    """q(x) and q'(x) for coefficients q, highest power first."""
    value, slope = q[0], 0.0
    for c in q[1:]:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _outer_real_root(c2: float, c1: float, c0: float) -> float:
    """A real root of x^3 + c2 x^2 + c1 x + c0 by Newton's method: convex
    right of the inflection point -c2/3 and concave left of it, the cubic
    takes iterates from beyond its outermost root on the side where it
    changes sign monotonically onto that root.  They start from the dominant
    balance x = -c2 (the cutoff or runaway root when it dwarfs the others)
    if it lies beyond that root, else from the Fujiwara bound, and go on
    past the monotone phase while the steps shrink.  Past a bound of 2^300
    the root is found as x/2^k, 2^k near the bound, so that x^3 stays in the
    float range; scaling by a power of two rounds nothing.
    """
    bound = 2.0 * max(abs(c2), math.sqrt(abs(c1)), abs(0.5 * c0) ** (1 / 3))
    k = math.frexp(bound)[1] if bound > 2.0 ** 300 else 0
    c2, c1, c0 = (math.ldexp(c, -j * k) for j, c in ((1, c2), (2, c1), (3, c0)))
    q = (1.0, c2, c1, c0)
    side = 1.0 if _horner(q, -c2 / 3.0)[0] < 0.0 else -1.0
    x = -c2
    if not (side * (x + c2 / 3.0) > 0.0 and side * _horner(q, x)[0] > 0.0):
        x = side * math.ldexp(bound, -k)
    step = math.inf
    for _ in range(200):
        f, fp = _horner(q, x)
        monotone = side * f > 0.0 and step == math.inf
        if (fp == 0.0 or x - f / fp == x
                or not (monotone or abs(f / fp) < abs(step))):
            break
        if not monotone:
            step = f / fp
        x -= f / fp
    return math.ldexp(x, k)


def _quadratic_roots(p: float, s: float) -> list:
    """Roots of x^2 + p x + s without cancellation.  Past roots of 2^500,
    where p^2 or 4 s overflows, the discriminant is taken of x/2^k."""
    big = max(abs(p), math.sqrt(abs(s)))
    k = math.frexp(big)[1] if big > 2.0 ** 500 else 0
    pk = math.ldexp(p, -k)
    disc = pk * pk - 4.0 * math.ldexp(s, -2 * k)
    if disc < 0.0:
        half = math.ldexp(0.5 * math.sqrt(-disc), k)
        return [complex(-0.5 * p, half), complex(-0.5 * p, -half)]
    t = math.ldexp(-0.5 * (pk + math.copysign(math.sqrt(disc), pk)), k)
    return [t, s / t] if t != 0.0 else [0.0, 0.0]


def _scaled_monic(q: list[float]) -> tuple[int, list[float]]:
    """e and the coefficients c of u^n + c_1 u^(n-1) + ... + c_n, the rate
    polynomial q (highest power first) in lam = 2^e u over its leading
    coefficient.  e is 0, and c is q_k/q_0, unless a q_k/q_0 overflows (a
    pole pair near 1e200 has q_2/q_0 near 1e400); e is then the exponent of
    Fujiwara's bound on the roots, read off the coefficients' exponents.
    Scaling by a power of two rounds nothing.
    """
    c = [ck / q[0] for ck in q[1:]]
    if all(map(math.isfinite, c)):
        return 0, c
    lead, e0 = math.frexp(q[0])
    parts = [math.frexp(ck) for ck in q[1:]]
    e = max(-((e0 - ek) // k) for k, (mk, ek) in enumerate(parts, 1) if mk)
    return e, [math.ldexp(mk / lead, ek - e0 - k * e)
               for k, (mk, ek) in enumerate(parts, 1)]


def _ldexp(lam, e: int):
    """lam 2^e for a real or complex lam."""
    if isinstance(lam, complex):
        return complex(math.ldexp(lam.real, e), math.ldexp(lam.imag, e))
    return math.ldexp(lam, e)


def decay_rates(kernel: MemoryKernel, model: ParticleModel) -> list:
    """Decay rates lam_k of the poles z_k = -i lam_k of alpha(z): damped
    for Re lam_k > 0, a runaway for Re lam_k < 0; the zero mode lam = 0 of a
    free particle is left out.  A cubic's outer real root is divided out from
    the constant term when it is the larger root, else from the leading term
    (Numerical Recipes, 3rd ed., secs. 5.6, 9.5).  One Newton step on D(z),
    nearly linear in Im z at a narrow line, then gives each root of the
    quadratic left its damping to rounding even where the polynomial lost it
    (a CGS line 50 decades below its cutoff): damping and frequency are good
    to ~20 eps, times |m|/M for a bare mass m < -M.
    """
    q = _rate_polynomial(kernel, model)
    while q and q[0] == 0.0:
        q = q[1:]
    while q and q[-1] == 0.0:
        q = q[:-1]
    if len(q) < 2:
        return []
    e, c = _scaled_monic(q)
    outer = []
    if len(c) == 3:
        r = _outer_real_root(*c)
        outer = [r]
        if r * r * abs(r) >= abs(c[2]):
            s = -c[2] / r
            c = [(s - c[1]) / r, s]
        else:
            p = c[0] + r
            c = [p, c[1] + r * p]
    roots = [-c[0]] if len(c) == 1 else _quadratic_roots(*c)
    try:
        outer = [math.ldexp(r, e) for r in outer]
        roots = [_ldexp(lam, e) for lam in roots]
    except OverflowError:
        raise OverflowError("a pole rate of alpha overflows the float range "
                            f"(|lam| ~ 2^{e})") from None
    if len(c) == 1:
        return roots
    D_Dp = denominator_closure(kernel, model)
    out = []
    for lam in roots:
        if isinstance(lam, complex) and lam.imag < 0.0:
            out.append(out[-1].conjugate())  # second member of a pair
            continue
        if isinstance(lam, complex) and abs(lam.real) <= 1e-8 * abs(lam.imag):
            # a narrow line: step from the real axis, where Im D is not
            # swamped by the rounding of a damping the polynomial may have lost
            lam = complex(0.0, lam.imag)
        try:  # z = -i lam, and the step in lam is i times the one in z
            D, Dp = D_Dp(complex(lam.imag, -lam.real))
            step = 1j * D / Dp
        except (ZeroDivisionError, OverflowError):  # on the kernel's pole
            step = 0j
        if cmath.isfinite(step):
            lam = lam - (step if isinstance(lam, complex) else step.real)
        out.append(lam)
    return outer + out


Spectrum = namedtuple("Spectrum", "rates residues lam_b m c2 g0")


def spectrum(kernel: MemoryKernel, model: ParticleModel) -> Spectrum:
    """The pole data thermo and diffusion read: rates lam_k of the poles
    z_k = -i lam_k (``decay_rates``), residues r_k = 1/D'(z_k), the zero lam_b
    of b0 - i b1 lam (None for Ohmic), D's mass m and, for a free particle,
    c2 = lim z^2 alpha(z) (mu(0) = 0 only) and the impulse response's jump
    g0 = -i lim z alpha(z), z -> infinity (bare mass 0 only).  The rate
    polynomial Q(lam) = u D(-i lam) B(-i lam), B = b0 + b1 z, u = b0*/|b0|,
    gives D'(z_k) = i Q'(lam_k)/(u B(z_k)); within lam_b/2 of lam_b (the
    blackbody cutoff pole is ~tau_e Omega from it) B(z_k) cancels, so there
    B = lam (a0 - i a1 lam)/(m lam^2 + K) from D(z_k) = 0.  A decoupled
    kernel clears no B.  Equal rates give infinite residues.
    """
    m = mass_for_kernel(kernel, model)
    a0, a1, b0, b1 = kernel.coefficients
    lam_b = (b0 / (1j * b1)).real if b1 else None
    unit = complex(b0).conjugate() / abs(b0)
    q = _rate_polynomial(kernel, model)
    rates = tuple(decay_rates(kernel, model))
    residues = []
    for lam in rates:
        if a0 == 0 and a1 == 0:
            uB = 1.0
        elif lam_b is not None and abs(lam - lam_b) < 0.5 * lam_b:
            uB = unit * lam * (a0 - 1j * a1 * lam) / (m * lam * lam + model.K)
        else:
            uB = unit * (b0 - 1j * b1 * lam)
        slope = _horner(q, lam)[1]
        residues.append(-1j * uB / slope if slope else complex(math.inf))
    return Spectrum(rates, tuple(residues), lam_b, m,
                    0.0 if a0 or model.K else (1.0 / (-1j * a1 / b0 - m)).real,
                    0.0 if m else (b1 / a1).real)


def poles_and_causality(kernel: MemoryKernel, model: ParticleModel,
                        marginal_tol: float = 1e-9) -> PoleReport:
    """The poles z = -i lam of alpha (``decay_rates``) and the verdict: a pole
    within ``marginal_tol`` of its own modulus of the real axis is marginal
    (an undamped oscillator) and causal; any other with Im z >= 0 is not.
    """
    poles = sorted((complex(lam.imag, -lam.real) for lam in
                    map(complex, decay_rates(kernel, model))),
                   key=lambda z: (z.imag, z.real))
    on_axis = [abs(z.imag) <= marginal_tol * abs(z) for z in poles]
    causal = all(z.imag < 0.0 or flat for z, flat in zip(poles, on_axis))
    return PoleReport(poles=tuple(poles), causal=causal,
                      max_im=max((z.imag for z in poles), default=-math.inf),
                      marginal=any(on_axis))
