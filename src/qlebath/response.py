"""Linear response of the damped oscillator: susceptibility, poles, causality.

The position response to an external force is alpha(z) = 1/D(z) with

    D(z) = -m z^2 - i z mu(z) + K.

Here m is the mass multiplying the second derivative.  For the blackbody
kernel m is the *bare* mass M (1 - tau_e Omega) — the radiation field carries
the rest of the observed inertia — while low-frequency response and the
oscillation frequency omega_0 = sqrt(K/M) are governed by the observed mass M.
For the Ohmic and single-relaxation kernels no renormalization occurs and m is
the observed mass itself.

Causality is equivalent to every pole of alpha lying in the open lower half
plane, which for the blackbody kernel happens exactly when the bare mass is
positive, i.e. Omega < 1/tau_e.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AcausalCutoffWarning, PoleEvaluationError
from .kernels import (
    DIMENSIONLESS,
    BlackbodyKernel,
    MemoryKernel,
    OhmicKernel,
    PhysicalConstants,
    SingleRelaxationKernel,
)


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
        return math.sqrt(self.K / self.M)

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

    def to_json(self) -> dict:
        return {"M": self.M, "K": self.K, "Omega": self.Omega}


def renormalize_mass(m_bare: float, Omega: float,
                     constants: PhysicalConstants = DIMENSIONLESS) -> float:
    """Observed mass M = m + (2 e^2 / 3 c^3) Omega."""
    return m_bare + (2.0 * constants.e ** 2 / (3.0 * constants.c ** 3)) * Omega


def bare_mass(M: float, Omega: float,
              constants: PhysicalConstants = DIMENSIONLESS) -> float:
    """Bare mass m = M (1 - tau_e Omega); exact inverse of renormalize_mass.

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
    if isinstance(kernel, BlackbodyKernel):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AcausalCutoffWarning)
            return model.m_bare
    return kernel.mass


def denominator(kernel: MemoryKernel, model: ParticleModel, z):
    """D(z) = -m z^2 - i z mu(z) + K for Im z >= 0."""
    m = mass_for_kernel(kernel, model)
    z = np.asarray(z, dtype=complex)
    val = -m * z ** 2 - 1j * z * kernel.mu_tilde(z) + model.K
    return complex(val) if val.ndim == 0 else val


def denominator_derivative(kernel: MemoryKernel, model: ParticleModel, z):
    """dD/dz in closed form (K drops out; every kernel is rational)."""
    m = mass_for_kernel(kernel, model)
    z = np.asarray(z, dtype=complex)
    if isinstance(kernel, OhmicKernel):
        val = -2.0 * m * z - 1j * kernel.mass * kernel.gamma
    elif isinstance(kernel, SingleRelaxationKernel):
        val = -2.0 * m * z - 1j * kernel.mass * kernel.gamma / (1.0 - 1j * z * kernel.tau) ** 2
    elif isinstance(kernel, BlackbodyKernel):
        C = kernel.radiation_coefficient * kernel.Omega ** 2
        val = -2.0 * m * z - 1j * C * z * (z + 2j * kernel.Omega) / (z + 1j * kernel.Omega) ** 2
    else:  # pragma: no cover - union is closed
        raise TypeError(f"unsupported kernel type {type(kernel).__name__}")
    return complex(val) if val.ndim == 0 else val


def denominator_closure(kernel: MemoryKernel, model: ParticleModel):
    """Fast scalar evaluator omega -> (D(omega), D'(omega)) on the real axis.

    Quadratures call this thousands of times per integral; the returned
    closure uses plain complex arithmetic with every kernel constant bound
    once up front.
    """
    m = mass_for_kernel(kernel, model)
    K = model.K
    if isinstance(kernel, OhmicKernel):
        g = kernel.mass * kernel.gamma

        def D_Dp(om: float):
            D = complex(K - m * om * om, -g * om)
            Dp = complex(-2.0 * m * om, -g)
            return D, Dp

    elif isinstance(kernel, SingleRelaxationKernel):
        g = kernel.mass * kernel.gamma
        tau = kernel.tau

        def D_Dp(om: float):
            den = 1.0 - 1j * om * tau
            D = K - m * om * om - 1j * om * g / den
            Dp = -2.0 * m * om - 1j * g / (den * den)
            return D, Dp

    elif isinstance(kernel, BlackbodyKernel):
        C = kernel.radiation_coefficient * kernel.Omega ** 2
        Om = kernel.Omega

        def D_Dp(om: float):
            den = om + 1j * Om
            D = K - m * om * om - 1j * C * om * om / den
            Dp = -2.0 * m * om - 1j * C * om * (om + 2j * Om) / (den * den)
            return D, Dp

    else:  # pragma: no cover - union is closed
        raise TypeError(f"unsupported kernel type {type(kernel).__name__}")
    return D_Dp


def susceptibility(kernel: MemoryKernel, model: ParticleModel, z):
    """alpha(z) = 1/D(z) for Im z >= 0.

    Raises PoleEvaluationError when |D| underflows relative to its terms,
    i.e. z sits numerically on a pole.
    """
    m = mass_for_kernel(kernel, model)
    K = model.K
    z = np.asarray(z, dtype=complex)
    t_mass = m * z ** 2
    t_fric = 1j * z * kernel.mu_tilde(z)
    d = -t_mass - t_fric + K
    magnitude = np.maximum(np.abs(t_mass) + np.abs(t_fric) + abs(K), 1e-300)
    bad = np.abs(d) < 1e-14 * magnitude
    if np.any(bad):
        where = z[bad] if z.ndim else complex(z)
        raise PoleEvaluationError(
            f"susceptibility evaluated at (or numerically at) a pole: z = {where}"
        )
    val = 1.0 / d
    return complex(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class PoleReport:
    """Poles of alpha(z) and the causality verdict.

    ``causal`` is True iff every pole lies strictly below the real axis —
    except real-axis poles within the marginal tolerance (an undamped
    oscillator), which set ``marginal`` and leave the verdict causal.
    ``max_im`` is -inf when there are no poles.
    """

    poles: tuple[complex, ...]
    causal: bool
    max_im: float
    marginal: bool

    def to_json(self) -> dict:
        return {
            "poles": [[z.real, z.imag] for z in self.poles],
            "causal": self.causal,
            "max_im": self.max_im,
            "marginal": self.marginal,
        }


def _cleared_polynomial(kernel: MemoryKernel, model: ParticleModel) -> list[complex]:
    """Coefficients (highest power first) of the polynomial sharing its roots
    with the poles of alpha, after clearing the kernel's rational denominator.
    """
    m = mass_for_kernel(kernel, model)
    K = model.K
    if isinstance(kernel, OhmicKernel):
        # D(z) itself: -m z^2 - i (m_k gamma) z + K
        return [-m, -1j * kernel.mass * kernel.gamma, K]
    if isinstance(kernel, SingleRelaxationKernel):
        # (1 - i z tau) D(z); for gamma > 0 the cleared factor's zero
        # z = -i/tau is not a root (the polynomial evaluates to
        # -m_k gamma / tau there).  gamma = 0 decouples: plain oscillator.
        g = kernel.mass * kernel.gamma
        if g == 0.0:
            return [-m, 0j, K]
        return [1j * m * kernel.tau, -m, -1j * (g + K * kernel.tau), K]
    if isinstance(kernel, BlackbodyKernel):
        # (z + i Omega) D(z), using m Omega + (2e^2/3c^3) Omega^2 = M Omega:
        # -m z^3 - i M Omega z^2 + K z + i K Omega.  Zero charge decouples.
        if kernel.radiation_coefficient == 0.0:
            return [-m, 0j, K]
        return [-m, -1j * model.M * kernel.Omega, K, 1j * K * kernel.Omega]
    raise TypeError(f"unsupported kernel type {type(kernel).__name__}")


def poles_and_causality(kernel: MemoryKernel, model: ParticleModel,
                        marginal_tol: float = 1e-9) -> PoleReport:
    """Locate all poles of alpha(z) and classify the model.

    The cleared-denominator polynomial is solved by companion-matrix
    eigenvalues (root count and multiplicity matter for the verdict); the
    variable is rescaled first so the residual check stays meaningful when
    the pole magnitudes are huge (acausal runaway near 1/tau_e).  For K = 0
    the structural root at the origin is the diffusive zero mode, not a
    runaway, and is excluded from the causality maximum.
    """
    coeffs = np.array(_cleared_polynomial(kernel, model), dtype=complex)
    nz = np.flatnonzero(np.abs(coeffs) > 0)
    if len(nz) == 0:
        raise PoleEvaluationError("denominator polynomial is identically zero")
    coeffs = coeffs[nz[0]:]
    if len(coeffs) < 2:
        return PoleReport(poles=(), causal=True, max_im=-math.inf, marginal=False)

    # Scale z = s w with s a Cauchy-style root bound.
    n = len(coeffs) - 1
    bounds = [
        abs(coeffs[k] / coeffs[0]) ** (1.0 / k)
        for k in range(1, n + 1)
        if coeffs[k] != 0
    ]
    s = max(bounds) if bounds else 1.0
    if not (s > 0 and math.isfinite(s)):
        s = 1.0
    scaled = coeffs * s ** np.arange(n, -1, -1, dtype=float)
    scaled /= np.max(np.abs(scaled))
    w_roots = np.roots(scaled)
    roots = s * w_roots

    resid = np.abs(np.polyval(scaled, w_roots))
    if np.any(resid > 1e-10 * max(len(scaled), 1)):
        worst = float(np.max(resid))
        raise PoleEvaluationError(
            f"polynomial root residual {worst:.3e} exceeds tolerance on the "
            "scaled (max-coefficient 1) polynomial"
        )

    if model.K == 0:
        roots = roots[np.abs(roots) > marginal_tol * s]

    roots = tuple(sorted((complex(r) for r in roots), key=lambda r: (r.imag, r.real)))
    max_im = max((r.imag for r in roots), default=-math.inf)
    marginal = any(abs(r.imag) <= marginal_tol * s for r in roots)
    causal = bool(max_im < 0.0 or (marginal and max_im <= marginal_tol * s))
    return PoleReport(poles=roots, causal=causal, max_im=float(max_im),
                      marginal=marginal)
