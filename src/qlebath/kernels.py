"""Memory kernels mu(z) for the oscillator heat-bath model, plus physical constants.

Every kernel here is one positive-real rational function,

    mu(z) = (a0 + a1 z) / (b0 + b1 z),

(Ford, Lewis & O'Connell, Phys. Rev. A 37, 4419 (1988)).  Each kernel class
states its four ``coefficients``; ``RationalKernel`` evaluates mu(z) and its
real part on the real axis from them, and ``response`` builds D(z), D'(z) and
the pole polynomial from the same four numbers.  Passivity means
Re mu(omega + i0+) >= 0 and mu(-omega + i0+) = conj(mu(omega + i0+)); the
poles of mu lie in the lower half plane, so real z gives the boundary value
with no small imaginary offset.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from ._schema import json_object, require_number, tagged
from .errors import ConfigError

# Spec'd dimensionless fine-structure value.
_ALPHA_FS_DIMENSIONLESS = 1.0 / 137.036

# CODATA 2018, Gaussian units.
_E_CGS = 4.80320425e-10        # statC
_HBAR_CGS = 1.054571817e-27    # erg s
_C_CGS = 2.99792458e10         # cm/s
_KB_CGS = 1.380649e-16         # erg/K

ELECTRON_MASS_CGS = 9.1093837015e-28  # g


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit-system bundle. ``alpha_fs`` is always derived as e^2/(hbar c)."""

    hbar: float
    k_B: float
    c: float
    e: float

    @property
    def alpha_fs(self) -> float:
        return self.e ** 2 / (self.hbar * self.c)

    @classmethod
    def dimensionless(cls) -> "PhysicalConstants":
        """hbar = k_B = c = 1 and e^2 = alpha_fs."""
        return cls(hbar=1.0, k_B=1.0, c=1.0, e=math.sqrt(_ALPHA_FS_DIMENSIONLESS))

    @classmethod
    def cgs(cls) -> "PhysicalConstants":
        return cls(hbar=_HBAR_CGS, k_B=_KB_CGS, c=_C_CGS, e=_E_CGS)

    def scale_charge(self, factor: float) -> "PhysicalConstants":
        """Rescale e^2 by ``factor`` (weak-coupling studies). Keeps hbar, k_B, c."""
        if factor < 0:
            raise ValueError("charge scale factor must be >= 0")
        return replace(self, e=self.e * math.sqrt(factor))


DIMENSIONLESS = PhysicalConstants.dimensionless()


def _check_upper_half(z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("kernel argument must be finite")
    if np.any(z.imag < 0):
        raise ValueError("kernel argument must satisfy Im z >= 0")
    return z


class RationalKernel:
    """mu(z) = (a0 + a1 z)/(b0 + b1 z), with ``coefficients`` = (a0, a1, b0, b1).

    Subclasses state the coefficients and a ``variant`` name, the key of
    ``KERNELS`` and of the JSON form.  Degree one over degree one covers
    every kernel; a decoupled kernel (gamma = 0 or zero charge) has a0 = a1 = 0.
    """

    def mu_tilde(self, z):
        """mu(z) for Im z >= 0."""
        z = _check_upper_half(z)
        a0, a1, b0, b1 = self.coefficients
        val = (a0 + a1 * z) / (b0 + b1 * z)
        return complex(val) if val.ndim == 0 else val

    def re_mu_real_axis(self, omega):
        """Re mu(w) for real w: Re[(a0 + a1 w) conj(b0 + b1 w)] / |b0 + b1 w|^2."""
        omega = np.asarray(omega, dtype=float)
        a0, a1, b0, b1 = self.coefficients
        den = b0 + b1 * omega
        out = ((a0 + a1 * omega) * np.conj(den)).real / (den.real ** 2 + den.imag ** 2)
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        """JSON form: the variant and every field but ``constants``."""
        return {"variant": self.variant,
                **{f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "constants"}}


@dataclass(frozen=True)
class OhmicKernel(RationalKernel):
    """Frequency-independent friction: mu(z) = mass * gamma.

    Coefficients (mass gamma, 0 | 1, 0).  gamma >= 0; gamma = 0 represents
    a decoupled particle.  ``mass`` is the particle's mass (a run config
    fills it from ``model.M``).
    """

    gamma: float
    mass: float = 1.0

    variant = "ohmic"

    def __post_init__(self):
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be >= 0 and finite")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")

    @property
    def coefficients(self) -> tuple:
        return (self.mass * self.gamma, 0.0, 1.0, 0.0)

    @property
    def scale(self) -> float:
        """Characteristic frequency of the kernel (used for panel splitting)."""
        return self.gamma if self.gamma > 0 else 1.0


@dataclass(frozen=True)
class SingleRelaxationKernel(RationalKernel):
    """Exponential memory: mu(z) = mass * gamma / (1 - i z tau).

    Coefficients (mass gamma, 0 | 1, -i tau); ``mass`` as for OhmicKernel.
    """

    gamma: float
    tau: float
    mass: float = 1.0

    variant = "single_relaxation"

    def __post_init__(self):
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be >= 0 and finite")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")

    @property
    def coefficients(self) -> tuple:
        return (self.mass * self.gamma, 0.0, 1.0, -1j * self.tau)

    @property
    def scale(self) -> float:
        return max(self.gamma, 1.0 / self.tau) if self.gamma > 0 else 1.0 / self.tau


@dataclass(frozen=True)
class BlackbodyKernel(RationalKernel):
    """Radiation-field kernel with a sharp-cutoff form factor.

    mu(z) = C Omega^2 z / (z + i Omega) with C = 2 e^2 / 3 c^3: coefficients
    (0, C Omega^2 | i Omega, 1).  On the real axis
    Re mu = C omega^2 Omega^2/(omega^2 + Omega^2), the radiated-power rate
    times the form factor squared.
    """

    Omega: float
    constants: PhysicalConstants
    M: float = 1.0

    variant = "blackbody"

    def __post_init__(self):
        if not (self.Omega > 0 and math.isfinite(self.Omega)):
            raise ValueError("Omega must be positive and finite")
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ValueError("M must be positive and finite")
        try:
            a1 = self.coefficients[1]
        except OverflowError:  # Omega ** 2
            a1 = math.inf
        if not math.isfinite(a1):
            raise ValueError("the kernel coefficient C Omega^2 = 2 e^2 Omega^2 "
                             "/ 3 c^3 overflows the float range at Omega = "
                             f"{self.Omega:.6g}")

    @property
    def radiation_coefficient(self) -> float:
        """2 e^2 / (3 c^3), equal to M * tau_e for observed mass M."""
        k = self.constants
        return 2.0 * k.e ** 2 / (3.0 * k.c ** 3)

    @property
    def coefficients(self) -> tuple:
        return (0.0, self.radiation_coefficient * self.Omega ** 2, 1j * self.Omega, 1.0)

    @property
    def scale(self) -> float:
        return self.Omega


MemoryKernel = OhmicKernel | SingleRelaxationKernel | BlackbodyKernel

KERNELS = {cls.variant: cls
           for cls in (OhmicKernel, SingleRelaxationKernel, BlackbodyKernel)}


def kernel_spec(value, optional=()) -> dict:
    """The JSON form of a kernel, checked as a run config's ``kernel`` is:
    a known variant, no keys but the fields of its class (``constants``
    aside), each field without a default present unless named in
    ``optional``, and each a finite number, gamma >= 0 and any other > 0.
    ConfigError names the dotted key, ``kernel.<field>``.  Returns the
    variant and the given fields as floats, in sorted order.
    """
    variant, cls = tagged(value, "kernel", "variant", KERNELS)
    given = [f for f in fields(cls) if f.name != "constants"]
    json_object(value, "kernel", ["variant", *(f.name for f in given)],
                [f.name for f in given
                 if f.default is MISSING and f.name not in optional])
    return {"variant": variant, **{
        name: require_number(value[name], f"kernel.{name}",
                             positive=name != "gamma", nonneg=name == "gamma")
        for name in sorted(f.name for f in given) if name in value}}


def kernel_from_json(spec: dict, constants: PhysicalConstants | None = None) -> MemoryKernel:
    """Build a kernel from its JSON dict form, checked by ``kernel_spec``.

    Blackbody kernels need ``constants`` for the charge and light speed.
    """
    params = kernel_spec(spec)
    cls = KERNELS[params.pop("variant")]
    extra = {"constants": constants or DIMENSIONLESS} if cls is BlackbodyKernel else {}
    try:
        return cls(**params, **extra)
    except ValueError as exc:  # C Omega^2 past the float range
        raise ConfigError(str(exc), key="kernel.Omega") from exc
