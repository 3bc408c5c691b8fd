"""Memory kernels mu(z) for the oscillator heat-bath model, plus physical constants.

All kernels are positive-real functions of z in the upper half plane:
Re mu(omega + i0+) >= 0 and mu(-omega + i0+) = conj(mu(omega + i0+)).
Boundary values on the real axis are obtained by evaluating the rational
closed forms directly at real z; no small imaginary offset is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class FormFactor:
    """Electron charge-distribution form factor squared: Omega^2/(omega^2 + Omega^2)."""

    Omega: float

    def __post_init__(self):
        if not (self.Omega > 0 and math.isfinite(self.Omega)):
            raise ValueError("Omega must be positive and finite")

    def squared(self, omega):
        w2 = np.asarray(omega, dtype=float) ** 2
        out = self.Omega ** 2 / (w2 + self.Omega ** 2)
        return float(out) if np.isscalar(omega) else out


def _check_upper_half(z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("kernel argument must be finite")
    if np.any(z.imag < 0):
        raise ValueError("kernel argument must satisfy Im z >= 0")
    return z


@dataclass(frozen=True)
class OhmicKernel:
    """Frequency-independent friction: mu(z) = mass * gamma.

    gamma >= 0; gamma = 0 represents a decoupled particle.
    """

    gamma: float
    mass: float = 1.0

    variant = "ohmic"

    def __post_init__(self):
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError("gamma must be >= 0 and finite")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")

    def mu_tilde(self, z):
        z = _check_upper_half(z)
        val = np.full_like(z, self.mass * self.gamma, dtype=complex)
        return complex(val) if val.ndim == 0 else val

    def re_mu_real_axis(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.full_like(omega, self.mass * self.gamma)
        return float(out) if out.ndim == 0 else out

    @property
    def scale(self) -> float:
        """Characteristic frequency of the kernel (used for panel splitting)."""
        return self.gamma if self.gamma > 0 else 1.0

    def to_json(self) -> dict:
        return {"variant": "ohmic", "gamma": self.gamma, "mass": self.mass}


@dataclass(frozen=True)
class SingleRelaxationKernel:
    """Exponential memory: mu(z) = mass * gamma / (1 - i z tau)."""

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

    def mu_tilde(self, z):
        z = _check_upper_half(z)
        val = self.mass * self.gamma / (1.0 - 1j * z * self.tau)
        return complex(val) if val.ndim == 0 else val

    def re_mu_real_axis(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = self.mass * self.gamma / (1.0 + (omega * self.tau) ** 2)
        return float(out) if out.ndim == 0 else out

    @property
    def scale(self) -> float:
        return max(self.gamma, 1.0 / self.tau) if self.gamma > 0 else 1.0 / self.tau

    def to_json(self) -> dict:
        return {
            "variant": "single_relaxation",
            "gamma": self.gamma,
            "tau": self.tau,
            "mass": self.mass,
        }


@dataclass(frozen=True)
class BlackbodyKernel:
    """Radiation-field kernel with a sharp-cutoff form factor.

    mu(z) = (2 e^2 Omega^2 / 3 c^3) * z / (z + i Omega).
    On the real axis Re mu = (2 e^2 omega^2 / 3 c^3) * Omega^2/(omega^2 + Omega^2),
    the radiated-power rate times the form factor squared.
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

    @property
    def radiation_coefficient(self) -> float:
        """2 e^2 / (3 c^3), equal to M * tau_e for observed mass M."""
        k = self.constants
        return 2.0 * k.e ** 2 / (3.0 * k.c ** 3)

    def mu_tilde(self, z):
        z = _check_upper_half(z)
        val = self.radiation_coefficient * self.Omega ** 2 * z / (z + 1j * self.Omega)
        return complex(val) if val.ndim == 0 else val

    def re_mu_real_axis(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = (
            self.radiation_coefficient
            * omega ** 2
            * FormFactor(self.Omega).squared(omega)
        )
        return float(out) if out.ndim == 0 else out

    @property
    def scale(self) -> float:
        return self.Omega

    def to_json(self) -> dict:
        return {"variant": "blackbody", "Omega": self.Omega, "M": self.M}


MemoryKernel = OhmicKernel | SingleRelaxationKernel | BlackbodyKernel


def kernel_from_json(spec: dict, constants: PhysicalConstants | None = None) -> MemoryKernel:
    """Build a kernel from its JSON dict form.

    Blackbody kernels need ``constants`` for the charge and light speed.
    """
    if not isinstance(spec, dict):
        raise ConfigError("kernel must be a JSON object", key="kernel")
    variant = spec.get("variant")
    known = {"ohmic", "single_relaxation", "blackbody"}
    if variant not in known:
        raise ConfigError(
            f"unknown kernel variant {variant!r}, expected one of {sorted(known)}",
            key="variant",
        )
    fields = {k: v for k, v in spec.items() if k != "variant"}
    try:
        if variant == "ohmic":
            return OhmicKernel(**fields)
        if variant == "single_relaxation":
            return SingleRelaxationKernel(**fields)
        if constants is None:
            constants = DIMENSIONLESS
        return BlackbodyKernel(constants=constants, **fields)
    except TypeError as exc:
        raise ConfigError(f"bad kernel parameters for {variant!r}: {exc}", key="kernel")
    except ValueError as exc:
        raise ConfigError(f"bad kernel parameters for {variant!r}: {exc}", key="kernel")
