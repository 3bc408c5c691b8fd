"""Run configuration: strict JSON schema, defaults, and normalization.

A config file is a single JSON object.  Keys common to every command:

    command    one of: susceptibility, causality, free-energy, shift,
               welton, electron-motion, diffusion, oracle   (required)
    units      "dimensionless" (default) or "cgs"
    dim        1 (default) or 3 -- applies the multiply-by-three convention
    seed       integer in [0, 2**64); required for the oracle command
    tolerance  float, default 1e-8 (quadrature/fit tolerance where relevant)
    kernel     {"variant": "ohmic"|"single_relaxation"|"blackbody", ...}; the
               kernel's mass ("mass", blackbody "M") defaults to model.M and
               must match it, as a blackbody "Omega" must match model.Omega
               (1/tau_e when the model is "point-limit")
    model      {"M", "K", "Omega"} with "Omega" a number or "point-limit";
               the whole value may also be the string "point-limit"
    grids      {"T": ..., "t": ..., "omega": ...}; each grid is a list of
               numbers or {"start", "stop", "num", "spacing": "linear"|"log"}
    output     {"csv": name, "json": name, "dump": name} -- file names
               relative to the output directory (no path escapes)
    out_dir    output directory (default "."), overridden by --out
    meta       ignored on load, so emitted sidecars reload as valid configs

Unknown keys are rejected with the dotted path of the offending key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import bath_sim
from ._grid import is_uniform_grid
from .errors import ConfigError, GridError
from .kernels import DIMENSIONLESS, PhysicalConstants, kernel_from_json
from .response import ParticleModel

COMMANDS = ("susceptibility", "causality", "free-energy", "shift",
            "welton", "electron-motion", "diffusion", "oracle")

# Commands that build a memory kernel from config["kernel"].
KERNEL_COMMANDS = ("susceptibility", "causality", "free-energy", "shift",
                   "diffusion", "oracle")

# Grid each command requires (None = no mandatory grid).
_REQUIRED_GRID = {
    "susceptibility": "omega",
    "causality": None,
    "free-energy": "T",
    "shift": "T",
    "welton": "T",
    "electron-motion": "t",
    "diffusion": None,
    "oracle": "t",
}

_GRID_KEYS = ("T", "t", "omega", "Omega")

_COMMON_KEYS = {"command", "units", "dim", "seed", "tolerance", "kernel",
                "model", "grids", "output", "out_dir", "meta"}

# Extra keys each command accepts, with defaults.
_COMMAND_OPTIONS = {
    "susceptibility": {},
    "causality": {},
    "free-energy": {"allow_acausal": False},
    "shift": {"allow_acausal": False},
    "welton": {},
    "electron-motion": {"integrator": "cutoff", "force": {"type": "zero"},
                        "x0": 0.0, "v0": 0.0, "a0": 0.0},
    "diffusion": {"classical": None, "T": 1.0},
    "oracle": {"N": 200, "omega_max": None, "n_traj": 4000,
               "freeze_particle": False, "T": 1.0},
}

_FORCE_TYPES = {
    "zero": (),
    "constant_ramp": ("f0", "t_ramp"),
    "sinusoid": ("f0", "omega"),
    "gaussian_pulse": ("f0", "t0", "sigma"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated, defaults-filled run description."""

    command: str
    units: str
    dim: int
    seed: int | None
    tolerance: float
    kernel_spec: dict | None
    model_spec: dict
    grids: dict
    output: dict
    out_dir: str
    options: dict = field(default_factory=dict)

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants.cgs() if self.units == "cgs" else DIMENSIONLESS

    def model(self) -> ParticleModel:
        spec = self.model_spec
        k = self.constants
        M = spec["M"]
        omega = spec["Omega"]
        if omega == "point-limit":
            return ParticleModel.point_limit(M=M, K=spec["K"], constants=k)
        return ParticleModel(M=M, K=spec["K"], Omega=omega, constants=k)

    def kernel(self):
        if self.kernel_spec is None:
            raise ConfigError(f"command '{self.command}' requires a kernel",
                              key="kernel")
        if self.kernel_spec["variant"] == "blackbody":
            # its M and Omega, where given, match the model's (validated)
            return self.model().kernel()
        spec = dict(self.kernel_spec)
        spec.setdefault("mass", self.model_spec["M"])
        try:
            return kernel_from_json(spec, constants=self.constants)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), key="kernel") from exc

    def grid(self, name: str) -> np.ndarray:
        if name not in self.grids:
            raise ConfigError(f"command '{self.command}' needs grids.{name}",
                              key=f"grids.{name}")
        return np.asarray(self.grids[name], dtype=float)

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "units": self.units,
            "dim": self.dim,
            "tolerance": self.tolerance,
            "model": dict(self.model_spec),
            "grids": {k: list(v) for k, v in self.grids.items()},
            "output": dict(self.output),
            "out_dir": self.out_dir,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.kernel_spec is not None:
            out["kernel"] = dict(self.kernel_spec)
        out.update(self.options)
        return out


def _type_name(value) -> str:
    return type(value).__name__


def _require_number(value, key: str, *, positive=False, nonneg=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {_type_name(value)}",
                          key=key)
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite", key=key)
    if positive and x <= 0:
        raise ConfigError(f"{key} must be > 0", key=key)
    if nonneg and x < 0:
        raise ConfigError(f"{key} must be >= 0", key=key)
    return x


def _expand_grid(value, key: str) -> list:
    if isinstance(value, list):
        if len(value) < 1:
            raise ConfigError(f"{key} must not be empty", key=key)
        pts = [_require_number(v, f"{key}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict):
        allowed = {"start", "stop", "num", "spacing"}
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown key {key}.{sub}", key=f"{key}.{sub}")
        for need in ("start", "stop", "num"):
            if need not in value:
                raise ConfigError(f"{key} needs '{need}'", key=f"{key}.{need}")
        start = _require_number(value["start"], f"{key}.start")
        stop = _require_number(value["stop"], f"{key}.stop")
        num = value["num"]
        if isinstance(num, bool) or not isinstance(num, int) or num < 1:
            raise ConfigError(f"{key}.num must be a positive integer",
                              key=f"{key}.num")
        spacing = value.get("spacing", "linear")
        if spacing == "linear":
            pts = list(np.linspace(start, stop, num))
        elif spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"{key}: log spacing needs positive bounds",
                                  key=f"{key}.spacing")
            pts = list(np.geomspace(start, stop, num))
        else:
            raise ConfigError(f"{key}.spacing must be 'linear' or 'log'",
                              key=f"{key}.spacing")
    else:
        raise ConfigError(f"{key} must be a list or a start/stop/num object",
                          key=key)
    if len(pts) > 1 and any(b <= a for a, b in zip(pts, pts[1:])):
        raise ConfigError(f"grid not increasing: {key} must be strictly "
                          "increasing", key=key)
    return [float(p) for p in pts]


def _normalize_model(value, command: str) -> dict:
    default_K = 0.0 if command in ("diffusion", "oracle") else 1.0
    spec = {"M": 1.0, "K": default_K, "Omega": "point-limit"}
    if value is None:
        return spec
    if value == "point-limit":
        return spec
    if not isinstance(value, dict):
        raise ConfigError("model must be an object or the string "
                          f"'point-limit', got {_type_name(value)}", key="model")
    for sub in value:
        if sub not in ("M", "K", "Omega"):
            raise ConfigError(f"unknown key model.{sub}", key=f"model.{sub}")
    if "M" in value:
        spec["M"] = _require_number(value["M"], "model.M", positive=True)
    if "K" in value:
        spec["K"] = _require_number(value["K"], "model.K", nonneg=True)
    if "Omega" in value:
        if value["Omega"] == "point-limit":
            spec["Omega"] = "point-limit"
        else:
            spec["Omega"] = _require_number(value["Omega"], "model.Omega",
                                            positive=True)
    return spec


def _normalize_kernel(value, model_spec: dict, constants: PhysicalConstants):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"kernel must be an object, got {_type_name(value)}",
                          key="kernel")
    if "variant" not in value:
        raise ConfigError("kernel needs a 'variant'", key="kernel.variant")
    variant = value["variant"]
    allowed_fields = {
        "ohmic": {"variant", "gamma", "mass"},
        "single_relaxation": {"variant", "gamma", "tau", "mass"},
        "blackbody": {"variant", "Omega", "M"},
    }
    if variant not in allowed_fields:
        raise ConfigError(f"unknown kernel variant '{variant}' (expected "
                          "ohmic, single_relaxation, or blackbody)",
                          key="kernel.variant")
    for sub in value:
        if sub not in allowed_fields[variant]:
            raise ConfigError(f"unknown key kernel.{sub}", key=f"kernel.{sub}")
    spec = {"variant": variant}
    for name in sorted(allowed_fields[variant] - {"variant"}):
        if name in value:
            spec[name] = _require_number(value[name], f"kernel.{name}",
                                         positive=(name in ("tau", "Omega", "M")),
                                         nonneg=(name in ("gamma", "mass")))
    required = {"ohmic": ("gamma",), "single_relaxation": ("gamma", "tau"),
                "blackbody": ()}
    for name in required[variant]:
        if name not in spec:
            raise ConfigError(f"kernel variant '{variant}' needs '{name}'",
                              key=f"kernel.{name}")
    mass_key = "M" if variant == "blackbody" else "mass"
    if mass_key in spec and not math.isclose(spec[mass_key], model_spec["M"],
                                             rel_tol=1e-12):
        raise ConfigError(
            f"kernel.{mass_key} = {spec[mass_key]:.6g} conflicts with "
            f"model.M = {model_spec['M']:.6g}", key=f"kernel.{mass_key}")
    if variant == "blackbody" and "Omega" in spec:
        model_omega = model_spec["Omega"]
        if model_omega == "point-limit":
            model_omega = ParticleModel.point_limit(
                model_spec["M"], model_spec["K"], constants).Omega
        if not math.isclose(spec["Omega"], model_omega, rel_tol=1e-12):
            raise ConfigError(
                f"kernel.Omega = {spec['Omega']:.6g} conflicts with "
                f"model.Omega = {model_omega:.6g}", key="kernel.Omega")
    return spec


def _validate_output(value, command: str) -> dict:
    base = command.replace("-", "_")
    out = {"csv": f"{base}.csv", "json": f"{base}.json"}
    if value is None:
        return out
    if not isinstance(value, dict):
        raise ConfigError(f"output must be an object, got {_type_name(value)}",
                          key="output")
    for sub, name in value.items():
        if sub not in ("csv", "json", "dump"):
            raise ConfigError(f"unknown key output.{sub}", key=f"output.{sub}")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"output.{sub} must be a nonempty file name",
                              key=f"output.{sub}")
        if os.path.isabs(name) or ".." in name.split(os.sep) or "\x00" in name:
            raise ConfigError(
                f"output.{sub} must stay inside the output directory",
                key=f"output.{sub}")
        out[sub] = name
    return out


def _validate_force(value, key: str = "force") -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object", key=key)
    if "type" not in value:
        raise ConfigError(f"{key} needs a 'type'", key=f"{key}.type")
    ftype = value["type"]
    if ftype not in _FORCE_TYPES:
        raise ConfigError(
            f"unknown {key}.type '{ftype}' (expected one of "
            f"{', '.join(sorted(_FORCE_TYPES))})", key=f"{key}.type")
    params = _FORCE_TYPES[ftype]
    for sub in value:
        if sub != "type" and sub not in params:
            raise ConfigError(f"unknown key {key}.{sub}", key=f"{key}.{sub}")
    out = {"type": ftype}
    for name in params:
        if name not in value:
            raise ConfigError(f"{key}.type '{ftype}' needs '{name}'",
                              key=f"{key}.{name}")
        positive = name in ("t_ramp", "omega", "sigma")
        out[name] = _require_number(value[name], f"{key}.{name}",
                                    positive=positive)
    return out


def validate_config(data: dict) -> RunConfig:
    """Validate a parsed JSON object and fill documented defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object at top level")
    if "command" not in data:
        raise ConfigError("config needs a 'command'", key="command")
    command = data["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}' (expected one of "
                          f"{', '.join(COMMANDS)})", key="command")

    option_defaults = _COMMAND_OPTIONS[command]
    allowed = _COMMON_KEYS | set(option_defaults)
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key}", key=key)

    units = data.get("units", "dimensionless")
    if units not in ("dimensionless", "cgs"):
        raise ConfigError("units must be 'dimensionless' or 'cgs'", key="units")
    dim = data.get("dim", 1)
    if dim not in (1, 3):
        raise ConfigError("dim must be 1 or 3", key="dim")
    seed = data.get("seed")
    if seed is not None:
        if (isinstance(seed, bool) or not isinstance(seed, int)
                or not 0 <= seed < 2 ** 64):
            raise ConfigError("seed must be a nonnegative integer below 2**64: "
                              "the ensemble dump stores it as uint64",
                              key="seed")
    tolerance = _require_number(data.get("tolerance", 1.0e-8), "tolerance",
                                positive=True)

    constants = PhysicalConstants.cgs() if units == "cgs" else DIMENSIONLESS
    model_spec = _normalize_model(data.get("model"), command)
    kernel_spec = _normalize_kernel(data.get("kernel"), model_spec, constants)
    if command in KERNEL_COMMANDS and kernel_spec is None:
        raise ConfigError(f"command '{command}' requires a kernel",
                          key="kernel")

    grids_in = data.get("grids", {})
    if not isinstance(grids_in, dict):
        raise ConfigError("grids must be an object", key="grids")
    grids = {}
    for name, value in grids_in.items():
        if name not in _GRID_KEYS:
            raise ConfigError(f"unknown key grids.{name}", key=f"grids.{name}")
        grids[name] = _expand_grid(value, f"grids.{name}")
    need = _REQUIRED_GRID[command]
    if need is not None and need not in grids:
        raise ConfigError(f"command '{command}' needs grids.{need}",
                          key=f"grids.{need}")

    output = _validate_output(data.get("output"), command)
    if (command == "oracle" and "dump" in output
            and not is_uniform_grid(grids["t"])):
        raise ConfigError("output.dump needs a uniform grids.t: the binary "
                          "dump stores only t0 and one step",
                          key="output.dump")
    out_dir = data.get("out_dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a nonempty string", key="out_dir")

    options = {}
    for name, default in option_defaults.items():
        value = data.get(name, default)
        if name == "allow_acausal":
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false", key=name)
        elif name == "classical":
            if value is not None and not isinstance(value, bool):
                raise ConfigError("classical must be true, false, or null",
                                  key=name)
        elif name == "integrator":
            if value not in ("point-limit", "cutoff", "abraham-lorentz",
                             "bounded-al"):
                raise ConfigError(
                    f"unknown integrator '{value}' (expected point-limit, "
                    "cutoff, abraham-lorentz, or bounded-al)", key=name)
        elif name == "force":
            value = _validate_force(value)
        elif name in ("x0", "v0", "a0", "T"):
            value = _require_number(value, name,
                                    nonneg=(name == "T"))
        elif name == "N":
            if isinstance(value, bool) or not isinstance(value, int) or value < 2:
                raise ConfigError("N must be an integer >= 2: the bath needs "
                                  "a frequency spacing", key=name)
        elif name == "n_traj":
            if (isinstance(value, bool) or not isinstance(value, int)
                    or not 1 <= value < 2 ** 32):
                raise ConfigError("n_traj must be a positive integer below "
                                  "2**32: one uint32 stream key per trajectory",
                                  key=name)
        elif name == "omega_max":
            if value is not None:
                value = _require_number(value, name, positive=True)
        elif name == "freeze_particle":
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false", key=name)
        options[name] = value

    if (command == "oracle" and options["freeze_particle"]
            and options["n_traj"] < 2):
        raise ConfigError("n_traj must be >= 2 for a frozen oracle run: the "
                          "force statistics need a standard error", key="n_traj")
    if command == "oracle" and seed is None:
        raise ConfigError("command 'oracle' is stochastic and needs a seed",
                          key="seed")
    if command == "diffusion" and model_spec["K"] != 0.0:
        raise ConfigError("command 'diffusion' needs a free particle "
                          "(model.K = 0)", key="model.K")
    if command in ("shift", "free-energy") and model_spec["K"] <= 0.0:
        raise ConfigError(f"command '{command}' needs a bound oscillator "
                          "(model.K > 0)", key="model.K")

    cfg = RunConfig(command=command, units=units, dim=dim, seed=seed,
                    tolerance=tolerance, kernel_spec=kernel_spec,
                    model_spec=model_spec, grids=grids, output=output,
                    out_dir=out_dir, options=options)
    # Constructing the kernel and model validates cross-field consistency
    # (e.g. blackbody Omega vs model Omega) before any work starts.
    cfg.model()
    if cfg.kernel_spec is not None:
        kernel = cfg.kernel()
        if command == "oracle":
            _check_oracle_bath(kernel, options)
    return cfg


def _check_oracle_bath(kernel, options: dict) -> None:
    """The bath-grid checks of an oracle run, made before any work starts.

    They are the very checks discretize_bath and, for a frozen particle,
    force_autocorrelation_check make, on the same frequencies.
    """
    try:
        w = bath_sim.bath_frequencies(kernel, options["N"],
                                      options["omega_max"])
    except GridError as exc:
        raise ConfigError(str(exc), key="omega_max") from exc
    if options["freeze_particle"]:
        try:
            bath_sim.comparison_window(kernel, bath_sim.recurrence_time(w))
        except GridError as exc:
            raise ConfigError(str(exc), key="N") from exc


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a JSON config file.

    overrides (e.g. from command-line flags) replace top-level keys before
    validation; None values are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object at top level")
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
    return validate_config(data)
