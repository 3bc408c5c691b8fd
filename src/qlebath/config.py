"""Run configuration: strict JSON schema, defaults, and normalization.

A config file is a single JSON object.  Keys common to every command:

    command    one of: susceptibility, causality, free-energy, shift,
               welton, electron-motion, diffusion, oracle   (required)
    units      "dimensionless" (default) or "cgs"
    dim        the integer 1 (default) or 3 -- the multiply-by-three convention
    seed       integer in [0, 2**64); required for the oracle command
    tolerance  float, default 1e-8 (quadrature/fit tolerance where relevant)
    kernel     {"variant": "ohmic"|"single_relaxation"|"blackbody", ...} and
               the fields of that class in ``kernels``; one without a default
               is required, but the mass ("mass", blackbody "M") defaults to
               model.M and blackbody "Omega" to model.Omega (1/tau_e when the
               model is "point-limit"), and each must match the model's
    model      {"M", "K", "Omega"} with "Omega" a number or "point-limit";
               the whole value may also be the string "point-limit"
    grids      the command's grids, of "T", "t" and "omega"; each grid is a list
               of numbers or {"start", "stop", "num", "spacing": "linear"|"log"}
               with num at most 10**7
    output     {"csv": name, "json": name, "dump": name} -- distinct plain file
               names in the output directory
    out_dir    output directory (default "."), overridden by --out
    meta       ignored on load, so emitted sidecars reload as valid configs

Each command's grids, kernel, default model.K and extra keys are one entry
of ``_COMMANDS``.  Every JSON object of a config passes
``_schema.json_object``, so unknown keys, and grids the command does not
read, are rejected with the dotted path of the offending key.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import bath_sim
from ._grid import is_uniform_grid
from ._schema import json_object, require_int, require_number, tagged
from .errors import ConfigError, GridError
from .kernels import (DIMENSIONLESS, PhysicalConstants, kernel_from_json,
                      kernel_spec)
from .response import ParticleModel

# Per command: the grids it reads (True: required), whether it builds a kernel
# from config["kernel"], the default model.K, its K rule (True: model.K > 0,
# False: model.K = 0, None: any) and the extra keys it accepts, with defaults.
_Command = namedtuple("_Command", "grids kernel K bound options")

_COMMANDS = {
    "susceptibility": _Command({"omega": True}, True, 1.0, None, {}),
    "causality": _Command({}, True, 1.0, None, {}),
    "free-energy": _Command({"T": True}, True, 1.0, True, {"allow_acausal": False}),
    "shift": _Command({"T": True}, True, 1.0, True, {"allow_acausal": False}),
    "welton": _Command({"T": True}, False, 1.0, None, {}),
    "electron-motion": _Command({"t": True}, False, 1.0, None, {
        "integrator": "cutoff", "force": {"type": "zero"},
        "x0": 0.0, "v0": 0.0, "a0": 0.0}),
    "diffusion": _Command({"t": False}, True, 0.0, False,
                          {"classical": None, "T": 1.0}),
    "oracle": _Command({"t": True}, True, 0.0, None, {
        "N": 200, "omega_max": None, "n_traj": 4000,
        "freeze_particle": False, "T": 1.0}),
}

_COMMON_KEYS = frozenset({"command", "units", "dim", "seed", "tolerance",
                          "kernel", "model", "grids", "output", "out_dir", "meta"})

# Each drive type's factory in ``motion`` and its parameters, in call order.
_FORCE_TYPES = {
    "zero": ("zero_force", ()),
    "constant_ramp": ("constant_with_ramp", ("f0", "t_ramp")),
    "sinusoid": ("sinusoid", ("f0", "omega")),
    "gaussian_pulse": ("gaussian_pulse", ("f0", "t0", "sigma")),
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
        if self.kernel_spec["variant"] == "blackbody":
            # its M and Omega, where given, match the model's (validated)
            return self.model().kernel()
        spec = dict(self.kernel_spec)
        spec.setdefault("mass", self.model_spec["M"])
        return kernel_from_json(spec, constants=self.constants)

    def grid(self, name: str) -> np.ndarray:
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


def _expand_grid(value, key: str) -> list:
    if isinstance(value, list):
        if len(value) < 1:
            raise ConfigError(f"{key} must not be empty", key=key)
        pts = [require_number(v, f"{key}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict):
        json_object(value, key, ("start", "stop", "num", "spacing"),
                    ("start", "stop", "num"))
        start = require_number(value["start"], f"{key}.start")
        stop = require_number(value["stop"], f"{key}.stop")
        num = require_int(value["num"], f"{key}.num", 1, 10 ** 7 + 1,
                          "from 1 to 10**7")
        spacing = value.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{key}.spacing must be 'linear' or 'log'",
                              key=f"{key}.spacing")
        if spacing == "log" and (start <= 0 or stop <= 0):
            raise ConfigError(f"{key}: log spacing needs positive bounds",
                              key=f"{key}.spacing")
        space = np.geomspace if spacing == "log" else np.linspace
        pts = space(start, stop, num).tolist()
    else:
        raise ConfigError(f"{key} must be a list or a start/stop/num object",
                          key=key)
    if len(pts) > 1 and any(b <= a for a, b in zip(pts, pts[1:])):
        raise ConfigError(f"grid not increasing: {key} must be strictly "
                          "increasing", key=key)
    return pts


def _normalize_model(value, default_K: float) -> dict:
    spec = {"M": 1.0, "K": default_K, "Omega": "point-limit"}
    if value is None or value == "point-limit":
        return spec
    json_object(value, "model", ("M", "K", "Omega"))
    if "M" in value:
        spec["M"] = require_number(value["M"], "model.M", positive=True)
    if "K" in value:
        spec["K"] = require_number(value["K"], "model.K", nonneg=True)
    if value.get("Omega", "point-limit") != "point-limit":
        spec["Omega"] = require_number(value["Omega"], "model.Omega",
                                       positive=True)
    return spec


def _normalize_kernel(value, model_spec: dict, constants: PhysicalConstants):
    if value is None:
        return None
    # blackbody's Omega defaults to the model's
    spec = kernel_spec(value, optional=("Omega",))
    variant = spec["variant"]
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
    """The output file names: plain names in the output directory (no
    directory part, not '.' or '..'), no two alike."""
    base = command.replace("-", "_")
    out = {"csv": f"{base}.csv", "json": f"{base}.json"}
    if value is None:
        return out
    out.update(json_object(value, "output", ("csv", "json", "dump")))
    for i, (sub, name) in enumerate(out.items()):
        if (not isinstance(name, str) or name in ("", ".", "..")
                or os.path.dirname(name) or "\x00" in name):
            raise ConfigError(f"output.{sub} must be a plain file name in the "
                              "output directory", key=f"output.{sub}")
        if name in list(out.values())[:i]:
            raise ConfigError(f"output.{sub} = {name!r} names another output "
                              "file too", key=f"output.{sub}")
    return out


def _validate_force(value) -> dict:
    ftype, (_, params) = tagged(value, "force", "type", _FORCE_TYPES)
    json_object(value, "force", ("type", *params), params)
    return {"type": ftype, **{
        name: require_number(value[name], f"force.{name}",
                             positive=name in ("t_ramp", "omega", "sigma"))
        for name in params}}


def validate_config(data: dict) -> RunConfig:
    """Validate a parsed JSON object and fill documented defaults."""
    command, cmd = tagged(data, None, "command", _COMMANDS)
    json_object(data, None, _COMMON_KEYS.union(cmd.options))

    units = data.get("units", "dimensionless")
    if units not in ("dimensionless", "cgs"):
        raise ConfigError("units must be 'dimensionless' or 'cgs'", key="units")
    dim = data.get("dim", 1)
    if type(dim) is not int or dim not in (1, 3):
        raise ConfigError("dim must be the integer 1 or 3", key="dim")
    seed = data.get("seed")
    if seed is not None:
        require_int(seed, "seed", 0, 2 ** 64, "in [0, 2**64): the ensemble "
                    "dump stores it as uint64")
    tolerance = require_number(data.get("tolerance", 1.0e-8), "tolerance",
                               positive=True)

    constants = PhysicalConstants.cgs() if units == "cgs" else DIMENSIONLESS
    model_spec = _normalize_model(data.get("model"), cmd.K)
    kernel_spec = _normalize_kernel(data.get("kernel"), model_spec, constants)
    if cmd.kernel and kernel_spec is None:
        raise ConfigError(f"command '{command}' requires a kernel",
                          key="kernel")

    grids = {name: _expand_grid(value, f"grids.{name}") for name, value
             in json_object(data.get("grids", {}), "grids", cmd.grids).items()}
    for name, required in cmd.grids.items():
        if required and name not in grids:
            raise ConfigError(f"command '{command}' needs grids.{name}",
                              key=f"grids.{name}")

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
    for name, default in cmd.options.items():
        value = data.get(name, default)
        if name in ("allow_acausal", "freeze_particle"):
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
            value = require_number(value, name, nonneg=(name == "T"))
        elif name == "N":
            require_int(value, name, 2, math.inf, ">= 2: the bath needs a "
                        "frequency spacing")
        elif name == "n_traj":
            require_int(value, name, 1, 2 ** 32, "in [1, 2**32): one uint32 "
                        "stream key per trajectory")
        elif name == "omega_max":
            if value is not None:
                value = require_number(value, name, positive=True)
        options[name] = value

    if (command == "oracle" and options["freeze_particle"]
            and options["n_traj"] < 2):
        raise ConfigError("n_traj must be >= 2 for a frozen oracle run: the "
                          "force statistics need a standard error", key="n_traj")
    if command == "oracle" and seed is None:
        raise ConfigError("command 'oracle' is stochastic and needs a seed",
                          key="seed")
    if cmd.bound is not None and (model_spec["K"] > 0.0) != cmd.bound:
        raise ConfigError(f"command '{command}' needs " + (
            "a bound oscillator (model.K > 0)" if cmd.bound
            else "a free particle (model.K = 0)"), key="model.K")

    cfg = RunConfig(command=command, units=units, dim=dim, seed=seed,
                    tolerance=tolerance, kernel_spec=kernel_spec,
                    model_spec=model_spec, grids=grids, output=output,
                    out_dir=out_dir, options=options)
    # Constructing the kernel and model validates cross-field consistency
    # (e.g. blackbody Omega vs model Omega) before any work starts.
    cfg.model()
    if cfg.kernel_spec is not None:
        try:
            kernel = cfg.kernel()
        except ValueError as exc:  # a blackbody C Omega^2 past the float range
            raise ConfigError(str(exc), key="model.Omega") from exc
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
    except MemoryError as exc:
        raise ConfigError(f"N = {options['N']} bath modes do not fit in "
                          f"memory: {exc}", key="N") from exc
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
    except ValueError as exc:  # also an integer literal of over 4300 digits
        raise ConfigError(f"config parse error: {exc}") from exc
    if overrides and isinstance(data, dict):
        data.update((k, v) for k, v in overrides.items() if v is not None)
    return validate_config(data)
