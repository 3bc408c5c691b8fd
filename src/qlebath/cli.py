"""Command-line front end: config-driven sweeps with CSV + JSON artifacts.

Every run writes a CSV table and a JSON sidecar into the output directory.
The sidecar is the fully resolved config (so it re-loads as a valid config
reproducing the run) plus a "meta" object holding package and dependency
versions, achieved tolerances, and the command's summary result.

Exit codes: 0 success, 2 invalid config or arguments, 3 numerical failure.
Failures print a single line "error: <kind>: <detail>" on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np

from ._version import __version__
from . import bath_sim, diffusion, motion, thermo
from .config import RunConfig, load_config
from .errors import ConfigError, QlebathError
from .response import poles_and_causality, susceptibility


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, columns) -> str:
    """CSV of the columns: numbers as repr(float), strings as they are."""
    cells = [col if len(col) and isinstance(col[0], str)
             else map(repr, np.asarray(col, dtype=float).tolist())
             for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _write_artifacts(cfg: RunConfig, header, columns, meta: dict) -> None:
    sidecar = cfg.to_json()
    sidecar["meta"] = {
        "package": "qlebath",
        "version": __version__,
        "numpy": np.__version__,
        **meta,
    }
    # strict JSON: a NaN or infinity raises here, before any file is written
    sidecar_text = json.dumps(sidecar, allow_nan=False) + "\n"
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, cfg.output["csv"])
    _atomic_write_text(csv_path, _csv_text(header, columns))
    json_path = os.path.join(cfg.out_dir, cfg.output["json"])
    _atomic_write_text(json_path, sidecar_text)


def _dim_factor(cfg: RunConfig) -> float:
    """Multiplier applied to one-dimensional quantities (3 in 3D)."""
    return 3.0 if cfg.dim == 3 else 1.0


def _run_susceptibility(cfg: RunConfig) -> dict:
    omega = cfg.grid("omega")
    alpha = susceptibility(cfg.kernel(), cfg.model(), omega + 0j)
    _write_artifacts(cfg, ("omega", "re_alpha", "im_alpha"),
                     (omega, alpha.real, alpha.imag),
                     {"result": {"points": omega.size}})
    return {}


def _run_causality(cfg: RunConfig) -> dict:
    kernel, model = cfg.kernel(), cfg.model()
    report = poles_and_causality(kernel, model)
    poles = np.array(report.poles, dtype=complex)
    _write_artifacts(cfg, ("re_pole", "im_pole"), (poles.real, poles.imag),
                     {"result": report.to_json()})
    return report.to_json()


def _run_thermo(cfg: RunConfig, use_shift_route: bool) -> dict:
    kernel, model = cfg.kernel(), cfg.model()
    curve = thermo.free_energy_curve(
        kernel, model, cfg.grid("T"), rtol=cfg.tolerance,
        allow_acausal=cfg.options.get("allow_acausal", False),
        use_shift_route=use_shift_route)
    temps, shifts, errors = curve.temperatures, curve.shift, curve.errors
    factor = _dim_factor(cfg)

    result = {"max_quad_error": float(np.max(errors))}
    try:
        # the shift route's U/S/C are those of the shift, not of F0
        derivs = thermo.thermo_derivatives(
            replace(curve, values=shifts) if use_shift_route else curve)
    except QlebathError as exc:  # fewer than 5 or too coarse temperatures
        result["derivatives"] = str(exc)
        derivs = dict.fromkeys("USC", np.full(temps.size, np.nan))
    columns = (temps, *(factor * col for col in (
        curve.values, curve.baseline, shifts, derivs["U"], derivs["S"],
        derivs["C"], errors)))
    if model.K > 0:
        c_fit = thermo.fit_quadratic_coefficient(temps, shifts)
        result["t2_coefficient"] = factor * c_fit
        result["t2_low_temperature"] = factor * thermo.t2_low_temperature(
            kernel, model)
        if kernel.variant == "blackbody":
            # shift = c T^2, so the closed-form coefficient is the shift at T = 1
            result["t2_closed_form"] = thermo.bbr_shift_closed_form(
                1.0, model, dimensions=cfg.dim)
    _write_artifacts(cfg, ("T", "F0", "baseline", "shift", "U", "S", "C",
                           "quad_error"), columns, {"result": result})
    return result


def _run_welton(cfg: RunConfig) -> dict:
    model = cfg.model()
    k = cfg.constants
    factor = _dim_factor(cfg) / 3.0   # the stored integrand is the 3D form
    temps = cfg.grid("T")
    values, errors = np.array([thermo.welton_energy(T, model.M, k,
                                                    rtol=cfg.tolerance)
                               for T in temps]).T
    closed = np.array([thermo.welton_closed_form(T, model.M, k) for T in temps])
    rel = [abs(v - c) / abs(c) for v, c in zip(values, closed) if c != 0.0]
    _write_artifacts(cfg, ("T", "welton_energy", "closed_form", "quad_error"),
                     (temps, factor * values, factor * closed, factor * errors),
                     {"result": {"max_rel_dev_vs_closed_form": max([0.0, *rel])}})
    return {}


def _build_force(spec: dict) -> motion.ForceSignal:
    ftype = spec["type"]
    if ftype == "zero":
        return motion.zero_force()
    if ftype == "constant_ramp":
        return motion.constant_with_ramp(spec["f0"], spec["t_ramp"])
    if ftype == "sinusoid":
        return motion.sinusoid(spec["f0"], spec["omega"])
    return motion.gaussian_pulse(spec["f0"], spec["t0"], spec["sigma"])


def _run_electron_motion(cfg: RunConfig) -> dict:
    model = cfg.model()
    t_grid = cfg.grid("t")
    sig = _build_force(cfg.options["force"])
    x0 = cfg.options["x0"]
    v0 = cfg.options["v0"]
    a0 = cfg.options["a0"]
    integrator = cfg.options["integrator"]
    if integrator == "point-limit":
        traj = motion.integrate_point_limit(sig, model, t_grid, x0=x0, v0=v0,
                                            rtol=cfg.tolerance)
    elif integrator == "bounded-al":
        traj = motion.bounded_al_trajectory(sig, model, t_grid, x0=x0, v0=v0,
                                            rtol=cfg.tolerance)
    else:
        variant = "cutoff" if integrator == "cutoff" else "abraham_lorentz"
        traj = motion.integrate_third_order(sig, model, t_grid, x0=x0, v0=v0,
                                            a0=a0, variant=variant,
                                            rtol=cfg.tolerance)
    _write_artifacts(cfg, ("t", "x", "v", "a"),
                     (traj.times, traj.x, traj.v, traj.a),
                     {"result": traj.summary_json()})
    return traj.summary_json()


def _run_diffusion(cfg: RunConfig) -> dict:
    kernel, model = cfg.kernel(), cfg.model()
    T = cfg.options["T"]
    classical = cfg.options["classical"]
    times = cfg.grid("t") if "t" in cfg.grids else None
    curve = diffusion.msd_curve(kernel, model, T, times, classical=classical,
                                rtol=cfg.tolerance)
    tags = diffusion.regime_tag(curve)
    report = diffusion.report_from_curve(curve)
    _write_artifacts(cfg, ("t", "msd", "regime_tag"),
                     (curve.times, curve.values, tags),
                     {"result": report.to_json()})
    return report.to_json()


def _run_oracle(cfg: RunConfig) -> dict:
    kernel, model = cfg.kernel(), cfg.model()
    opts = cfg.options
    bath = bath_sim.discretize_bath(kernel, opts["N"], opts["omega_max"])
    t_grid = cfg.grid("t")
    ens = bath_sim.simulate_classical_io(
        bath, model, opts["T"], t_grid, opts["n_traj"], cfg.seed,
        freeze_particle=opts["freeze_particle"])

    t_rec = bath_sim.recurrence_time(bath.w)
    if opts["freeze_particle"]:
        report = bath_sim.force_autocorrelation_check(ens, bath, kernel)
        header = ("t", "facf_mean", "facf_stderr", "facf_target")
        columns = (report.times, report.estimate, report.stderr, report.target)
        result = {**report.to_json(), "t_rec": t_rec}
    else:
        header = ("t", "msd_mean", "msd_stderr")
        columns = bath_sim.ensemble_msd(ens)
        result = {"n_traj": ens.n_traj, "N_bath": ens.N_bath, "t_rec": t_rec}

    # The dump is written only once the statistics have succeeded, so a
    # failed run leaves no artifact behind.
    if "dump" in cfg.output:
        os.makedirs(cfg.out_dir, exist_ok=True)
        dump_path = os.path.join(cfg.out_dir, cfg.output["dump"])
        tmp = dump_path + ".tmp"
        bath_sim.dump_ensemble(ens, tmp)
        os.replace(tmp, dump_path)
    _write_artifacts(cfg, header, columns, {"result": result})
    return result


_RUNNERS = {
    "susceptibility": _run_susceptibility,
    "causality": _run_causality,
    "free-energy": partial(_run_thermo, use_shift_route=False),
    "shift": partial(_run_thermo, use_shift_route=True),
    "welton": _run_welton,
    "electron-motion": _run_electron_motion,
    "diffusion": _run_diffusion,
    "oracle": _run_oracle,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    runner = _RUNNERS.get(cfg.command)
    if runner is None:
        print(f"error: config: unknown command '{cfg.command}'",
              file=sys.stderr)
        return 2
    try:
        runner(cfg)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (QlebathError, ValueError, OverflowError,
            FloatingPointError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    return 0


_PARSER = argparse.ArgumentParser(
    prog="qlebath",
    description="Heat-bath response, thermodynamics, radiation reaction, "
                "diffusion, and microscopic-oracle sweeps.")
_PARSER.add_argument("--config", required=True,
                     help="path to a JSON run configuration")
_PARSER.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (overrides config out_dir)")
_PARSER.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
_PARSER.add_argument("--units", choices=("dimensionless", "cgs"),
                     default=None, help="override the unit system")
_PARSER.add_argument("--dim", type=int, choices=(1, 3), default=None,
                     help="override the dimension convention")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    overrides = {"out_dir": args.out, "seed": args.seed,
                 "units": args.units, "dim": args.dim}
    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
