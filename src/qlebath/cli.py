"""Command-line front end: config-driven sweeps with CSV + JSON artifacts.

Every run writes a CSV table and a JSON sidecar into the output directory.
The sidecar is the fully resolved config (so it re-loads as a valid config
reproducing the run) plus a "meta" object holding package and dependency
versions, achieved tolerances, and the command's summary result.

Exit codes: 0 success, 2 invalid config or arguments, 3 numerical failure
(or a run that does not fit in memory).
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
from operator import methodcaller

import numpy as np

from ._version import __version__
from . import bath_sim, diffusion, motion, thermo
from .config import _FORCE_TYPES, RunConfig, load_config
from .errors import ConfigError, QlebathError
from .response import poles_and_causality, susceptibility


def _replace_file(path: str, write) -> None:
    """Have write(fh) fill a new temporary binary file beside path, then
    rename it over path; a failed write removes the temporary file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header, columns) -> str:
    """CSV of the columns: numbers as repr(float), strings as they are."""
    cells = [col if len(col) and isinstance(col[0], str)
             else map(repr, np.asarray(col, dtype=float).tolist())
             for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _write_artifacts(cfg: RunConfig, header, columns, meta: dict,
                     ensemble=None) -> None:
    """Write the run's files: the ensemble dump when there is one and the
    config names a file for it, the CSV, then the sidecar.  All text is built first, so a sidecar value
    outside strict JSON fails the run before any file is written."""
    sidecar = cfg.to_json()
    sidecar["meta"] = {
        "package": "qlebath",
        "version": __version__,
        "numpy": np.__version__,
        **meta,
    }
    # strict JSON: a NaN or infinity raises here
    texts = {"csv": _csv_text(header, columns),
             "json": json.dumps(sidecar, allow_nan=False) + "\n"}
    writers = ({"dump": partial(bath_sim.dump_ensemble, ensemble)}
               if ensemble is not None and "dump" in cfg.output else {})
    writers.update((kind, methodcaller("write", text.encode()))
                   for kind, text in texts.items())
    os.makedirs(cfg.out_dir, exist_ok=True)
    for kind, write in writers.items():
        _replace_file(os.path.join(cfg.out_dir, cfg.output[kind]), write)


def _run_susceptibility(cfg: RunConfig) -> None:
    omega = cfg.grid("omega")
    alpha = susceptibility(cfg.kernel(), cfg.model(), omega + 0j)
    _write_artifacts(cfg, ("omega", "re_alpha", "im_alpha"),
                     (omega, alpha.real, alpha.imag),
                     {"result": {"points": omega.size}})


def _run_causality(cfg: RunConfig) -> None:
    report = poles_and_causality(cfg.kernel(), cfg.model())
    poles = np.array(report.poles, dtype=complex)
    _write_artifacts(cfg, ("re_pole", "im_pole"), (poles.real, poles.imag),
                     {"result": report.to_json()})


def _run_thermo(cfg: RunConfig, use_shift_route: bool) -> None:
    kernel, model = cfg.kernel(), cfg.model()
    curve = thermo.free_energy_curve(
        kernel, model, cfg.grid("T"),
        allow_acausal=cfg.options.get("allow_acausal", False),
        use_shift_route=use_shift_route)
    temps, shifts, errors = curve.temperatures, curve.shift, curve.errors
    factor = float(cfg.dim)  # per-direction quantities times 1 or 3

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


def _run_welton(cfg: RunConfig) -> None:
    temps, mass = cfg.grid("T"), cfg.model().M
    factor = cfg.dim / 3.0   # the stored integrand is the 3D form
    values, errors = thermo.welton_energy(temps, mass, cfg.constants)
    closed = thermo.welton_closed_form(temps, mass, cfg.constants)
    hot = closed != 0.0
    dev = np.max(np.abs(values[hot] - closed[hot]) / closed[hot], initial=0.0)
    _write_artifacts(cfg, ("T", "welton_energy", "closed_form", "quad_error"),
                     (temps, factor * values, factor * closed, factor * errors),
                     {"result": {"max_rel_dev_vs_closed_form": float(dev)}})


def _run_electron_motion(cfg: RunConfig) -> None:
    model = cfg.model()
    t_grid = cfg.grid("t")
    force = cfg.options["force"]
    factory, params = _FORCE_TYPES[force["type"]]
    # looked up on motion at each run, where a tracer may have wrapped it
    sig = getattr(motion, factory)(*(force[p] for p in params))
    opts = cfg.options
    start = {"x0": opts["x0"], "v0": opts["v0"], "rtol": cfg.tolerance}
    integrator = opts["integrator"]
    if integrator == "point-limit":
        traj = motion.integrate_point_limit(sig, model, t_grid, **start)
    elif integrator == "bounded-al":
        traj = motion.bounded_al_trajectory(sig, model, t_grid, **start)
    else:
        variant = "cutoff" if integrator == "cutoff" else "abraham_lorentz"
        traj = motion.integrate_third_order(sig, model, t_grid, a0=opts["a0"],
                                            variant=variant, **start)
    _write_artifacts(cfg, ("t", "x", "v", "a"),
                     (traj.times, traj.x, traj.v, traj.a),
                     {"result": traj.summary_json()})


def _run_diffusion(cfg: RunConfig) -> None:
    kernel, model = cfg.kernel(), cfg.model()
    opts = cfg.options  # grids.t is optional: msd_curve has a default grid
    curve = diffusion.msd_curve(kernel, model, opts["T"], cfg.grids.get("t"),
                                classical=opts["classical"], rtol=cfg.tolerance)
    _write_artifacts(cfg, ("t", "msd", "regime_tag"),
                     (curve.times, curve.values, diffusion.regime_tag(curve)),
                     {"result": diffusion.report_from_curve(curve).to_json(),
                      "diagnostics": curve.diagnostics})


def _run_oracle(cfg: RunConfig) -> None:
    kernel, model = cfg.kernel(), cfg.model()
    opts = cfg.options
    bath = bath_sim.discretize_bath(kernel, opts["N"], opts["omega_max"])
    if not opts["freeze_particle"]:
        model = bath_sim.particle_model(kernel, model, bath)
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
    # the bath recurs at t_rec: later points no longer sample the continuum
    diagnostics = {**ens.diagnostics,
                   "points_past_t_rec": int(np.count_nonzero(t_grid > t_rec))}
    # only once the statistics have succeeded, so a failed run writes nothing
    _write_artifacts(cfg, header, columns,
                     {"result": result, "diagnostics": diagnostics},
                     ensemble=ens)


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
    try:
        _RUNNERS[cfg.command](cfg)
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
    except MemoryError as exc:
        print(f"error: memory: {exc}", file=sys.stderr)
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
