"""Run one workload: set-up timing, references, warm-up, timed pass, checks.

One closed-loop client calls ``qlebath.cli.main`` in-process on each case of
the workload's deck, the next call starting when the previous one returns,
and repeats whole deck cycles until the measuring time is used.  Each run's
outputs are checked right after it returns; the checks are outside the
run's latency.  With tracing on, the measuring time is split: an untraced
pass first, then a traced pass whose spans give the per-layer metrics, and
the gap between the two passes' throughput is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import spans
import verify
from workloads import make_deck

SETUP_REPEATS = 5

# Speed calibration.  On a shared 2-vCPU VM (Intel Xeon under KVM),
# the same run takes ~120 ms for a while and ~160 ms for the next while (CPU
# time follows wall time, so it is not stolen time), which moves every
# timing between runs by up to a third.  A fixed job of interpreter and BLAS
# work, owned by the benchmark, is timed alongside the runs, and timings are
# reported at the speed where that job takes CAL_REF_S.  Raw values are kept
# in the record.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.25


def calibrate() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sin(i * 1e-3)
    a = np.full((512, 512), 1.0 / 512)
    v = np.ones(512)
    for _ in range(40):
        v = a @ v
    return time.perf_counter() - start

# Fresh-interpreter set-up: import the package, validate every config.
_SETUP_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
import qlebath
from qlebath.config import load_config
for name in sorted(os.listdir(sys.argv[2])):
    load_config(os.path.join(sys.argv[2], name))
"""

END_TO_END = {"setup_s": "s", "throughput": "points/s", "run_ms_p50": "ms",
              "run_ms_tail": "ms", "peak_rss_mb": "MB", "failed_frac": "ratio",
              "tol_used_max": "ratio"}

WORK_UNIT = {"quadrature_sweep": "quadrature grid points",
             "oracle_moving": "trajectory samples (n_traj x n_times)",
             "oracle_frozen": "trajectory samples (n_traj x n_times)",
             "motion_drives": "trajectory grid points"}

PER_LAYER = {}
for _layer in spans.LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.busy_s": "s",
                      f"{_layer}.self_s": "s", f"{_layer}.errors": "count"})
PER_LAYER.update({
    "response.closure_evals": "count",
    "thermo.quad_calls": "count", "thermo.quad_neval": "count",
    "thermo.err_ratio_max": "ratio",
    "diffusion.quad_calls": "count", "diffusion.quad_neval": "count",
    "motion.rk4_steps": "count", "motion.force_evals": "count",
    "motion.useful_step_ratio": "ratio",
    "bath_sim.simulate_s": "s", "bath_sim.verlet_steps": "count",
    "bath_sim.working_set_bytes": "bytes",
    "bath_sim.stats_s": "s", "bath_sim.dump_s": "s",
    "bath_sim.dump_bytes": "bytes",
    "cli.artifact_bytes": "bytes",
    "import.qlebath_s": "s", "import.deps_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio", "tol_used_max": "ratio",
})


# ---- environment ---------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(root: str, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": _openblas(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": _git_commit(root), "seed": seed}


# ---- set-up and import probes ---------------------------------------------

def measure_setup(src: str, config_dir: str, repeats: int):
    """Wall times of ``repeats`` set-ups, and calibrations taken between."""
    times, calibrations = [], []
    for _ in range(repeats):
        calibrations.append(calibrate())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, src, config_dir],
                       check=True)
        times.append(time.perf_counter() - start)
    return times, calibrations


def measure_imports(src: str) -> dict:
    """Self import time of qlebath's modules and of numpy/scipy, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import qlebath"], env=env, capture_output=True,
                          text=True, check=True)
    own = deps = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if top == "qlebath":
            own += float(self_us) / 1e6
        elif top in ("numpy", "scipy"):
            deps += float(self_us) / 1e6
    return {"import.qlebath_s": own, "import.deps_s": deps}


# ---- the timed pass --------------------------------------------------------

def _dir_bytes(path: str, names=None) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path)
               if names is None or n in names)


def _rk4_steps(cfg: dict) -> tuple[int, int]:
    """(total, useful) RK4 steps of a motion run, from the grid and n_sub."""
    grid = verify.grid(cfg["grids"]["t"])
    intervals = grid.size - 1
    if cfg["integrator"] in ("point-limit", "bounded-al"):
        return 3 * intervals, 2 * intervals     # full step + two half steps
    tau = verify.tau_e(cfg["model"]["M"])
    eps = (tau if cfg["integrator"] == "abraham-lorentz"
           else abs(1.0 / cfg["model"]["Omega"] - tau))
    n_sub = max(1, math.ceil(float(np.max(np.diff(grid))) / (0.2 * eps)))
    return n_sub * intervals, n_sub * intervals


def _verlet_steps(cfg: dict) -> int:
    if cfg.get("freeze_particle"):
        return 0
    N = cfg["N"]
    # Verlet step 0.05 / max(omega_j), max(omega_j) = (N - 1/2) omega_max / N
    dt = 0.05 / ((N - 0.5) * 16.0 * verify.kernel_scale(cfg["kernel"]) / N)
    grid = verify.grid(cfg["grids"]["t"])
    edges = np.concatenate(([0.0], grid)) if grid[0] > 0 else grid
    return int(sum(max(1, math.ceil(s / dt)) for s in np.diff(edges)))


class Pass:
    """One timed pass: whole deck cycles until ``seconds`` have elapsed."""

    def __init__(self, deck, refs, out_root, seconds, tracer=None):
        self.deck, self.refs, self.out_root = deck, refs, out_root
        self.seconds, self.tracer = seconds, tracer
        self.cycle_rates, self.calibrations = [], []
        self._calibrated = 0.0
        self.by_case = {case["id"]: [] for case in deck}
        self.attempted = self.failed = 0
        self.tol_used = 0.0
        self.failures = []
        self.cycles = 0
        self.extra = {"motion.rk4_steps": 0, "motion.useful_steps": 0,
                      "bath_sim.verlet_steps": 0, "bath_sim.dump_bytes": 0,
                      "cli.artifact_bytes": 0, "bath_sim.working_set_bytes": 0}

    def run(self, cli_main):
        main = cli_main
        if self.tracer is not None:
            main = self.tracer.wrap("cli", cli_main, failed=lambda rc: rc != 0)
        start = time.perf_counter()
        while self.cycles == 0 or time.perf_counter() - start < self.seconds:
            self._cycle(main)
            self.cycles += 1
        return self

    def _cycle(self, main):
        done = {}
        busy = work = 0.0
        for case in self.deck:
            out_dir = os.path.join(self.out_root, case["id"])
            args = ["--config", case["path"], "--out", out_dir]
            if self.tracer is not None:
                self.tracer.run = f"{self.cycles}:{case['id']}"
            t0 = time.perf_counter()
            rc = main(args)
            latency = time.perf_counter() - t0
            self.by_case[case["id"]].append(latency)
            busy += latency
            work += case["work"]
            self.attempted += 1
            partner = done.get(case["pair"])
            outcome, csv = verify.check(case, out_dir, rc, self.refs[case["id"]],
                                        partner)
            done[case["id"]] = csv
            self.tol_used = max(self.tol_used, outcome.tol_used)
            if not outcome.ok:
                self.failed += 1
                self.failures.append({"cycle": self.cycles, "case": case["id"],
                                      "why": outcome.notes})
            if self.tracer is not None and rc == 0:
                self._count(case, out_dir)
            if time.perf_counter() - self._calibrated >= CAL_EVERY_S:
                self.calibrations.append(calibrate())
                self._calibrated = time.perf_counter()
        self.cycle_rates.append(work / busy)

    def _count(self, case, out_dir):
        cfg, extra = case["config"], self.extra
        extra["cli.artifact_bytes"] += _dir_bytes(out_dir)
        if cfg["command"] == "electron-motion":
            total, useful = _rk4_steps(cfg)
            extra["motion.rk4_steps"] += total
            extra["motion.useful_steps"] += useful
        elif cfg["command"] == "oracle":
            extra["bath_sim.verlet_steps"] += _verlet_steps(cfg)
            extra["bath_sim.working_set_bytes"] = max(
                extra["bath_sim.working_set_bytes"],
                8 * cfg["n_traj"] * cfg["N"])
            if "dump" in cfg.get("output", {}):
                extra["bath_sim.dump_bytes"] += _dir_bytes(
                    out_dir, {cfg["output"]["dump"]})

    @property
    def latencies(self) -> list:
        return [x for runs in self.by_case.values() for x in runs]

    @property
    def throughput(self) -> float:
        """Median over deck cycles of work units per second of run time."""
        return statistics.median(self.cycle_rates)

    @property
    def scale(self) -> float:
        """Time scale factor to the calibration's reference speed."""
        return CAL_REF_S / statistics.median(self.calibrations)


def tail(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten runs above it."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(p: Pass, setup_times, setup_calibrations):
    """Metrics at the reference speed, and the raw (wall-clock) ones."""
    value, pct = tail(p.latencies)
    raw = {
        "setup_s": statistics.median(setup_times),
        "throughput": p.throughput,
        "run_ms_p50": 1e3 * statistics.median(p.latencies),
        "run_ms_tail": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": p.failed / p.attempted,
        "tol_used_max": p.tol_used,
    }
    setup_scale = CAL_REF_S / statistics.median(setup_calibrations)
    metrics = dict(raw, setup_s=raw["setup_s"] * setup_scale,
                   throughput=raw["throughput"] / p.scale,
                   run_ms_p50=raw["run_ms_p50"] * p.scale,
                   run_ms_tail=raw["run_ms_tail"] * p.scale)
    return metrics, {"raw": raw, "tail_percentile": pct, "runs": p.attempted,
                     "cycles": p.cycles, "setup_scale": setup_scale,
                     "pass_scale": p.scale}


def per_layer(p: Pass, tracer: spans.Tracer, imports: dict,
              untraced: Pass) -> dict:
    k = p.cycles
    table = spans.layer_table(tracer.spans)
    out = {}
    for layer, row in table.items():
        for key, value in row.items():
            out[f"{layer}.{key}"] = value / k
    counts = tracer.counts
    for key in ("response.closure_evals", "thermo.quad_calls",
                "thermo.quad_neval", "diffusion.quad_calls",
                "diffusion.quad_neval", "motion.force_evals"):
        out[key] = counts[key] / k
    out["thermo.err_ratio_max"] = tracer.maxima["thermo.err_ratio_max"]
    extra = p.extra
    out["motion.rk4_steps"] = extra["motion.rk4_steps"] / k
    out["motion.useful_step_ratio"] = (
        extra["motion.useful_steps"] / extra["motion.rk4_steps"]
        if extra["motion.rk4_steps"] else 0.0)
    out["bath_sim.simulate_s"] = spans.busy_by_name(
        tracer.spans, {"simulate_classical_io"}) / k
    out["bath_sim.stats_s"] = spans.busy_by_name(
        tracer.spans, {"force_autocorrelation_check", "ensemble_msd"}) / k
    out["bath_sim.dump_s"] = spans.busy_by_name(
        tracer.spans, {"dump_ensemble"}) / k
    for key in ("bath_sim.verlet_steps", "bath_sim.dump_bytes",
                "cli.artifact_bytes"):
        out[key] = extra[key] / k
    out["bath_sim.working_set_bytes"] = extra["bath_sim.working_set_bytes"]
    out.update(imports)
    out["trace.overhead_frac"] = 1.0 - ((p.throughput / p.scale)
                                        / (untraced.throughput / untraced.scale))
    out["failed_frac"] = p.failed / p.attempted
    out["tol_used_max"] = p.tol_used
    return {name: out[name] for name in PER_LAYER}


# ---- entry -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str, setup_repeats: int = SETUP_REPEATS,
                 max_cases: int | None = None) -> dict:
    """Run one workload; returns the full result record."""
    from qlebath.cli import main as cli_main

    src = os.path.join(root, "src")
    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    config_dir = os.path.join(work, "configs")
    os.makedirs(config_dir)
    try:
        deck = make_deck(workload, seed)[:max_cases]
        for case in deck:
            case["path"] = os.path.join(config_dir, f"{case['id']}.json")
            with open(case["path"], "w", encoding="utf-8") as fh:
                json.dump(case["config"], fh)
        setup_times, setup_calibrations = measure_setup(src, config_dir,
                                                        setup_repeats)
        refs = {case["id"]: verify.prepare(case) for case in deck}

        warm = os.path.join(work, "warm")
        seen = set()
        for case in deck:
            if case["kind"] not in seen:
                seen.add(case["kind"])
                cli_main(["--config", case["path"], "--out", warm])

        out_root = os.path.join(work, "out")
        share = seconds / 2.0 if trace else seconds
        plain = Pass(deck, refs, out_root, share).run(cli_main)
        metrics, info = end_to_end(plain, setup_times, setup_calibrations)
        record = {"workload": workload, "trace": trace,
                  "environment": environment(root, seed),
                  "work_unit": WORK_UNIT[workload],
                  "end_to_end": metrics, **info,
                  "setup_runs_s": setup_times,
                  "calibrations_s": {"setup": setup_calibrations,
                                     "pass": plain.calibrations},
                  "latencies_s": plain.by_case,
                  "work": {case["id"]: case["work"] for case in deck},
                  "attempted": plain.attempted, "failed": plain.failed,
                  "failures": plain.failures}
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = Pass(deck, refs, out_root, share, tracer).run(cli_main)
            finally:
                tracer.uninstall()
            record["per_layer"] = per_layer(traced, tracer, measure_imports(src),
                                            plain)
            record["traced_throughput"] = traced.throughput
            record["attempted"] += traced.attempted
            record["failed"] += traced.failed
            record["failures"] += traced.failures
            record["tracer"] = tracer
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
