"""Output checks for every benchmark run, with independent references.

References are computed from closed forms or from this file's own numerics
(``prepare``, run before the timed pass); ``check`` then compares one run's
CSV, sidecar and dump against them.  Every check reports the ratio of the
deviation it measured to the tolerance it states; a run passes when every
ratio is below 1.  Tolerances come from the acceptance criteria or from
sampling statistics and were fixed before any result was seen:

* shift route vs free-energy route: |dF0| <= 10 (sum of both quadrature
  error estimates) + 1e-10 (|F0| + |baseline|);
* T^2 coefficient vs pi alpha / 9: 2% (criterion 1);
* Welton quadrature vs its closed form: 1e-8 relative (criterion 3);
* causality verdict vs Omega tau_e < 1: exact (criterion 4);
* susceptibility vs 1/D(omega): 1e-10 times the condition number of D;
* D vs kT/(M gamma): 1% (criterion 6); quantum MSD >= classical MSD to 1e-6;
* ensemble MSD, <v^2> and the force autocorrelation: exact chi-square
  (MSD, <v^2>) or normal (FACF) bounds at a false-failure rate of 1e-6 per
  run, split over the time points (Bonferroni);
* runaway rate vs 1/tau_e and cutoff rate vs 1/|1/Omega - tau_e|: 1%
  (criterion 5); runaway-free verdicts exact; point-limit and bounded-AL
  accelerations vs the drive formula / preacceleration integral to 1e-8 of
  their peak (the integrators' own step-halving tolerance);
* dump -> load_ensemble round trip: header fields exact, x and v against the
  CSV and equipartition, times against the config grid to 1e-9.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import stats
from scipy.integrate import quad

from qlebath import load_ensemble

ALPHA_FS = 1.0 / 137.036
FALSE_FAILURE_RATE = 1e-6


def _csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = values
    return cols


def _sidecar_result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["meta"]["result"]


def grid(spec: dict) -> np.ndarray:
    if spec.get("spacing", "linear") == "log":
        return np.geomspace(spec["start"], spec["stop"], spec["num"])
    return np.linspace(spec["start"], spec["stop"], spec["num"])


def _ratio(dev: float, tol: float) -> float:
    if dev == 0.0:
        return 0.0
    return math.inf if tol <= 0.0 else dev / tol


class Outcome:
    """Named check ratios collected for one run."""

    def __init__(self):
        self.ratios = {}
        self.notes = []

    def add(self, name: str, dev: float, tol: float, detail: str = ""):
        r = _ratio(float(dev), float(tol))
        if math.isnan(r):
            r = math.inf
        self.ratios[name] = max(r, self.ratios.get(name, 0.0))
        if r >= 1.0:
            self.notes.append(f"{name}: {detail or f'{dev:.3g} vs {tol:.3g}'}")

    def verdict(self, name: str, ok: bool, detail: str):
        self.add(name, 0.0 if ok else 1.0, 1.0, detail)

    @property
    def tol_used(self) -> float:
        return max(self.ratios.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.notes


# --------------------------------------------------------------------------
# Independent physics.

def kernel_scale(kernel: dict) -> float:
    """kernel.scale of an ohmic or single-relaxation kernel spec."""
    if kernel["variant"] == "ohmic":
        return kernel["gamma"]
    return max(kernel["gamma"], 1.0 / kernel["tau"])


def _bath(kernel: dict, N: int):
    """Midpoint bath of the CLI default omega_max = 16 kernel scales."""
    gamma = kernel["gamma"]
    dw = 16.0 * kernel_scale(kernel) / N
    w = (np.arange(1, N + 1) - 0.5) * dw
    re_mu = np.full(N, gamma)
    if kernel["variant"] == "single_relaxation":
        re_mu = gamma / (1.0 + (w * kernel["tau"]) ** 2)
    c = (2.0 / math.pi) * re_mu * dw
    return w, c, c / w ** 2


def exact_bath_msd(kernel: dict, N: int, M: float, kT: float, lags):
    """Exact classical MSD of a free particle in the discrete bath.

    Normal modes of the (N+1)-body linear system; initial data as the CLI
    draws them (bath thermal around q_j = x(0), Maxwell velocities), which
    is the stationary ensemble, so the MSD depends on the lag only.
    """
    w, c, m = _bath(kernel, N)
    mass = np.concatenate(([M], m))
    H = np.zeros((N + 1, N + 1))
    H[0, 0] = c.sum()
    H[0, 1:] = H[1:, 0] = -c
    H[np.arange(1, N + 1), np.arange(1, N + 1)] = c
    root = np.sqrt(mass)
    lam, U = np.linalg.eigh(H / np.outer(root, root))
    omega = np.sqrt(np.clip(lam, 0.0, None))
    lags = np.asarray(lags, dtype=float)
    phase = np.outer(lags, omega)
    zero = omega < 1e-9 * omega.max()
    sinc = np.where(zero, lags[:, None], np.sin(phase) / np.where(zero, 1.0, omega))
    scale = root / root[0]
    G = (np.cos(phase) * U[0]) @ U.T * scale      # dx(t)/dq_k(0)
    S = (sinc * U[0]) @ U.T * scale               # dx(t)/dqdot_k(0)
    return kT * ((G[:, 1:] ** 2) @ (1.0 / c) + (S ** 2) @ (1.0 / mass))


def _force(drive: dict):
    """Drive f(t) and f'(t), written out independently of qlebath.motion."""
    kind = drive["type"]
    if kind == "zero":
        return (lambda t: 0.0 * t), (lambda t: 0.0 * t)
    f0 = drive["f0"]
    if kind == "sinusoid":
        w = drive["omega"]
        return (lambda t: f0 * np.sin(w * t)), (lambda t: f0 * w * np.cos(w * t))
    if kind == "gaussian_pulse":
        t0, s = drive["t0"], drive["sigma"]

        def f(t):
            return f0 * np.exp(-0.5 * ((t - t0) / s) ** 2)
        return f, (lambda t: -f(t) * (t - t0) / s ** 2)
    tr = drive["t_ramp"]

    def f(t):
        u = np.clip(np.asarray(t, dtype=float) / tr, 0.0, 1.0)
        return f0 * u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)

    def fdot(t):
        u = np.clip(np.asarray(t, dtype=float) / tr, 0.0, 1.0)
        return f0 * 30.0 * u ** 2 * (1.0 - u) ** 2 / tr
    return f, fdot


def tau_e(M: float) -> float:
    return 2.0 * ALPHA_FS / (3.0 * M)


def _chi2_bounds(n: int, points: int):
    """Two-sided bounds on a chi-square(n)/n sample mean, per point."""
    a = FALSE_FAILURE_RATE / max(points, 1)
    return (stats.chi2.ppf(0.5 * a, n) / n, stats.chi2.isf(0.5 * a, n) / n)


def _chi2_ratio(mean, ref, n: int, name: str, out: Outcome):
    """Deviation of mean/ref from 1 against the exact chi-square bounds."""
    lo, hi = _chi2_bounds(n, mean.size)
    r = mean / ref
    sigma = math.sqrt(2.0 / n)
    up = np.max((r - 1.0) / (hi - 1.0))
    down = np.max((1.0 - r) / (1.0 - lo))
    worst = np.max(np.abs(r - 1.0)) / sigma
    out.add(name, max(up, down, 0.0), 1.0,
            f"{worst:.2f} sigma from the reference (n = {n})")


# --------------------------------------------------------------------------
# References computed before the timed pass.

def prepare(case: dict) -> dict:
    cfg = case["config"]
    cmd = cfg["command"]
    if cmd == "oracle":
        kT = cfg["T"]
        if cfg.get("freeze_particle"):
            w, c, _ = _bath(cfg["kernel"], cfg["N"])
            return {"w": w, "c": c, "kT": kT}
        t = grid(cfg["grids"]["t"])
        return {"msd": exact_bath_msd(cfg["kernel"], cfg["N"], 1.0, kT,
                                      t - t[0])}
    if cmd == "electron-motion" and cfg["integrator"] in ("point-limit",
                                                          "bounded-al"):
        t = grid(cfg["grids"]["t"])
        M = cfg["model"]["M"]
        tau = tau_e(M)
        f, fdot = _force(cfg["force"])
        if cfg["integrator"] == "point-limit":
            return {"a": (f(t) + tau * fdot(t)) / M}
        a = np.array([quad(lambda u, tk=tk: math.exp(-u) * float(f(tk + u * tau)),
                           0.0, math.inf, epsabs=0.0, epsrel=1e-12,
                           limit=200)[0] for tk in t]) / M
        return {"a": a}
    return {}


# --------------------------------------------------------------------------
# Per-command checks.

def _files(cfg: dict, out_dir: str):
    base = cfg["command"].replace("-", "_")
    output = cfg.get("output", {})
    return (os.path.join(out_dir, output.get("csv", f"{base}.csv")),
            os.path.join(out_dir, output.get("json", f"{base}.json")))


def _thermo(case, csv, result, partner, out):
    if case["check"].get("t2"):
        factor = 3.0 if case["check"]["dim"] == 3 else 1.0
        target = factor * math.pi * ALPHA_FS / 9.0
        c = result["t2_coefficient"]
        out.add("t2_coefficient", abs(c / target - 1.0), 0.02,
                f"T^2 coefficient {c:.6e} vs {target:.6e}")
    if case["check"].get("routes") and partner is not None:
        dev = np.abs(csv["F0"] - partner["F0"])
        tol = (10.0 * (np.abs(csv["quad_error"]) + np.abs(partner["quad_error"]))
               + 1e-10 * (np.abs(csv["F0"]) + np.abs(csv["baseline"])))
        i = int(np.argmax(dev / tol))
        out.add("free_energy_routes", dev[i], tol[i],
                f"shift and free-energy routes differ by {dev[i]:.3g} at "
                f"T = {csv['T'][i]:.4g} (tolerance {tol[i]:.3g})")


def _welton(case, csv, out):
    factor = (3.0 if case["check"]["dim"] == 3 else 1.0) / 3.0
    ref = factor * math.pi * ALPHA_FS * csv["T"] ** 2 / 3.0
    rel = np.abs(csv["welton_energy"] / ref - 1.0)
    i = int(np.argmax(rel))
    out.add("welton_closed_form", rel[i], 1e-8,
            f"Welton energy off its closed form by {rel[i]:.3g} at "
            f"T = {csv['T'][i]:.4g}")


def _causality(case, result, out):
    cfg = case["config"]
    expected = True
    if cfg["kernel"]["variant"] == "blackbody":
        expected = cfg["model"]["Omega"] * tau_e(cfg["model"]["M"]) < 1.0
    out.verdict("causality_verdict", result["causal"] == expected,
                f"verdict causal={result['causal']}, Omega tau_e < 1 is "
                f"{expected}")


def _susceptibility(case, csv, out):
    cfg = case["config"]
    kernel, model = cfg["kernel"], cfg["model"]
    w = csv["omega"]
    K = model["K"]
    if kernel["variant"] == "ohmic":
        m, mu = 1.0, np.full(w.shape, kernel["gamma"], dtype=complex)
    elif kernel["variant"] == "single_relaxation":
        m, mu = 1.0, kernel["gamma"] / (1.0 - 1j * w * kernel["tau"])
    else:
        om, M = model["Omega"], model["M"]
        m = M * (1.0 - tau_e(M) * om)
        mu = (2.0 * ALPHA_FS / 3.0) * om ** 2 * w / (w + 1j * om)
    t_mass, t_fric = m * w ** 2, 1j * w * mu
    D = -t_mass - t_fric + K
    ref = 1.0 / D
    got = csv["re_alpha"] + 1j * csv["im_alpha"]
    cond = (np.abs(t_mass) + np.abs(t_fric) + abs(K)) / np.abs(D)
    dev = np.abs(got - ref)
    tol = 1e-10 * np.abs(ref) * cond
    i = int(np.argmax(dev / tol))
    out.add("susceptibility", dev[i], tol[i],
            f"alpha off 1/D by {dev[i]:.3g} at omega = {w[i]:.4g}")


def _diffusion(case, csv, result, partner, out):
    cfg = case["config"]
    if case["check"].get("einstein"):
        target = cfg["T"] / cfg["kernel"]["gamma"]
        D = result.get("D")
        if D is None:
            out.verdict("einstein_D", False, "diffusion reported as anomalous")
        else:
            out.add("einstein_D", abs(D / target - 1.0), 0.01,
                    f"D = {D:.6g} vs kT/(M gamma) = {target:.6g}")
    if partner is not None:
        q, c = ((csv, partner) if case["check"]["msd_pair"] == "quantum"
                else (partner, csv))
        excess = np.max((c["msd"] - q["msd"]) / (1e-6 * c["msd"]))
        out.add("quantum_above_classical", max(excess, 0.0), 1.0,
                "quantum MSD falls below the classical MSD")


def _dump(case, out_dir, out, moving_csv=None):
    cfg = case["config"]
    ens = load_ensemble(os.path.join(out_dir, cfg["output"]["dump"]))
    t = grid(cfg["grids"]["t"])
    n = cfg["n_traj"]
    header_ok = (ens.n_traj == n and ens.N_bath == cfg["N"]
                 and ens.T == cfg["T"] and ens.seed == cfg["seed"]
                 and ens.x.shape == (n, t.size))
    out.verdict("dump_header", header_ok, "dump header or shape differs from "
                "the config")
    if not header_ok:
        return
    shift = float(np.max(np.abs(ens.times - t)))
    out.add("dump_times", shift, 1e-9 * max(abs(t[-1]), 1.0),
            f"reloaded times differ from the grid by up to {shift:.6g} "
            f"(grid starts at {t[0]:.6g})")
    if cfg.get("freeze_particle"):
        out.verdict("dump_xv", not np.any(ens.x) and not np.any(ens.v),
                    "frozen particle moved in the dump")
        return
    msd = ((ens.x - ens.x[:, :1]) ** 2).mean(axis=0)
    dev = float(np.max(np.abs(msd - moving_csv["msd_mean"])))
    out.add("dump_x", dev, 1e-12 * float(np.max(msd)),
            "MSD of the reloaded x differs from the CSV")
    _chi2_ratio((ens.v ** 2).mean(axis=0), cfg["T"], n, "dump_v_equipartition",
                out)


def _oracle(case, out_dir, csv, ref, out):
    cfg = case["config"]
    n = cfg["n_traj"]
    if cfg.get("freeze_particle"):
        w, c, kT = ref["w"], ref["c"], ref["kT"]
        t = csv["t"]
        target = kT * (np.cos(np.outer(t, w)) @ c)
        dev = np.max(np.abs(csv["facf_target"] - target))
        out.add("facf_target", dev, 1e-9 * abs(target[0]),
                "sidecar target differs from kT sum_j c_j cos(w_j t)")
        sigma = np.sqrt((target[0] ** 2 + target ** 2) / n)
        z = np.abs(csv["facf_mean"] - target) / sigma
        k = stats.norm.isf(0.5 * FALSE_FAILURE_RATE / t.size)
        i = int(np.argmax(z))
        out.add("facf_sigma", z[i], k,
                f"FACF {z[i]:.2f} sigma from kT mu(t) at t = {t[i]:.4g} "
                f"(limit {k:.2f})")
    else:
        mean, msd = csv["msd_mean"][1:], ref["msd"][1:]
        _chi2_ratio(mean, msd, n, "msd_sigma", out)
    if "dump" in cfg.get("output", {}):
        _dump(case, out_dir, out, csv)


def _motion(case, csv, result, ref, out):
    cfg = case["config"]
    integrator = cfg["integrator"]
    M = cfg["model"]["M"]
    tau = tau_e(M)
    if integrator in ("point-limit", "bounded-al"):
        out.verdict("runaway_free", not result["runaway"],
                    f"{integrator} run flagged as a runaway")
        a_ref = ref["a"]
        dev = float(np.max(np.abs(csv["a"] - a_ref)))
        out.add("acceleration", dev, 1e-8 * float(np.max(np.abs(a_ref))),
                f"acceleration off the reference by {dev:.3g}")
        return
    if integrator == "abraham-lorentz":
        rate = 1.0 / tau
    else:
        eps = 1.0 / cfg["model"]["Omega"] - tau
        rate = -1.0 / eps
    if rate > 0:
        growth = result.get("growth_rate")
        if not result["runaway"] or growth is None:
            out.verdict("runaway_rate", False, "runaway not detected")
        else:
            out.add("runaway_rate", abs(growth / rate - 1.0), 0.01,
                    f"growth rate {growth:.6g} vs {rate:.6g}")
    elif cfg["force"]["type"] == "zero":
        start = (2 * csv["t"].size) // 3
        slope = np.polyfit(csv["t"][start:], np.log(np.abs(csv["a"][start:])),
                           1)[0]
        out.add("cutoff_decay", abs(slope / rate - 1.0), 0.01,
                f"decay rate {-slope:.6g} vs 1/(1/Omega - tau_e) = {-rate:.6g}")
    else:
        out.verdict("runaway_free", not result["runaway"],
                    "causal cutoff run flagged as a runaway")


def check(case: dict, out_dir: str, rc: int, ref: dict,
          partner: dict | None) -> tuple[Outcome, dict | None]:
    """Check one run against its references and, when given, the parsed CSV
    of its partner case; returns the outcome and this run's parsed CSV."""
    out = Outcome()
    if rc != 0:
        out.verdict("exit_code", False, f"exit code {rc}")
        return out, None
    cfg = case["config"]
    csv_path, json_path = _files(cfg, out_dir)
    csv = _csv(csv_path)
    result = _sidecar_result(json_path)
    cmd = cfg["command"]
    if cmd in ("shift", "free-energy"):
        _thermo(case, csv, result, partner, out)
    elif cmd == "welton":
        _welton(case, csv, out)
    elif cmd == "causality":
        _causality(case, result, out)
    elif cmd == "susceptibility":
        _susceptibility(case, csv, out)
    elif cmd == "diffusion":
        _diffusion(case, csv, result, partner, out)
    elif cmd == "oracle":
        _oracle(case, out_dir, csv, ref, out)
    else:
        _motion(case, csv, result, ref, out)
    return out, csv
