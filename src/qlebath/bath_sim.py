"""Brute-force realization of the independent-oscillator heat bath.

The continuum memory kernel is discretized into N explicit oscillators with
weights chosen so the discrete cosine sum converges to the memory function;
the coupled classical system (particle + bath, bilinear coupling through
(q_j - x)^2) is linear, so it is solved exactly in its normal modes from
thermal initial data (Ford, Kac & Mazur, J. Math. Phys. 6, 504 (1965);
Ullersma, Physica 32, 27 (1966)).
This provides an independent check of the fluctuation-dissipation structure:
the force on a frozen particle must satisfy <F(t)F(0)> = kT mu(t), and the
free-particle ensemble MSD must match the quadrature route.

The discrete bath is periodic: all comparisons are only meaningful below the
recurrence horizon t_rec = 2 pi / (frequency spacing).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._grid import check_time_grid, is_uniform_grid
from .errors import GridError, InsufficientStatisticsError
from .kernels import MemoryKernel
from .response import ParticleModel

# numpy.random.SeedSequence's hash constants (NEP 19) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_DUMP_MAGIC = b"QLEB"
_DUMP_VERSION = 2
# Header after the magic and the uint32 version, per version.
_DUMP_HEADER = {1: "<IIIddQ", 2: "<IIIIddddQ"}


@dataclass(frozen=True)
class Bath:
    """The bath modes: masses m_j and frequencies w_j as float arrays, with
    weights c_j = m_j w_j^2."""

    m: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        m, w = np.asarray(self.m, dtype=float), np.asarray(self.w, dtype=float)
        if m.ndim != 1 or m.size < 1 or w.shape != m.shape:
            raise ValueError("bath masses and frequencies must be nonempty "
                             "1-d arrays of equal length")
        if not np.all((m > 0) & np.isfinite(m)):
            raise ValueError("bath oscillator mass must be positive and finite")
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("bath oscillator frequency must be positive and finite")
        with np.errstate(over="ignore"):
            finite_weights = np.all(np.isfinite(m * w ** 2))
        if not finite_weights:
            raise ValueError("bath oscillator weight m_j omega_j^2 must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "w", w)

    @property
    def c(self) -> np.ndarray:
        return self.m * self.w ** 2


def bath_frequencies(kernel: MemoryKernel, N: int,
                     omega_max: float | None = None) -> np.ndarray:
    """Midpoint mode frequencies (j - 1/2) dw, j = 1..N, dw = omega_max / N.

    omega_max defaults to 16 kernel.scale and must sit well beyond the
    kernel's support scale (>= 10 kernel.scale); raises GridError otherwise.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 2):
        raise GridError("bath discretization needs N >= 2")
    if omega_max is None:
        omega_max = 16.0 * kernel.scale
    if not (omega_max > 0 and math.isfinite(omega_max)):
        raise GridError("omega_max must be positive and finite")
    if omega_max < 10.0 * kernel.scale:
        raise GridError(
            f"omega_max = {omega_max:.6g} does not cover the kernel support "
            f"(need >= 10 * kernel scale = {10.0 * kernel.scale:.6g})")
    return (np.arange(1, N + 1) - 0.5) * (omega_max / N)


def discretize_bath(kernel: MemoryKernel, N: int,
                    omega_max: float | None = None) -> Bath:
    """Uniform-frequency bath with weights m_j omega_j^2 = (2/pi) Re mu(omega_j) dw.

    The modes sit at bath_frequencies(kernel, N, omega_max); the uniform
    grid makes the recurrence time 2 pi/dw sharp.
    """
    nodes = bath_frequencies(kernel, N, omega_max)
    dw = 2.0 * nodes[0]   # the first midpoint is dw/2, exactly
    re_mu = np.asarray(kernel.re_mu_real_axis(nodes), dtype=float)
    weights = (2.0 / math.pi) * re_mu * dw
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValueError(
            "kernel weight (2/pi) Re mu_tilde must be positive and finite at "
            "every grid node; this kernel cannot be discretized on (0, omega_max]")
    return Bath(m=weights / nodes ** 2, w=nodes)


def recurrence_time(w: np.ndarray) -> float:
    """Poincare recurrence horizon 2 pi / (frequency spacing) of a bath with
    mode frequencies w."""
    w = np.asarray(w, dtype=float)
    if w.size < 2:
        return math.inf
    dw = float(np.mean(np.diff(np.sort(w))))
    if dw <= 0:
        raise ValueError("bath frequencies must be distinct")
    return 2.0 * math.pi / dw


def reconstructed_memory(bath: Bath, t):
    """Discrete memory function sum_j c_j cos(omega_j t) for t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    val = np.cos(np.multiply.outer(t_arr, bath.w)) @ bath.c
    return float(val) if t_arr.ndim == 0 else val


@dataclass(frozen=True)
class Ensemble:
    """Particle trajectories from a thermal bath ensemble.

    x and v have shape (n_traj, n_times).  force is present only for
    frozen-particle runs and holds the bath force on the clamped particle.
    """

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    seed: int
    N_bath: int
    T: float
    force: np.ndarray | None = None
    k_B: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 2 or v.shape != x.shape or t.shape != (x.shape[1],):
            raise ValueError("x and v must be (n_traj, n_times) matching times")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def n_traj(self) -> int:
        return self.x.shape[0]


def _propagators(t, lam, row, basis=None):
    """Exact propagators of one observable of an undamped linear system.

    The normal coordinates a = basis @ z (z itself when basis is None) obey
    a'' = -lam a, and the observable is r = row . a.  Returns C, S and D of
    shape (n_times, n_dof) with r(t) = C z(0) + S z'(0) and
    r'(t) = D z(0) + C z'(0).  sin(wt)/w is written t sinc(wt/pi), so a zero
    mode (free particle) needs no branch; rounding below zero is clipped.
    """
    lam = np.clip(lam, 0.0, None)
    wt = np.multiply.outer(t, np.sqrt(lam))
    C = np.cos(wt) * row
    S = t[:, np.newaxis] * np.sinc(wt / np.pi) * row
    D = -lam * S
    if basis is None:
        return C, S, D
    return C @ basis, S @ basis, D @ basis


def _hash(value, hash_const, mult):
    """One SeedSequence hash step on uint32 words; returns the next constant."""
    next_const = hash_const * mult % 2 ** 32
    value = (value ^ np.uint32(hash_const)) * np.uint32(next_const)
    return value ^ value >> np.uint32(16), next_const


def _seeded_pcg64_state(w0, w1, w2, w3):
    """PCG64's state once seeded from the uint64 words of generate_state(4):
    initstate w0 2^64 + w1 and initseq w2 2^64 + w3, with two LCG steps."""
    inc = ((w2 << 64 | w3) << 1 | 1) % 2 ** 128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) % 2 ** 128
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


def _pcg64_states(seed, n_traj):
    """PCG64(child).state for each child of SeedSequence(seed).spawn(n_traj).

    A child hashes the seed's 32-bit words, zero-padded to the pool size 4,
    then its spawn key i, so every child passes through the parent's pool
    and hash constant; the key's mixing and generate_state(4, np.uint64) are
    then the same uint32 array operation for all children.
    """
    if n_traj >= 2 ** 32:
        raise ValueError("n_traj must be below 2**32: one uint32 spawn key each")
    parent = np.random.SeedSequence(seed)
    # filling the parent's pool took 4 hashmix calls per word, at least 4 words
    steps = 4 * max(4, -(-int(parent.entropy).bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, steps, 2 ** 32) % 2 ** 32
    keys, pool = np.arange(n_traj, dtype=np.uint32), []
    for word in parent.pool:
        key, hash_const = _hash(keys, hash_const, _MULT_A)
        mixed = (np.uint32(_MIX_MULT_L * int(word) % 2 ** 32)
                 - np.uint32(_MIX_MULT_R) * key)
        pool.append(mixed ^ mixed >> np.uint32(16))
    # generate_state cycles through the pool; uint32 pairs are little-endian
    out, hash_const = np.empty((n_traj, 8), dtype=np.uint64), _INIT_B
    for k in range(8):
        out[:, k], hash_const = _hash(pool[k % 4], hash_const, _MULT_B)
    words = out[:, 0::2] | out[:, 1::2] << np.uint64(32)
    return map(_seeded_pcg64_state, *words.T.tolist())


def _thermal_initial_data(m, w, kT, M, n_traj, seed, moving):
    """Thermal (pos0, vel0), each (n_traj, N+1): column 0 the particle,
    columns 1.. the bath, positions relative to x(0).

    Trajectory i draws from the stream default_rng(child) would give for
    child i of SeedSequence(seed).spawn(n_traj): one reused PCG64 is set to
    each child's state, all of which _pcg64_states derives in one array
    pass.  Standard normals fill the rows in the contract's draw order, then
    whole columns are scaled: normal(0, s) is 0.0 + s z, so this is
    bit-identical to drawing each value at its own scale.
    """
    states = _pcg64_states(seed, n_traj)
    pos0 = np.zeros((n_traj, m.size + 1))
    vel0 = np.zeros((n_traj, m.size + 1))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for i, state in enumerate(states):
        bitgen.state = state
        if moving:
            rng.standard_normal(out=vel0[i, :1])
        rng.standard_normal(out=pos0[i, 1:])
        rng.standard_normal(out=vel0[i, 1:])
    vel0[:, 0] *= math.sqrt(kT / M)
    pos0[:, 1:] *= np.sqrt(kT / m) / w     # spread of q_j - x(0)
    vel0[:, 1:] *= np.sqrt(m * kT)
    vel0[:, 1:] /= m
    return pos0, vel0


def simulate_classical_io(bath: Bath, model: ParticleModel, T: float, t_grid,
                          n_traj: int, seed: int,
                          freeze_particle: bool = False,
                          x0: float = 0.0, v0: float | None = None) -> Ensemble:
    """Evolve the coupled particle + bath system from thermal initial data.

    Bath coordinates start thermally distributed around the shifted
    equilibrium q_j = x(0) (no initial slip force); the particle velocity is
    drawn from its Maxwell distribution unless v0 overrides it.  Initial
    data are drawn at t = 0 whatever the grid's first time.  The system is
    linear, so x(t) and v(t) follow exactly from one eigendecomposition of
    the (N+1)^2 mass-weighted stiffness matrix; there is no time step.

    freeze_particle clamps x at x0; each bath mode is then a normal mode on
    its own, and the bath force on the particle is recorded in
    Ensemble.force.

    Reproducibility contract: trajectory i draws from child stream i of
    SeedSequence(seed).spawn(n_traj), in this order: the particle velocity
    (moving particle only; drawn even when v0 overrides it), the N bath
    displacements q_j - x(0), then the N bath velocities.  Identical seeds
    give bit-identical ensembles, and the first k trajectories of an
    n-trajectory ensemble start from the initial data of the k-trajectory
    one.
    """
    m, w, c = bath.m, bath.w, bath.c
    t = check_time_grid(t_grid)
    if t[0] < 0:
        raise GridError("time grid must be nonnegative")
    if not (T >= 0 and math.isfinite(T)):
        raise ValueError("temperature must be >= 0 and finite")
    if not (isinstance(n_traj, (int, np.integer)) and n_traj >= 1):
        raise ValueError("n_traj must be a positive integer")

    kT = model.constants.k_B * T
    M, K = model.M, model.K
    N = m.size
    pos0, vel0 = _thermal_initial_data(m, w, kT, M, n_traj, seed,
                                       moving=not freeze_particle)

    if freeze_particle:
        # Clamped particle: the bath modes are the normal modes, and
        # F(t) = sum_j c_j (q_j(t) - x0).
        C, S, _ = _propagators(t, w ** 2, c)
        F = pos0[:, 1:] @ C.T + vel0[:, 1:] @ S.T
        x_out = np.full((n_traj, t.size), float(x0))
        v_out = np.zeros((n_traj, t.size))
        return Ensemble(times=t, x=x_out, v=v_out, seed=int(seed),
                        N_bath=N, T=T, force=F, k_B=model.constants.k_B)

    if v0 is not None:
        vel0[:, 0] = float(v0)
    # Potential K x^2/2 + sum_j c_j (q_j - x)^2/2; mass-weighted stiffness.
    H = np.diag(np.concatenate(([K + c.sum()], c)))
    H[0, 1:] = H[1:, 0] = -c
    root = np.sqrt(np.concatenate(([M], m)))
    lam, U = np.linalg.eigh(H / np.outer(root, root))
    C, S, D = _propagators(t, lam, U[0] / root[0], U.T * root)
    # z(0) = x0 + pos0 in every coordinate.
    x_out = x0 * C.sum(axis=1) + pos0 @ C.T + vel0 @ S.T
    v_out = x0 * D.sum(axis=1) + pos0 @ D.T + vel0 @ C.T
    return Ensemble(times=t, x=x_out, v=v_out, seed=int(seed),
                    N_bath=N, T=T, force=None, k_B=model.constants.k_B)


def ensemble_msd(ens: Ensemble):
    """Mean-square displacement (x(t) - x(0))^2 with its standard error."""
    disp2 = (ens.x - ens.x[:, :1]) ** 2
    mean = disp2.mean(axis=0)
    if ens.n_traj > 1:
        stderr = disp2.std(axis=0, ddof=1) / math.sqrt(ens.n_traj)
    else:
        stderr = np.zeros_like(mean)
    return ens.times.copy(), mean, stderr


@dataclass(frozen=True)
class FdtReport:
    """Comparison of <F(t)F(0)> against the classical prediction kT mu(t)."""

    times: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    target: np.ndarray
    max_dev_sigma: float
    max_rel_dev: float
    n_traj: int

    def to_json(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "window": [float(self.times[0]), float(self.times[-1])],
            "max_dev_sigma": self.max_dev_sigma,
            "max_rel_dev": self.max_rel_dev,
        }


def comparison_window(kernel: MemoryKernel, t_rec: float) -> float:
    """End 5 / kernel.scale of the force-statistics window.

    Raises GridError when it lies past the bath recurrence horizon t_rec.
    """
    window_end = 5.0 / kernel.scale
    if window_end > t_rec:
        raise GridError(
            f"comparison window 5/scale = {window_end:.6g} exceeds the bath "
            f"recurrence horizon t_rec = {t_rec:.6g}; refine the bath grid")
    return window_end


def force_autocorrelation_check(ens: Ensemble, bath: Bath,
                                kernel: MemoryKernel) -> FdtReport:
    """Check <F(t)F(0)> = kT mu(t) on a frozen-particle ensemble.

    The window is t <= 5 / kernel.scale (clipped to the grid) and must stay
    below the bath recurrence horizon.  Raises InsufficientStatisticsError
    when the t = 0 standard error exceeds 30% of the target, i.e. when the
    ensemble cannot resolve the deviations being tested.
    """
    if ens.force is None:
        raise ValueError("ensemble was not generated with freeze_particle=True; "
                         "the bath force is not observable")
    window_end = comparison_window(kernel, recurrence_time(bath.w))
    mask = ens.times <= window_end
    if int(mask.sum()) < 2:
        raise GridError("time grid has fewer than two points inside the "
                        "comparison window t <= 5/scale")
    t = ens.times[mask]
    F0 = ens.force[:, 0]
    prod = ens.force[:, mask] * F0[:, np.newaxis]
    estimate = prod.mean(axis=0)
    if ens.n_traj < 2:
        raise InsufficientStatisticsError(
            "insufficient statistics: need at least two trajectories")
    stderr = prod.std(axis=0, ddof=1) / math.sqrt(ens.n_traj)
    kT = ens.k_B * ens.T
    target = kT * reconstructed_memory(bath, t)
    scale0 = abs(target[0]) if target[0] != 0 else 1.0
    if stderr[0] > 0.3 * scale0:
        raise InsufficientStatisticsError(
            f"insufficient statistics: standard error {stderr[0]:.3g} at t=0 "
            f"exceeds 30% of the target {target[0]:.3g}")
    dev_sigma = np.abs(estimate - target) / np.where(stderr > 0, stderr, np.inf)
    rel_dev = np.abs(estimate - target) / scale0
    return FdtReport(times=t, estimate=estimate, stderr=stderr, target=target,
                     max_dev_sigma=float(dev_sigma.max()),
                     max_rel_dev=float(rel_dev.max()), n_traj=ens.n_traj)


def dump_ensemble(ens: Ensemble, path) -> None:
    """Write the raw trajectories in a documented binary layout (version 2).

    Little-endian throughout: magic b"QLEB", uint32 version, uint32 n_traj,
    uint32 n_times, uint32 N_bath, uint32 has_force, float64 t0, float64 dt,
    float64 T, float64 k_B, uint64 seed, then x, v and (when has_force is 1)
    force as row-major float64 arrays of shape (n_traj, n_times).  Requires
    a uniform time grid t0 + dt * k.  Version 1 files lack has_force, t0 and
    k_B, and load as t0 = 0, k_B = 1.
    """
    if not is_uniform_grid(ens.times):
        raise ValueError("binary dump requires a uniform time grid")
    blocks = [ens.x, ens.v] + ([] if ens.force is None else [ens.force])
    header = struct.pack(
        _DUMP_HEADER[_DUMP_VERSION], ens.n_traj, ens.times.size, ens.N_bath,
        int(ens.force is not None), float(ens.times[0]),
        float(ens.times[1] - ens.times[0]),
        float(ens.T), float(ens.k_B), int(ens.seed))
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC + struct.pack("<I", _DUMP_VERSION) + header)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_ensemble(path) -> Ensemble:
    """Read back a dump_ensemble file of version 1 or 2.

    Raises ValueError when the file is not a dump or its length does not
    match its header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _DUMP_MAGIC:
        raise ValueError("not an ensemble dump (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    fmt = _DUMP_HEADER.get(version)
    if fmt is None:
        raise ValueError(f"unsupported dump version {version}")
    start = 8 + struct.calcsize(fmt)
    if len(data) < start:
        raise ValueError(f"truncated dump header: expected {start} bytes, "
                         f"found {len(data)}")
    if version == 1:
        n_traj, n_times, n_bath, dt, T, seed = struct.unpack_from(fmt, data, 8)
        has_force, t0, k_B = 0, 0.0, 1.0
    else:
        n_traj, n_times, n_bath, has_force, t0, dt, T, k_B, seed = \
            struct.unpack_from(fmt, data, 8)
    shape = (2 + has_force, n_traj, n_times)
    expected = 8 * math.prod(shape)
    if len(data) - start != expected:
        raise ValueError(f"dump payload is {len(data) - start} bytes; the "
                         f"header expects {expected}")
    x, v, *force = np.frombuffer(data, dtype="<f8", offset=start).reshape(shape)
    return Ensemble(times=t0 + dt * np.arange(n_times), x=x.copy(),
                    v=v.copy(), seed=int(seed), N_bath=int(n_bath),
                    T=float(T), force=force[0].copy() if force else None,
                    k_B=float(k_B))
