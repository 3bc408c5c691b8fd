"""Brute-force realization of the independent-oscillator heat bath.

The continuum memory kernel is discretized into N explicit oscillators with
weights chosen so the discrete cosine sum converges to the memory function;
the coupled classical system (particle + bath, bilinear coupling through
(q_j - x)^2) is linear, so it is solved exactly in its normal modes from
thermal initial data (Ford, Kac & Mazur, J. Math. Phys. 6, 504 (1965);
Ullersma, Physica 32, 27 (1966)).  The normal frequencies are the roots of
the discrete D(omega), one in each gap between bath frequencies, found by a
secular-equation solve, and the modes follow from them in closed form.
This provides an independent check of the fluctuation-dissipation structure:
the force on a frozen particle must satisfy <F(t)F(0)> = kT mu(t), and the
free-particle ensemble MSD must match the quadrature route.

The discrete bath is periodic: all comparisons are only meaningful below the
recurrence horizon t_rec = 2 pi / (frequency spacing).
"""

from __future__ import annotations

import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ._grid import check_temperatures, check_time_grid, is_uniform_grid
from .errors import AcausalModelError, GridError, InsufficientStatisticsError
from .kernels import MemoryKernel
from .response import ParticleModel

# numpy.random.SeedSequence's hash constants (NEP 19) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Bytes of one chunk of thermal initial data, positions and velocities
# together: small enough to stay in cache while it is projected.
_CHUNK_BYTES = 2 ** 20

_DUMP_MAGIC = b"QLEB"
_DUMP_VERSION = 2
# Header after the magic and the uint32 version, per version.
_DUMP_HEADER = {1: "<IIIddQ", 2: "<IIIIddddQ"}


@dataclass(frozen=True)
class Bath:
    """The bath modes: masses m_j and distinct frequencies w_j as float
    arrays, with weights c_j = m_j w_j^2."""

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
        order = np.argsort(w, kind="stable")
        repeats = np.flatnonzero(w[order[1:]] == w[order[:-1]])
        if repeats.size:
            i, j = order[repeats[0]:repeats[0] + 2]
            raise ValueError(
                f"bath frequencies w[{i}] and w[{j}] are both {float(w[i])!r}: the "
                "normal modes need distinct frequencies")
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


def particle_model(kernel: MemoryKernel, model: ParticleModel,
                   bath: Bath) -> ParticleModel:
    """The model whose M is the particle's own mass in a moving-particle
    run of this bath, for simulate_classical_io.

    With mu(0) > 0 that is the model itself.  With mu(0) = 0 (blackbody) the
    modes already carry sum_j m_j of the observed inertia M, as the discrete
    D(z) = K - (M_p + sum_j m_j) z^2 + O(z^4) shows, so the particle keeps
    M_p = M - sum_j m_j (Ford, Kac & Mazur, J. Math. Phys. 6, 504 (1965)).
    Raises AcausalModelError for an acausal model (bare mass < 0) or when
    the bath is at least as heavy as M.
    """
    if kernel.re_mu_real_axis(0.0) > 0.0:
        return model
    if not model.is_causal:
        raise AcausalModelError(
            f"Omega tau_e = {model.Omega * model.tau_e:.6g} > 1: an acausal "
            "model has a negative bare mass, which no bath of positive masses "
            "realizes")
    mass = model.M - float(bath.m.sum())
    if mass <= 0.0:
        raise AcausalModelError(
            f"the bath's modes carry {model.M - mass:.6g} of the observed mass "
            f"M = {model.M:.6g}, leaving the particle none")
    return replace(model, M=mass)


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
    diagnostics holds a moving-particle run's normal-mode solve counters
    (see normal_modes); it is empty otherwise and is not dumped.
    """

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    seed: int
    N_bath: int
    T: float
    force: np.ndarray | None = None
    k_B: float = 1.0
    diagnostics: dict = field(default_factory=dict)

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


_EPS = np.finfo(float).eps
_MAX_PASSES = 64


def _small_root(a2, a1, a0):
    """The root of a2 x^2 - a1 x + a0 = 0 nearer zero, written without
    cancellation (LAPACK dlaed4's form); inf or NaN when a2 = 0 <= -a1."""
    s = np.sqrt(np.abs(a1 * a1 - 4.0 * a0 * a2))
    return np.where(a1 > 0, 2.0 * a0 / (a1 + s), (a1 - s) / (2.0 * a2))


def normal_modes(bath: Bath, M: float, K: float):
    """Normal modes of a particle (mass M > 0, spring K >= 0) coupled to the
    bath through sum_j c_j (q_j - x)^2 / 2.

    The mass-weighted stiffness matrix is the arrowhead [[a, z^T], [z,
    diag(d)]] with a = (K + sum_j c_j)/M, d_j = w_j^2 and z_j =
    -c_j/sqrt(M m_j).  Its eigenvalues are the roots of the discrete
    D(sqrt(lam)) = K - M lam - lam sum_j c_j/(w_j^2 - lam) (Ford, Kac &
    Mazur, J. Math. Phys. 6, 504 (1965)).  Divided by -M lam that is the
    secular equation f(lam) = 1 + sum_j b_j/(p_j - lam) = 0 of a rank-one
    update, with poles p = (0, w_j^2 sorted) and weights b = (K, c_j)/M:
    the lowest root lies between 0 and the lowest w_j^2 (it is 0 itself
    for a free particle), and one root lies in each gap above.  The
    highest root lies below p_N + sum_j b_j, which acts as a pole of
    weight 0.

    All roots are iterated as one array pass (R.-C. Li, LAPACK Working
    Note 89 (1994); LAPACK dlaed4), each held as an offset tau from its
    nearer pole, so that its distance to that pole is exact: a two-pole
    guess from the gap's midpoint, then the "middle way" rational step
    (one pole for the highest root), kept inside a shrinking bracket and
    bisected when it leaves it, until |f| falls below the rounding bound
    of its sum.  Converged roots leave the pass.  The eigenvectors are the
    Cauchy vectors (1, z_j/(lam_k - d_j)), normalized (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 15, 1266 (1994)).  The cost is O(N^2) per
    pass.  The bath's frequencies must be distinct, which Bath ensures.

    Returns lam (N + 1,) ascending; U (N + 1, N + 1) orthonormal, mode k in
    column k, coordinates in rows (the particle, then the bath modes in
    the bath's order); and {"secular_passes": the most passes one root
    took, "secular_residual": the largest |f|/bound at exit}.
    """
    order = np.argsort(bath.w)
    p = np.concatenate(([0.0], bath.w[order] ** 2, [0.0]))
    b = np.concatenate(([K], bath.c[order], [0.0])) / M
    p[-1] = p[-2] + b.sum()
    n = p.size - 1                      # root k lies in (p_k, p_k+1)
    origin = np.arange(n)
    tau = np.zeros(n)
    passes = np.zeros(n, dtype=int)
    residual = np.zeros(n)
    term, delta = np.empty((2, n, n + 1))
    # The lowest root is below K/(M + sum_j m_j).  A free particle's is
    # p_0 = 0 itself, and so is one below the normal float range.
    free = K / (M + bath.m.sum()) < np.finfo(float).tiny
    act = np.arange(1 if free else 0, n)
    # f' terms b_j/(p_j - lam)^2 overflow only for a root within ~1e-308 of
    # its pole: the bound is then infinite and the root as close as floats go
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Two-pole guess: f at the gap's midpoint, less the terms of the
        # gap's two poles, is the constant of a model with only those poles.
        k, m = act, act.size
        gap = p[k + 1] - p[k]
        rows = np.arange(m)
        np.subtract(p, (p[k] + gap / 2)[:, np.newaxis], out=delta[:m])
        np.divide(b, delta[:m], out=term[:m])
        w = 1.0 + term[:m].sum(axis=1)
        c = w - term[rows, k] - term[rows, k + 1]
        lower = w > 0                   # f increases: the root is below mid
        lo = np.where(lower, 0.0, -gap / 2)
        hi = np.where(lower, gap / 2, 0.0)
        guess = _small_root(c, np.where(lower, c, -c) * gap + b[k] + b[k + 1],
                            np.where(lower, b[k], -b[k + 1]) * gap)
        tau[k] = np.where((guess > lo) & (guess < hi), guess, (lo + hi) / 2)
        origin[k] += ~lower
        # From here each root keeps its origin: the offsets p_j - p_origin
        # and the split into poles below (j <= k) and above the root.
        offsets = np.subtract(p, p[origin[k], np.newaxis])
        below = np.less_equal(np.arange(n + 1), k[:, np.newaxis])
        above = ~below
        for step in range(1, _MAX_PASSES + 1):
            m, org, t = act.size, origin[act], tau[act]
            np.subtract(offsets, t[:, np.newaxis], out=delta[:m])
            np.divide(b, delta[:m], out=term[:m])
            np.divide(term[:m], delta[:m], out=delta[:m])    # f' terms
            psi = term[:m].sum(axis=1, where=below)
            phi = term[:m].sum(axis=1, where=above)
            dpsi = delta[:m].sum(axis=1, where=below)
            dphi = delta[:m].sum(axis=1, where=above)
            w = 1.0 + psi + phi
            # rounding of the sums and of the distances to the poles
            bound = _EPS * (2.0 + 8.0 * (phi - psi)
                            + 3.0 * np.abs(t) * (dpsi + dphi))
            passes[act] = step
            residual[act] = np.abs(w) / bound
            done = np.abs(w) <= bound
            if done.all() or step == _MAX_PASSES:
                break
            if done.any():
                keep = ~done
                act, org, t, w, dpsi, dphi, lo, hi = (
                    a[keep] for a in (act, org, t, w, dpsi, dphi, lo, hi))
                offsets, below, above = offsets[keep], below[keep], above[keep]
            lo = np.where(w < 0, np.maximum(lo, t), lo)
            hi = np.where(w > 0, np.minimum(hi, t), hi)
            # Middle way: the model c + s/(p_k - lam) + S/(p_k+1 - lam) that
            # matches f and f' at lam, as a quadratic in the step scaled by
            # r = 1/(p_k+1 - lam).  p_k+1 has weight 0 for the highest root,
            # whose model then has one pole.
            d_lo = (p[act] - p[org]) - t
            r = 1.0 / ((p[act + 1] - p[org]) - t)
            eta = _small_root((w - d_lo * dpsi) * r - dphi,
                              (1.0 + d_lo * r) * w - d_lo * (dpsi + dphi),
                              d_lo * w)
            eta = np.where(w * eta >= 0, -w / (dpsi + dphi), eta)  # Newton
            new = t + eta
            inside = (new > lo) & (new < hi)
            tau[act] = np.where(inside, new, (t + np.where(w < 0, hi, lo)) / 2)
    del term, delta, offsets
    lam = p[origin] + tau
    # Cauchy vectors, coordinates in the bath's order; lam_k - d_j is exact
    # at the origin.  Built as rows and returned transposed.
    U = np.empty((n, n))
    V = U[:, 1:]
    np.subtract(p[origin, np.newaxis], bath.w ** 2, out=V)
    V += tau[:, np.newaxis]
    np.divide(-bath.c / np.sqrt(M * bath.m), V, out=V)
    U[:, 0] = 1.0
    U /= np.sqrt(np.einsum("kj,kj->k", U, U))[:, np.newaxis]
    return lam, U.T, {"secular_passes": int(passes.max(initial=0)),
                      "secular_residual": float(residual.max(initial=0.0))}


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
    """Thermal initial data, one chunk of consecutive trajectories at a
    time: yields (rows, pos0, vel0), rows the chunk's slice of the ensemble
    and pos0, vel0 each (chunk size, N+1), column 0 the particle, columns
    1.. the bath, positions relative to x(0).  pos0 and vel0 are two
    buffers of _CHUNK_BYTES together, refilled for the next chunk, so a
    caller uses them before it draws the next one.

    Trajectory i draws from the stream default_rng(child) would give for
    child i of SeedSequence(seed).spawn(n_traj): one reused PCG64 is set to
    each child's state, all of which _pcg64_states derives in one array
    pass.  Standard normals fill the rows in the contract's draw order, then
    the chunk's columns are scaled: normal(0, s) is 0.0 + s z, so this is
    bit-identical to drawing each value at its own scale.
    """
    states = _pcg64_states(seed, n_traj)
    size = max(1, min(n_traj, _CHUNK_BYTES // (16 * (m.size + 1))))
    pos_buf = np.zeros((size, m.size + 1))
    vel_buf = np.zeros((size, m.size + 1))
    v_scale = math.sqrt(kT / M)
    q_scale = np.sqrt(kT / m) / w       # spread of q_j - x(0)
    p_scale = np.sqrt(m * kT)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for start in range(0, n_traj, size):
        rows = slice(start, min(start + size, n_traj))
        pos0, vel0 = pos_buf[:rows.stop - start], vel_buf[:rows.stop - start]
        for i, state in zip(range(len(pos0)), states):
            bitgen.state = state
            if moving:
                rng.standard_normal(out=vel0[i, :1])
            rng.standard_normal(out=pos0[i, 1:])
            rng.standard_normal(out=vel0[i, 1:])
        vel0[:, 0] *= v_scale
        pos0[:, 1:] *= q_scale
        vel0[:, 1:] *= p_scale
        vel0[:, 1:] /= m
        yield rows, pos0, vel0


def simulate_classical_io(bath: Bath, model: ParticleModel, T: float, t_grid,
                          n_traj: int, seed: int,
                          freeze_particle: bool = False,
                          x0: float = 0.0, v0: float | None = None) -> Ensemble:
    """Evolve the coupled particle + bath system from thermal initial data.

    Bath coordinates start thermally distributed around the shifted
    equilibrium q_j = x(0) (no initial slip force); the particle velocity is
    drawn from its Maxwell distribution unless v0 overrides it.  Initial
    data are drawn at t = 0 whatever the grid's first time.  The system is
    linear, so x(t) and v(t) follow exactly from its normal modes, which
    normal_modes finds from the secular equation of the mass-weighted
    stiffness matrix in O(N^2); there is no time step.  The solve's
    counters go to Ensemble.diagnostics.  The initial data are drawn and
    projected onto the propagators one chunk of trajectories at a time, so
    beside the outputs they take O(_CHUNK_BYTES) memory, not O(n_traj N).

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
    check_temperatures(T)
    if not (isinstance(n_traj, (int, np.integer)) and n_traj >= 1):
        raise ValueError("n_traj must be a positive integer")

    kT = model.constants.k_B * T
    M, K = model.M, model.K
    N = m.size
    chunks = _thermal_initial_data(m, w, kT, M, n_traj, seed,
                                   moving=not freeze_particle)

    if freeze_particle:
        # Clamped particle: the bath modes are the normal modes, and
        # F(t) = sum_j c_j (q_j(t) - x0).
        C, S, _ = _propagators(t, w ** 2, c)
        F = np.empty((n_traj, t.size))
        for rows, pos0, vel0 in chunks:
            F[rows] = pos0[:, 1:] @ C.T + vel0[:, 1:] @ S.T
        del pos0, vel0                  # the buffers go before x and v come
        x_out = np.full((n_traj, t.size), float(x0))
        v_out = np.zeros((n_traj, t.size))
        return Ensemble(times=t, x=x_out, v=v_out, seed=int(seed),
                        N_bath=N, T=T, force=F, k_B=model.constants.k_B)

    lam, U, diagnostics = normal_modes(bath, M, K)
    row = U[0] / math.sqrt(M)
    basis = U.T                     # modes in rows; scaled in place
    basis *= np.sqrt(np.concatenate(([M], m)))
    C, S, D = _propagators(t, lam, row, basis)
    del U, basis
    # z(0) = x0 + pos0 in every coordinate.
    x_start, v_start = x0 * C.sum(axis=1), x0 * D.sum(axis=1)
    x_out = np.empty((n_traj, t.size))
    v_out = np.empty((n_traj, t.size))
    for rows, pos0, vel0 in chunks:
        if v0 is not None:
            vel0[:, 0] = float(v0)
        x_out[rows] = x_start + pos0 @ C.T + vel0 @ S.T
        v_out[rows] = v_start + pos0 @ D.T + vel0 @ C.T
    return Ensemble(times=t, x=x_out, v=v_out, seed=int(seed),
                    N_bath=N, T=T, force=None, k_B=model.constants.k_B,
                    diagnostics=diagnostics)


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
    """Write the raw trajectories in a documented binary layout (version 2)
    to path, or into path itself when it is a binary file open for writing.

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
    with nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC + struct.pack("<I", _DUMP_VERSION) + header)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


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
