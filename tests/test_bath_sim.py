"""Discretized-bath simulation: kernel reconstruction, thermal statistics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qlebath import (
    DIMENSIONLESS,
    Bath,
    GridError,
    InsufficientStatisticsError,
    OhmicKernel,
    ParticleModel,
    SingleRelaxationKernel,
    discretize_bath,
    dump_ensemble,
    ensemble_msd,
    force_autocorrelation_check,
    load_ensemble,
    msd,
    reconstructed_memory,
    recurrence_time,
    simulate_classical_io,
)
from qlebath import bath_sim


def reconstructed_mu_tilde(bath, z):
    """Reference discrete transform sum_j c_j i z / (z^2 - omega_j^2)."""
    return complex(np.sum(bath.c * 1j * z / (z * z - bath.w ** 2)))


def test_discretization_nodes_and_weights():
    kernel = SingleRelaxationKernel(gamma=1.0, tau=1.0)
    osc = discretize_bath(kernel, N=4, omega_max=10.0)
    dw = 10.0 / 4
    assert list(osc.w) == pytest.approx([0.5 * dw, 1.5 * dw, 2.5 * dw, 3.5 * dw])
    for m, w, c in zip(osc.m, osc.w, osc.c):
        expected = (2.0 / math.pi) * kernel.re_mu_real_axis(w) * dw
        assert c == pytest.approx(expected, rel=1e-12)
        assert m == pytest.approx(expected / w ** 2, rel=1e-12)


def test_discretization_guards():
    kernel = OhmicKernel(gamma=1.0)
    with pytest.raises(GridError):
        discretize_bath(kernel, N=1, omega_max=50.0)
    with pytest.raises(GridError):
        discretize_bath(kernel, N=100, omega_max=5.0)  # < 10 * scale


@pytest.mark.parametrize("m, w, match", [
    ([1.0, 0.0], [1.0, 2.0], "mass"),
    ([1.0, math.inf], [1.0, 2.0], "mass"),
    ([1.0, 1.0], [1.0, -2.0], "frequency"),
    ([1.0, 1.0], [math.nan, 2.0], "frequency"),
    ([1e300, 1.0], [1e5, 2.0], "weight"),
    ([1.0, 1.0], [1.0], "equal length"),
    ([], [], "nonempty"),
], ids=["zero-mass", "inf-mass", "negative-w", "nan-w", "inf-weight",
        "lengths", "empty"])
def test_bath_rejects_modes_that_are_not_positive_and_finite(m, w, match):
    with pytest.raises(ValueError, match=match):
        Bath(m=m, w=w)


def test_memory_reconstruction_matches_exponential_kernel():
    # mu(t) = (gamma/tau) e^{-t/tau} for the single-relaxation kernel
    gamma, tau = 1.0, 1.0
    kernel = SingleRelaxationKernel(gamma=gamma, tau=tau)
    osc = discretize_bath(kernel, N=2000, omega_max=50.0)
    for t in (0.0, 0.5, 1.0, 2.0):
        target = (gamma / tau) * math.exp(-t / tau)
        assert reconstructed_memory(osc, t) == pytest.approx(target, rel=2e-2)


def test_mu_tilde_reconstruction_upper_half_plane():
    gamma = 1.0
    kernel = SingleRelaxationKernel(gamma=gamma, tau=1.0)
    osc = discretize_bath(kernel, N=2000, omega_max=100.0)
    z = 1j * gamma
    got = reconstructed_mu_tilde(osc, z)
    assert abs(got - kernel.mu_tilde(z)) <= 1e-2 * abs(kernel.mu_tilde(z))


def test_refinement_reduces_reconstruction_error():
    # with the frequency window fixed, doubling N must cut the node-count error
    kernel = SingleRelaxationKernel(gamma=1.0, tau=1.0)
    z = 1j
    exact = kernel.mu_tilde(z)

    def err(N):
        osc = discretize_bath(kernel, N=N, omega_max=100.0)
        return abs(reconstructed_mu_tilde(osc, z) - exact)

    assert err(100) < err(50)


def test_recurrence_time_is_set_by_the_frequency_spacing():
    kernel = OhmicKernel(gamma=1.0)
    osc = discretize_bath(kernel, N=80, omega_max=16.0)
    assert recurrence_time(osc.w) == pytest.approx(2.0 * math.pi / (16.0 / 80),
                                                 rel=1e-9)


def test_zero_temperature_ensemble_stays_at_rest():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    osc = discretize_bath(kernel, N=20, omega_max=12.0)
    ens = simulate_classical_io(osc, model, 0.0, np.linspace(0.0, 5.0, 11),
                                n_traj=3, seed=42)
    assert np.all(ens.x == 0.0)
    assert np.all(ens.v == 0.0)


def test_same_seed_reproduces_bitwise():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=30, omega_max=14.0)
    t = np.linspace(0.0, 3.0, 7)
    a = simulate_classical_io(osc, model, 1.0, t, n_traj=5, seed=99)
    b = simulate_classical_io(osc, model, 1.0, t, n_traj=5, seed=99)
    c = simulate_classical_io(osc, model, 1.0, t, n_traj=5, seed=100)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    assert not np.array_equal(a.x, c.x)


def seed_sequence_states(seed, n_traj):
    """NumPy's own PCG64 states for the children of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(n_traj)
    return [np.random.PCG64(child).state for child in children]


# one to seven 32-bit entropy words; from five on, the hash runs past the pool
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7,
                                  2 ** 128 + 3, 2 ** 200])
@pytest.mark.parametrize("n_traj", [1, 2, 5, 4000])
def test_streams_are_the_seed_sequence_children(seed, n_traj):
    assert list(bath_sim._pcg64_states(seed, n_traj)) == \
        seed_sequence_states(seed, n_traj)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1) | st.integers(0, 2 ** 300),
       n_traj=st.integers(1, 40))
def test_streams_match_the_seed_sequence_children_for_any_seed(seed, n_traj):
    assert list(bath_sim._pcg64_states(seed, n_traj)) == \
        seed_sequence_states(seed, n_traj)


def test_spawn_keys_must_fit_one_uint32_word():
    # raised before anything is allocated; the dump header stores n_traj as
    # uint32 too
    with pytest.raises(ValueError, match="2\\*\\*32"):
        bath_sim._pcg64_states(7, 2 ** 32)
    assert len(list(bath_sim._pcg64_states(7, 3))) == 3


def reference_initial_data(m, w, kT, M, n_traj, seed, moving):
    """The per-value draws at their own scales, in the contract's order."""
    streams = np.random.SeedSequence(seed).spawn(n_traj)
    pos0 = np.zeros((n_traj, m.size + 1))
    vel0 = np.zeros((n_traj, m.size + 1))
    for i in range(n_traj):
        rng = np.random.default_rng(streams[i])
        if moving:
            vel0[i, 0] = rng.normal(0.0, math.sqrt(kT / M))
        pos0[i, 1:] = rng.normal(0.0, np.sqrt(kT / m) / w)
        vel0[i, 1:] = rng.normal(0.0, np.sqrt(m * kT)) / m
    return pos0, vel0


# run name -> (model.K, simulate_classical_io options)
DRAW_ORDER_RUNS = {
    "frozen": (0.0, {"freeze_particle": True}),
    "moving": (0.0, {}),
    "moving_v0": (0.0, {"v0": 0.7}),
    "x0": (0.0, {"x0": -0.4}),
    "bound": (2.0, {}),
}


@pytest.mark.parametrize("run", sorted(DRAW_ORDER_RUNS))
def test_ensemble_matches_the_per_value_draws_bitwise(run, monkeypatch):
    K, sim_kw = DRAW_ORDER_RUNS[run]
    kernel = SingleRelaxationKernel(gamma=0.8, tau=0.5, mass=1.3)
    model = ParticleModel(M=1.3, K=K, Omega=1.0)
    osc = discretize_bath(kernel, N=40, omega_max=32.0)
    t = np.linspace(0.0, 4.0, 17)
    args = (osc, model, 1.7, t, 25, 123)
    ens = simulate_classical_io(*args, **sim_kw)
    monkeypatch.setattr(bath_sim, "_thermal_initial_data",
                        reference_initial_data)
    ref = simulate_classical_io(*args, **sim_kw)
    assert np.array_equal(ens.x, ref.x) and np.array_equal(ens.v, ref.v)
    if ref.force is None:
        assert ens.force is None
    else:
        assert np.array_equal(ens.force, ref.force)


@pytest.mark.parametrize("freeze", [False, True])
def test_first_trajectories_do_not_depend_on_the_ensemble_size(freeze):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    osc = discretize_bath(kernel, N=30, omega_max=16.0)
    m, w = osc.m, osc.w
    small = bath_sim._thermal_initial_data(m, w, 1.2, 1.0, 7, 9, not freeze)
    large = bath_sim._thermal_initial_data(m, w, 1.2, 1.0, 50, 9, not freeze)
    for a, b in zip(small, large):
        assert np.array_equal(a, b[:7])
    t = np.linspace(0.0, 3.0, 13)
    k = simulate_classical_io(osc, model, 1.2, t, n_traj=7, seed=9,
                              freeze_particle=freeze)
    n = simulate_classical_io(osc, model, 1.2, t, n_traj=50, seed=9,
                              freeze_particle=freeze)
    pairs = [(k.x, n.x), (k.v, n.v)]
    if freeze:
        pairs.append((k.force, n.force))
    for a, b in pairs:
        assert np.max(np.abs(b[:7] - a)) <= 1e-14 * np.max(np.abs(a))


def test_equipartition_of_the_bound_particle():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    osc = discretize_bath(kernel, N=100, omega_max=16.0)
    t = np.linspace(0.0, 30.0, 31)
    ens = simulate_classical_io(osc, model, 1.0, t, n_traj=400, seed=777)
    # discard the first 10 relaxation times, then pool the equilibrated tail
    x_tail = ens.x[:, t >= 10.0]
    assert np.mean(x_tail ** 2) == pytest.approx(1.0, rel=5e-2)  # kT / K


def test_moving_particle_matches_the_matrix_exponential():
    # Independent reference: expm of the 2(N+1) first-order system.
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=1.0, Omega=1.0)
    osc = discretize_bath(kernel, N=3, omega_max=12.0)
    t = np.linspace(0.0, 10.0, 21)
    ens = simulate_classical_io(osc, model, 0.0, t, n_traj=1, seed=3,
                                x0=0.5, v0=1.0)
    c = osc.c
    mass = np.concatenate(([1.0], osc.m))
    H = np.diag(np.concatenate(([1.0 + c.sum()], c)))
    H[0, 1:] = H[1:, 0] = -c
    n = c.size + 1
    A = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-H / mass[:, np.newaxis], np.zeros((n, n))]])
    y0 = np.concatenate((np.full(n, 0.5), [1.0], np.zeros(n - 1)))
    ref = np.array([expm(A * tk) @ y0 for tk in t])
    for got, want in ((ens.x[0], ref[:, 0]), (ens.v[0], ref[:, n])):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_frozen_particle_force_statistics():
    gamma = 1.0
    kernel = OhmicKernel(gamma=gamma)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=200, omega_max=16.0)
    t = np.linspace(0.0, 5.0, 51)
    ens = simulate_classical_io(osc, model, 1.0, t, n_traj=400, seed=2024,
                                freeze_particle=True)
    assert ens.force is not None
    assert np.all(ens.v == 0.0)
    report = force_autocorrelation_check(ens, osc, kernel)
    assert report.n_traj == 400
    assert report.max_dev_sigma < 5.0
    assert report.times[-1] <= 5.0 / gamma
    # t = 0 point: <F^2> equals kT mu(0) of the discretized bath
    assert report.estimate[0] == pytest.approx(report.target[0], rel=0.2)


def test_force_statistics_require_frozen_ensemble():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=50, omega_max=16.0)
    t = np.linspace(0.0, 5.0, 11)
    moving = simulate_classical_io(osc, model, 1.0, t, n_traj=3, seed=8)
    with pytest.raises(ValueError):
        force_autocorrelation_check(moving, osc, kernel)


def test_force_statistics_need_enough_trajectories():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=50, omega_max=16.0)
    t = np.linspace(0.0, 5.0, 11)
    lonely = simulate_classical_io(osc, model, 1.0, t, n_traj=1, seed=8,
                                   freeze_particle=True)
    with pytest.raises(InsufficientStatisticsError):
        force_autocorrelation_check(lonely, osc, kernel)


def test_force_statistics_window_must_fit_below_recurrence():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=10, omega_max=16.0)  # t_rec ~ 3.9 < 5
    t = np.linspace(0.0, 5.0, 11)
    ens = simulate_classical_io(osc, model, 1.0, t, n_traj=4, seed=8,
                                freeze_particle=True)
    with pytest.raises(GridError):
        force_autocorrelation_check(ens, osc, kernel)


def test_monte_carlo_error_shrinks_like_root_n():
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=100, omega_max=16.0)
    t = np.linspace(0.0, 10.0, 11)
    small = simulate_classical_io(osc, model, 1.0, t, n_traj=200, seed=31)
    large = simulate_classical_io(osc, model, 1.0, t, n_traj=800, seed=31)
    _, _, err_small = ensemble_msd(small)
    _, _, err_large = ensemble_msd(large)
    ratio = err_small[-1] / err_large[-1]
    assert 1.5 < ratio < 2.7  # 4x the realizations halves the error


def test_ensemble_msd_tracks_the_quadrature_answer():
    gamma, T = 1.0, 1.0
    kernel = OhmicKernel(gamma=gamma)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=100, omega_max=16.0)
    t = np.linspace(0.0, 10.0, 21)
    ens = simulate_classical_io(osc, model, T, t, n_traj=600, seed=5150)
    times, mean, _ = ensemble_msd(ens)
    for tk, mk in zip(times[times >= 2.0], mean[times >= 2.0]):
        target = msd(kernel, model, T, float(tk), classical=True)
        assert mk == pytest.approx(target, rel=0.12)


def test_dump_and_load_round_trip(tmp_path):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=20, omega_max=12.0)
    t = np.linspace(0.0, 2.0, 5)
    ens = simulate_classical_io(osc, model, 1.5, t, n_traj=3, seed=11)
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    back = load_ensemble(path)
    assert np.array_equal(back.x, ens.x)
    assert np.array_equal(back.v, ens.v)
    assert np.allclose(back.times, ens.times, rtol=1e-12)
    assert (back.seed, back.N_bath, back.T) == (11, 20, 1.5)
    with pytest.raises(ValueError):
        load_ensemble(__file__)  # not a dump file


def test_dump_keeps_a_late_starting_grid(tmp_path):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=20, omega_max=12.0)
    t = np.linspace(0.5, 2.5, 9)
    ens = simulate_classical_io(osc, model, 1.0, t, n_traj=3, seed=12)
    dump_ensemble(ens, tmp_path / "late.bin")
    back = load_ensemble(tmp_path / "late.bin")
    assert np.allclose(back.times, t, rtol=1e-12, atol=0.0)
    assert np.array_equal(back.x, ens.x) and np.array_equal(back.v, ens.v)
    assert back.force is None


def test_dump_keeps_the_frozen_force(tmp_path):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=50, omega_max=16.0)
    t = np.linspace(0.0, 5.0, 26)
    ens = simulate_classical_io(osc, model, 1.0, t, n_traj=64, seed=7,
                                freeze_particle=True)
    dump_ensemble(ens, tmp_path / "frozen.bin")
    back = load_ensemble(tmp_path / "frozen.bin")
    assert np.array_equal(back.force, ens.force)
    before = force_autocorrelation_check(ens, osc, kernel)
    after = force_autocorrelation_check(back, osc, kernel)
    assert np.array_equal(after.estimate, before.estimate)
    assert np.array_equal(after.target, before.target)


def test_load_reads_version_1_dumps(tmp_path):
    x = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "v1.bin"
    path.write_bytes(b"QLEB" + struct.pack("<IIIIddQ", 1, 2, 3, 10, 0.25, 1.5,
                                           4) + x.tobytes() + (-x).tobytes())
    ens = load_ensemble(path)
    assert np.array_equal(ens.times, [0.0, 0.25, 0.5])
    assert np.array_equal(ens.x, x) and np.array_equal(ens.v, -x)
    assert (ens.seed, ens.N_bath, ens.T, ens.force) == (4, 10, 1.5, None)


def test_load_rejects_a_dump_of_the_wrong_length(tmp_path):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=20, omega_max=12.0)
    ens = simulate_classical_io(osc, model, 1.0, np.linspace(0.0, 2.0, 5),
                                n_traj=3, seed=11)
    path = tmp_path / "ens.bin"
    dump_ensemble(ens, path)
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(ValueError, match="expects 240"):
        load_ensemble(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="expects 240"):
        load_ensemble(path)
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="truncated dump header"):
        load_ensemble(path)


def test_dump_requires_uniform_grid(tmp_path):
    kernel = OhmicKernel(gamma=1.0)
    model = ParticleModel(M=1.0, K=0.0, Omega=1.0)
    osc = discretize_bath(kernel, N=20, omega_max=12.0)
    ens = simulate_classical_io(osc, model, 1.0, [0.0, 1.0, 3.0], n_traj=2,
                                seed=11)
    with pytest.raises(ValueError):
        dump_ensemble(ens, tmp_path / "bad.bin")
