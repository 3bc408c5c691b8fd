"""Invariants checked over random inputs drawn by hypothesis."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qlebath import (
    DIMENSIONLESS,
    AcausalCutoffWarning,
    BlackbodyKernel,
    Ensemble,
    OhmicKernel,
    ParticleModel,
    PhysicalConstants,
    QuadratureError,
    SingleRelaxationKernel,
    coupled_free_energy,
    dump_ensemble,
    free_energy_shift,
    load_ensemble,
    oscillator_free_energy,
    poles_and_causality,
)
from qlebath.cli import _csv_text

# derandomize: the same examples on every run, so the suite stays a fixed gate
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


kernels = st.one_of(
    st.builds(OhmicKernel, gamma=st.just(0.0) | log_uniform(-4, 4),
              mass=log_uniform(-3, 3)),
    st.builds(SingleRelaxationKernel, gamma=st.just(0.0) | log_uniform(-4, 4),
              tau=log_uniform(-4, 4), mass=log_uniform(-3, 3)),
    st.builds(BlackbodyKernel, Omega=log_uniform(-4, 6),
              constants=st.sampled_from([DIMENSIONLESS, PhysicalConstants.cgs(),
                                         DIMENSIONLESS.scale_charge(0.0)]),
              M=log_uniform(-3, 3)),
)
frequencies = st.lists(log_uniform(-6, 6), min_size=1, max_size=20)


@PROPERTY_SETTINGS
@given(kernel=kernels, omega=frequencies)
def test_kernels_are_passive_and_reflection_symmetric(kernel, omega):
    omega = np.array(omega)
    mu = kernel.mu_tilde(omega.astype(complex))
    mu_neg = kernel.mu_tilde((-omega).astype(complex))
    assert np.all(mu.real >= -1e-15 * np.abs(mu))
    assert np.allclose(mu_neg, np.conj(mu), rtol=1e-12, atol=0.0)
    assert np.allclose(kernel.re_mu_real_axis(omega), mu.real, rtol=1e-12,
                       atol=1e-15 * float(np.max(np.abs(mu))))


# Omega tau_e anywhere over four decades, or within 1e-12 .. 1e-2 of 1; the
# point limit itself is the separate case below
cutoff_ratios = st.one_of(
    log_uniform(-2, 2).filter(lambda ratio: abs(ratio - 1.0) >= 1e-12),
    st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(-12, -2)).map(
        lambda sd: 1.0 + sd[0] * sd[1]),
)


@PROPERTY_SETTINGS
@given(M=log_uniform(-2, 2), K=st.just(0.0) | log_uniform(-3, 3),
       ratio=cutoff_ratios)
def test_pole_verdict_matches_the_causal_cutoff_bound(M, K, ratio):
    tau_e = ParticleModel(M=M, K=K, Omega=1.0).tau_e
    model = ParticleModel(M=M, K=K, Omega=ratio / tau_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AcausalCutoffWarning)
        report = poles_and_causality(model.kernel(), model)
    assert report.causal == model.is_causal


def matching_model(kernel, K):
    if isinstance(kernel, BlackbodyKernel):
        return ParticleModel(M=kernel.M, K=K, Omega=kernel.Omega,
                             constants=kernel.constants)
    return ParticleModel(M=kernel.mass, K=K, Omega=1.0)


@PROPERTY_SETTINGS
@given(kernel=kernels, K=log_uniform(-3, 3))
def test_poles_are_roots_of_the_cleared_denominator(kernel, K):
    model = matching_model(kernel, K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AcausalCutoffWarning)
        report = poles_and_causality(kernel, model)
        m = model.m_bare if isinstance(kernel, BlackbodyKernel) else kernel.mass
    a0, a1, b0, b1 = kernel.coefficients
    for z in report.poles:
        # (K - m z^2)(b0 + b1 z) - i z (a0 + a1 z), term by term
        terms = [K * b0, K * b1 * z, -m * z ** 2 * b0, -m * z ** 3 * b1,
                 -1j * a0 * z, -1j * a1 * z ** 2]
        assert abs(sum(terms)) <= 1e-9 * sum(abs(t) for t in terms)
    if isinstance(kernel, BlackbodyKernel):
        coupled = kernel.constants.e > 0
    else:
        coupled = kernel.gamma > 0
    expected = 3 if coupled and not isinstance(kernel, OhmicKernel) else 2
    assert len(report.poles) == expected


# few examples: each draws two adaptive quadratures
ROUTE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@ROUTE_SETTINGS
@given(kernel=kernels, K=log_uniform(-3, 3), x=log_uniform(-1.5, 1.5))
def test_free_energy_routes_agree_within_their_stated_errors(kernel, K, x):
    model = matching_model(kernel, K)
    assume(model.is_causal)
    k = model.constants
    # hbar omega_0 / kT = x: from the quantum to the classical regime
    T = k.hbar * model.omega_0 / (k.k_B * x)
    rtol = 1e-8
    try:
        F, err_direct = coupled_free_energy(kernel, model, T, rtol=rtol)
        shift, err_shift = free_energy_shift(kernel, model, T, rtol=rtol)
    except QuadratureError:
        # allowed: a line narrower than the float spacing at omega_0 (CGS
        # with a macroscopic mass) has no node to sample it, and a request
        # below the rounding floor exhausts the panel budget.  A number
        # outside its stated error is not allowed.
        assume(False)
    baseline = oscillator_free_energy(model.omega_0, T, k)
    assert abs(F - (baseline + shift)) <= (
        err_direct + err_shift + 1e-12 * (abs(F) + abs(baseline)))


@pytest.mark.parametrize("M", [0.5, 0.7, 1.0, 1.3, 2.0, 3.7])
def test_point_limit_verdict_matches_the_poles(M):
    # Omega tau_e rounds to exactly 1 here: the largest causal cutoff
    model = ParticleModel.point_limit(M, 1.0)
    assert poles_and_causality(model.kernel(), model).causal
    assert model.is_causal


@st.composite
def ensembles(draw):
    n_traj = draw(st.integers(1, 6))
    n_times = draw(st.integers(2, 60))
    dt = draw(log_uniform(-6, 3))
    # t0 up to 1e5 steps: the grid stays uniform to the dump's 1e-9 check
    t0 = dt * draw(st.just(0.0) | st.floats(0.0, 1e5))
    block = hnp.arrays(np.float64, (n_traj, n_times),
                       elements=st.floats(allow_nan=True, allow_infinity=True))
    return Ensemble(times=t0 + dt * np.arange(n_times), x=draw(block),
                    v=draw(block), seed=draw(st.integers(0, 2 ** 64 - 1)),
                    N_bath=draw(st.integers(0, 2 ** 32 - 1)),
                    T=draw(st.just(0.0) | log_uniform(-3, 3)),
                    force=draw(st.none() | block),
                    k_B=draw(st.just(1.0) | log_uniform(-24, 3)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@PROPERTY_SETTINGS
@given(ens=ensembles())
def test_dump_and_load_round_trip(ens):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ensemble.bin")
        dump_ensemble(ens, path)
        back = load_ensemble(path)
    for field in ("seed", "N_bath", "T", "k_B", "n_traj"):
        assert getattr(back, field) == getattr(ens, field), field
    np.testing.assert_array_equal(_bits(back.x), _bits(ens.x))
    np.testing.assert_array_equal(_bits(back.v), _bits(ens.v))
    assert (back.force is None) == (ens.force is None)
    if ens.force is not None:
        np.testing.assert_array_equal(_bits(back.force), _bits(ens.force))
    assert back.times.shape == ens.times.shape
    assert np.max(np.abs(back.times - ens.times)) <= 1e-12 * ens.times[-1]


def _per_cell_csv(header, rows) -> str:
    """The CSV writer as it was, one cell at a time: the reference."""
    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))
    lines = [",".join(header)]
    lines += [",".join(cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


edge_floats = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                               0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                               -1e308])


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    floats = hnp.arrays(np.float64, n_rows, elements=st.floats() | edge_floats)
    columns = [draw(floats) for _ in range(draw(st.integers(1, 4)))]
    # runners hand over arrays or plain lists of floats
    columns = [col.tolist() if draw(st.booleans()) else col for col in columns]
    if draw(st.booleans()):
        tags = st.sampled_from(["ballistic", "diffusive", "anomalous"])
        columns.insert(draw(st.integers(0, len(columns))),
                       draw(st.lists(tags, min_size=n_rows, max_size=n_rows)))
    return [f"c{i}" for i in range(len(columns))], columns


@PROPERTY_SETTINGS
@given(table=tables())
def test_column_csv_matches_the_per_cell_writer(table):
    header, columns = table
    assert _csv_text(header, columns) == _per_cell_csv(header, zip(*columns))


def test_a_table_without_rows_is_its_header_line():
    # what a causality run with no poles hands over
    poles = np.array((), dtype=complex)
    assert _csv_text(("re_pole", "im_pole"), (poles.real, poles.imag)) \
        == "re_pole,im_pole\n"
