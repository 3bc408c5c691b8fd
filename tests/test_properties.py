"""Invariants checked over random inputs drawn by hypothesis."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    SingleRelaxationKernel,
    dump_ensemble,
    load_ensemble,
    poles_and_causality,
)

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
              constants=st.sampled_from([DIMENSIONLESS, PhysicalConstants.cgs()]),
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
