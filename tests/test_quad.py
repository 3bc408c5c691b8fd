"""The vectorized Gauss-Kronrod quadrature against exact integrals."""

import math

import numpy as np
import pytest

from qlebath import QuadratureError
from qlebath._quad import quad

HARMONIC_32 = sum(1.0 / k for k in range(1, 33))


def test_kronrod_sum_is_exact_to_degree_31_in_one_pass():
    # sum_{k<32} x^k on [0, 1]; a loose epsabs stops after the first pass
    value, err, info = quad(lambda x: sum(x ** k for k in range(32)),
                            [0.0, 1.0], epsabs=1e-3, epsrel=0.0)
    assert info == {"neval": 21, "panels": 1}
    assert value == pytest.approx(HARMONIC_32, rel=1e-15)
    # G10 is exact only to degree 19, so the estimate is |K - G| > 0 and
    # the value returned is the Kronrod sum, not the Gauss one
    assert 0.0 < err < 1e-3


def test_gauss_exact_polynomial_converges_at_once():
    value, err, info = quad(lambda x: 3.0 * x ** 19 - x ** 4, [-1.0, 2.0],
                            epsrel=1e-13)
    exact = 3.0 * (2.0 ** 20 - 1.0) / 20.0 - (2.0 ** 5 + 1.0) / 5.0
    assert value == pytest.approx(exact, rel=1e-14)
    assert info["neval"] == 21
    assert err <= 1e-13 * abs(value)


@pytest.mark.parametrize("f, pts, exact", [
    (lambda x: np.exp(-x), [0.0, math.inf], 1.0),
    (lambda x: 1.0 / (x * x), [2.0, math.inf], 0.5),
    (np.log, [0.0, 1.0], -1.0),
    # a Lorentzian of width 1e-4 whose peak sits on no breakpoint
    (lambda x: 1e-4 / math.pi / ((x - 0.3141) ** 2 + 1e-8), [-1.0, 2.0],
     (math.atan((2.0 - 0.3141) / 1e-4) - math.atan((-1.0 - 0.3141) / 1e-4))
     / math.pi),
], ids=["exp-tail", "inverse-square-tail", "log", "lorentzian"])
def test_closed_forms_lie_within_the_stated_error(f, pts, exact):
    value, err, info = quad(f, pts, epsrel=1e-10)
    assert abs(value - exact) <= err
    assert err <= 1e-10 * abs(value)
    assert info["neval"] % 21 == 0
    assert info["neval"] >= 21 * info["panels"]


def test_a_final_infinite_breakpoint_is_one_mapped_panel():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x)

    _, _, info = quad(f, [0.0, 1.0, math.inf], epsrel=1e-12)
    # one array call per pass, and the first pass sees both panels
    assert calls[0] == 42
    assert sum(calls) == info["neval"]


def test_non_integrable_singularity_raises_instead_of_returning():
    with pytest.raises(QuadratureError) as exc:
        quad(lambda x: 1.0 / x, [0.0, 1.0], epsrel=1e-8)
    assert exc.value.achieved is not None and exc.value.achieved > 0.0


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        quad(lambda x: np.where(x > 0.5, np.nan, x), [0.0, 1.0])
