import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from subquad_bsde import constants
from subquad_bsde.constants import (LogValue, conjugate_exponent, derive_constants,
                                    gamma_integral, k_threshold, khat, mu_schedule,
                                    theta_constants, young_margin)
from subquad_bsde.errors import InvalidCoefficientError

ZERO = lambda t: 0.0 * np.asarray(t, dtype=float)


def test_conjugate_values():
    assert conjugate_exponent(1.5) == pytest.approx(3.0)
    assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)
    assert conjugate_exponent(1.9) == pytest.approx(19.0 / 9.0)


@given(st.floats(1.0001, 1.9999))
@settings(max_examples=200, deadline=None)
def test_conjugate_identity(alpha):
    astar = conjugate_exponent(alpha)
    assert abs(1.0 / alpha + 1.0 / astar - 1.0) < 1e-12
    assert astar > 2.0


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 2.3])
def test_conjugate_domain(alpha):
    with pytest.raises(ValueError):
        conjugate_exponent(alpha)


def test_khat_value():
    # 0.5 * (0.5 / 2.25)^(-3) = 0.5 * 4.5^3
    assert khat(1.5) == pytest.approx(45.5625)


def test_khat_positive_sweep():
    rng = np.random.default_rng(0)
    for alpha in rng.uniform(1.01, 1.99, 100):
        assert khat(alpha) > 0.0


def test_young_certificate_on_grid():
    gam, yh, zn = np.meshgrid(np.linspace(1e-3, 2.0, 10),
                              np.linspace(1.0, 10.0, 10),
                              np.linspace(0.0, 10.0, 10))
    margin = young_margin(1.5, gam.ravel(), yh.ravel(), zn.ravel())
    assert margin.min() >= -1e-9


def test_k_threshold_value():
    assert k_threshold(1.5) == pytest.approx(12.0 ** 1.5)


def test_k_threshold_properties_sweep():
    rng = np.random.default_rng(1)
    for alpha in rng.uniform(1.01, 1.99, 100):
        astar = conjugate_exponent(alpha)
        k = k_threshold(alpha)
        assert k ** (2.0 / astar) >= 2.0 * math.log(k) - 1e-9
        assert k > (astar / 2.0) ** (astar / 2.0)


# A(s) = int_0^s beta, as derive_constants integrates it
def test_beta_integral_constant_and_zero():
    assert derive_constants(1.5, 2.0, lambda t: 0.3 + 0.0 * t, ZERO).A(2.0) == pytest.approx(0.6)
    assert derive_constants(1.5, 5.0, ZERO, ZERO).A(5.0) == 0.0


def test_beta_integral_closed_form():
    A = derive_constants(1.5, 1.0, lambda t: np.exp(-t), ZERO).A
    assert A(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
    assert A(0.5) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-8)


def test_beta_integral_rejects_negative():
    with pytest.raises(InvalidCoefficientError, match=r"beta must be nonnegative; beta\(0\) = -1"):
        derive_constants(1.5, 1.0, lambda t: -1.0 + 0.0 * t, ZERO)


def test_mu_schedule_zero_gamma():
    mu = mu_schedule(1.5, ZERO, lambda s: 0.0)
    for s in (0.0, 0.7, 2.0):
        assert mu(s) == 1.0


def test_mu_schedule_closed_form():
    # beta = 0 so A = 0; gamma = 1: exponent is khat/alpha* * s = 15.1875 s
    mu = mu_schedule(1.5, lambda t: 1.0 + 0.0 * t, lambda s: 0.0)
    for s in (0.1, 0.45):
        assert mu(s) == pytest.approx(math.exp(15.1875 * s), rel=1e-6)


def test_mu_schedule_monotone_random_draws():
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.uniform(0.1, 0.8)
        mu = mu_schedule(1.5, lambda t, c=c: c * (1.0 + np.sin(t) ** 2),
                         lambda s: 0.1 * s)
        values = [mu(s) for s in np.linspace(0.0, 2.0, 9)]
        assert all(np.isfinite(values))
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_mu_schedule_saturates_instead_of_raising():
    mu = mu_schedule(1.5, lambda t: 5.0 + 0.0 * t, lambda s: s)
    assert mu(50.0) == math.inf
    # past 2A(r) ~ 709.8 the weight e^{2A} itself leaves the double range
    assert mu_schedule(1.5, lambda t: 0.25 + 0.0 * t, lambda s: s)(400.0) == math.inf
    assert mu_schedule(1.5, ZERO, lambda s: s)(400.0) == 1.0
    cs = derive_constants(1.5, 400.0, lambda t: 1.0 + 0.0 * t, lambda t: 0.25 + 0.0 * t)
    assert cs.log_K.log == math.inf and cs.K_p(2.0).log == math.inf
    assert derive_constants(1.5, 400.0, lambda t: 1.0 + 0.0 * t, ZERO).log_K.log == 400.0


def test_gamma_integral_gate():
    assert gamma_integral(lambda t: 2.0 + 0.0 * t, 1.5) == pytest.approx(3.0)
    for gamma in (ZERO, lambda t: t - 0.3, lambda t: np.inf + 0.0 * t):
        with pytest.raises(InvalidCoefficientError, match="theirs"):
            gamma_integral(gamma, 1.0, "theirs")


def test_bound_constant_K_zero_coefficients():
    K = derive_constants(1.5, 1.0, ZERO, ZERO).log_K
    # mu(T) = 1, k^{2/alpha*} = 12, A(T) = 0
    assert K.log == pytest.approx(12.0)
    assert float(K) == pytest.approx(math.exp(12.0), rel=1e-9)


def test_bound_constant_K_monotone_in_T():
    beta = lambda t: 0.2 + 0.0 * t
    gamma = lambda t: 0.3 + 0.0 * t
    logs = [derive_constants(1.5, T, beta, gamma).log_K.log for T in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(logs, logs[1:]))
    assert logs[0] >= 0.0          # K >= 1 always


def test_bound_constant_Kp_zero_coefficients():
    Kp = derive_constants(1.5, 1.0, ZERO, ZERO).K_p(2.0)
    # (p/(p-1))^p ((8 mu)^p e^{pA} + 1) e^{p mu k^{2/a*}} = 4 * 65 * e^24
    assert Kp.log == pytest.approx(math.log(4.0 * 65.0) + 24.0)


def test_bound_constant_Kp_blows_up_near_one():
    # the (p/(p-1))^p factor diverges as p -> 1, but it only overtakes the
    # e^{p mu k^{2/a*}} factor once p - 1 is tiny
    logs = [derive_constants(1.5, 1.0, ZERO, ZERO).K_p(1.0 + eps).log
            for eps in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(b > a for a, b in zip(logs, logs[1:]))
    assert logs[-1] > derive_constants(1.5, 1.0, ZERO, ZERO).K_p(2.0).log


def test_bound_constant_Kp_right_branch():
    for p in (1.5, 2.0, 5.0):
        Kp = derive_constants(1.5, 1.0, ZERO, ZERO).K_p(p)
        assert Kp.log >= math.log(p) - 1e-12   # >= p mu(T) e^{A(T)} with mu=1, A=0


def test_theta_constants_values():
    delta_p, k_alpha = theta_constants(2.0, lambda t: 1.0 + 0.0 * t, 1.5, 1.0)
    assert k_alpha == pytest.approx(math.exp(1.5))
    assert delta_p == pytest.approx(2.0)


def test_theta_constants_rejects_zero_gamma():
    with pytest.raises(InvalidCoefficientError):
        theta_constants(2.0, ZERO, 1.5, 1.0)


def test_logvalue_overflow_flag():
    assert not LogValue(10.0).overflowed
    assert LogValue(10.0).value == pytest.approx(math.exp(10.0))
    big = LogValue(1e5)
    assert big.overflowed and big.value == math.inf


def test_constant_set_dump_is_bit_stable():
    beta = lambda t: 0.2 * np.exp(-np.asarray(t, dtype=float))
    gamma = lambda t: 0.4 + 0.0 * np.asarray(t, dtype=float)
    a = derive_constants(1.5, 1.0, beta, gamma).dump(p_values=(1.5, 2.0))
    b = derive_constants(1.5, 1.0, beta, gamma).dump(p_values=(1.5, 2.0))
    assert a == b
    assert '"alpha": 1.5' in a and '"log_K"' in a


def test_constant_set_schedules_monotone():
    cs = derive_constants(1.5, 2.0, lambda t: 0.2 + 0.1 * np.asarray(t, dtype=float),
                          lambda t: 0.3 + 0.0 * np.asarray(t, dtype=float))
    ss = np.linspace(0.0, 2.0, 9)
    A_vals = [cs.A(s) for s in ss]
    mu_vals = [cs.mu(s) for s in ss]
    assert A_vals[0] == 0.0 and all(b >= a for a, b in zip(A_vals, A_vals[1:]))
    assert mu_vals[0] >= 1.0 and all(b >= a for a, b in zip(mu_vals, mu_vals[1:]))


def _mu_weight():
    """e^{2A(r)} gamma(r)^4, the mu integrand at alpha = 1.5, with its own A cache."""
    A = constants._cached_integral(lambda r: 0.2 * math.exp(-r), "beta")
    return lambda r: math.exp(2.0 * A(r)) * (0.25 + 0.1 * math.sin(r)) ** 4


@pytest.mark.parametrize("make_fn,lo,hi", [
    (lambda: (lambda t: 0.3), 0.0, 1.0),
    (lambda: (lambda t: 0.25 + 0.0 * np.asarray(t)), 0.0, 2.5),
    (lambda: (lambda t: math.exp(-t)), 0.0, 1.0),
    (lambda: (lambda t: math.sin(3.0 * t) ** 2), 0.0, 1.0),
    (_mu_weight, 0.0, 1.0),
    (_mu_weight, 0.4, 1.0),
], ids=["const", "const-array", "exp", "sin2", "mu-weight", "mu-weight-anchored"])
def test_gk21_is_bit_equal_to_quad(make_fn, lo, hi):
    ours = constants._integrate(make_fn(), lo, hi, "f")
    ref, _ = quad(make_fn(), lo, hi, epsabs=constants.QUAD_ABS_TOL, limit=constants.QUAD_LIMIT)
    assert type(ours) is float
    assert ours == ref


@pytest.mark.parametrize("fn,exact", [
    (math.sqrt, 2.0 / 3.0),
    (lambda t: abs(t - 0.3), 0.29),
    (lambda t: t ** -0.5, 2.0),
], ids=["sqrt", "kink", "singular"])
def test_subdivided_integral_meets_tolerance(fn, exact):
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    value = constants._integrate(counted, 0.0, 1.0, "f")
    assert len(calls) > 21                     # the first interval was bisected
    assert abs(value - exact) <= max(constants.QUAD_ABS_TOL, constants.QUAD_REL_TOL * exact)


def test_divergent_integral_raises_naming_the_coefficient():
    with pytest.raises(InvalidCoefficientError, match="integral of beta over .* does not converge"):
        derive_constants(1.5, 1.0, lambda t: abs(t - 1.0 / 3.0) ** -1, lambda t: 0.25)


def test_toolkit_loads_without_scipy():
    code = ("import sys, subquad_bsde, subquad_bsde.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(constants.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("value", [1e306, 1.7e308, -1.7e308])
def test_overflowing_integral_of_a_finite_integrand_saturates(value):
    # 1e306 overflows only in the final product with the interval, 1.7e308
    # already in the rule's sum of two samples: both take one path
    assert constants._integrate(lambda t: value, 0.0, 400.0, "c") == math.copysign(math.inf, value)


def test_mixed_sign_overflow_keeps_its_finite_part():
    # each part overflows the double range, their integral does not
    fn = lambda t: 1.7e308 if t < 100.0 else -1.7e308
    assert constants._integrate(fn, 0.0, 400.0, "c") == -math.inf
    fn = lambda t: 1e308 if t < 1.0 else -1e308
    value = constants._integrate(fn, 0.0, 2.5, "c")
    assert math.isfinite(value) and abs(value - (-0.5e308)) <= 1e-6 * 0.5e308


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(InvalidCoefficientError, match="the integrand is not finite"):
        constants._integrate(lambda t: bad if t > 0.6 else 1.0, 0.0, 1.0, "c")
    with pytest.raises(InvalidCoefficientError, match="the integrand is not finite"):
        constants._integrate(lambda t: bad, 0.0, 1.0, "c")
