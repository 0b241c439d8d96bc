import dataclasses
import math

import numpy as np
import pytest

import subquad_bsde as sq
from subquad_bsde.conditions import (SampleCloud, build_cloud, check_growth,
                                     check_theta_convexity, check_y_regularity,
                                     check_z_regularity)
from subquad_bsde.errors import (ConfigurationError, InvalidCoefficientError,
                                 UnsupportedDimensionError)
from subquad_bsde.generators import (CoefficientProfile, Generator, TruncationIndex,
                                     expression_generator, make_generator, truncate_generator)


def _const(v):
    return lambda t: v + 0.0 * np.asarray(t, dtype=float)


def test_zero_generator_passes_growth(cloud_random):
    r = check_growth(sq.make_generator("zero", 1.5), "EX1", cloud_random)
    assert r.passed and r.worst_margin >= 0.0


# every condition a catalog generator declares (custom-expression declares none)
_DECLARED = [(gen_id, flag.removeprefix("satisfies-"))
             for gen_id in sq.generators.GENERATOR_IDS if gen_id != "custom-expression"
             for flag in sorted(make_generator(gen_id, 1.5).flags) if flag.startswith("satisfies-")]


@pytest.mark.parametrize("gen_id, condition", _DECLARED)
def test_catalog_generators_pass_every_condition_they_declare(gen_id, condition, cloud_random,
                                                              cloud_corner):
    gen = make_generator(gen_id, 1.5)
    for cloud in (cloud_random, cloud_corner):
        r = sq.check_condition(gen, condition, cloud)
        assert r.passed, (cloud.size, r.worst_margin, r.witnesses[:1])


def test_corner_cloud_alone_sees_a_growth_failure_at_small_z(cloud_corner):
    # convex-power with its former forcing f = 0: gamma |z|^alpha exceeds
    # c_quad |z|^2 near z = 0, which the corner cloud reaches through its
    # z magnitudes 1e-3 and 0.05 (with only 0, 1 and 10 it passed at margin 0)
    g = make_generator("convex-power", 1.5)
    unforced = dataclasses.replace(g, profile=dataclasses.replace(
        g.profile, f=lambda t, b: np.zeros(np.atleast_2d(b).shape[0])))
    r = check_growth(unforced, "EX2", cloud_corner)
    assert not r.passed and r.worst_margin < 0.0
    assert r.witnesses[0] == (0.0, 0.0, 1e-3)
    assert check_growth(g, "EX2", cloud_corner).passed


def test_example1_passes_growth(example1, cloud_random, cloud_corner):
    for cloud in (cloud_random, cloud_corner):
        assert check_growth(example1, "EX1", cloud).passed
        assert check_growth(example1, "EX2", cloud).passed
        assert check_growth(example1, "A1", cloud).passed


@pytest.mark.parametrize("strategy", ["random", "adversarial-corner"])
def test_truncated_example1_passes_growth_with_its_capped_forcing(strategy, example1):
    # at (1, 1) the driver clamps on about half the points and the forcing
    # min(f, cap e^{-t}) on every point: EX1 must still hold against that forcing
    g = truncate_generator(example1, TruncationIndex(1, 1))
    cloud = build_cloud(1.0, 1, 20000, strategy, seed=3)
    t, b = np.concatenate([cloud.t] * 2), np.vstack([cloud.b] * 2)
    y, z = np.concatenate([cloud.y1, cloud.y2]), np.vstack([cloud.z1, cloud.z2])
    assert np.mean(g(t, b, y, z) != example1(t, b, y, z)) > 0.4
    assert np.all(g.profile.f(t, b) == np.minimum(example1.profile.f(t, b), np.exp(-t)))
    assert check_growth(g, "EX1", cloud).passed


def test_quadratic_violator_fails_with_witness():
    bad = make_generator("custom-expression", 1.5, beta=1.0, gamma=1.0,
                         f_const=1.0, expression="z^2")
    n = 64
    cloud = SampleCloud(t=np.full(n, 0.5), b=np.zeros((n, 1)),
                        y1=np.full(n, 1.0), z1=np.full((n, 1), 10.0),
                        y2=np.full(n, 1.0), z2=np.full((n, 1), 10.0),
                        theta=np.full(n, 0.5))
    r = check_growth(bad, "EX1", cloud)
    assert r.verdict == "fail"
    assert len(r.witnesses) > 0
    # 100 > 1 + 1 + 10^1.5 by about 66
    assert r.worst_margin == pytest.approx(1.0 + 1.0 + 10.0 ** 1.5 - 100.0)


def test_missing_coefficients_raise(cloud_random):
    gen = expression_generator("0*y", alpha=1.5)
    with pytest.raises(ConfigurationError):
        check_growth(gen, "A5", cloud_random)


def _scalar_gen(expr, **profile_kwargs):
    gen = expression_generator(expr, alpha=1.5)
    prof = gen.profile
    merged = dict(alpha=prof.alpha, beta=prof.beta, gamma=prof.gamma, f=prof.f,
                  psi_growth=prof.psi_growth, c_quad=prof.c_quad)
    merged.update(profile_kwargs)
    return Generator(fn=gen.fn, profile=CoefficientProfile(**merged), name=gen.name)


def test_monotone_cube_passes_a2i(cloud_random):
    gen = _scalar_gen("0 - y*y*y", k1=_const(0.0))
    assert check_y_regularity(gen, "A2i", cloud_random).passed


def test_sine_lipschitz_passes_a2ii(cloud_random):
    gen = _scalar_gen("0.7*min(y, y)*0 + 0.7*y", k2=_const(0.7))
    assert check_y_regularity(gen, "A2ii", cloud_random).passed


def test_root_branch_trivial_on_positive_side(cloud_random):
    gen = _scalar_gen("abs(y)^0.5 * ind(0 - y)", k2=_const(0.0))
    assert check_y_regularity(gen, "A2ii", cloud_random).passed


def test_z_convexity_checks(cloud_random, example1):
    sq_gen = _scalar_gen("z1^2", a=0.0, c1=_const(0.0))
    assert check_z_regularity(sq_gen, "A3ii", cloud_random).passed
    # the builtin kink is linear outside [-2, 2]
    assert check_z_regularity(example1, "A3ii", cloud_random).passed
    concave = _scalar_gen("0 - z1^2", a=0.0)
    r = check_z_regularity(concave, "A3ii", cloud_random)
    assert r.verdict == "fail" and len(r.witnesses) > 0


def test_z_checks_reject_multidim():
    cloud = build_cloud(1.0, 2, 100, "random", 0)
    wide = sq.builtin_example_1(1.5, d=2)
    with pytest.raises(UnsupportedDimensionError):
        check_z_regularity(wide, "A3ii", cloud)


def test_a4_and_lipschitz_checks(example1, cloud_random):
    assert check_z_regularity(example1, "A3i", cloud_random).passed
    assert check_z_regularity(example1, "A4", cloud_random).passed


def test_a6_checks(cloud_random):
    gen = _scalar_gen("ln(exp(1) + abs(z1))", a=0.0, c_bar=_const(1.0 / math.e))
    assert check_z_regularity(gen, "A6i", cloud_random).passed
    assert check_z_regularity(gen, "A6ii", cloud_random).passed


def test_catalog_generators_declare_exact_a5_and_a6i(cloud_random):
    zero = sq.make_generator("zero", 1.5)
    assert check_growth(zero, "A5", cloud_random).passed
    assert check_z_regularity(zero, "A6i", cloud_random).passed
    # |b_z (z - z')| <= |b_z| |z - z'| holds with equality
    for b_z in (0.5, -2.0):
        linear = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=b_z)
        assert check_z_regularity(linear, "A6i", cloud_random).passed


def test_a5_log_growth(cloud_random):
    gen = _scalar_gen("ln(exp(1) + abs(z1))^1.5", u_bar=_const(0.0), v_bar=_const(1.0),
                      f=lambda t, b: np.zeros(np.atleast_2d(b).shape[0]))
    assert check_growth(gen, "A5", cloud_random).passed


def test_convex_power_passes_unprime(cloud_random, cloud_corner):
    gen = sq.make_generator("convex-power", 1.5, gamma=1.0)
    for cloud in (cloud_random, cloud_corner):
        assert check_theta_convexity(gen, "UNprime-i", cloud).passed


def test_example2_passes_un(example2, cloud_random, cloud_corner):
    for cloud in (cloud_random, cloud_corner):
        assert check_theta_convexity(example2, "UN-i", cloud).passed


def test_un_requires_integrable_gamma(cloud_random):
    gen = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    prof = gen.profile
    from dataclasses import replace
    broken = Generator(fn=gen.fn, profile=replace(prof, gamma=_const(0.0), gamma_conv=None),
                       name="no-gamma")
    with pytest.raises(InvalidCoefficientError):
        check_theta_convexity(broken, "UN-i", cloud_random)


def test_closure_under_sum_max_min(cloud_random):
    g1 = sq.make_generator("convex-power", 1.5, gamma=1.0)
    g2 = sq.make_generator("linear", 1.5, b_y=-0.5, b_z=0.25)
    k1, k2 = 0.7, 1.3

    def combine(op):
        def fn(t, b, y, z):
            return op(k1 * g1(t, b, y, z), k2 * g2(t, b, y, z))
        prof1, prof2 = g1.profile, g2.profile
        prof = CoefficientProfile(
            alpha=1.5,
            beta=lambda t: k1 * prof1.beta(t) + k2 * prof2.beta(t),
            gamma=lambda t: k1 * prof1.gamma(t) + k2 * prof2.gamma(t),
            f=lambda t, b: k1 * prof1.f(t, b) + k2 * prof2.f(t, b))
        return Generator(fn=fn, profile=prof, name="combo")

    for op in (np.add, np.maximum, np.minimum):
        assert check_theta_convexity(combine(op), "UNprime-i", cloud_random).passed


def test_un_implies_one_sided_growth(example2, cloud_random):
    # collapsing the pair to a single point must reproduce the one-sided
    # growth with doubled beta and a finite fitted kink constant
    prof = example2.profile
    f_fn, beta_fn, gamma_fn = prof.convexity_tier()
    c = cloud_random
    g_vals = example2(c.t, c.b, c.y1, c.z1)
    zn = np.sqrt((c.z1 ** 2).sum(axis=1))
    lhs = np.where(c.y1 > 0, g_vals, 0.0)
    base = f_fn(c.t, c.b) + 2.0 * beta_fn(c.t) * np.abs(c.y1)
    denom = gamma_fn(c.t) * (zn ** prof.alpha + np.log(math.e + zn) ** (prof.alpha_star / 2))
    fitted_k = np.max(np.maximum(lhs - base, 0.0) / np.maximum(denom, 1e-12))
    assert np.isfinite(fitted_k)
    assert np.all(lhs <= base + max(fitted_k, 1.0) * denom + 1e-9)


def test_verdicts_deterministic(example1):
    a = check_growth(example1, "EX1", build_cloud(1.0, 1, 5000, "random", 9))
    b = check_growth(example1, "EX1", build_cloud(1.0, 1, 5000, "random", 9))
    assert a.worst_margin == b.worst_margin and a.verdict == b.verdict


def test_cloud_strategies_shapes():
    for strat in ("random", "grid", "adversarial-corner"):
        c = build_cloud(1.0, 2, 3000, strat, 1)
        assert c.dims == 2 and c.size > 0
        assert np.all((c.theta > 0) & (c.theta < 1))
    with pytest.raises(ValueError):
        build_cloud(1.0, 1, 100, "bogus", 0)


def test_one_sided_gate_variant(example1, cloud_random):
    # the gated variant is implied by the signed one
    assert check_growth(example1, "EX1prime", cloud_random).passed


def test_example1_multidim_conditions():
    wide = sq.builtin_example_1(1.5, 0.5, 0.25, d=3)
    cloud = build_cloud(1.0, 3, 15000, "adversarial-corner", 2)
    assert check_growth(wide, "EX1", cloud).passed
    assert check_growth(wide, "EX2", cloud).passed
    assert check_theta_convexity(wide, "UNprime-i", cloud).passed


def test_certificates_survive_local_adversarial_polish():
    # descent-based attack on the theta-convexity margin, sharper than any
    # fixed cloud; the certified coefficients must keep it nonnegative
    from scipy.optimize import minimize

    def margin_fn(gen, with_log):
        prof = gen.profile
        f_fn, beta_fn, gamma_fn = prof.convexity_tier()
        alpha, astar = prof.alpha, prof.alpha_star

        def m(x):
            t, b, y1, z1, y2, z2, u = x
            th = min(max(1.0 / (1.0 + math.exp(-u)), 1e-6), 1.0 - 1e-6)
            t = min(max(t, 0.0), 1.0)
            bb = np.array([[b]])
            dy = (y1 - th * y2) / (1.0 - th)
            dz = (z1 - th * z2) / (1.0 - th)
            diff = (gen(t, bb, np.array([y1]), np.array([[z1]]))[0]
                    - th * gen(t, bb, np.array([y2]), np.array([[z2]]))[0])
            lhs = diff if (y1 - th * y2 > 0) else 0.0
            allow = beta_fn(t) * (abs(y2) + abs(dy)) + gamma_fn(t) * abs(dz) ** alpha
            if with_log:
                allow += gamma_fn(t) * math.log(math.e + abs(z2)) ** (astar / 2.0)
            return (1.0 - th) * (float(f_fn(t, bb)[0]) + allow) - lhs

        return m

    rng = np.random.default_rng(0)
    for gen, with_log in [(sq.builtin_example_1(1.5, 0.5, 0.25, 1), False),
                          (sq.builtin_example_2(1.5, 0.5, 0.25, 1), True)]:
        m = margin_fn(gen, with_log)
        worst = math.inf
        for _ in range(50):
            x0 = np.array([rng.uniform(0, 1), rng.normal(0, 2), rng.normal(0, 0.3),
                           rng.normal(0, 3), -abs(rng.normal(0, 0.3)),
                           rng.normal(0, 3), rng.uniform(3, 8)])
            r = minimize(m, x0, method="Nelder-Mead",
                         options={"maxiter": 1500, "xatol": 1e-10, "fatol": 1e-12})
            worst = min(worst, float(r.fun))
        assert worst > -1e-9, (gen.name, worst)
