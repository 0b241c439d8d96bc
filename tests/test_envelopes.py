import dataclasses

import numpy as np
import pytest

from subquad_bsde.envelopes import (ScalarFunction, construct_A2_envelope,
                                    construct_A3_envelope,
                                    lemmaA1_check, lemmaA2_check,
                                    lemmaA2_intermediate_checks, lemmaA3_check,
                                    lemmaA3_intermediate_checks, lemma_samples,
                                    remainder_check, second_difference_convexity)
from subquad_bsde.errors import InvalidHypothesisError
from subquad_bsde.families import (A1_FAMILIES, A2_FAMILIES, A3_FAMILIES, FALSIFIER_REGISTRY,
                                   FAMILY_REGISTRY)


@pytest.fixture(scope="module")
def samples():
    return lemma_samples(20_000, seed=11)


def test_a1_hand_margin():
    f = A1_FAMILIES["abs"]()
    x1, x2, th = np.array([1.0]), np.array([-1.0]), np.array([0.5])
    r = lemmaA1_check(f, 1.0, 1.0, (x1, x2, th))
    # LHS = 1, RHS = 2*3 + 2*1 + 1 = 9
    assert r.passed and r.worst_margin == pytest.approx(8.0)


def test_a1_gate_off_side(samples):
    f = A1_FAMILIES["exp-decay"]()
    x1, x2, th = samples
    off = x1 <= th * x2
    r = lemmaA1_check(f, f.k1, f.k2, (x1[off], x2[off], th[off]))
    assert r.passed and r.worst_margin >= 0.0


def test_a1_linear_sweep(samples):
    for c in (0.0, 0.3, 1.0):
        f = ScalarFunction(lambda x, c=c: c * x, name=f"lin{c}", k1=1.0, k2=1.0)
        assert lemmaA1_check(f, 1.0, 1.0, samples).passed


def test_a1_hypothesis_selfcheck():
    f = ScalarFunction(lambda x: np.where(x <= 0, -np.cbrt(np.abs(x)), 0.0),
                       name="cbrt", k1=1.0, k2=1.0)
    with pytest.raises(InvalidHypothesisError) as err:
        lemmaA1_check(f, 1.0, 1.0, lemma_samples(100, 0))
    assert err.value.witness is not None


def test_a2_envelope_hand_values():
    f = A2_FAMILIES["abs"]()
    con = construct_A2_envelope(f, 1.0, 1.0)
    assert con.k0 == pytest.approx(1.0)
    assert con.x0 == pytest.approx(0.0)
    assert float(np.asarray(con.g(0.0))) == pytest.approx(2.0)
    assert float(np.asarray(con.g(1.0))) == pytest.approx(1.0)
    assert float(np.asarray(con.g(-1.0))) == pytest.approx(1.0)
    # linear slopes +-1 inside the band
    assert float(np.asarray(con.g(0.5))) == pytest.approx(1.5)


def test_a2_even_function_centers_apex():
    f = A2_FAMILIES["square-sine-band"]()
    con = construct_A2_envelope(f, f.a, f.k)
    assert con.x0 == pytest.approx(0.0)


def test_a2_shift_properties():
    f = A2_FAMILIES["abs"]()
    con = construct_A2_envelope(f, 1.0, 1.0)
    assert float(np.asarray(con.gbar(0.0))) == 0.0
    # extension below zero runs with slope -k0
    assert float(np.asarray(con.gbar1(-1.0))) == pytest.approx(1.0)
    ok1, _, _ = second_difference_convexity(con.gbar1, -10, 10, 1001)
    ok2, _, _ = second_difference_convexity(con.gbar2, -10, 10, 1001)
    assert ok1 and ok2


def test_a2_envelope_exact_outside_band(samples):
    for name, mk in A2_FAMILIES.items():
        f = mk(0)
        con = construct_A2_envelope(f, f.a, f.k)
        xs = np.concatenate([np.linspace(-8, -f.a, 200), np.linspace(f.a, 8, 200)])
        assert np.max(np.abs(con.g(xs) - f(xs))) < 1e-12, name
        assert np.max(np.abs(con.h(xs))) == 0.0, name


def test_a2_knot_continuity_random_f():
    for seed in range(20):
        f = A2_FAMILIES["convex-ray-spline"](seed)
        con = construct_A2_envelope(f, f.a, f.k)
        for knot in (-f.a, con.x0, f.a):
            left = float(np.asarray(con.g(knot - 1e-9)))
            right = float(np.asarray(con.g(knot + 1e-9)))
            assert abs(left - right) < 1e-6


def test_a2_hand_margin_square():
    f = A2_FAMILIES["square"]()
    con = construct_A2_envelope(f, 0.0, 1.0)
    x1, x2, th = np.array([1.0]), np.array([1.0]), np.array([0.5])
    r = lemmaA2_check(f, 0.0, 1.0, (x1, x2, th), construction=con)
    # LHS = 1, RHS = phi(1) + 2 k0 = 1 + 2 k0 with k0 = k = 1
    assert r.passed and r.worst_margin == pytest.approx(2.0)


def test_a2_main_and_intermediates(samples):
    for name, mk in A2_FAMILIES.items():
        f = mk(1)
        con = construct_A2_envelope(f, f.a, f.k)
        assert lemmaA2_check(f, f.a, f.k, samples, construction=con).passed, name
        inter = lemmaA2_intermediate_checks(con, samples)
        assert all(r.passed for r in inter.values()), (
            name, {k: v.worst_margin for k, v in inter.items() if not v.passed})
        assert remainder_check(con, samples).passed, name


@pytest.mark.parametrize("name", ["abs", "distance"])
def test_a2_undeclared_slopes_take_the_extrapolated_quotient(name, samples):
    # every family declares dminus/dplus; without them k0 comes from the
    # Richardson-extrapolated one-sided difference quotients at the band's edges
    declared = A2_FAMILIES[name]()
    f = dataclasses.replace(declared, dminus=None, dplus=None)
    con = construct_A2_envelope(f, f.a, f.k)
    assert con.k0 == pytest.approx(construct_A2_envelope(declared, f.a, f.k).k0, abs=4e-10)
    assert lemmaA2_check(f, f.a, f.k, samples, construction=con).passed


def test_a2_apex_escape_detected():
    # lie about the Lipschitz constant: the band self-check sees it on a steep line
    f = ScalarFunction(lambda x: 5.0 * x, name="steep", phi=lambda u: 5.0 * np.asarray(u),
                       a=1.0, k=0.1, dminus=0.1, dplus=0.1)
    with pytest.raises(InvalidHypothesisError, match="Lipschitz constant k=0.1"):
        construct_A2_envelope(f, 1.0, 0.1)

    # slope 0.5 on the band but a ramp to 5 in its last 1e-7, which the sampled
    # pairs miss: only the tent apex (5 - (-0.5)) / 2 = 2.75 lands outside (-1, 1)
    def ramp(x):
        x = np.asarray(x, dtype=float)
        edge = 1.0 - 1e-7
        inside = np.where(x <= edge, 0.5 * x, 0.5 * edge + (x - edge) * (5.0 - 0.5 * edge) / 1e-7)
        return np.where(x > 1.0, 4.0 + x, np.where(x < -1.0, -0.5 - (x + 1.0), inside))

    f = ScalarFunction(ramp, name="ramp", phi=lambda u: 5.0 + np.asarray(u),
                       a=1.0, k=1.0, dminus=-1.0, dplus=1.0)
    with pytest.raises(InvalidHypothesisError, match=r"tent apex 2\.75 escaped"):
        construct_A2_envelope(f, 1.0, 1.0)


def test_a3_envelope_hand_values():
    f = A3_FAMILIES["abs"]()
    con = construct_A3_envelope(f, 1.0, 1.0)
    assert con.k0 == 0.0
    assert float(np.asarray(con.g(0.0))) == pytest.approx(1.0)
    assert float(np.asarray(con.g(0.5))) == pytest.approx(1.0)
    assert float(np.asarray(con.g(2.0))) == pytest.approx(2.0)


def test_a3_hand_margin():
    f = A3_FAMILIES["abs"]()
    x1, x2, th = np.array([2.0]), np.array([-2.0]), np.array([0.5])
    r = lemmaA3_check(f, 1.0, 1.0, (x1, x2, th))
    # LHS = 2; RHS = 4*6 + 4 + 11 + 2 = 41
    assert r.passed and r.worst_margin == pytest.approx(39.0)


def test_a3_constant_function():
    f = ScalarFunction(lambda x: 0.7 + 0.0 * np.asarray(x, dtype=float), name="const",
                       phi=lambda u: 0.7 + 0.0 * np.asarray(u, dtype=float), a=0.0, k=1.0)
    assert lemmaA3_check(f, 0.0, 1.0, lemma_samples(5000, 1)).passed


def test_a3_orientation_and_mirror(samples):
    prim = A3_FAMILIES["asymmetric-v"]()       # f(a) < f(-a)
    mirr = A3_FAMILIES["asymmetric-v-mirror"]()
    for f in (prim, mirr):
        con = construct_A3_envelope(f, f.a, f.k)
        assert con.k0 == pytest.approx(0.6)
        # monotone both sides of the origin
        xs = np.linspace(-6, 0, 300)
        assert np.all(np.diff(con.g(xs)) <= 1e-12)
        xs = np.linspace(0, 6, 300)
        assert np.all(np.diff(con.g(xs)) >= -1e-12)
        assert lemmaA3_check(f, f.a, f.k, samples, construction=con).passed
        assert remainder_check(con, samples).passed


def _rises_across_the_band(f):
    return float(f(f.a)) > float(f(-f.a))


# every w-band seed below 20 whose member has f(a) > f(-a), whichever stream draws them
_REFLECTED_SEEDS = [s for s in range(20) if _rises_across_the_band(A3_FAMILIES["w-band"](s))]


@pytest.mark.parametrize("name, seed",
                         [("asymmetric-v-mirror", 0)] + [("w-band", s) for s in _REFLECTED_SEEDS])
def test_a3_reflected_orientation_matches_mirrored_bridge(name, seed):
    # f(a) > f(-a): the construction is built on x -> -x and reflected back,
    # which must equal the stated bridge mirrored by hand, bit for bit
    f = A3_FAMILIES[name](seed)
    a = f.a
    fm, fp = float(f(-a)), float(f(a))
    assert fp > fm
    k0 = abs(fp - fm) / a
    xs = np.linspace(-12.0, 12.0, 24001)
    mirrored = np.where(xs >= a, f(xs),
                        np.where(xs >= 0.0, k0 * (xs - a) + fp,
                                 np.where(xs > -a, fm + 0.0 * xs, f(xs))))
    assert np.array_equal(construct_A3_envelope(f, a, f.k).g(xs), mirrored)


def test_a3_ray_check_uses_the_condition_rule_at_high_level():
    # decreasing right of a with slope 1e-6 at level ~1000: each grid step drops
    # by 2.5e-8, above 1e-9 * (1 + |0|) though below 1e-9 * (1 + |f|)
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1.0, 1000.0 + np.abs(x), 1001.0 - 1e-6 * (x - 1.0))

    f = ScalarFunction(fn, name="slow-decrease", phi=lambda u: 1000.0 + np.asarray(u), a=1.0, k=1.0)
    with pytest.raises(InvalidHypothesisError, match=r"slow-decrease is not nondecreasing right of 1\.0"):
        construct_A3_envelope(f, 1.0, 1.0)


def test_one_point_selfcheck_witness_is_a_sample_tuple():
    f = ScalarFunction(lambda x: 2.0 * np.abs(x), name="over", phi=lambda u: np.asarray(u),
                       a=1.0, k=2.0)
    with pytest.raises(InvalidHypothesisError, match="over exceeds its declared envelope") as err:
        construct_A3_envelope(f, 1.0, 2.0)
    assert err.value.witness in ((-12.0,), (12.0,))

def test_a3_k0_bounded_by_lipschitz():
    for seed in range(30):
        f = A3_FAMILIES["w-band"](seed)
        con = construct_A3_envelope(f, f.a, f.k)
        assert con.k0 <= 2.0 * f.k + 1e-12


def test_a3_main_and_intermediates(samples):
    for name, mk in A3_FAMILIES.items():
        f = mk(2)
        con = construct_A3_envelope(f, f.a, f.k)
        assert lemmaA3_check(f, f.a, f.k, samples, construction=con).passed, name
        inter = lemmaA3_intermediate_checks(con, samples)
        assert all(r.passed for r in inter.values()), (
            name, {k: v.worst_margin for k, v in inter.items() if not v.passed})
        assert remainder_check(con, samples).passed, name


def test_remainder_theta_branches():
    f = A2_FAMILIES["abs"]()
    con = construct_A2_envelope(f, 1.0, 1.0)
    rng = np.random.default_rng(3)
    x2 = rng.uniform(-2.0, 2.0, 500)
    x1 = rng.uniform(-2.0, 2.0, 500)
    for theta in (0.5, 0.9):
        th = np.full(500, theta)
        r = remainder_check(con, (x1, x2, th))
        assert r.passed and r.worst_margin >= 0.0


def test_falsifiers_are_caught(samples):
    # each falsifier of the registry breaks a hypothesis it declares, and its lemma's
    # self-check refuses it: A1's in lemmaA1_check, A2's and A3's in their construction
    refuse = {"A1": lambda f: lemmaA1_check(f, f.k1, f.k2, samples),
              "A2": lambda f: construct_A2_envelope(f, f.a, f.k),
              "A3": lambda f: construct_A3_envelope(f, f.a, f.k)}
    assert set(FALSIFIER_REGISTRY) == set(refuse)
    for lemma, falsifiers in FALSIFIER_REGISTRY.items():
        assert falsifiers, lemma
        for name, build in falsifiers.items():
            with pytest.raises(InvalidHypothesisError, match=name):
                refuse[lemma](build())


def test_randomized_falsifiers_high_detection_rate():
    # flip the rays of admissible A2 splines: the construction self-check must
    # find the convexity break nearly always
    caught = 0
    trials = 20
    for seed in range(trials):
        base = A2_FAMILIES["convex-ray-spline"](seed)
        flipped = ScalarFunction(lambda x, b=base: -b(x), name="flipped",
                                 phi=base.phi, a=base.a, k=base.k,
                                 dminus=-base.dminus, dplus=-base.dplus)
        try:
            construct_A2_envelope(flipped, flipped.a, flipped.k)
        except InvalidHypothesisError:
            caught += 1
    assert caught >= 0.95 * trials


def test_family_registry_is_complete():
    assert set(FAMILY_REGISTRY) == {"A1", "A2", "A3"}
    assert len(FAMILY_REGISTRY["A1"]) >= 6
    assert len(FAMILY_REGISTRY["A2"]) >= 6
    assert len(FAMILY_REGISTRY["A3"]) >= 6
