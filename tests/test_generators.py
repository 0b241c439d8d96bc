import math
from dataclasses import replace

import numpy as np
import pytest

import subquad_bsde as sq
from subquad_bsde.constants import conjugate_exponent
from subquad_bsde.generators import (GENERATOR_IDS, TruncationIndex, _norm, _sum_last, example1_q,
                                     expression_generator, make_generator, reflect_generator,
                                     theta_difference_generator, truncate_generator,
                                     truncate_terminal, truncated_at)


def test_kink_function_knots():
    assert example1_q(-2.0) == pytest.approx(2.0)
    assert example1_q(2.0) == pytest.approx(-4.0)
    assert example1_q(0.0) == pytest.approx(-1.0)
    # continuity at the knots from both branches
    for x0, strad in ((-2.0, 1e-9), (2.0, 1e-9)):
        assert example1_q(x0 - strad) == pytest.approx(example1_q(x0 + strad), abs=1e-8)


def test_example2_plug_in_values(example2):
    b = np.zeros((1, 1))
    # y = 0, z = 0, B = 0: gamma(t) * d * [ln e]^{a*/2} = gamma(t)
    val = example2(0.0, b, np.array([0.0]), np.zeros((1, 1)))
    assert val[0] == pytest.approx(0.25)
    # y = -4 adds beta * sqrt(4) = 0.5 * 2
    val = example2(0.0, b, np.array([-4.0]), np.zeros((1, 1)))
    assert val[0] == pytest.approx(0.25 + 1.0)


def test_example2_against_independent_formula():
    alpha, beta0, gamma0, d = 1.7, 0.8, 0.3, 3
    gen = sq.builtin_example_2(alpha, beta0, gamma0, d)
    astar = alpha / (alpha - 1.0)
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 1, 1000)
    b = rng.standard_normal((1000, d))
    y = rng.standard_normal(1000) * 3
    z = rng.standard_normal((1000, d)) * 2

    expected = (np.sqrt((b ** 2).sum(axis=1))
                + beta0 * np.where(y <= 0, np.sqrt(np.abs(y)), 0.0)
                + gamma0 * (np.log(math.e + np.abs(z)) ** (astar / 2.0)).sum(axis=1)
                + 2.0 * gamma0 * np.sqrt((z ** 2).sum(axis=1)) ** alpha)
    assert np.max(np.abs(gen(t, b, y, z) - expected)) < 1e-12


def test_example1_against_independent_formula(example1):
    rng = np.random.default_rng(8)
    t = rng.uniform(0, 1, 1000)
    b = rng.standard_normal((1000, 1))
    y = rng.standard_normal(1000) * 3
    z = rng.standard_normal((1000, 1)) * 2
    hy = np.where(y <= 0, np.cbrt(np.abs(y)), np.sin(y))
    expected = (np.abs(b[:, 0]) + 0.5 * hy
                + 0.25 * (example1_q(z[:, 0]) + np.abs(z[:, 0]) ** 1.5))
    assert np.max(np.abs(example1(t, b, y, z) - expected)) < 1e-12


def test_truncate_terminal_clamps():
    xi = sq.make_terminal("constant", value=5.0)
    b = np.zeros((1, 1))
    assert truncate_terminal(xi, TruncationIndex(3, 7))(b)[0] == pytest.approx(3.0)
    xi_neg = sq.make_terminal("constant", value=-5.0)
    assert truncate_terminal(xi_neg, TruncationIndex(3, 7))(b)[0] == pytest.approx(-5.0)
    assert truncate_terminal(xi_neg, TruncationIndex(3, 2))(b)[0] == pytest.approx(-2.0)


def test_truncate_terminal_monotone_in_indices():
    xi = sq.make_terminal("bt")
    rng = np.random.default_rng(0)
    b = rng.standard_normal((500, 1)) * 4
    for n1, n2 in ((1, 2), (2, 5)):
        lo = truncate_terminal(xi, TruncationIndex(n1, 3))(b)
        hi = truncate_terminal(xi, TruncationIndex(n2, 3))(b)
        assert np.all(lo <= hi + 1e-12)
    for q1, q2 in ((1, 2), (2, 5)):
        hi = truncate_terminal(xi, TruncationIndex(3, q1))(b)
        lo = truncate_terminal(xi, TruncationIndex(3, q2))(b)
        assert np.all(lo <= hi + 1e-12)


def test_truncate_generator_clamps():
    g_pos = expression_generator("10 + 0*y", alpha=1.5)
    gt = truncate_generator(g_pos, TruncationIndex(2, 1))
    b = np.zeros((1, 1))
    assert gt(0.0, b, np.zeros(1), np.zeros((1, 1)))[0] == pytest.approx(2.0)
    g_neg = expression_generator("0 - 10 + 0*y", alpha=1.5)
    gt = truncate_generator(g_neg, TruncationIndex(1, 4))
    assert gt(math.log(2.0), b, np.zeros(1), np.zeros((1, 1)))[0] == pytest.approx(-2.0)
    g_zero = sq.make_generator("zero", 1.5)
    gt = truncate_generator(g_zero, TruncationIndex(5, 5))
    assert gt(0.3, b, np.zeros(1), np.zeros((1, 1)))[0] == 0.0


def test_truncation_envelope_and_ladder_monotone(example1):
    rng = np.random.default_rng(1)
    t = rng.uniform(0, 1, 2000)
    b = rng.standard_normal((2000, 1)) * 2
    y = rng.standard_normal(2000) * 5
    z = rng.standard_normal((2000, 1)) * 5
    for n, q in ((1, 1), (2, 5), (7, 3)):
        vals = truncate_generator(example1, TruncationIndex(n, q))(t, b, y, z)
        assert np.all(np.abs(vals) <= max(n, q) * np.exp(-t) + 1e-12)
    for (n1, q1), (n2, q2) in (((1, 3), (2, 3)), ((2, 3), (4, 3))):
        lo = truncate_generator(example1, TruncationIndex(n1, q1))(t, b, y, z)
        hi = truncate_generator(example1, TruncationIndex(n2, q2))(t, b, y, z)
        assert np.all(lo <= hi + 1e-12)
    for (n1, q1), (n2, q2) in (((3, 2), (3, 1)), ((3, 4), (3, 2))):
        lo = truncate_generator(example1, TruncationIndex(n1, q1))(t, b, y, z)
        hi = truncate_generator(example1, TruncationIndex(n2, q2))(t, b, y, z)
        assert np.all(lo <= hi + 1e-12)


def _flat_fields(grid, count, y0=1.0, z0=0.0):
    Y = np.full((count, grid.steps + 1), y0)
    Z = np.full((count, grid.steps, 1), z0)
    return Y, Z


def test_theta_difference_linear_fixed_point(grid24):
    g = sq.make_generator("linear", 1.5, b_y=0.7, b_z=0.0)
    Yp, Zp = _flat_fields(grid24, 50, y0=0.3, z0=0.2)
    for theta in (0.1, 0.5, 0.9):
        dg = theta_difference_generator(g, g, theta, grid24, Yp, Zp)
        y = np.linspace(-2, 2, 50)
        z = np.zeros((50, 1))
        b = np.zeros((50, 1))
        out = dg(grid24.nodes[3], b, y, z)
        assert np.allclose(out, 0.7 * y, atol=1e-12)


def test_theta_difference_diagonal_identity(example1, grid24, bundle24, poly_basis):
    idx = TruncationIndex(8, 8)
    gt = truncate_generator(example1, idx)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    sol = sq.solve_bounded(gt, xi, grid24, bundle24, poly_basis)
    theta = 0.4
    dg = theta_difference_generator(gt, gt, theta, grid24, sol.Y, sol.Z)
    j = 5
    b = bundle24.levels[:, j, :]
    out = dg(grid24.nodes[j], b, sol.Y[:, j], sol.Z[:, j, :])
    direct = gt(grid24.nodes[j], b, sol.Y[:, j], sol.Z[:, j, :])
    assert np.max(np.abs(out - direct)) < 1e-9


def test_theta_difference_growth_bound(example2, grid24, bundle24, poly_basis):
    # the transformed driver obeys the shifted one-sided growth with fhat
    from subquad_bsde.bounds import fhat_process
    idx = TruncationIndex(16, 16)
    gt = truncate_generator(example2, idx)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    sol = sq.solve_bounded(gt, xi, grid24, bundle24, poly_basis)
    fhat = fhat_process(example2.profile, sol)
    _, beta_fn, gamma_fn = example2.profile.convexity_tier()
    rng = np.random.default_rng(3)
    worst = np.inf
    for theta in (0.2, 0.6, 0.95):
        dg = theta_difference_generator(example2, example2, theta, grid24, sol.Y, sol.Z)
        for j in (0, 8, 20):
            t = grid24.nodes[j]
            b = bundle24.levels[:, j, :]
            y = rng.standard_normal(bundle24.count) * 2
            z = rng.standard_normal((bundle24.count, 1)) * 2
            lhs = np.where(y > 0, dg(t, b, y, z), 0.0)
            rhs = (fhat[:, j] + beta_fn(t) * np.abs(y)
                   + gamma_fn(t) * np.abs(z[:, 0]) ** 1.5)
            worst = min(worst, float((rhs - lhs).min()))
    assert worst > -1e-9


def test_reflection_fixed_points_and_involution(example1):
    g_odd = sq.make_generator("linear", 1.5, b_y=1.0, b_z=0.0)
    b = np.zeros((10, 1))
    y = np.linspace(-3, 3, 10)
    z = np.zeros((10, 1))
    assert np.allclose(reflect_generator(g_odd)(0.1, b, y, z), g_odd(0.1, b, y, z))

    g_even = sq.make_generator("convex-power", 1.5, gamma=1.0)
    zed = np.linspace(-2, 2, 10)[:, None]
    assert np.allclose(reflect_generator(g_even)(0.1, b, y, zed),
                       -g_even(0.1, b, y, zed))

    rng = np.random.default_rng(4)
    t = rng.uniform(0, 1, 1000)
    bb = rng.standard_normal((1000, 1))
    yy = rng.standard_normal(1000) * 3
    zz = rng.standard_normal((1000, 1)) * 3
    twice = reflect_generator(reflect_generator(example1))
    assert np.max(np.abs(twice(t, bb, yy, zz) - example1(t, bb, yy, zz))) < 1e-12


def test_reflection_swaps_flags(example2):
    refl = reflect_generator(example2)
    assert "satisfies-UN-ii" in refl.flags and "satisfies-UN-i" not in refl.flags
    assert "satisfies-UN-i" in reflect_generator(refl).flags


def test_theta_rejects_bad_theta(example1, grid24):
    Yp, Zp = _flat_fields(grid24, 10)
    for theta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            theta_difference_generator(example1, example1, theta, grid24, Yp, Zp)


def test_generator_catalog_round_trip():
    for gen_id in ("example1", "example2", "linear", "convex-power", "zero"):
        gen = make_generator(gen_id, 1.5)
        val = gen(0.5, np.zeros((3, 1)), np.zeros(3), np.zeros((3, 1)))
        assert val.shape == (3,) and np.all(np.isfinite(val))
    with pytest.raises(KeyError):
        make_generator("example9", 1.5)


def test_expression_generator_vectorizes():
    gen = make_generator("custom-expression", 1.5, expression="abs(y) + 0.5*z1 + babs")
    b = np.array([[1.0], [2.0]])
    out = gen(0.0, b, np.array([-1.0, 3.0]), np.array([[2.0], [4.0]]))
    assert np.allclose(out, [1.0 + 1.0 + 1.0, 3.0 + 2.0 + 2.0])


def test_theta_difference_rejects_off_grid_times(grid24):
    g = sq.make_generator("zero", 1.5)
    Yp, Zp = _flat_fields(grid24, 10)
    dg = theta_difference_generator(g, g, 0.5, grid24, Yp, Zp)
    with pytest.raises(ValueError):
        dg(0.012345, np.zeros((10, 1)), np.zeros(10), np.zeros((10, 1)))


def _frozen_cases(grid, d):
    """(name, generator) for every driver the solver can freeze: the catalog,
    truncations at several rungs, a reflection and a theta-difference driver."""
    gens = {gid: make_generator(gid, 1.5, d=d, b_z=0.4,
                                expression="abs(y)^0.5*ind(0-y) + exp(min(y, 1)) + 0.3*z1 + babs")
            for gid in GENERATOR_IDS}
    for base in ("example1", "example2", "custom-expression"):
        for n, q in ((1, 1), (1, 16), (4, 2), (16, 16)):
            gens[f"{base}^({n},{q})"] = truncate_generator(gens[base], TruncationIndex(n, q))
    gens["reflect(example1)"] = reflect_generator(gens["example1"])
    rng = np.random.default_rng(3)
    Yp = rng.standard_normal((60, grid.steps + 1))
    Zp = rng.standard_normal((60, grid.steps, d))
    gens["theta-primary"] = theta_difference_generator(
        gens["example1"], gens["example2^(4,2)"], 0.3, grid, Yp, Zp)
    return gens.items()


@pytest.mark.parametrize("d", [1, 2])
def test_step_frozen_driver_is_bit_identical(grid24, d):
    rng = np.random.default_rng(11 + d)
    t = float(grid24.nodes[5])
    b = rng.standard_normal((60, d)) * 2
    z = rng.standard_normal((60, d)) * 3
    # both sides of example 1's kink at 0, signed zeros and the cube root's steep part
    kink = np.array([-0.0, 0.0, -1e-300, 1e-300, -1e-7, 1e-7, -0.3, 0.3, -2.5, 2.5, -40.0, 40.0])
    y = np.concatenate([kink, rng.standard_normal(48) * 3])
    c = np.concatenate([kink, rng.standard_normal(6)])            # per-bin values
    idx = np.concatenate([np.arange(len(c)), rng.integers(0, len(c), 60 - len(c))])
    zc = z[:len(c)]
    frozen = set()
    for name, gen in _frozen_cases(grid24, d):
        at = gen.at(t, b, z)
        assert np.array_equal(at(y), gen(t, b, y, z)), name
        per_bin = gen.at(t, b, zc, idx)
        assert np.array_equal(per_bin(c), gen(t, b, c[idx], zc[idx])), name
        # array_equal calls 0.0 and -0.0 equal; the signs must agree too
        assert np.array_equal(np.signbit(per_bin(c)), np.signbit(gen(t, b, c[idx], zc[idx]))), name
        if hasattr(gen.fn, "freeze"):
            frozen.add(name)
    assert {"example1", "example2", "example1^(1,16)", "custom-expression^(4,2)"} <= frozen


def test_replacing_fn_drops_the_step_frozen_form(example1):
    b, z = np.ones((4, 1)), np.ones((2, 1))
    c, idx = np.array([-1.0, 2.0]), np.array([0, 1, 1, 0])
    plain = replace(example1, fn=lambda t, b, y, z: np.full(len(y), 7.0))
    assert np.array_equal(plain.at(0.5, b, z, idx)(c), np.full(4, 7.0))
    rows = []

    def wrapped(t, b, y, z):
        rows.append(len(y))
        return example1.fn(t, b, y, z)

    # a wrapper of the old fn evaluates through itself on the gathered values
    out = replace(example1, fn=wrapped).at(0.5, b, z, idx)(c)
    assert rows == [4]
    assert np.array_equal(out, example1.at(0.5, b, z, idx)(c))


def _same_bits(a, b):
    # array_equal calls 0.0 and -0.0 equal; the signs must agree too
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# reference copies of the kernels as first written: one fresh array per operation
def _ref_q(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= -2.0, -x, np.where(x >= 2.0, -2.0 * x, -1.5 * x - 1.0))


def _ref_norm(x):
    return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))


def _ref_driver(gen_id, b, y, z):
    # the builtin drivers at alpha 1.5, beta 0.5, gamma 0.25, in their order of operations
    if gen_id == "example1":
        value = 0.5 * np.where(y <= 0.0, np.cbrt(np.abs(y)), np.sin(y))
        z_term = 0.25 * (_ref_q(z).sum(axis=-1) + _ref_norm(z) ** 1.5)
    else:
        value = 0.5 * np.where(y <= 0.0, np.sqrt(np.abs(y)), 0.0)
        lterm = np.log(math.e + np.abs(z)) ** (conjugate_exponent(1.5) / 2.0)
        z_term = 0.25 * (lterm.sum(axis=-1) + 2.0 * _ref_norm(z) ** 1.5)
    return value + _ref_norm(b) + z_term


def _bits(x):
    # every bit, so signed zeros and NaN payloads must agree too
    return np.asarray(x, dtype=float).view(np.uint64)


_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-170, -1e-170,
                     2.0, -2.0, np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0), 0.3])


def _special_block(rng, d):
    # one special value per row in the first coordinate, the others random;
    # then a row whose squares all underflow and a row of -0.0
    z = rng.standard_normal((len(_SPECIAL) + 22, d)) * 3
    z[:len(_SPECIAL), 0] = _SPECIAL
    z[-2], z[-1] = 1e-170, -0.0
    return z


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernels_match_their_reference_formulas_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    z = _special_block(rng, d)
    b, y = z[::-1].copy(), rng.standard_normal(len(z)) * 3
    with np.errstate(invalid="ignore"):        # inf - inf and 0 * inf are part of the sample
        assert np.array_equal(_bits(_norm(z)), _bits(_ref_norm(z)))
        assert np.array_equal(_bits(example1_q(z)), _bits(_ref_q(z)))
        for gid in ("example1", "example2"):
            gen = make_generator(gid, 1.5, beta=0.5, gamma=0.25, d=d)
            assert np.array_equal(_bits(gen(0.3, b, y, z)), _bits(_ref_driver(gid, b, y, z))), gid
            # |B| and the y-part vanish at b = 0, y = 0: the z-part alone
            zero = np.zeros(len(z))
            assert np.array_equal(_bits(gen(0.3, 0.0 * b, zero, z)),
                                  _bits(_ref_driver(gid, 0.0 * b, zero, z))), gid
        squares = z * z
        assert np.array_equal(_bits(_sum_last(squares)), _bits(np.sum(squares, axis=-1)))


def test_kernels_match_their_reference_formulas_on_per_bin_blocks():
    # (R, K, 1) per-bin z of stacked rungs, read through the step-frozen driver
    rng = np.random.default_rng(47)
    R, K, M = 3, len(_SPECIAL) + 2, 60
    zc = np.stack([_special_block(rng, 1)[:K] for _ in range(R)])
    zc[1] *= -1.0
    c = rng.standard_normal((R, K)) * 3
    idx = np.concatenate([np.arange(K), rng.integers(0, K, M - K)])
    b = rng.standard_normal((M, 1)) * 2
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(_norm(zc)), _bits(_ref_norm(zc)))
        assert np.array_equal(_bits(_sum_last(zc * zc)), _bits(np.sum(zc * zc, axis=-1)))
        for gid in ("example1", "example2"):
            gen = make_generator(gid, 1.5, beta=0.5, gamma=0.25, d=1)
            out = gen.at(0.3, b, zc, idx)(c)
            for r in range(R):
                ref = _ref_driver(gid, b, c[r][idx], zc[r][idx])
                assert np.array_equal(_bits(out[r]), _bits(ref)), (gid, r)


def test_kink_function_takes_scalars_and_knots_bit_for_bit():
    for x in (-2.0, 2.0, np.nextafter(2.0, 3.0), -0.0, 0.0, np.nan, np.inf, -np.inf):
        with np.errstate(invalid="ignore"):
            got, ref = example1_q(x), _ref_q(x)
        assert np.shape(got) == () and np.array_equal(_bits(got), _bits(ref)), x


def test_one_column_sum_is_a_view_that_keeps_a_negative_zero():
    x = np.array([[1.5], [-0.0], [np.nan], [-np.inf]])
    col = _sum_last(x)
    assert np.shares_memory(col, x) and np.array_equal(_bits(col), _bits(x[:, 0]))
    # np.sum starts from +0.0, so only a -0.0 entry reads differently
    summed = np.sum(x, axis=-1)
    assert np.array_equal(np.signbit(col), [False, True, False, True])
    assert np.array_equal(np.signbit(summed), [False, False, False, True])
    wide = np.array([[1.0, -0.0], [-0.0, -0.0]])
    assert np.array_equal(_bits(_sum_last(wide)), _bits(np.sum(wide, axis=-1)))


@pytest.mark.parametrize("d", [1, 2])
def test_at_with_a_rung_axis_matches_per_path_evaluation(grid24, d):
    # R rungs of per-bin y and z, gathered by one bin index, on the step-frozen
    # and on the default path, truncated per rung or not: each row is the
    # per-path evaluation of its own driver
    rng = np.random.default_rng(21 + d)
    t = float(grid24.nodes[7])
    R, K, M = 3, 9, 50
    b = rng.standard_normal((M, d)) * 2
    c = rng.standard_normal((R, K)) * 3
    c[:, :4] = [-0.0, 0.0, -1e-7, 1e-7]
    zc = rng.standard_normal((R, K, d)) * 3
    idx = np.concatenate([np.arange(K), rng.integers(0, K, M - K)])
    rungs = [TruncationIndex(1, 16), TruncationIndex(4, 2), TruncationIndex(16, 16)]
    n, q = (np.array([[getattr(k, a)] for k in rungs], dtype=float) for a in "nq")
    for gid in GENERATOR_IDS:
        gen = make_generator(gid, 1.5, d=d, b_z=0.4,
                             expression="abs(y)^0.5*ind(0-y) + exp(min(y, 1)) + 0.3*z1 + babs")
        plain = replace(gen, fn=lambda t, b, y, z, fn=gen.fn: fn(t, b, y, z))
        for g in (gen, plain):
            per_bin = g.at(t, b, zc, idx)(c)
            per_path = g.at(t, b, zc[:, idx])(c[:, idx])
            clamped = truncated_at(g, n, q)(t, b, zc, idx)(c)
            assert per_bin.shape == per_path.shape == clamped.shape == (R, M)
            for r in range(R):
                y_r, z_r = c[r][idx], zc[r][idx]
                ref = gen(t, b, y_r, z_r)
                assert _same_bits(per_bin[r], ref), (gid, g is plain, r)
                assert _same_bits(per_path[r], ref), (gid, g is plain, r)
                ref = truncate_generator(gen, rungs[r])(t, b, y_r, z_r)
                assert _same_bits(clamped[r], ref), (gid, g is plain, r)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(xi_val=st.floats(-20.0, 20.0),
       n1=st.integers(1, 10), n2=st.integers(1, 10),
       q=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_terminal_truncation_monotone_property(xi_val, n1, n2, q):
    xi = sq.make_terminal("constant", value=xi_val)
    b = np.zeros((1, 1))
    lo, hi = sorted((n1, n2))
    v_lo = truncate_terminal(xi, TruncationIndex(lo, q))(b)[0]
    v_hi = truncate_terminal(xi, TruncationIndex(hi, q))(b)[0]
    assert v_lo <= v_hi + 1e-12
    assert abs(v_lo) <= min(abs(xi_val), max(lo, q)) + 1e-12


def _clamp_min_max(raw, upper, lower):
    # the clamp as the difference of the capped positive and negative parts
    return np.minimum(np.maximum(raw, 0.0), upper) - np.minimum(np.maximum(-raw, 0.0), lower)


def test_clamp_is_bit_equal_to_the_min_max_difference():
    from subquad_bsde.generators import _clamp
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan,
                        1e308, -1e308, 2.5, -2.5, 3.0 * math.exp(-0.25), -4.0 * math.exp(-0.25)])
    raw = np.concatenate([special, np.random.default_rng(3).normal(0.0, 4.0, 100_000)])
    per_path = np.random.default_rng(4).uniform(0.5, 8.0, (2, raw.size))
    for upper, lower in ((3.0 * math.exp(-0.25), 4.0 * math.exp(-0.25)), (2.5, 2.5),
                         (per_path[0], per_path[1])):
        ours = _clamp(raw, upper, lower)
        assert np.array_equal(ours.view(np.int64), _clamp_min_max(raw, upper, lower).view(np.int64))
    assert np.array_equal(np.asarray(_clamp(raw[1], 2.0, 2.0)).view(np.int64),
                          np.asarray(_clamp_min_max(raw[1], 2.0, 2.0)).view(np.int64))
