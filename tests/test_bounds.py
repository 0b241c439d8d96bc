import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import subquad_bsde as sq
from subquad_bsde.bounds import (BoundCheckResult, _classify, _mean_rel_se, _node_states, fhat_process,
                                 log_mean_exp, order_verdict, order_violations, verify_comparison,
                                 verify_fhat_moment, verify_pointwise_bound, verify_sup_bound)
from subquad_bsde.generators import TruncationIndex, truncate_generator, truncate_terminal

ZERO = lambda t: 0.0 * np.asarray(t, dtype=float)


@pytest.fixture(scope="module")
def zero_solution(grid24, bundle24, poly_basis):
    return sq.solve_bounded(sq.make_generator("zero", 1.5),
                            sq.make_terminal("zero"), grid24, bundle24, poly_basis)


@pytest.fixture(scope="module")
def zero_constants():
    return sq.derive_constants(1.5, 1.0, ZERO, ZERO)


def test_log_mean_exp_matches_direct():
    logs = np.log(np.array([1.0, 2.0, 3.0]))
    val, se = log_mean_exp(logs)
    assert val == pytest.approx(math.log(2.0))
    assert se > 0.0


def test_log_mean_exp_constant_and_zero():
    # constant samples: the mean is exact and its standard error 0
    for c in (0.0, 2.0):
        assert log_mean_exp(np.full(500, c)) == (pytest.approx(c), 0.0)
    # one sample has no standard error
    assert log_mean_exp(np.array([1.5])) == (1.5, math.inf)


def test_log_mean_exp_gaussian_against_quadrature():
    # E[exp(1.5 |N|^{2/3})] within three standard errors
    rng = np.random.default_rng(12)
    x = np.abs(rng.standard_normal(200_000))
    log_val, se_rel = log_mean_exp(1.5 * x ** (2.0 / 3.0))
    target, _ = quad(lambda u: np.exp(1.5 * u ** (2.0 / 3.0))
                     * np.sqrt(2.0 / np.pi) * np.exp(-u * u / 2.0), 0.0, 12.0)
    value = math.exp(log_val)
    assert abs(value - target) < 3.0 * se_rel * value


def test_log_mean_exp_no_overflow():
    with np.errstate(over="raise"):
        val, _ = log_mean_exp(np.array([1e5, 1e5 + 1.0]))
    assert val == pytest.approx(1e5 + np.logaddexp(0, 1.0) - math.log(2.0))


def _log_mean_exp_as_written(logs):
    # log_mean_exp before it shared _mean_rel_se, kept to compare bits
    logs = np.asarray(logs, dtype=float)
    top = float(logs.max())
    w = np.exp(logs - top)
    mean_w = float(w.mean())
    n = len(logs)
    se_rel = float(w.std(ddof=1) / (mean_w * math.sqrt(n))) if n > 1 else math.inf
    return top + math.log(mean_w), se_rel


def _sup_moment_term_as_written(qp):
    # verify_sup_bound's E[(int |Z|^2)^{p/2}] term before it shared _mean_rel_se
    mean_qp = float(qp.mean())
    se_b_rel = (float(qp.std(ddof=1) / (max(mean_qp, 1e-300) * math.sqrt(len(qp))))
                if len(qp) > 1 else math.inf)
    return mean_qp, se_b_rel


@pytest.mark.parametrize("x", [np.array([1.5]), np.zeros(7), np.array([1.0, np.nan, 2.0]),
                               10.0 ** np.linspace(-150.0, 150.0, 31)],
                         ids=["one-sample", "zeros", "nan", "wide-range"])
def test_mean_rel_se_keeps_both_formulas_it_replaced_bit_for_bit(x):
    def bits(pair):
        return np.array(pair, dtype=float).view(np.uint64)

    assert np.array_equal(bits(_mean_rel_se(x)), bits(_sup_moment_term_as_written(x)))
    assert np.array_equal(bits(log_mean_exp(x)), bits(_log_mean_exp_as_written(x)))


def test_fhat_degenerate_coefficients(zero_solution):
    prof = sq.make_generator("zero", 1.5).profile
    fh = fhat_process(prof, zero_solution)
    assert np.allclose(fh, 0.0)


def test_fhat_plug_in(grid24, bundle24, poly_basis):
    # Y' = 0, Z' = 0, gamma = 1: fhat = f + 1 since ln(e) = 1
    from subquad_bsde.generators import CoefficientProfile, Generator
    prof = CoefficientProfile(alpha=1.5, beta=ZERO, gamma=lambda t: 1.0 + 0.0 * np.asarray(t),
                              f=lambda t, b: np.full(np.atleast_2d(b).shape[0], 0.3))
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"),
                           grid24, bundle24, poly_basis)
    fh = fhat_process(prof, sol)
    assert np.allclose(fh, 1.3)


def test_fhat_dominates_f(grid24, bundle24, poly_basis, example2):
    idx = TruncationIndex(8, 8)
    sol = sq.solve_bounded(truncate_generator(example2, idx),
                           truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx),
                           grid24, bundle24, poly_basis)
    prof = example2.profile
    fh = fhat_process(prof, sol)
    levels = bundle24.levels
    f_conv = prof.convexity_tier()[0]
    for j in (0, 10, 20):
        assert np.all(fh[:, j] >= f_conv(float(grid24.nodes[j]), levels[:, j, :]) - 1e-12)


def test_fhat_moment_trivial_cases(grid24):
    jensen = dict(gamma=lambda t: 1.0 + 0.0 * np.asarray(t), z_prime=np.zeros((500, grid24.steps, 1)))
    m0 = verify_fhat_moment(np.zeros((500, grid24.steps)), grid24, 2.0, 3.0, **jensen)
    assert m0.moment.log_value == pytest.approx(0.0)
    m1 = verify_fhat_moment(np.ones((500, grid24.steps)), grid24, 2.0, 3.0, **jensen)
    assert m1.moment.log_value == pytest.approx(2.0, abs=1e-9)


def test_fhat_moment_holds_one_path_field(grid24):
    # the log term is built in the buffer of |Z'|: the check holds one (M, N)
    # float array at a time, besides a few per-path columns
    count, steps = 20_000, grid24.steps
    rng = np.random.default_rng(4)
    fhat = rng.uniform(0.0, 1.0, (count, steps))
    z_prime = sq.paths.as_step_major(rng.standard_normal((count, steps, 1)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        verify_fhat_moment(fhat, grid24, 2.0, 1.5, gamma=lambda t: 1.0 + 0.0 * np.asarray(t),
                           z_prime=z_prime)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (steps + 8) * count * 8


def test_fhat_moment_jensen_closed_form(grid24):
    # Z' = 0, gamma = 1, T = 1: ln-term moment = e^p, majorant = k_alpha^{delta_p}
    p, astar = 2.0, 3.0
    z_prime = np.zeros((400, grid24.steps, 1))
    chk = verify_fhat_moment(np.zeros((400, grid24.steps)), grid24, p, astar,
                             gamma=lambda t: 1.0 + 0.0 * np.asarray(t), z_prime=z_prime)
    assert chk.ln_moment.log_value == pytest.approx(p, abs=1e-9)
    assert chk.jensen_majorant.log_value == pytest.approx(p * astar / 2.0, abs=1e-9)
    assert chk.jensen_consistent


def test_fhat_moment_majorant_uses_the_grid_weights_of_its_ln_integral():
    # the majorant bounds the ln-term path by path only when delta_p is built from the
    # same weights gamma(t_j) dt_j as the ln-integral: here the grid total is 0.08424
    # and the quadrature total 0.07918, whose delta_p would put the majorant at 2.549,
    # below the ln-moment 2.656
    grid = sq.build_grid(1.0, 24, "uniform")
    z_prime = np.full((50, grid.steps, 1), 1e3)
    chk = verify_fhat_moment(np.zeros((50, grid.steps)), grid, 2.0, 3.0,
                             gamma=lambda t: 0.25 * np.exp(-3.0 * np.asarray(t)), z_prime=z_prime)
    assert chk.ln_moment.log_value == pytest.approx(2.65586, abs=1e-5)
    assert chk.jensen_majorant.log_value == pytest.approx(2.65653, abs=1e-5)
    assert chk.ln_moment.log_value <= chk.jensen_majorant.log_value
    assert chk.jensen_consistent


def test_pointwise_bound_zero_problem(zero_solution, zero_constants):
    r = verify_pointwise_bound(zero_solution, zero_constants,
                               np.zeros(zero_solution.bundle.count),
                               lambda t, b: np.zeros(np.atleast_2d(b).shape[0]))
    assert r.satisfied
    # LHS = 1 + 0, RHS = K * exp(0) with log K = 12
    assert np.allclose(r.margin_min, 12.0, atol=1e-6)


def test_pointwise_bound_constant_terminal(grid24, bundle24, poly_basis, zero_constants):
    c = 1.5
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("constant", value=c),
                           grid24, bundle24, poly_basis)
    r = verify_pointwise_bound(sol, zero_constants, np.full(bundle24.count, c),
                               lambda t, b: np.zeros(np.atleast_2d(b).shape[0]))
    assert r.satisfied
    # closed forms: log LHS = c^{2/3}; the exponent K c^{2/3} = e^12 c^{2/3}
    # exceeds the conservative cap, so log RHS = log K + 700
    expected = 12.0 + 700.0 - c ** (2.0 / 3.0)
    assert r.margin_min.min() == pytest.approx(expected, abs=1e-6)


def test_sup_bound_zero_problem(zero_solution, zero_constants, poly_basis):
    f = lambda t, b: np.zeros(np.atleast_2d(b).shape[0])
    r = verify_sup_bound(zero_solution, zero_constants,
                         np.zeros(zero_solution.bundle.count), f, p=2.0)
    assert r.satisfied
    assert np.allclose(r.margin_min, zero_constants.K_p(2.0).log, atol=1e-6)
    # on one step the node nearest T/2 is node 0 (a tie): it is checked once
    grid = sq.build_grid(1.0, 1, "uniform")
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"), grid,
                           sq.sample_paths(grid, 1, 200, 0), poly_basis)
    r = verify_sup_bound(sol, zero_constants, np.zeros(200), f, p=2.0)
    assert r.times.tolist() == [0.0] and r.satisfied


def test_sup_bound_on_one_path_is_indeterminate(grid24, poly_basis, zero_constants):
    # one path gives a mean without a standard error, and a regression that
    # interpolates its one sample leaves no residual, so nothing is certified
    bundle = sq.sample_paths(grid24, 1, 1, 0)
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"),
                           grid24, bundle, poly_basis)
    xi, f = np.zeros(1), lambda t, b: np.zeros(np.atleast_2d(b).shape[0])
    for r in (verify_sup_bound(sol, zero_constants, xi, f, p=2.0),
              verify_pointwise_bound(sol, zero_constants, xi, f),
              verify_pointwise_bound(sol, zero_constants, xi, f, variant="one-sided")):
        assert np.all(r.se == math.inf), r.bound_id
        assert r.verdict == "indeterminate", r.bound_id


def test_sup_bound_ode_case(grid24, bundle24, poly_basis, zero_constants):
    sol = sq.solve_bounded(sq.make_generator("linear", 1.5, b_y=-1.0),
                           sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    prof = sq.make_generator("linear", 1.5, b_y=-1.0).profile
    cs = sq.derive_constants(1.5, 1.0, prof.beta, prof.gamma)
    r = verify_sup_bound(sol, cs, np.ones(bundle24.count),
                         lambda t, b: np.zeros(np.atleast_2d(b).shape[0]), p=2.0)
    assert r.satisfied


def test_bound_monotone_in_K(zero_solution, zero_constants):
    xi = np.zeros(zero_solution.bundle.count)
    f = lambda t, b: np.zeros(np.atleast_2d(b).shape[0])
    small = verify_pointwise_bound(zero_solution, zero_constants, xi, f)
    bigger = sq.derive_constants(1.5, 1.0, lambda t: 0.5 + 0.0 * np.asarray(t),
                                 lambda t: 0.5 + 0.0 * np.asarray(t))
    big = verify_pointwise_bound(zero_solution, bigger, xi, f)
    assert small.satisfied and big.satisfied
    assert big.margin_min.min() > small.margin_min.min()


def test_log_space_discipline_extreme_constants(grid24, bundle24, poly_basis):
    # overflow-scale K must flow through as logs without materializing exp
    cs = sq.derive_constants(1.3, 1.0, lambda t: 1.0 + 0.0 * np.asarray(t),
                             lambda t: 2.0 + 0.0 * np.asarray(t))
    assert cs.log_K.overflowed
    sol = sq.solve_bounded(sq.make_generator("zero", 1.3),
                           sq.make_terminal("clamp-bt", bound=2.0),
                           grid24, bundle24, poly_basis)
    xi = np.clip(bundle24.terminal()[:, 0], -2, 2)
    with np.errstate(over="raise"):
        r = verify_pointwise_bound(sol, cs, xi,
                                   lambda t, b: np.zeros(np.atleast_2d(b).shape[0]))
    assert r.satisfied


def test_comparison_trivial_pair(grid24, bundle24, poly_basis):
    zero = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"),
                            grid24, bundle24, poly_basis)
    one = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    r = verify_comparison(zero, one, xi_values=np.zeros(bundle24.count),
                          xi_prime_values=np.ones(bundle24.count))
    assert r.satisfied and r.violation_fraction == 0.0


def test_comparison_driver_ordering(grid24, bundle24, poly_basis):
    g_lo = sq.make_generator("custom-expression", 1.5, expression="0 - abs(y)")
    g_hi = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("clamp-bt", bound=2.0)
    lo = sq.solve_bounded(g_lo, xi, grid24, bundle24, poly_basis)
    hi = sq.solve_bounded(g_hi, xi, grid24, bundle24, poly_basis)
    r = verify_comparison(lo, hi)
    assert r.satisfied
    assert r.violation_fraction <= 0.005


def test_comparison_antisymmetric(grid24, bundle24, poly_basis):
    zero = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"),
                            grid24, bundle24, poly_basis)
    one = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    forward = verify_comparison(zero, one)
    backward = verify_comparison(one, zero)
    assert forward.satisfied and backward.verdict == "violated"


_CUBIC = sq.RegressionBasis("polynomial", 3)
_BINS30 = sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)


@pytest.mark.parametrize("basis, paths, more", [(_CUBIC, 1, 5), (_CUBIC, 4, 5),
                                                (_BINS30, 1, 20), (_BINS30, 4, 20)],
                         ids=["1", "4", "bins30-1", "bins30-4"])
def test_comparison_on_no_more_paths_than_features_is_indeterminate(grid24, basis, paths, more):
    # a regression on no more paths than the rank of its fitted span (4 for the
    # cubic basis after node 0, the nonempty bins for bins30) interpolates its
    # samples: its fit noise is inf, so the allowance certifies nothing
    bundle = sq.sample_paths(grid24, 1, paths, 0)
    zero = sq.make_generator("zero", 1.5)
    lo = sq.solve_bounded(zero, sq.make_terminal("constant", value=0.0), grid24, bundle, basis)
    hi = sq.solve_bounded(zero, sq.make_terminal("constant", value=1.0), grid24, bundle, basis)
    r = verify_comparison(lo, hi, xi_values=np.zeros(paths), xi_prime_values=np.ones(paths))
    assert r.violation_fraction == 0.0
    assert not np.all(np.isfinite(r.log_rhs))
    assert r.verdict == "indeterminate"
    # enough paths leave a residual at every step, node 0's rank-1 fit included
    bundle = sq.sample_paths(grid24, 1, more, 0)
    lo, hi = (sq.solve_bounded(zero, sq.make_terminal("constant", value=v), grid24, bundle,
                               basis) for v in (0.0, 1.0))
    r = verify_comparison(lo, hi)
    assert np.all(np.isfinite(r.log_rhs)) and r.verdict == "satisfied"


def test_order_rule_counts_a_stacked_block_as_its_rows_alone():
    rng = np.random.default_rng(3)
    gap = rng.normal(size=(4, 500))
    # row 3's allowance is inf, as where a fit interpolates its samples: nothing exceeds it
    noise_low, noise_high = np.array([0.0, 0.1, 0.2, math.inf]), np.array([0.05, 0.0, 0.1, 0.2])
    slack = 1e-3 * (1.0 + np.abs(rng.normal(size=(4, 500))))
    block = order_violations(gap, noise_low[:, None], noise_high[:, None], slack)
    rows = [order_violations(gap[p], noise_low[p], noise_high[p], slack[p]) for p in range(4)]
    assert block == sum(rows)
    expected = [int(np.sum(gap[p] > slack[p] + 3.0 * (noise_low[p] + noise_high[p])))
                for p in range(4)]
    assert rows == expected and rows[3] == 0 and 0 < min(rows[:3]) < max(rows[:3]) < 500
    finite = bool(np.isfinite(noise_low + noise_high).all())
    assert order_verdict(sum(rows), gap.size, finite) == "indeterminate"
    assert order_verdict(sum(rows[:3]), 3 * 500) == "violated"


def _pair_on_two_bundles(example1, seeds):
    """Example 1 at rung (4, 4), xi and xi + 1, each solved on 500 paths of 6 steps
    and 10 bins, the bundles sampled from ``seeds``; with the driver and terminals."""
    grid = sq.build_grid(1.0, 6, "uniform")
    basis = sq.RegressionBasis("piecewise-constant-bins", 10)
    idx = TruncationIndex(4, 4)
    gt = truncate_generator(example1, idx)
    terminals = [truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0, shift=s), idx)
                 for s in (0.0, 1.0)]
    return gt, terminals, [sq.solve_bounded(gt, xi, grid, sq.sample_paths(grid, 1, 500, seed),
                                            basis) for xi, seed in zip(terminals, seeds)]


def test_comparison_refuses_fields_solved_on_different_bundles(example1):
    # same shapes, different paths: row i of one field is not path i of the other
    _, _, (lo, hi) = _pair_on_two_bundles(example1, (1, 2))
    assert lo.Y.shape == hi.Y.shape
    for pair in ((lo, hi), (hi, lo)):
        with pytest.raises(ValueError, match="path bundle"):
            verify_comparison(*pair)


def test_comparison_accepts_a_bundle_with_equal_levels(example1):
    # a bundle re-sampled from the same seed is another object with the same paths
    gt, (_, xi_hi), (lo, hi) = _pair_on_two_bundles(example1, (1, 1))
    assert lo.bundle is not hi.bundle
    shared = sq.solve_bounded(gt, xi_hi, lo.grid, lo.bundle, lo.basis)
    apart, same = verify_comparison(lo, hi), verify_comparison(lo, shared)
    assert apart.verdict == same.verdict == "satisfied"
    assert np.array_equal(apart.log_lhs, same.log_lhs) and np.array_equal(apart.se, same.se)


def test_comparison_names_a_missing_fit_noise(zero_solution):
    bare = dataclasses.replace(zero_solution, fit_noise=None)
    for pair in ((bare, zero_solution), (zero_solution, bare)):
        with pytest.raises(ValueError, match="fit_noise"):
            verify_comparison(*pair)


def test_comparison_precondition_witnesses(grid24, bundle24, poly_basis):
    zero = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("zero"),
                            grid24, bundle24, poly_basis)
    xi = np.zeros(bundle24.count)
    xi_bad = -np.ones(bundle24.count)
    r = verify_comparison(zero, zero, xi_values=xi, xi_prime_values=xi_bad)
    # a broken terminal order is a measured violated result, not an exception
    assert r.verdict == "violated" and r.terminal_failures == bundle24.count
    assert 0 < len(r.witnesses) <= 10
    assert r.witnesses[0] == (0, 0.0, -1.0)
    # every per-node value is measured: a field compared with itself has gap 0 everywhere
    assert np.array_equal(r.log_lhs, np.zeros(grid24.steps + 1))
    assert np.all(r.log_rhs > 0.0) and r.violation_fraction == 0.0
    assert verify_comparison(zero, zero).verdict == "satisfied"


def test_pointwise_one_sided_variant(grid24, bundle24, poly_basis, example1):
    idx = TruncationIndex(32, 32)
    gt = truncate_generator(example1, idx)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx)
    sol = sq.solve_bounded(gt, xi, grid24, bundle24, poly_basis)
    prof = example1.profile
    cs = sq.derive_constants(1.5, 1.0, prof.beta, prof.gamma)
    r = verify_pointwise_bound(sol, cs, xi(bundle24.terminal()), prof.f, "one-sided")
    assert r.bound_id == "pointwise-one-sided"
    assert r.satisfied


def test_pointwise_rejects_unknown_variant(zero_solution, zero_constants):
    with pytest.raises(ValueError):
        verify_pointwise_bound(zero_solution, zero_constants,
                               np.zeros(zero_solution.bundle.count),
                               lambda t, b: np.zeros(np.atleast_2d(b).shape[0]),
                               "sideways")


@pytest.mark.parametrize("margins, ses", [([np.nan, 5.0], [1.0, 0.1]), ([np.nan], [np.inf])])
def test_a_nan_margin_is_never_satisfied(margins, ses):
    # every comparison with NaN is false: the margin must not pass for >= 0
    assert _classify(np.array(margins), np.array(ses)) == "indeterminate"


def test_a_nan_margin_keeps_a_violated_node_violated():
    assert _classify(np.array([np.nan, -5.0, 2.0]), np.array([1.0, 0.1, 0.1])) == "violated"
    assert _classify(np.array([-5.0, np.nan]), np.array([0.1, 1.0])) == "violated"


# (margin, se, state) on both sides of each factor of the per-node rule
_NODE_CASES = [(-3.5, 1.0, "violated"), (-2.5, 1.0, "undecided"), (-1e-9, 0.0, "violated"),
               (0.0, 0.0, "satisfied"), (2.0, 1.0, "satisfied"), (2.0, 1.1, "undecided"),
               (-np.inf, 1.0, "violated"), (np.inf, np.inf, "satisfied"),
               (-np.inf, np.inf, "undecided"), (1.0, np.nan, "undecided")]


@pytest.mark.parametrize("margin, se, state", _NODE_CASES)
def test_classify_reads_its_tightest_node_by_the_per_node_rule(margin, se, state):
    assert _node_states(np.array([margin]), np.array([se]))[0] == state
    verdict = {"undecided": "indeterminate"}.get(state, state)
    # a satisfied node at an infinite margin, the loosest there is, does not move the verdict
    assert _classify(np.array([margin, np.inf]), np.array([se, 0.0])) == verdict


def test_undecided_counts_the_nodes_the_per_node_rule_leaves_undecided():
    margins, ses, states = (np.array(v) for v in zip(*_NODE_CASES))
    r = BoundCheckResult(bound_id="sup-p2", times=np.arange(len(margins), dtype=float),
                         log_lhs=np.zeros(len(margins)), log_rhs=margins, se=ses,
                         margin_min=margins, verdict=_classify(margins, ses))
    assert r.undecided == np.count_nonzero(states == "undecided") == 4
    assert r.verdict == "violated"


def test_moment_estimate_validation():
    from subquad_bsde.bounds import MomentEstimate
    m = MomentEstimate(log_value=800.0, se_rel=0.1)
    assert m.overflowed and m.value == math.inf
    with pytest.raises(ValueError):
        MomentEstimate(log_value=1.0, se_rel=-0.1)


# ---------------------------------------------------------------------------
# bit-equality with the whole-field formulas the checks were first written with
# ---------------------------------------------------------------------------

def _whole_field_tail(per_step):
    # per-path sums to the horizon as one reversed cumsum over a (M, N) field
    tail = np.zeros((per_step.shape[0], per_step.shape[1] + 1))
    tail[:, :-1] = np.cumsum(per_step[:, ::-1], axis=1)[:, ::-1]
    return tail


def _fit_rank(basis, state):
    # the dimension of the fitted span: nonempty bins, or the feature matrix's rank
    if basis.kind == "piecewise-constant-bins":
        return len(np.unique(basis.bin_indices(state)))
    return int(np.linalg.matrix_rank(basis.features(state)))


def _reference_se(resid, rank):
    # residual variance on M - rank degrees of freedom times the mean leverage rank / M
    M = len(resid)
    return math.inf if M <= rank else math.sqrt(float(np.var(resid)) * rank / (M - rank))


def _pointwise_reference(sol, constants, xi_values, f_process, variant):
    """The pointwise check with whole-field tails and a projector per decile step."""
    from subquad_bsde.bounds import _decile_indices
    grid, bundle, basis = sol.grid, sol.bundle, sol.basis
    levels = bundle.levels
    one_sided = variant == "one-sided"
    power = 2.0 / constants.alpha_star
    log_K = constants.log_K.log
    K_float = math.exp(min(log_K, 700.0))
    xi_eff = np.maximum(xi_values, 0.0) if one_sided else np.abs(xi_values)
    f_vals = np.stack([np.asarray(f_process(float(grid.nodes[j]), levels[:, j, :]), dtype=float)
                       for j in range(grid.steps)], axis=1)
    tail_f = _whole_field_tail(f_vals * grid.dt[None, :])
    zsq = (sol.Z ** 2).sum(axis=2) * grid.dt[None, :]
    if one_sided:
        zsq = zsq * (sol.Y[:, :-1] > 0.0)
    tail_q = _whole_field_tail(zsq)
    rows = []
    for j in _decile_indices(grid):
        t = float(grid.nodes[j])
        proj = basis.projector(levels[:, j, :])
        rank = _fit_rank(basis, levels[:, j, :])
        q_fit = np.maximum(proj.fit(tail_q[:, j]), 0.0)
        se_q = _reference_se(tail_q[:, j] - q_fit, rank)
        y = sol.Y[:, j]
        ypart = np.maximum(y, 0.0) ** power if one_sided else np.abs(y) ** power
        log_lhs = np.logaddexp(ypart, np.log(np.maximum(q_fit, 1e-300)))
        big = np.minimum(K_float * (xi_eff + tail_f[:, j]) ** power, 700.0)
        big_fit = proj.fit(big)
        se_big = _reference_se(big - big_fit, rank)
        log_rhs = log_K + big_fit
        margins = log_rhs - log_lhs
        se_lhs = se_q / np.maximum(np.exp(log_lhs), 1e-300)
        se_comb = np.sqrt(se_lhs ** 2 + se_big ** 2)
        worst = int(np.argmin(margins))
        rows.append((t, log_lhs[worst], log_rhs[worst], se_comb[worst], margins.min()))
    return tail_f, [np.asarray(col) for col in zip(*rows)]


@pytest.fixture(scope="module")
def example1_pair(example1):
    # truncated example 1 with terminals xi <= xi + 1
    grid = sq.build_grid(1.0, 24, "uniform")
    bundle = sq.sample_paths(grid, 1, 2001, 13)
    idx = TruncationIndex(16, 16)
    gt = truncate_generator(example1, idx)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0, shift=1.0), idx)
    return {basis.kind: (sq.solve_bounded(gt, xi, grid, bundle, basis),
                         sq.solve_bounded(gt, xi_hi, grid, bundle, basis), xi)
            for basis in (sq.RegressionBasis("polynomial", 3),
                          sq.RegressionBasis("piecewise-constant-bins", 20, lo=-4.5, hi=4.5))}


@pytest.mark.parametrize("variant", ["two-sided", "one-sided"])
@pytest.mark.parametrize("kind", ["polynomial", "piecewise-constant-bins"])
def test_pointwise_bound_matches_whole_field_reference(example1, example1_pair, kind, variant):
    from subquad_bsde.bounds import _tail_forcing
    sol, _, xi = example1_pair[kind]
    prof = example1.profile
    cs = sq.derive_constants(1.5, 1.0, prof.beta, prof.gamma)
    xi_vals = xi(sol.bundle.terminal())
    tail_f, expected = _pointwise_reference(sol, cs, xi_vals, prof.f, variant)
    # the running tails, node by node from the horizon back
    nodes = [j for j, tail in _tail_forcing(prof.f, sol.grid, sol.bundle.levels)
             if np.array_equal(tail, tail_f[:, j])]
    assert nodes == list(reversed(range(sol.grid.steps)))
    r = verify_pointwise_bound(sol, cs, xi_vals, prof.f, variant)
    got = (r.times, r.log_lhs, r.log_rhs, r.se, r.margin_min)
    for name, a, b in zip(("times", "lhs", "rhs", "se", "min"), got, expected):
        assert np.array_equal(a, b), name


def test_pointwise_bound_matches_whole_field_reference_in_two_dims():
    grid = sq.build_grid(1.0, 12, "uniform")
    bundle = sq.sample_paths(grid, 2, 1500, 21)
    g = sq.make_generator("linear", 1.5, b_y=-0.5, b_z=0.5)
    xi = sq.TerminalData(lambda b: np.clip(np.atleast_2d(b)[:, 0] - 0.3, -2.0, 2.0), "bt1")
    sol = sq.solve_bounded(g, xi, grid, bundle, sq.RegressionBasis("polynomial", 2))
    cs = sq.derive_constants(1.5, 1.0, ZERO, ZERO)
    f = lambda t, b: 0.2 + np.abs(np.atleast_2d(b)[:, 1])
    xi_vals = xi(bundle.terminal())
    for variant in ("two-sided", "one-sided"):
        _, expected = _pointwise_reference(sol, cs, xi_vals, f, variant)
        r = verify_pointwise_bound(sol, cs, xi_vals, f, variant)
        got = (r.times, r.log_lhs, r.log_rhs, r.se, r.margin_min)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected)), variant


def _sup_reference(sol, constants, xi_values, f_process, p):
    """The sup check with whole fields: sup |Y| over the nodes from each start, and
    |Z|^2 dt added over the steps from each start in step order."""
    grid, levels = sol.grid, sol.bundle.levels
    power = 2.0 / constants.alpha_star
    log_Kp = constants.K_p(p).log
    f_vals = np.stack([np.asarray(f_process(float(grid.nodes[j]), levels[:, j, :]), dtype=float)
                       for j in range(grid.steps)], axis=1)
    tail_f = _whole_field_tail(f_vals * grid.dt[None, :])
    Y, zsq = sol.Y, (sol.Z ** 2).sum(axis=2) * grid.dt[None, :]
    half = int(np.argmin(np.abs(grid.nodes - 0.5 * grid.horizon)))
    rows = []
    for j in dict.fromkeys((0, half)):
        log_a, se_a = log_mean_exp(p * np.abs(Y[:, j:]).max(axis=1) ** power)
        q = zsq[:, j].copy()
        for k in range(j + 1, grid.steps):
            q += zsq[:, k]
        mean_qp, se_b = _mean_rel_se(q ** (p / 2.0))
        log_b = math.log(max(mean_qp, 1e-300))
        log_lhs = float(np.logaddexp(log_a, log_b))
        se_lhs = math.hypot(math.exp(log_a - log_lhs) * se_a, math.exp(log_b - log_lhs) * se_b)
        big = np.minimum(math.exp(min(log_Kp, 700.0)) * (np.abs(xi_values) + tail_f[:, j]) ** power,
                         700.0)
        log_rhs_mean, se_rhs = log_mean_exp(big)
        log_rhs = log_Kp + log_rhs_mean
        rows.append((grid.nodes[j], log_lhs, log_rhs, math.hypot(se_lhs, se_rhs), log_rhs - log_lhs))
    return [np.asarray(col) for col in zip(*rows)]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", ["polynomial", "piecewise-constant-bins"])
def test_sup_bound_matches_whole_field_reference(example1, example1_pair, kind, p):
    # the check reads each node once; its sums keep the step order of a whole-field sum
    sol, _, xi = example1_pair[kind]
    prof = example1.profile
    cs = sq.derive_constants(1.5, 1.0, prof.beta, prof.gamma)
    xi_vals = xi(sol.bundle.terminal())
    r = verify_sup_bound(sol, cs, xi_vals, prof.f, p=p)
    got = (r.times, r.log_lhs, r.log_rhs, r.se, r.margin_min)
    expected = _sup_reference(sol, cs, xi_vals, prof.f, p)
    for name, a, b in zip(("times", "lhs", "rhs", "se", "min"), got, expected):
        assert np.array_equal(a, b), name


def test_sup_bound_adds_the_z_term_in_step_order(grid24, poly_basis, zero_constants):
    # Y = 0, so the left side is the |Z|^2 term alone; on 5 paths its mean keeps the
    # last bits of each path's sum, which show the order of the additions
    rng = np.random.default_rng(11)
    bundle = sq.sample_paths(grid24, 1, 5, 3)
    M, N = bundle.count, grid24.steps
    sol = sq.SolutionField.from_columns(np.zeros((M, N + 1)), rng.normal(size=(M, N, 1)),
                                        bundle, poly_basis)
    f = lambda t, b: np.zeros(np.atleast_2d(b).shape[0])
    for p in (2.0, 3.0):
        r = verify_sup_bound(sol, zero_constants, np.zeros(M), f, p=p)
        expected = _sup_reference(sol, zero_constants, np.zeros(M), f, p)
        assert all(np.array_equal(a, b) for a, b in
                   zip((r.times, r.log_lhs, r.log_rhs, r.se, r.margin_min), expected)), p


def _comparison_reference(sol, sol_prime):
    eps = np.full(sol.grid.steps + 1, 0.5 * math.sqrt(float(np.max(sol.grid.dt))))
    eps = eps + 3.0 * (sol.fit_noise + sol_prime.fit_noise)
    gap = sol.Y - sol_prime.Y
    violations = gap > eps[None, :]
    arrays = (gap.max(axis=0), eps, violations.mean(axis=0), eps - gap.max(axis=0))
    return arrays, float(violations.mean())


@pytest.mark.parametrize("kind", ["polynomial", "piecewise-constant-bins"])
def test_comparison_matches_whole_field_reference(example1_pair, kind):
    lo, hi, _ = example1_pair[kind]
    # the third pair pits lo against its own paths in reverse order: the order
    # fails on about half of them, so per-node counts are mixed
    reversed_lo = sq.SolutionField.from_columns(lo.Y[::-1], lo.Z, lo.bundle, lo.basis, lo.fit_noise)
    for a, b in ((lo, hi), (hi, lo), (lo, reversed_lo)):
        arrays, fraction = _comparison_reference(a, b)
        r = verify_comparison(a, b)
        got = (r.log_lhs, r.log_rhs, r.se, r.margin_min)
        for name, x, y in zip(("gap_max", "eps", "per_time", "min"), got, arrays):
            assert np.array_equal(x, y), name
        assert r.violation_fraction == fraction
    assert 0.0 < r.violation_fraction < 1.0


@pytest.mark.parametrize("kind", ["polynomial", "piecewise-constant-bins"])
def test_fhat_moment_log_term_matches_whole_field_reference(example1, example1_pair, kind):
    lo, _, _ = example1_pair[kind]
    prof = example1.profile
    gamma = prof.convexity_tier()[2]
    astar = sq.derive_constants(1.5, 1.0, prof.beta, prof.gamma).alpha_star
    check = verify_fhat_moment(fhat_process(prof, lo), lo.grid, 2.0, astar,
                               gamma=gamma, z_prime=lo.Z)
    weights = np.asarray([float(gamma(t)) for t in lo.grid.nodes[:-1]]) * lo.grid.dt
    zn = np.sqrt((lo.Z ** 2).sum(axis=2))
    ln_int = (np.log(math.e + zn) ** (astar / 2.0)) @ weights
    log_ln, se_ln = log_mean_exp(2.0 * ln_int ** (2.0 / astar))
    assert check.ln_moment.log_value == log_ln and check.ln_moment.se_rel == se_ln
