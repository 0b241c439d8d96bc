"""Acceptance suite: one test per criterion, run at the stated scales.

Each test prints a single PASS line with its headline numbers once its
assertions hold, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import subquad_bsde as sq
from subquad_bsde.bounds import verify_comparison, verify_pointwise_bound, verify_sup_bound
from subquad_bsde.conditions import build_cloud, check_growth, check_theta_convexity
from subquad_bsde.constants import conjugate_exponent, k_threshold, young_margin
from subquad_bsde.envelopes import (construct_A2_envelope, construct_A3_envelope,
                                    lemmaA1_check, lemmaA2_check,
                                    lemmaA2_intermediate_checks, lemmaA3_check,
                                    lemmaA3_intermediate_checks, lemma_samples,
                                    remainder_check, second_difference_convexity)
from subquad_bsde.families import A1_FAMILIES, A2_FAMILIES, A3_FAMILIES
from subquad_bsde.generators import TruncationIndex, truncate_generator, truncate_terminal

PATHS = 100_000
ALPHA = 1.5


@pytest.fixture(scope="module")
def grid64():
    return sq.build_grid(1.0, 64, "uniform")


@pytest.fixture(scope="module")
def bundle64(grid64):
    return sq.sample_paths(grid64, 1, PATHS, 2024)


@pytest.fixture(scope="module")
def grid24a():
    return sq.build_grid(1.0, 24, "uniform")


@pytest.fixture(scope="module")
def bundle24a(grid24a):
    return sq.sample_paths(grid24a, 1, PATHS, 4040)


@pytest.fixture(scope="module")
def poly4():
    return sq.RegressionBasis("polynomial", 4)


@pytest.fixture(scope="module")
def bins30():
    return sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)


def _announce(name, started, detail=""):
    print(f"\nACCEPTANCE {name}: PASS ({time.time() - started:.1f}s){' - ' + detail if detail else ''}")


def test_criterion_1_band_inequality_suite():
    started = time.time()
    samples = lemma_samples(10_000, seed=20_240)
    n_fams = {"A1": 0, "A2": 0, "A3": 0}

    for name, mk in A1_FAMILIES.items():
        for seed in (0, 1) if name == "piecewise-linear" else (0,):
            f = mk(seed)
            assert lemmaA1_check(f, f.k1, f.k2, samples).passed, (name, seed)
        n_fams["A1"] += 1

    for name, mk in A2_FAMILIES.items():
        for seed in (0, 1) if name == "convex-ray-spline" else (0,):
            f = mk(seed)
            con = construct_A2_envelope(f, f.a, f.k)
            assert lemmaA2_check(f, f.a, f.k, samples, construction=con).passed, (name, seed)
            inter = lemmaA2_intermediate_checks(con, samples)
            assert all(r.passed for r in inter.values()), (name, seed)
            assert remainder_check(con, samples).passed, (name, seed)
        n_fams["A2"] += 1

    for name, mk in A3_FAMILIES.items():
        for seed in (0, 1) if name == "w-band" else (0,):
            f = mk(seed)
            con = construct_A3_envelope(f, f.a, f.k)
            assert lemmaA3_check(f, f.a, f.k, samples, construction=con).passed, (name, seed)
            inter = lemmaA3_intermediate_checks(con, samples)
            assert all(r.passed for r in inter.values()), (name, seed)
            assert remainder_check(con, samples).passed, (name, seed)
        n_fams["A3"] += 1

    assert all(v >= 6 for v in n_fams.values())
    assert time.time() - started < 30.0
    _announce("1 band-inequality suite", started, f"families {n_fams}")


def test_criterion_2_construction_exactness():
    started = time.time()
    outside = np.concatenate([np.linspace(-9.0, -1.0, 300), np.linspace(1.0, 9.0, 300)])
    for seed in range(100):
        f = A2_FAMILIES["convex-ray-spline"](seed)
        con = construct_A2_envelope(f, f.a, f.k)
        assert np.max(np.abs(con.g(outside) - f(outside))) <= 1e-12
        assert float(np.asarray(con.gbar(0.0))) == 0.0
        ok1, w1, _ = second_difference_convexity(con.gbar1, -10.0, 10.0, 1000)
        ok2, w2, _ = second_difference_convexity(con.gbar2, -10.0, 10.0, 1000)
        assert ok1 and ok2, (seed, w1, w2)

        f3 = A3_FAMILIES["w-band"](seed)
        con3 = construct_A3_envelope(f3, f3.a, f3.k)
        assert np.max(np.abs(con3.g(outside) - f3(outside))) <= 1e-12
    assert time.time() - started < 30.0
    _announce("2 construction exactness", started, "100 random f per construction")


def test_criterion_3_constant_pipeline():
    started = time.time()
    rng = np.random.default_rng(33)
    grid_g = np.linspace(1e-3, 2.0, 10)
    grid_y = np.linspace(1.0, 10.0, 10)
    grid_z = np.linspace(0.0, 10.0, 10)
    G, Yh, Zn = (a.ravel() for a in np.meshgrid(grid_g, grid_y, grid_z))
    for alpha in rng.uniform(1.05, 1.95, 20):
        assert young_margin(alpha, G, Yh, Zn).min() >= -1e-9
        astar = conjugate_exponent(alpha)
        assert abs(1.0 / alpha + 1.0 / astar - 1.0) < 1e-12
        k = k_threshold(alpha)
        assert k ** (2.0 / astar) >= 2.0 * math.log(k) - 1e-9
        assert k > (astar / 2.0) ** (astar / 2.0)
    assert time.time() - started < 10.0
    _announce("3 constant pipeline", started, "20 alphas x 1000-point grid")


def test_criterion_4_solver_oracles(grid64, bundle64, poly4):
    started = time.time()
    # (i) zero driver, constant terminal
    sol = sq.solve_bounded(sq.make_generator("zero", ALPHA),
                           sq.make_terminal("constant", value=2.0),
                           grid64, bundle64, poly4)
    assert np.max(np.abs(sol.Y - 2.0)) <= 1e-6
    assert np.max(np.abs(sol.Z)) <= 1e-6

    # (ii) decay driver: Y_t = e^{t-1}
    g_ode = sq.make_generator("linear", ALPHA, b_y=-1.0, b_z=0.0)
    xi_one = sq.make_terminal("constant", value=1.0)
    ode = sq.solve_bounded(g_ode, xi_one, grid64, bundle64, poly4)
    truth = np.exp(grid64.nodes - 1.0)
    err_ode = float(np.max(np.abs(ode.Y.mean(axis=0) - truth)))
    assert err_ode <= 5e-3

    # (iii) linear-z driver: Y_t = B_t + (1-t)/2, Z = 1
    g_lz = sq.make_generator("linear", ALPHA, b_y=0.0, b_z=0.5)
    xi_bt = sq.make_terminal("bt")
    lz = sq.solve_bounded(g_lz, xi_bt, grid64, bundle64, poly4)
    truth_lz = bundle64.levels[:, :, 0] + 0.5 * (1.0 - grid64.nodes)[None, :]
    err_lz_y = float(np.max(np.mean(np.abs(lz.Y - truth_lz), axis=0)))
    err_lz_z = float(abs(lz.Z.mean() - 1.0))
    assert err_lz_y <= 5e-3
    assert err_lz_z <= 5e-3

    # the global iteration agrees with the implicit sweep on both cases
    pic_ode = sq.picard_solve(g_ode, xi_one, grid64, bundle64, poly4)
    pic_lz = sq.picard_solve(g_lz, xi_bt, grid64, bundle64, poly4)
    gap_ode = float(np.max(np.abs(pic_ode.Y - ode.Y)))
    gap_lz = float(np.max(np.abs(pic_lz.Y - lz.Y)))
    assert gap_ode <= 5e-3 and gap_lz <= 5e-3

    assert time.time() - started < 300.0
    _announce("4 solver oracles", started,
              f"ode {err_ode:.2e}, lz-y {err_lz_y:.2e}, lz-z {err_lz_z:.2e}, "
              f"picard gaps {gap_ode:.1e}/{gap_lz:.1e}")


def test_criterion_5_truncation_ladder(grid24a, bundle24a, bins30):
    started = time.time()
    g1 = sq.builtin_example_1(ALPHA, beta=0.5, gamma=0.25, d=1)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    levels = [1, 2, 4, 8, 16]
    lad = sq.solve_ladder(g1, xi, grid24a, bundle24a, bins30, levels, levels)
    gaps = lad.diagonal_gaps
    assert lad.verdict == "satisfied", (lad.violations, lad.comparisons, gaps)
    assert time.time() - started < 600.0
    _announce("5 truncation ladder", started,
              f"violations {100 * lad.violation_fraction:.4f}%, gaps "
              + "/".join(f"{g:.2e}" for g in gaps))


def test_criterion_6_a_priori_bounds(grid24a, bundle24a, poly4):
    started = time.time()
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    idx = TruncationIndex(64, 64)
    verdicts = []
    for gen in (sq.builtin_example_1(ALPHA, 0.5, 0.25, 1),
                sq.builtin_example_2(ALPHA, 0.5, 0.25, 1)):
        prof = gen.profile
        constants = sq.derive_constants(ALPHA, grid24a.horizon, prof.beta, prof.gamma)
        sol = sq.solve_bounded(truncate_generator(gen, idx), truncate_terminal(xi, idx),
                               grid24a, bundle24a, poly4)
        xi_vals = truncate_terminal(xi, idx)(bundle24a.terminal())
        r_point = verify_pointwise_bound(sol, constants, xi_vals, prof.f, "two-sided")
        r_sup = verify_sup_bound(sol, constants, xi_vals, prof.f, p=2.0)
        assert r_point.satisfied, (gen.name, r_point.margin_min.min())
        assert r_sup.satisfied, (gen.name, r_sup.margin_min.min())
        verdicts.append((gen.name, float(r_point.margin_min.min()), float(r_sup.margin_min.min())))
    assert time.time() - started < 600.0
    _announce("6 a-priori bounds", started,
              "; ".join(f"{n}: point {a:.3g}, sup {b:.3g}" for n, a, b in verdicts))


def test_criterion_7_comparison_theorem(grid24a, bundle24a, poly4):
    started = time.time()
    fractions = []

    zero = sq.solve_bounded(sq.make_generator("zero", ALPHA), sq.make_terminal("zero"),
                            grid24a, bundle24a, poly4)
    one = sq.solve_bounded(sq.make_generator("zero", ALPHA),
                           sq.make_terminal("constant", value=1.0),
                           grid24a, bundle24a, poly4)
    r = verify_comparison(zero, one, xi_values=np.zeros(PATHS), xi_prime_values=np.ones(PATHS))
    assert r.satisfied and r.violation_fraction <= 0.005
    fractions.append(r.violation_fraction)

    g_lo = sq.make_generator("custom-expression", ALPHA, expression="0 - abs(y)")
    g_hi = sq.make_generator("zero", ALPHA)
    xi = sq.make_terminal("clamp-bt", bound=2.0)
    lo = sq.solve_bounded(g_lo, xi, grid24a, bundle24a, poly4)
    hi = sq.solve_bounded(g_hi, xi, grid24a, bundle24a, poly4)
    r = verify_comparison(lo, hi)
    assert r.satisfied and r.violation_fraction <= 0.005
    fractions.append(r.violation_fraction)

    g2 = sq.builtin_example_2(ALPHA, 0.5, 0.25, 1)
    idx = TruncationIndex(64, 64)
    gt = truncate_generator(g2, idx)
    xi_lo = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0, shift=1.0), idx)
    sol_lo = sq.solve_bounded(gt, xi_lo, grid24a, bundle24a, poly4)
    sol_hi = sq.solve_bounded(gt, xi_hi, grid24a, bundle24a, poly4)
    r = verify_comparison(sol_lo, sol_hi, xi_values=xi_lo(bundle24a.terminal()),
                          xi_prime_values=xi_hi(bundle24a.terminal()))
    assert r.satisfied and r.violation_fraction <= 0.005
    fractions.append(r.violation_fraction)

    assert time.time() - started < 600.0
    _announce("7 comparison theorem", started,
              "violation fractions " + "/".join(f"{f:.2e}" for f in fractions))


def test_criterion_8_condition_checkers():
    started = time.time()
    g1 = sq.builtin_example_1(ALPHA, 0.5, 0.25, 1)
    g2 = sq.builtin_example_2(ALPHA, 0.5, 0.25, 1)
    clouds = [build_cloud(1.0, 1, 20_000, "random", 8),
              build_cloud(1.0, 1, 20_000, "adversarial-corner", 8)]

    for cloud in clouds:
        for cond in ("EX1", "EX2"):
            assert check_growth(g1, cond, cloud).passed
            assert check_growth(g2, cond, cloud).passed
        assert check_theta_convexity(g1, "UNprime-i", cloud).passed
        assert check_theta_convexity(g2, "UN-i", cloud).passed
        refl = sq.reflect_generator(g2)
        assert "satisfies-UN-ii" in refl.flags
        assert check_theta_convexity(refl, "UN-ii", cloud.reflected()).passed

    bad = sq.make_generator("custom-expression", ALPHA, beta=1.0, gamma=1.0,
                            f_const=1.0, expression="z^2")
    r = check_growth(bad, "EX1", clouds[0])
    assert r.verdict == "fail" and len(r.witnesses) > 0

    # closure of the gated theta bound under positive combinations, max, min
    from subquad_bsde.generators import CoefficientProfile, Generator
    ga = sq.make_generator("convex-power", ALPHA, gamma=1.0)
    gb = sq.make_generator("linear", ALPHA, b_y=-0.5, b_z=0.25)
    k1, k2 = 0.6, 1.1

    def combine(op):
        prof = CoefficientProfile(
            alpha=ALPHA,
            beta=lambda t: k1 * ga.profile.beta(t) + k2 * gb.profile.beta(t),
            gamma=lambda t: k1 * ga.profile.gamma(t) + k2 * gb.profile.gamma(t),
            f=lambda t, b: k1 * ga.profile.f(t, b) + k2 * gb.profile.f(t, b))
        return Generator(fn=lambda t, b, y, z: op(k1 * ga(t, b, y, z), k2 * gb(t, b, y, z)),
                         profile=prof, name=f"closure-{op.__name__}")

    for op in (np.add, np.maximum, np.minimum):
        assert check_theta_convexity(combine(op), "UNprime-i", clouds[0]).passed, op.__name__

    assert time.time() - started < 120.0
    _announce("8 condition checkers", started)


def test_criterion_9_uniqueness_proxy(grid64):
    started = time.time()
    # Lipschitz driver inside the extended-convexity class (linear = convex)
    g = sq.make_generator("linear", ALPHA, b_y=-1.0, b_z=0.5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    basis = sq.RegressionBasis("polynomial", 4)
    gaps = []
    for seed in (11, 12):
        bundle = sq.sample_paths(grid64, 1, PATHS, seed)
        a = sq.solve_bounded(g, xi, grid64, bundle, basis)
        b = sq.picard_solve(g, xi, grid64, bundle, basis)
        gaps.append(float(np.max(np.abs(a.Y - b.Y))))
    assert all(gap <= 5e-3 for gap in gaps), gaps
    assert time.time() - started < 300.0
    _announce("9 uniqueness proxy", started, f"sup gaps {gaps[0]:.2e}/{gaps[1]:.2e}")


def test_criterion_10_reproducibility(tmp_path):
    started = time.time()
    from subquad_bsde.cli import parse_config, run_experiment
    text = """
[experiment]
generator = example1
terminal = clamp-bt
terminal_bound = 3.0
alpha = 1.5
beta = 0.5
gamma = 0.25
steps = 16
paths = 5000
seed = 99
basis = piecewise-constant-bins
basis_size = 20
basis_lo = -4.5
basis_hi = 4.5
ladder = 1, 2, 4
checks = EX1, EX2, pointwise, sup, comparison
"""
    outputs = []
    for run_id in ("a", "b"):
        cfg = parse_config(text)
        cfg.out = str(tmp_path / run_id)
        run_experiment(cfg)
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(Path(cfg.out).glob("*.csv"))})
    assert outputs[0].keys() == outputs[1].keys() and len(outputs[0]) >= 3
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name

    # path sampling itself is bit-stable at scale
    grid = sq.build_grid(1.0, 8, "uniform")
    a = sq.sample_paths(grid, 1, PATHS, 31)
    b = sq.sample_paths(grid, 1, PATHS, 31)
    assert np.array_equal(a.levels, b.levels)
    _announce("10 reproducibility", started, f"{len(outputs[0])} CSVs byte-identical")
