import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

import subquad_bsde as sq
from subquad_bsde.errors import IterationLimitError, PreconditionViolationError, SolverDivergedError
from subquad_bsde.generators import TruncationIndex, truncate_generator, truncate_terminal
from subquad_bsde.solver import consistency_residual, theta_residual


def test_zero_driver_constant_terminal(grid24, bundle24, poly_basis):
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("constant", value=2.5),
                           grid24, bundle24, poly_basis)
    assert np.max(np.abs(sol.Y - 2.5)) < 1e-10
    assert np.max(np.abs(sol.Z)) < 1e-10


def test_terminal_values_bit_exact(grid24, bundle24, poly_basis, example1):
    idx = TruncationIndex(8, 8)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx)
    sol = sq.solve_bounded(truncate_generator(example1, idx), xi, grid24, bundle24, poly_basis)
    assert np.array_equal(sol.Y[:, -1], xi(bundle24.terminal()))


def test_ode_oracle(grid24, bundle24, poly_basis):
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    sol = sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    truth = np.exp(grid24.nodes - 1.0)
    # implicit one-step map is Y_j = Y_{j+1}/(1+dt), exact to the fit
    discrete = (1.0 + grid24.dt[0]) ** (-(grid24.steps - np.arange(grid24.steps + 1)))
    assert np.max(np.abs(sol.Y.mean(axis=0) - discrete)) < 1e-8
    assert np.max(np.abs(sol.Y.mean(axis=0) - truth)) < 2.0 * grid24.dt[0]


def test_linear_z_oracle(grid24, bundle24, poly_basis):
    g = sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)
    sol = sq.solve_bounded(g, sq.make_terminal("bt"), grid24, bundle24, poly_basis)
    truth = bundle24.levels()[:, :, 0] + 0.5 * (1.0 - grid24.nodes)[None, :]
    node_mae = np.mean(np.abs(sol.Y - truth), axis=0)
    assert node_mae.max() < 0.02
    assert abs(sol.Z.mean() - 1.0) < 0.02


def test_picard_matches_implicit_fixed_point(grid24, bundle24, poly_basis):
    for g in (sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0),
              sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)):
        xi = sq.make_terminal("bt")
        a = sq.solve_bounded(g, xi, grid24, bundle24, poly_basis)
        b = sq.picard_solve(g, xi, grid24, bundle24, poly_basis)
        assert np.max(np.abs(a.Y - b.Y)) < 1e-6


def test_zero_driver_picard_single_iteration(grid24, bundle24, poly_basis):
    sol = sq.picard_solve(sq.make_generator("zero", 1.5), sq.make_terminal("bt"),
                          grid24, bundle24, poly_basis, max_iter=1)
    # no feedback: warm start is already the fixed point
    assert sol.method == "picard"


def test_grid_refinement_improves_ode():
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    xi = sq.make_terminal("constant", value=1.0)
    basis = sq.RegressionBasis("polynomial", 2)
    errs = []
    for steps in (16, 32, 64):
        grid = sq.build_grid(1.0, steps, "uniform")
        bundle = sq.sample_paths(grid, 1, 2000, 5)
        sol = sq.solve_bounded(g, xi, grid, bundle, basis)
        errs.append(np.max(np.abs(sol.Y.mean(axis=0) - np.exp(grid.nodes - 1.0))))
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 2.0 ** 0.5       # observed order >= 0.5


def test_richer_basis_reduces_zero_driver_field_error(grid24, bundle24):
    # with g = 0 the value field is the clamped-Gaussian conditional mean;
    # enlarging the basis shrinks the approximation error against it
    g = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("clamp-bt", bound=2.0)
    j = grid24.steps // 2
    x = bundle24.levels()[:, j, 0]
    s = math.sqrt(grid24.horizon - grid24.nodes[j])
    a, b = (-2.0 - x) / s, (2.0 - x) / s
    truth = (-2.0 * norm.cdf(a) + 2.0 * norm.sf(b)
             + x * (norm.cdf(b) - norm.cdf(a)) - s * (norm.pdf(b) - norm.pdf(a)))
    inner = np.abs(x) < 2.0
    errs = []
    for degree in (1, 3, 5):
        basis = sq.RegressionBasis("polynomial", degree)
        sol = sq.solve_bounded(g, xi, grid24, bundle24, basis)
        errs.append(float(np.mean(np.abs(sol.Y[inner, j] - truth[inner]))))
    assert errs[1] < errs[0]
    assert errs[2] < errs[0]


def test_solver_divergence_reports_step(grid24, bundle24, poly_basis):
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    with pytest.raises(SolverDivergedError) as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, poly_basis, fp_tol=1e-16, fp_max_iter=2)
    assert err.value.step_index == grid24.steps - 1


def test_bin_fallback_divergence_reports_step(grid24, bundle24, bins_basis):
    # y = E[Y_next] + 2 y has a root per bin, but its residual increases
    # (dt * dg/dy = 2 >= 1), so the per-bin secant rejects the ill-posed
    # step on the first step it solves instead of returning that root
    dt = float(grid24.dt[0])
    g = sq.make_generator("linear", 1.5, b_y=2.0 / dt, b_z=0.0)
    with pytest.raises(SolverDivergedError) as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, bins_basis, fp_max_iter=2)
    assert err.value.step_index == grid24.steps - 1


def test_bin_sweep_cap_reports_step(grid24, bundle24, bins_basis):
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    with pytest.raises(SolverDivergedError) as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, bins_basis, fp_max_iter=1)
    assert err.value.step_index == grid24.steps - 1


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_non_finite_driver_names_step(grid24, bundle24, basis_fixture, request):
    # finite on the last half of the horizon, NaN from t < 1/2 on: the first
    # step that sees it (backwards) is the one with node 11/24
    def fn(t, b, y, z):
        return np.full(np.shape(y), np.nan if t < 0.5 else 0.0)

    g = dataclasses.replace(sq.make_generator("zero", 1.5), fn=fn)
    with pytest.raises(PreconditionViolationError, match=r"at step 11\b"):
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, request.getfixturevalue(basis_fixture))


def test_bin_step_matches_brentq_reference(example1):
    # example 1 at the rung (1, 16) on a bundle where a damped path-level
    # fixed point cycles near the cube-root kink at 0-; the per-bin roots
    # are checked bin by bin against brentq
    grid = sq.build_grid(1.0, 24, "uniform")
    bundle = sq.sample_paths(grid, 1, 3000, 8)
    basis = sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)
    idx = TruncationIndex(1, 16)
    g = truncate_generator(example1, idx)
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return g.fn(*args)

    sol = sq.solve_bounded(dataclasses.replace(g, fn=counted),
                           truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx),
                           grid, bundle, basis)
    assert all(rows == bundle.count for rows in calls)
    assert len(calls) <= 6 * grid.steps

    levels = bundle.levels()
    for j in range(grid.steps):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        b, z = levels[:, j, :], sol.Z[:, j, :]
        proj = basis.projector(t, b)
        m = proj.coefficients(sol.Y[:, j + 1])
        for k in np.unique(proj.idx):
            rows = np.flatnonzero(proj.idx == k)

            def resid(c):
                return m[k] + dt * float(np.mean(g(t, b[rows], np.full(len(rows), c),
                                                   z[rows]))) - c

            lo, hi = m[k] - 1.0, m[k] + 1.0
            while resid(lo) < 0.0 or resid(hi) > 0.0:
                lo, hi = lo - (hi - lo), hi + (hi - lo)
            root = brentq(resid, lo, hi, xtol=1e-14)
            assert np.all(np.abs(sol.Y[rows, j] - root) < 1e-9)


def test_picard_iteration_limit(grid24, bundle24, poly_basis):
    g = sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)
    with pytest.raises(IterationLimitError) as err:
        sq.picard_solve(g, sq.make_terminal("bt"), grid24, bundle24, poly_basis,
                        max_iter=1, tol=1e-12)
    assert err.value.gap > 0.0


def test_non_finite_terminal_rejected(grid24, bundle24, poly_basis):
    bad = sq.TerminalData(lambda b: np.full(np.atleast_2d(b).shape[0], np.nan), "nan")
    with pytest.raises(PreconditionViolationError):
        sq.solve_bounded(sq.make_generator("zero", 1.5), bad, grid24, bundle24, poly_basis)


def test_ladder_constant_when_truncation_inactive(grid24, bundle24, poly_basis):
    g = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("constant", value=0.5)
    lad = sq.solve_ladder(g, xi, grid24, bundle24, poly_basis, levels=[1, 2, 4])
    assert lad.violations == 0
    assert all(gap == 0.0 for gap in lad.diagonal_gaps)


def test_ladder_zero_driver_clamped_gaussian_oracle(bins_basis):
    # g = 0, xi = B_T: each rung is the regression estimate of a clamped
    # Gaussian conditional mean, nondecreasing in the positive clamp
    grid = sq.build_grid(1.0, 4, "uniform")
    bundle = sq.sample_paths(grid, 1, 200_000, 77)
    g = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("bt")
    lad = sq.solve_ladder(g, xi, grid, bundle, bins_basis, levels=[1, 2, 4])
    assert lad.violation_fraction <= 0.005

    def clamped_mean(x, lo, hi, s2):
        # E[clip(x + N(0, s2), lo, hi)]
        s = math.sqrt(s2)
        a, b = (lo - x) / s, (hi - x) / s
        return (lo * norm.cdf(a) + hi * norm.sf(b)
                + x * (norm.cdf(b) - norm.cdf(a)) - s * (norm.pdf(b) - norm.pdf(a)))

    j = grid.steps - 1                  # one regression from the terminal
    t = grid.nodes[j]
    x = bundle.levels()[:, j, 0]
    idx = bins_basis.bin_indices(x[:, None])
    prev = None
    for n in (1, 2, 4):
        field = lad.snapshots[(n, 1)][:, j]
        truth = clamped_mean(x, -1.0, float(n), grid.horizon - t)
        # fitted values are bin means: compare against the bin-averaged oracle
        for b in np.unique(idx):
            rows = idx == b
            if rows.sum() < 2000:        # skip sparse outer bins
                continue
            assert abs(field[rows][0] - truth[rows].mean()) < 0.02
        if prev is not None:
            assert np.all(prev <= field + 1e-6)      # increasing in the positive clamp
        prev = field


def test_theta_residual_identities(grid24, bundle24, poly_basis, example2):
    idx = TruncationIndex(16, 16)
    gt = truncate_generator(example2, idx)
    xi_lo = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0, shift=1.0), idx)
    lo = sq.solve_bounded(gt, xi_lo, grid24, bundle24, poly_basis)
    hi = sq.solve_bounded(gt, xi_hi, grid24, bundle24, poly_basis)

    same = theta_residual(lo, lo, 0.3)
    assert np.allclose(same.dU, lo.Y) and np.allclose(same.dV, lo.Z)

    ones = sq.solve_bounded(sq.make_generator("zero", 1.5),
                            sq.make_terminal("constant", value=1.0),
                            grid24, bundle24, poly_basis)
    half = theta_residual(ones, ones, 0.5)
    assert np.allclose(half.dU, 1.0, atol=1e-9)

    tr = theta_residual(lo, hi, 0.7, g=gt, g_prime=gt)
    xi_vals = xi_lo(bundle24.terminal())
    assert np.all(np.maximum(tr.dU[:, -1], 0.0) <= np.maximum(xi_vals, 0.0) + 1e-12)
    assert tr.consistency.max() < 1.0


def test_theta_residual_rejects_mismatch(grid24, bundle24, poly_basis):
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    other_grid = sq.build_grid(1.0, 12, "uniform")
    other = sq.solve_bounded(sq.make_generator("zero", 1.5),
                             sq.make_terminal("constant", value=1.0),
                             other_grid, sq.sample_paths(other_grid, 1, 100, 0),
                             poly_basis)
    with pytest.raises(ValueError):
        theta_residual(sol, other, 0.5)
    with pytest.raises(ValueError):
        theta_residual(sol, sol, 1.5)


def test_solution_summary_schema(grid24, bundle24, poly_basis):
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("bt"), grid24, bundle24, poly_basis)
    summary = sol.summary()
    assert list(summary) == ["time", "y_mean", "y_q05", "y_q95", "z_norm_mean"]
    assert all(len(v) == grid24.steps + 1 for v in summary.values())


def test_consistency_residual_small_for_linear_driver(grid24, bundle24, poly_basis):
    g = sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)
    sol = sq.solve_bounded(g, sq.make_terminal("bt"), grid24, bundle24, poly_basis)
    resid = consistency_residual(sol, g)
    # fitted one-step defect sits at the regression-noise scale
    assert resid.max() < 10.0 * sol.fit_noise[0] + 0.05


def test_solver_multidimensional_noise(poly_basis):
    grid = sq.build_grid(1.0, 16, "uniform")
    bundle = sq.sample_paths(grid, 2, 20_000, 9)
    g = sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)   # driver reads z_1
    xi = sq.TerminalData(lambda b: np.atleast_2d(b)[:, 0], "bt1")
    sol = sq.solve_bounded(g, xi, grid, bundle, poly_basis)
    truth = bundle.levels()[:, :, 0] + 0.5 * (1.0 - grid.nodes)[None, :]
    assert np.max(np.mean(np.abs(sol.Y - truth), axis=0)) < 0.05
    # noise loads on the first coordinate only
    assert abs(sol.Z[:, :, 0].mean() - 1.0) < 0.05
    assert abs(sol.Z[:, :, 1].mean()) < 0.05


def test_solver_on_geometric_grid():
    grid = sq.build_grid(1.0, 32, "geometric", ratio=0.85)
    bundle = sq.sample_paths(grid, 1, 4000, 3)
    basis = sq.RegressionBasis("polynomial", 2)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    sol = sq.solve_bounded(g, sq.make_terminal("constant", value=1.0), grid, bundle, basis)
    # per-step implicit map with nonuniform steps: prod 1/(1+dt_j)
    discrete = np.concatenate([np.cumprod(1.0 / (1.0 + grid.dt[::-1]))[::-1], [1.0]])
    assert np.max(np.abs(sol.Y.mean(axis=0) - discrete)) < 1e-8
