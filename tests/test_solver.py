import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

import subquad_bsde as sq
from subquad_bsde import cli, paths, solver
from subquad_bsde.errors import IterationLimitError, PreconditionViolationError, SolverDivergedError
from subquad_bsde.generators import (TruncationIndex, truncate_generator, truncate_terminal,
                                     truncated_at)
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


@pytest.mark.parametrize("ladder, top", [(([1, 2, 4, 8, 16], [1, 2, 4, 8, 16]), (16, 16)),
                                         (([4], [4]), (4, 4)),
                                         (([1, 2, 4, 8, 16], [1, 2, 4]), (16, 4)),
                                         (None, (8, 8))],
                         ids=["levels-1-16", "levels-4", "n16-q4", "solve_bounded"])
def test_terminal_column_is_the_truncated_terminal(ladder, top, grid24, bins_basis, example1):
    # every bound check reads its terminal values from the field's node-N column
    bundle = sq.sample_paths(grid24, 1, 2000, 5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    xi_top = truncate_terminal(xi, TruncationIndex(*top))
    if ladder is None:
        sol = sq.solve_bounded(truncate_generator(example1, TruncationIndex(*top)), xi_top,
                               grid24, bundle, bins_basis)
    else:
        sol = sq.solve_ladder(example1, xi, grid24, bundle, bins_basis, *ladder).final
    expected = xi_top(bundle.terminal())
    assert np.array_equal(sol.Y[:, -1].view(np.uint64), expected.view(np.uint64))


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
    truth = bundle24.levels[:, :, 0] + 0.5 * (1.0 - grid24.nodes)[None, :]
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


def test_zero_driver_picard_single_iteration(grid24, bundle24, poly_basis, monkeypatch):
    monkeypatch.setattr(solver, "_PICARD_MAX_ITER", 1)
    sol = sq.picard_solve(sq.make_generator("zero", 1.5), sq.make_terminal("bt"),
                          grid24, bundle24, poly_basis)
    # no feedback: the warm start is already the fixed point the implicit sweep reaches
    implicit = sq.solve_bounded(sq.make_generator("zero", 1.5), sq.make_terminal("bt"),
                                grid24, bundle24, poly_basis)
    assert np.max(np.abs(sol.Y - implicit.Y)) < 1e-12


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
    x = bundle24.levels[:, j, 0]
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


def test_solver_divergence_reports_step(grid24, bundle24, poly_basis, monkeypatch):
    monkeypatch.setattr(solver, "_FP_TOL", 1e-16)
    monkeypatch.setattr(solver, "_FP_MAX_ITER", 2)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    with pytest.raises(SolverDivergedError) as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, poly_basis)
    assert err.value.step_index == grid24.steps - 1


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_bin_fallback_divergence_reports_step(grid24, bundle24, basis_fixture, request):
    # y = E[Y_next] + 2 y has a root, but its residual increases along every
    # step (dt * dg/dy = 2 >= 1), so the secant rejects the ill-posed step on
    # its second sweep, per bin and per rung alike, instead of returning that
    # root or running to the sweep cap
    dt = float(grid24.dt[0])
    g, calls = _counted(sq.make_generator("linear", 1.5, b_y=2.0 / dt, b_z=0.0), frozen=False)
    with pytest.raises(SolverDivergedError, match=r"at step 23 \(last gap .*\): the residual "
                                                  r"rose along the step \(dt \* dg/dy >= 1\)$") as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, request.getfixturevalue(basis_fixture))
    assert err.value.step_index == grid24.steps - 1
    assert err.value.cause.startswith("the residual rose") and len(calls) == 2


def test_bin_sweep_cap_reports_step(grid24, bundle24, bins_basis, monkeypatch):
    monkeypatch.setattr(solver, "_FP_MAX_ITER", 1)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.0)
    with pytest.raises(SolverDivergedError, match=r"\): not settled after 1 sweeps$") as err:
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, bins_basis)
    assert err.value.step_index == grid24.steps - 1


def _nan_before_half_way(t, b, y, z):
    # finite on the last half of the horizon, NaN from t < 1/2 on: the first
    # step that sees it (backwards) is the one with node 11/24
    return np.full(np.shape(y), np.nan if t < 0.5 else 0.0)


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_non_finite_driver_names_step(grid24, bundle24, basis_fixture, request):
    g = dataclasses.replace(sq.make_generator("zero", 1.5), fn=_nan_before_half_way)
    with pytest.raises(PreconditionViolationError, match=r"at step 11\b"):
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0),
                         grid24, bundle24, request.getfixturevalue(basis_fixture))


def test_opposite_infinities_in_one_bin_name_the_step(grid24, bundle24, bins_basis):
    # an untruncated driver with +inf and -inf on two paths of one bin at the
    # node 11/24: their bin mean is NaN, and the per-path search names the step
    proj = bundle24.projectors(bins_basis)[11]
    first, second = np.flatnonzero(proj.idx == proj.idx[0])[:2]

    def fn(t, b, y, z):
        out = np.zeros(np.shape(y))
        if t == grid24.nodes[11]:
            out[first], out[second] = np.inf, -np.inf
        return out

    g = dataclasses.replace(sq.make_generator("zero", 1.5), fn=fn)
    with pytest.raises(PreconditionViolationError, match=r"non-finite values at step 11$"):
        sq.solve_bounded(g, sq.make_terminal("constant", value=1.0), grid24, bundle24, bins_basis)


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

    levels = bundle.levels
    for j in range(grid.steps):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        b, z = levels[:, j, :], sol.Z[:, j, :]
        proj = basis.projector(b)
        m = proj.coords(sol.Y[:, j + 1])
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


def test_picard_iteration_limit(grid24, bundle24, poly_basis, monkeypatch):
    monkeypatch.setattr(solver, "_PICARD_MAX_ITER", 1)
    monkeypatch.setattr(solver, "_PICARD_TOL", 1e-12)
    g = sq.make_generator("linear", 1.5, b_y=0.0, b_z=0.5)
    with pytest.raises(IterationLimitError) as err:
        sq.picard_solve(g, sq.make_terminal("bt"), grid24, bundle24, poly_basis)
    assert err.value.gap > 0.0


def _z_step(proj, y_next, m_fit, b, b_next, dt):
    # centered martingale-increment estimator: E_t[(Y_{t+dt} - E_t Y_{t+dt}) dB] / dt
    centered = y_next - m_fit
    weighted = b_next - b
    weighted *= centered[:, None]
    return proj.fit(weighted) / dt


def _fit_rank(basis, state):
    # the dimension of the fitted span: nonempty bins, or the feature matrix's rank
    if basis.kind == "piecewise-constant-bins":
        return len(np.unique(basis.bin_indices(state)))
    return int(np.linalg.matrix_rank(basis.features(state)))


def _picard_fresh_buffers(g, xi, grid, bundle, basis, max_iter=60, tol=1e-8):
    """Reference Picard loop: fresh Y/Z buffers every sweep, gap over the whole
    field.  Returns (Y, Z, fit_noise, gap); fit_noise is None without convergence."""
    levels = bundle.levels
    M, N = bundle.count, grid.steps
    xi_vals = solver._terminal_values(xi, bundle)
    projs = bundle.projectors(basis)
    ranks = [_fit_rank(basis, levels[:, j, :]) for j in range(N)]
    # step-major like the solver: the rank-1 projector at node 0 sums a
    # contiguous column in another order than a strided one
    Y = np.zeros((N + 1, M)).T
    Z = np.zeros((N, M, bundle.dims)).transpose(1, 0, 2)
    Y[:, N] = xi_vals
    for j in reversed(range(N)):
        m_fit = projs[j].fit(Y[:, j + 1])
        Y[:, j] = m_fit
        Z[:, j, :] = _z_step(projs[j], Y[:, j + 1], m_fit,
                             levels[:, j, :], levels[:, j + 1, :], float(grid.dt[j]))
    gap = math.inf
    step_noise_sq = np.zeros(N)
    for _ in range(max_iter):
        Y_new = np.empty_like(Y)
        Z_new = np.empty_like(Z)
        Y_new[:, N] = xi_vals
        for j in reversed(range(N)):
            t, dt, proj = float(grid.nodes[j]), float(grid.dt[j]), projs[j]
            frozen = g(t, levels[:, j, :], Y[:, j], Z[:, j, :])
            m_fit = proj.fit(Y_new[:, j + 1])
            target = Y_new[:, j + 1] + dt * frozen
            Y_new[:, j] = proj.fit(target)
            Z_new[:, j, :] = _z_step(proj, Y_new[:, j + 1], m_fit,
                                     levels[:, j, :], levels[:, j + 1, :], dt)
            # residual sum of squares on M - rank degrees of freedom, times rank / M
            resid = target - Y_new[:, j]
            rss = np.sum((resid - resid.mean()) ** 2)
            step_noise_sq[j] = rss / (M - ranks[j]) * ranks[j] / M if M > ranks[j] else math.inf
        gap = float(max(np.max(np.abs(Y_new - Y)), np.max(np.abs(Z_new - Z))))
        Y, Z = Y_new, Z_new
        if gap < tol:
            return Y, Z, solver._fit_noise(step_noise_sq), gap
    return Y, Z, None, gap


def _close(x, ref, tol=1e-12):
    return bool(np.all(np.abs(np.asarray(x) - ref) <= tol * (1.0 + np.abs(ref))))


def test_picard_reused_buffers_match_fresh_buffer_reference(grid24, poly_basis, monkeypatch):
    # picard_solve runs in projector coordinates, the reference fits path by
    # path: equal to rounding
    bundle = sq.sample_paths(grid24, 1, 3000, 17)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    Y, Z, fit_noise, _ = _picard_fresh_buffers(g, xi, grid24, bundle, poly_basis)
    assert fit_noise is not None
    sol = sq.picard_solve(g, xi, grid24, bundle, poly_basis)
    assert _close(sol.Y, Y)
    assert _close(sol.Z, Z)
    assert _close(sol.fit_noise, fit_noise)

    _, _, _, gap = _picard_fresh_buffers(g, xi, grid24, bundle, poly_basis, max_iter=1)
    monkeypatch.setattr(solver, "_PICARD_MAX_ITER", 1)
    with pytest.raises(IterationLimitError) as err:
        sq.picard_solve(g, xi, grid24, bundle, poly_basis)
    assert _close(err.value.gap, gap)


def test_picard_on_bins_matches_fresh_buffer_reference_and_implicit_solve(grid24):
    bins30 = sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)
    bundle = sq.sample_paths(grid24, 1, 3000, 19)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    Y, Z, fit_noise, _ = _picard_fresh_buffers(g, xi, grid24, bundle, bins30)
    assert fit_noise is not None
    sol = sq.picard_solve(g, xi, grid24, bundle, bins30)
    assert _close(sol.Y, Y) and _close(sol.Z, Z) and _close(sol.fit_noise, fit_noise)
    implicit = sq.solve_bounded(g, xi, grid24, bundle, bins30)
    assert np.max(np.abs(sol.Y - implicit.Y)) <= 1e-6


def test_picard_in_two_dimensions_matches_fresh_buffer_reference(poly_basis):
    grid = sq.build_grid(1.0, 6, "uniform")
    bundle = sq.sample_paths(grid, 2, 1500, 31)
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
    xi = sq.TerminalData(lambda b: np.clip(b[:, 0] + 0.5 * b[:, 1], -3.0, 3.0), "mix")
    Y, Z, fit_noise, _ = _picard_fresh_buffers(g, xi, grid, bundle, poly_basis)
    assert fit_noise is not None
    sol = sq.picard_solve(g, xi, grid, bundle, poly_basis)
    assert _close(sol.Y, Y) and _close(sol.Z, Z) and _close(sol.fit_noise, fit_noise)


def _picard_peak(grid, basis):
    """Traced peak of a 4000-path Picard solve, and the bytes of its whole (Y, Z)."""
    bundle = sq.sample_paths(grid, 1, 4000, 23)
    bundle.projectors(basis)               # the bundle's own caches outlive any solve
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    tracemalloc.start()
    try:
        sol = sq.picard_solve(g, xi, grid, bundle, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sol.Y.nbytes + sol.Z.nbytes


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_picard_holds_one_field(grid24, basis_fixture, request):
    # the iterate is overwritten node by node: no second (Y, Z) pair is alive
    peak, field = _picard_peak(grid24, request.getfixturevalue(basis_fixture))
    assert peak <= 1.5 * field, (peak, field)


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_picard_holds_no_per_path_field_while_it_iterates(grid24, basis_fixture, request):
    # the iterate lives in projector coordinates: a step expands only its own
    # node's columns, so the peak stays far below one whole (Y, Z) field
    peak, field = _picard_peak(grid24, request.getfixturevalue(basis_fixture))
    assert peak <= 0.5 * field, (peak, field)


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_picard_non_finite_driver_names_step(grid24, bundle24, basis_fixture, request):
    g = dataclasses.replace(sq.make_generator("zero", 1.5), fn=_nan_before_half_way)
    with pytest.raises(PreconditionViolationError, match=r"at step 11\b"):
        sq.picard_solve(g, sq.make_terminal("constant", value=1.0),
                        grid24, bundle24, request.getfixturevalue(basis_fixture))


def test_picard_driver_returning_a_view_of_its_inputs(grid24, poly_basis):
    # g(t, b, y, z) = y handed back as its own input column: the step reads it
    # after it has updated that node's coordinates
    bundle = sq.sample_paths(grid24, 1, 2000, 29)
    linear = sq.make_generator("linear", 1.5, b_y=1.0, b_z=0.0)
    g = dataclasses.replace(linear, fn=lambda t, b, y, z: y)
    ref = sq.picard_solve(linear, sq.make_terminal("bt"), grid24, bundle, poly_basis)
    sol = sq.picard_solve(g, sq.make_terminal("bt"), grid24, bundle, poly_basis)
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.fit_noise, ref.fit_noise)


def _picard_measuring_every_step(g, xi, grid, bundle, basis, max_iter, tol):
    """Reference: `picard_solve`'s loop measuring every step of every sweep,
    in the same operations and order.  Returns (Y, Z, fit_noise, gaps), with
    one gap per sweep run and fit_noise None without convergence."""
    levels = bundle.levels
    M, N, d = bundle.count, grid.steps, bundle.dims
    projs = bundle.projectors(basis)
    Y = paths.step_major_empty((M, N + 1))
    Z = paths.step_major_empty((M, N, d))
    Y[:, N] = solver._terminal_values(xi, bundle)
    C, G = [None] * N, [None] * N
    nxt, a = Y[:, N, None], np.ones(1)
    for j in reversed(range(N)):
        proj, dt = projs[j], float(grid.dt[j])
        db = levels[:, j + 1, :] - levels[:, j, :]
        C[j] = proj.cross([nxt])[0]
        G[j] = np.empty((d,) + C[j].shape)
        for k in range(d):
            D, E = proj.cross([nxt, proj], db[:, k])
            G[j][k] = (D - E @ C[j]) / dt
        Z[:, j, :] = proj.expand((G[j] @ a).T)
        a = C[j] @ a
        Y[:, j] = proj.expand(a)
        nxt = proj
    diff = np.empty(M)
    step_gap, step_noise_sq, gaps = np.empty(N), np.zeros(N), []
    for _ in range(max_iter):
        a = np.ones(1)
        for j in reversed(range(N)):
            dt, proj = float(grid.dt[j]), projs[j]
            frozen = g(float(grid.nodes[j]), levels[:, j, :], Y[:, j], Z[:, j, :])
            z = proj.expand((G[j] @ a).T)
            a = C[j] @ a + dt * proj.coords(frozen)
            y = proj.expand(a)
            np.multiply(frozen, dt, out=diff)
            diff += Y[:, j + 1]
            diff -= y
            step_noise_sq[j] = proj.noise_sq(diff)
            np.abs(np.subtract(y, Y[:, j], out=diff), out=diff)
            step_gap[j] = np.max(diff)
            for k in range(d):
                np.abs(np.subtract(z[:, k], Z[:, j, k], out=diff), out=diff)
                step_gap[j] = np.maximum(step_gap[j], np.max(diff))
            Y[:, j] = y
            Z[:, j, :] = z
        gaps.append(float(np.max(step_gap)))
        if gaps[-1] < tol:
            return Y, Z, solver._fit_noise(step_noise_sq), gaps
    return Y, Z, None, gaps


def _mixed_terminal(b):
    b = np.atleast_2d(b)
    return np.clip(b[:, 0] + 0.5 * b[:, -1], -3.0, 3.0)


_LINEAR = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
# (driver, dims, basis): drivers handing back node j's own Y or Z column
_PICARD_CASES = {
    "poly-d1": (_LINEAR, 1, sq.RegressionBasis("polynomial", 3)),
    "poly-d2": (_LINEAR, 2, sq.RegressionBasis("polynomial", 3)),
    "bins-d1": (_LINEAR, 1, sq.RegressionBasis("piecewise-constant-bins", 20, lo=-4.5, hi=4.5)),
    "y-view-d1": (dataclasses.replace(_LINEAR, fn=lambda t, b, y, z: y), 1,
                  sq.RegressionBasis("polynomial", 3)),
    "z-view-d2": (dataclasses.replace(_LINEAR, fn=lambda t, b, y, z: z[:, 1]), 2,
                  sq.RegressionBasis("polynomial", 3)),
}


@pytest.mark.parametrize("case", sorted(_PICARD_CASES))
def test_picard_matches_the_loop_measuring_every_step_bit_for_bit(grid24, case):
    g, dims, basis = _PICARD_CASES[case]
    bundle = sq.sample_paths(grid24, dims, 2000, 37)
    xi = sq.TerminalData(_mixed_terminal, "mix")
    Y, Z, fit_noise, gaps = _picard_measuring_every_step(
        g, xi, grid24, bundle, basis, solver._PICARD_MAX_ITER, solver._PICARD_TOL)
    assert fit_noise is not None and len(gaps) > 2
    sol = sq.picard_solve(g, xi, grid24, bundle, basis)
    assert np.array_equal(sol.Y, Y)
    assert np.array_equal(sol.Z, Z)
    assert np.array_equal(sol.fit_noise, fit_noise)


def test_picard_iteration_limit_reports_the_whole_last_sweeps_gap(grid24, poly_basis,
                                                                  monkeypatch):
    bundle = sq.sample_paths(grid24, 1, 2000, 37)
    xi = sq.TerminalData(_mixed_terminal, "mix")
    _, _, fit_noise, gaps = _picard_measuring_every_step(
        _LINEAR, xi, grid24, bundle, poly_basis, 3, solver._PICARD_TOL)
    assert fit_noise is None and len(gaps) == 3
    monkeypatch.setattr(solver, "_PICARD_MAX_ITER", 3)
    with pytest.raises(IterationLimitError) as err:
        sq.picard_solve(_LINEAR, xi, grid24, bundle, poly_basis)
    assert err.value.gap == gaps[2]


def test_picard_measures_every_step_of_its_last_sweep_only(grid24, poly_basis, monkeypatch):
    bundle = sq.sample_paths(grid24, 1, 2000, 37)
    N = grid24.steps
    step_of = {id(p): j for j, p in enumerate(bundle.projectors(poly_basis))}
    measured, calls = [], [0]
    noise_sq = paths._Projector.noise_sq

    def counted_noise_sq(self, resid):
        measured.append(step_of[id(self)])
        return noise_sq(self, resid)

    def counted_driver(t, b, y, z):
        calls[0] += 1
        return _LINEAR.fn(t, b, y, z)

    monkeypatch.setattr(paths._Projector, "noise_sq", counted_noise_sq)
    g = dataclasses.replace(_LINEAR, fn=counted_driver)
    sq.picard_solve(g, sq.TerminalData(_mixed_terminal, "mix"), grid24, bundle, poly_basis)
    sweeps, rest = divmod(calls[0], N)
    assert rest == 0 and sweeps > 2
    # each sweep measures from step N - 1 down: a new sweep starts where j stops falling
    runs = [[measured[0]]]
    for prev, j in zip(measured, measured[1:]):
        if j < prev:
            runs[-1].append(j)
        else:
            runs.append([j])
    assert len(runs) == sweeps and all(r[0] == N - 1 for r in runs)
    assert runs[-1] == list(reversed(range(N)))
    assert len(measured) < sweeps * N


def test_per_step_slices_are_contiguous(poly_basis):
    # the step-major layout: every per-step slice a solver step reads or
    # writes is one contiguous block
    grid = sq.build_grid(1.0, 6, "uniform")
    bundle = sq.sample_paths(grid, 2, 300, 5)
    for j in range(grid.steps + 1):
        assert bundle.levels[:, j, :].flags.c_contiguous
    g = sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5)
    xi = sq.TerminalData(lambda b: np.atleast_2d(b)[:, 0], "bt1")
    for name, sol in (("implicit", sq.solve_bounded(g, xi, grid, bundle, poly_basis)),
                      ("picard", sq.picard_solve(g, xi, grid, bundle, poly_basis))):
        assert sol.Y.shape == (300, 7) and sol.Z.shape == (300, 6, 2)
        for j in range(grid.steps + 1):
            assert sol.Y[:, j].flags.c_contiguous, (name, j)
        for j in range(grid.steps):
            assert sol.Z[:, j, :].flags.c_contiguous, (name, j)


def test_non_finite_terminal_rejected(grid24, bundle24, poly_basis):
    bad = sq.TerminalData(lambda b: np.full(np.atleast_2d(b).shape[0], np.nan), "nan")
    with pytest.raises(PreconditionViolationError):
        sq.solve_bounded(sq.make_generator("zero", 1.5), bad, grid24, bundle24, poly_basis)


def test_ladder_constant_when_truncation_inactive(grid24, bundle24, poly_basis):
    g = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("constant", value=0.5)
    lad = sq.solve_ladder(g, xi, grid24, bundle24, poly_basis, [1, 2, 4], [1, 2, 4])
    assert lad.violations == 0
    assert all(gap == 0.0 for gap in lad.diagonal_gaps)


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_one_path_ladder_counts_no_comparisons(grid24, example1, basis_fixture, request):
    # one path: every regression interpolates it, so the allowance is inf and
    # no order is evidenced, though the clamped terminal values are ordered
    bundle = sq.sample_paths(grid24, 1, 1, 7)
    lad = sq.solve_ladder(example1, sq.make_terminal("clamp-bt", bound=3.0), grid24, bundle,
                          request.getfixturevalue(basis_fixture), [1, 2, 4], [1, 2, 4])
    assert np.all(np.isinf(lad.final.fit_noise[:-1])) and lad.final.fit_noise[-1] == 0.0
    assert (lad.violations, lad.comparisons) == (0, 0)
    assert math.isnan(lad.violation_fraction)
    assert lad.verdict == "indeterminate"


@pytest.mark.parametrize("violations, comparisons, gaps, verdict",
                         [(5, 1000, (0.3, 0.2, 0.2), "satisfied"),
                          (6, 1000, (0.3, 0.2, 0.1), "violated"),
                          (0, 1000, (0.3, 0.1, 0.2), "violated"),
                          (0, 0, (0.3, 0.2, 0.1), "indeterminate"),
                          (0, 0, (0.1, 0.2), "violated"),
                          (0, 1000, (), "satisfied")],
                         ids=["at-limit", "fraction", "rising-gap", "no-comparisons",
                              "no-comparisons-rising-gap", "one-level"])
def test_ladder_verdict_is_the_order_rule_with_non_increasing_gaps(violations, comparisons,
                                                                   gaps, verdict):
    lad = solver.LadderResult(final=None, violations=violations, comparisons=comparisons,
                              diagonal_gaps=gaps, n_levels=(1, 2, 4), q_levels=(1, 2, 4))
    assert lad.verdict == verdict


def test_ladder_zero_driver_clamped_gaussian_oracle(bins_basis):
    # g = 0, xi = B_T: each rung is the regression estimate of a clamped
    # Gaussian conditional mean, nondecreasing in the positive clamp
    grid = sq.build_grid(1.0, 4, "uniform")
    bundle = sq.sample_paths(grid, 1, 200_000, 77)
    g = sq.make_generator("zero", 1.5)
    xi = sq.make_terminal("bt")
    lad = sq.solve_ladder(g, xi, grid, bundle, bins_basis, [1, 2, 4], [1, 2, 4])
    assert lad.violation_fraction <= 0.005

    def clamped_mean(x, lo, hi, s2):
        # E[clip(x + N(0, s2), lo, hi)]
        s = math.sqrt(s2)
        a, b = (lo - x) / s, (hi - x) / s
        return (lo * norm.cdf(a) + hi * norm.sf(b)
                + x * (norm.cdf(b) - norm.cdf(a)) - s * (norm.pdf(b) - norm.pdf(a)))

    j = grid.steps - 1                  # one regression from the terminal
    t = grid.nodes[j]
    x = bundle.levels[:, j, 0]
    idx = bins_basis.bin_indices(x[:, None])
    prev = None
    for n in (1, 2, 4):
        rung = TruncationIndex(n, 1)
        field = sq.solve_bounded(truncate_generator(g, rung), truncate_terminal(xi, rung),
                                 grid, bundle, bins_basis).Y[:, j]
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


def _reference_ladder(g, xi, grid, bundle, basis, levels, order_tol=1e-10):
    """Every rung cached, whole-field order counts: what the streamed ladder must reproduce."""
    cache = {}

    def solved(n, q):
        if (n, q) not in cache:
            idx = TruncationIndex(n, q)
            cache[(n, q)] = sq.solve_bounded(truncate_generator(g, idx),
                                             truncate_terminal(xi, idx), grid, bundle, basis)
        return cache[(n, q)]

    violations = comparisons = 0

    def count(low, high):
        nonlocal violations, comparisons
        allowance = 3.0 * (low.fit_noise + high.fit_noise)[None, :]
        tol = allowance + order_tol * (1.0 + np.abs(high.Y))
        violations += int(np.sum(low.Y > high.Y + tol))
        comparisons += low.Y.size

    pairs = list(zip(levels, levels[1:]))
    for a, b in pairs:
        count(solved(a, levels[0]), solved(b, levels[0]))
    for a, b in pairs:
        count(solved(levels[0], b), solved(levels[0], a))
    gaps = tuple(float(np.max(np.mean(np.abs(solved(b, b).Y - solved(a, a).Y), axis=0)))
                 for a, b in pairs)
    return solved(levels[-1], levels[-1]), violations, comparisons, gaps


@pytest.mark.parametrize("example", ["example1", "example2"])
@pytest.mark.parametrize("basis", [sq.RegressionBasis("polynomial", 3),
                                   sq.RegressionBasis("piecewise-constant-bins", 30,
                                                      lo=-4.8, hi=4.8)],
                         ids=["polynomial", "bins30"])
def test_streamed_ladder_matches_cached_reference(example, basis):
    grid = sq.build_grid(1.0, 12, "uniform")
    bundle = sq.sample_paths(grid, 1, 3000, 11)
    g = sq.make_generator(example, 1.5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    levels = [1, 2, 4, 8, 16]
    lad = sq.solve_ladder(g, xi, grid, bundle, basis, levels, levels)
    final, violations, comparisons, gaps = _reference_ladder(g, xi, grid, bundle, basis, levels)
    assert (lad.violations, lad.comparisons, lad.diagonal_gaps) == (violations, comparisons, gaps)
    assert np.array_equal(lad.final.Y, final.Y) and np.array_equal(lad.final.Z, final.Z)
    assert np.array_equal(lad.final.fit_noise, final.fit_noise)
    assert lad.n_levels == lad.q_levels == tuple(levels)
    if basis.kind == "polynomial":
        assert lad.violations > 0           # the comparison counts real violations
    assert lad.verdict == "satisfied"       # below 0.5% of the pairs, gaps falling


def _counted(gen, frozen):
    """Copy of ``gen`` counting driver evaluations; with ``frozen`` it keeps the
    step-frozen form (counting its calls), else its fn is a plain wrapper and
    `Generator.at` takes the default path."""
    calls = []

    def fn(t, b, y, z):
        calls.append(len(y))
        return gen.fn(t, b, y, z)

    if frozen:
        def freeze(t, b, z, idx=None):
            at = gen.fn.freeze(t, b, z, idx)

            def counted(y):
                out = at(y)
                calls.append(out.size)
                return out

            return counted

        fn.freeze = freeze
    return dataclasses.replace(gen, fn=fn), calls


def _per_rung_default_path(g, n, q):
    """`generators.truncated_at` for stacked rungs, rebuilt from one
    `truncate_generator` per rung behind a plain fn (the default `at` path)."""
    gens = [_counted(truncate_generator(g, TruncationIndex(int(a), int(b))), frozen=False)[0]
            for a, b in zip(n[:, 0], q[:, 0])]

    def at(t, b, z, idx=None):
        ats = [gen.at(t, b, z_r, idx) for gen, z_r in zip(gens, z)]
        return lambda y: np.stack([at_r(y_r) for at_r, y_r in zip(ats, y)])

    return at


def _same_field(a, b):
    return (np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z)
            and np.array_equal(a.fit_noise, b.fit_noise))


def test_step_frozen_ladder_matches_default_path(grid24, monkeypatch):
    bundle = sq.sample_paths(grid24, 1, 2000, 5)
    basis = sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    base = sq.make_generator("example1", 1.5)
    levels = [1, 2, 4, 8, 16]
    g, frozen_calls = _counted(base, frozen=True)
    lad = sq.solve_ladder(g, xi, grid24, bundle, basis, levels, levels)
    # the default path for the truncation as well as for example 1: each rung
    # of a walk clamped by its own truncated generator through a plain fn
    monkeypatch.setattr(solver, "truncated_at", _per_rung_default_path)
    g, plain_calls = _counted(base, frozen=False)
    ref = sq.solve_ladder(g, xi, grid24, bundle, basis, levels, levels)
    assert _same_field(lad.final, ref.final)
    assert (lad.violations, lad.comparisons, lad.diagonal_gaps, lad.n_levels, lad.q_levels) == \
        (ref.violations, ref.comparisons, ref.diagonal_gaps, ref.n_levels, ref.q_levels)
    # one stacked call per walk and sweep against one call per rung and sweep
    assert sum(frozen_calls) == sum(plain_calls) and len(frozen_calls) > 3 * grid24.steps


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_step_frozen_polynomial_solve_matches_default_path(example, grid24, bundle24, poly_basis):
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    g, frozen_calls = _counted(sq.make_generator(example, 1.5), frozen=True)
    sol = sq.solve_bounded(g, xi, grid24, bundle24, poly_basis)
    g, plain_calls = _counted(sq.make_generator(example, 1.5), frozen=False)
    ref = sq.solve_bounded(g, xi, grid24, bundle24, poly_basis)
    assert _same_field(sol, ref)
    assert frozen_calls == plain_calls and len(frozen_calls) > grid24.steps


@pytest.mark.parametrize("n_max, q_max", [(16, 4), (4, 16), (16, 1)])
def test_ladder_of_unequal_lengths_ends_at_top_rung(n_max, q_max, grid24, bins_basis, example1):
    bundle = sq.sample_paths(grid24, 1, 2000, 5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    lv_n, lv_q = cli._doubling_levels(n_max), cli._doubling_levels(q_max)
    lad = sq.solve_ladder(example1, xi, grid24, bundle, bins_basis, lv_n, lv_q)
    top = TruncationIndex(n_max, q_max)
    direct = sq.solve_bounded(truncate_generator(example1, top), truncate_terminal(xi, top),
                              grid24, bundle, bins_basis)
    assert np.array_equal(lad.final.Y, direct.Y) and np.array_equal(lad.final.Z, direct.Z)
    # the diagonal holds the shorter ladder at its top level: one gap per step of the longer
    longer = max(len(lv_n), len(lv_q))
    assert len(lad.diagonal_gaps) == longer - 1
    rungs = len(lv_n) + len(lv_q) - 2
    assert lad.comparisons == rungs * bundle.count * (grid24.steps + 1)


def test_ladder_sorts_both_level_lists_and_drops_repeats(grid24, bins_basis, example1):
    bundle = sq.sample_paths(grid24, 1, 2000, 5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    lad = sq.solve_ladder(example1, xi, grid24, bundle, bins_basis, [4, 1, 2, 2], [2, 1])
    ref = sq.solve_ladder(example1, xi, grid24, bundle, bins_basis, [1, 2, 4], [1, 2])
    for a, b in ((lad.final.Y, ref.final.Y), (lad.final.fit_noise, ref.final.fit_noise)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert (lad.violations, lad.comparisons, lad.diagonal_gaps, lad.n_levels, lad.q_levels) == \
        (ref.violations, ref.comparisons, ref.diagonal_gaps, ref.n_levels, ref.q_levels)
    assert (lad.n_levels, lad.q_levels) == ((1, 2, 4), (1, 2)) and lad.comparisons > 0


@pytest.mark.parametrize("n_levels, q_levels, name", [([], [1], "n_levels"), ([1], [], "q_levels")])
def test_ladder_names_an_empty_level_list_before_solving(n_levels, q_levels, name, grid24,
                                                         bins_basis, example1, monkeypatch):
    bundle = sq.sample_paths(grid24, 1, 10, 5)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    monkeypatch.setattr(solver, "_backward", None)      # a solve would call it
    with pytest.raises(ValueError, match=f"^{name} is empty"):
        sq.solve_ladder(example1, xi, grid24, bundle, bins_basis, n_levels, q_levels)


def _walk(g, xi, grid, bundle, basis, rungs):
    """Y, Z and fit noise of every rung, from one stacked pass of the solver's
    kernel."""
    n, q = (np.array([[k[i]] for k in rungs], dtype=float) for i in (0, 1))
    y_end = np.stack([truncate_terminal(xi, TruncationIndex(*k))(bundle.terminal()) for k in rungs])
    R, M, N = len(rungs), bundle.count, grid.steps
    Y, noise = np.empty((R, M, N + 1)), np.empty((R, N + 1))
    Z = np.empty((R, M, N, bundle.dims))
    steps = solver._backward(truncated_at(g, n, q), y_end, grid, bundle, basis, rungs)
    for j, y, _, zc, nz in steps:
        Y[:, :, j], noise[:, j] = y, nz
        if zc is not None:      # Z's coordinates, divided by dt after expansion
            for r in range(R):
                Z[r, :, j] = bundle.projectors(basis)[j].expand(zc[r]) / grid.dt[j]
    return Y, noise, Z


@pytest.mark.parametrize("basis", [sq.RegressionBasis("polynomial", 3),
                                   sq.RegressionBasis("piecewise-constant-bins", 30,
                                                      lo=-4.8, hi=4.8)],
                         ids=["polynomial", "bins30"])
def test_every_rung_of_a_walk_matches_its_own_solve(basis, example1):
    grid = sq.build_grid(1.0, 12, "uniform")
    bundle = sq.sample_paths(grid, 1, 400, 13)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    if basis.kind != "polynomial":      # the outer bins hold no path
        assert min(np.bincount(p.idx, minlength=30).min() for p in bundle.projectors(basis)) == 0
    sweeps = set()
    for rungs in ([(1, 1), (2, 1), (4, 1), (8, 1), (16, 1)], [(1, 2), (1, 4), (1, 16)],
                  [(2, 2), (4, 4), (16, 16)]):
        Y, noise, Z = _walk(example1, xi, grid, bundle, basis, rungs)
        for r, rung in enumerate(rungs):
            idx = TruncationIndex(*rung)
            g, calls = _counted(truncate_generator(example1, idx), frozen=True)
            ref = sq.solve_bounded(g, truncate_terminal(xi, idx), grid, bundle, basis)
            assert np.array_equal(Y[r], ref.Y), rung
            assert np.array_equal(noise[r], ref.fit_noise), rung
            assert np.array_equal(Z[r], ref.Z), rung
            sweeps.add(len(calls))
    assert len(sweeps) > 1              # the rungs of a pass settle after different sweeps


def _switch_driver(value):
    # 0 below y = 2.5, ``value`` above: with xi = 3 only the rungs n >= 4 see it
    return dataclasses.replace(sq.make_generator("zero", 1.5),
                               fn=lambda t, b, y, z: np.where(np.asarray(y) > 2.5, value, 0.0))


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_ladder_failure_names_step_and_rung(grid24, bundle24, basis_fixture, request,
                                            monkeypatch):
    basis = request.getfixturevalue(basis_fixture)
    xi = sq.make_terminal("constant", value=3.0)
    last = grid24.steps - 1
    with pytest.raises(PreconditionViolationError,
                       match=rf"non-finite values at step {last}, rung \(4, 1\)$"):
        sq.solve_ladder(_switch_driver(np.nan), xi, grid24, bundle24, basis, [1, 2, 4], [1, 2, 4])
    # one sweep settles the rungs where g = 0, not the first one where it is 1
    monkeypatch.setattr(solver, "_FP_MAX_ITER", 1)
    with pytest.raises(SolverDivergedError,
                       match=rf"diverged at step {last}, rung \(4, 1\) \(last gap") as err:
        sq.solve_ladder(_switch_driver(1.0), xi, grid24, bundle24, basis, [1, 2, 4], [1, 2, 4])
    assert (err.value.step_index, err.value.rung) == (last, (4, 1))
    # a solve of its own names no rung
    with pytest.raises(SolverDivergedError, match=rf"at step {last} \(last gap"):
        sq.solve_bounded(truncate_generator(_switch_driver(1.0), TruncationIndex(4, 1)),
                         xi, grid24, bundle24, basis)


def test_ladder_memory_holds_three_rungs(bins_basis, example1):
    grid = sq.build_grid(1.0, 8, "uniform")
    bundle = sq.sample_paths(grid, 1, 20_000, 3)
    bundle.projectors(bins_basis)           # the bundle's own caches outlive any ladder
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    levels = [1, 2, 4, 8, 16]
    tracemalloc.start()
    try:
        lad = sq.solve_ladder(example1, xi, grid, bundle, bins_basis, levels, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rung = lad.final.Y.nbytes + lad.final.Z.nbytes
    # live: two neighbour Ys (9 nodes) and one whole rung (9 + 8) = 35/17 ~ 2.1 rungs, plus
    # ~0.7 of per-step temporaries; caching all 13 rungs with float32 snapshots held ~16.4
    assert peak <= 4 * rung, (peak, rung)
    # in path columns of M floats: 34.2; a per-step (5 M) int64 stacked bin index held 38.2
    assert peak <= 36 * bundle.count * 8, peak / (bundle.count * 8)


def test_theta_residual_identities(grid24, bundle24, poly_basis, example2):
    idx = TruncationIndex(16, 16)
    gt = truncate_generator(example2, idx)
    xi_lo = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0, shift=1.0), idx)
    lo = sq.solve_bounded(gt, xi_lo, grid24, bundle24, poly_basis)
    hi = sq.solve_bounded(gt, xi_hi, grid24, bundle24, poly_basis)

    same = theta_residual(lo, lo, 0.3, g=gt, g_prime=gt)
    assert np.allclose(same.dU, lo.Y) and np.allclose(same.dV, lo.Z)

    zero = sq.make_generator("zero", 1.5)
    ones = sq.solve_bounded(zero, sq.make_terminal("constant", value=1.0),
                            grid24, bundle24, poly_basis)
    half = theta_residual(ones, ones, 0.5, g=zero, g_prime=zero)
    assert np.allclose(half.dU, 1.0, atol=1e-9)

    tr = theta_residual(lo, hi, 0.7, g=gt, g_prime=gt)
    xi_vals = xi_lo(bundle24.terminal())
    assert np.all(np.maximum(tr.dU[:, -1], 0.0) <= np.maximum(xi_vals, 0.0) + 1e-12)
    assert tr.consistency.max() < 1.0


def test_theta_residual_matches_whole_field_reference(grid24, bundle24, example2):
    idx = TruncationIndex(16, 16)
    gt = truncate_generator(example2, idx)
    xi_lo = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=2.0, shift=1.0), idx)
    for basis in (sq.RegressionBasis("polynomial", 3),
                  sq.RegressionBasis("piecewise-constant-bins", 20, lo=-4.5, hi=4.5)):
        lo = sq.solve_bounded(gt, xi_lo, grid24, bundle24, basis)
        hi = sq.solve_bounded(gt, xi_hi, grid24, bundle24, basis)
        theta = 0.7
        dU = (lo.Y - theta * hi.Y) / (1.0 - theta)
        dV = (lo.Z - theta * hi.Z) / (1.0 - theta)
        tr = theta_residual(lo, hi, theta, g=gt, g_prime=gt)
        assert np.array_equal(tr.dU, dU) and np.array_equal(tr.dV, dV), basis.kind
        dg = sq.theta_difference_generator(gt, gt, theta, grid24, hi.Y, hi.Z)
        assert np.array_equal(tr.consistency, solver._fitted_residual(
            lo, dg, lambda j: dU[:, j], lambda j: dV[:, j, :])), basis.kind


def _same_theta_bits(a, b):
    # every bit of dU, dV and the consistency, NaN payloads included
    return all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
               for x, y in ((a.dU, b.dU), (a.dV, b.dV), (a.consistency, b.consistency)))


def test_theta_residual_evaluates_a_shared_anchor_once(grid24, bundle24, bins_basis, example1):
    # g_prime is g: the anchor g(Y', Z') is evaluated once per node, and every
    # output equals a distinct copy's, which takes the two-evaluation path
    idx = TruncationIndex(16, 16)
    calls = []

    def counted(t, b, y, z, fn=truncate_generator(example1, idx).fn):
        calls.append(len(y))
        return fn(t, b, y, z)

    gt = dataclasses.replace(truncate_generator(example1, idx), fn=counted)
    copy = dataclasses.replace(gt, name="copy")
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx)
    xi_hi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0, shift=1.0), idx)
    lo = sq.solve_bounded(gt, xi, grid24, bundle24, bins_basis)
    hi = sq.solve_bounded(gt, xi_hi, grid24, bundle24, bins_basis)
    calls.clear()
    shared = theta_residual(lo, hi, 0.5, g=gt, g_prime=gt)
    assert calls == [bundle24.count] * (2 * grid24.steps)
    calls.clear()
    apart = theta_residual(lo, hi, 0.5, g=gt, g_prime=copy)
    assert calls == [bundle24.count] * (3 * grid24.steps)
    assert _same_theta_bits(shared, apart)


def test_theta_residual_with_a_shared_non_finite_anchor_stays_nan(grid24, bundle24, bins_basis):
    # the driver is +inf at Y' = -1, which only the anchor reaches (on path 0):
    # the (g - g') term turns inf - inf into NaN on both paths
    zero = sq.make_generator("zero", 1.5)

    def fn(t, b, y, z):
        return np.where(y == -1.0, np.inf, 0.5 * y + 0.25 * z[:, 0])

    g = dataclasses.replace(zero, fn=fn, name="spike")
    sol = sq.solve_bounded(zero, sq.make_terminal("constant", value=1.0), grid24, bundle24,
                           bins_basis)
    Yp = sol.Y.copy()
    Yp[0] = -1.0
    ref = sq.SolutionField.from_columns(Yp, sol.Z, sol.bundle, sol.basis, sol.fit_noise)
    with np.errstate(invalid="ignore"):
        shared = theta_residual(sol, ref, 0.5, g=g, g_prime=g)
        apart = theta_residual(sol, ref, 0.5, g=g, g_prime=dataclasses.replace(g, name="copy"))
    assert np.isnan(shared.consistency).all()
    assert _same_theta_bits(shared, apart)


def test_theta_residual_refuses_fields_solved_on_different_bundles(example1):
    # two 500-path fields of one shape on bundles of seeds 1 and 2; a bundle
    # re-sampled from seed 1 has equal levels and is accepted
    grid = sq.build_grid(1.0, 6, "uniform")
    basis = sq.RegressionBasis("piecewise-constant-bins", 10)
    idx = TruncationIndex(4, 4)
    gt = truncate_generator(example1, idx)
    xi, xi_hi = (truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0, shift=s), idx)
                 for s in (0.0, 1.0))
    lo = sq.solve_bounded(gt, xi, grid, sq.sample_paths(grid, 1, 500, 1), basis)
    hi = sq.solve_bounded(gt, xi_hi, grid, sq.sample_paths(grid, 1, 500, 2), basis)
    with pytest.raises(ValueError, match="path bundle"):
        theta_residual(lo, hi, 0.5, g=gt, g_prime=gt)
    again = sq.solve_bounded(gt, xi_hi, grid, sq.sample_paths(grid, 1, 500, 1), basis)
    shared = sq.solve_bounded(gt, xi_hi, grid, lo.bundle, basis)
    apart, same = (theta_residual(lo, other, 0.5, g=gt, g_prime=gt) for other in (again, shared))
    assert np.array_equal(apart.consistency, same.consistency)


def test_theta_residual_rejects_mismatch(grid24, bundle24, poly_basis):
    zero = sq.make_generator("zero", 1.5)
    sol = sq.solve_bounded(zero, sq.make_terminal("constant", value=1.0),
                           grid24, bundle24, poly_basis)
    other_grid = sq.build_grid(1.0, 12, "uniform")
    other = sq.solve_bounded(zero, sq.make_terminal("constant", value=1.0),
                             other_grid, sq.sample_paths(other_grid, 1, 100, 0),
                             poly_basis)
    with pytest.raises(ValueError):
        theta_residual(sol, other, 0.5, g=zero, g_prime=zero)
    with pytest.raises(ValueError):
        theta_residual(sol, sol, 1.5, g=zero, g_prime=zero)


def test_solution_summary_schema(grid24, bundle24, poly_basis):
    sol = sq.solve_bounded(sq.make_generator("zero", 1.5),
                           sq.make_terminal("bt"), grid24, bundle24, poly_basis)
    summary = sol.summary()
    assert list(summary) == ["time", "y_mean", "y_q05", "y_q95", "z_norm_mean"]
    assert all(len(v) == grid24.steps + 1 for v in summary.values())


@pytest.mark.parametrize("kind", ["normal", "signed-zeros", "ties", "non-finite"])
def test_summary_quantiles_are_numpys_bit_for_bit(kind):
    rng = np.random.default_rng(len(kind))
    values = {"normal": lambda n: rng.standard_normal(n),
              "signed-zeros": lambda n: rng.choice([0.0, -0.0, 1.0, -1.0], n),
              "ties": lambda n: np.round(rng.standard_normal(n), 1),
              "non-finite": lambda n: rng.choice([np.inf, -np.inf, np.nan, 1.0, -0.0], n)}[kind]
    for n in [1, 2, 3, 19, 20, 21, 101, 4000] * 10:
        y = values(n)
        with np.errstate(invalid="ignore"):         # inf - inf, in both
            expected = np.quantile(y, [0.05, 0.95])
            got = solver._q05_q95(y)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (n, y)


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
    truth = bundle.levels[:, :, 0] + 0.5 * (1.0 - grid.nodes)[None, :]
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


def _readme_config(**changes):
    from pathlib import Path

    from subquad_bsde.cli import _validate, parse_config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    return _validate(dataclasses.replace(parse_config(block), **changes))


def test_readme_config_solves_on_four_polynomial_steps(tmp_path):
    # a well-posed step whose root lies 1.6e-7 below example 1's cbrt(|y|)
    # kink at 0-, where the driver's slope is unbounded (ROADMAP item 2)
    from subquad_bsde.cli import run_experiment
    cfg = _readme_config(basis="polynomial", basis_size=3, steps=4, paths=200,
                         out=str(tmp_path / "out"))
    assert run_experiment(cfg).ladder["verdict"] == "satisfied"


@pytest.mark.parametrize("changes", [dict(paths=40, seed=2), dict(paths=40, seed=3),
                                     dict(scheme="geometric", steps=12, paths=1000)],
                         ids=["40-paths-seed-2", "40-paths-seed-3", "geometric-12-steps"])
def test_readme_config_ladder_solves_on_the_polynomial_basis(changes):
    # well-posed steps near example 1's cbrt(|y|) kink: every rung must solve
    from subquad_bsde.cli import _build_basis, _build_generator, _build_terminal
    cfg = _readme_config(basis="polynomial", basis_size=3, **changes)
    grid = sq.build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    bundle = sq.sample_paths(grid, cfg.dims, cfg.paths, cfg.seed)
    lad = sq.solve_ladder(_build_generator(cfg), _build_terminal(cfg), grid, bundle,
                          _build_basis(cfg), cfg.ladder, cfg.ladder)
    assert lad.comparisons == 8 * cfg.paths * (cfg.steps + 1)
    assert np.isfinite(lad.final.Y).all() and np.isfinite(lad.final.Z).all()
    if cfg.scheme == "uniform":
        assert lad.verdict == "satisfied"


def test_linear_driver_settles_in_three_sweeps_per_step(grid24, bundle24):
    # the secant is exact on a linear driver: a fixed-point sweep, a secant
    # sweep onto the root, and the sweep that reads its residual
    g, calls = _counted(sq.make_generator("linear", 1.5, b_y=-1.0, b_z=0.5), frozen=False)
    sq.solve_bounded(g, sq.make_terminal("clamp-bt", bound=3.0), grid24, bundle24,
                     sq.RegressionBasis("polynomial", 4))
    assert len(calls) <= 3 * grid24.steps


def _reference_bin_update(g_at, proj, m, dt, step, rungs):
    """The per-bin secant written out on its own, bins flattened: the
    reference that the shared routine must match bit for bit on bins
    (its failures only raise)."""
    R, K = m.shape
    m = m.ravel()
    c = m.copy()
    lo = np.full_like(m, -np.inf)
    hi = np.full_like(m, np.inf)
    done = np.zeros(m.shape, dtype=bool)
    c_prev = r_prev = None
    for _ in range(solver._FP_MAX_ITER):
        gval = g_at(c.reshape(R, K))
        g_mean = proj.coords_rows(gval).ravel()
        assert np.isfinite(g_mean).all()
        r = m + dt * g_mean - c
        done |= np.abs(r) < solver._FP_TOL
        if done.all():
            return c.reshape(R, K), proj.expand_rows(c.reshape(R, K)), gval
        gval = None
        lo = np.where(r > 0.0, np.maximum(lo, c), lo)
        hi = np.where(r < 0.0, np.minimum(hi, c), hi)
        if c_prev is None:
            nxt = c + r
        else:
            dc, dr = c - c_prev, r - r_prev
            moved = dc != 0.0
            assert not (moved & (dc * dr >= 0.0) & ~done).any()
            nxt = c - r * dc / np.where(moved & ~done, dr, 1.0)
            inside = (lo < nxt) & (nxt < hi)
            two_sided = np.isfinite(lo) & np.isfinite(hi)
            fallback = c + r
            np.add(lo, hi, out=fallback, where=two_sided)
            np.multiply(fallback, 0.5, out=fallback, where=two_sided)
            nxt = np.where(inside, nxt, fallback)
        c_prev, r_prev = c, r
        c = np.where(done, c, nxt)
    raise AssertionError("reference bin update did not settle")


def test_bin_steps_match_the_reference_secant_bit_for_bit(grid24, example1, monkeypatch):
    bundle = sq.sample_paths(grid24, 1, 2000, 5)
    basis = sq.RegressionBasis("piecewise-constant-bins", 30, lo=-4.8, hi=4.8)
    xi = sq.make_terminal("clamp-bt", bound=3.0)
    g, calls = _counted(example1, frozen=True)
    lad = sq.solve_ladder(g, xi, grid24, bundle, basis, [1, 2, 4], [1, 2, 4])
    shared = len(calls)

    def reference(g_at, proj, m, dt, step, rungs, bins):
        assert bins
        return _reference_bin_update(g_at, proj, m, dt, step, rungs)

    monkeypatch.setattr(solver, "_implicit_update", reference)
    del calls[:]
    ref = sq.solve_ladder(g, xi, grid24, bundle, basis, [1, 2, 4], [1, 2, 4])
    assert _same_field(lad.final, ref.final)
    assert (lad.violations, lad.comparisons, lad.diagonal_gaps) == \
        (ref.violations, ref.comparisons, ref.diagonal_gaps)
    assert shared == len(calls) > 3 * grid24.steps


# ---------------------------------------------------------------------------
# fields in projector coordinates: a node is expanded when it is read
# ---------------------------------------------------------------------------

def _dense_fill(nodes, grid, bundle, basis):
    """(Y, Z) filled column by column, as fields were stored before they held
    coordinates: Y_j = ``nodes[j]``, and Z_j the centred martingale-increment
    regression of Y_{j+1}, divided by dt after the fit."""
    M, N = bundle.count, grid.steps
    Y, Z = np.empty((M, N + 1)), np.empty((M, N, bundle.dims))
    for j in range(N + 1):
        Y[:, j] = nodes[j]
    for j, proj in enumerate(bundle.projectors(basis)):
        y_next = Y[:, j + 1]
        db = bundle.levels[:, j + 1, :] - bundle.levels[:, j, :]
        Z[:, j] = proj.fit(db * (y_next - proj.fit(y_next))[:, None]) / grid.dt[j]
    return Y, Z


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _expands_to(sol, Y, Z):
    # every node read on its own, and the whole-field expansions
    N = sol.grid.steps
    return (all(_same_bits(sol.y(j), Y[:, j]) for j in range(N + 1))
            and all(_same_bits(sol.z(j), Z[:, j, :]) for j in range(N))
            and _same_bits(sol.Y, Y) and _same_bits(sol.Z, Z))


_FIELD_CASES = {
    "bins-d1": (1, sq.RegressionBasis("piecewise-constant-bins", 20, lo=-4.5, hi=4.5)),
    "poly-d1": (1, sq.RegressionBasis("polynomial", 3)),
    "poly-d2": (2, sq.RegressionBasis("polynomial", 3)),
}


@pytest.mark.parametrize("case", sorted(_FIELD_CASES))
def test_solved_fields_expand_every_node_to_the_dense_fill(case):
    dims, basis = _FIELD_CASES[case]
    # dt = 0.1 is not a power of two: dividing before or after the expansion differs
    grid = sq.build_grid(1.0, 10, "uniform")
    bundle = sq.sample_paths(grid, dims, 1500, 41)
    g = sq.builtin_example_1(1.5, beta=0.5, gamma=0.25, d=dims)
    xi = sq.TerminalData(_mixed_terminal, "mix")
    idx = TruncationIndex(4, 4)
    gt, xi_top = truncate_generator(g, idx), truncate_terminal(xi, idx)
    # the per-node values of the top rung's own backward pass
    nodes = {j: y[0].copy() for j, y, *_ in solver._backward(
        gt.at, solver._terminal_values(xi_top, bundle)[None], grid, bundle, basis)}
    Y, Z = _dense_fill(nodes, grid, bundle, basis)
    assert _expands_to(sq.solve_bounded(gt, xi_top, grid, bundle, basis), Y, Z)
    assert _expands_to(sq.solve_ladder(g, xi, grid, bundle, basis, [1, 2, 4], [1, 2, 4]).final,
                       Y, Z)
    Y, Z, fit_noise, _ = _picard_measuring_every_step(
        _LINEAR, xi, grid, bundle, basis, solver._PICARD_MAX_ITER, solver._PICARD_TOL)
    pic = sq.picard_solve(_LINEAR, xi, grid, bundle, basis)
    assert fit_noise is not None and _expands_to(pic, Y, Z)


@pytest.mark.parametrize("basis_fixture", ["poly_basis", "bins_basis"])
def test_solved_field_holds_its_terminal_column_and_coordinates(basis_fixture, request, example1):
    # a field of per-path columns held 2 M (N + 1) floats; this one holds the
    # terminal column and a few floats per node
    basis = request.getfixturevalue(basis_fixture)
    grid = sq.build_grid(1.0, 8, "uniform")
    bundle = sq.sample_paths(grid, 1, 20_000, 43)
    bundle.projectors(basis)               # the bundle's own caches outlive any solve
    idx = TruncationIndex(4, 4)
    g = truncate_generator(example1, idx)
    xi = truncate_terminal(sq.make_terminal("clamp-bt", bound=3.0), idx)
    tracemalloc.start()
    try:
        sol = sq.solve_bounded(g, xi, grid, bundle, basis)
        held = tracemalloc.get_traced_memory()[0]      # what is still allocated: the field
    finally:
        tracemalloc.stop()
    assert held < 2 * bundle.count * 8, held
    assert sol.fit_noise is not None
