"""Discretized solvers: backward regression sweep, Picard oracle, truncation ladder.

Both solvers discretize the same backward equation on a path bundle.  Per step
the noise coefficient is the martingale-increment estimator (regression of the
centered next value times the Brownian increment over dt), and the value update
is implicit in y.  The ladder solves the clamped problems along the diagonal
and the first row/column of the index lattice and counts order violations; the
theta residual forms the difference field the comparison argument contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IterationLimitError, PreconditionViolationError, SolverDivergedError
from .generators import (Generator, TerminalData, TruncationIndex,
                         theta_difference_generator, truncate_generator, truncate_terminal)
from .paths import PathBundle, RegressionBasis, TimeGrid

_FP_TOL = 1e-10
_FP_MAX_ITER = 200


@dataclass(frozen=True)
class SolutionField:
    """Discretized (Y, Z) on a path bundle; Y has N+1 nodes, Z has N steps.

    ``fit_noise`` is the accumulated standard error of the per-step value
    regressions from each node to the horizon: the honest statistical scale
    below which two fields on the same bundle cannot be distinguished.
    """

    Y: np.ndarray
    Z: np.ndarray
    grid: TimeGrid
    bundle: PathBundle
    basis: RegressionBasis
    method: str = "backward-regression"
    fit_noise: Optional[np.ndarray] = None

    def noise_scale(self) -> np.ndarray:
        if self.fit_noise is None:
            return np.zeros(self.grid.steps + 1)
        return self.fit_noise

    def summary(self) -> dict:
        """Per-node summary columns for the CSV report."""
        zn = np.sqrt((self.Z ** 2).sum(axis=2))
        zn = np.concatenate([zn, zn[:, -1:]], axis=1)   # carry last step to the horizon row
        return {
            "time": self.grid.nodes.copy(),
            "y_mean": self.Y.mean(axis=0),
            "y_q05": np.quantile(self.Y, 0.05, axis=0),
            "y_q95": np.quantile(self.Y, 0.95, axis=0),
            "z_norm_mean": zn.mean(axis=0),
        }


def _check_inputs(grid: TimeGrid, bundle: PathBundle) -> None:
    if not np.array_equal(grid.nodes, bundle.grid.nodes):
        raise ValueError("bundle was sampled on a different grid")


def _terminal_values(xi: TerminalData, bundle: PathBundle) -> np.ndarray:
    values = xi(bundle.terminal())
    if values.shape != (bundle.count,):
        raise ValueError("terminal data must produce one value per path")
    if not np.all(np.isfinite(values)):
        raise PreconditionViolationError("terminal values must be finite",
                                         np.flatnonzero(~np.isfinite(values))[:10].tolist())
    return values


def _projectors(grid: TimeGrid, bundle: PathBundle, basis: RegressionBasis) -> list:
    levels = bundle.levels()
    return [basis.projector(float(grid.nodes[j]), levels[:, j, :]) for j in range(grid.steps)]


def _fit_noise(step_noise_sq: np.ndarray) -> np.ndarray:
    """Per-node fit noise: root of the step variances accumulated to the horizon."""
    fit_noise = np.zeros(len(step_noise_sq) + 1)
    fit_noise[:-1] = np.sqrt(np.cumsum(step_noise_sq[::-1])[::-1])
    return fit_noise


def _z_step(proj, y_next: np.ndarray, m_fit: np.ndarray,
            db: np.ndarray, dt: float) -> np.ndarray:
    # centered martingale-increment estimator: E_t[(Y_{t+dt} - E_t Y_{t+dt}) dB] / dt
    centered = y_next - m_fit
    return proj.fit(centered[:, None] * db) / dt


def _bin_step(g: Generator, t: float, b: np.ndarray, z: np.ndarray, proj,
              y_next: np.ndarray, dt: float, step: int, fp_tol: float,
              fp_max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Implicit value update on the partition basis, all bins at once.

    After one update y is constant within each bin, so the step is the scalar
    root problem r(c) = m + dt * mean_bin g(c) - c = 0 per bin, with m the bin
    means of ``y_next``.  The first sweep takes the fixed-point step c + r(c);
    later sweeps take per-bin secant steps, bisecting the tightest bracket
    seen (r > 0 at lo, r < 0 at hi) when a step would leave it.  Each sweep is
    one driver call over all paths; bins with |r| < ``fp_tol`` stay frozen.
    A residual that does not decrease means dt * dg/dy >= 1: the step is
    ill-posed.  Returns the per-path values and the driver evaluated there.
    """
    m = proj.coefficients(y_next)
    c = m.copy()
    lo = np.full_like(m, -np.inf)
    hi = np.full_like(m, np.inf)
    done = np.zeros(m.shape, dtype=bool)
    c_prev = r_prev = None
    for _ in range(fp_max_iter):
        gval = g(t, b, c[proj.idx], z)
        if not np.all(np.isfinite(gval)):
            raise PreconditionViolationError(f"driver produced non-finite values at step {step}")
        r = m + dt * proj.coefficients(gval) - c
        done |= np.abs(r) < fp_tol
        if done.all():
            return c[proj.idx], gval
        lo = np.where(r > 0.0, np.maximum(lo, c), lo)
        hi = np.where(r < 0.0, np.minimum(hi, c), hi)
        a = np.flatnonzero(~done)
        if c_prev is None:
            nxt = c[a] + r[a]
        else:
            dc, dr = c[a] - c_prev[a], r[a] - r_prev[a]
            moved = dc != 0.0
            if np.any(dc[moved] * dr[moved] >= 0.0):
                raise SolverDivergedError(step, float(np.max(np.abs(r[a]))))
            # an unmoved bin keeps c, which sits on its bracket, so it bisects
            nxt = c[a] - r[a] * dc / np.where(moved, dr, 1.0)
            inside = (lo[a] < nxt) & (nxt < hi[a])
            # a bracket stays one-sided only while r keeps its sign; there the
            # fixed-point step c + r moves towards the root
            two_sided = np.isfinite(lo[a]) & np.isfinite(hi[a])
            fallback = np.where(two_sided, 0.5 * (lo[a] + hi[a]), c[a] + r[a])
            nxt = np.where(inside, nxt, fallback)
        c_prev, r_prev = c.copy(), r
        c[a] = nxt
    raise SolverDivergedError(step, float(np.max(np.abs(r[~done]))))


def solve_bounded(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                  basis: RegressionBasis, fp_tol: float = _FP_TOL,
                  fp_max_iter: int = _FP_MAX_ITER) -> SolutionField:
    """Backward sweep for problems with bounded (e.g. truncated) data.

    Per step: Z from the centered martingale-increment regression, then the
    implicit value update y = fit(Y_next + g(t, y, Z) dt) solved to ``fp_tol``
    within ``fp_max_iter`` driver sweeps: on the partition basis as one
    safeguarded secant per bin (see ``_bin_step``), otherwise iterated with 0.5
    damping whenever the iteration stops contracting.  Only sampled
    finiteness of the inputs is enforced; boundedness is the caller's contract.
    """
    _check_inputs(grid, bundle)
    levels = bundle.levels()
    M, N = bundle.count, grid.steps
    Y = np.empty((M, N + 1))
    Z = np.empty((M, N, bundle.dims))
    Y[:, N] = _terminal_values(xi, bundle)
    projs = _projectors(grid, bundle, basis)
    step_noise_sq = np.zeros(N)

    for j in reversed(range(N)):
        t = float(grid.nodes[j])
        dt = float(grid.dt[j])
        b = levels[:, j, :]
        db = bundle.increments[:, j, :]
        proj = projs[j]
        m_fit = proj.fit(Y[:, j + 1])
        Z[:, j, :] = _z_step(proj, Y[:, j + 1], m_fit, db, dt)

        if basis.kind == "piecewise-constant-bins":
            y, gval = _bin_step(g, t, b, Z[:, j, :], proj, Y[:, j + 1], dt, j,
                                fp_tol, fp_max_iter)
        else:
            y = m_fit.copy()
            prev_gap = math.inf
            for _ in range(fp_max_iter):
                gval = g(t, b, y, Z[:, j, :])
                if not np.all(np.isfinite(gval)):
                    raise PreconditionViolationError(f"driver produced non-finite values at step {j}")
                y_new = m_fit + dt * proj.fit(gval)
                gap = float(np.max(np.abs(y_new - y)))
                if gap > 0.9 * prev_gap:
                    # damp whenever the iteration stops contracting; steep drivers
                    # near a kink otherwise ping-pong at constant amplitude
                    y_new = 0.5 * (y_new + y)
                    gap = float(np.max(np.abs(y_new - y)))
                y = y_new
                if gap < fp_tol:
                    break
                prev_gap = gap
            else:
                raise SolverDivergedError(j, gap)
        Y[:, j] = y
        resid = Y[:, j + 1] + dt * gval - y     # spread the value fit had to average out
        step_noise_sq[j] = np.var(resid) * proj.n_features / M

    return SolutionField(Y=Y, Z=Z, grid=grid, bundle=bundle, basis=basis,
                         method="backward-regression", fit_noise=_fit_noise(step_noise_sq))


def picard_solve(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                 basis: RegressionBasis, max_iter: int = 60,
                 tol: float = 1e-8) -> SolutionField:
    """Global Picard iteration: repeat linear backward passes with the driver frozen
    at the previous iterate until the sup-change over all nodes drops below ``tol``.

    Independent implementation used to cross-validate the implicit sweep on
    Lipschitz drivers; both discretizations share the same fixed point.
    """
    _check_inputs(grid, bundle)
    levels = bundle.levels()
    M, N = bundle.count, grid.steps
    xi_vals = _terminal_values(xi, bundle)
    projs = _projectors(grid, bundle, basis)

    Y = np.zeros((M, N + 1))
    Z = np.zeros((M, N, bundle.dims))
    Y[:, N] = xi_vals
    for j in reversed(range(N)):       # driver-free warm start
        m_fit = projs[j].fit(Y[:, j + 1])
        Y[:, j] = m_fit
        Z[:, j, :] = _z_step(projs[j], Y[:, j + 1], m_fit,
                             bundle.increments[:, j, :], float(grid.dt[j]))

    gap = math.inf
    step_noise_sq = np.zeros(N)
    for _ in range(max_iter):
        Y_new = np.empty_like(Y)
        Z_new = np.empty_like(Z)
        Y_new[:, N] = xi_vals
        for j in reversed(range(N)):
            t = float(grid.nodes[j])
            dt = float(grid.dt[j])
            proj = projs[j]
            frozen = g(t, levels[:, j, :], Y[:, j], Z[:, j, :])
            if not np.all(np.isfinite(frozen)):
                raise PreconditionViolationError(f"driver produced non-finite values at step {j}")
            m_fit = proj.fit(Y_new[:, j + 1])
            target = Y_new[:, j + 1] + dt * frozen
            Y_new[:, j] = proj.fit(target)
            Z_new[:, j, :] = _z_step(proj, Y_new[:, j + 1], m_fit,
                                     bundle.increments[:, j, :], dt)
            step_noise_sq[j] = np.var(target - Y_new[:, j]) * proj.n_features / M
        # the driver reads both fields, so both must settle
        gap = float(max(np.max(np.abs(Y_new - Y)), np.max(np.abs(Z_new - Z))))
        Y, Z = Y_new, Z_new
        if gap < tol:
            return SolutionField(Y=Y, Z=Z, grid=grid, bundle=bundle, basis=basis,
                                 method="picard", fit_noise=_fit_noise(step_noise_sq))
    raise IterationLimitError(max_iter, gap)


def _fitted_residual(sol: SolutionField, g: Generator, U: np.ndarray,
                     V: np.ndarray) -> np.ndarray:
    """Max over paths of the projected one-step residual of (U, V) under ``g``,
    per step, on the grid, bundle and basis of ``sol``."""
    grid, bundle = sol.grid, sol.bundle
    levels = bundle.levels()
    out = np.empty(grid.steps)
    for j in range(grid.steps):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        gval = g(t, levels[:, j, :], U[:, j], V[:, j, :])
        r = (U[:, j] - U[:, j + 1] - gval * dt
             + (V[:, j, :] * bundle.increments[:, j, :]).sum(axis=1))
        out[j] = float(np.max(np.abs(sol.basis.projector(t, levels[:, j, :]).fit(r))))
    return out


def consistency_residual(sol: SolutionField, g: Generator) -> np.ndarray:
    """Max fitted one-step residual per step: how far (Y, Z) are from the
    discrete equation after projecting onto the basis."""
    return _fitted_residual(sol, g, sol.Y, sol.Z)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderResult:
    final: SolutionField
    snapshots: dict                    # (n, q) -> float32 Y field
    violations: int
    comparisons: int
    diagonal_gaps: tuple               # sup |Y^{(k)} - Y^{(k-1)}| along the diagonal
    levels: tuple

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.comparisons if self.comparisons else 0.0


def _doubling_levels(top: int) -> list[int]:
    levels, n = [], 1
    while n < top:
        levels.append(n)
        n *= 2
    levels.append(top)
    return levels


def solve_ladder(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                 basis: RegressionBasis, n_max: int = 16, q_max: int = 16,
                 levels: Optional[list[int]] = None,
                 order_tol: float = 1e-10) -> LadderResult:
    """Solve the clamped problems along the lattice diagonal and first row/column.

    Order counting: along the first row Y must be nondecreasing in n, along the
    first column nonincreasing in q.  The continuum comparison forces the
    ordering exactly; the regression fields can only be distinguished above
    their accumulated fit noise, so a comparison counts as violated when the
    ordering fails by more than 3x the combined per-node noise scale (plus
    ``order_tol`` * (1 + |Y|) for exact ties).
    """
    if levels is None:
        lv_n, lv_q = _doubling_levels(n_max), _doubling_levels(q_max)
    else:
        lv_n = lv_q = sorted(set(int(v) for v in levels))
    cache: dict[tuple[int, int], SolutionField] = {}

    def solved(n: int, q: int) -> SolutionField:
        if (n, q) not in cache:
            idx = TruncationIndex(n, q)
            cache[(n, q)] = solve_bounded(truncate_generator(g, idx),
                                          truncate_terminal(xi, idx), grid, bundle, basis)
        return cache[(n, q)]

    violations = comparisons = 0

    def count(low: SolutionField, high: SolutionField):
        # expects high.Y >= low.Y up to the statistical allowance
        nonlocal violations, comparisons
        allowance = 3.0 * (low.noise_scale() + high.noise_scale())[None, :]
        tol = allowance + order_tol * (1.0 + np.abs(high.Y))
        violations += int(np.sum(low.Y > high.Y + tol))
        comparisons += low.Y.size

    prev = None
    for n in lv_n:                                  # first row: increasing in n
        cur = solved(n, lv_q[0])
        if prev is not None:
            count(prev, cur)
        prev = cur
    prev = None
    for q in lv_q:                                  # first column: decreasing in q
        cur = solved(lv_n[0], q)
        if prev is not None:
            count(cur, prev)
        prev = cur

    gaps = []
    prev_diag = None
    for n, q in zip(lv_n, lv_q):
        cur = solved(n, q)
        if prev_diag is not None:
            # field distance per node (mean over paths), then sup over nodes
            gaps.append(float(np.max(np.mean(np.abs(cur.Y - prev_diag), axis=0))))
        prev_diag = cur.Y

    snapshots = {key: fieldY.Y.astype(np.float32) for key, fieldY in cache.items()}
    final = cache[(lv_n[-1], lv_q[-1])]
    return LadderResult(final=final, snapshots=snapshots, violations=violations,
                        comparisons=comparisons, diagonal_gaps=tuple(gaps),
                        levels=tuple(lv_n))


# ---------------------------------------------------------------------------
# theta residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaResidual:
    theta: float
    dU: np.ndarray
    dV: np.ndarray
    consistency: np.ndarray            # fitted one-step residual per step


def theta_residual(sol: SolutionField, sol_prime: SolutionField, theta: float,
                   g: Optional[Generator] = None,
                   g_prime: Optional[Generator] = None) -> ThetaResidual:
    """Difference field dU = (Y - theta Y')/(1-theta), dV likewise for Z.

    When both drivers are supplied, the pair is checked for one-step
    consistency against the theta-difference driver anchored at (Y', Z').
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not np.array_equal(sol.grid.nodes, sol_prime.grid.nodes) or sol.Y.shape != sol_prime.Y.shape:
        raise ValueError("solutions must live on the same grid and bundle")
    dU = (sol.Y - theta * sol_prime.Y) / (1.0 - theta)
    dV = (sol.Z - theta * sol_prime.Z) / (1.0 - theta)
    if g is None or g_prime is None:
        return ThetaResidual(theta=theta, dU=dU, dV=dV, consistency=np.zeros(sol.grid.steps))

    dg = theta_difference_generator(g, g_prime, theta, sol.grid, sol_prime.Y, sol_prime.Z)
    return ThetaResidual(theta=theta, dU=dU, dV=dV,
                         consistency=_fitted_residual(sol, dg, dU, dV))
