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
from .generators import (Generator, TerminalData, TruncationIndex, _norm,
                         theta_difference_generator, truncate_generator, truncate_terminal)
from .paths import PathBundle, RegressionBasis, TimeGrid, step_major_empty

_FP_TOL = 1e-10            # implicit step: residual (bins) or sup-change (polynomial) target
_FP_MAX_ITER = 200         # implicit step: driver sweeps before SolverDivergedError
_PICARD_TOL = 1e-8         # Picard: sup-change of (Y, Z) over all nodes between sweeps
_PICARD_MAX_ITER = 60      # Picard: sweeps before IterationLimitError
_ORDER_TOL = 1e-10         # ladder ordering slack for exact ties, relative to 1 + |Y|


@dataclass(frozen=True)
class SolutionField:
    """Discretized (Y, Z) on a path bundle; Y has N+1 nodes, Z has N steps.

    ``Y`` has shape (paths, N+1) and ``Z`` (paths, N, dims).  The solvers
    store both step-major (time is the outer axis in memory), like
    ``PathBundle.levels``, so each per-step slice ``Y[:, j]`` or
    ``Z[:, j, :]`` is contiguous.  The grid is the bundle's.

    ``fit_noise`` is the accumulated standard error of the per-step value
    regressions from each node to the horizon: the honest statistical scale
    below which two fields on the same bundle cannot be distinguished.
    """

    Y: np.ndarray
    Z: np.ndarray
    bundle: PathBundle
    basis: RegressionBasis
    method: str = "backward-regression"
    fit_noise: Optional[np.ndarray] = None

    @property
    def grid(self) -> TimeGrid:
        return self.bundle.grid

    def noise_scale(self) -> np.ndarray:
        if self.fit_noise is None:
            return np.zeros(self.grid.steps + 1)
        return self.fit_noise

    def summary(self) -> dict:
        """Per-node summary columns for the CSV report."""
        zn = _norm(self.Z)
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


def _fit_noise(step_noise_sq: np.ndarray) -> np.ndarray:
    """Per-node fit noise: root of the step variances accumulated to the horizon."""
    fit_noise = np.zeros(len(step_noise_sq) + 1)
    fit_noise[:-1] = np.sqrt(np.cumsum(step_noise_sq[::-1])[::-1])
    return fit_noise


def _z_step(proj, y_next: np.ndarray, m_fit: np.ndarray,
            b: np.ndarray, b_next: np.ndarray, dt: float) -> np.ndarray:
    # centered martingale-increment estimator: E_t[(Y_{t+dt} - E_t Y_{t+dt}) dB] / dt
    centered = y_next - m_fit
    weighted = b_next - b
    weighted *= centered[:, None]
    return proj.fit(weighted) / dt


def _bin_step(g_at, proj, y_next: np.ndarray, dt: float,
              step: int) -> tuple[np.ndarray, np.ndarray]:
    """Implicit value update on the partition basis, all bins at once.

    After one update y is constant within each bin, so the step is the scalar
    root problem r(c) = m + dt * mean_bin g(c) - c = 0 per bin, with m the bin
    means of ``y_next``.  The first sweep takes the fixed-point step c + r(c);
    later sweeps take per-bin secant steps, bisecting the tightest bracket
    seen (r > 0 at lo, r < 0 at hi) when a step would leave it.  Each sweep is
    one driver call over all paths, ``g_at(c, proj.idx)`` with ``g_at`` the
    step's frozen driver (`Generator.at`), so a step-frozen driver evaluates
    its y-part once per bin before the gather; bins with |r| < ``_FP_TOL``
    stay frozen.
    A residual that does not decrease means dt * dg/dy >= 1: the step is
    ill-posed.  Returns the per-path values and the driver evaluated there.
    """
    m = proj.coords(y_next)
    c = m.copy()
    lo = np.full_like(m, -np.inf)
    hi = np.full_like(m, np.inf)
    done = np.zeros(m.shape, dtype=bool)
    c_prev = r_prev = None
    for _ in range(_FP_MAX_ITER):
        gval = g_at(c, proj.idx)
        if not np.all(np.isfinite(gval)):
            raise PreconditionViolationError(f"driver produced non-finite values at step {step}")
        r = m + dt * proj.coords(gval) - c
        done |= np.abs(r) < _FP_TOL
        if done.all():
            return proj.expand(c), gval
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
                  basis: RegressionBasis) -> SolutionField:
    """Backward sweep for problems with bounded (e.g. truncated) data.

    Per step: Z from the centered martingale-increment regression, then the
    implicit value update y = fit(Y_next + g(t, y, Z) dt) solved to
    ``_FP_TOL`` within ``_FP_MAX_ITER`` driver sweeps (else
    `SolverDivergedError` naming the step): on the partition basis as one
    safeguarded secant per bin (see ``_bin_step``), otherwise iterated with 0.5
    damping whenever the iteration stops contracting.  Each step freezes the
    driver at (t, b, Z) once (`Generator.at`) and iterates on y alone.  Only
    sampled finiteness of the inputs is enforced; boundedness is the caller's
    contract.
    """
    _check_inputs(grid, bundle)
    levels = bundle.levels
    M, N = bundle.count, grid.steps
    Y = step_major_empty((M, N + 1))
    Z = step_major_empty((M, N, bundle.dims))
    Y[:, N] = _terminal_values(xi, bundle)
    projs = bundle.projectors(basis)
    step_noise_sq = np.zeros(N)

    for j in reversed(range(N)):
        t = float(grid.nodes[j])
        dt = float(grid.dt[j])
        b = levels[:, j, :]
        proj = projs[j]
        m_fit = proj.fit(Y[:, j + 1])
        Z[:, j, :] = _z_step(proj, Y[:, j + 1], m_fit, b, levels[:, j + 1, :], dt)
        g_at = g.at(t, b, Z[:, j, :])

        if basis.kind == "piecewise-constant-bins":
            y, gval = _bin_step(g_at, proj, Y[:, j + 1], dt, j)
        else:
            y = m_fit.copy()
            prev_gap = math.inf
            for _ in range(_FP_MAX_ITER):
                gval = g_at(y)
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
                if gap < _FP_TOL:
                    break
                prev_gap = gap
            else:
                raise SolverDivergedError(j, gap)
        Y[:, j] = y
        resid = Y[:, j + 1] + dt * gval - y     # spread the value fit had to average out
        step_noise_sq[j] = np.var(resid) * proj.n_features / M

    return SolutionField(Y=Y, Z=Z, bundle=bundle, basis=basis,
                         method="backward-regression", fit_noise=_fit_noise(step_noise_sq))


def picard_solve(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                 basis: RegressionBasis) -> SolutionField:
    """Global Picard iteration: repeat linear backward passes with the driver frozen
    at the previous iterate until the sup-change over all nodes drops below
    ``_PICARD_TOL``; `IterationLimitError` after ``_PICARD_MAX_ITER`` sweeps.

    Independent implementation used to cross-validate the implicit sweep on
    Lipschitz drivers; both discretizations share the same fixed point.

    Each iterate Y_j lies in the span of step j's projector basis B_j,
    Y_j = B_j a_j, so the sweep runs in its coordinates (`coords`, `expand`;
    the basis need not be orthonormal): a_j = C_j a_{j+1} + dt coords_j(f_j)
    and Z_j = B_j G_j a_{j+1}, with the transfer operators C_j = coords_j(B_{j+1})
    and G_j = coords_j(diag(dB_j) (B_{j+1} - B_j C_j)) / dt (the centred
    martingale-increment regression) built once per call; the terminal column
    stands in for B_N, with a_N = 1.  Per step and sweep only the driver, its
    projection and the two expansions touch every path.  One (Y, Z) field is
    updated in place: step j reads the previous iterate at node j and the new
    one at node j + 1.
    """
    _check_inputs(grid, bundle)
    levels = bundle.levels
    M, N, d = bundle.count, grid.steps, bundle.dims
    projs = bundle.projectors(basis)
    Y = step_major_empty((M, N + 1))
    Z = step_major_empty((M, N, d))
    Y[:, N] = _terminal_values(xi, bundle)

    # driver-free warm start Y_j = fit(Y_{j+1}), building the operators on the way
    nodes, dts = grid.nodes, grid.dt
    C, G = [None] * N, [None] * N
    nxt, a = Y[:, N, None], np.ones(1)
    for j in reversed(range(N)):
        proj, dt = projs[j], float(dts[j])
        db = levels[:, j + 1, :] - levels[:, j, :]
        C[j] = proj.cross([nxt])[0]
        G[j] = np.empty((d,) + C[j].shape)
        for k in range(d):
            D, E = proj.cross([nxt, proj], db[:, k])
            G[j][k] = (D - E @ C[j]) / dt
        proj.expand((G[j] @ a).T, out=Z[:, j, :])
        a = C[j] @ a
        proj.expand(a, out=Y[:, j])
        nxt = proj

    y = np.empty(M)
    z = np.empty((M, d))
    diff = np.empty(M)
    gap = math.inf
    step_gap = np.empty(N)
    step_noise_sq = np.zeros(N)
    for _ in range(_PICARD_MAX_ITER):
        a = np.ones(1)
        for j in reversed(range(N)):
            dt = float(dts[j])
            proj = projs[j]
            frozen = g(float(nodes[j]), levels[:, j, :], Y[:, j], Z[:, j, :])
            proj.expand((G[j] @ a).T, out=z)
            f_coords = proj.coords(frozen)
            # a non-finite driver value makes its coordinates non-finite
            if not np.all(np.isfinite(f_coords)):
                raise PreconditionViolationError(f"driver produced non-finite values at step {j}")
            a = C[j] @ a + dt * f_coords
            proj.expand(a, out=y)
            # the driver may return a view of node j: use it before node j is
            # written; var(target - Y_j), in place
            np.multiply(frozen, dt, out=diff)
            diff += Y[:, j + 1]
            diff -= y
            diff -= diff.mean()
            step_noise_sq[j] = np.dot(diff, diff) / M * proj.n_features / M
            # the driver reads both fields, so both must settle
            np.abs(np.subtract(y, Y[:, j], out=diff), out=diff)
            step_gap[j] = np.max(diff)
            for k in range(d):
                np.abs(np.subtract(z[:, k], Z[:, j, k], out=diff), out=diff)
                step_gap[j] = np.maximum(step_gap[j], np.max(diff))
            Y[:, j] = y
            Z[:, j, :] = z
        gap = float(np.max(step_gap))
        if gap < _PICARD_TOL:
            return SolutionField(Y=Y, Z=Z, bundle=bundle, basis=basis,
                                 method="picard", fit_noise=_fit_noise(step_noise_sq))
    raise IterationLimitError(_PICARD_MAX_ITER, gap)


def _fitted_residual(sol: SolutionField, g: Generator, U: np.ndarray,
                     V: np.ndarray) -> np.ndarray:
    """Max over paths of the projected one-step residual of (U, V) under ``g``,
    per step, on the grid, bundle and basis of ``sol``."""
    grid, levels = sol.grid, sol.bundle.levels
    projs = sol.bundle.projectors(sol.basis)
    out = np.empty(grid.steps)
    for j in range(grid.steps):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        gval = g(t, levels[:, j, :], U[:, j], V[:, j, :])
        vdb = levels[:, j + 1, :] - levels[:, j, :]
        vdb *= V[:, j, :]
        r = U[:, j] - U[:, j + 1] - gval * dt + vdb.sum(axis=1)
        out[j] = float(np.max(np.abs(projs[j].fit(r))))
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
    violations: int
    comparisons: int
    diagonal_gaps: tuple               # sup |Y^{(k)} - Y^{(k-1)}| along the diagonal
    levels: tuple

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.comparisons if self.comparisons else 0.0


def _doubling_levels(top: int) -> list[int]:
    # the powers of two below top, then top
    return [2 ** k for k in range(max(top - 1, 0).bit_length())] + [top]


def solve_ladder(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                 basis: RegressionBasis, n_max: int = 16, q_max: int = 16,
                 levels: Optional[list[int]] = None) -> LadderResult:
    """Solve the clamped problems along the lattice diagonal and first row/column.

    Order counting: along the first row Y must be nondecreasing in n, along the
    first column nonincreasing in q.  The continuum comparison forces the
    ordering exactly; the regression fields can only be distinguished above
    their accumulated fit noise, so a comparison counts as violated when the
    ordering fails by more than 3x the combined per-node noise scale (plus
    ``_ORDER_TOL`` * (1 + |Y|) for exact ties).  The diagonal holds the shorter
    ladder at its top level.  Only the rung being solved is held whole; of the
    shared first rung and the rung before it, only Y and the noise scale are kept.
    """
    if levels is None:
        lv_n, lv_q = _doubling_levels(n_max), _doubling_levels(q_max)
    else:
        lv_n = lv_q = sorted(set(int(v) for v in levels))
    row = [(n, lv_q[0]) for n in lv_n]
    column = [(lv_n[0], q) for q in lv_q]
    diagonal = [(lv_n[min(k, len(lv_n) - 1)], lv_q[min(k, len(lv_q) - 1)])
                for k in range(max(len(lv_n), len(lv_q)))]
    violations = comparisons = 0
    gaps = []

    def solve(n: int, q: int) -> SolutionField:
        idx = TruncationIndex(n, q)
        return solve_bounded(truncate_generator(g, idx), truncate_terminal(xi, idx),
                             grid, bundle, basis)

    def count(low, high):
        # expects high Y >= low Y up to the statistical allowance, node by node
        nonlocal violations, comparisons
        (low_y, low_noise), (high_y, high_noise) = low, high
        allowance = 3.0 * (low_noise + high_noise)
        for j in range(low_y.shape[1]):
            tol = allowance[j] + _ORDER_TOL * (1.0 + np.abs(high_y[:, j]))
            violations += int(np.count_nonzero(low_y[:, j] > high_y[:, j] + tol))
        comparisons += low_y.size

    def walk(keys, compare=None):
        # solve keys[1:] in order, passing each with the rung before as (Y, noise scale)
        nonlocal field
        prev = first
        for n, q in keys[1:]:
            field = None                        # release the last rung's Z before solving
            field = solve(n, q)
            cur = (field.Y, field.noise_scale())
            if compare is not None:
                compare(prev, cur)
            if keys == diagonal:
                # field distance per node (mean over paths), then sup over nodes
                gaps.append(float(np.max([np.mean(np.abs(cur[0][:, j] - prev[0][:, j]))
                                          for j in range(grid.steps + 1)])))
            prev = cur

    field = solve(lv_n[0], lv_q[0])
    first = (field.Y, field.noise_scale())
    walk(row, count)                                            # increasing in n
    walk(column, lambda prev, cur: count(cur, prev))            # decreasing in q
    if diagonal not in (row, column):    # else a one-level ladder made it the row or column
        walk(diagonal)
    return LadderResult(final=field, violations=violations, comparisons=comparisons,
                        diagonal_gaps=tuple(gaps), levels=tuple(lv_n))


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
                   g: Generator, g_prime: Generator) -> ThetaResidual:
    """Difference field dU = (Y - theta Y')/(1-theta), dV likewise for Z, checked
    for one-step consistency against the theta-difference driver of ``g`` and
    ``g_prime`` anchored at (Y', Z').
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not np.array_equal(sol.grid.nodes, sol_prime.grid.nodes) or sol.Y.shape != sol_prime.Y.shape:
        raise ValueError("solutions must live on the same grid and bundle")
    dU = np.multiply(sol_prime.Y, theta)
    np.subtract(sol.Y, dU, out=dU)
    dU /= 1.0 - theta
    dV = np.multiply(sol_prime.Z, theta)
    np.subtract(sol.Z, dV, out=dV)
    dV /= 1.0 - theta
    dg = theta_difference_generator(g, g_prime, theta, sol.grid, sol_prime.Y, sol_prime.Z)
    return ThetaResidual(theta=theta, dU=dU, dV=dV,
                         consistency=_fitted_residual(sol, dg, dU, dV))
