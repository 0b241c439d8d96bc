"""Discretized solvers: backward regression sweep, Picard oracle, truncation ladder.

Both solvers discretize the same backward equation on a path bundle.  Per step
the noise coefficient is the martingale-increment estimator (regression of the
centered next value times the Brownian increment over dt), and the value update
is implicit in y: on either basis one secant in the projector's coordinates,
diagonal (per bin) on the partition basis.  The ladder solves the clamped
problems along the diagonal and the first row/column of the index lattice, one
backward pass per walk with its rungs stacked, and counts order violations;
the theta residual forms the difference field the comparison argument
contracts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _check_same_bundle, order_verdict, order_violations
from .errors import IterationLimitError, PreconditionViolationError, SolverDivergedError
from .generators import (Generator, TerminalData, TruncationIndex, _norm, _sum_last,
                         _theta_difference, truncate_terminal, truncated_at)
from .paths import PathBundle, RegressionBasis, TimeGrid, step_major_empty

_FP_TOL = 1e-10            # implicit step: residual target, per bin or sup over a rung's paths
_FP_MAX_ITER = 200         # implicit step: driver sweeps before SolverDivergedError
_PICARD_TOL = 1e-8         # Picard: sup-change of (Y, Z) over all nodes between sweeps
_PICARD_MAX_ITER = 60      # Picard: sweeps before IterationLimitError
_ORDER_TOL = 1e-10         # ladder ordering slack for exact ties, relative to 1 + |Y|


def _stacked(node, shape: tuple) -> np.ndarray:
    """The columns ``node(j)`` of a per-path field of path-major ``shape`` (paths,
    nodes, ...), stored step-major."""
    out = step_major_empty(shape)
    for j in range(shape[1]):
        out[:, j] = node(j)
    return out


class _Columns:
    """The identity map: a field read from per-path columns holds each node's column
    as its coordinates."""

    @staticmethod
    def expand(coords: np.ndarray) -> np.ndarray:
        return coords


@dataclass(frozen=True)
class SolutionField:
    """Discretized (Y, Z) on a path bundle, held as the solver computes it: Y has N+1
    nodes, Z has N steps.

    Node j < N holds Y's coordinates ``y_coords[j]`` in the basis of ``maps[j]``,
    step j's projector; step j holds Z's coordinates ``z_coords[j]`` and the
    divisor ``z_divisor[j]`` that applies after expansion: dt_j after the implicit
    sweep, whose Z regression is divided by dt per path, and 1 after Picard, whose
    operators already carry 1/dt.  Node N is the per-path ``terminal`` column.  So
    ``y(j)`` and ``z(j)`` expand one node, (paths,) and (paths, dims), bit for bit
    the column the solver formed there.  A field read from per-path columns
    (`from_columns`) holds them under the identity map, and reads them back as
    they are.  ``Y`` (paths, N+1) and ``Z`` (paths, N, dims) expand the whole
    field, step-major like ``PathBundle.levels``.  The grid is the bundle's.

    ``fit_noise`` is the accumulated standard error (`noise_sq`) of the
    per-step value regressions from each node to the horizon: the honest
    statistical scale below which two fields on the same bundle cannot be
    distinguished; inf back from a step whose fit interpolates its samples.
    """

    terminal: np.ndarray
    y_coords: tuple
    z_coords: tuple
    z_divisor: np.ndarray
    maps: tuple
    bundle: PathBundle
    basis: RegressionBasis
    fit_noise: Optional[np.ndarray] = None

    @classmethod
    def from_columns(cls, Y: np.ndarray, Z: np.ndarray, bundle: PathBundle,
                     basis: RegressionBasis, fit_noise: Optional[np.ndarray] = None):
        """The field whose per-path columns are ``Y`` (paths, N+1) and ``Z`` (paths, N,
        dims), held as views under the identity map."""
        N = Y.shape[1] - 1
        return cls(terminal=Y[:, N], y_coords=tuple(Y[:, j] for j in range(N)),
                   z_coords=tuple(Z[:, j, :] for j in range(N)), z_divisor=np.ones(N),
                   maps=(_Columns,) * N, bundle=bundle, basis=basis, fit_noise=fit_noise)

    @property
    def grid(self) -> TimeGrid:
        return self.bundle.grid

    def y(self, j: int) -> np.ndarray:
        """Y at node j, (paths,); the terminal column itself at node N."""
        j = range(self.grid.steps + 1)[j]
        return self.terminal if j == self.grid.steps else self.maps[j].expand(self.y_coords[j])

    def z(self, j: int) -> np.ndarray:
        """Z on step j, (paths, dims)."""
        j = range(self.grid.steps)[j]
        return self.maps[j].expand(self.z_coords[j]) / self.z_divisor[j]

    @property
    def Y(self) -> np.ndarray:
        return _stacked(self.y, (self.bundle.count, self.grid.steps + 1))

    @property
    def Z(self) -> np.ndarray:
        return _stacked(self.z, (self.bundle.count, self.grid.steps, self.bundle.dims))

    def summary(self) -> dict:
        """Per-node summary columns for the CSV report; the horizon row carries the
        last step's |Z| mean."""
        N = self.grid.steps
        y_mean, y_q05, y_q95, z_norm_mean = (np.empty(N + 1) for _ in range(4))
        for j in range(N + 1):
            y = self.y(j)
            y_mean[j] = y.mean()
            y_q05[j], y_q95[j] = _q05_q95(y)
            if j < N:
                z_norm_mean[j] = _norm(self.z(j)).mean()
        z_norm_mean[N] = z_norm_mean[N - 1]
        return {"time": self.grid.nodes.copy(), "y_mean": y_mean, "y_q05": y_q05,
                "y_q95": y_q95, "z_norm_mean": z_norm_mean}


def _q05_q95(y: np.ndarray) -> np.ndarray:
    """``np.quantile(y, [0.05, 0.95])`` of a 1-D sample, bit for bit: numpy's
    linear method on the same partition.  np.quantile imports numpy.ma (through
    np.unique) on first use, about 9 ms and 1 MB in every process that writes a
    summary."""
    n = len(y)
    pos = (n - 1) * np.array([0.05, 0.95])
    below = np.floor(pos)
    above = below + 1
    top = pos >= n - 1                       # only when n = 1: both sides read the last value
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    s = np.partition(y, sorted({0, -1, *below.tolist(), *above.tolist()}))
    a, b, t = s[below], s[above], pos - below
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(s[-1]):                      # a NaN sorts last and makes every quantile NaN
        out[:] = s[-1]
    return out


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


def _check_finite(gval: np.ndarray, step: int, rungs) -> None:
    # per-path values of all rungs; on failure, name the first rung at fault
    bad = ~np.isfinite(gval).all(axis=1)
    if bad.any():
        where = "" if rungs is None else f", rung {rungs[int(np.argmax(bad))]}"
        raise PreconditionViolationError(f"driver produced non-finite values at step {step}{where}")


def _diverged(step: int, rungs, gap: np.ndarray, bad: np.ndarray, cause: str) -> SolverDivergedError:
    # the first rung with a ``bad`` unit, with its largest residual among them
    rung = int(np.argmax(bad.any(axis=1)))
    return SolverDivergedError(step, float(np.max(gap[rung][bad[rung]])),
                               None if rungs is None else rungs[rung], cause)


def _implicit_update(g_at, proj, m: np.ndarray, dt: float, step: int, rungs,
                     bins: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Implicit value update y = fit(Y_next + dt g(y)) of all rungs at once, in
    the coordinates c (R, p) of y in the step's projector ``proj``, which
    regresses and expands the rungs row by row (`coords_rows`, `expand_rows`).

    It solves r(c) = m + dt coords(g(expand c)) - c = 0, with m the coordinates
    of Y_next.  The first sweep takes the fixed-point step c + r; later sweeps
    take secant steps c - J^-1 r with J = dt coords(diag(s) B) - I, s the
    per-path secant slopes dg/dy of the last step (a path that did not move
    keeps its slope).  On the partition basis (``bins``) J is diagonal and the
    secant condition J dc = dr fixes it: per bin c - r dc / dr, bisecting the
    tightest bracket seen (r > 0 at lo, r < 0 at hi) when a step would leave
    it, with no per-path pass.  On the polynomial basis J is p x p per rung.
    A unit (a bin, or a rung on the polynomial basis) settles when its
    residual (|r| per bin, sup over paths of |expand r| per rung) falls below
    ``_FP_TOL``, and then keeps c, so every unit takes exactly the steps it
    takes when its rung is solved alone.  A unit whose residual does not fall
    along its step (dc . dr >= 0) means dt dg/dy >= 1, an ill-posed step;
    that, or no settling within ``_FP_MAX_ITER`` sweeps, raises
    `SolverDivergedError`.  Each sweep is one driver call ``g_at(c)`` over all
    paths of all rungs.  Finiteness is checked on the coordinates, which a
    non-finite driver value always makes non-finite; only then are the
    per-path values searched for the rung at fault (`_check_finite`).
    Returns the coordinates, the per-path values and the driver evaluated there.
    """
    c = m.copy()
    done = np.zeros(m.shape if bins else (len(m), 1), dtype=bool)
    lo, hi = np.full_like(m, -np.inf), np.full_like(m, np.inf)
    slopes = 0.0
    c_prev = r_prev = g_prev = None
    for _ in range(_FP_MAX_ITER):
        gval = g_at(c)
        g_coords = proj.coords_rows(gval)
        if not np.isfinite(g_coords).all():
            _check_finite(gval, step, rungs)
        r = m + dt * g_coords - c
        gap = np.abs(r) if bins else np.max(np.abs(proj.expand_rows(r)), axis=1, keepdims=True)
        done |= gap < _FP_TOL
        if done.all():
            return c, proj.expand_rows(c), gval
        if bins:
            gval = None                 # not held through the next driver call
            lo = np.where(r > 0.0, np.maximum(lo, c), lo)
            hi = np.where(r < 0.0, np.minimum(hi, c), hi)
        if c_prev is None:
            nxt = c + r
        else:
            dc, dr = c - c_prev, r - r_prev
            moved, rose = dc != 0.0, dc * dr
            if not bins:
                moved, rose = moved.any(axis=1, keepdims=True), rose.sum(axis=1, keepdims=True)
            rising = moved & (rose >= 0.0) & ~done
            if rising.any():
                raise _diverged(step, rungs, gap, rising,
                                "the residual rose along the step (dt * dg/dy >= 1)")
            if bins:
                # an unmoved bin keeps c, which sits on its bracket, so it bisects
                nxt = c - r * dc / np.where(moved & ~done, dr, 1.0)
                inside = (lo < nxt) & (nxt < hi)
                # a bracket stays one-sided only while r keeps its sign; there the
                # fixed-point step c + r moves towards the root.  The midpoint is
                # formed on two-sided brackets only: a settled bin's may be (-inf, inf)
                two_sided = np.isfinite(lo) & np.isfinite(hi)
                fallback = c + r
                np.add(lo, hi, out=fallback, where=two_sided)
                np.multiply(fallback, 0.5, out=fallback, where=two_sided)
                nxt = np.where(inside, nxt, fallback)
            else:
                dy = proj.expand_rows(dc)
                with np.errstate(divide="ignore", invalid="ignore"):
                    slopes = np.where(dy != 0.0, (gval - g_prev) / dy, slopes)
                dy, nxt, eye = None, c.copy(), np.eye(c.shape[1])
                for k in np.flatnonzero(~done[:, 0]):
                    jac = dt * proj.cross([proj], slopes[k])[0] - eye
                    nxt[k] -= np.linalg.solve(jac, r[k])
        g_prev = gval
        c_prev, r_prev = c, r
        c = np.where(done, c, nxt)
    raise _diverged(step, rungs, gap, ~done, f"not settled after {_FP_MAX_ITER} sweeps")


def _backward(at, y_end: np.ndarray, grid: TimeGrid, bundle: PathBundle,
              basis: RegressionBasis, rungs=None):
    """Backward sweep of R problems on one bundle, stacked on a leading rung axis.

    ``at(t, b, z, idx=None)`` freezes the R drivers of a step (`Generator.at`,
    z and y with a leading rung axis) and ``y_end`` (R, M) holds their
    terminal values; ``rungs`` names the problems in error messages.  Per
    step: Z from the centered martingale-increment regression, then the
    implicit value update y = fit(Y_next + g(t, y, Z) dt), solved in the
    projector's coordinates by one secant (`_implicit_update`; else
    `SolverDivergedError` naming the step, rung and cause).  On the partition
    basis the driver is frozen per bin, so its z-part is evaluated once per
    bin; on the polynomial basis it is frozen per path and composed with
    ``expand``.  Every regression takes the rungs' stacked rows through the
    step's projector at once (`coords_rows`, `expand_rows`), so each rung's
    regressions and updates are those of its own one-rung solve, bit for bit.

    Yields ``(j, y, c, zc, noise)`` for j = N, ..., 0: the values (R, M) at
    node j and their coordinates (R, p) in step j's projector, the
    coordinates (R, p, d) of Z on step j before its division by dt, and the
    fit noise (R,) at node j (per step, `noise_sq` of each rung's value
    residual, all rungs in one call).  At j = N, c and zc are None.
    """
    levels, projs = bundle.levels, bundle.projectors(basis)
    R = len(y_end)
    bins = basis.kind == "piecewise-constant-bins"
    noise_sq = np.zeros(R)          # step variances summed from the horizon, as in _fit_noise
    y_next, y_end = y_end, None     # held once, as y_next
    yield grid.steps, y_next, None, None, np.sqrt(noise_sq)
    for j in reversed(range(grid.steps)):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        b, proj = levels[:, j, :], projs[j]
        m = proj.coords_rows(y_next)
        m_fit = proj.expand_rows(m)
        # centered martingale-increment estimator: E_t[(Y_{t+dt} - E_t Y_{t+dt}) dB] / dt
        zc = proj.coords_rows((levels[:, j + 1, :] - b) * (y_next - m_fit)[:, :, None])
        m_fit = None
        if bins:
            # a gather commutes with / dt: Z = fit(weighted) / dt
            g_at = at(t, b, zc / dt, proj.idx)
        else:
            z = proj.expand_rows(zc)
            z /= dt
            frozen = at(t, b, z)
            g_at = lambda c: frozen(proj.expand_rows(c))
        c, y, gval = _implicit_update(g_at, proj, m, dt, j, rungs, bins)
        resid = y_next + dt * gval - y      # spread the value fit had to average out
        gval = None
        noise_sq = noise_sq + proj.noise_sq(resid)
        y_next, resid = y, None
        yield j, y, c, zc, np.sqrt(noise_sq)


def _field(steps, bundle: PathBundle, basis: RegressionBasis, rung: int) -> SolutionField:
    """The field of rung ``rung`` from the ``(j, y, c, zc, noise)`` that ``steps``
    yields in a `_backward` pass: its coordinates, a copy of its terminal column
    and its fit noise."""
    grid = bundle.grid
    N = grid.steps
    y_coords, z_coords = [None] * N, [None] * N
    fit_noise = np.empty(N + 1)
    for j, y, c, zc, noise in steps:
        fit_noise[j] = noise[rung]
        if j == N:
            terminal = y[rung].copy()       # not a view that holds every rung's terminal
        else:
            y_coords[j], z_coords[j] = c[rung], zc[rung]
    return SolutionField(terminal=terminal, y_coords=tuple(y_coords), z_coords=tuple(z_coords),
                         z_divisor=grid.dt, maps=tuple(bundle.projectors(basis)), bundle=bundle,
                         basis=basis, fit_noise=fit_noise)


def solve_bounded(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                  basis: RegressionBasis) -> SolutionField:
    """Backward sweep for problems with bounded (e.g. truncated) data.

    The one-rung case of `_backward`: per step, Z from the centered
    martingale-increment regression, then the implicit value update
    y = fit(Y_next + g(t, y, Z) dt), one secant in the projector's
    coordinates (`_implicit_update`) run to ``_FP_TOL`` within
    ``_FP_MAX_ITER`` driver sweeps; else `SolverDivergedError` names the
    step and its cause (an ill-posed step or the sweep cap).  Each step
    freezes the driver at (t, b, Z) once (`Generator.at`) and iterates on y
    alone.  Only sampled finiteness of the inputs is enforced; boundedness is
    the caller's contract.
    """
    _check_inputs(grid, bundle)
    steps = _backward(g.at, _terminal_values(xi, bundle)[None], grid, bundle, basis)
    return _field(steps, bundle, basis, 0)


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
    stands in for B_N, with a_N = 1.  The iterate is held as the per-node
    coordinates a_j and G_j a_{j+1} that the result holds (its Z divisor is 1),
    filled by the warm start.  Step j expands node j's previous coordinates for
    the driver, then overwrites node j, which no later step of the sweep reads;
    per step and sweep only the driver, its projection and those expansions
    touch every path.

    Only the last sweep's gap and fit noise are read, so a sweep stops
    measuring (residual, noise, step gap) once a step has moved by
    ``_PICARD_TOL`` or more: it cannot be the last.  A measured step expands the
    new Y and Z once, for the residual, the step gap and the next step's node
    j + 1; the remaining steps only evaluate the driver and update the
    coordinates.  A NaN gap keeps the sweep measuring, and the sweep at
    ``_PICARD_MAX_ITER`` measures every step, so the error's gap is the whole
    sweep's.
    """
    _check_inputs(grid, bundle)
    levels = bundle.levels
    N, d = grid.steps, bundle.dims
    projs = bundle.projectors(basis)
    terminal = _terminal_values(xi, bundle)

    # driver-free warm start Y_j = fit(Y_{j+1}), building the operators on the way
    nodes, dts = grid.nodes, grid.dt
    C, G, ys, zs = [None] * N, [None] * N, [None] * N, [None] * N
    nxt, a = terminal[:, None], np.ones(1)
    for j in reversed(range(N)):
        proj, dt = projs[j], float(dts[j])
        db = levels[:, j + 1, :] - levels[:, j, :]
        C[j] = proj.cross([nxt])[0]
        G[j] = np.empty((d,) + C[j].shape)
        for k in range(d):
            D, E = proj.cross([nxt, proj], db[:, k])
            G[j][k] = (D - E @ C[j]) / dt
        zs[j] = (G[j] @ a).T
        a = ys[j] = C[j] @ a
        nxt = proj

    gap = math.inf
    step_gap = np.empty(N)
    step_noise_sq = np.zeros(N)
    for sweep in range(_PICARD_MAX_ITER):
        a = np.ones(1)
        y_next = terminal
        measure = True
        for j in reversed(range(N)):
            dt = float(dts[j])
            proj = projs[j]
            y_prev, z_prev = proj.expand(ys[j]), proj.expand(zs[j])
            frozen = g(float(nodes[j]), levels[:, j, :], y_prev, z_prev)
            f_coords = proj.coords(frozen)
            # a non-finite driver value makes its coordinates non-finite
            if not np.all(np.isfinite(f_coords)):
                raise PreconditionViolationError(f"driver produced non-finite values at step {j}")
            zs[j] = (G[j] @ a).T
            a = ys[j] = C[j] @ a + dt * f_coords
            if not measure:
                continue
            y, z = proj.expand(a), proj.expand(zs[j])
            step_noise_sq[j] = proj.noise_sq(frozen * dt + y_next - y)
            # the driver reads both fields, so both must settle
            step_gap[j] = np.maximum(np.max(np.abs(y - y_prev)), np.max(np.abs(z - z_prev)))
            y_next = y
            # a step that moved by the tolerance rules this sweep out as the
            # last (a NaN gap does not); the sweep at the limit measures all
            measure = not step_gap[j] >= _PICARD_TOL or sweep == _PICARD_MAX_ITER - 1
        # a sweep that stopped measuring holds a step gap >= _PICARD_TOL
        gap = float(np.max(step_gap))
        if gap < _PICARD_TOL:
            return SolutionField(terminal=terminal, y_coords=tuple(ys), z_coords=tuple(zs),
                                 z_divisor=np.ones(N), maps=tuple(projs), bundle=bundle,
                                 basis=basis, fit_noise=_fit_noise(step_noise_sq))
    raise IterationLimitError(_PICARD_MAX_ITER, gap)


def _fitted_residual(sol: SolutionField, g: Generator, u, v) -> np.ndarray:
    """Max over paths of the projected one-step residual of (U, V) under ``g``,
    per step, on the grid, bundle and basis of ``sol``.  ``u(j)`` reads U at
    node j and ``v(j)`` V on step j; each is read once, from the horizon back."""
    grid, levels = sol.grid, sol.bundle.levels
    projs = sol.bundle.projectors(sol.basis)
    out = np.empty(grid.steps)
    u_next = u(grid.steps)
    for j in reversed(range(grid.steps)):
        t, dt = float(grid.nodes[j]), float(grid.dt[j])
        u_j, v_j = u(j), v(j)
        gval = g(t, levels[:, j, :], u_j, v_j)
        vdb = levels[:, j + 1, :] - levels[:, j, :]
        vdb *= v_j
        # a -0.0 read by `_sum_last` can only flip the sign of a zero r,
        # which max |fit(r)| cannot see
        r = u_j - u_next - gval * dt + _sum_last(vdb)
        out[j] = float(np.max(np.abs(projs[j].fit(r))))
        u_next = u_j
    return out


def consistency_residual(sol: SolutionField, g: Generator) -> np.ndarray:
    """Max fitted one-step residual per step: how far (Y, Z) are from the
    discrete equation after projecting onto the basis."""
    return _fitted_residual(sol, g, sol.y, sol.z)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderResult:
    final: SolutionField
    violations: int
    comparisons: int
    diagonal_gaps: tuple               # sup |Y^{(k)} - Y^{(k-1)}| along the diagonal
    n_levels: tuple                    # the levels walked, each list sorted without repeats
    q_levels: tuple

    @property
    def violation_fraction(self) -> float:
        # no comparison made is no evidence of order: nan fails every "<=" rule
        return self.violations / self.comparisons if self.comparisons else math.nan

    @property
    def verdict(self) -> str:
        """`bounds.order_verdict` on the counts, and ``violated`` when a diagonal gap rises."""
        steady = all(b <= a for a, b in zip(self.diagonal_gaps, self.diagonal_gaps[1:]))
        return order_verdict(self.violations, self.comparisons) if steady else "violated"


def solve_ladder(g: Generator, xi: TerminalData, grid: TimeGrid, bundle: PathBundle,
                 basis: RegressionBasis, n_levels, q_levels) -> LadderResult:
    """Solve the clamped problems along the lattice diagonal and first row/column.

    Order counting: along the first row Y must be nondecreasing in n, along the
    first column nonincreasing in q.  The continuum comparison forces the
    ordering exactly; the regression fields can only be distinguished above
    their fit noise: each (path, node) pair counts by `bounds.order_violations`,
    with ``_ORDER_TOL`` * (1 + |Y|) as its slack for exact ties.  Where that
    allowance is not finite at some node, nothing is compared (``indeterminate``).
    The levels are ``n_levels`` and ``q_levels``, each sorted with its repeats
    dropped; an empty list is a ValueError.  The diagonal holds the shorter
    list at its top level.

    Each walk (the row with the shared first rung, then the rest of the
    column and of the diagonal) is one backward pass of `_backward` over all
    its rungs at once, and every rung comes out bit for bit as its own
    `solve_bounded` would.  The pass counts violations and diagonal gaps node
    by node as it visits them.  Across passes it holds the first rung's
    coordinates and terminal column, whose nodes each later pass expands as it
    reaches them, and the returned field is the last rung solved.  A failure
    names its step and rung (n, q).
    """
    _check_inputs(grid, bundle)
    lv_n, lv_q = (sorted(set(int(v) for v in levels)) for levels in (n_levels, q_levels))
    for name, levels in (("n_levels", lv_n), ("q_levels", lv_q)):
        if not levels:
            raise ValueError(f"{name} is empty: the ladder needs at least one level")
    row = [(n, lv_q[0]) for n in lv_n]
    column = [(lv_n[0], q) for q in lv_q]
    diagonal = [(lv_n[min(k, len(lv_n) - 1)], lv_q[min(k, len(lv_q) - 1)])
                for k in range(max(len(lv_n), len(lv_q)))]
    N = grid.steps
    projs = bundle.projectors(basis)
    violations = comparisons = 0
    finite = True
    gaps = []
    first = [None] * (N + 1)        # the first rung's coordinates per node, its terminal at N
    first_noise = np.empty(N + 1)

    def count(low, high):
        # high Y >= low Y at one node: rung pairs stacked, Y (P, M) and noise (P,)
        nonlocal violations, comparisons, finite
        (low_y, low_noise), (high_y, high_noise) = low, high
        violations += order_violations(low_y - high_y, low_noise[:, None], high_noise[:, None],
                                       _ORDER_TOL * (1.0 + np.abs(high_y)))
        comparisons += low_y.size
        finite = finite and bool(np.isfinite(low_noise + high_noise).all())

    def walk(keys, compare):
        # one pass over the walk's rungs, each compared with the one before; yields its steps
        rungs = keys if keys is row else keys[1:]   # the row pass solves the first rung too
        n, q = (np.array([[k[i]] for k in rungs], dtype=float) for i in (0, 1))
        xis = [truncate_terminal(xi, TruncationIndex(*k)) for k in rungs]
        y_end = np.stack([_terminal_values(x, bundle) for x in xis])
        steps = _backward(truncated_at(g, n, q), y_end, grid, bundle, basis, rungs)
        del y_end                           # the pass holds it until its first step
        on_diagonal = keys == diagonal
        node_gaps = np.empty((len(keys) - 1, N + 1))
        for j, y, c, z, noise in steps:
            chain_y, chain_noise = y, noise
            if keys is row:
                first[j], first_noise[j] = y[0].copy() if j == N else c[0], noise[0]
            else:       # the walk's chain starts at the shared first rung
                first_y = first[j] if j == N else projs[j].expand(first[j])
                chain_y = np.concatenate([first_y[None], y])
                chain_noise = np.concatenate([first_noise[j:j + 1], noise])
            # every rung pair of the chain at once: each rung against the one before it
            if compare is not None:
                compare((chain_y[:-1], chain_noise[:-1]), (chain_y[1:], chain_noise[1:]))
            if on_diagonal:
                # field distance per node (mean over paths); sup over nodes below
                node_gaps[:, j] = np.mean(np.abs(chain_y[1:] - chain_y[:-1]), axis=1)
            yield j, y, c, z, noise
        if on_diagonal:
            gaps.extend(float(v) for v in np.max(node_gaps, axis=1))

    walks = [(row, count), (column, lambda prev, cur: count(cur, prev))]    # up in n, down in q
    if diagonal not in (row, column):    # else a one-level list made it the row or column
        walks.append((diagonal, None))
    *walks, final_walk = [(keys, compare) for keys, compare in walks
                          if keys is row or len(keys) > 1]
    for keys, compare in walks:
        for _ in walk(keys, compare):
            pass
    final = _field(walk(*final_walk), bundle, basis, -1)
    if not finite:
        violations = comparisons = 0
    return LadderResult(final=final, violations=violations, comparisons=comparisons,
                        diagonal_gaps=tuple(gaps), n_levels=tuple(lv_n), q_levels=tuple(lv_q))


# ---------------------------------------------------------------------------
# theta residual
# ---------------------------------------------------------------------------

def _theta_mix(x: np.ndarray, x_prime: np.ndarray, theta: float) -> np.ndarray:
    # (x - theta x') / (1 - theta), in a buffer of its own
    out = np.multiply(x_prime, theta)
    np.subtract(x, out, out=out)
    out /= 1.0 - theta
    return out


@dataclass(frozen=True)
class ThetaResidual:
    """The difference field dU = (Y - theta Y')/(1-theta), dV likewise for Z, of
    the pair (``sol``, ``sol_prime``), with its fitted one-step residual per step.
    ``dU`` (paths, N+1) and ``dV`` (paths, N, dims) form the whole field from the
    pair's."""

    theta: float
    sol: SolutionField
    sol_prime: SolutionField
    consistency: np.ndarray            # fitted one-step residual per step

    @property
    def dU(self) -> np.ndarray:
        return _stacked(lambda j: _theta_mix(self.sol.y(j), self.sol_prime.y(j), self.theta),
                        (self.sol.bundle.count, self.sol.grid.steps + 1))

    @property
    def dV(self) -> np.ndarray:
        return _stacked(lambda j: _theta_mix(self.sol.z(j), self.sol_prime.z(j), self.theta),
                        (self.sol.bundle.count, self.sol.grid.steps, self.sol.bundle.dims))


def theta_residual(sol: SolutionField, sol_prime: SolutionField, theta: float,
                   g: Generator, g_prime: Generator) -> ThetaResidual:
    """Difference field dU = (Y - theta Y')/(1-theta), dV likewise for Z, checked
    for one-step consistency against the theta-difference driver of ``g`` and
    ``g_prime`` anchored at (Y', Z').  The two fields must share one grid and one
    bundle (`bounds._check_same_bundle`).  Each node of either field is expanded
    once: the anchor reads the node that the difference just read.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    _check_same_bundle(sol, sol_prime)
    y_prime = functools.lru_cache(maxsize=1)(sol_prime.y)
    z_prime = functools.lru_cache(maxsize=1)(sol_prime.z)
    steps = sol.grid.steps
    dg = _theta_difference(g, g_prime, theta, sol.grid,
                           lambda j: (y_prime(j), z_prime(min(j, steps - 1))))
    consistency = _fitted_residual(sol, dg, lambda j: _theta_mix(sol.y(j), y_prime(j), theta),
                                   lambda j: _theta_mix(sol.z(j), z_prime(j), theta))
    return ThetaResidual(theta=theta, sol=sol, sol_prime=sol_prime, consistency=consistency)
