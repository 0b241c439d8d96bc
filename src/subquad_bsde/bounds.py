"""Numerical verification of the a-priori moment bounds and the comparison order.

All expectations of exponentially large quantities are carried in log space;
nothing here ever materializes exp(x) for x > 700.  Where a bound's right side
involves E_t[exp(L)] with huge L, the check substitutes the conditional Jensen
minorant exp(E_t[L]): passing against the minorant certifies the original
inequality a fortiori, and the capping of L at 700 only ever weakens our side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import _OVERFLOW_LOG, _delta_p, _k_alpha
from .errors import InvalidCoefficientError
from .generators import _norm, _sum_last


def _mean_rel_se(x: np.ndarray) -> tuple[float, float]:
    """(sample mean of x, its relative standard error std / (mean sqrt(n))).

    The mean is floored at 1e-300 in the error's denominator only.  A mean of
    fewer than two samples has no standard error: it is inf.
    """
    mean = float(x.mean())
    n = len(x)
    se_rel = float(x.std(ddof=1) / (max(mean, 1e-300) * math.sqrt(n))) if n > 1 else math.inf
    return mean, se_rel


def log_mean_exp(logs: np.ndarray) -> tuple[float, float]:
    """(log of the sample mean of exp(logs), relative standard error)."""
    logs = np.asarray(logs, dtype=float)
    top = float(logs.max())
    mean_w, se_rel = _mean_rel_se(np.exp(logs - top))     # mean_w >= 1/n: the floor never binds
    return top + math.log(mean_w), se_rel


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo moment carried as a log-value with a relative standard error."""

    log_value: float
    se_rel: float

    def __post_init__(self):
        if self.se_rel < 0.0:
            raise ValueError("standard error must be nonnegative")

    @property
    def overflowed(self) -> bool:
        return self.log_value > _OVERFLOW_LOG

    @property
    def value(self) -> float:
        return math.inf if self.overflowed else math.exp(self.log_value)


@dataclass(frozen=True)
class BoundCheckResult:
    """Per-time outcome of one bound check.

    The comparison check reuses the three value fields: ``log_lhs`` holds the
    per-node max gap Y - Y', ``log_rhs`` the allowance eps and ``se`` the
    per-node violation fraction; ``columns`` names them accordingly.
    """

    bound_id: str
    times: np.ndarray
    log_lhs: np.ndarray          # per checked time, at the tightest path
    log_rhs: np.ndarray
    se: np.ndarray               # combined log-scale standard error per time
    margin_min: np.ndarray       # min over paths of log_rhs - log_lhs
    verdict: str                 # satisfied | violated | indeterminate
    violation_fraction: float = 0.0
    terminal_failures: int = 0   # comparison: paths with xi > xi', the first 10 in witnesses
    witnesses: tuple = ()        # as (path, xi, xi')

    @property
    def satisfied(self) -> bool:
        return self.verdict == "satisfied"

    @property
    def undecided(self) -> int:
        """How many checked nodes settle nothing on their own: on the
        comparison, those with a non-finite allowance eps; on a bound, those
        that `_node_states` reads ``undecided``."""
        if self.bound_id == "comparison":
            return int(np.count_nonzero(~np.isfinite(self.log_rhs)))
        return int(np.count_nonzero(_node_states(self.margin_min, self.se) == "undecided"))

    def columns(self) -> dict:
        """CSV columns, one row per checked time, headed by what each value is."""
        names = (("gap_max", "eps", "violation_fraction") if self.bound_id == "comparison"
                 else ("log_lhs", "log_rhs", "se"))
        values = (self.log_lhs, self.log_rhs, self.se)
        return {"time": self.times, **dict(zip(names, values)),
                "verdict": [self.verdict] * len(self.times)}


def _node_states(margins: np.ndarray, ses: np.ndarray) -> np.ndarray:
    """The bound checks' per-node rule: ``violated`` where the margin lies below
    -3 se, ``satisfied`` where it is at least 0 with se within half of it, else
    ``undecided``.  Every comparison with NaN is false, so a NaN margin or se
    is ``undecided``."""
    return np.select([margins < -3.0 * ses, (margins >= 0.0) & (ses <= 0.5 * np.abs(margins))],
                     ["violated", "satisfied"], "undecided")


def _classify(margins: np.ndarray, ses: np.ndarray) -> str:
    """Verdict at the tightest margin: ``violated`` or ``satisfied`` as
    `_node_states` reads that node, else ``indeterminate``.  A NaN margin
    (say inf - inf) decides nothing: the tightest is taken over the other
    nodes, and the check cannot read ``satisfied``."""
    undefined = np.isnan(margins)
    if undefined.all():
        return "indeterminate"
    state = str(_node_states(margins, ses)[int(np.nanargmin(margins))])
    if state == "violated" or (state == "satisfied" and not undefined.any()):
        return state
    return "indeterminate"


# ---------------------------------------------------------------------------
# the shifted forcing process
# ---------------------------------------------------------------------------

def fhat_process(profile, sol_prime) -> np.ndarray:
    """f + beta|Y'| + gamma [ln(e+|Z'|)]^{alpha*/2} on the step-left nodes, (M, N).

    Coefficients come from the profile's convexity tier: this is the shifted
    forcing of the comparison argument, whose hypothesis carries that tier.
    """
    grid, bundle = sol_prime.grid, sol_prime.bundle
    f_fn, beta_fn, gamma_fn = profile.convexity_tier()
    levels = bundle.levels
    half = profile.alpha_star / 2.0
    out = np.empty((bundle.count, grid.steps))
    for j in range(grid.steps):
        t = float(grid.nodes[j])
        zn = _norm(sol_prime.z(j))
        out[:, j] = (f_fn(t, levels[:, j, :])
                     + beta_fn(t) * np.abs(sol_prime.y(j))
                     + gamma_fn(t) * np.log(math.e + zn) ** half)
    if np.any(out < 0.0):
        raise ValueError("forcing process must be nonnegative")
    return out


@dataclass(frozen=True)
class FhatMomentCheck:
    moment: MomentEstimate
    ln_moment: MomentEstimate
    jensen_majorant: MomentEstimate
    jensen_consistent: bool


def verify_fhat_moment(fhat: np.ndarray, grid, p: float, alpha_star: float,
                       gamma: Callable, z_prime: np.ndarray) -> FhatMomentCheck:
    """Estimate E[exp(p (int fhat dt)^{2/alpha*})] with the Jensen cross-check.

    Also estimates the log-term moment of ``z_prime`` and its concavity
    majorant E[(k_alpha + int |Z'| dmu)^{delta_p}] under the normalized
    measure dmu = gamma dt / int gamma, and reports whether the estimated
    ordering is consistent within 3 standard errors.  int gamma totals the ln-integral's
    own weights gamma(t_j) dt_j: only then does the majorant bound it path by path.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    fhat = np.asarray(fhat, dtype=float)
    dt = grid.dt
    integral = fhat @ dt
    log_m, se_m = log_mean_exp(p * integral ** (2.0 / alpha_star))
    moment = MomentEstimate(log_m, se_m)

    half = alpha_star / 2.0
    gvals = np.asarray([float(gamma(t)) for t in grid.nodes[:-1]])
    weights = gvals * dt
    total = float(weights.sum())
    if not 0.0 < total < math.inf:
        raise InvalidCoefficientError(f"Jensen majorant needs 0 < int(gamma) < inf, got {total}")
    zn = _norm(z_prime)
    w = (zn @ weights) / total
    # zn becomes the log term in place: one (M, N) array for both integrals
    np.add(zn, math.e, out=zn)
    np.log(zn, out=zn)
    zn **= half
    ln_int = zn @ weights
    log_ln, se_ln = log_mean_exp(p * ln_int ** (2.0 / alpha_star))
    ln_moment = MomentEstimate(log_ln, se_ln)

    log_mj, se_mj = log_mean_exp(_delta_p(p, total, alpha_star) * np.log(_k_alpha(alpha_star) + w))
    majorant = MomentEstimate(log_mj, se_mj)
    slack = 3.0 * math.hypot(se_ln, se_mj)
    return FhatMomentCheck(moment=moment, ln_moment=ln_moment, jensen_majorant=majorant,
                           jensen_consistent=bool(log_ln <= log_mj + slack))


# ---------------------------------------------------------------------------
# pointwise and sup bounds
# ---------------------------------------------------------------------------

def _decile_indices(grid) -> np.ndarray:
    targets = np.linspace(0.0, 0.9, 10) * grid.horizon
    idx = np.array(sorted({int(np.argmin(np.abs(grid.nodes - s))) for s in targets}))
    return idx[idx < grid.steps]


def _tail_forcing(f_process, grid, levels):
    """Per-path forcing integrals int_{t_j}^T f ds, yielded as (j, tail) for
    j = N-1, ..., 0: a running sum from the horizon back, one step at a time,
    each tail a new (M,) array."""
    tail = np.zeros(levels.shape[0])
    for j in reversed(range(grid.steps)):
        tail = tail + np.asarray(f_process(float(grid.nodes[j]), levels[:, j, :]),
                                 dtype=float) * grid.dt[j]
        yield j, tail


def _capped_exponent(log_K: float, power: float, x: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The right side's exponent K (x + int_t^T f)^{2/a*} per path, with K capped at
    e^700 and the exponent at 700: exp of it never overflows, and the cap only lowers it."""
    return np.minimum(math.exp(min(log_K, _OVERFLOW_LOG)) * (x + tail) ** power, _OVERFLOW_LOG)


def _bound_result(bound_id: str, rows) -> BoundCheckResult:
    """A bound check's result from its per-node rows (time, log_lhs, log_rhs, se,
    margin_min), with the verdict that `_classify` reads from them."""
    times, log_lhs, log_rhs, se, margin_min = (np.asarray(c) for c in zip(*rows))
    return BoundCheckResult(bound_id=bound_id, times=times, log_lhs=log_lhs, log_rhs=log_rhs,
                            se=se, margin_min=margin_min, verdict=_classify(margin_min, se))


def verify_pointwise_bound(sol, constants, xi_values: np.ndarray, f_process,
                           variant: str = "two-sided") -> BoundCheckResult:
    """Conditional bound exp(|Y_t|^{2/a*}) + E_t[int_t^T |Z|^2] <= K E_t[exp(K(|xi|+int f)^{2/a*})].

    ``variant`` ``one-sided`` replaces |Y| by Y+, gates the quadratic variation
    by {Y > 0}, and uses xi+ on the right.  Conditional expectations are the
    solver's regression proxies at decile times; the right side is lowered to
    its conditional Jensen minorant, so a satisfied verdict is conservative.
    A regression's standard error is its projector's `noise_sq`.  One pass
    from the horizon back carries the tails as running sums and reads each
    node of the field once.
    """
    if variant not in ("two-sided", "one-sided"):
        raise ValueError(f"unknown variant {variant!r}")
    grid, bundle = sol.grid, sol.bundle
    projs = bundle.projectors(sol.basis)
    one_sided = variant == "one-sided"
    power = 2.0 / constants.alpha_star
    log_K = constants.log_K.log

    xi_eff = np.maximum(xi_values, 0.0) if one_sided else np.abs(xi_values)
    deciles = set(_decile_indices(grid).tolist())

    rows = []
    tail_q = np.zeros(bundle.count)
    for j, tail_f in _tail_forcing(f_process, grid, bundle.levels):
        y = sol.y(j) if one_sided or j in deciles else None
        tail_q = tail_q + (_sum_last(sol.z(j) ** 2) * grid.dt[j]
                           * (y > 0.0 if one_sided else 1.0))
        if j not in deciles:
            continue
        proj = projs[j]
        q_fit = np.maximum(proj.fit(tail_q), 0.0)
        se_q = math.sqrt(proj.noise_sq(tail_q - q_fit))
        ypart = np.maximum(y, 0.0) ** power if one_sided else np.abs(y) ** power
        log_lhs = np.logaddexp(ypart, np.log(np.maximum(q_fit, 1e-300)))

        big = _capped_exponent(log_K, power, xi_eff, tail_f)
        big_fit = proj.fit(big)
        se_big = math.sqrt(proj.noise_sq(big - big_fit))
        log_rhs = log_K + big_fit

        margins = log_rhs - log_lhs
        se_lhs = se_q / np.maximum(np.exp(log_lhs), 1e-300)   # d(log)/dQ * se
        se_comb = np.sqrt(se_lhs ** 2 + se_big ** 2)
        worst = int(np.argmin(margins))
        rows.append((float(grid.nodes[j]), float(log_lhs[worst]), float(log_rhs[worst]),
                     float(se_comb[worst]), float(margins.min())))
    return _bound_result(f"pointwise-{variant}", rows[::-1])


def verify_sup_bound(sol, constants, xi_values: np.ndarray, f_process,
                     p: float = 2.0) -> BoundCheckResult:
    """Unconditional bound E[exp(p sup|Y|^{2/a*})] + E[(int|Z|^2)^{p/2}] <= K_p E[exp(K_p (|xi|+int f)^{2/a*})].

    Checked from node 0 and from the node nearest T/2.  One forward pass reads
    each node of the field once and carries, per start, the running max of |Y|
    and the running sum of |Z|^2 dt, added in step order.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    grid, bundle = sol.grid, sol.bundle
    N = grid.steps
    power = 2.0 / constants.alpha_star
    log_Kp = constants.K_p(p).log
    half_idx = int(np.argmin(np.abs(grid.nodes - 0.5 * grid.horizon)))
    starts = tuple(dict.fromkeys((0, half_idx)))      # one node on a one-step grid
    # both start from 0.0, which neither max |Y| nor a sum of squares can move
    sup_y, zsq_sum = dict.fromkeys(starts, 0.0), dict.fromkeys(starts, 0.0)
    for j in range(N + 1):
        running = [s for s in starts if s <= j]
        abs_y = np.abs(sol.y(j))
        for s in running:
            sup_y[s] = np.maximum(sup_y[s], abs_y)
        if j < N:
            zsq = _sum_last(sol.z(j) ** 2)      # our own squares: scaled in place
            zsq *= grid.dt[j]
            for s in running:
                zsq_sum[s] = zsq_sum[s] + zsq
    tail_f = {j: tail for j, tail in _tail_forcing(f_process, grid, bundle.levels)
              if j in starts}

    rows = []
    for j in starts:
        log_a, se_a = log_mean_exp(p * sup_y[j] ** power)
        q = zsq_sum[j]
        mean_qp, se_b_rel = _mean_rel_se(q ** (p / 2.0))
        log_b = math.log(max(mean_qp, 1e-300))
        log_lhs = float(np.logaddexp(log_a, log_b))
        wa, wb = math.exp(log_a - log_lhs), math.exp(log_b - log_lhs)
        se_lhs = math.hypot(wa * se_a, wb * se_b_rel)

        log_rhs_mean, se_rhs = log_mean_exp(
            _capped_exponent(log_Kp, power, np.abs(xi_values), tail_f[j]))
        log_rhs = log_Kp + log_rhs_mean
        rows.append((float(grid.nodes[j]), log_lhs, log_rhs, math.hypot(se_lhs, se_rhs),
                     log_rhs - log_lhs))
    return _bound_result(f"sup-p{p:g}", rows)


# ---------------------------------------------------------------------------
# comparison order
# ---------------------------------------------------------------------------

_COMPARISON_C = 0.5               # discretization allowance c * sqrt(max dt)
_COMPARISON_MAX_FRACTION = 0.005  # violation fraction a satisfied verdict may carry


def _order_allowance(slack, noise_low, noise_high):
    return slack + 3.0 * (noise_low + noise_high)


def order_violations(gap: np.ndarray, noise_low, noise_high, slack) -> int:
    """How many entries of ``gap`` = low - high, (..., M), break low <= high beyond
    slack + 3 (noise_low + noise_high); the noises are shaped (..., 1), one per row."""
    return int(np.count_nonzero(gap > _order_allowance(slack, noise_low, noise_high)))


def order_verdict(violations: int, comparisons: int, finite: bool = True) -> str:
    """``indeterminate`` when the allowance is not finite at some node or nothing was
    compared, ``satisfied`` when at most 0.5% of the compared pairs violate, else ``violated``."""
    return ("indeterminate" if not finite or not comparisons else
            "satisfied" if violations / comparisons <= _COMPARISON_MAX_FRACTION else "violated")


def _check_same_bundle(sol, sol_prime) -> None:
    """Raise ValueError unless the two fields live on one grid and one path bundle:
    the same bundle object, or bundles with equal levels, so that row i of each is
    path i of the other."""
    if sol.grid is not sol_prime.grid and not np.array_equal(sol.grid.nodes, sol_prime.grid.nodes):
        raise ValueError("solutions must share one grid")
    if sol.bundle is not sol_prime.bundle and not np.array_equal(sol.bundle.levels,
                                                                 sol_prime.bundle.levels):
        raise ValueError("solutions must share one path bundle: the same bundle, "
                         "or one with equal levels")


def verify_comparison(sol, sol_prime, xi_values: Optional[np.ndarray] = None,
                      xi_prime_values: Optional[np.ndarray] = None) -> BoundCheckResult:
    """Check the pathwise order Y <= Y' + eps on every grid node.

    eps = 0.5 sqrt(max dt) + 3 (noise + noise'): `order_violations` with a
    discretization slack, on the solvers' accumulated regression noise
    (`SolutionField.fit_noise`; a field without it is a ValueError), and
    `order_verdict` over all (path, node) pairs, node N included.  The caller
    asserts the hypothesis pattern; a supplied terminal pair with xi > xi' +
    1e-12 on any path makes the measured result ``violated``, with witnesses.
    The two fields must share one grid and one path bundle (`_check_same_bundle`).
    """
    _check_same_bundle(sol, sol_prime)
    if sol.fit_noise is None or sol_prime.fit_noise is None:
        raise ValueError("the comparison allowance needs both solutions' fit_noise")
    bad = (np.flatnonzero(xi_values > xi_prime_values + 1e-12)
           if xi_values is not None and xi_prime_values is not None else [])
    witnesses = tuple((int(i), float(xi_values[i]), float(xi_prime_values[i])) for i in bad[:10])

    slack = _COMPARISON_C * math.sqrt(float(np.max(sol.grid.dt)))
    eps = _order_allowance(slack, sol.fit_noise, sol_prime.fit_noise)
    M, nodes = sol.bundle.count, sol.grid.steps + 1
    gap_max = np.empty(nodes)
    counts = np.empty(nodes, dtype=np.int64)
    for j in range(nodes):
        gap = sol.y(j) - sol_prime.y(j)          # should be <= eps everywhere
        counts[j] = order_violations(gap, sol.fit_noise[j], sol_prime.fit_noise[j], slack)
        gap_max[j] = gap.max()
    return BoundCheckResult(bound_id="comparison", times=sol.grid.nodes.copy(), log_lhs=gap_max,
                            log_rhs=eps, se=counts / M, margin_min=eps - gap_max,
                            verdict="violated" if witnesses else
                            order_verdict(counts.sum(), M * nodes, np.isfinite(eps).all()),
                            violation_fraction=float(counts.sum() / (M * nodes)),
                            terminal_failures=len(bad), witnesses=witnesses)
