"""Sampled verdicts for the structural generator conditions.

Every check evaluates a universally quantified pointwise inequality on a
sample cloud.  Sampling can only ever prove failure: verdict ``pass`` means
"no counterexample found on this cloud", and a sample only counts as failing
when its margin drops below -1e-9 * (1 + |RHS|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import gamma_integral
from .errors import ConfigurationError, UnsupportedDimensionError
from .generators import Generator, _norm
from .paths import stream

MARGIN_RTOL = 1e-9

_GROWTH_IDS = ("EX1", "EX1prime", "EX2", "A1", "A5")
_Y_REGULARITY_IDS = ("A2i", "A2ii", "monotone-limit")
_Z_REGULARITY_IDS = ("A3i", "A3ii", "A4", "A6i", "A6ii")
_THETA_CONVEXITY_IDS = ("UN-i", "UN-ii", "UNprime-i", "UNprime-ii")
CONDITION_IDS = _GROWTH_IDS + _Y_REGULARITY_IDS + _Z_REGULARITY_IDS + _THETA_CONVEXITY_IDS


@dataclass(frozen=True)
class SampleCloud:
    """Evaluation points (t, b, y1, z1, y2, z2, theta) for the pointwise checks."""

    t: np.ndarray
    b: np.ndarray
    y1: np.ndarray
    z1: np.ndarray
    y2: np.ndarray
    z2: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        if np.any(self.theta <= 0.0) or np.any(self.theta >= 1.0):
            raise ValueError("theta samples must lie strictly inside (0, 1)")
        for name in ("t", "b", "y1", "z1", "y2", "z2", "theta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite {name} samples")

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def dims(self) -> int:
        return self.z1.shape[1]

    def reflected(self) -> "SampleCloud":
        """Cloud with (y, z) negated; pairs the duality between one-sided checks."""
        return SampleCloud(t=self.t, b=self.b, y1=-self.y1, z1=-self.z1,
                           y2=-self.y2, z2=-self.z2, theta=self.theta)


def build_cloud(horizon: float, dims: int, size: int, strategy: str = "random",
                seed: int = 0) -> SampleCloud:
    """Draw a sample cloud over [0, horizon] x R^{1+d} pairs x (0,1).

    ``random`` mixes scales from 1e-3 to 10 so both the near-origin kinks and
    the growth regime are exercised; ``adversarial-corner`` seeds the product
    of extreme thetas, sign quadrants, and magnitude corners where the band
    constructions switch branches; ``grid`` is a coarse deterministic mesh.
    """
    rng = stream(seed, "cloud")

    def scaled(n):
        mags = 10.0 ** rng.uniform(-3.0, 1.0, size=n)
        signs = rng.choice([-1.0, 1.0], size=n)
        return signs * mags

    if strategy == "random":
        t = rng.uniform(0.0, horizon, size)
        y1, y2 = scaled(size), scaled(size)
        z1 = scaled(size * dims).reshape(size, dims)
        z2 = scaled(size * dims).reshape(size, dims)
        theta = rng.uniform(0.005, 0.995, size)
    elif strategy == "grid":
        axes = np.linspace(-4.0, 4.0, max(2, int(round(size ** (1.0 / 3.0)))))
        thetas = np.array([0.1, 0.5, 0.9])
        y1, y2, theta = (a.ravel() for a in np.meshgrid(axes, axes, thetas))
        t = np.resize(np.linspace(0.0, horizon, 7), y1.shape)
        z1 = np.resize(axes, (len(y1), dims))
        z2 = np.resize(axes[::-1], (len(y1), dims))
    elif strategy == "adversarial-corner":
        thetas = np.array([0.01, 0.5, 0.99])
        ymags = np.array([0.0, 1e-6, 1e-3, 0.05, 0.3, 1.0, 10.0])
        zmags = np.array([0.0, 1e-3, 0.05, 1.0, 10.0])
        ys = np.concatenate([ymags, -ymags])
        combos = np.array(np.meshgrid(ys, ys, zmags, zmags, thetas)).reshape(5, -1).T
        y1, y2 = combos[:, 0], combos[:, 1]
        z1 = np.repeat(combos[:, 2:3], dims, axis=1) / math.sqrt(dims)
        z2 = np.repeat(combos[:, 3:4], dims, axis=1) / math.sqrt(dims)
        z1[::2, :] *= -1.0
        theta = combos[:, 4]
        t = np.resize(np.array([0.0, 0.5 * horizon, horizon]), y1.shape)
    else:
        raise ValueError(f"unknown cloud strategy {strategy!r}")

    b = rng.standard_normal((len(y1), dims)) * np.sqrt(np.maximum(t, 1e-12))[:, None]
    return SampleCloud(t=t, b=b, y1=y1, z1=z1, y2=y2, z2=z2, theta=theta)


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    verdict: str                      # pass | fail | inconclusive
    worst_margin: float
    witnesses: tuple = ()
    samples_used: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _assemble(condition_id: str, lhs, rhs, points) -> ConditionReport:
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.size == 0:
        return ConditionReport(condition_id, "inconclusive", math.nan, (), 0,
                               "no usable samples after domain restriction")
    margin = rhs - lhs
    tol = MARGIN_RTOL * (1.0 + np.abs(rhs))
    failing = np.flatnonzero(margin < -tol)
    worst = float(margin.min())
    if failing.size:
        order = failing[np.argsort(margin[failing])][:10]
        witnesses = tuple(tuple(float(p[i]) if np.ndim(p[i]) == 0 else tuple(np.asarray(p[i], dtype=float))
                                for p in points) for i in order)
        return ConditionReport(condition_id, "fail", worst, witnesses, lhs.size)
    return ConditionReport(condition_id, "pass", worst, (), lhs.size)


def _need(profile, *names):
    missing = [n for n in names if getattr(profile, n) is None]
    if missing:
        raise ConfigurationError([f"profile is missing coefficient {n!r}" for n in missing])


# ---------------------------------------------------------------------------
# growth conditions
# ---------------------------------------------------------------------------

def check_growth(g: Generator, which: str, cloud: SampleCloud) -> ConditionReport:
    """One-point growth inequalities: EX1, EX1prime, EX2, A1, A5."""
    prof = g.profile
    t, b = cloud.t, cloud.b
    # both halves of the pair cloud serve as single evaluation points
    y = np.concatenate([cloud.y1, cloud.y2])
    z = np.vstack([cloud.z1, cloud.z2])
    t2, b2 = np.concatenate([t, t]), np.vstack([b, b])
    gval = g(t2, b2, y, z)
    fval = prof.f(t2, b2)
    zn = _norm(z)
    ay = np.abs(y)
    points = (t2, y, zn)

    if which == "EX1":
        sgn = np.where(y > 0.0, 1.0, -1.0)
        rhs = fval + prof.beta(t2) * ay + prof.gamma(t2) * zn ** prof.alpha
        return _assemble("EX1", sgn * gval, rhs, points)
    if which == "EX1prime":
        rhs = fval + prof.beta(t2) * ay + prof.gamma(t2) * zn ** prof.alpha
        return _assemble("EX1prime", np.where(y > 0.0, gval, 0.0), rhs, points)
    if which == "EX2":
        rhs = fval + prof.beta(t2) * prof.psi_growth(ay) + prof.c_quad * zn ** 2
        return _assemble("EX2", np.abs(gval), rhs, points)
    if which == "A1":
        _need(prof, "u", "v")
        rhs = fval + prof.u(t2) * ay + prof.v(t2) * zn ** prof.alpha
        return _assemble("A1", np.abs(gval), rhs, points)
    if which == "A5":
        _need(prof, "u_bar", "v_bar")
        rhs = fval + prof.u_bar(t2) * ay + prof.v_bar(t2) * np.log(math.e + zn) ** (prof.alpha_star / 2.0)
        return _assemble("A5", np.abs(gval), rhs, points)
    raise ConfigurationError(f"unknown growth condition {which!r}")


def check_y_regularity(g: Generator, which: str, cloud: SampleCloud) -> ConditionReport:
    """Pair inequalities in y at shared z: A2i, A2ii, monotone-limit."""
    prof = g.profile
    t, b, z = cloud.t, cloud.b, cloud.z1

    if which == "A2i":
        _need(prof, "k1")
        y1, y2 = -np.abs(cloud.y1), -np.abs(cloud.y2)
        lhs = np.sign(y1 - y2) * (g(t, b, y1, z) - g(t, b, y2, z))
        rhs = prof.k1(t) * np.abs(y1 - y2)
        return _assemble("A2i", lhs, rhs, (t, y1, y2))
    if which == "A2ii":
        _need(prof, "k2")
        y1, y2 = np.abs(cloud.y1), np.abs(cloud.y2)
        lhs = np.abs(g(t, b, y1, z) - g(t, b, y2, z))
        rhs = prof.k2(t) * np.abs(y1 - y2)
        return _assemble("A2ii", lhs, rhs, (t, y1, y2))
    if which == "monotone-limit":
        y1, y2 = cloud.y1, cloud.y2
        gap = g(t, b, y1, z) - g(t, b, y2, z)
        lhs = np.where(y1 - y2 > 0.0, gap, 0.0)
        rhs = prof.beta(t) * np.abs(y1 - y2)
        return _assemble("monotone-limit", lhs, rhs, (t, y1, y2))
    raise ConfigurationError(f"unknown y-regularity condition {which!r}")


def check_z_regularity(g: Generator, which: str, cloud: SampleCloud) -> ConditionReport:
    """Scalar-noise z conditions: A3i, A3ii, A4, A6i, A6ii (d = 1 only)."""
    prof = g.profile
    if cloud.dims != 1:
        raise UnsupportedDimensionError(f"{which} is stated for scalar noise, cloud has d={cloud.dims}")
    t, b, y = cloud.t, cloud.b, cloud.y1
    a = prof.a
    u1, u2 = cloud.z1[:, 0], cloud.z2[:, 0]

    def gz(zvals):
        return g(t, b, y, zvals[:, None])

    if which == "A3i":
        _need(prof, "c1")
        v1, v2 = np.clip(u1, -a, a), np.clip(u2, -a, a)
        lhs = np.abs(gz(v1) - gz(v2))
        rhs = prof.c1(t) * np.abs(v1 - v2)
        return _assemble("A3i", lhs, rhs, (t, v1, v2))
    if which == "A3ii":
        # convex combination test on each ray; theta from the cloud
        th = cloud.theta
        reports = []
        for sign in (1.0, -1.0):
            p1, p2 = sign * (a + np.abs(u1)), sign * (a + np.abs(u2))
            mid = th * p1 + (1.0 - th) * p2
            lhs = gz(mid)
            rhs = th * gz(p1) + (1.0 - th) * gz(p2)
            reports.append(_assemble("A3ii", lhs, rhs, (t, p1, p2, th)))
        worst = min(reports, key=lambda r: (r.verdict != "fail", r.worst_margin))
        return worst
    if which == "A4":
        _need(prof, "c2", "c3")
        zr = a + np.abs(u1)
        lhs_r = -(gz(zr) - gz(np.full_like(zr, a)))
        rhs_r = prof.c2(t) * (zr - a)
        zl = -a - np.abs(u2)
        lhs_l = -(gz(zl) - gz(np.full_like(zl, -a)))
        rhs_l = -prof.c3(t) * (zl + a)
        return _assemble("A4", np.concatenate([lhs_r, lhs_l]),
                         np.concatenate([rhs_r, rhs_l]),
                         (np.concatenate([t, t]), np.concatenate([zr, zl])))
    if which == "A6i":
        _need(prof, "c_bar")
        lhs = np.abs(gz(u1) - gz(u2))
        rhs = prof.c_bar(t) * np.abs(u1 - u2)
        return _assemble("A6i", lhs, rhs, (t, u1, u2))
    if which == "A6ii":
        lo = np.minimum(np.abs(u1), np.abs(u2)) + a
        hi = np.maximum(np.abs(u1), np.abs(u2)) + a
        inc = gz(lo) - gz(hi)          # nondecreasing right of a: g(lo) <= g(hi)
        dec = gz(-lo) - gz(-hi)        # nonincreasing left of -a: g(-lo) <= g(-hi)
        return _assemble("A6ii", np.concatenate([inc, dec]),
                         np.zeros(2 * len(lo)), (np.concatenate([t, t]),
                                                 np.concatenate([lo, lo]),
                                                 np.concatenate([hi, hi])))
    raise ConfigurationError(f"unknown z-regularity condition {which!r}")


# ---------------------------------------------------------------------------
# extended convexity
# ---------------------------------------------------------------------------

def check_theta_convexity(g: Generator, variant: str, cloud: SampleCloud) -> ConditionReport:
    """Theta-indexed extended convexity: UN-i, UN-ii, UNprime-i, UNprime-ii.

    Uses the profile's convexity-tier coefficients, which may be larger than
    the plain growth tier.
    """
    if variant not in _THETA_CONVEXITY_IDS:
        raise ConfigurationError(f"unknown theta-convexity variant {variant!r}")
    prof = g.profile
    f_fn, beta_fn, gamma_fn = prof.convexity_tier()
    with_log = variant.startswith("UN-")
    if with_log:
        # the weaker variant is only meaningful under a usable gamma integral
        gamma_integral(gamma_fn, max(float(cloud.t.max()), 1e-6), f"variant {variant}'s gamma")

    t, b, th = cloud.t, cloud.b, cloud.theta
    y1, y2, z1, z2 = cloud.y1, cloud.y2, cloud.z1, cloud.z2
    dy = (y1 - th * y2) / (1.0 - th)
    dz = (z1 - th[:, None] * z2) / (1.0 - th[:, None])
    dzn = _norm(dz)
    zn2 = _norm(z2)
    diff = g(t, b, y1, z1) - th * g(t, b, y2, z2)
    if variant.endswith("-i"):
        lhs = np.where(y1 - th * y2 > 0.0, diff, 0.0)
    else:
        lhs = np.where(y1 - th * y2 < 0.0, -diff, 0.0)
    allowance = beta_fn(t) * (np.abs(y2) + np.abs(dy)) + gamma_fn(t) * dzn ** prof.alpha
    if with_log:
        allowance = allowance + gamma_fn(t) * np.log(math.e + zn2) ** (prof.alpha_star / 2.0)
    rhs = (1.0 - th) * (f_fn(t, b) + allowance)
    return _assemble(variant, lhs, rhs, (t, y1, y2, th))


def check_condition(g: Generator, condition_id: str, cloud: SampleCloud) -> ConditionReport:
    """Verdict for any id in `CONDITION_IDS`, from the check of its family.

    The family checks are looked up by name on each call, so a rebinding of
    the module's names (as a tracer does) sees every check.
    """
    if condition_id in _GROWTH_IDS:
        check = check_growth
    elif condition_id in _Y_REGULARITY_IDS:
        check = check_y_regularity
    elif condition_id in _Z_REGULARITY_IDS:
        check = check_z_regularity
    elif condition_id in _THETA_CONVEXITY_IDS:
        check = check_theta_convexity
    else:
        raise ConfigurationError(f"unknown condition {condition_id!r}; "
                                 f"ids: {', '.join(CONDITION_IDS)}")
    return check(g, condition_id, cloud)

