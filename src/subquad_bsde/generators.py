"""Generator model: coefficient profiles, evaluatable drivers, and transforms.

A `Generator` evaluates g(omega, t, y, z) vectorized over paths; the omega
dependence is restricted to the simulated Brownian value at time t, which is
passed in as the ``b`` argument.  The attached `CoefficientProfile` carries
the structural growth/convexity coefficients under which the generator's
declared conditions hold; the condition checkers read them from there.

For the two builtin examples the profile coefficients are not the raw
multipliers from the formulas: they are assembled piece by piece from the
envelope lemmas (band constructions) and the convexity closure rules, so that
the extended-convexity inequalities hold with certified margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .constants import conjugate_exponent, gamma_integral
from .expressions import compile_expression

TimeFn = Callable[[float], float]


def _const(value: float) -> TimeFn:
    return lambda t: value + 0.0 * np.asarray(t, dtype=float)


def _as_time_fn(c) -> TimeFn:
    return c if callable(c) else _const(float(c))


@dataclass(frozen=True)
class CoefficientProfile:
    """Time-varying data governing a generator's declared growth conditions.

    ``f`` is a nonnegative forcing process evaluated per path: f(t, b) with b
    the Brownian values at time t, shape (n, d).  ``beta``/``gamma`` are the
    growth coefficients; ``psi_growth``/``c_quad`` feed the general-growth
    check; the optional u ... c_bar functions and the band radius ``a`` feed
    the finer regularity checks when the generator declares them.
    """

    alpha: float
    beta: TimeFn
    gamma: TimeFn
    f: Callable
    psi_growth: Callable = lambda u: np.asarray(u, dtype=float)
    c_quad: float = 1.0
    u: Optional[TimeFn] = None
    v: Optional[TimeFn] = None
    k1: Optional[TimeFn] = None
    k2: Optional[TimeFn] = None
    c1: Optional[TimeFn] = None
    c2: Optional[TimeFn] = None
    c3: Optional[TimeFn] = None
    u_bar: Optional[TimeFn] = None
    v_bar: Optional[TimeFn] = None
    c_bar: Optional[TimeFn] = None
    a: float = 0.0
    # extended-convexity tier: the theta-difference inequalities may only be
    # certifiable with larger coefficients than the one-sided growth needs;
    # keeping them separate keeps the derived bound constants meaningful
    f_conv: Optional[Callable] = None
    beta_conv: Optional[TimeFn] = None
    gamma_conv: Optional[TimeFn] = None

    def __post_init__(self):
        conjugate_exponent(self.alpha)           # raises unless alpha lies in (1, 2)

    @property
    def alpha_star(self) -> float:
        return conjugate_exponent(self.alpha)

    def convexity_tier(self):
        """(f, beta, gamma) used by the theta-difference checks."""
        return (self.f_conv or self.f, self.beta_conv or self.beta,
                self.gamma_conv or self.gamma)


@dataclass(frozen=True)
class Generator:
    """Evaluatable driver with declared structural flags and its profile.

    ``at(t, b, z, idx=None)`` freezes (t, b, z) and returns ``at(y)``: the
    implicit solver iterates on y alone within a step.  ``b`` holds the M
    paths' Brownian values (M, d).  Without ``idx``, z is per path,
    (..., M, d), and y (..., M); with ``idx`` (M,), z and y hold per-bin
    values, (..., K, d) and (..., K), and path i reads bin ``idx[i]``.  Any
    leading axes (the solver stacks rungs of a ladder there) carry through,
    and ``at(y)`` has shape (..., M): entry [..., i] is
    ``g(t, b[i], y[..., idx[i]], z[..., idx[i], :])``, or the same without
    the gathers.  By default ``at`` closes over ``fn``: it gathers z once,
    and per call gathers y and flattens the leading axes into rows (``b``
    tiled to match), so a plain ``fn`` only ever sees (n,) rows.  A driver
    opts into a cheaper step-frozen form by giving its ``fn`` a
    ``freeze(t, b, z, idx=None)`` attribute that returns such a callable,
    precomputing the y-independent part once per step.  An opt-in must be
    bit-identical to ``fn`` on every input (same operations in the same
    order; a gather by ``idx`` may move ahead of or behind elementwise
    work), because solver outputs are compared byte for byte; the builtin
    drivers keep it by defining ``fn(t, b, y, z)`` as ``freeze(t, b, z)(y)``,
    so the formula has one copy.  The specialisation travels with ``fn``: a
    generator built with another ``fn``, a wrapper of the old one included,
    falls back to the default.
    """

    fn: Callable
    profile: CoefficientProfile
    flags: frozenset = frozenset()
    name: str = "generator"

    def __call__(self, t, b, y, z) -> np.ndarray:
        """g at time(s) t for per-path Brownian values b (n,d), y (n,), z (n,d)."""
        return np.asarray(self.fn(t, b, y, z), dtype=float)

    def at(self, t, b, z, idx=None) -> Callable:
        """``y -> g(t, b, y, z)`` with (t, b, z) frozen, per bin when ``idx`` is given."""
        freeze = getattr(self.fn, "freeze", None)
        if freeze is not None:
            return freeze(t, b, z, idx)
        z = np.asarray(z, dtype=float)
        if idx is not None:
            z = np.take(z, idx, axis=-2)
        rows = math.prod(z.shape[:-2])
        if rows > 1:
            b = np.tile(b, (rows, 1))
        z = z.reshape(-1, z.shape[-1])

        def at(y):
            y = np.asarray(y, dtype=float)
            if idx is not None:
                y = np.take(y, idx, axis=-1)
            return self(t, b, y.reshape(-1), z).reshape(y.shape)

        return at


@dataclass(frozen=True)
class TerminalData:
    """Terminal value as a deterministic function of the terminal path state."""

    fn: Callable
    description: str = "terminal"

    def __call__(self, b_terminal: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(b_terminal)), dtype=float)


@dataclass(frozen=True)
class TruncationIndex:
    n: int
    q: int

    def __post_init__(self):
        if self.n < 1 or self.q < 1:
            raise ValueError("truncation indices must be positive integers")

    @property
    def cap(self) -> int:
        return max(self.n, self.q)


# ---------------------------------------------------------------------------
# builtin examples
# ---------------------------------------------------------------------------

def example1_q(x) -> np.ndarray:
    """Piecewise-linear kink function used by the first builtin example.

    -x below -2, -(3/2)x - 1 in between, -2x above 2; continuous at the knots.
    """
    x = np.asarray(x, dtype=float)
    # one buffer: the middle branch everywhere, then each outer branch where it holds
    out = np.multiply(x, -1.5, out=np.empty_like(x))
    out -= 1.0
    np.negative(x, out=out, where=x <= -2.0)
    np.multiply(x, -2.0, out=out, where=x >= 2.0)
    return out


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)``, except that a one-entry last axis (d = 1) is read,
    not reduced: the result is then a view of ``x``.  A caller may write into
    it only when ``x`` is a temporary of its own.  The two agree bit for bit
    but on a -0.0 entry, which the view keeps and the sum turns into +0.0."""
    return x[..., 0] if x.shape[-1] == 1 else np.sum(x, axis=-1)


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis (|z| or |B_t| per row), built in the
    buffer of the squares; a square is never -0.0, so `_sum_last` is exact."""
    sq = _sum_last(np.square(np.asarray(x, dtype=float)))
    return np.sqrt(sq, out=sq)


def _clamp(raw, upper, lower):
    """raw with its positive part capped at ``upper`` and its negative part at ``lower``.

    Equal bit for bit to min(max(raw, 0), upper) - min(max(-raw, 0), lower):
    adding 0.0 turns a clipped -0.0 into +0.0, as that difference does.
    """
    out = np.clip(raw, -lower, upper)
    out += 0.0
    return out


def _sup_on_grid(fn: TimeFn, horizon: float) -> float:
    ts = np.linspace(0.0, horizon, 513)
    return float(np.max([float(fn(t)) for t in ts]))


def _split_driver(br: TimeFn, y_part: Callable, z_part: Callable) -> Callable:
    """Driver fn = |B_t| + beta(t) y_part(y) + z_part(t, z), with its ``freeze``.

    The step-frozen form computes |B_t|, beta(t) and the z-part once per step,
    the z-part on the values passed in (once per bin when z is per bin) and
    then gathered; per call it evaluates beta(t) y_part on the values passed
    in and gathers after that product, so a bin solve evaluates y_part once
    per bin.  The value is built in that product's (gathered) buffer:
    |B_t| is added to it, then the z-part, which is (|B_t| + y-part) + z-part
    as written out.  ``fn`` is that form frozen and called at once, so the
    formula exists only here.
    """

    def freeze(t, b, z, idx=None):
        b_abs, beta_t, z_term = _norm(b), br(t), z_part(t, np.atleast_2d(z))
        if idx is not None:
            z_term = np.take(z_term, idx, axis=-1)

        def at(y):
            value = beta_t * y_part(y)
            if idx is not None:
                value = np.take(value, idx, axis=-1)
            value += b_abs
            value += z_term
            return value

        return at

    def fn(t, b, y, z):
        return freeze(t, b, z)(y)

    fn.freeze = freeze
    return fn


def builtin_example_1(alpha: float, beta=0.5, gamma=0.25, d: int = 1,
                      horizon: float = 1.0) -> Generator:
    """Driver |B_t| + beta(t) h(y) + gamma(t) sum_i q(z_i) + gamma(t)|z|^alpha.

    h(y) is the signed-root branch cbrt(|y|) on y <= 0 (nonincreasing there,
    with unbounded slope at 0-) and sin(y) on y > 0; q is the piecewise-linear
    kink above.  Neither branch is locally Lipschitz in y at 0.
    """
    br, gr = _as_time_fn(beta), _as_time_fn(gamma)

    def h(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, np.cbrt(np.abs(y)), np.sin(y))

    def z_part(t, z):
        # q is never -0.0, so the one-column sum is exact
        return gr(t) * (_sum_last(example1_q(z)) + _norm(z) ** alpha)

    fn = _split_driver(br, h, z_part)

    # Base tier certifies the one-sided growth: sgn(y) h(y) <= |y|, the kink
    # sum obeys sum|q(z_i)| <= d + 2 sqrt(d) |z|, and |z| <= 1 + |z|^alpha.
    # The theta-difference tier is larger: the y-piece needs the gated
    # monotone/Lipschitz bound (f += beta, beta doubled), each q coordinate
    # goes through the tent construction with a=2, k0=2, envelope 1+2|x|
    # (169 + 6|dz| per coordinate), and the |z|^alpha piece is convex.
    rootd = math.sqrt(d)
    dsum = 6.0 * d ** (1.0 - alpha / 2.0)

    def f(t, b):
        return _norm(b) + br(t) + (d + 2.0 * rootd) * gr(t)

    def f_conv(t, b):
        return _norm(b) + br(t) + 169.0 * d * gr(t)

    gr_sup = _sup_on_grid(gr, horizon)
    profile = CoefficientProfile(
        alpha=alpha,
        beta=br,
        gamma=lambda t: (1.0 + 2.0 * rootd) * gr(t),
        f=f,
        psi_growth=lambda u: np.cbrt(np.asarray(u, dtype=float)) + np.asarray(u, dtype=float),
        c_quad=(rootd + 1.0) * gr_sup,
        u=br,
        v=lambda t: (1.0 + 2.0 * rootd) * gr(t),
        k1=_const(0.0),
        k2=br,
        c1=lambda t: (1.5 + alpha * 2.0 ** (alpha - 1.0)) * gr(t),
        c2=lambda t: 2.0 * gr(t),
        c3=_const(0.0),
        a=2.0,
        f_conv=f_conv,
        beta_conv=lambda t: 2.0 * br(t),
        gamma_conv=lambda t: (1.0 + dsum) * gr(t),
    )
    return Generator(fn=fn, profile=profile, name="example1",
                     flags=frozenset({"satisfies-EX1", "satisfies-EX2",
                                      "satisfies-UNprime-i", "satisfies-UN-i"}))


def _log_power_lipschitz(alpha_star: float) -> float:
    # sup of d/dx [ln(e+x)]^(alpha*/2) over x >= 0; exact via the stationary point.
    m = alpha_star / 2.0 - 1.0
    return (alpha_star / 2.0) * max(1.0 / math.e, (m / math.e) ** m)


def _log_power_alpha_ratio(alpha: float, alpha_star: float) -> float:
    # sup over x >= 1 of [ln(e+x)]^(alpha*/2) / x^alpha (unimodal; dense log grid).
    x = np.exp(np.linspace(0.0, 60.0, 20001))
    ratio = np.log(math.e + x) ** (alpha_star / 2.0) / x ** alpha
    return float(ratio.max()) * 1.01


def builtin_example_2(alpha: float, beta=0.5, gamma=0.25, d: int = 1,
                      horizon: float = 1.0) -> Generator:
    """Driver |B_t| + beta(t) sqrt(|y|) 1_{y<=0} + gamma(t) sum_i [ln(e+|z_i|)]^{a*/2} + 2 gamma(t)|z|^alpha.

    The logarithmic z-part forces the weaker extended-convexity variant whose
    right side carries the [ln(e+|z_2|)]^{a*/2} allowance.
    """
    br, gr = _as_time_fn(beta), _as_time_fn(gamma)
    astar = conjugate_exponent(alpha)
    half = astar / 2.0

    gamma_integral(gr, horizon, "example2's gamma")    # the log z-part needs 0 < int gamma < inf

    def lterm(x):
        return np.log(math.e + np.abs(np.asarray(x, dtype=float))) ** half

    def y_part(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, np.sqrt(np.abs(y)), 0.0)

    def z_part(t, z):
        return gr(t) * (_sum_last(lterm(z)) + 2.0 * _norm(z) ** alpha)

    fn = _split_driver(br, y_part, z_part)

    L = _log_power_lipschitz(astar)        # global Lipschitz slope of the log power
    s1 = _log_power_alpha_ratio(alpha, astar)
    l1 = math.log(math.e + 1.0) ** half
    # Base tier uses the growth split lterm(x) <= lterm(1) + s1 x^alpha.  The
    # theta-difference tier runs each log coordinate through the monotone band
    # construction (4L|dz| + 11 + lterm(|z2|)) and the convex route for the
    # 2|z|^alpha piece.
    rootd = math.sqrt(d)

    def f(t, b):
        return _norm(b) + br(t) + d * l1 * gr(t)

    def f_conv(t, b):
        return _norm(b) + br(t) + (11.0 * d + 4.0 * L * rootd + d * l1) * gr(t)

    gr_sup = _sup_on_grid(gr, horizon)
    profile = CoefficientProfile(
        alpha=alpha,
        beta=br,
        gamma=lambda t: (d * s1 + 2.0) * gr(t),
        f=f,
        psi_growth=lambda u: np.sqrt(np.asarray(u, dtype=float)),
        c_quad=(d * s1 + 2.0) * gr_sup,
        u=br,
        v=lambda t: (d * s1 + 2.0) * gr(t),
        k1=_const(0.0),
        k2=_const(0.0),
        a=0.0,
        f_conv=f_conv,
        beta_conv=br,
        gamma_conv=lambda t: (d + 4.0 * L * rootd + 2.0) * gr(t),
    )
    return Generator(fn=fn, profile=profile, name="example2",
                     flags=frozenset({"satisfies-EX1", "satisfies-EX2", "satisfies-UN-i"}))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def truncate_terminal(xi: TerminalData, idx: TruncationIndex) -> TerminalData:
    """Clamp the positive part at n and the negative part at q."""

    def fn(b_terminal):
        return _clamp(xi(b_terminal), idx.n, idx.q)

    return TerminalData(fn=fn, description=f"{xi.description}^({idx.n},{idx.q})")


def _cap(level, t):
    """The truncation cap level e^{-t}; ``level`` may hold one value per rung."""
    return level * np.exp(-np.asarray(t, dtype=float))


def truncated_at(g: Generator, n, q) -> Callable:
    """`Generator.at` of g with g+ clamped at n e^{-t} and g- at q e^{-t}.

    ``n`` and ``q`` are numbers, or one level per rung shaped (R, 1): then
    the R clamped problems g^{(n_r, q_r)}, stacked on the leading axis of y
    and z, are evaluated in one call.
    """

    def at(t, b, z, idx=None):
        # clamps after the inner sum; only the caps are hoisted
        inner, upper, lower = g.at(t, b, z, idx), _cap(n, t), _cap(q, t)

        def clamped(y):
            return _clamp(inner(y), upper, lower)

        return clamped

    return at


def truncate_generator(g: Generator, idx: TruncationIndex) -> Generator:
    """Clamp g+ at n e^{-t} and g- at q e^{-t}; result is dominated by cap * e^{-t}."""

    freeze = truncated_at(g, idx.n, idx.q)

    def fn(t, b, y, z):
        return freeze(t, b, z)(y)

    fn.freeze = freeze

    prof = g.profile
    old_f = prof.f

    def f(t, b):
        return np.minimum(old_f(t, b), _cap(idx.cap, t))

    return Generator(fn=fn, profile=replace(prof, f=f),
                     flags=g.flags | {"truncated"},
                     name=f"{g.name}^({idx.n},{idx.q})")


def reflect_generator(g: Generator) -> Generator:
    """g_hat(t, y, z) = -g(t, -y, -z); swaps the one-sided condition flags."""

    def fn(t, b, y, z):
        return -g(t, b, -np.asarray(y, dtype=float), -np.atleast_2d(z))

    swaps = {"satisfies-UN-i": "satisfies-UN-ii", "satisfies-UN-ii": "satisfies-UN-i",
             "satisfies-UNprime-i": "satisfies-UNprime-ii",
             "satisfies-UNprime-ii": "satisfies-UNprime-i"}
    flags = frozenset(swaps.get(fl, fl) for fl in g.flags)
    return Generator(fn=fn, profile=g.profile, flags=flags, name=f"reflect({g.name})")


def theta_difference_generator(g: Generator, g_prime: Generator, theta: float,
                               grid, Yp: np.ndarray, Zp: np.ndarray) -> Generator:
    """Driver of the theta-residual pair, anchored to a reference solution field.

    Perturbs g around the reference (Y', Z'): the value at (y, z) is
    [g(ymix, zmix) - theta g(Y', Z') + theta (g - g')(Y', Z')] / (1 - theta)
    with ymix = (1 - theta) y + theta Y' and zmix likewise.  The anchor
    g(Y', Z') is evaluated once per node when ``g_prime is g``; the formula
    keeps its (g - g') term, so a non-finite anchor still gives NaN.  The
    result can only be evaluated at grid nodes with rows aligned to the
    bundle that produced Yp/Zp.
    """
    Yp = np.asarray(Yp, dtype=float)
    Zp = np.asarray(Zp, dtype=float)
    return _theta_difference(g, g_prime, theta, grid,
                             lambda j: (Yp[:, j], Zp[:, min(j, Zp.shape[1] - 1), :]))


def _theta_difference(g: Generator, g_prime: Generator, theta: float, grid,
                      anchor: Callable) -> Generator:
    """`theta_difference_generator` with the reference read node by node:
    ``anchor(j)`` is (Y'_j, Z'_j), Z' on the last step at the horizon node."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    nodes = np.asarray(grid.nodes)

    def node_index(t: float) -> int:
        j = int(np.argmin(np.abs(nodes - t)))
        if abs(nodes[j] - t) > 1e-12 * max(1.0, grid.horizon):
            raise ValueError(f"theta-difference generator only evaluates at grid nodes, got t={t}")
        return j

    def fn(t, b, y, z):
        yp, zp = anchor(node_index(float(np.asarray(t).reshape(-1)[0])))
        y = np.asarray(y, dtype=float)
        z = np.atleast_2d(z)
        ymix = (1.0 - theta) * y + theta * yp
        zmix = (1.0 - theta) * z + theta * zp
        g_ref = g(t, b, yp, zp)
        gp_ref = g_ref if g_prime is g else g_prime(t, b, yp, zp)
        return ((g(t, b, ymix, zmix) - theta * g_ref) / (1.0 - theta)
                + theta * (g_ref - gp_ref) / (1.0 - theta))

    return Generator(fn=fn, profile=g.profile, flags=frozenset({"theta-difference"}),
                     name=f"delta_theta({g.name},{g_prime.name};{theta})")


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def zero_generator(alpha: float = 1.5) -> Generator:
    profile = CoefficientProfile(alpha=alpha, beta=_const(0.0), gamma=_const(0.0),
                                 f=lambda t, b: np.zeros(np.atleast_2d(b).shape[0]),
                                 psi_growth=lambda u: np.asarray(u, dtype=float), c_quad=1.0,
                                 u=_const(0.0), v=_const(0.0), k1=_const(0.0), k2=_const(0.0),
                                 u_bar=_const(0.0), v_bar=_const(0.0), c_bar=_const(0.0))
    return Generator(fn=lambda t, b, y, z: np.zeros(np.atleast_2d(z).shape[0]),
                     profile=profile, name="zero",
                     flags=frozenset({"satisfies-EX1", "satisfies-EX2", "satisfies-UNprime-i"}))


def linear_generator(alpha: float = 1.5, b_y: float = -1.0, b_z: float = 0.0) -> Generator:
    """g = b_y * y + b_z * z_1; convex, Lipschitz, satisfies every declared condition."""

    def fn(t, b, y, z):
        z = np.atleast_2d(z)
        return b_y * np.asarray(y, dtype=float) + b_z * z[:, 0]

    cy, cz = abs(b_y), abs(b_z)
    profile = CoefficientProfile(
        alpha=alpha, beta=_const(cy), gamma=_const(cz + 1e-12),
        f=lambda t, b: np.full(np.atleast_2d(b).shape[0], cz),
        psi_growth=lambda u: np.asarray(u, dtype=float), c_quad=max(cz, 1e-9),
        u=_const(cy), v=_const(cz), k1=_const(cy), k2=_const(cy),
        c1=_const(cz), c2=_const(cz), c3=_const(cz), c_bar=_const(cz), a=0.0)
    return Generator(fn=fn, profile=profile, name=f"linear({b_y},{b_z})",
                     flags=frozenset({"satisfies-EX1", "satisfies-EX2", "convex",
                                      "satisfies-UNprime-i", "satisfies-UN-i"}))


def convex_power_generator(alpha: float = 1.5, scale=1.0) -> Generator:
    """g = gamma(t) |z|^alpha; the canonical convex sub-quadratic driver.

    Its forcing is f = gamma(t): near z = 0, |z|^alpha exceeds every multiple
    of |z|^2, and EX2 holds through |z|^alpha <= 1 + |z|^2 <= 1 + c_quad |z|^2.
    """
    gr = _as_time_fn(scale)

    def fn(t, b, y, z):
        return gr(t) * _norm(np.atleast_2d(z)) ** alpha

    profile = CoefficientProfile(
        alpha=alpha, beta=_const(0.0), gamma=gr,
        f=lambda t, b: gr(t) + np.zeros(np.atleast_2d(b).shape[0]),
        psi_growth=lambda u: np.asarray(u, dtype=float),
        c_quad=_sup_on_grid(gr, 50.0) + 1.0,
        u=_const(0.0), v=gr, k1=_const(0.0), k2=_const(0.0), a=0.0)
    return Generator(fn=fn, profile=profile, name="convex-power",
                     flags=frozenset({"satisfies-EX1", "satisfies-EX2", "convex",
                                      "satisfies-UNprime-i", "satisfies-UN-i"}))


def expression_generator(text: str, alpha: float, beta=0.0, gamma=0.0,
                         f_const: float = 0.0) -> Generator:
    """Generator from a custom expression over t, y, z (|z|), z1..z9, babs (|B_t|)."""
    names = {"t", "y", "z", "babs"} | {f"z{i}" for i in range(1, 10)}
    compiled = compile_expression(text, names)

    def fn(t, b, y, z):
        z = np.atleast_2d(z)
        env = {"t": np.asarray(t, dtype=float), "y": np.asarray(y, dtype=float),
               "z": _norm(z), "babs": _norm(b)}
        for i in range(1, 10):
            env[f"z{i}"] = z[:, i - 1] if i <= z.shape[1] else np.zeros(z.shape[0])
        return np.broadcast_to(np.asarray(compiled(env), dtype=float), env["y"].shape).copy()

    profile = CoefficientProfile(alpha=alpha, beta=_as_time_fn(beta), gamma=_as_time_fn(gamma),
                                 f=lambda t, b: np.full(np.atleast_2d(b).shape[0], f_const),
                                 psi_growth=lambda u: np.asarray(u, dtype=float), c_quad=1.0)
    return Generator(fn=fn, profile=profile, name=f"expr({text})", flags=frozenset())


GENERATOR_IDS = ("example1", "example2", "linear", "convex-power", "zero", "custom-expression")


def make_generator(gen_id: str, alpha: float, beta=0.5, gamma=0.25, d: int = 1,
                   horizon: float = 1.0, expression: str | None = None,
                   b_y: float = -1.0, b_z: float = 0.0, f_const: float = 0.0) -> Generator:
    if gen_id == "example1":
        return builtin_example_1(alpha, beta, gamma, d, horizon)
    if gen_id == "example2":
        return builtin_example_2(alpha, beta, gamma, d, horizon)
    if gen_id == "linear":
        return linear_generator(alpha, b_y=b_y, b_z=b_z)
    if gen_id == "convex-power":
        return convex_power_generator(alpha, scale=gamma)
    if gen_id == "zero":
        return zero_generator(alpha)
    if gen_id == "custom-expression":
        if not expression:
            raise ValueError("custom-expression requires an expression string")
        return expression_generator(expression, alpha, beta=beta, gamma=gamma, f_const=f_const)
    raise KeyError(f"unknown generator id {gen_id!r}; catalog: {', '.join(GENERATOR_IDS)}")


TERMINAL_IDS = ("zero", "constant", "bt", "clamp-bt")


def make_terminal(term_id: str, value: float = 0.0, bound: float = 3.0,
                  shift: float = 0.0) -> TerminalData:
    if term_id == "zero":
        return TerminalData(lambda b: np.zeros(np.atleast_2d(b).shape[0]), "zero")
    if term_id == "constant":
        return TerminalData(lambda b: np.full(np.atleast_2d(b).shape[0], float(value)),
                            f"constant({value})")
    if term_id == "bt":
        return TerminalData(lambda b: np.atleast_2d(b)[:, 0] + shift, f"bt+{shift}")
    if term_id == "clamp-bt":
        return TerminalData(lambda b: np.clip(np.atleast_2d(b)[:, 0], -bound, bound) + shift,
                            f"clamp(bt,+-{bound})+{shift}")
    raise KeyError(f"unknown terminal id {term_id!r}; catalog: {', '.join(TERMINAL_IDS)}")
