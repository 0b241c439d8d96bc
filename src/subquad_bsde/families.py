"""Named scalar-function families for the band-lemma sweeps.

Each admissible family constructs a `ScalarFunction` whose declared constants
honestly hold, including seeded random members (piecewise-linear and spline
shapes).  The falsifier families deliberately break one hypothesis; they are
used to confirm the self-checks catch bad declarations.
"""

from __future__ import annotations

import math

import numpy as np

from .envelopes import ScalarFunction
from .paths import stream


def _pwl(knots: np.ndarray, values: np.ndarray):
    """Piecewise-linear interpolant with linear (not clamped) extrapolation."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    s_lo = (values[1] - values[0]) / (knots[1] - knots[0])
    s_hi = (values[-1] - values[-2]) / (knots[-1] - knots[-2])

    def fn(x):
        x = np.asarray(x, dtype=float)
        inner = np.interp(x, knots, values)
        lo = values[0] + s_lo * (x - knots[0])
        hi = values[-1] + s_hi * (x - knots[-1])
        return np.where(x < knots[0], lo, np.where(x > knots[-1], hi, inner))

    return fn


# ---------------------------------------------------------------------------
# A1: monotone on R-, Lipschitz on R+
# ---------------------------------------------------------------------------

def _a1_piecewise(seed: int) -> ScalarFunction:
    rng = stream(seed, "families")
    neg = -np.sort(rng.uniform(0.3, 8.0, 4))[::-1]
    pos = np.sort(rng.uniform(0.3, 8.0, 4))
    knots = np.concatenate([neg, [0.0], pos])
    slopes_neg = rng.uniform(-3.0, 1.0, len(neg))          # <= k1 = 1
    slopes_pos = rng.uniform(-1.0, 1.0, len(pos))          # |.| <= k2 = 1
    values = np.empty_like(knots)
    # f(0) >= 0 keeps the ungated side of the theta bound nonnegative; the
    # gated side is shift-invariant so no generality is lost
    values[len(neg)] = rng.uniform(0.0, 1.0)
    for i in range(len(neg) - 1, -1, -1):
        values[i] = values[i + 1] - slopes_neg[i] * (knots[i + 1] - knots[i])
    for i in range(len(neg) + 1, len(knots)):
        values[i] = values[i - 1] + slopes_pos[i - len(neg) - 1] * (knots[i] - knots[i - 1])
    return ScalarFunction(_pwl(knots, values), name=f"pwl[{seed}]", k1=1.0, k2=1.0)


A1_FAMILIES = {
    "abs": lambda seed=0: ScalarFunction(np.abs, name="abs", k1=1.0, k2=1.0),
    "linear": lambda seed=0: ScalarFunction(lambda x: 0.7 * x, name="linear", k1=0.7, k2=0.7),
    "exp-decay": lambda seed=0: ScalarFunction(lambda x: np.exp(-x), name="exp-decay", k1=0.0, k2=1.0),
    "arctan": lambda seed=0: ScalarFunction(np.arctan, name="arctan", k1=1.0, k2=1.0),
    "sine": lambda seed=0: ScalarFunction(np.sin, name="sine", k1=1.0, k2=1.0),
    "root-neg-sine": lambda seed=0: ScalarFunction(
        lambda x: np.where(x <= 0.0, np.sqrt(np.abs(x)), np.sin(x)),
        name="root-neg-sine", k1=0.0, k2=1.0),
    "piecewise-linear": _a1_piecewise,
}

A1_FALSIFIERS = {
    # steep increase on R- breaks the one-sided monotonicity declaration
    "steep-root": lambda seed=0: ScalarFunction(
        lambda x: np.where(x <= 0.0, -np.cbrt(np.abs(x)), np.sin(x)),
        name="steep-root", k1=1.0, k2=1.0),
}


# ---------------------------------------------------------------------------
# A2: Lipschitz band, convex rays
# ---------------------------------------------------------------------------

def _a2_square_sine() -> ScalarFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) >= 1.0, x * x, 1.0 + 0.8 * np.sin(math.pi * (x - 1.0)))

    return ScalarFunction(fn, name="square-sine-band",
                          phi=lambda u: np.asarray(u, dtype=float) ** 2 + 1.8,
                          a=1.0, k=0.8 * math.pi, dminus=-2.0, dplus=2.0)


def _a2_spline(seed: int) -> ScalarFunction:
    rng = stream(seed, "families")
    a, k = 1.0, 2.0
    # convex rays: increasing slopes away from the band
    r_knots = np.concatenate([[a], a + np.cumsum(rng.uniform(0.5, 2.0, 4))])
    r_slopes = np.cumsum(rng.uniform(0.1, 1.5, 4)) + rng.uniform(-1.0, 1.0)
    fa = rng.uniform(-1.0, 1.0)
    r_vals = fa + np.concatenate([[0.0], np.cumsum(r_slopes * np.diff(r_knots))])
    l_knots = -r_knots[::-1]
    l_slopes = -(np.cumsum(rng.uniform(0.1, 1.5, 4)) + rng.uniform(-1.0, 1.0))[::-1]
    fma = fa + rng.uniform(-0.8, 0.8) * a        # keeps |f(a)-f(-a)| < 2ka
    l_vals = fma - np.concatenate([np.cumsum((l_slopes * np.diff(l_knots))[::-1])[::-1], [0.0]])
    # band: Lipschitz random walk between the ray endpoints
    b_knots = np.linspace(-a, a, 7)
    base = np.linspace(fma, fa, 7)
    room = (k - abs(fa - fma) / (2.0 * a)) * (b_knots[1] - b_knots[0]) * 0.45
    wiggle = rng.uniform(-room, room, 7)
    wiggle[0] = wiggle[-1] = 0.0
    knots = np.concatenate([l_knots, b_knots[1:-1], r_knots])
    values = np.concatenate([l_vals, (base + wiggle)[1:-1], r_vals])
    fn = _pwl(knots, values)
    slope_max = float(np.max(np.abs(np.diff(values) / np.diff(knots))))
    xs = np.linspace(-40.0, 40.0, 4001)
    c0 = float(np.max(np.abs(fn(xs)) - slope_max * np.abs(xs))) + 1e-6
    return ScalarFunction(fn, name=f"convex-ray-spline[{seed}]",
                          phi=lambda u: c0 + slope_max * np.asarray(u, dtype=float),
                          a=a, k=k, dminus=float(l_slopes[-1]), dplus=float(r_slopes[0]))


A2_FAMILIES = {
    "abs": lambda seed=0: ScalarFunction(np.abs, name="abs",
                                         phi=lambda u: np.asarray(u, dtype=float),
                                         a=1.0, k=1.0, dminus=-1.0, dplus=1.0),
    "square": lambda seed=0: ScalarFunction(lambda x: x * x, name="square",
                                            phi=lambda u: np.asarray(u, dtype=float) ** 2,
                                            a=0.0, k=1.0, dminus=0.0, dplus=0.0),
    "square-sine-band": lambda seed=0: _a2_square_sine(),
    "distance": lambda seed=0: ScalarFunction(
        lambda x: np.maximum(np.abs(x) - 1.0, 0.0), name="distance",
        phi=lambda u: np.asarray(u, dtype=float), a=1.0, k=1.0, dminus=-1.0, dplus=1.0),
    "exp-abs": lambda seed=0: ScalarFunction(
        lambda x: np.exp(np.abs(x)), name="exp-abs",
        # clamped exp is still a valid envelope on the sampled range and keeps
        # the right side finite for the huge theta-difference arguments
        phi=lambda u: np.exp(np.minimum(np.asarray(u, dtype=float), 700.0)),
        a=0.0, k=1.0, dminus=-1.0, dplus=1.0),
    "convex-ray-spline": _a2_spline,
}

A2_FALSIFIERS = {
    "concave-rays": lambda seed=0: ScalarFunction(
        lambda x: np.where(np.abs(x) >= 1.0, -np.asarray(x, dtype=float) ** 2, -1.0),
        name="concave-rays", phi=lambda u: np.asarray(u, dtype=float) ** 2 + 1.0,
        a=1.0, k=1.0, dminus=2.0, dplus=-2.0),
}


# ---------------------------------------------------------------------------
# A3: global Lipschitz, monotone rays
# ---------------------------------------------------------------------------

def _a3_abs_sine() -> ScalarFunction:
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) >= 1.0, np.abs(x), 1.0 + 0.5 * np.sin(math.pi * (x - 1.0)))

    return ScalarFunction(fn, name="abs-sine-band",
                          phi=lambda u: np.asarray(u, dtype=float) + 1.5,
                          a=1.0, k=0.5 * math.pi)


def _a3_wband(seed: int) -> ScalarFunction:
    rng = stream(seed, "families")
    a, k = 1.0, 1.5
    r_knots = np.concatenate([[a], a + np.cumsum(rng.uniform(0.5, 2.0, 4))])
    fa = rng.uniform(-1.0, 1.0)
    r_vals = fa + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.05, k, 4) * np.diff(r_knots))])
    l_knots = -r_knots[::-1]
    # |f(a) - f(-a)| <= 0.9 ka keeps the band mean slope inside the declared k
    fma = fa + rng.uniform(-0.9, 0.9) * k * a
    l_vals = (fma + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.05, k, 4) * np.diff(r_knots))]))[::-1]
    b_knots = np.linspace(-a, a, 9)
    base = np.linspace(l_vals[-1], r_vals[0], 9)
    room = (k - abs(r_vals[0] - l_vals[-1]) / (2.0 * a)) * (b_knots[1] - b_knots[0]) * 0.45
    wiggle = rng.uniform(-max(room, 0.0), max(room, 0.0), 9)
    wiggle[0] = wiggle[-1] = 0.0
    knots = np.concatenate([l_knots, b_knots[1:-1], r_knots])
    values = np.concatenate([l_vals, (base + wiggle)[1:-1], r_vals])
    fn = _pwl(knots, values)
    slope_max = float(np.max(np.abs(np.diff(values) / np.diff(knots))))
    xs = np.linspace(-40.0, 40.0, 4001)
    c0 = float(np.max(np.abs(fn(xs)) - slope_max * np.abs(xs))) + 1e-6
    return ScalarFunction(fn, name=f"w-band[{seed}]",
                          phi=lambda u: c0 + slope_max * np.asarray(u, dtype=float),
                          a=a, k=max(k, slope_max))


A3_FAMILIES = {
    "abs": lambda seed=0: ScalarFunction(np.abs, name="abs",
                                         phi=lambda u: np.asarray(u, dtype=float),
                                         a=1.0, k=1.0),
    "distance": lambda seed=0: ScalarFunction(
        lambda x: np.maximum(np.abs(x) - 1.0, 0.0), name="distance",
        phi=lambda u: np.asarray(u, dtype=float), a=1.0, k=1.0),
    "hyperbola": lambda seed=0: ScalarFunction(
        lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2), name="hyperbola",
        phi=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float) ** 2), a=0.5, k=1.0),
    "abs-sine-band": lambda seed=0: _a3_abs_sine(),
    "asymmetric-v": lambda seed=0: ScalarFunction(
        lambda x: np.abs(np.asarray(x, dtype=float) - 0.3), name="asymmetric-v",
        phi=lambda u: np.asarray(u, dtype=float) + 0.3, a=1.0, k=1.0),
    "asymmetric-v-mirror": lambda seed=0: ScalarFunction(
        lambda x: np.abs(np.asarray(x, dtype=float) + 0.3), name="asymmetric-v-mirror",
        phi=lambda u: np.asarray(u, dtype=float) + 0.3, a=1.0, k=1.0),
    "w-band": _a3_wband,
}

A3_FALSIFIERS = {
    "decreasing-right": lambda seed=0: ScalarFunction(
        lambda x: -np.arctan(x), name="decreasing-right",
        phi=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0), a=1.0, k=1.0),
}

FAMILY_REGISTRY = {"A1": A1_FAMILIES, "A2": A2_FAMILIES, "A3": A3_FAMILIES}
FALSIFIER_REGISTRY = {"A1": A1_FALSIFIERS, "A2": A2_FALSIFIERS, "A3": A3_FALSIFIERS}
