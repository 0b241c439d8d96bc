"""Band envelopes for scalar functions and the theta-difference inequalities they certify.

Three families of hypotheses are supported, named A1/A2/A3 in the public API:

* A1: one-sided monotonicity constant k1 on the negative axis, Lipschitz k2 on
  the positive axis; certifies an indicator-gated theta-difference bound.
* A2: Lipschitz k inside a band [-a, a], convex on both outside rays with
  finite one-sided edge derivatives; the tent construction replaces the band
  so each half-line becomes convex, and a remainder bound closes the estimate.
* A3: globally Lipschitz k, nonincreasing left of -a and nondecreasing right
  of a; the flat-bottom construction restores monotonicity about the origin.

Constructions are exact outside the band (g == f there, bit-for-bit).  The
declared hypotheses and the derived inequalities are checked on samples, and a
sample fails by the one rule of `conditions._assemble`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conditions import ConditionReport, _assemble
from .errors import InvalidHypothesisError
from .paths import stream

_EXACT_TOL = 1e-12
_SAMPLE_SCALE = 10.0       # largest magnitude lemma_samples draws
_ENVELOPE_XS = np.concatenate([np.linspace(-12.0, 12.0, 1001), [0.0]])


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function with its declared hypothesis constants and growth envelope."""

    fn: Callable
    name: str = "f"
    phi: Optional[Callable] = None       # nondecreasing envelope of |f|
    k1: Optional[float] = None           # one-sided monotonicity constant on R-
    k2: Optional[float] = None           # Lipschitz constant on R+
    a: float = 0.0                       # band radius
    k: Optional[float] = None            # Lipschitz constant (band for A2, global for A3)
    dminus: Optional[float] = None       # declared f'_-(-a)
    dplus: Optional[float] = None        # declared f'_+(a)

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class EnvelopeConstruction:
    """Piecewise modification g of f plus all derived objects of one band lemma."""

    source: ScalarFunction
    lemma: str                           # A2 | A3
    a: float
    k: float
    k0: float
    x0: float
    g: Callable
    h: Callable                          # remainder f - g, supported on [-a, a]
    M: float                             # bound for |h|
    gbar: Optional[Callable] = None      # recentered g (A2 only)
    gbar1: Optional[Callable] = None     # convex extension agreeing with gbar on R+
    gbar2: Optional[Callable] = None     # convex extension agreeing with gbar on R-


def lemma_samples(count: int, seed: int = 0):
    """Randomized (x1, x2, theta) triples mixing magnitudes from 1e-3 to ``_SAMPLE_SCALE``."""
    rng = stream(seed, "lemma-samples")
    n_corner = min(count // 4, 4096)
    n_rand = count - n_corner

    def draw(n):
        mags = 10.0 ** rng.uniform(-3.0, math.log10(_SAMPLE_SCALE), n)
        return rng.choice([-1.0, 1.0], n) * mags

    x1 = np.concatenate([draw(n_rand), rng.choice([0.0, 1e-6, -1e-6, 1.0, -1.0], n_corner)])
    x2 = np.concatenate([draw(n_rand), draw(n_corner)])
    theta = np.concatenate([rng.uniform(0.005, 0.995, n_rand),
                            rng.choice([0.01, 0.5, 0.99], n_corner)])
    return x1, x2, theta


def second_difference_convexity(fn, lo: float, hi: float, n: int = 1001,
                                rtol: float = 1e-9):
    """(is convex on the grid, worst second difference, witness x)."""
    xs = np.linspace(lo, hi, n)
    v = np.asarray(fn(xs), dtype=float)
    sd = v[2:] - 2.0 * v[1:-1] + v[:-2]
    tol = rtol * (1.0 + np.abs(v[1:-1]))
    bad = sd < -tol
    worst = float(sd.min())
    witness = float(xs[1:-1][int(np.argmin(sd))])
    return (not bool(bad.any()), worst, witness)


def _one_sided_derivative(fn, x: float, side: int, declared: Optional[float]) -> float:
    if declared is not None:
        return declared
    # Richardson-extrapolated one-sided quotient at step 1e-6
    h = 1e-6 * side
    q1 = (float(fn(x + h)) - float(fn(x))) / h
    q2 = (float(fn(x + h / 2.0)) - float(fn(x))) / (h / 2.0)
    return 2.0 * q2 - q1


def _band_sup(fn, a: float) -> float:
    if a == 0.0:
        return float(np.abs(fn(0.0)))
    xs = np.linspace(-a, a, 2001)
    return float(np.max(np.abs(fn(xs))))


# ---------------------------------------------------------------------------
# hypothesis self-checks
# ---------------------------------------------------------------------------

def _selfcheck_pairs(rng, lo, hi, n=4000):
    x = rng.uniform(lo, hi, (n, 2))
    return x[:, 0], x[:, 1]


def _require(f: ScalarFunction, failure: str, lhs, rhs, points) -> None:
    """Raise "<f.name> <failure>" when lhs <= rhs fails on the samples.

    The verdict is `conditions._assemble`'s, so a declared hypothesis fails by
    the same rule as every sampled condition; the witness is its worst sample.
    """
    r = _assemble(failure, lhs, rhs, points)
    if r.verdict == "fail":
        raise InvalidHypothesisError(f"{f.name} {failure}", witness=r.witnesses[0])


def _require_envelope(f: ScalarFunction) -> None:
    """Raise unless f declares a growth envelope phi with |f(x)| <= phi(|x|) on the samples."""
    if f.phi is None:
        raise InvalidHypothesisError(f"{f.name} declares no growth envelope")
    _require(f, "exceeds its declared envelope", np.abs(f(_ENVELOPE_XS)),
             f.phi(np.abs(_ENVELOPE_XS)), (_ENVELOPE_XS,))


def _remainder(f: ScalarFunction, g: Callable, a: float) -> Callable:
    """h = f - g inside the band, exactly 0 on |x| >= a."""

    def h(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) >= a, 0.0, f.fn(x) - g(x))

    return h


# ---------------------------------------------------------------------------
# A1: one-sided monotone / Lipschitz split
# ---------------------------------------------------------------------------

def lemmaA1_check(f: ScalarFunction, k1: float, k2: float, samples) -> ConditionReport:
    """Indicator-gated theta-difference bound for the monotone/Lipschitz split.

    1_{x1 > th x2} (f(x1) - th f(x2)) / (1-th)
        <= (k1+k2)|d_th x| + (k1+k2)|x2| + f(x2).
    """
    rng = stream(0, "selfcheck-a1")
    x1, x2 = _selfcheck_pairs(rng, -10.0, 0.0)
    _require(f, f"violates the declared one-sided monotonicity k1={k1}",
             np.sign(x1 - x2) * (f(x1) - f(x2)), k1 * np.abs(x1 - x2), (x1, x2))
    x1, x2 = _selfcheck_pairs(rng, 0.0, 10.0)
    _require(f, f"violates the declared Lipschitz constant k2={k2} on R+",
             np.abs(f(x1) - f(x2)), k2 * np.abs(x1 - x2), (x1, x2))
    x1, x2, th = samples
    dx = (x1 - th * x2) / (1.0 - th)
    lhs = np.where(x1 > th * x2, (f(x1) - th * f(x2)) / (1.0 - th), 0.0)
    rhs = (k1 + k2) * np.abs(dx) + (k1 + k2) * np.abs(x2) + f(x2)
    # the gated-off samples still require rhs >= 0 for the bound to read correctly
    return _assemble("A1-theta", lhs, rhs, (x1, x2, th))


# ---------------------------------------------------------------------------
# A2: tent construction on a convex-ray function
# ---------------------------------------------------------------------------

def construct_A2_envelope(f: ScalarFunction, a: float, k: float) -> EnvelopeConstruction:
    """Tent envelope: replace f inside [-a, a] by two slopes +-k0 meeting at x0.

    k0 = max(|f'_-(-a)|, |f'_+(a)|, k); the peak x0 = (f(a) - f(-a)) / (2 k0)
    is the unique knot making the tent continuous, and lands inside (-a, a)
    exactly when the declared band Lipschitz constant is honest.  With a = 0
    the band is empty and g := f.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    _require_envelope(f)
    if a > 0.0:
        x1, x2 = _selfcheck_pairs(stream(0, "selfcheck-band"), -a, a)
        _require(f, f"violates the declared Lipschitz constant k={k} (band)",
                 np.abs(f(x1) - f(x2)), k * np.abs(x1 - x2), (x1, x2))
    for sign, lo, hi in ((1, a, a + 20.0), (-1, -a - 20.0, -a)):
        ok, worst, witness = second_difference_convexity(f, lo, hi, 801)
        if not ok:
            raise InvalidHypothesisError(
                f"{f.name} is not convex on the {'right' if sign > 0 else 'left'} ray",
                witness=witness)

    if a == 0.0:
        k0 = max(abs(_one_sided_derivative(f, 0.0, -1, f.dminus)),
                 abs(_one_sided_derivative(f, 0.0, +1, f.dplus)), k)
        g = f.fn
        x0 = 0.0
    else:
        fm, fp = float(f(-a)), float(f(a))
        k0 = max(abs(_one_sided_derivative(f, -a, -1, f.dminus)),
                 abs(_one_sided_derivative(f, a, +1, f.dplus)), k)
        x0 = (fp - fm) / (2.0 * k0)
        if abs(x0) >= a:
            raise InvalidHypothesisError(
                f"tent apex {x0:.6g} escaped (-{a}, {a}); declared Lipschitz constant is wrong",
                witness=x0)

        def g(x, _fm=fm, _fp=fp, _k0=k0, _x0=x0, _a=a):
            x = np.asarray(x, dtype=float)
            return np.where(x <= -_a, f.fn(x),
                            np.where(x <= _x0, _k0 * (x + _a) + _fm,
                                     np.where(x < _a, -_k0 * (x - _a) + _fp, f.fn(x))))

    # the recentred tent gbar(x) = g(x + x0) - g(x0); gbar1 keeps it on the right
    # half-line and continues with slope -k0 on the left, gbar2 mirrors this.  Both
    # are globally convex because the tent slopes at the apex are exactly -+k0.
    g0 = float(np.asarray(g(x0), dtype=float))

    def gbar(x):
        return np.asarray(g(np.asarray(x, dtype=float) + x0), dtype=float) - g0

    def gbar1(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, gbar(x), -k0 * x)

    def gbar2(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, gbar(x), k0 * x)

    M = k0 * a + 3.0 * _band_sup(f.fn, a)
    return EnvelopeConstruction(source=f, lemma="A2", a=a, k=k, k0=k0, x0=x0,
                                g=g, h=_remainder(f, g, a), M=M,
                                gbar=gbar, gbar1=gbar1, gbar2=gbar2)


def lemmaA2_check(f: ScalarFunction, a: float, k: float, samples,
                  construction: Optional[EnvelopeConstruction] = None) -> ConditionReport:
    """Main theta-difference bound for convex-ray functions with a Lipschitz band:

    (f(x1) - th f(x2)) / (1-th)
        <= phi(|d_th x| + 2a) + 2 k0 |d_th x| + 11 k0 a + 22 phi(a).
    """
    con = construction or construct_A2_envelope(f, a, k)
    phi = f.phi
    x1, x2, th = samples
    dx = np.abs((x1 - th * x2) / (1.0 - th))
    lhs = (f(x1) - th * f(x2)) / (1.0 - th)
    rhs = (np.asarray(phi(dx + 2.0 * a), dtype=float) + 2.0 * con.k0 * dx
           + 11.0 * con.k0 * a + 22.0 * float(phi(a)))
    return _assemble("A2-theta", lhs, rhs, (x1, x2, th))


def lemmaA2_intermediate_checks(con: EnvelopeConstruction, samples) -> dict[str, ConditionReport]:
    """The inequality chain behind the A2 bound, each piece checked on the samples."""
    f, phi = con.source, con.source.phi
    a, k0 = con.a, con.k0
    x1, x2, th = samples
    dx = np.abs((x1 - th * x2) / (1.0 - th))
    xs = np.concatenate([x1, x2])
    out = {}
    out["envelope-growth"] = _assemble(
        "envelope-growth", np.abs(con.g(xs)),
        np.asarray(phi(np.abs(xs)), dtype=float) + k0 * a + 2.0 * float(phi(a)), (xs,))
    gbar = con.gbar
    out["shifted-theta"] = _assemble(
        "shifted-theta", (gbar(x1) - th * gbar(x2)) / (1.0 - th),
        np.asarray(phi(dx + a), dtype=float) + k0 * dx + 2.0 * k0 * a + 5.0 * float(phi(a)),
        (x1, x2, th))
    out["shifted-growth"] = _assemble(
        "shifted-growth", np.abs(gbar(xs)),
        np.asarray(phi(np.abs(xs) + a), dtype=float) + 2.0 * k0 * a + 5.0 * float(phi(a)), (xs,))
    out["envelope-theta"] = _assemble(
        "envelope-theta", (con.g(x1) - th * con.g(x2)) / (1.0 - th),
        np.asarray(phi(dx + 2.0 * a), dtype=float) + k0 * dx + 4.0 * k0 * a + 7.0 * float(phi(a)),
        (x1, x2, th))
    # h = f - g is only (k + k0) <= 2 k0 Lipschitz (f contributes k, the tent k0),
    # so the delta coefficient is 2 k0, not k0
    out["remainder-theta"] = _assemble(
        "remainder-theta", (con.h(x1) - th * con.h(x2)) / (1.0 - th),
        2.0 * k0 * dx + 7.0 * k0 * a + 15.0 * float(phi(a)), (x1, x2, th))
    return out


# ---------------------------------------------------------------------------
# A3: flat-bottom construction on a monotone-ray function
# ---------------------------------------------------------------------------

def _a3_bridge(fn: Callable, fm: float, fp: float, k0: float, a: float) -> Callable:
    """The A3 envelope of ``fn`` for fp = fn(a) <= fm = fn(-a): fn outside the
    band, slope -k0 from fm at -a down to fp at 0, then flat at fp up to a."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= -a, fn(x),
                        np.where(x <= 0.0, -k0 * (x + a) + fm,
                                 np.where(x < a, fp + 0.0 * x, fn(x))))

    return g


def construct_A3_envelope(f: ScalarFunction, a: float, k: float) -> EnvelopeConstruction:
    """Monotone envelope: keep f outside [-a, a], bridge the band with one slope
    -k0 piece and one flat piece so the result decreases then increases.

    Stated for f(a) <= f(-a); the opposite orientation is handled by building
    the construction on the reflection x -> -x and reflecting back.  k0 is
    |f(a) - f(-a)| / a and never exceeds 2k when the Lipschitz constant holds.
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    _require_envelope(f)
    x1, x2 = _selfcheck_pairs(stream(0, "selfcheck-band"), -12.0, 12.0)
    _require(f, f"violates the declared Lipschitz constant k={k} (global)",
             np.abs(f(x1) - f(x2)), k * np.abs(x1 - x2), (x1, x2))
    # consecutive grid points on each ray: f(x_i) <= f(x_{i+1}) right, >= left
    xs = np.linspace(a, a + 20.0, 801)
    _require(f, f"is not nondecreasing right of {a}", -np.diff(f(xs)), 0.0, (xs[:-1],))
    xs = np.linspace(-a - 20.0, -a, 801)
    _require(f, f"is not nonincreasing left of {-a}", np.diff(f(xs)), 0.0, (xs[:-1],))

    if a == 0.0:
        g = f.fn
        k0 = 0.0
    else:
        fm, fp = float(f(-a)), float(f(a))
        k0 = abs(fp - fm) / a
        if k0 > 2.0 * k + 1e-12:
            raise InvalidHypothesisError(
                f"|f(a)-f(-a)|/a = {k0:.6g} exceeds 2k; declared Lipschitz constant is wrong",
                witness=k0)
        if fp <= fm:
            g = _a3_bridge(f.fn, fm, fp, k0, a)
        else:
            # f(-x) has the stated orientation: build on it and reflect back
            g_reflected = _a3_bridge(lambda x: f.fn(-x), fp, fm, k0, a)

            def g(x):
                return g_reflected(-np.asarray(x, dtype=float))

    M = 2.0 * _band_sup(f.fn, a)
    return EnvelopeConstruction(source=f, lemma="A3", a=a, k=k, k0=k0, x0=0.0,
                                g=g, h=_remainder(f, g, a), M=M)


def lemmaA3_check(f: ScalarFunction, a: float, k: float, samples,
                  construction: Optional[EnvelopeConstruction] = None) -> ConditionReport:
    """Main theta-difference bound for globally Lipschitz monotone-ray functions:

    (f(x1) - th f(x2)) / (1-th) <= 4k|d_th x| + 4ka + 11 phi(a) + phi(|x2|).
    """
    if construction is None:
        construct_A3_envelope(f, a, k)       # hypothesis self-checks
    phi = f.phi
    x1, x2, th = samples
    dx = np.abs((x1 - th * x2) / (1.0 - th))
    lhs = (f(x1) - th * f(x2)) / (1.0 - th)
    rhs = (4.0 * k * dx + 4.0 * k * a + 11.0 * float(phi(a))
           + np.asarray(phi(np.abs(x2)), dtype=float))
    return _assemble("A3-theta", lhs, rhs, (x1, x2, th))


def lemmaA3_intermediate_checks(con: EnvelopeConstruction, samples) -> dict[str, ConditionReport]:
    f, phi = con.source, con.source.phi
    a, k = con.a, con.k
    x1, x2, th = samples
    dx = np.abs((x1 - th * x2) / (1.0 - th))
    xs = np.concatenate([x1, x2])
    out = {}
    out["envelope-lipschitz"] = _assemble(
        "envelope-lipschitz", np.abs(con.g(x1) - con.g(x2)), 2.0 * k * np.abs(x1 - x2), (x1, x2))
    out["envelope-growth"] = _assemble(
        "envelope-growth", con.g(xs),
        np.asarray(phi(np.abs(xs)), dtype=float) + float(phi(a)), (xs,))
    out["envelope-theta"] = _assemble(
        "envelope-theta", (con.g(x1) - th * con.g(x2)) / (1.0 - th),
        2.0 * k * dx + np.asarray(phi(np.abs(x2)), dtype=float) + float(phi(a)), (x1, x2, th))
    # h = f - g carries Lipschitz constant k + k0 (k0 can exceed k, capped at 2k)
    out["remainder-theta"] = _assemble(
        "remainder-theta", (con.h(x1) - th * con.h(x2)) / (1.0 - th),
        (k + con.k0) * dx + 4.0 * k * a + 10.0 * float(phi(a)), (x1, x2, th))
    return out


def remainder_check(con: EnvelopeConstruction, samples) -> ConditionReport:
    """Support, bound, and theta-split control of the remainder h = f - g.

    h vanishes outside the band exactly; |h| <= M; and
    |h(th x2) - h(x2)| <= (1-th) * (4M + 2 k0 a) for A2, (1-th)(4M + 4 k a) for A3.
    """
    x1, x2, th = samples
    outside = np.abs(x2) >= con.a
    h_out = con.h(x2[outside])
    if h_out.size and np.max(np.abs(h_out)) > _EXACT_TOL:
        return ConditionReport("remainder-support", "fail", -float(np.max(np.abs(h_out))),
                               ((float(x2[outside][int(np.argmax(np.abs(h_out)))]),),),
                               int(outside.sum()))
    xs = np.concatenate([x1, x2])
    bound = _assemble("remainder-bound", np.abs(con.h(xs)), con.M, (xs,))
    if bound.verdict == "fail":
        return bound
    slack = 4.0 * con.M + (2.0 * con.k0 * con.a if con.lemma == "A2" else 4.0 * con.k * con.a)
    lhs = np.abs(con.h(th * x2) - con.h(x2))
    rhs = (1.0 - th) * slack
    return _assemble("remainder-split", lhs, rhs, (x2, th))
