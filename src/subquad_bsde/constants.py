"""Explicit constants of the a-priori bounds, computed from (alpha, T, beta, gamma).

The bound constants grow like exp(mu(T) * k^(2/alpha*)) and overflow double
precision for mildly large coefficients, so they are carried as natural logs
(`LogValue`) and all comparisons downstream happen in log space.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidCoefficientError

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1.49e-8
QUAD_LIMIT = 200          # hard subdivision cap
_CONCAVITY_GRID = 2001    # points on [0, 100] where theta_constants re-checks concavity
_OVERFLOW_LOG = 700.0     # exp(x) overflows float64 just above this


@dataclass(frozen=True)
class LogValue:
    """A positive scalar stored as its natural log."""

    log: float

    @property
    def overflowed(self) -> bool:
        return self.log > _OVERFLOW_LOG

    @property
    def value(self) -> float:
        """Plain float; inf when the value does not fit in a double."""
        return math.inf if self.overflowed else math.exp(self.log)

    def __float__(self) -> float:
        return self.value


def _check_alpha(alpha: float) -> None:
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1,2), got {alpha}")


def conjugate_exponent(alpha: float) -> float:
    """alpha / (alpha - 1); satisfies 1/alpha + 1/alpha* = 1."""
    _check_alpha(alpha)
    return alpha / (alpha - 1.0)


def khat(alpha: float) -> float:
    """Weighted-Young coefficient: (2-alpha) * ((alpha-1)/alpha^2)^(-alpha/(2-alpha)).

    It certifies 2*g*y*|z|^alpha <= (1/alpha*) y^(2/alpha*) |z|^2
    + khat * g^(2/(2-alpha)) * y^2 for g, y, |z| >= 0.
    """
    _check_alpha(alpha)
    return (2.0 - alpha) * ((alpha - 1.0) / alpha ** 2) ** (-alpha / (2.0 - alpha))


def young_margin(alpha: float, gamma: np.ndarray, yhat: np.ndarray, znorm: np.ndarray) -> np.ndarray:
    """Pointwise slack of the inequality that ``khat`` certifies (>= 0 when it holds)."""
    astar = conjugate_exponent(alpha)
    kh = khat(alpha)
    gamma, yhat, znorm = (np.asarray(a, dtype=float) for a in (gamma, yhat, znorm))
    lhs = 2.0 * gamma * yhat * znorm ** alpha
    rhs = yhat ** (2.0 / astar) * znorm ** 2 / astar + kh * gamma ** (2.0 / (2.0 - alpha)) * yhat ** 2
    return rhs - lhs


def k_threshold(alpha: float) -> float:
    """((alpha*)^2 + alpha*)^(alpha*/2); chosen so k^(2/alpha*) >= 2 ln k."""
    astar = conjugate_exponent(alpha)
    return (astar ** 2 + astar) ** (astar / 2.0)


# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983): the positive abscissae of
# the 21-point Kronrod rule on [-1, 1], of which _XGK[1], _XGK[3], ..., _XGK[9]
# are the 10-point Gauss abscissae, and the weights of both rules.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_OVERFLOW_SCALE = 2.0 ** -64      # exact: rescales an integrand whose sum overflows
_UFLOW = sys.float_info.min


def _gk21(fn: Callable[[float], float], a: float,
          b: float) -> tuple[float, float, float, bool]:
    """dqk21 on [a, b], in its operation order: (integral, error estimate,
    resasc, whether every sample of ``fn`` was finite).

    resasc approximates the integral of |f - mean f|; qags does not trust an
    error estimate equal to it.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = float(fn(centr))
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):           # Gauss abscissae first, as dqk21
        absc = hlgth * _XGK[j]
        fval1 = float(fn(centr - absc))
        fval2 = float(fn(centr + absc))
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    finite = math.isfinite(fc) and all(map(math.isfinite, fv1)) and all(map(math.isfinite, fv2))
    return result, abserr, resasc, finite


def _integrate(fn: Callable[[float], float], lo: float, hi: float, name: str) -> float:
    """Integral of ``fn`` over [lo, hi] to max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|).

    The first interval is accepted by qags's test, so the value equals
    ``scipy.integrate.quad``'s whenever quad accepts it too.  Otherwise the
    interval with the largest error estimate is bisected, without qags's
    extrapolation, until the summed error meets the tolerance.  Raises
    `InvalidCoefficientError` naming ``name`` when it does not within
    QUAD_LIMIT intervals, when that interval is too narrow to bisect, or when
    ``fn`` returns a non-finite value.  A finite integrand whose integral
    leaves the double range gives +-inf, as `mu_schedule` saturates.
    """
    if hi <= lo:
        return 0.0
    result, err, resasc, finite = _gk21(fn, lo, hi)
    if finite and math.isfinite(result) and (
            (err <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(result)) and err != resasc) or err == 0.0):
        return result
    heap = [(-err, lo, hi, result)]       # max-heap on the error estimate
    total = result
    while True:
        if finite and not math.isfinite(total):
            # finite samples whose sum leaves the double range: integrate a
            # scaled copy; scaling back saturates to +-inf, as mu_schedule
            # does, exactly when the integral itself leaves the range
            scaled = _integrate(lambda t: float(fn(t)) * _OVERFLOW_SCALE, lo, hi, name)
            return scaled / _OVERFLOW_SCALE
        neg_err, a, b, value = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        # dqagse's test for an interval shrunk to the rounding of its endpoints
        narrow = max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW)
        why = (f"[{a:.6g}, {b:.6g}] is too narrow to bisect" if narrow
               else "the integrand is not finite" if not math.isfinite(total)
               else f"it needs more than {QUAD_LIMIT} subintervals" if len(heap) + 1 >= QUAD_LIMIT
               else None)
        if why:
            raise InvalidCoefficientError(
                f"the integral of {name} over [{lo:.6g}, {hi:.6g}] does not converge: "
                f"estimate {total:.6g}, error {err:.3g}; {why}")
        left, left_err, _, left_finite = _gk21(fn, a, mid)
        right, right_err, _, right_finite = _gk21(fn, mid, b)
        finite = finite and left_finite and right_finite
        total += left + right - value
        err += left_err + right_err + neg_err
        heapq.heappush(heap, (-left_err, a, mid, left))
        heapq.heappush(heap, (-right_err, mid, b, right))
        if err <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)):
            return math.fsum(value for *_, value in heap)


def _probe_nonnegative(fn, hi: float, name: str) -> None:
    ts = np.linspace(0.0, hi, 257)
    vals = np.asarray([float(fn(t)) for t in ts])
    if np.any(vals < 0.0):
        t_bad = float(ts[int(np.argmin(vals))])
        raise InvalidCoefficientError(f"{name} must be nonnegative; {name}({t_bad:.6g}) = {vals.min():.6g}")


def _cached_integral(integrand: Callable[[float], float], name: str):
    """Integral from 0 to s with node caching; monotone in s for nonneg integrands."""
    cache: dict[float, float] = {0.0: 0.0}

    def value(s: float) -> float:
        s = float(s)
        if s not in cache:
            anchor = max((a for a in cache if a <= s), default=0.0)
            cache[s] = cache[anchor] + _integrate(integrand, anchor, s, name)
        return cache[s]

    return value


def mu_schedule(alpha: float, gamma: Callable[[float], float],
                A: Callable[[float], float]) -> Callable[[float], float]:
    """mu(s) = exp((khat/alpha*) * int_0^s e^{2A(r)} gamma^{2/(2-alpha)}(r) dr).

    mu(0) = 1, the value `ConstantSet.mu0` reports.  The inner integral is
    taken by adaptive quadrature, cached per node.  mu saturates to inf when
    the weight or its integral leaves the double range, and stays 1 while
    gamma is 0, however large A grows.
    """
    astar = conjugate_exponent(alpha)
    kh = khat(alpha)
    power = 2.0 / (2.0 - alpha)

    def integrand(r: float) -> float:
        g = float(gamma(r))
        if g < 0.0:
            raise InvalidCoefficientError(f"gamma must be nonnegative; gamma({r:.6g}) = {g:.6g}")
        if g == 0.0:
            return 0.0
        w = math.exp(2.0 * float(A(r))) * g ** power    # exp and ** raise OverflowError
        if w == math.inf:
            raise OverflowError("the mu weight overflows")
        return w

    grow = _cached_integral(integrand, "the mu weight e^{2A} gamma^{2/(2-alpha)}")

    def mu(s: float) -> float:
        # saturate rather than raise: downstream constants carry logs anyway
        try:
            exponent = (kh / astar) * float(grow(s))
        except OverflowError:
            return math.inf
        return math.exp(exponent) if exponent < _OVERFLOW_LOG else math.inf

    return mu


def gamma_integral(gamma: Callable[[float], float], T: float, name: str = "gamma") -> float:
    """int_0^T gamma by adaptive quadrature, gated on 0 < int_0^T gamma < inf.

    Raises `InvalidCoefficientError` naming ``name`` when a probe finds gamma
    negative on [0, T], or when the integral is not finite and positive.
    """
    _probe_nonnegative(gamma, T, name)
    total = _integrate(gamma, 0.0, T, name)
    if not 0.0 < total < math.inf:
        raise InvalidCoefficientError(
            f"{name} must have a finite positive integral over [0, {T:.6g}], got {total}")
    return total


def _k_alpha(alpha_star: float) -> float:
    """k_alpha = exp(alpha*/2), the shift of the theta-difference step's Jensen transform."""
    return math.exp(alpha_star / 2.0)


def _delta_p(p: float, total: float, alpha_star: float) -> float:
    """delta_p = p * total^{2/alpha*}, for ``total`` the integral of gamma the step weighs by."""
    return p * total ** (2.0 / alpha_star)


def theta_constants(p: float, gamma, alpha: float, T: float) -> tuple[float, float]:
    """(delta_p, k_alpha) for the theta-difference moment step, with total = int_0^T gamma.

    Also re-checks numerically that x -> (ln(k_alpha + x))^{alpha*/2} is
    concave on [0, 100], which is what makes k_alpha usable in the Jensen step.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    _check_alpha(alpha)
    total = gamma_integral(gamma, T)
    astar = conjugate_exponent(alpha)
    k_alpha = _k_alpha(astar)

    xs = np.linspace(0.0, 100.0, _CONCAVITY_GRID)
    f = np.log(k_alpha + xs) ** (astar / 2.0)
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    if second.max() > 1e-9:
        raise AssertionError("concavity check failed for the Jensen transform")
    return _delta_p(p, total, astar), k_alpha


@dataclass(frozen=True)
class ConstantSet:
    """Every derived constant for a fixed (alpha, T, beta, gamma); mu0 = mu(0) is always 1."""

    alpha: float
    alpha_star: float
    k: float
    khat: float
    mu0: float
    A: Callable[[float], float]
    mu: Callable[[float], float]
    T: float
    log_K: LogValue
    K_p: Callable[[float], LogValue]
    delta_p: Callable[[float], float | None]     # None when gamma integrates to 0
    k_alpha: float

    def to_dict(self, p_values=(2.0,)) -> dict:
        out = {
            "alpha": self.alpha,
            "alpha_star": self.alpha_star,
            "k": self.k,
            "khat": self.khat,
            "mu0": self.mu0,
            "mu_T": self.mu(self.T),
            "A_T": self.A(self.T),
            "T": self.T,
            "log_K": self.log_K.log,
            "k_alpha": self.k_alpha,
        }
        for p in p_values:
            out[f"log_K_p[{p:g}]"] = self.K_p(p).log
            out[f"delta_p[{p:g}]"] = self.delta_p(p)
        return out

    def dump(self, p_values=(2.0,)) -> str:
        return json.dumps(self.to_dict(p_values), sort_keys=True, indent=2)


def derive_constants(alpha: float, T: float, beta, gamma) -> ConstantSet:
    """Build the full `ConstantSet` for one coefficient profile."""
    _check_alpha(alpha)
    if T <= 0.0:
        raise ValueError("T must be positive")
    _probe_nonnegative(beta, T, "beta")
    _probe_nonnegative(gamma, T, "gamma")
    astar = conjugate_exponent(alpha)
    A = _cached_integral(lambda r: float(beta(r)), "beta")
    mu = mu_schedule(alpha, gamma, A)
    mu_T, A_T = mu(T), A(T)
    k = k_threshold(alpha)
    # K = exp(mu(T) k^{2/alpha*})  v  mu(T) e^{A(T)}
    log_K = LogValue(max(mu_T * k ** (2.0 / astar), math.log(mu_T) + A_T))

    def K_p(p: float) -> LogValue:
        """((p/(p-1))^p ((8 mu(T))^p e^{pA(T)} + 1) e^{p mu(T) k^{2/alpha*}})  v  p mu(T) e^{A(T)}."""
        if p <= 1.0:
            raise ValueError("p must exceed 1")
        log_bracket = float(np.logaddexp(p * (math.log(8.0 * mu_T) + A_T), 0.0))
        left = p * math.log(p / (p - 1.0)) + log_bracket + p * mu_T * k ** (2.0 / astar)
        return LogValue(max(left, math.log(p * mu_T) + A_T))

    def delta_p(p: float) -> float | None:
        if _integrate(gamma, 0.0, T, "gamma") == 0.0:
            return None          # no theta-difference step to size: its gate would raise
        return theta_constants(p, gamma, alpha, T)[0]

    return ConstantSet(alpha=alpha, alpha_star=astar, k=k, khat=khat(alpha), mu0=1.0,
                       A=A, mu=mu, T=T, log_K=log_K, K_p=K_p, delta_p=delta_p,
                       k_alpha=_k_alpha(astar))
