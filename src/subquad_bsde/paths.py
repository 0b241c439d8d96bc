"""Time grids, Brownian path bundles, random streams, and least-squares conditional expectations.

Everything here is deterministic given its arguments: path generation is keyed
by (seed, path index) through a counter-based bit generator, so any subset of
paths can be regenerated bit-exactly without producing the rest of the bundle.
Every other random draw of the toolkit comes from a named stream (`stream`),
keyed in a domain that no path index reaches, so no sample that checks a
solution shares its stream with a path of that solution.

Every regression basis gives a projector with one contract (`_Projector`):
coordinates are least-squares coefficients in a basis B of the fitted span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily: load it with the toolkit, not in a sample


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition 0 = t_0 < t_1 < ... < t_N = horizon."""

    horizon: float
    nodes: np.ndarray
    dt: np.ndarray = field(init=False, repr=False, compare=False)   # step sizes, read-only

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if nodes[0] != 0.0 or nodes[-1] != self.horizon:
            raise ValueError("nodes must start at 0 and end at the horizon")
        dt = np.diff(nodes)
        if np.any(dt <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        dt.flags.writeable = False
        object.__setattr__(self, "dt", dt)

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1


GRID_SCHEMES = ("uniform", "geometric")


def build_grid(horizon: float, steps: int, scheme: str = "uniform",
               ratio: float = 0.5) -> TimeGrid:
    """Build a time grid with ``steps`` intervals over [0, horizon].

    ``uniform`` gives equal steps.  ``geometric`` shrinks the steps by
    ``ratio`` toward the horizon so nodes cluster near the terminal time; too
    many steps for the ratio leave widths below the rounding of the nodes,
    which is an error.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if scheme == "uniform":
        nodes = np.linspace(0.0, horizon, steps + 1)
    elif scheme == "geometric":
        if not 0.0 < ratio < 1.0:
            raise ValueError("geometric ratio must lie in (0, 1)")
        widths = ratio ** np.arange(steps)
        nodes = np.concatenate([[0.0], np.cumsum(widths)])
        nodes *= horizon / nodes[-1]
        nodes[-1] = horizon
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError(f"geometric grid with steps={steps} and ratio={ratio}: the last "
                             f"widths fall below the rounding of the nodes; take fewer steps")
    else:
        raise ValueError(f"unknown grid scheme {scheme!r}; schemes: {', '.join(GRID_SCHEMES)}")
    return TimeGrid(horizon=horizon, nodes=nodes)


def step_major_empty(shape: tuple) -> np.ndarray:
    """Uninitialised per-path field of path-major ``shape`` (paths, steps, ...),
    stored step-major: time is the outer axis in memory, so ``x[:, j]`` is
    one contiguous block."""
    return np.empty((shape[1], shape[0]) + tuple(shape[2:])).swapaxes(0, 1)


@dataclass(frozen=True)
class PathBundle:
    """Brownian values at the grid nodes, ``levels`` of shape (count, steps + 1, dims).

    Stored step-major (time is the outer axis in memory), so the per-node slice
    ``levels[:, j, :]`` that every solver step reads is one contiguous block; a
    step's increment is ``levels[:, j + 1] - levels[:, j]``.  ``projectors(basis)``
    are built on first use and kept.
    """

    grid: TimeGrid
    levels: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.levels.shape[0]

    @property
    def dims(self) -> int:
        return self.levels.shape[2]

    def projectors(self, basis: RegressionBasis) -> list:
        """Per-step projectors of ``basis`` at the states of steps 0..N-1.

        Every solve and check on this bundle regresses at the same states, so
        the list is factored once per basis and shared by all of them.
        """
        if basis not in self._cache:
            self._cache[basis] = [basis.projector(self.levels[:, j, :])
                                  for j in range(self.grid.steps)]
        return self._cache[basis]

    def terminal(self) -> np.ndarray:
        """Brownian values at the horizon, shape (count, dims)."""
        return self.levels[:, -1, :]


# The one key layout of the toolkit: path i of seed s is Philox(key=[s, i]),
# and named stream ``name`` of seed s is Philox(key=[s, 2**63 + tag]).  A bundle
# would need 2**63 paths to reach a named stream.
STREAM_TAGS = {
    "cloud": 1,               # conditions.build_cloud
    "lemma-samples": 2,       # envelopes.lemma_samples
    "families": 3,            # the seeded members in families
    "selfcheck-a1": 4,        # envelopes: A1's declared-constant checks (seed 0)
    "selfcheck-band": 5,      # envelopes: A2's and A3's Lipschitz checks (seed 0)
}


SEED_LIMIT = 2 ** 64        # a seed is the first 64-bit word of a Philox key: 0 <= seed < 2**64


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def stream(seed: int, name: str) -> np.random.Generator:
    """The random stream ``name`` of ``seed``, one of `STREAM_TAGS`: a fresh
    Generator over Philox(key=[seed, 2**63 + tag]), disjoint from every path's
    stream of every seed and from every other name's."""
    if name not in STREAM_TAGS:
        raise KeyError(f"unknown random stream {name!r}; streams: {', '.join(STREAM_TAGS)}")
    _check_seed(seed)
    key = np.array([seed, 2 ** 63 + STREAM_TAGS[name]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_SAMPLE_CHUNK = 2048        # paths drawn into one contiguous buffer before the step-major copy


def sample_paths(grid: TimeGrid, dims: int, count: int, seed: int) -> PathBundle:
    """Draw ``count`` independent d-dimensional Brownian paths on ``grid``."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_seed(seed)
    levels = step_major_empty((count, grid.steps + 1, dims))
    levels[:, 0, :] = 0.0
    # Counter-based keying: path i is the stream of Philox(key=[seed, i]), a
    # pure function of (seed, i), independent of how many other paths exist or
    # the order they are drawn.  One bit generator is re-keyed per path to
    # that fresh state (counter 0, empty buffer) instead of being rebuilt.  The
    # state dict holds plain Python ints, which numpy's state setter converts
    # at half the cost of uint64 arrays; it and its key are reused, only
    # key[1] changes.  The draws of a chunk of paths go into one contiguous
    # buffer before they are copied step-major.
    bitgen = np.random.Philox(0)
    normal = np.random.Generator(bitgen).standard_normal
    key = [int(seed), 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    chunk = np.empty((min(count, _SAMPLE_CHUNK), grid.steps, dims))
    for first in range(0, count, len(chunk)):
        rows = chunk[:min(len(chunk), count - first)]
        for i, row in enumerate(rows, first):
            key[1] = i
            bitgen.state = state
            normal(out=row)
        levels[first:first + len(rows), 1:] = rows
    levels[:, 1:] *= np.sqrt(grid.dt)[None, :, None]
    # the running sum in place, step by step: each add reads and writes contiguous blocks
    for j in range(grid.steps):
        np.add(levels[:, j, :], levels[:, j + 1, :], out=levels[:, j + 1, :])
    return PathBundle(grid=grid, levels=levels)


class _Projector:
    """Least-squares projection onto the span of a basis B of per-path columns.

    ``coords(values)`` are the least-squares coefficients of ``values`` (a
    vector or a block of columns) in B, ``expand(c)`` is B c, and
    ``cross(others, w)`` holds coords(diag(w) X) per other, X the basis of a
    projector of the same kind or the entry itself, an (M, c) block of columns.
    B has ``size`` columns, so coordinates have ``size`` leading entries.
    ``coords_rows`` and ``expand_rows`` apply ``coords`` and ``expand`` to each
    leading row of a stack, (R, M, ...) to (R, p, ...) and back; row r of
    either result equals the projector's own call on row r bit for bit.
    """

    def fit(self, values: np.ndarray) -> np.ndarray:
        """The fitted values: the conditional-expectation proxy."""
        return self.expand(self.coords(values))

    def coords_rows(self, values: np.ndarray) -> np.ndarray:
        return np.stack([self.coords(v) for v in values])

    def expand_rows(self, coords: np.ndarray) -> np.ndarray:
        return np.stack([self.expand(c) for c in coords])

    def noise_sq(self, resid: np.ndarray):
        """Squared standard error of the fit, from its residual on the M paths:
        the residual variance on M - rank degrees of freedom times rank / M,
        rank the dimension of the fitted span; inf when M <= rank, where the
        fit can interpolate its samples.  ``resid`` is one residual (M,), or a
        block (R, M) of them reduced row by row in one call, each row's value
        equal bit for bit to the call on that row alone; the result is a
        float, or (R,)."""
        M = resid.shape[-1]
        if M <= self.rank:
            return np.inf if resid.ndim == 1 else np.full(resid.shape[:-1], np.inf)
        return np.var(resid, axis=-1) * self.rank / (M - self.rank)


class _SVDProjector(_Projector):
    """Projection onto the feature columns, factored once.

    B is the left singular vectors ``u`` of the design, an orthonormal basis
    of its column span, so ``coords`` is u^T values and rank-deficient designs
    project onto the true span instead of failing.  Stacked rows take one
    matrix product per row, because one product over all rows would sum in
    another order.
    """

    def __init__(self, features: np.ndarray):
        u, s, vt = np.linalg.svd(features, full_matrices=False)
        # every design holds the constant column, so s[0] >= sqrt(M) > 0; s is sorted
        rank = int(np.count_nonzero(s > s[0] * max(features.shape) * np.finfo(float).eps))
        # a LAPACK build may negate any singular pair: column k takes the sign that
        # makes vt's row k largest-magnitude entry positive, exactly, in the rank
        # cut's copy, laid out in the one order that BLAS's summation order reads
        lead = vt[np.arange(rank), np.argmax(np.abs(vt[:rank]), axis=1)]
        self.u = np.multiply(u[:, :rank], np.where(lead < 0.0, -1.0, 1.0), order="F")
        self.rank = self.size = rank

    def coords(self, values: np.ndarray) -> np.ndarray:
        # BLAS picks its summation order by the stride of ``values``: use a
        # contiguous copy so equal values give equal bits in any layout
        return self.u.T @ np.ascontiguousarray(values)

    def expand(self, coords: np.ndarray) -> np.ndarray:
        return self.u @ coords

    def cross(self, others, weights: np.ndarray = None) -> list:
        left = self.u.T if weights is None else self.u.T * weights     # formed once
        return [left @ (x.u if isinstance(x, _SVDProjector) else x) for x in others]


class _PartitionProjector(_Projector):
    """Partition-basis projection: per-bin means, no factorization needed.

    B is the bin indicators, so ``coords`` are the bin means (an empty bin's
    is zero) and ``expand`` gathers them by ``idx``: the minimum-norm least
    squares on the one-hot bin columns at a fraction of the cost of factoring them.
    """

    def __init__(self, idx: np.ndarray, size: int):
        self.idx = idx
        self.size = size
        counts = np.bincount(idx, minlength=size)
        self.rank = int(np.count_nonzero(counts))      # the nonempty bins
        self._denom = np.maximum(counts, 1).astype(float)

    def coords(self, values: np.ndarray) -> np.ndarray:
        # one bincount over (bin, column) pairs sums each bin in path order, per
        # column, and sums non-finite values without a warning: callers check the means
        values = np.asarray(values, dtype=float)
        cols = values.shape[1:]
        c = cols[0] if cols else 1
        pairs = self.idx if c == 1 else (self.idx[:, None] * c + np.arange(c)).ravel()
        sums = np.bincount(pairs, weights=np.ascontiguousarray(values).ravel(),
                           minlength=self.size * c)
        return sums.reshape((self.size,) + cols) / (self._denom[:, None] if cols
                                                    else self._denom)

    def expand(self, coords: np.ndarray) -> np.ndarray:
        return np.take(coords, self.idx, axis=0)

    def expand_rows(self, coords: np.ndarray) -> np.ndarray:
        return np.take(coords, self.idx, axis=1)

    def cross(self, others, weights: np.ndarray = None) -> list:
        return [self._cross(x, weights) for x in others]

    def _cross(self, other, weights):
        if not isinstance(other, _PartitionProjector):
            return self.coords(other if weights is None else weights[:, None] * other)
        # entry (k, l) sums the weights of the paths in bin k here and bin l there
        sums = np.bincount(self.idx * other.size + other.idx, weights=weights,
                           minlength=self.size * other.size)
        return sums.reshape(self.size, other.size) / self._denom[:, None]


BASIS_KINDS = ("polynomial", "piecewise-constant-bins")


@dataclass(frozen=True)
class RegressionBasis:
    """Feature map used to project path data onto a conditional-expectation proxy.

    kind ``polynomial``: per-coordinate monomials 1, x_c, ..., x_c^degree.
    kind ``piecewise-constant-bins``: bin indicators over [lo, hi] (scalar
    state only); values outside the range fall into the edge bins.
    """

    kind: str = "polynomial"
    size: int = 3
    lo: float = -5.0
    hi: float = 5.0

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; kinds: {', '.join(BASIS_KINDS)}")
        if self.size < 1:
            raise ValueError(f"basis size must be >= 1, got {self.size}")
        if self.kind == "piecewise-constant-bins" and not self.hi > self.lo:
            raise ValueError(f"bin range must satisfy hi > lo, got lo={self.lo}, hi={self.hi}")

    def projector(self, state: np.ndarray):
        """Least-squares projection onto the basis evaluated at per-path states.

        The result's ``fit(values)`` returns the fitted values (the
        conditional-expectation proxy); ``values`` may carry extra columns.
        ``coords``, ``expand`` and ``cross`` work in a basis B of the fitted
        span (see `_Projector`): the bin indicators for the partition, whose
        ``coords`` are the bin means, and an orthonormal basis Q of the
        feature span for the polynomial, whose ``coords`` are Q^T values.
        """
        state = np.atleast_2d(np.asarray(state, dtype=float))
        if state.shape[0] == 0:
            raise ValueError("regression needs at least one sample")
        if self.kind == "piecewise-constant-bins":
            return _PartitionProjector(self.bin_indices(state), self.size)
        return _SVDProjector(self.features(state))

    def features(self, state: np.ndarray) -> np.ndarray:
        """Monomial feature matrix for per-path states, shape (n_paths, 1 + dims * size)."""
        if self.kind != "polynomial":
            raise ValueError("feature matrices only exist for the polynomial basis")
        state = np.atleast_2d(np.asarray(state, dtype=float))
        n, d = state.shape
        # one contiguous row per feature; x^p is the running product x^(p-1) * x
        rows = np.empty((1 + d * self.size, n))
        rows[0] = 1.0
        for c in range(d):
            first = 1 + c * self.size
            rows[first] = state[:, c]
            for k in range(first + 1, first + self.size):
                np.multiply(rows[k - 1], rows[first], out=rows[k])
        return rows.T

    def bin_indices(self, state: np.ndarray) -> np.ndarray:
        """Bin assignment per path (partition basis only); edges clip outliers.

        Bin k holds edges[k] <= x < edges[k + 1] of the ``np.linspace`` edges,
        x below lo falls into bin 0, and x at or above hi or NaN into the last:
        ``clip(searchsorted(edges, x, "right") - 1, 0, size - 1)`` for every float.
        """
        if self.kind != "piecewise-constant-bins":
            raise ValueError("bin indices only exist for the partition basis")
        state = np.atleast_2d(np.asarray(state, dtype=float))
        if state.shape[1] != 1:
            raise ValueError("piecewise-constant bins require a scalar state")
        x = state[:, 0]
        last = self.size - 1
        edges = np.linspace(self.lo, self.hi, self.size + 1)
        span = self.hi - self.lo
        if not 32.0 * np.finfo(float).eps * self.size * max(abs(self.lo), abs(self.hi)) < span:
            # bins within a few roundings of the magnitude of their edges: the
            # arithmetic guess below may miss by more than one bin
            return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, last)
        # The bin by arithmetic, off by at most one from the rounded edges, then
        # one correction against those edges on each side.  A NaN guess goes to
        # the last bin (fmin), where searchsorted puts NaN; |x| near the double
        # limit may overflow the product to inf, which clips the same way.
        with np.errstate(over="ignore", invalid="ignore"):
            guess = np.subtract(x, self.lo)
            guess *= self.size / span
            np.floor(guess, out=guess)
            np.fmin(guess, last, out=guess)
            np.maximum(guess, 0.0, out=guess)
        k = guess.astype(np.intp)
        k -= (k > 0) & (x < edges[k])
        k += (k < last) & (x >= edges[k + 1])
        return k
