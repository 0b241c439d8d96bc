import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from subquad_bsde import paths
from subquad_bsde.paths import RegressionBasis, build_grid, sample_paths


def test_uniform_grid_nodes():
    grid = build_grid(1.0, 4, "uniform")
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.steps == 4


def test_minimal_grid():
    grid = build_grid(1.0, 1, "uniform")
    assert np.array_equal(grid.nodes, [0.0, 1.0])


def test_grid_steps_are_computed_once_and_read_only():
    grid = build_grid(2.0, 8, "geometric", ratio=0.5)
    assert grid.dt is grid.dt
    assert not grid.dt.flags.writeable
    assert np.array_equal(grid.dt, np.diff(grid.nodes))
    with pytest.raises(ValueError):
        grid.dt[0] = 1.0


def test_geometric_grid_invariants():
    grid = build_grid(2.0, 8, "geometric", ratio=0.5)
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    # steps shrink toward the horizon
    assert np.all(np.diff(grid.dt) < 0.0)


@pytest.mark.parametrize("steps", [53, 64])
def test_geometric_grid_too_fine_for_its_ratio_names_steps_and_ratio(steps):
    # widths 0.5^k fall below the rounding of their running sum from about 53 steps
    with pytest.raises(ValueError, match=rf"steps={steps} and ratio=0\.5"):
        build_grid(1.0, steps, "geometric")
    assert build_grid(1.0, 52, "geometric").steps == 52


@pytest.mark.parametrize("horizon,steps", [(-1.0, 4), (0.0, 4), (1.0, 0)])
def test_grid_rejects_bad_arguments(horizon, steps):
    with pytest.raises(ValueError):
        build_grid(horizon, steps)


def test_sampling_is_reproducible():
    grid = build_grid(1.0, 8, "uniform")
    a = sample_paths(grid, 1, 100, 42)
    b = sample_paths(grid, 1, 100, 42)
    assert np.array_equal(a.levels, b.levels)


def test_path_streams_do_not_depend_on_count():
    grid = build_grid(1.0, 8, "uniform")
    small = sample_paths(grid, 2, 10, 9)
    large = sample_paths(grid, 2, 50, 9)
    assert np.array_equal(small.levels, large.levels[:10])


def test_increment_variance_within_five_standard_errors():
    grid = build_grid(1.0, 1, "uniform")
    bundle = sample_paths(grid, 1, 100_000, 3)
    sample_var = np.diff(bundle.levels, axis=1).var()
    se = 1.0 * np.sqrt(2.0 / (bundle.count - 1))
    assert abs(sample_var - 1.0) < 5.0 * se


def test_cross_coordinate_covariance_small():
    grid = build_grid(1.0, 4, "uniform")
    bundle = sample_paths(grid, 3, 10_000, 17)
    inc = np.diff(bundle.levels, axis=1)
    dt = grid.dt[0]
    for a in range(3):
        for b in range(a + 1, 3):
            cov = np.mean(inc[:, :, a] * inc[:, :, b])
            se = dt / np.sqrt(bundle.count * grid.steps)
            assert abs(cov) < 5.0 * se


def test_terminal_mean_is_martingale_consistent():
    grid = build_grid(2.0, 16, "uniform")
    bundle = sample_paths(grid, 1, 50_000, 23)
    terminal = bundle.terminal()[:, 0]
    se = np.sqrt(grid.horizon / bundle.count)
    assert abs(terminal.mean()) < 5.0 * se


def test_levels_start_at_zero_and_cumulate():
    grid = build_grid(1.0, 5, "uniform")
    bundle = sample_paths(grid, 2, 50, 1)
    lv = bundle.levels
    assert lv.shape == (50, 6, 2)
    assert np.all(lv[:, 0, :] == 0.0)
    assert np.allclose(lv[:, -1, :], _per_path_philox_reference(grid, 2, 50, 1).sum(axis=1))


def test_count_and_dims_read_the_levels():
    grid = build_grid(1.0, 5, "uniform")
    bundle = sample_paths(grid, 3, 40, 8)
    assert bundle.count == bundle.levels.shape[0] == 40
    assert bundle.dims == bundle.levels.shape[2] == 3


def test_sampling_holds_one_path_field():
    # the bundle stores only its Brownian levels: no second (count, steps, dims)
    # field is alive while sampling or after the first read
    grid = build_grid(1.0, 24, "uniform")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bundle = sample_paths(grid, 1, 20_000, 5)
        levels = bundle.levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * levels.nbytes


POLY1 = RegressionBasis("polynomial", 1)
BINS = RegressionBasis("piecewise-constant-bins", 8, lo=-1.0, hi=1.0)


def test_constant_regression():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 500)
    for basis in (POLY1, BINS):
        fitted = basis.projector(x[:, None]).fit(np.full(500, 3.7))
        assert np.allclose(fitted, 3.7, atol=1e-12), basis.kind


def test_exact_linear_fit():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 1000)
    proj = POLY1.projector(x[:, None])
    assert np.allclose(proj.fit(2.0 * x), 2.0 * x, atol=1e-10)


def test_bin_regression_matches_analytic_bin_means():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, 100_000)
    basis = RegressionBasis("piecewise-constant-bins", 10, lo=0.0, hi=1.0)
    fitted = basis.projector(x[:, None]).fit(x ** 2)
    midpoints = (np.floor(x * 10) + 0.5) / 10.0
    assert np.max(np.abs(fitted - midpoints ** 2)) < 0.02


def test_regression_idempotent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2000)
    for basis in (RegressionBasis("polynomial", 2), BINS):
        proj = basis.projector(x[:, None])
        fitted = proj.fit(np.sin(x))
        refit = proj.fit(fitted)
        assert np.max(np.abs(refit - fitted)) < 1e-10, basis.kind


def test_rank_deficient_minimum_norm():
    # two identical state coordinates give duplicate columns [1, x, x]: the
    # projection must not fail
    rng = np.random.default_rng(4)
    x = rng.standard_normal(300)
    proj = POLY1.projector(np.stack([x, x], axis=1))
    assert np.allclose(proj.fit(2.0 * x), 2.0 * x, atol=1e-10)


def test_empty_bin_fits_zero():
    basis = RegressionBasis("piecewise-constant-bins", 4, lo=0.0, hi=1.0)
    x = np.array([0.1, 0.1, 0.9])        # middle bins empty
    proj = basis.projector(x[:, None])
    values = np.array([1.0, 1.0, 5.0])
    coef = proj.coords(values)
    assert np.allclose(proj.fit(values), [1.0, 1.0, 5.0])
    assert coef[1] == 0.0 and coef[2] == 0.0


def test_regression_rejects_empty_input():
    for basis in (POLY1, BINS):
        with pytest.raises(ValueError):
            basis.projector(np.zeros((0, 1)))


def _dense_reference(design, values):
    coef = np.linalg.lstsq(design, values, rcond=None)[0]
    return coef, design @ coef


def test_bin_projector_matches_dense_one_hot_least_squares():
    # bins 0, 3 and 5 of 6 are empty: the one-hot design is rank deficient
    basis = RegressionBasis("piecewise-constant-bins", 6, lo=0.0, hi=6.0)
    rng = np.random.default_rng(5)
    x = rng.choice([1.5, 2.5, 4.5], size=400) + rng.uniform(-0.4, 0.4, 400)
    values = np.stack([np.sin(x) + rng.standard_normal(400), x ** 2], axis=1)
    idx = basis.bin_indices(x[:, None])
    coef_ref, fit_ref = _dense_reference(np.eye(basis.size)[idx], values)
    proj = basis.projector(x[:, None])
    assert set(np.unique(idx)) == {1, 2, 4}
    assert np.allclose(proj.fit(values), fit_ref, rtol=0.0, atol=1e-12)
    for c in range(values.shape[1]):
        assert np.allclose(proj.coords(values[:, c]), coef_ref[:, c], rtol=0.0, atol=1e-12)


def test_polynomial_projector_matches_dense_least_squares_when_rank_deficient():
    basis = RegressionBasis("polynomial", 2)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(500)
    state = np.stack([x, x], axis=1)
    design = basis.features(state)
    assert np.linalg.matrix_rank(design) < design.shape[1]
    values = np.exp(-x ** 2) + 0.1 * rng.standard_normal(500)
    _, fit_ref = _dense_reference(design, values)
    proj = basis.projector(state)
    assert np.allclose(proj.fit(values), fit_ref, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("basis", [RegressionBasis("polynomial", 4),
                                   RegressionBasis("piecewise-constant-bins", 12, lo=-3.0, hi=3.0)],
                         ids=lambda b: b.kind)
@pytest.mark.parametrize("spread", [0.0, 1.0], ids=["node0", "spread"])
def test_fit_bits_do_not_depend_on_input_layout(basis, spread):
    # at node 0 every path sits at B_0 = 0: the polynomial design is rank 1,
    # and its fit is the dot product whose BLAS summation order follows the stride
    rng = np.random.default_rng(8)
    x = spread * rng.standard_normal(3000)
    proj = basis.projector(x[:, None])
    col = rng.standard_normal((3000, 7))[:, 3]            # a strided column of a path-major field
    assert not col.flags.c_contiguous
    assert np.array_equal(proj.fit(col), proj.fit(np.ascontiguousarray(col)))


def _per_path_philox_reference(grid, dims, count, seed):
    # the sampler as first written: a fresh Philox(key=[seed, i]) per path
    out = np.empty((count, grid.steps, dims))
    for i in range(count):
        key = np.array([seed, i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal((grid.steps, dims))
    return out * np.sqrt(grid.dt)[None, :, None]


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("count", [1, 37])
def test_rekeyed_sampler_matches_per_path_philox(dims, count):
    grid = build_grid(1.0, 8, "geometric", ratio=0.7)
    bundle = sample_paths(grid, dims, count, 2024)
    # the running sum of the reference draws, accumulated step by step from B_0 = 0
    steps = _per_path_philox_reference(grid, dims, count, 2024)
    expected = np.concatenate([np.zeros((count, 1, dims)), np.cumsum(steps, axis=1)], axis=1)
    assert np.array_equal(bundle.levels, expected)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seeds_are_refused_by_name(seed):
    grid = build_grid(1.0, 4, "uniform")
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        sample_paths(grid, 1, 3, seed)
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        paths.stream(seed, "cloud")


def test_the_largest_seed_keys_its_paths_and_streams():
    grid = build_grid(1.0, 4, "uniform")
    seed = 2 ** 64 - 1
    steps = _per_path_philox_reference(grid, 1, 3, seed)
    expected = np.concatenate([np.zeros((3, 1, 1)), np.cumsum(steps, axis=1)], axis=1)
    assert np.array_equal(sample_paths(grid, 1, 3, seed).levels, expected)
    assert _key(paths.stream(seed, "cloud")) == [seed, 2 ** 63 + paths.STREAM_TAGS["cloud"]]


def _key(rng):
    return [int(w) for w in rng.bit_generator.state["state"]["key"]]


def test_named_streams_lie_in_a_key_domain_no_path_reaches():
    keys = {name: _key(paths.stream(11, name)) for name in paths.STREAM_TAGS}
    assert all(first == 11 and second >= 2 ** 63 for first, second in keys.values())
    assert len({second for _, second in keys.values()}) == len(keys)
    # a stream starts fresh on every call
    assert np.array_equal(paths.stream(11, "cloud").random(4), paths.stream(11, "cloud").random(4))
    with pytest.raises(KeyError, match="unknown random stream 'paths'"):
        paths.stream(11, "paths")


def test_cloud_no_longer_draws_the_stream_of_a_path_of_its_seed():
    # the cloud's key was [seed, 0x5eed]: the key of path 24301 of the same seed
    from subquad_bsde.conditions import build_cloud
    seed, size = 5, 64
    cloud = build_cloud(1.0, 1, size, "random", seed=seed)
    path_24301 = np.random.Generator(np.random.Philox(key=np.array([seed, 24301], dtype=np.uint64)))
    assert not np.array_equal(cloud.t, path_24301.uniform(0.0, 1.0, size))
    assert np.array_equal(cloud.t, paths.stream(seed, "cloud").uniform(0.0, 1.0, size))


def test_only_paths_builds_a_bit_generator():
    # the key layout is decided in one module: every other one asks paths.stream
    for source in Path(paths.__file__).parent.glob("*.py"):
        if source.name != "paths.py":
            text = source.read_text()
            assert "Philox(" not in text and "random.Generator(" not in text, source.name


def test_bundle_projectors_built_once_per_basis():
    grid = build_grid(1.0, 6, "uniform")
    bundle = sample_paths(grid, 1, 200, 3)
    projs = bundle.projectors(POLY1)
    assert len(projs) == grid.steps
    assert bundle.projectors(POLY1) is projs
    assert bundle.projectors(RegressionBasis("polynomial", 1)) is projs   # equal basis, same set
    other = bundle.projectors(BINS)
    assert other is not projs and other is bundle.projectors(BINS)


@pytest.mark.parametrize("basis", [RegressionBasis("polynomial", 4), BINS], ids=["poly", "bins"])
def test_bundle_projector_fits_match_fresh_projectors(basis):
    grid = build_grid(1.0, 6, "uniform")
    bundle = sample_paths(grid, 1, 500, 11)
    levels = bundle.levels
    values = np.sin(3.0 * levels[:, -1, 0])
    for j, proj in enumerate(bundle.projectors(basis)):
        fresh = basis.projector(levels[:, j, :])
        assert np.array_equal(proj.fit(values), fresh.fit(values)), j
        assert np.array_equal(proj.coords(values), fresh.coords(values)), j


@pytest.mark.parametrize("dims", [1, 2])
def test_features_match_powers(dims):
    basis = RegressionBasis("polynomial", 5)
    state = np.random.default_rng(7).uniform(-3.0, 3.0, (400, dims))
    expected = [np.ones(400)] + [state[:, c] ** p for c in range(dims) for p in range(1, 6)]
    features = basis.features(state)
    assert features.shape == (400, 1 + 5 * dims)
    np.testing.assert_allclose(features, np.stack(expected, axis=1), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("count", [1, 16, 17, 37])
def test_chunked_sampler_matches_per_path_philox(dims, count, monkeypatch):
    # counts below, at and past a multiple of the chunk of paths drawn at once
    monkeypatch.setattr(paths, "_SAMPLE_CHUNK", 16)
    grid = build_grid(1.0, 5, "uniform")
    bundle = sample_paths(grid, dims, count, 77)
    steps = _per_path_philox_reference(grid, dims, count, 77)
    expected = np.concatenate([np.zeros((count, 1, dims)), np.cumsum(steps, axis=1)], axis=1)
    assert np.array_equal(bundle.levels, expected)


def _projector_pair(basis, spread):
    rng = np.random.default_rng(21)
    x = spread * rng.standard_normal(2500)
    nxt = x + rng.standard_normal(2500)
    return (basis.projector(x[:, None]), basis.projector(nxt[:, None]),
            rng.standard_normal((2500, 3)))


POLY4 = RegressionBasis("polynomial", 4)
BINS12 = RegressionBasis("piecewise-constant-bins", 12, lo=-3.0, hi=3.0)


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
@pytest.mark.parametrize("spread", [0.0, 1.0], ids=["node0", "spread"])
def test_fit_is_expand_of_coords(basis, spread):
    # bit for bit: the solvers fit through either form and the bench digests rely on it
    proj, _, block = _projector_pair(basis, spread)
    for values in (block[:, 0], block[:, 1], block):
        assert np.array_equal(proj.expand(proj.coords(values)), proj.fit(values))


def _bin_means_reference(idx, size, values):
    """Per-bin means of each column, bincount(idx, w) / max(counts, 1), and
    the same gathered by ``idx``."""
    counts = np.maximum(np.bincount(idx, minlength=size), 1.0)
    cols = values.reshape(len(idx), -1)
    means = np.stack([np.bincount(idx, weights=cols[:, c], minlength=size) / counts
                      for c in range(cols.shape[1])], axis=1).reshape((size,) + values.shape[1:])
    return means, means[idx]


@pytest.mark.parametrize("count", [100, 50_000])
def test_partition_coords_and_fit_are_the_bin_means(count):
    rng = np.random.default_rng(22)
    x = rng.standard_normal(count)
    proj = BINS12.projector(x[:, None])
    block = rng.standard_normal((count, 3))
    for values in (block[:, 1], block):
        means, fitted = _bin_means_reference(proj.idx, BINS12.size, values)
        assert np.array_equal(proj.coords(values), means)
        assert np.array_equal(proj.fit(values), fitted)


@pytest.mark.parametrize("count", [100, 50_000])
@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
def test_stacked_rows_are_the_projector_row_by_row(basis, count):
    # each row of coords_rows and expand_rows is the projector's own call on it, bit
    # for bit, also where bins are empty, and on the (M, c) column path, c = 1 and 3
    rng = np.random.default_rng(22)
    proj = basis.projector(rng.standard_normal((count, 1)))
    narrow = basis.projector(0.2 * rng.standard_normal((count, 1)))
    if basis is BINS12:
        assert np.any(np.bincount(narrow.idx, minlength=BINS12.size) == 0)
    stack = rng.standard_normal((4, count, 3))
    for p in (proj, narrow):
        for values in (stack[..., 0], stack[..., :1], stack):
            coords = p.coords_rows(values)
            fitted = p.expand_rows(coords)
            assert coords.shape == (len(stack), p.rank if basis is POLY4 else BINS12.size) \
                + values.shape[2:]
            assert fitted.shape == values.shape
            for r in range(len(stack)):
                assert np.array_equal(coords[r], p.coords(values[r])), r
                assert np.array_equal(fitted[r], p.expand(coords[r])), r
                if basis is BINS12:
                    assert np.array_equal(coords[r], _bin_means_reference(p.idx, BINS12.size,
                                                                          values[r])[0]), r


def test_stacked_bin_means_sum_non_finite_values_without_a_warning():
    # one row's fullest bin holds +inf, -inf and NaN, another's two 1e308 entries that
    # overflow their sum: the means are NaN and inf, as the reference's, and the suite's
    # error::RuntimeWarning filter sees no warning
    rng = np.random.default_rng(23)
    proj = BINS12.projector(rng.standard_normal((500, 1)))
    fullest = np.flatnonzero(proj.idx == np.argmax(np.bincount(proj.idx)))
    stack = rng.standard_normal((3, 500))
    stack[0, fullest[:3]] = np.inf, -np.inf, np.nan
    stack[1, fullest[:2]] = 1e308
    coords = proj.coords_rows(stack)
    fitted = proj.expand_rows(coords)
    assert np.isnan(coords[0, proj.idx[fullest[0]]]) and coords[1, proj.idx[fullest[0]]] == np.inf
    for r in range(len(stack)):
        means, gathered = _bin_means_reference(proj.idx, BINS12.size, stack[r])
        assert np.array_equal(coords[r], means, equal_nan=True), r
        assert np.array_equal(fitted[r], gathered, equal_nan=True), r


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
def test_block_coords_are_the_coords_of_its_columns(basis):
    proj, _, block = _projector_pair(basis, 1.0)
    coords = proj.coords(block)
    for c in range(block.shape[1]):
        col = proj.coords(block[:, c])
        assert np.all(np.abs(coords[:, c] - col) <= 1e-14 * (1.0 + np.abs(col))), c


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
def test_coords_of_expand_are_the_coords(basis):
    # expand(c) = B c lies in the span, and its least-squares coefficients are c
    # again, to rounding (a bin mean of equal values need not be exact)
    proj, _, block = _projector_pair(basis, 1.0)
    if basis is BINS12:
        assert np.all(np.bincount(proj.idx, minlength=BINS12.size) > 0)   # every column is in B
    c = np.random.default_rng(23).standard_normal((len(proj.coords(block[:, 0])), 4))
    np.testing.assert_allclose(proj.coords(proj.expand(c)), c, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(proj.coords(proj.expand(c[:, 0])), c[:, 0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
def test_cross_products_match_the_dense_basis(basis):
    # cross(others, w) holds the least-squares coefficients of diag(w) X in
    # the basis B = expand(I), for X the basis of a projector of the same
    # kind or a block of columns
    proj, nxt, block = _projector_pair(basis, 1.0)
    r, r_next = len(proj.coords(block[:, 0])), len(nxt.coords(block[:, 0]))
    b, b_next = proj.expand(np.eye(r)), nxt.expand(np.eye(r_next))
    w = block[:, 0]
    others, dense = [nxt, proj, block[:, 1:]], [b_next, b, block[:, 1:]]
    for got, x in zip(proj.cross(others), dense):
        np.testing.assert_allclose(got, np.linalg.lstsq(b, x, rcond=None)[0], rtol=0.0, atol=1e-12)
    for got, x in zip(proj.cross(others, w), dense):
        np.testing.assert_allclose(got, np.linalg.lstsq(b, w[:, None] * x, rcond=None)[0],
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
@pytest.mark.parametrize("spread", [0.0, 1.0], ids=["node0", "spread"])
def test_noise_sq_is_the_residual_variance_on_the_rank_of_the_fitted_span(basis, spread):
    # the rank is the nonempty bins or the SVD's; node 0's state is all zeros,
    # so both bases fit the constants alone there
    rng = np.random.default_rng(24)
    x = spread * rng.standard_normal(60)
    proj = basis.projector(x[:, None])
    if spread == 0.0:
        rank = 1
    elif basis is BINS12:
        rank = len(np.unique(proj.idx))
        assert rank < BINS12.size             # an empty bin adds no dimension
    else:
        rank = 1 + POLY4.size
    assert proj.rank == rank
    resid = 2.0 + rng.standard_normal(60)     # off centre: the estimator centres
    rss = np.sum((resid - resid.mean()) ** 2)
    assert proj.noise_sq(resid) == pytest.approx(rss / (60 - rank) * rank / 60, rel=1e-14)


@pytest.mark.parametrize("basis", [POLY4, BINS12], ids=["poly", "bins"])
def test_noise_sq_of_a_block_is_each_rows_own_bit_for_bit(basis):
    # one reduction over (R, M) rows, as the stacked rungs use it; at M <= rank
    # (five distinct points for the quartic, three paths in three bins) all inf
    rng = np.random.default_rng(26)
    for state in (rng.standard_normal((60, 1)), rng.standard_normal((50_000, 1)),
                  np.array([[0.1], [0.7], [-1.2], [2.0], [0.4]])[:5 if basis is POLY4 else 3]):
        proj = basis.projector(state)
        block = 2.0 + rng.standard_normal((3, len(state)))
        got = proj.noise_sq(block)
        assert got.shape == (3,)
        assert np.array_equal(got, [proj.noise_sq(row) for row in block])
        assert np.all(np.isinf(got)) == (len(state) <= proj.rank)


def test_noise_sq_is_inf_on_no_more_paths_than_the_rank():
    poly = POLY4.projector(np.array([[0.1], [0.7], [-1.2], [2.0], [0.4]]))
    assert poly.rank == 5 and poly.noise_sq(np.arange(5.0)) == np.inf
    poly = POLY4.projector(np.array([[0.1], [0.7], [-1.2], [2.0], [0.4], [-0.3]]))
    assert np.isfinite(poly.noise_sq(np.arange(6.0)))
    # two paths in one bin leave one degree of freedom; in two bins, none
    same = BINS12.projector(np.array([[0.1], [0.2]]))
    apart = BINS12.projector(np.array([[0.1], [2.0]]))
    assert same.rank == 1 and same.noise_sq(np.array([0.0, 1.0])) == 0.25
    assert apart.rank == 2 and apart.noise_sq(np.array([0.0, 1.0])) == np.inf
    for basis in (POLY4, BINS12):
        assert basis.projector(np.zeros((1, 1))).noise_sq(np.array([3.0])) == np.inf


def _searchsorted_bins(basis, x):
    edges = np.linspace(basis.lo, basis.hi, basis.size + 1)
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, basis.size - 1)


@pytest.mark.parametrize("lo,hi,size", [
    (-4.8, 4.8, 30), (-1.0, 1.0, 8), (0.0, 1.0, 1), (-3.0, 3.0, 12), (2.5, 7.25, 1000),
    (1.0, 1.0 + 1e-9, 30),            # a narrow range
    (-1e-300, 1e-300, 7),             # a range of tiny magnitude
    (1e16, 1e16 + 2.0, 30),           # bins narrower than the spacing of their edges
])
def test_bin_indices_follow_the_searchsorted_rule_on_every_float(lo, hi, size):
    basis = RegressionBasis("piecewise-constant-bins", size, lo=lo, hi=hi)
    edges = np.linspace(lo, hi, size + 1)
    rng = np.random.default_rng(size)
    x = np.concatenate([rng.uniform(lo - (hi - lo), hi + (hi - lo), 20_000), edges,
                        np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                        [np.inf, -np.inf, np.nan, 1e308, -1e308, -0.0, 0.0, 5e-324, -5e-324]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = basis.bin_indices(x[:, None])
    expected = _searchsorted_bins(basis, x)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
