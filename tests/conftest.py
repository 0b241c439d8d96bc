import numpy as np
import pytest

import subquad_bsde as sq


@pytest.fixture(scope="session")
def grid24():
    return sq.build_grid(1.0, 24, "uniform")


@pytest.fixture(scope="session")
def bundle24(grid24):
    return sq.sample_paths(grid24, 1, 8000, 101)


@pytest.fixture(scope="session")
def poly_basis():
    return sq.RegressionBasis("polynomial", 3)


@pytest.fixture(scope="session")
def bins_basis():
    return sq.RegressionBasis("piecewise-constant-bins", 20, lo=-4.5, hi=4.5)


@pytest.fixture(scope="session")
def cloud_random():
    from subquad_bsde.conditions import build_cloud
    return build_cloud(1.0, 1, 20000, "random", seed=5)


@pytest.fixture(scope="session")
def cloud_corner():
    from subquad_bsde.conditions import build_cloud
    return build_cloud(1.0, 1, 20000, "adversarial-corner", seed=5)


@pytest.fixture(scope="session")
def example1():
    return sq.builtin_example_1(1.5, beta=0.5, gamma=0.25, d=1)


@pytest.fixture(scope="session")
def example2():
    return sq.builtin_example_2(1.5, beta=0.5, gamma=0.25, d=1)


class _Identity:
    """The identity map: a field built from per-path columns holds each node's
    column as its coordinates."""

    @staticmethod
    def expand(coords):
        return coords


def _field_from_columns(Y, Z, bundle, basis, fit_noise=None):
    """The field whose per-path columns are Y (paths, N+1) and Z (paths, N, dims),
    held as views under the identity map."""
    N = Y.shape[1] - 1
    return sq.SolutionField(terminal=Y[:, N], y_coords=tuple(Y[:, j] for j in range(N)),
                            z_coords=tuple(Z[:, j, :] for j in range(N)), z_divisor=np.ones(N),
                            maps=(_Identity,) * N, bundle=bundle, basis=basis,
                            fit_noise=fit_noise)


@pytest.fixture(scope="session")
def field_from_columns():
    return _field_from_columns
