import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from framedisc import Covering, QuadratureSpace, Weight2D, WeightedLp, \
    uniform_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


@pytest.fixture
def small_space():
    """Five points with mixed weights."""
    return QuadratureSpace(
        np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]),
        np.array([0.5, 1.0, 0.25, 2.0, 1.25]),
    )


@pytest.fixture
def grid64():
    return uniform_grid(64, spacing=1.0, weights=1.0)


def random_kernel(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_pointwise_weight(rng, n):
    """Log-uniform entries in [1, e^2]; its associated weight lies in [1, e^2]."""
    return np.exp(rng.uniform(0.0, 2.0, size=n))


def unit_weight(space):
    """The trivial two-point weight m = 1."""
    return Weight2D(space, np.ones(space.n_points))


def unit_space(space):
    """L^2 with the unit weight, whose two-point weight is ``unit_weight``."""
    return WeightedLp.lebesgue(space, 2.0)


def random_interval_covering(rng, space, n_sets):
    """Random intervals of indices, forced to cover everything."""
    n = space.n_points
    sets = []
    for _ in range(n_sets):
        a = int(rng.integers(0, n - 1))
        b = int(rng.integers(a + 1, n + 1))
        sets.append(np.arange(a, b))
    sets.append(np.arange(n))   # guarantee coverage
    return Covering(space, tuple(sets))
