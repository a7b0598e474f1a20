import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framedisc import QuadratureSpace, StructuralError, uniform_grid
from framedisc.quadrature import product_grid, space_from_json

from oracles import integrate_naive, space_to_json
from theory import integrate


def test_constant_function_integrates_to_total_weight():
    space = QuadratureSpace(np.array([[0.0], [1.0], [2.0]]),
                            np.array([0.5, 0.5, 1.0]))
    assert integrate(space, np.ones(3)) == 2.0


def test_zero_function_integrates_to_zero(small_space):
    assert integrate(small_space, np.zeros(5)) == 0.0


def test_integrate_matches_naive_loop(rng):
    space = uniform_grid(16, spacing=0.37, weights=rng.uniform(0.1, 2.0, 16))
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    got = integrate(space, f)
    want = integrate_naive(space.weights, f)
    assert abs(got - want) <= 1e-14 * abs(want)


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=5, max_size=5),
       st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=100, deadline=None)
@example(values=[1e6 + 0.3j, 0, 0, 0, -4e5], alpha=999.7 + 0.3j)
def test_integrate_is_linear(values, alpha):
    """The allowance scales with the terms that cancel, sum_x w_x
    (|alpha f(x)| + |g(x)|), not with the result: a weighted sum of alpha f
    that nearly cancels keeps the rounding of its terms (the example errs
    by 4.3e-8 against an allowance of 1.0e-5)."""
    space = QuadratureSpace(np.arange(5.0)[:, None],
                            np.array([0.5, 1.0, 0.25, 2.0, 1.25]))
    f = np.asarray(values, dtype=complex)
    g = np.linspace(1, 2, 5) + 0j
    lhs = integrate(space, alpha * f + g)
    rhs = alpha * integrate(space, f) + integrate(space, g)
    size = np.sum(space.weights * (np.abs(alpha * f) + np.abs(g)))
    assert abs(lhs - rhs) <= 1e-14 * size


def test_structural_errors(small_space):
    with pytest.raises(StructuralError):
        integrate(small_space, np.ones(4))
    with pytest.raises(StructuralError):
        QuadratureSpace(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(StructuralError):
        QuadratureSpace(np.array([[0.0], [0.0]]), np.array([1.0, 1.0]))
    # -0.0 and 0.0 are one coordinate
    with pytest.raises(StructuralError):
        QuadratureSpace(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.array([1.0, 1.0]))
    QuadratureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_space_is_immutable(small_space):
    with pytest.raises(ValueError):
        small_space.weights[0] = 3.0


def test_product_grid_ordering():
    space = product_grid((2, 3), spacings=(1.0, 0.5))
    assert space.n_points == 6
    assert np.allclose(space.points[1], [0.0, 0.5])
    assert np.allclose(space.points[3], [1.0, 0.0])
    assert space.weights[0] == 0.5


def test_json_round_trip(small_space, tmp_path):
    doc = space_to_json(small_space)
    text = json.dumps(doc)
    back = space_from_json(json.loads(text))
    assert np.array_equal(back.points, small_space.points)
    assert np.array_equal(back.weights, small_space.weights)
