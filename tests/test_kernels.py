import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import SchurSums, StructuralError, Weight2D, WeightedLp, \
    uniform_grid

from conftest import random_kernel, random_pointwise_weight, unit_weight
from oracles import apply_kernel, apply_measure_naive, apply_naive, \
    apply_to_measure, compose, compose_naive, identity_kernel, involution, \
    schur_norm_naive, weight_matrix_naive
from theory import DiscreteMeasure, check_kernel, schur_norm, \
    streamed_schur_norm


def indicator_kernel(space, rows, cols):
    k = np.zeros((space.n_points, space.n_points), dtype=complex)
    k[np.ix_(rows, cols)] = 1.0
    return k


class TestSchurNorm:
    def test_rank_one_indicator(self):
        space = uniform_grid(4, weights=np.array([1.0, 1.0, 1.5, 1.5]))
        k = indicator_kernel(space, [0, 1], [2, 3])   # mu(U)=2, mu(V)=3
        assert schur_norm(space, k) == pytest.approx(3.0, abs=1e-15)

    def test_quadrature_identity_has_norm_one(self, small_space):
        assert schur_norm(small_space, identity_kernel(small_space)) \
            == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_force(self, rng):
        space = uniform_grid(12, weights=rng.uniform(0.2, 1.5, 12))
        k = random_kernel(rng, 12)
        m = Weight2D(space, random_pointwise_weight(rng, 12))
        got = schur_norm(space, k, m)
        want = schur_norm_naive(space.weights, k, weight_matrix_naive(m.w))
        assert abs(got - want) <= 1e-13 * want

    def test_homogeneity_and_triangle(self, rng, small_space):
        for _ in range(25):
            k1 = random_kernel(rng, 5)
            k2 = random_kernel(rng, 5)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            assert schur_norm(small_space, alpha * k1) == pytest.approx(
                abs(alpha) * schur_norm(small_space, k1), rel=1e-12)
            assert schur_norm(small_space, k1 + k2) <= \
                schur_norm(small_space, k1) + schur_norm(small_space, k2) + 1e-12

    def test_real_kernel_stays_real_and_matches_complex(self, rng):
        space = uniform_grid(12, weights=rng.uniform(0.2, 1.5, 12))
        k = rng.standard_normal((12, 12))
        m = Weight2D(space, random_pointwise_weight(rng, 12))
        assert check_kernel(space, k).dtype == np.float64
        assert check_kernel(space, k.astype(int)).dtype == np.float64
        for weight in (None, m):
            assert schur_norm(space, k, weight) \
                == schur_norm(space, k.astype(complex), weight)


class TestStreamedSchurSums:
    def test_uneven_row_blocks_under_each_weight(self, rng):
        """Uneven row blocks, given as slices and index arrays, one pass
        each under no weight, the unit weight and two non-trivial ones."""
        n = 9
        space = uniform_grid(n, weights=rng.uniform(0.5, 2.0, n))
        k = np.abs(random_kernel(rng, n))
        weights = [None, unit_weight(space),
                   Weight2D(space, random_pointwise_weight(rng, n)),
                   Weight2D(space, random_pointwise_weight(rng, n))]
        blocks = [(slice(0, 2), k[:2]), (np.array([2, 3, 4]), k[2:5]),
                  (slice(5, n), k[5:])]
        for weight in weights:
            m = None if weight is None else weight_matrix_naive(weight.w)
            assert streamed_schur_norm(space, blocks, weight) == pytest.approx(
                schur_norm_naive(space.weights, k, m), rel=1e-13)

    def test_add_returns_the_block_row_sums(self, rng):
        """Under one weight, with a measure beside mu: ``add`` returns the
        row sums against mu, and ``norms`` gives the norm against mu, then
        the one against the measure, both under the same m."""
        n = 7
        space = uniform_grid(n, weights=rng.uniform(0.5, 2.0, n))
        k = np.abs(random_kernel(rng, n))
        weight = Weight2D(space, random_pointwise_weight(rng, n))
        nu = rng.uniform(0.0, 3.0, n)
        m = weight_matrix_naive(weight.w)
        for wt, mm in ((None, None), (weight, m)):
            sums = SchurSums(space, wt, nu)
            got = sums.add(slice(2, 5), k[2:5])
            assert got.shape == (3,)
            for i, x in enumerate(range(2, 5)):
                want = sum(space.weights[y] * k[x, y]
                           * (1.0 if mm is None else mm[x][y])
                           for y in range(n))
                assert got[i] == pytest.approx(want, rel=1e-14)
            sums.add(slice(0, 2), k[:2])
            sums.add(slice(5, n), k[5:])
            norm, against_nu = sums.norms()
            assert norm == pytest.approx(
                schur_norm_naive(space.weights, k, mm), rel=1e-13)
            assert against_nu == pytest.approx(
                schur_norm_naive(nu, k, mm), rel=1e-13)

    def test_upper_strips_of_a_symmetric_kernel(self, rng):
        """Strips |K|[a:b, a:] of a symmetric kernel, of uneven heights, give
        the norm of the whole kernel under the unit weight and under two
        others, one pass each, and each strip's row sums are the full row
        sums of its rows."""
        n = 11
        space = uniform_grid(n, weights=rng.uniform(0.5, 2.0, n))
        k = random_kernel(rng, n)
        k = np.abs(k + k.conj().T)
        for weight in (None, Weight2D(space, random_pointwise_weight(rng, n)),
                       Weight2D(space, random_pointwise_weight(rng, n))):
            m = np.ones((n, n)) if weight is None \
                else weight_matrix_naive(weight.w)
            sums = SchurSums(space, weight)
            for a, b in ((0, 2), (2, 3), (3, 7), (7, n)):
                got = sums.add_upper(a, k[a:b, a:])
                want = (k[a:b] * m[a:b]) @ space.weights
                assert np.allclose(got, want, rtol=1e-14, atol=0.0)
            assert sums.norms()[0] == pytest.approx(
                schur_norm_naive(space.weights, k, m), rel=1e-13)

    def test_weight_on_another_space_rejected(self, small_space):
        other = uniform_grid(3)
        with pytest.raises(StructuralError):
            SchurSums(small_space, unit_weight(other))


class TestSupSpaceWeight:
    """m_v, the associated weight of the trace v = m(., z0) that the sup
    space L^inf_{1/v} uses, is at most m, by submultiplicativity:
    m(x, z0) <= m(x, y) m(y, z0). So every kernel's Schur norm under m_v is
    at most its norm under m, and the two are equal when w(z0) is the least
    or the largest value of w, where v = w/w(z0) or w(z0)/w."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=9),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_norms_under_m_v_are_at_most_under_m(self, exps, seed, data):
        n = len(exps)
        rng = np.random.default_rng(seed)
        space = uniform_grid(n, weights=rng.uniform(0.2, 1.5, n))
        k = random_kernel(rng, n)
        w = np.exp(np.array(exps))
        z0 = data.draw(st.integers(0, n - 1), label="z0")
        extreme = data.draw(st.sampled_from([None, "least", "largest"]),
                            label="extreme")
        if extreme is not None:
            w[z0] = w.min() if extreme == "least" else w.max()
        m = weight_matrix_naive(w)
        v = m[:, z0]
        m_v = weight_matrix_naive(v)
        assert np.all(m_v <= m * (1.0 + 1e-14))
        # z0 is point 0 of the grid ordered from z0 on
        order = np.roll(np.arange(n), -z0)
        weight = Weight2D(space, w[order])
        assert np.array_equal(weight.v, v[order])
        under_m = schur_norm(space, k, Weight2D(space, w))
        under_m_v = schur_norm(space, k, Weight2D(space, v))
        assert under_m_v <= under_m * (1.0 + 1e-13)
        if extreme is not None:
            assert np.allclose(m_v, m, rtol=1e-14, atol=0.0)
            assert under_m_v == pytest.approx(under_m, rel=1e-13)


class TestApply:
    def test_identity_is_exact_for_dyadic_weights(self, rng):
        space = uniform_grid(5, weights=np.array([0.5, 1.0, 0.25, 2.0, 4.0]))
        f = random_kernel(rng, 5)[0]
        out = apply_kernel(space, identity_kernel(space), f)
        assert np.array_equal(out, f)

    def test_identity_near_exact_in_general(self, small_space, rng):
        f = random_kernel(rng, 5)[0]
        out = apply_kernel(small_space, identity_kernel(small_space), f)
        assert np.max(np.abs(out - f)) <= 1e-15 * np.max(np.abs(f))

    def test_zero_kernel(self, small_space):
        out = apply_kernel(small_space, np.zeros((5, 5)), np.ones(5))
        assert np.all(out == 0)

    def test_matches_naive_loop(self, rng):
        space = uniform_grid(10, weights=rng.uniform(0.2, 1.5, 10))
        k = random_kernel(rng, 10)
        f = random_kernel(rng, 10)[0]
        got = apply_kernel(space, k, f)
        want = apply_naive(space.weights, k, f)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_bounded_by_schur_norm(self, rng):
        space = uniform_grid(9, weights=rng.uniform(0.3, 1.2, 9))
        wv = rng.uniform(0.5, 2.0, 9)
        for p in (1.0, 2.0, np.inf):
            Y = WeightedLp(space, p, wv)
            m = Y.weight2d()
            for _ in range(50):
                k = random_kernel(rng, 9)
                f = random_kernel(rng, 9)[0]
                lhs = Y.norm(apply_kernel(space, k, f))
                assert lhs <= schur_norm(space, k, m) * Y.norm(f) * (1 + 1e-12)


class TestMeasures:
    def test_dirac_gives_column(self, small_space, rng):
        k = random_kernel(rng, 5)
        out = apply_to_measure(small_space, k, DiscreteMeasure.dirac(3))
        assert np.array_equal(out, k[:, 3])

    def test_empty_measure(self, small_space, rng):
        k = random_kernel(rng, 5)
        out = apply_to_measure(small_space, k,
                               DiscreteMeasure(np.array([], dtype=int), np.array([])))
        assert np.all(out == 0)

    def test_matches_direct_sum(self, rng):
        space = uniform_grid(8, weights=rng.uniform(0.2, 1.5, 8))
        k = random_kernel(rng, 8)
        idx = rng.integers(0, 8, size=5)
        coef = random_kernel(rng, 8)[0][:5]
        got = apply_to_measure(space, k, DiscreteMeasure(idx, coef))
        want = apply_measure_naive(k, idx, coef)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_off_grid_atom_rejected(self, small_space, rng):
        with pytest.raises(StructuralError):
            apply_to_measure(small_space, random_kernel(rng, 5),
                             DiscreteMeasure(np.array([5]), np.array([1.0 + 0j])))


class TestCompose:
    def test_identity_neutral(self, small_space, rng):
        k = random_kernel(rng, 5)
        out = compose(small_space, identity_kernel(small_space), k)
        assert np.allclose(out, k, rtol=0, atol=1e-14)

    def test_zero_absorbs(self, small_space, rng):
        k = random_kernel(rng, 5)
        assert np.all(compose(small_space, k, np.zeros((5, 5))) == 0)

    def test_matches_naive(self, rng):
        space = uniform_grid(6, weights=rng.uniform(0.2, 1.5, 6))
        k1, k2 = random_kernel(rng, 6), random_kernel(rng, 6)
        got = compose(space, k1, k2)
        want = compose_naive(space.weights, k1, k2)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_submultiplicative(self, rng):
        space = uniform_grid(7, weights=rng.uniform(0.2, 1.5, 7))
        m = Weight2D(space, random_pointwise_weight(rng, 7))
        for _ in range(50):
            k1, k2 = random_kernel(rng, 7), random_kernel(rng, 7)
            lhs = schur_norm(space, compose(space, k1, k2), m)
            rhs = schur_norm(space, k1, m) * schur_norm(space, k2, m)
            assert lhs <= rhs + 1e-12


class TestInvolution:
    def test_involutive(self, rng):
        k = random_kernel(rng, 6)
        assert np.array_equal(involution(involution(k)), k)

    def test_real_symmetric_fixed(self, rng):
        k = rng.standard_normal((6, 6))
        k = k + k.T
        assert np.array_equal(involution(k), k.astype(complex))

    def test_norm_preserved_for_symmetric_weight(self, rng):
        space = uniform_grid(8, weights=rng.uniform(0.2, 1.5, 8))
        m = Weight2D(space, random_pointwise_weight(rng, 8))
        k = random_kernel(rng, 8)
        a = schur_norm(space, k, m)
        b = schur_norm(space, involution(k), m)
        assert abs(a - b) <= 1e-14 * a


class TestWeight2D:
    def test_block_matches_loop_oracle(self, rng):
        space = uniform_grid(9)
        m = Weight2D(space, random_pointwise_weight(rng, 9))
        want = weight_matrix_naive(m.w)
        assert np.array_equal(m.block(slice(None), slice(None)), want)
        rows, cols = np.array([4, 0, 7]), np.array([2, 2, 8, 5])
        assert np.array_equal(m.block(rows, cols), want[np.ix_(rows, cols)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=12),
           st.floats(-150.0, 150.0), st.data())
    def test_one_quotient_is_the_larger_to_the_bit(self, exps, shift, data):
        """m = max(w_x, w_y) / min(w_x, w_y) equals the two-quotient form
        max(w_x/w_y, w_y/w_x) and its own transpose to the bit, over
        weights from 1e-300 to 1e300 whose spread max(w)/min(w) reaches
        1e300 (``Weight2D`` admits any finite spread), in the given buffers
        and on index subsets."""
        w = 10.0 ** (np.array(exps) + shift)
        n = w.size
        m = Weight2D(uniform_grid(n), w)
        two = np.maximum(w[:, None] / w[None, :], w[None, :] / w[:, None])
        full = m.block(slice(None), slice(None))
        assert np.array_equal(full, two) and np.array_equal(full, full.T)
        pick = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
        rows, cols = np.array(data.draw(pick)), np.array(data.draw(pick))
        shape = (rows.size, cols.size)
        out, spare = np.empty(shape), np.empty(shape)
        got = m.block(rows, cols, out=out, spare=spare)
        assert got is out and np.array_equal(got, two[np.ix_(rows, cols)])

    def test_associated_weight_properties(self, rng):
        """Symmetric, one on the diagonal, submultiplicative on every triple."""
        for _ in range(5):
            m = weight_matrix_naive(rng.uniform(0.5, 3.0, 8))
            assert np.all(m >= 1.0)
            assert np.array_equal(m, m.T)
            assert np.all(np.diagonal(m) == 1.0)
            for x in range(8):
                for y in range(8):
                    for z in range(8):
                        assert m[x, y] <= m[x, z] * m[z, y] * (1 + 1e-15)

    def test_v_trace(self, small_space, rng):
        w = rng.uniform(0.5, 3.0, 5)
        m = Weight2D(small_space, w)
        assert np.array_equal(m.v, weight_matrix_naive(w)[:, 0])

    def test_constant_is_trivial(self, rng):
        space = uniform_grid(6, weights=rng.uniform(0.2, 1.5, 6))
        k = random_kernel(rng, 6)
        for m in (unit_weight(space), Weight2D(space, np.full(6, 3.7))):
            assert m.trivial
            assert np.array_equal(m.v, np.ones(6))
            assert schur_norm(space, k, m) == schur_norm(space, k)
        assert not Weight2D(space, random_pointwise_weight(rng, 6)).trivial

    def test_stores_only_the_pointwise_weight(self, small_space, rng):
        m = Weight2D(small_space, rng.uniform(0.5, 3.0, 5))
        assert set(vars(m)) == {"space", "w"}
        assert m.w.shape == (5,) and not m.w.flags.writeable

    @pytest.mark.parametrize("w", [
        np.ones(4),                                     # wrong length
        np.ones((5, 5)),                                # a matrix is not pointwise
        np.array([1.0, 0.0, 1.0, 1.0, 1.0]),            # zero
        np.array([1.0, -2.0, 1.0, 1.0, 1.0]),           # negative
        np.array([1.0, np.nan, 1.0, 1.0, 1.0]),
        np.array([1.0, np.inf, 1.0, 1.0, 1.0]),
    ], ids=["length", "matrix", "zero", "negative", "nan", "inf"])
    def test_rejects_invalid(self, small_space, w):
        with pytest.raises(StructuralError):
            Weight2D(small_space, w)

    def test_rejects_overflowing_ratio_quietly(self, small_space):
        w = np.array([1e-300, 1.0, 1.0, 1.0, 1e10])     # max/min = 1e310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match="max\\(w\\)/min\\(w\\)"):
                Weight2D(small_space, w)


class TestValidationAndIO:
    def test_nan_rejected(self, small_space):
        k = np.ones((5, 5), dtype=complex)
        k[2, 2] = np.nan
        with pytest.raises(StructuralError):
            schur_norm(small_space, k)

    def test_shape_mismatch(self, small_space):
        with pytest.raises(StructuralError):
            schur_norm(small_space, np.ones((4, 4)))
