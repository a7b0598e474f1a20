import numpy as np
import pytest

import framedisc.kernels as kernels_module
from framedisc import FrameModel, QuadratureSpace, SingularOperatorError, \
    StructuralError, uniform_grid
from framedisc.models import build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model, random_vectors

from oracles import apply_kernel, apply_to_measure, compose, dense_kernel, \
    gabor_vectors_naive, identity_kernel, kernel_rows, random_range_block
from theory import DiscreteMeasure, analyze, dual_analyze, from_analysis, \
    from_dual_analysis, integrate, random_range_function, schur_norm, \
    synthesize


@pytest.fixture
def smooth_model():
    return build_random_smooth_model(d=5, n_points=24, smoothness=1.5, seed=11)


class TestGaborModel:
    def test_full_frequency_sampling_is_tight(self):
        model = build_gabor_model(12, 12, 3.0)
        ev = model.s_eigenvalues
        assert ev[-1] / ev[0] <= 1.0 + 1e-8

    def test_scalar_case(self):
        model = build_gabor_model(1, 1, 0.7)
        assert model.frame_operator.shape == (1, 1)
        assert model.frame_operator[0, 0].real > 0

    def test_kernel_norm_finite(self):
        model = build_gabor_model(8, 8, 2.8)
        val = schur_norm(model.space, dense_kernel(model))
        assert np.isfinite(val) and val > 0

    def test_atoms_unit_norm(self):
        model = build_gabor_model(10, 6, 3.0)
        norms = np.linalg.norm(model.vectors, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_degenerate_width_rejected(self):
        with pytest.raises(StructuralError):
            build_gabor_model(8, 8, 0.0)

    @pytest.mark.parametrize("shape", [(6, 255, 2.45), (8, 191, 2.83),
                                       (4, 61, 2.0), (1, 1, 0.7), (5, 3, 1.3)])
    def test_matches_column_loop_exactly(self, shape):
        """The broadcast atoms, their duals and the grid coordinates are the
        floats of the one-column-at-a-time construction."""
        model = build_gabor_model(*shape)
        psi, coords = gabor_vectors_naive(*shape)
        n = coords.shape[0]
        ref = FrameModel(QuadratureSpace(coords, np.full(n, shape[0] / n)), psi)
        assert np.array_equal(model.vectors, psi)
        assert np.array_equal(model.space.points, coords)
        assert np.array_equal(model.duals, ref.duals)


class TestRandomSmoothModel:
    def test_deterministic_for_seed(self):
        a = build_random_smooth_model(4, 20, 2.0, seed=5)
        b = build_random_smooth_model(4, 20, 2.0, seed=5)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.space.weights, b.space.weights)

    def test_spanning_for_many_seeds(self):
        for seed in range(20):
            model = build_random_smooth_model(4, 24, 1.0, seed=seed)
            assert model.s_eigenvalues[0] > 0

    def test_underspanning_rejected(self):
        with pytest.raises(StructuralError):
            build_random_smooth_model(10, 5, 1.0, seed=0)


class TestOrthonormalModel:
    def test_identity_reproducing_kernel(self):
        model = build_orthonormal_model(6)
        assert np.allclose(model.frame_operator, np.eye(6), atol=1e-15)
        assert np.allclose(dense_kernel(model), identity_kernel(model.space),
                           atol=1e-14)


class TestTransforms:
    def test_zero_vector(self, smooth_model):
        assert np.all(analyze(smooth_model, np.zeros(5)) == 0)
        assert np.all(dual_analyze(smooth_model, np.zeros(5)) == 0)

    def test_constant_frame_dim_one(self):
        space = uniform_grid(7, weights=1.0)
        model = FrameModel(space, np.ones((1, 7), dtype=complex))
        out = analyze(model, np.array([3.0 - 1.0j]))
        assert np.allclose(out, 3.0 - 1.0j)

    def test_analysis_matches_loop(self, smooth_model, rng):
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        got_v = analyze(smooth_model, f)
        got_w = dual_analyze(smooth_model, f)
        sinv_f = smooth_model.s_inverse @ f
        for x in range(smooth_model.space.n_points):
            psi = smooth_model.vectors[:, x]
            assert abs(got_v[x] - np.vdot(psi, f)) <= 1e-13
            assert abs(got_w[x] - np.vdot(psi, sinv_f)) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 50])
    def test_random_range_block_is_the_one_vector_stream(self, smooth_model, k):
        """One block draw holds the k successive real/imaginary pairs that
        k one-vector draws take, and leaves the stream where they do; a
        single range function is the block's one column."""
        d = smooth_model.dim
        loop, block, single = (np.random.default_rng(9) for _ in range(3))
        vecs = np.stack([loop.standard_normal(d) + 1j * loop.standard_normal(d)
                         for _ in range(k)], axis=1)
        assert np.array_equal(random_vectors(np.random.default_rng(9), d, k),
                              vecs)
        got = random_range_block(smooth_model, block, k)
        assert np.array_equal(got, smooth_model.vectors.conj().T @ vecs)
        assert np.array_equal(random_range_function(smooth_model, single),
                              analyze(smooth_model, vecs[:, 0]))
        assert loop.random() == block.random()

    def test_integers_draw_as_choice(self):
        """The measure trials draw their atoms with ``integers``, which
        gives what ``choice`` with replacement gives on the same stream."""
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for k in range(1, 200):
            assert np.array_equal(a.choice(311, size=k, replace=True),
                                  b.integers(0, 311, size=k))
        assert a.random() == b.random()

    def test_tight_frame_w_is_scaled_v(self):
        model = build_gabor_model(8, 8, 2.8)
        scale = model.s_eigenvalues.mean()
        f = np.exp(2j * np.pi * np.arange(8) / 8)
        assert np.allclose(dual_analyze(model, f), analyze(model, f) / scale,
                           atol=1e-10)

    def test_dual_analysis_of_atom_is_kernel_column(self, smooth_model):
        y = 9
        out = dual_analyze(smooth_model, smooth_model.vectors[:, y])
        assert np.max(np.abs(out - dense_kernel(smooth_model)[:, y])) <= 1e-12


class TestSynthesis:
    def test_single_atom(self, smooth_model):
        out = synthesize(smooth_model, DiscreteMeasure.dirac(4))
        assert np.array_equal(out, smooth_model.vectors[:, 4])

    def test_zero_coefficients(self, smooth_model):
        nu = DiscreteMeasure(np.array([1, 2]), np.zeros(2, dtype=complex))
        assert np.all(synthesize(smooth_model, nu) == 0)

    def test_two_path_consistency(self, smooth_model, rng):
        """Analysis of a synthesized combination equals the Gram columns
        applied to the same atoms."""
        idx = rng.integers(0, 24, size=6)
        coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        nu = DiscreteMeasure(idx, coef)
        via_synth = analyze(smooth_model, synthesize(smooth_model, nu))
        gram = smooth_model.vectors.conj().T @ smooth_model.vectors
        via_kernel = apply_to_measure(smooth_model.space, gram, nu)
        assert np.max(np.abs(via_synth - via_kernel)) <= 1e-12


class TestKernelIdentities:
    def test_frame_operator_self_adjoint(self, smooth_model):
        s = smooth_model.frame_operator
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12
        si = smooth_model.s_inverse
        assert np.max(np.abs(si - si.conj().T)) <= 1e-12

    def test_kernel_hermitian(self, smooth_model):
        """The rank-d rows A^* V are Hermitian up to rounding."""
        r = kernel_rows(smooth_model, slice(None))
        assert np.max(np.abs(r - r.conj().T)) <= 1e-13

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("build", [
        lambda: build_gabor_model(6, 41, 2.45),
        lambda: build_random_smooth_model(d=4, n_points=30, smoothness=1.2,
                                          seed=5)])
    def test_kernel_rows_match_dense_oracle(self, monkeypatch, build, rows):
        """Rows of R read from the factors in row blocks (``rows`` sets a
        block budget of that many rows) or at scattered indices match the
        dense kernel within c d eps max|R|."""
        model = build()
        n, d = model.space.n_points, model.dim
        if rows is not None:
            monkeypatch.setattr(kernels_module, "BLOCK_BYTES", rows * 16 * n)
        want = dense_kernel(model)
        tol = 8 * d * np.finfo(float).eps * np.max(np.abs(want))
        blocks = [kernel_rows(model, sl) for sl in kernels_module.row_slices(n)]
        assert np.max(np.abs(np.concatenate(blocks) - want)) <= tol
        picked = np.random.default_rng(0).integers(0, n, size=7)
        got = kernel_rows(model, picked)
        assert got.shape == (7, n)
        assert np.max(np.abs(got - want[picked])) <= tol

    def test_model_stores_no_square_array(self):
        model = build_gabor_model(6, 41, 2.45)
        n = model.space.n_points
        assert model.duals.shape == (model.dim, n)
        assert not model.duals.flags.writeable
        assert not any(isinstance(v, np.ndarray) and v.size >= n * n
                       for v in vars(model).values())

    def test_reproducing_identity(self, smooth_model):
        r = dense_kernel(smooth_model)
        rr = compose(smooth_model.space, r, r)
        assert schur_norm(smooth_model.space, rr - r) <= 1e-11

    def test_analysis_lands_in_kernel_range(self, smooth_model, rng):
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for F in (analyze(smooth_model, f), dual_analyze(smooth_model, f)):
            back = apply_kernel(smooth_model.space, dense_kernel(smooth_model), F)
            assert np.max(np.abs(back - F)) <= 1e-11 * max(1, np.max(np.abs(F)))

    def test_pairing_identity(self, smooth_model, rng):
        """Weighted pairing of the two analyses recovers the inner product."""
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = np.vdot(g, f)
        rhs = integrate(smooth_model.space, analyze(smooth_model, f)
                        * np.conj(dual_analyze(smooth_model, g)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_inversion_of_transforms(self, smooth_model, rng):
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(from_analysis(smooth_model, analyze(smooth_model, f)),
                           f, atol=1e-12)
        assert np.allclose(
            from_dual_analysis(smooth_model, dual_analyze(smooth_model, f)),
            f, atol=1e-12)


def test_eigenvalue_floor_refusal():
    space = uniform_grid(3, weights=1.0)
    vectors = np.zeros((2, 3), dtype=complex)
    vectors[0] = 1.0   # rank one: second eigenvalue is zero
    with pytest.raises(SingularOperatorError):
        FrameModel(space, vectors)

