import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framedisc.discretize as discretize_module
import framedisc.kernels as kernels_module
import framedisc.oscillation as oscillation_module
import framedisc.pipeline as pipeline_module
import framedisc.spaces as spaces_module
from framedisc import CertificationError, Covering, FrameModel, \
    PhaseFunction, QuadratureSpace, \
    SamplingInverse, SchurSums, Screened, SingularOperatorError, \
    StructuralError, \
    Weight2D, WeightedLp, atomic_decomposition, \
    dual_frame, hilbert_frame_bounds, kernel_norms, \
    observed_contraction, oscillation_norms, oscillation_report, \
    reconstruct_from_samples, sigma_constant, \
    singleton_covering, synthesize_sampled, uniform_covering
from framedisc.models import build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model, random_vectors
from framedisc.pipeline import reproducing_defect, run_discretization, \
    verification_suite

from framedisc.cli import DEFAULTS
from framedisc.spaces import local_integrability_constant

from conftest import random_interval_covering, random_pointwise_weight, \
    unit_space, unit_weight
from oracles import apply_inverse, apply_kernel, bounds_observed_grid, \
    compose, \
    cross_check_grid, dense_kernel, dense_phi, measure_observed_naive, \
    observed_contraction_naive, oscillation_kernel, osc_naive, \
    phase_table_naive, rank_d_entries, reproducing_defect_streamed, \
    residual_suite_grid, sampled_row_bound_naive, sampled_row_kernel, \
    sampling_operator_naive, schur_norm_naive, weight_matrix_naive
from theory import analyze, apply_sampling, apply_smoothed, \
    decomposition_norm, dual_analyze, integrate, norm_flat, norm_natural, \
    project_to_range, random_range_function, report_for, schur_norm, \
    sets_of

# Cross-method gaps whose Neumann sides are inverted in different blocks (the
# verification suite's stacked block, or the trials alone) may differ in
# rounding: on Gabor 4 x 61 (1 x 2 boxes, exp weight 0.02) a column inverted
# in the suite's block and alone differs by up to 2.4e-16 relative. A gap is
# a relative Y-norm of a difference of inverses, so two gaps agree to about
# that times the norm of U^{-1}, at most 1 / (1 - 0.71) = 3.4 on
# ``make_setup``'s covering (sharp contraction bound 0.71).
GAP_ATOL = 1e-15


def make_setup(d=3, n=96, smoothness=3.0, box_pts=2, delta=0.25, seed=1,
               p=2.0):
    """Random smooth model with a box covering; delta=0.25 certifies it."""
    model = build_random_smooth_model(d, n, smoothness, seed=seed)
    space = model.space
    Y = WeightedLp.lebesgue(space, p)
    weight = Y.weight2d()
    cov = uniform_covering(space, box_pts / n)
    gamma = PhaseFunction(model, "kernel")
    report = oscillation_report(model, cov, gamma, Y, delta)
    return model, Y, weight, cov, gamma, report


def singleton_setup(model, p=2.0):
    space = model.space
    cov = singleton_covering(space)
    Y = WeightedLp.lebesgue(space, p)
    weight = Y.weight2d()
    gamma = PhaseFunction(model, "kernel")
    report = oscillation_report(model, cov, gamma, Y, 0.25)
    return Y, weight, gamma, report, cov


class TestSampleSelection:
    def test_singleton_sets(self, small_space):
        cov = singleton_covering(small_space)
        assert np.array_equal(cov.samples, np.arange(5))

    def test_uniform_weights_tie_break_lowest(self, grid64):
        cov = uniform_covering(grid64, 8.0)
        assert np.array_equal(cov.samples, [s[0] for s in sets_of(cov)])

    def test_max_weight_matches_argmax(self, rng):
        """Distinct and tied weights, on boxes and on overlapping intervals."""
        from framedisc import uniform_grid
        for weights in ("distinct", "tied"):
            w = rng.uniform(0.1, 2.0, 32) if weights == "distinct" \
                else rng.choice([0.5, 1.0, 2.0], 32)
            space = uniform_grid(32, weights=w)
            for cov in (uniform_covering(space, 4.0),
                        random_interval_covering(rng, space, 12)):
                for i, s in enumerate(sets_of(cov)):
                    best = max(s, key=lambda j: (space.weights[j], -j))
                    assert cov.samples[i] == best

    @pytest.mark.parametrize("kind", ["flat"])
    def test_plan_reads_its_partition(self, grid64, kind):
        """The masses c_i are the integrals of the covering's phi_i,
        computed once and read-only."""
        cov = uniform_covering(grid64, 5.0, 2.0)
        assert np.allclose(cov.masses, dense_phi(cov) @ grid64.weights,
                           rtol=1e-14, atol=0)
        assert cov.masses is cov.masses and not cov.masses.flags.writeable


class TestSamplingOperator:
    def test_singleton_plan_degenerates_to_kernel(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=2)
        Y, weight, gamma, report, cov = singleton_setup(model)
        rng = np.random.default_rng(0)
        F = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        out = apply_sampling(model, cov, F)
        ref = apply_kernel(model.space, dense_kernel(model), F)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        G = random_range_function(model, rng)
        assert np.max(np.abs(apply_sampling(model, cov, G) - G)) \
            <= 1e-11 * np.max(np.abs(G))

    def test_zero_input(self):
        model, Y, weight, cov, gamma, report = make_setup(n=48, delta=0.6)
        assert np.all(apply_sampling(model, cov, np.zeros(48)) == 0)

    def test_matches_direct_summation(self, rng):
        model, Y, weight, cov, gamma, report = make_setup(n=48, delta=0.6)
        F = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        got = apply_sampling(model, cov, F)
        want = sampling_operator_naive(dense_kernel(model), cov.samples,
                                       cov.masses, F)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_maps_range_into_range(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        for _ in range(10):
            F = random_range_function(model, rng)
            UF = apply_sampling(model, cov, F)
            proj = project_to_range(model, UF)
            assert np.max(np.abs(proj - UF)) <= 1e-10 * Y.norm(F)

    def test_self_adjoint_under_weighted_pairing(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        space = model.space
        for _ in range(10):
            F = random_range_function(model, rng)
            G = random_range_function(model, rng)
            lhs = integrate(space, apply_sampling(model, cov, F) * np.conj(G))
            rhs = integrate(space, F * np.conj(apply_sampling(model, cov, G)))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-11 * scale


class TestSmoothedOperator:
    def test_trivial_phase_singleton_plan(self, rng):
        model = build_random_smooth_model(3, 24, 2.0, seed=4)
        space = model.space
        cov = singleton_covering(space)
        gamma = PhaseFunction(model, "one")
        F = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        out = apply_smoothed(model, cov, gamma, F)
        ref = apply_kernel(space, dense_kernel(model), F)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_input(self):
        model, Y, weight, cov, gamma, report = make_setup(n=48, delta=0.6)
        assert np.all(apply_smoothed(model, cov, gamma, np.zeros(48)) == 0)

    def test_gap_to_sampling_operator_bounded(self, rng):
        """|S F - U F| <= sigma |osc| |F| on the kernel range."""
        model, Y, weight, cov, gamma, report = make_setup()
        bound = report.sigma * report.osc_norm
        for _ in range(20):
            F = random_range_function(model, rng)
            gap = Y.norm(apply_smoothed(model, cov, gamma, F)
                         - apply_sampling(model, cov, F))
            assert gap <= bound * Y.norm(F) * (1 + 1e-10)

    def test_distance_to_identity_bounded(self, rng):
        """|F - S F| <= |R| |osc| |F| on the kernel range."""
        model, Y, weight, cov, gamma, report = make_setup()
        bound = report.r_norm * report.osc_norm
        for _ in range(20):
            F = random_range_function(model, rng)
            gap = Y.norm(F - apply_smoothed(model, cov, gamma, F))
            assert gap <= bound * Y.norm(F) * (1 + 1e-10)


class TestContraction:
    def test_bounds_arithmetic(self):
        model, Y, weight, cov, gamma, report = make_setup()
        assert report.oscillation_ok
        nominal, sharp = report.contraction_bounds
        assert nominal == pytest.approx(report.delta * (report.r_norm + report.sigma))
        assert sharp == pytest.approx(report.osc_norm * (report.r_norm + report.sigma))
        assert sharp <= nominal

    def test_sharp_bound_over_budget(self):
        """At osc >= delta the report's sigma, the pile-up constant of the
        budget delta, does not bound the pile-up, and the sharp bound takes
        the one of the budget osc: Gabor 6 x 161 (window 2.45, p = 2) with
        boxes of one time step by two frequency steps at delta 0.1 has osc
        0.148."""
        model = build_gabor_model(6, 161, 2.45)
        Y = WeightedLp.lebesgue(model.space, 2.0)
        cov = uniform_covering(model.space, (1.0, 2 * 6 / 161))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.1)
        assert not report.oscillation_ok and report.osc_norm > 0.14
        sigma = sigma_constant(report.osc_norm, report.r_norm, report.c_mu)
        assert sigma == report.r_norm + report.osc_norm > report.sigma
        nominal, sharp = report.contraction_bounds
        assert nominal == report.delta * (report.r_norm + report.sigma)
        assert sharp == report.osc_norm * (report.r_norm + sigma)
        assert sharp == pytest.approx(0.60251216, rel=1e-7)
        inverse = SamplingInverse(report)
        assert observed_contraction(inverse, seed=2) <= sharp

    def test_bounds_check_the_pileup_of_the_sharp_bound(self):
        """The bounds check reports and checks the pile-up constant the
        sharp bound is computed with, sigma' = sigma(max{delta, osc}), also
        at osc >= delta: on Gabor 6 x 161 with 1 x 2 boxes at delta 0.1 it
        reports 2.1152, not the 2.0676 of the budget delta, and the
        observed pile-up stays below it."""
        model = build_gabor_model(6, 161, 2.45)
        Y = WeightedLp.lebesgue(model.space, 2.0)
        cov = uniform_covering(model.space, (1.0, 2 * 6 / 161))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.1)
        assert not report.oscillation_ok
        bounds = verification_suite(SamplingInverse(report))["bounds"]
        sigma = sigma_constant(report.osc_norm, report.r_norm, report.c_mu)
        _, sharp = report.contraction_bounds
        assert bounds["sigma_const"] == sigma
        assert sharp == report.osc_norm * (report.r_norm + sigma)
        assert report.sigma == pytest.approx(2.0676, abs=1e-4)
        assert sigma == pytest.approx(2.1152, abs=1e-4)
        assert 0.0 < bounds["sigma_observed"] <= sigma
        assert bounds["violations"] == 0

    def test_zero_for_singleton_covering(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=5)
        Y, weight, gamma, report, cov = singleton_setup(model)
        _, sharp = report.contraction_bounds
        assert sharp == 0.0

    def test_observed_below_sharp_certificate(self):
        model, Y, weight, cov, gamma, report = make_setup()
        assert report.oscillation_ok and report.invertibility_ok
        _, sharp = report.contraction_bounds
        inverse = SamplingInverse(report)
        observed = observed_contraction(inverse, seed=2)
        assert observed <= sharp + 1e-9

    def test_observed_below_sharp_all_p(self):
        for p in (1.0, np.inf):
            model, Y, weight, cov, gamma, report = make_setup(p=p)
            _, sharp = report.contraction_bounds
            inverse = SamplingInverse(report)
            observed = observed_contraction(inverse, seed=2)
            assert observed <= sharp + 1e-9


class TestInversion:
    def test_singleton_plan_inverse_is_identity(self, rng):
        model = build_random_smooth_model(3, 24, 2.0, seed=6)
        Y, weight, gamma, report, cov = singleton_setup(model)
        inverse = SamplingInverse(report)
        F = random_range_function(model, rng)
        assert Y.norm(apply_inverse(inverse, F) - F) <= 1e-10 * Y.norm(F)

    def test_neumann_matches_direct(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        neu = SamplingInverse(report, method="neumann")
        dir_ = SamplingInverse(report, method="direct")
        for _ in range(20):
            F = random_range_function(model, rng)
            gap = Y.norm(apply_inverse(neu, F) - apply_inverse(dir_, F))
            assert gap <= 1e-9 * Y.norm(F)

    def test_term_norms_decay_geometrically(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report, method="neumann")
        observed = observed_contraction(inverse, seed=0)
        F = random_range_function(model, rng)
        apply_inverse(inverse, F)
        norms = inverse.last_term_norms
        assert len(norms) >= 3
        for a, b in zip(norms, norms[1:]):
            if a > 1e-13:
                assert b / a <= observed + 1e-6

    def test_inverse_really_inverts(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        for _ in range(5):
            F = random_range_function(model, rng)
            back = apply_sampling(model, cov, apply_inverse(inverse, F))
            assert Y.norm(back - F) <= 1e-9 * Y.norm(F)

    def test_refusal_without_certificate(self):
        model, Y, weight, cov, gamma, report = make_setup(
            d=3, n=48, smoothness=2.5, delta=0.5)
        _, sharp = report.contraction_bounds
        assert sharp >= 1.0
        with pytest.raises(CertificationError):
            SamplingInverse(report, method="neumann")

    def test_neumann_term_budget_exhaustion(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report, method="neumann", n_max=1)
        with pytest.raises(SingularOperatorError):
            apply_inverse(inverse, random_range_function(model, rng))

    def test_direct_refuses_rank_deficient_plan(self):
        model = build_orthonormal_model(4)
        cov = Covering(model.space, (np.array([0, 1]), np.array([2, 3])))
        Y = WeightedLp.lebesgue(model.space, 2.0)
        with pytest.raises(SingularOperatorError):
            SamplingInverse(report_for(model, cov, Y), method="direct")


class TestDecomposition:
    def test_zero_vector(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        lam = atomic_decomposition(inverse, np.zeros(3))
        assert np.all(lam == 0)

    def test_frame_vector_roundtrip_singleton_plan(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=7)
        Y, weight, gamma, report, cov = singleton_setup(model)
        inverse = SamplingInverse(report)
        f = model.vectors[:, 5]
        lam = atomic_decomposition(inverse, f)
        rec = synthesize_sampled(model, cov, lam)
        assert np.linalg.norm(rec - f) <= 1e-9

    def test_random_vectors_reconstruct(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            rec = synthesize_sampled(model, cov, lam)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)

    def test_coefficient_norm_controlled(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        _, sharp = report.contraction_bounds
        d_const = schur_norm(model.space, sampled_row_kernel(model, cov), weight)
        bound = d_const / (1.0 - sharp)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            assert norm_natural(lam, cov, Y) \
                <= bound * Y.norm(dual_analyze(model, f)) * (1 + 1e-9)


class TestSampleReconstruction:
    def test_round_trip(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            samples = analyze(model, f)[cov.samples]
            rec = reconstruct_from_samples(inverse, samples)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)

    def test_frame_vector_from_its_samples(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        f = model.vectors[:, cov.samples[3]]
        samples = analyze(model, f)[cov.samples]
        rec = reconstruct_from_samples(inverse, samples)
        assert np.linalg.norm(rec - f) <= 1e-8

    def test_zero_samples(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        rec = reconstruct_from_samples(inverse, np.zeros(cov.n_sets))
        assert np.linalg.norm(rec) <= 1e-12

    def test_decompose_then_resample_consistent(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        samples = analyze(model, f)[cov.samples]
        rec = reconstruct_from_samples(inverse, samples)
        resampled = analyze(model, rec)[cov.samples]
        assert np.max(np.abs(resampled - samples)) \
            <= 1e-8 * max(1.0, np.max(np.abs(samples)))


class TestDualFrame:
    def test_orthonormal_singleton_plan(self):
        model = build_orthonormal_model(4)
        Y, weight, gamma, report, cov = singleton_setup(model)
        inverse = SamplingInverse(report)
        duals = dual_frame(inverse)
        assert np.allclose(duals, np.eye(4), atol=1e-10)
        f = np.array([1.0, 2.0, 3.0 - 1.0j, 0.5])
        rec = (analyze(model, f)[cov.samples]) @ duals
        assert np.linalg.norm(rec - f) <= 1e-10

    def test_dim_one(self):
        model = build_random_smooth_model(1, 8, 1.0, seed=8)
        Y, weight, gamma, report, cov = singleton_setup(model)
        inverse = SamplingInverse(report)
        duals = dual_frame(inverse)
        f = np.array([2.0 - 1.0j])
        rec = sum(np.vdot(duals[i], f) * model.vectors[:, cov.samples[i]]
                  for i in range(cov.n_sets))
        assert np.linalg.norm(rec - f) <= 1e-10

    def test_duality_of_coefficients(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        duals = dual_frame(inverse)
        for _ in range(20):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f /= np.linalg.norm(f)
            lam = atomic_decomposition(inverse, f)
            inner = duals.conj() @ f
            assert np.max(np.abs(lam - inner)) <= 1e-10


class TestSwappedRoles:
    def test_full_residual_suite(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        # the swapped role draws its trials from seed + 1 = 9
        res = verification_suite(inverse, n_trials=20,
                                 seed=8)["residuals_swapped"]
        assert res["atomic_max"] <= 1e-8
        assert res["banach_max"] <= 1e-8
        assert res["duality_max"] <= 1e-10
        assert res["dual_expansion_max"] <= 1e-8
        assert res["sample_expansion_max"] <= 1e-8

    def test_swapped_atoms_are_duals(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = atomic_decomposition(inverse, f, swap_roles=True)
        rec = synthesize_sampled(model, cov, lam, swap_roles=True)
        manual = sum(lam[i] * (model.s_inverse @ model.vectors[:, cov.samples[i]])
                     for i in range(cov.n_sets))
        assert np.linalg.norm(rec - manual) <= 1e-12
        assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


class TestFrameBounds:
    def test_singleton_plan_recovers_frame_operator(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=10)
        Y, weight, gamma, report, cov = singleton_setup(model)
        c1, c2 = hilbert_frame_bounds(model, cov)
        ev = model.s_eigenvalues
        assert c1 == pytest.approx(ev[0], abs=1e-10)
        assert c2 == pytest.approx(ev[-1], abs=1e-10)

    def test_orthonormal_unit_bounds(self):
        model = build_orthonormal_model(5)
        Y, weight, gamma, report, cov = singleton_setup(model)
        c1, c2 = hilbert_frame_bounds(model, cov)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_certified_plan_positive_lower_bound(self):
        model, Y, weight, cov, gamma, report = make_setup()
        assert report.invertibility_ok
        c1, c2 = hilbert_frame_bounds(model, cov)
        assert c1 > 0
        xs = cov.samples
        psi = model.vectors[:, xs] * np.sqrt(cov.measures)[None, :]
        ev = np.linalg.eigvalsh(psi @ psi.conj().T)
        assert c1 == pytest.approx(ev[0], rel=1e-10)
        assert c2 == pytest.approx(ev[-1], rel=1e-10)


class TestWeakerThresholds:
    def test_gap_instance_still_reconstructs(self, rng):
        """Invertibility condition fails but the sharp certificate holds:
        the whole decomposition pipeline still goes through."""
        model, Y, weight, cov, gamma, report = make_setup(delta=0.30)
        assert report.oscillation_ok
        assert not report.invertibility_ok
        _, sharp = report.contraction_bounds
        assert sharp < 1.0
        inverse = SamplingInverse(report)
        for _ in range(5):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            assert np.linalg.norm(synthesize_sampled(model, cov, lam) - f) \
                <= 1e-8 * np.linalg.norm(f)
            samples = analyze(model, f)[cov.samples]
            rec = reconstruct_from_samples(inverse, samples)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


class TestVerifiedBounds:
    def test_no_violations_on_certified_setup(self):
        model, Y, weight, cov, gamma, report = make_setup()
        rep = verification_suite(SamplingInverse(report),
                                 n_trials=50, seed=3)["bounds"]
        assert rep["violations"] == 0
        assert rep["D_observed"] <= rep["D_const"] + 1e-10
        assert rep["sigma_observed"] <= rep["sigma_const"] + 1e-10
        assert rep["measure_observed"] <= rep["measure_const"] + 1e-10
        assert rep["range_sup_observed"] <= rep["range_sup_const"] + 1e-10

    def test_norm_equivalence_interval(self, rng):
        """Observed sampled-norm ratios sit inside the certified interval."""
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        _, sharp = report.contraction_bounds
        d_const = schur_norm(model.space, sampled_row_kernel(model, cov), weight)
        n_over = cov.overlap_bound
        c_mu = report.c_mu
        c_plus = n_over ** 2 * c_mu ** 2 * max(1.0, cov.moderateness)
        c_measure = (report.osc_norm + report.r_norm) * c_plus
        lower = (1.0 - sharp) / c_measure
        for _ in range(20):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            F = analyze(model, f)
            ratio = norm_flat(F[cov.samples], cov, Y) / Y.norm(F)
            assert lower * (1 - 1e-9) <= ratio <= d_const * (1 + 1e-9)

    def test_sampled_measure_application_bound(self, rng):
        """Kernel applied to point masses at the sample points is controlled
        by the covering-neighborhood constant times the natural norm."""
        model, Y, weight, cov, gamma, report = make_setup()
        c_plus = cov.overlap_bound ** 2 * report.c_mu ** 2 \
            * max(1.0, cov.moderateness)
        bound = (report.osc_norm + report.r_norm) * c_plus
        for _ in range(20):
            lam = rng.standard_normal(cov.n_sets) \
                + 1j * rng.standard_normal(cov.n_sets)
            spread = dense_kernel(model)[:, cov.samples] @ lam
            assert Y.norm(spread) <= bound * norm_natural(lam, cov, Y) * (1 + 1e-10)

    def test_natural_equivalence_interval_stable(self):
        """Dual-coefficient natural norms stay inside the certified interval,
        independently of the probe seed."""
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        _, sharp = report.contraction_bounds
        d_const = schur_norm(model.space, sampled_row_kernel(model, cov), weight)
        upper = d_const / (1.0 - sharp)
        c_plus = cov.overlap_bound ** 2 * report.c_mu ** 2 \
            * max(1.0, cov.moderateness)
        lower = 1.0 / ((report.osc_norm + report.r_norm) * c_plus)
        for seed in (21, 22):
            res = verification_suite(inverse, n_trials=25,
                                     seed=seed)["residuals"]
            assert lower * (1 - 1e-9) <= res["natural_ratio_lo"]
            assert res["natural_ratio_hi"] <= upper * (1 + 1e-9)

    def test_cross_check_inversion_helper(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        gap = verification_suite(inverse, seed=4)["cross_method_gap"]
        assert gap is not None and gap <= 1e-9


class TestReportIsTheCertificate:
    """A report is the certificate of one frame on one covering: a handle
    takes its model and covering from the report, so a report cannot be
    paired with another covering or lent to another frame."""

    @pytest.fixture(scope="class")
    def gabor_6x161(self):
        """Gabor 6 x 161 (window 2.45, p = 2, unit weight) with boxes of one
        time step by two frequency steps, whose report certifies (sharp
        bound 0.61), and a frame of six random unit vectors on the same
        grid and boxes, whose own report does not (sharp bound 24.4)."""
        model = build_gabor_model(6, 161, 2.45)
        space = model.space
        Y = WeightedLp.lebesgue(space, 2.0)
        cov = uniform_covering(space, (1.0, 2 * 6 / 161))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.2)
        vectors = random_vectors(np.random.default_rng(1), 6, space.n_points)
        other = FrameModel(space, vectors / np.linalg.norm(vectors, axis=0))
        own = oscillation_report(other, cov, PhaseFunction(other, "kernel"),
                                 Y, 0.2)
        assert report.contraction_bounds[1] < 0.62
        assert own.contraction_bounds[1] > 20.0
        return Y, report, own

    @pytest.mark.parametrize("method", ["neumann", "direct"])
    def test_inverse_takes_model_and_covering_from_report(self, gabor_6x161,
                                                          method):
        Y, report, _ = gabor_6x161
        inverse = SamplingInverse(report, method=method)
        assert inverse.report is report
        assert inverse.model is report.model
        assert inverse.covering is report.covering

    def test_another_frame_inverts_only_under_its_own_report(self,
                                                             gabor_6x161):
        """The random frame's handle carries its own report, which refuses
        Neumann inversion; the Gabor report makes a handle of the Gabor
        frame only."""
        Y, report, own = gabor_6x161
        with pytest.raises(CertificationError, match="sharp contraction"):
            SamplingInverse(own)
        direct = SamplingInverse(own, method="direct")
        assert direct.model is own.model is not report.model
        assert SamplingInverse(report).model is report.model


class TestReportWeight:
    """A report is made in Y, under Y's own weight. On Gabor 4 x 61 with
    boxes of one time step by two frequency steps, delta 0.25 and
    Y = L^p_w with w = exp(2 |x|), the report in Y refuses Neumann
    inversion (sharp bound 1.9e6), while the report in the unweighted L^2
    certifies (sharp bound 0.714) that space, not Y: a run in Y takes Y's
    weight."""

    @pytest.fixture(scope="class")
    def gabor_4x61(self):
        model = build_gabor_model(4, 61, 2.0)
        space = model.space
        cov = uniform_covering(space, (1.0, 2 * 4 / 61))
        gamma = PhaseFunction(model, "kernel")
        w = np.exp(2.0 * np.linalg.norm(space.points, axis=1))
        own = oscillation_report(model, cov, gamma, WeightedLp(space, 2.0, w),
                                 0.25)
        unit = oscillation_report(model, cov, gamma, unit_space(space), 0.25)
        assert own.contraction_bounds[1] > 1e6
        assert unit.certified and unit.contraction_bounds[1] < 0.72
        return model, cov, w

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_run_takes_the_weight_of_y(self, gabor_4x61, p):
        model, cov, w = gabor_4x61
        with pytest.raises(CertificationError, match="sharp contraction"):
            run_discretization(model, WeightedLp(model.space, p, w), 0.25,
                               covering=cov, n_trials=5)


class TestStreamedBounds:
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("covering", ["intervals", "boxes"])
    def test_constants_match_dense_oracles(self, covering, weight_rule):
        """The sampled-row constant matches the loop oracle of its bound
        (``sampled_row_bound_naive``) and dominates the naive Schur norm of
        the dense sampled-row kernel, which it equals under the unit
        weight. The range-sup constant is (|osc| + |R|) C under m, the
        report's norms: under the random weight, whose point 0 is interior,
        it dominates the same constant under m_v, the naive Schur norms of
        the dense oscillation and reproducing kernels, and the check counts
        no violation."""
        model = build_random_smooth_model(3, 24, 3.0, seed=1)
        space = model.space
        n = space.n_points
        rng = np.random.default_rng(5)
        cov = random_interval_covering(rng, space, 5) if covering == "intervals" \
            else uniform_covering(space, 3.0 / n)
        w = np.ones(n) if weight_rule == "unit" else random_pointwise_weight(rng, n)
        Y = WeightedLp(space, 2.0, w)
        weight = Weight2D(space, w)
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.25)
        bounds = verification_suite(
            SamplingInverse(report, method="direct"),
            n_trials=5)["bounds"]
        mu = space.weights
        m = weight_matrix_naive(weight.w)
        m_v = weight_matrix_naive(weight.v)
        exact = schur_norm_naive(mu, sampled_row_kernel(model, cov), m)
        assert bounds["D_const"] == pytest.approx(
            sampled_row_bound_naive(model, cov, weight.w), rel=1e-13)
        assert exact <= bounds["D_const"] * (1.0 + 1e-13)
        if weight_rule == "unit":
            assert bounds["D_const"] == pytest.approx(exact,
                                                                 rel=1e-13)
        osc = osc_naive(dense_kernel(model), [s.tolist() for s in sets_of(cov)],
                        phase_table_naive(rank_d_entries(model), "kernel"))
        local = local_integrability_constant(cov, Y)
        assert bounds["range_sup_const"] \
            == (report.osc_norm + report.r_norm) * local
        under_m_v = (schur_norm_naive(mu, osc, m_v)
                     + schur_norm_naive(mu, dense_kernel(model), m_v)) * local
        assert under_m_v <= bounds["range_sup_const"] * (1.0 + 1e-13)
        if weight_rule == "unit":
            assert bounds["range_sup_const"] == pytest.approx(under_m_v,
                                                              rel=1e-13)
        else:
            assert w.min() < w[0] < w.max() and not np.allclose(m_v, m)
        assert bounds["violations"] == 0

    @pytest.mark.parametrize("covering", ["intervals", "uniform", "singletons",
                                          "uncovered", "shared"])
    def test_unit_weight_constant_from_sample_rows(self, covering, monkeypatch):
        """Under the unit weight the sampled-row constant, read off an R pass
        (the |R| row sums at the samples and |R| c) in eight strips of three
        rows, matches the naive Schur norm of the dense sampled-row kernel,
        both from a bare R pass and as the ``d_const`` of an oscillation
        report. A covering may leave points in no set. Where
        two sets share a sample point (point 6 weighs most in both),
        c = sum_i mu(U_i) delta_{x_i} adds both measures."""
        model = build_random_smooth_model(3, 24, 3.0, seed=2)
        space = model.space
        n = space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 3 * 16 * n)
        assert len(kernels_module.row_slices(n)) >= 3
        rng = np.random.default_rng(7)
        if covering == "uncovered":
            cov = Covering(space, (np.arange(2, 9), np.arange(6, 15),
                                   np.arange(20, 23)))
        elif covering == "shared":
            w = space.weights.copy()
            w[[6, 20]] *= 2.0
            space = QuadratureSpace(space.points, w)
            model = FrameModel(space, model.vectors)
            cov = Covering(space, (np.arange(0, 8), np.arange(5, 14),
                                   np.arange(14, n)))
            assert cov.samples.tolist() == [6, 6, 20]
        else:
            cov = {"intervals": lambda: random_interval_covering(rng, space, 5),
                   "uniform": lambda: uniform_covering(space, 3.0 / n),
                   "singletons": lambda: singleton_covering(space)}[covering]()
        Y = unit_space(space)
        gamma = PhaseFunction(model, "kernel")
        want = schur_norm_naive(space.weights, sampled_row_kernel(model, cov))
        assert kernel_norms(model, cov, Y.weight2d())[1] \
            == pytest.approx(want, rel=1e-13)
        report = oscillation_report(model, cov, gamma, Y, 0.25)
        assert report.d_const == pytest.approx(want, rel=1e-13)

    def test_weighted_report_carries_its_constant(self):
        """Under a non-trivial weight a report carries the bound on the
        sampled-row constant of the covering's samples under Y's weight,
        as the loop oracle gives it, and the bounds check reads it off the
        report."""
        model, _, _, cov, gamma, _ = make_setup()
        Y = WeightedLp(model.space, 2.0, np.exp(0.5 * model.space.points[:, 0]))
        report = oscillation_report(model, cov, gamma, Y, 0.25)
        assert report.d_const == pytest.approx(
            sampled_row_bound_naive(model, cov, Y.w), rel=1e-13)
        inverse = SamplingInverse(report, method="direct")
        assert verification_suite(inverse, n_trials=3)["bounds"]["D_const"] \
            == report.d_const

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(8, 40))
    @settings(max_examples=40, deadline=None)
    def test_bound_brackets_the_sampled_row_constant(self, seed, d, n):
        """On a random smooth model with lognormal quadrature weights and
        random overlapping intervals (points outside them stay uncovered),
        whose samples are their points of largest weight (overlapping sets
        may share one), and a lognormal weight, the streamed bound on D
        equals its loop oracle to 1e-13 and lies between the exact D and
        (max_i M_i)^2 D."""
        rng = np.random.default_rng(seed)
        base = build_random_smooth_model(d, n, 2.0, seed=seed % 1000)
        space = QuadratureSpace(base.space.points,
                                np.exp(rng.normal(0.0, 1.0, n)) / n)
        model = FrameModel(space, base.vectors)
        sets = []
        for _ in range(int(rng.integers(1, 6))):
            a = int(rng.integers(0, n - 1))
            sets.append(np.arange(a, int(rng.integers(a + 1, n + 1))))
        cov = Covering(space, tuple(sets))
        samples = cov.samples.tolist()
        w = np.exp(rng.normal(0.0, 0.5, n))
        weight = Weight2D(space, w)
        m = weight_matrix_naive(w)
        spread = max(m[x][xi] for s, xi in zip(sets, samples) for x in s)
        exact = schur_norm_naive(space.weights,
                                 sampled_row_kernel(model, cov), m)
        got = kernel_norms(model, cov, weight)[1]
        assert got == pytest.approx(sampled_row_bound_naive(model, cov, w),
                                    rel=1e-13)
        assert exact <= got * (1.0 + 1e-13)
        assert got <= spread ** 2 * exact * (1.0 + 1e-13)

    def test_weighted_run_makes_two_passes(self, monkeypatch):
        """A weighted fixed-covering run makes two passes over the grid and
        no other Schur sums: the oscillation pass, which closes every
        column once in order, and the R pass, the upper-strip sequence
        once, which also gives the sampled-row constant."""
        model, _, _, cov, _, _ = make_setup()
        n = model.space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 8 * 16 * n)
        Y = WeightedLp(model.space, 2.0, np.exp(0.5 * model.space.points[:, 0]))
        made, closed = [], []
        init, feed = SchurSums.__init__, SchurSums._feed

        def counted_init(self, *args):
            made.append(self)
            init(self, *args)

        def counted_feed(self, rows, cols, block, upper=False):
            out = feed(self, rows, cols, block, upper)
            if out is not None:
                closed.append((made.index(self), upper, rows.start,
                               rows.stop))
            return out

        monkeypatch.setattr(SchurSums, "__init__", counted_init)
        monkeypatch.setattr(SchurSums, "_feed", counted_feed)
        result = run_discretization(model, Y, 0.25,
                                    covering=cov, n_trials=5)
        assert result.bounds["violations"] == 0
        assert len(made) == 2
        osc = [(upper, start, stop) for k, upper, start, stop in closed
               if k == 0]
        starts = [start for _, start, _ in osc]
        stops = [stop for _, _, stop in osc]
        assert len(osc) >= 3 and not any(upper for upper, _, _ in osc)
        assert starts == [0] + stops[:-1] and stops[-1] == n
        entry = oscillation_module.STRIP_ENTRY_BYTES \
            + kernels_module.WEIGHT_ENTRY_BYTES
        assert [(upper, start, stop) for k, upper, start, stop in closed
                if k == 1] == [(True, rows.start, rows.stop)
                               for rows in kernels_module.upper_strips(n, entry)]

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    def test_unit_weight_streams_no_block(self, weight_rule, monkeypatch):
        """A fixed-covering run makes one pass over the strips of |R|, in
        the oscillation report, under the unit and an exp weight alike: the
        bounds check reads the sampled-row constant off the report, and it
        matches the loop oracle of its bound."""
        model, Y, weight, cov, _, _ = make_setup()
        n = model.space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 8 * 16 * n)
        if weight_rule == "exp":
            Y = WeightedLp(model.space, 2.0,
                           np.exp(0.5 * model.space.points[:, 0]))
            weight = Y.weight2d()
        strips = []
        add_upper = SchurSums.add_upper

        def counted_strips(self, start, block, cols=None):
            strips.append(start)
            return add_upper(self, start, block, cols)

        monkeypatch.setattr(SchurSums, "add_upper", counted_strips)
        result = run_discretization(model, Y, 0.25, covering=cov,
                                    n_trials=5)
        assert result.bounds["violations"] == 0
        entry = oscillation_module.STRIP_ENTRY_BYTES \
            + (0 if weight.trivial else kernels_module.WEIGHT_ENTRY_BYTES)
        assert strips == [rows.start
                          for rows in kernels_module.upper_strips(n, entry)]
        assert len(strips) >= 3
        assert result.bounds["D_const"] \
            == result.inverse.report.d_const
        assert result.bounds["D_const"] == pytest.approx(
            sampled_row_bound_naive(model, cov, weight.w), rel=1e-13)

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    def test_refined_run_makes_one_r_pass(self, weight_rule, monkeypatch):
        """A refined run makes one R pass, on the covering it ends at, as a
        run on that covering given makes: on Gabor 6 x 161 at delta 0.2,
        under the unit and the exp 0.02 weight, the refinement's report
        carries the sampled-row bound, and both runs report the same."""
        model = build_gabor_model(6, 161, 2.45)
        space = model.space
        w = np.ones(space.n_points) if weight_rule == "unit" \
            else np.exp(0.02 * np.linalg.norm(space.points, axis=1))
        Y = WeightedLp(space, 2.0, w)
        passes = []
        original = oscillation_module.kernel_norms

        def counted(model, cov, weight):
            passes.append(cov)
            return original(model, cov, weight)

        for module in (oscillation_module, pipeline_module):
            monkeypatch.setattr(module, "kernel_norms", counted, raising=False)
        refined = run_discretization(model, Y, 0.2, n_trials=5)
        cov = refined.inverse.covering
        assert passes == [cov]
        given = run_discretization(model, Y, 0.2, covering=cov, n_trials=5)
        assert passes == [cov, cov]
        assert refined.to_json_dict() == given.to_json_dict()

    def test_no_square_array_besides_the_kernel(self, monkeypatch):
        """With an eight-row block budget, the oscillation report, the
        verification harness and the reproducing defect each allocate less
        than one n x n float array; the model itself holds no kernel. So
        does a unit-weight report, whose |R| c adds O(n)."""
        model = build_gabor_model(6, 81, 2.45)
        space = model.space
        n = space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 8 * 16 * n)
        cov = Covering(space, tuple(np.arange(t, t + 2) for t in range(0, n, 2)))
        Y = WeightedLp(space, 2.0, np.exp(0.02 * np.linalg.norm(space.points,
                                                                axis=1)))
        weight = Y.weight2d()
        gamma = PhaseFunction(model, "kernel")
        report = oscillation_report(model, cov, gamma, Y, 0.2)
        inverse = SamplingInverse(report, method="direct")
        for run in (lambda: oscillation_report(model, cov, gamma, Y, 0.2),
                    lambda: oscillation_report(model, cov, gamma,
                                               unit_space(space), 0.2),
                    lambda: verification_suite(inverse, n_trials=5),
                    lambda: reproducing_defect(model, weight)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n

    def test_discretization_peaks_below_one_dense_kernel(self):
        """A whole certified run on Gabor 8 x 191 (1,528 points) allocates
        less than one complex n x n kernel would take."""
        n_time, n_freq = 8, 191
        model = build_gabor_model(n_time, n_freq, 2.83)
        n = model.space.n_points
        cov = Covering(model.space, tuple(
            np.arange(t * n_freq + m, t * n_freq + min(m + 2, n_freq))
            for t in range(n_time) for m in range(0, n_freq, 2)))
        Y = WeightedLp.lebesgue(model.space, 2.0)
        tracemalloc.start()
        try:
            result = run_discretization(model, Y, 0.21,
                                        covering=cov, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.inverse.report.oscillation_ok
        assert result.inverse.report.invertibility_ok
        assert peak < 16 * n * n


def _working_set_pass(name, model, cov, Y, report, coords):
    """Run one streamed kernel pass on the ``TestWorkingSetBudget`` setup."""
    space = model.space
    gamma = PhaseFunction(model, "kernel")
    unit = unit_weight(space)
    if name == "osc":
        return oscillation_norms(model, cov, gamma, report.weight)
    if name == "screen":
        one_box = Covering(space, (np.arange(space.n_points),))
        scan = oscillation_norms(model, one_box, gamma, unit, level=0.0)
        assert isinstance(scan, Screened) and scan.column == 0
        return scan
    if name == "R":
        return kernel_norms(model, cov, report.weight)
    return discretize_module._analysis_norms(
        model.vectors.conj().T, [WeightedLp(space, 1.0, Y.w)], coords)


def _suite_family(name, inverse, n_trials=50, seed=0):
    """Run one trial family of ``verification_suite`` on its own, as the
    suite draws it: a residual role (the swapped one from ``seed + 1``)
    or the bounds check's range functions and measures."""
    model, cov = inverse.model, inverse.covering
    rng = np.random.default_rng(seed)
    if name == "bounds":
        g = random_vectors(rng, model.dim, n_trials)
        observed = pipeline_module._range_bounds(inverse, g)
        measures, masses = pipeline_module._measure_trials(inverse, rng,
                                                           n_trials)
        applied = inverse.range_norms(model.s_inverse @ measures)
        return observed, applied, spaces_module.pileup_norms(
            inverse.cell_space, masses, cov, natural=True)
    swap = name == "residuals swapped"
    draw = random_vectors(np.random.default_rng(seed + swap), model.dim,
                          n_trials)
    f = draw / np.linalg.norm(draw, axis=0)
    dual_f = model.s_inverse @ f
    samples = model.vectors[:, cov.samples].conj().T @ (dual_f if swap else f)
    nf, ndf = np.split(inverse.range_norms(np.hstack([f, dual_f])), 2)
    return pipeline_module._residuals(
        inverse, swap, f, dual_f, dual_frame(inverse, swap_roles=swap),
        atomic_decomposition(inverse, f, swap_roles=swap),
        reconstruct_from_samples(inverse, samples, swap_roles=swap), nf, ndf)


class TestWorkingSetBudget:
    """Every streamed kernel pass holds its kernel-derived temporaries
    within one budget, ``kernels.BLOCK_BYTES``. On Gabor 6 x 255 (1,530
    points, d = 6) with 1 x 3 boxes and the budget set to k rows of n
    complex values, the tracemalloc peak of each pass stays within
    c = 1 times the budget plus six complex (n, d) arrays, for the factors'
    gathered copies and the pair bookkeeping. The passes: the oscillation
    norms under an exp weight, the screen's first column on a one-box
    covering (every Q_y the whole grid, as in refinement round 0), the R
    pass with the covering's samples under the exp weight, and the Y-norms
    of an
    (n, n_sets) analysis block, whose budget of 32 rows is below what a
    separate 1 MiB norm budget would hold. The verification harness keeps
    to the same budget, and a budget below one row cuts the rows of the
    osc and R passes into column blocks."""

    @pytest.fixture(scope="class")
    def gabor_6x255(self):
        model = build_gabor_model(6, 255, 2.45)
        space = model.space
        cov = Covering(space, tuple(
            np.arange(t * 255 + m, t * 255 + min(m + 3, 255))
            for t in range(6) for m in range(0, 255, 3)))
        Y = WeightedLp(space, 2.0,
                       np.exp(0.02 * np.linalg.norm(space.points, axis=1)))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.2)
        coords = np.random.default_rng(0).standard_normal(
            (model.dim, cov.n_sets)) + 0j
        return model, cov, Y, report, coords

    @pytest.mark.parametrize("name,rows", [("osc", 128), ("screen", 128),
                                           ("R", 128), ("analysis", 32)])
    def test_pass_peak_within_budget(self, gabor_6x255, monkeypatch, name,
                                     rows):
        model = gabor_6x255[0]
        n, d = model.space.n_points, model.dim
        budget = rows * 16 * n
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _working_set_pass(name, *gabor_6x255)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * budget + 6 * 16 * n * d

    @pytest.mark.parametrize("name", ["residuals", "residuals swapped",
                                      "bounds", "suite", "suite p=1",
                                      "contraction p=1", "contraction p=inf"])
    def test_harness_peak_within_budget(self, gabor_6x255, monkeypatch, name):
        """The verification harness forms no trial on the whole grid. With
        the budget at 32 rows of n complex values, the tracemalloc peak of
        each check stays within the budget plus six complex (n, d) arrays
        and two complex (n_sets, n_trials) blocks. The checks: each of the
        suite's residual roles and its bounds check run on its own
        (``_suite_family``, 50 trials each) and the whole verification
        suite (both roles, the bounds check and the cross-check, 50, 50,
        50 and 20 trials) on a Neumann handle in Y, the whole suite on a
        direct one in L^1 under Y's weight, whose Y-norms are summed over
        row blocks of the range functions, and the p != 2 observed
        contraction on a direct one. (The grid-side harness peaked at
        about ten such blocks above the budget here.)"""
        model, cov, Y, report, _ = gabor_6x255
        n, d = model.space.n_points, model.dim
        budget = 32 * 16 * n
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", budget)
        inverse = SamplingInverse(report)
        if name == "suite p=1" or name.startswith("contraction"):
            # the norms are Y's weight's alone: the report in L^p_w is the
            # same certificate in another space
            p = np.inf if name.endswith("inf") else 1.0
            inverse = SamplingInverse(
                replace(report, Y=WeightedLp(model.space, p, Y.w)),
                method="direct")
        run = (lambda: verification_suite(inverse)) \
            if name.startswith("suite") \
            else (lambda: observed_contraction(inverse)) \
            if name.startswith("contraction") \
            else (lambda: _suite_family(name, inverse))
        run()           # the handle's cached cell space is not the check's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run() is not None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= budget + 6 * 16 * n * d + 2 * 16 * cov.n_sets * 50

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    def test_budget_below_one_row_cuts_columns(self, monkeypatch,
                                               weight_rule):
        """A budget of half a row of n complex values cuts every row of the
        osc and R passes into column blocks, whose row sums add up: on
        Gabor 6 x 41 with 1 x 2 boxes the norms of osc and R under the
        weight (least at point 5) match the dense kernels' naive Schur
        norms to 1e-13, the bound on the samples' sampled-row constant under
        the weight matches its loop oracle, and a screened scan stops at
        the column a whole-row scan stops at, with the same bound."""
        model = build_gabor_model(6, 41, 2.45)
        space = model.space
        n = space.n_points
        cov = Covering(space, tuple(np.arange(t * 41 + m, t * 41 + min(m + 2, 41))
                                    for t in range(6) for m in range(0, 41, 2)))
        w = np.ones(n) if weight_rule == "unit" else np.exp(
            0.3 * np.linalg.norm(space.points - space.points[5], axis=1))
        weight = Weight2D(space, w)
        gamma = PhaseFunction(model, "kernel")
        osc_sum = oscillation_norms(model, cov, gamma, weight)
        whole = oscillation_norms(model, cov, gamma, weight,
                                  level=0.5 * osc_sum)
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 8 * n)
        pieces = []
        feed = SchurSums._feed

        def recorded(self, rows, cols, block, upper=False):
            pieces.append(cols.stop - cols.start)
            return feed(self, rows, cols, block, upper)

        monkeypatch.setattr(SchurSums, "_feed", recorded)
        got_osc = oscillation_norms(model, cov, gamma, weight)
        got_r, got_d = kernel_norms(model, cov, weight)
        cut = oscillation_norms(model, cov, gamma, weight, level=0.5 * osc_sum)
        assert max(pieces) < n
        mu = space.weights
        osc = oscillation_kernel(model, cov, gamma)
        m = weight_matrix_naive(w)
        assert got_osc == pytest.approx(schur_norm_naive(mu, osc, m),
                                        rel=1e-13)
        assert got_r == pytest.approx(
            schur_norm_naive(mu, dense_kernel(model), m), rel=1e-13)
        assert got_d == pytest.approx(
            sampled_row_bound_naive(model, cov, w), rel=1e-13)
        assert isinstance(cut, Screened) and cut.column == whole.column
        assert cut.lower_bound == pytest.approx(whole.lower_bound, rel=1e-13)


class TestScaleInvariantNeumann:
    """The Neumann stopping rule is relative to each input's size."""

    @pytest.fixture(scope="class")
    def gabor_plan(self):
        model = build_gabor_model(6, 161, 2.45)
        Y = WeightedLp.lebesgue(model.space, 2.0)
        cov = uniform_covering(model.space, (1.0, 2 * 6 / 161))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.2)
        return model, Y, cov, report

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-20])
    def test_matches_direct_at_every_scale(self, gabor_plan, scale):
        model, Y, cov, report = gabor_plan
        neu = SamplingInverse(report, method="neumann")
        dir_ = SamplingInverse(report, method="direct")
        rng = np.random.default_rng(5)
        for _ in range(5):
            F = scale * random_range_function(model, rng)
            gap = Y.norm(apply_inverse(neu, F) - apply_inverse(dir_, F))
            assert gap <= 1e-12 * Y.norm(F)
            assert len(neu.last_term_norms) > 2

    def test_block_columns_of_mixed_scale(self, gabor_plan):
        model, Y, cov, report = gabor_plan
        neu = SamplingInverse(report, method="neumann")
        dir_ = SamplingInverse(report, method="direct")
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((model.dim, 4)) \
            + 1j * rng.standard_normal((model.dim, 4))
        coords *= np.array([1.0, 1e-10, 1e-20, 0.0])
        got = neu.invert_coords(coords)
        want = dir_.invert_coords(coords)
        analysis = model.vectors.conj().T
        for j in range(3):
            assert Y.norm(analysis @ (got[:, j] - want[:, j])) \
                <= 1e-12 * Y.norm(analysis @ coords[:, j])
        assert np.all(got[:, 3] == 0)


class TestExtremeScales:
    """Norms and Neumann inversion do not depend on the scale of the input,
    for every exponent, even where the p-th powers of the values underflow
    or overflow."""

    @pytest.fixture(scope="class")
    def gabor_4x61(self):
        model = build_gabor_model(4, 61, 2.0)
        space = model.space
        cov = Covering(space, tuple(np.arange(t * 61 + m, t * 61 + min(m + 2, 61))
                                    for t in range(4) for m in range(0, 61, 2)))
        w = np.exp(0.02 * np.linalg.norm(space.points, axis=1))
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    WeightedLp(space, 2.0, w), 0.25)
        return model, w, cov, report

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_neumann_apply_homogeneous(self, gabor_4x61, p):
        model, w, cov, report = gabor_4x61
        Y = WeightedLp(model.space, p, w)
        neu = SamplingInverse(replace(report, Y=Y), method="neumann")
        F = random_range_function(model, np.random.default_rng(3))
        base = apply_inverse(neu, F)
        terms = len(neu.last_term_norms)
        assert terms > 2
        for scale in (1e-300, 1e-150, 1e-120, 1e150, 1e300):
            got = apply_inverse(neu, scale * F)
            assert len(neu.last_term_norms) == terms
            assert Y.norm(scale * F) == pytest.approx(scale * Y.norm(F),
                                                      rel=1e-14)
            assert Y.norm(got - scale * base) <= 1e-14 * scale * Y.norm(base)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_streamed_neumann_norms_match_one_block(self, monkeypatch,
                                                    gabor_4x61, p, k):
        """The p != 2 input norms of a Neumann inversion, streamed over row
        blocks of V* C, equal the Y-norms of the whole V* C, zero columns
        included. (The terms are tested through a coordinate bound and are
        not formed on the grid.)"""
        model, w, cov, report = gabor_4x61
        Y = WeightedLp(model.space, p, w)
        neu = SamplingInverse(replace(report, Y=Y), method="neumann")
        rng = np.random.default_rng(k)
        coords = rng.standard_normal((model.dim, k)) \
            + 1j * rng.standard_normal((model.dim, k))
        coords[:, -1] *= 1e-100
        if k > 1:
            coords[:, 0] = 0.0
        want = Y.column_norms(model.vectors.conj().T @ coords)
        for rows in (7, None):
            if rows is not None:
                monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                                    rows * discretize_module.NORM_ENTRY_BYTES * k)
            got = neu.range_norms(coords)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        if k > 1:
            assert got[0] == 0.0


class TestNeumannTermBound:
    """At p != 2 the stopping rule tests kappa_Y |t|_2, kappa_Y the Y-norm
    of x -> |psi_x|_2, in place of |V* t|_Y, against tol times the input's
    lower bound |a|_2 / C_Y; nothing is formed on the grid."""

    @pytest.fixture(scope="class")
    def gabor_4x61(self):
        model = build_gabor_model(4, 61, 2.0)
        space = model.space
        cov = Covering(space, tuple(np.arange(t * 61 + m, t * 61 + min(m + 2, 61))
                                    for t in range(4) for m in range(0, 61, 2)))
        w = {"unit": np.ones(space.n_points),
             "exp": np.exp(0.02 * np.linalg.norm(space.points, axis=1))}
        report = {rule: oscillation_report(
            model, cov, PhaseFunction(model, "kernel"),
            WeightedLp(space, 2.0, w[rule]), 0.25) for rule in w}
        return model, cov, w, report

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_bound_dominates_term_norm(self, gabor_4x61, p, weight_rule):
        """On random blocks and on every direction psi_x / |psi_x|; at
        p = inf the direction of the largest w(x) |psi_x|_2 attains it."""
        model, cov, w, report = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        neu = SamplingInverse(replace(report[weight_rule], Y=Y),
                              method="neumann")
        rng = np.random.default_rng(8)
        coords = rng.standard_normal((model.dim, 6)) \
            + 1j * rng.standard_normal((model.dim, 6))
        coords *= np.array([1.0, 1e-160, 1e160, 1e-300, 1e300, 0.0])
        psi = model.vectors
        atom_norms = np.linalg.norm(psi, axis=0)
        kappa = Y.norm(atom_norms)
        analysis = psi.conj().T
        bound = neu._term_norms(coords)
        assert np.all(bound >= Y.column_norms(analysis @ coords)
                      * (1.0 - 1e-13))
        assert bound[-1] == 0.0
        directions = psi / atom_norms
        bound = neu._term_norms(directions)
        exact = Y.column_norms(analysis @ directions)
        assert bound == pytest.approx(np.full(model.space.n_points, kappa),
                                      rel=1e-14, abs=0.0)
        assert np.all(bound >= exact * (1.0 - 1e-13))
        if np.isinf(p):
            top = int(np.argmax(Y.w * atom_norms))
            assert exact[top] == pytest.approx(kappa, rel=1e-13, abs=0.0)

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1.0, 1.5, 3.0, np.inf]),
           st.sampled_from(["unit", "exp"]),
           st.lists(st.sampled_from([1.0, 1e300, 1e-300, 0.0]), min_size=1,
                    max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_coordinate_bounds_bracket_range_norm(self, gabor_4x61, seed, p,
                                                  weight_rule, scales):
        """|a|_2 / C_Y <= |V* a|_Y <= kappa_Y |a|_2 on every column, C_Y
        the dual norm of x -> |S^{-1} psi_x|_2, for columns of any scale
        and zero columns (both bounds 0 there)."""
        model, cov, w, report = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        neu = SamplingInverse(replace(report[weight_rule], Y=Y),
                              method="neumann")
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((model.dim, len(scales))) \
            + 1j * rng.standard_normal((model.dim, len(scales)))
        coords *= np.array(scales)
        exact = Y.column_norms(model.vectors.conj().T @ coords)
        lower, upper = neu._input_norms(coords), neu._term_norms(coords)
        assert np.all(lower <= exact * (1.0 + 1e-13))
        assert np.all(exact <= upper * (1.0 + 1e-13))
        assert np.array_equal(lower == 0.0, np.array(scales) == 0.0)
        assert np.array_equal(upper == 0.0, np.array(scales) == 0.0)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_no_grid_norm_per_inversion(self, monkeypatch, gabor_4x61, p, k):
        """``invert_coords`` forms no V* a, however many terms it sums, and
        matches the direct inverse."""
        model, cov, w, report = gabor_4x61
        Y = WeightedLp(model.space, p, w["exp"])
        neu = SamplingInverse(replace(report["exp"], Y=Y), method="neumann")
        dir_ = SamplingInverse(replace(report["exp"], Y=Y), method="direct")
        rng = np.random.default_rng(k)
        coords = rng.standard_normal((model.dim, k)) \
            + 1j * rng.standard_normal((model.dim, k))
        widths = []
        original = discretize_module._analysis_norms

        def recorded(analysis, Y, coords):
            widths.append(coords.shape[1])
            return original(analysis, Y, coords)

        monkeypatch.setattr(discretize_module, "_analysis_norms", recorded)
        got = neu.invert_coords(coords)
        assert widths == []
        assert len(neu.last_term_norms) > 2
        analysis = model.vectors.conj().T
        gap = Y.column_norms(analysis @ (got - dir_.invert_coords(coords)))
        assert np.all(gap <= 1e-12 * Y.column_norms(analysis @ coords))


class TestBlocks:
    """Every helper taking one vector also takes a block, column by column."""

    def test_block_equals_columns(self, rng):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        f = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for swap in (False, True):
            lam = atomic_decomposition(inverse, f, swap_roles=swap)
            assert lam.shape == (cov.n_sets, 4)
            samples = dual_analyze if swap else analyze
            block = np.stack([samples(model, f[:, j])[cov.samples]
                              for j in range(4)], axis=1)
            rec = reconstruct_from_samples(inverse, block, swap_roles=swap)
            syn = synthesize_sampled(model, cov, lam, swap_roles=swap)

            def close(got, want):
                return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

            for j in range(4):
                assert close(lam[:, j], atomic_decomposition(
                    inverse, f[:, j], swap_roles=swap))
                assert close(rec[:, j], reconstruct_from_samples(
                    inverse, block[:, j], swap_roles=swap))
                assert close(syn[:, j], synthesize_sampled(
                    model, cov, lam[:, j], swap_roles=swap))

    def test_inverse_apply_block_is_columnwise(self, rng):
        model, Y, weight, cov, gamma, report = make_setup(p=1.0)
        inverse = SamplingInverse(report)
        F = np.stack([random_range_function(model, rng) for _ in range(3)],
                     axis=1)
        got = apply_inverse(inverse, F)
        assert got.shape == F.shape
        for j in range(3):
            want = apply_inverse(inverse, F[:, j])
            assert np.linalg.norm(got[:, j] - want) \
                <= 1e-12 * np.linalg.norm(want)

    def test_wrong_lengths_rejected(self):
        model, Y, weight, cov, gamma, report = make_setup()
        inverse = SamplingInverse(report)
        with pytest.raises(StructuralError):
            atomic_decomposition(inverse, np.ones(4))
        with pytest.raises(StructuralError):
            reconstruct_from_samples(inverse, np.ones(cov.n_sets + 1))
        with pytest.raises(StructuralError):
            synthesize_sampled(model, cov, np.ones((cov.n_sets - 1, 2)))


class TestBlockHarness:
    """The verification harness's block forms against their one-trial and
    one-iterate loops, and the call counts those loops cost."""

    @pytest.fixture(scope="class")
    def gabor_4x61(self):
        model = build_gabor_model(4, 61, 2.0)
        space = model.space
        cov = Covering(space, tuple(np.arange(t * 61 + m, t * 61 + min(m + 2, 61))
                                    for t in range(4) for m in range(0, 61, 2)))
        w = {"unit": np.ones(space.n_points),
             "exp": np.exp(0.02 * np.linalg.norm(space.points, axis=1))}
        return model, cov, w

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_observed_contraction_matches_loop(self, monkeypatch, gabor_4x61,
                                               p, weight_rule, tol):
        """tol = 1e-3 settles the power iteration after a few steps; 1e-10
        runs all of them."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        monkeypatch.setattr(discretize_module, "CONTRACTION_TOL", tol)
        want = observed_contraction_naive(model, cov, Y, tol=tol, seed=4)
        got = observed_contraction(
            SamplingInverse(report_for(model, cov, Y), method="direct"),
            seed=4)
        assert want > 1e-4
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_observed_contraction_in_budget_chunks(self, monkeypatch,
                                                   gabor_4x61, p, tol):
        """With a budget of seven iterates the power iteration runs in
        chunks of seven doubling steps, each starting from the last image
        of the one before, and still returns the loop's estimate: the
        stopping rule is replayed across the chunks. tol = 1e-10 runs all
        200 steps (29 chunks); 1e-3 settles in the first chunk."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, p, w["exp"])
        direct = SamplingInverse(report_for(model, cov, Y), method="direct")
        monkeypatch.setattr(discretize_module, "CONTRACTION_TOL", tol)
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                            7 * discretize_module.ITERATE_BYTES * model.dim)
        chunks = []
        iterates = discretize_module._power_iterates

        def recorded(m, g, k):
            chunks.append(k)
            return iterates(m, g, k)

        monkeypatch.setattr(discretize_module, "_power_iterates", recorded)
        want = observed_contraction_naive(model, cov, Y, tol=tol, seed=4)
        got = observed_contraction(direct, seed=4)
        assert chunks == ([7] * 28 + [4] if tol == 1e-10 else [7])
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_observed_contraction_stops_at_first_step(self, monkeypatch, p):
        """m = Id - S^{-1} S_c vanishes on a singleton covering: exactly for the
        orthonormal basis (the image is zero, so the iteration keeps one
        iterate and its image), to rounding for a smooth model (the first
        ratio settles)."""
        model = build_orthonormal_model(4)
        Y, weight, gamma, report, cov = singleton_setup(model, p=p)
        widths = []
        original = discretize_module._analysis_norms

        def recorded(analysis, Y, coords):
            widths.append(coords.shape[1])
            return original(analysis, Y, coords)

        monkeypatch.setattr(discretize_module, "_analysis_norms", recorded)
        direct = SamplingInverse(report, method="direct")
        assert observed_contraction(direct, seed=3) == 0.0
        assert widths == [2, 20, 20]
        assert observed_contraction_naive(model, cov, Y, seed=3) == 0.0
        model = build_random_smooth_model(3, 24, 2.0, seed=5)
        Y, weight, gamma, report, cov = singleton_setup(model, p=p)
        direct = SamplingInverse(report, method="direct")
        assert observed_contraction(direct, seed=3) <= 1e-12
        assert observed_contraction_naive(model, cov, Y, seed=3) <= 1e-12

    @pytest.mark.parametrize("n_iter", [1, 7, 200])
    def test_observed_contraction_norm_calls(self, monkeypatch, gabor_4x61,
                                             n_iter):
        """The iterates with the last image, the probes and the probe
        images are three blocks, whatever ``CONTRACTION_STEPS`` is."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, 1.0, w["exp"])
        want = observed_contraction_naive(model, cov, Y, n_iter=n_iter)
        direct = SamplingInverse(report_for(model, cov, Y), method="direct")
        calls = {"column_norms": 0, "streamed_norms": 0}
        for owner, name in ((WeightedLp, "column_norms"),
                            (spaces_module, "streamed_norms"),
                            (discretize_module, "streamed_norms")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(discretize_module, "CONTRACTION_STEPS", n_iter)
        got = observed_contraction(direct)
        assert calls["column_norms"] <= 3
        assert calls["streamed_norms"] <= 3
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_measure_observed_matches_loop(self, monkeypatch, gabor_4x61, p,
                                           weight_rule):
        """The decomposition norms of all measure trials come from one
        (n_sets, n_trials) block of per-set masses; no trial calls
        ``decomposition_norm``."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        report = oscillation_report(model, cov,
                                    PhaseFunction(model, "kernel"), Y, 0.25)
        want = measure_observed_naive(model, cov, Y, n_trials=20, seed=6)
        calls = []
        original = decomposition_norm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (discretize_module, spaces_module):
            monkeypatch.setattr(module, "decomposition_norm", counted,
                                raising=False)
        inverse = SamplingInverse(report, method="direct")
        rep = verification_suite(inverse, n_trials=20, seed=6)["bounds"]
        assert not calls
        assert want > 0.0
        assert rep["measure_observed"] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("covering", ["boxes", "overlapping"])
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_coordinate_harness_matches_grid_harness(self, gabor_4x61, p,
                                                     weight_rule, covering):
        """The harness that measures its trials through their coordinates
        reports what the grid-side harness (``oracles``) reports: every
        residual and norm-equivalence ratio of both residual-suite roles,
        every observed ratio of the bounds check and the observed
        contraction, to 1e-13 relative. The cross-method gaps of both are
        rounding noise, within ``tol-cross``. The overlapping covering
        (boxes of three frequency steps, two apart) holds points in two
        sets; it is inverted directly."""
        model, cov, w = gabor_4x61
        method = "neumann"
        if covering == "overlapping":
            cov = Covering(model.space, tuple(
                np.arange(t * 61 + m, t * 61 + min(m + 3, 61))
                for t in range(4) for m in range(0, 60, 2)))
            method = "direct"
        Y = WeightedLp(model.space, p, w[weight_rule])
        report = oscillation_report(model, cov,
                                    PhaseFunction(model, "kernel"),
                                    Y, 0.25)
        inverse = SamplingInverse(report, method=method)
        checks = verification_suite(inverse, n_trials=20, seed=5)
        for swap, role in enumerate(("residuals", "residuals_swapped")):
            got = checks[role]
            want = residual_suite_grid(inverse, n_trials=20, seed=5 + swap,
                                       swap_roles=bool(swap))
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
        rep = checks["bounds"]
        got = dict(rep["transform_norm_ratios"],
                   sampled_flat_observed=rep["D_observed"],
                   pou_pileup_observed=rep["sigma_observed"],
                   measure_observed=rep["measure_observed"],
                   range_sup_observed=rep["range_sup_observed"])
        want = bounds_observed_grid(inverse, n_trials=20, seed=5)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
        if p != 2.0:
            assert observed_contraction(inverse, seed=5) == pytest.approx(
                observed_contraction_naive(model, cov, Y, seed=5),
                rel=1e-13, abs=0.0)
        if method == "neumann":
            tol = DEFAULTS["tol-cross"]
            assert checks["cross_method_gap"] <= tol
            assert cross_check_grid(inverse, inverse.other_method(),
                                    seed=5) <= tol

    def test_dual_frame_inverts_once_for_both_roles(self):
        """Both roles invert the one (d, n_sets) block of dual-frame
        coordinates: the swapped duals are S times the unswapped ones, to
        the bit."""
        model, Y, weight, cov, gamma, report = make_setup(p=1.0)
        inverse = SamplingInverse(report)
        duals = dual_frame(inverse)
        swapped = dual_frame(inverse, swap_roles=True)
        assert np.array_equal(swapped, (model.frame_operator @ duals.T).T)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_run_residuals_equal_standalone_suites(self, gabor_4x61, p):
        """A run reports exactly what the verification suite reports on a
        separate inverse of its covering, made with a report of its own:
        both roles' residuals, the bounds and the cross-method gap."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, p, w["exp"])
        result = run_discretization(model, Y, 0.25, covering=cov,
                                    n_trials=10, seed=3)
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.25)
        checks = verification_suite(SamplingInverse(report),
                                    n_trials=10, seed=3)
        assert result.residuals == checks["residuals"]
        assert result.residuals_swapped == checks["residuals_swapped"]
        assert result.bounds == checks["bounds"]
        assert result.cross_method_gap == checks["cross_method_gap"]

    @staticmethod
    def trial_families(inverse, n_trials, seed):
        """The coordinate blocks the harness inverts, built one family at a
        time: the dual-frame inputs c_i S^{-1} psi_{x_i}, the
        atomic-decomposition and reconstruction inputs of the unswapped
        role (trials from ``seed``) and of the swapped one (``seed + 1``),
        and the cross-check's 20 range functions (``seed``)."""
        model, cov = inverse.model, inverse.covering
        s_inv, psi = model.s_inverse, model.vectors[:, cov.samples]
        families = [s_inv @ (psi * cov.masses[None, :])]
        for swap in (0, 1):
            f = random_vectors(np.random.default_rng(seed + swap), model.dim,
                               n_trials)
            f = f / np.linalg.norm(f, axis=0)
            base = s_inv @ f if swap else f
            samples = psi.conj().T @ base
            families += [f if swap else s_inv @ f,
                         s_inv @ (psi @ (cov.masses[:, None] * samples))]
        return families + [random_vectors(np.random.default_rng(seed),
                                          model.dim, 20)]

    @pytest.mark.parametrize("method", ["neumann", "direct"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_stacked_inversion_matches_each_family(self, monkeypatch,
                                                   gabor_4x61, p, method):
        """The harness inverts every trial family in one block, and the
        block's inverse equals, column by column, the inverse of each
        family alone to 1e-13 relative to the column's largest entry: each
        column stops on its own (under the exp 0.02 weight, either
        method)."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, p, w["exp"])
        report = oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                                    Y, 0.25)
        inverse = SamplingInverse(report, method=method)
        blocks = []
        original = SamplingInverse.invert_coords

        def recorded(self, coords):
            out = original(self, coords)
            if self is inverse:
                blocks.append((coords.copy(), out))
            return out

        monkeypatch.setattr(SamplingInverse, "invert_coords", recorded)
        verification_suite(inverse, n_trials=10, seed=3)
        monkeypatch.undo()
        (stacked, got), = blocks
        families = self.trial_families(inverse, 10, 3)
        assert np.array_equal(stacked, np.hstack(families))
        want = np.hstack([inverse.invert_coords(a) for a in families])
        assert np.all(np.abs(got - want).max(axis=0)
                      <= 1e-13 * np.abs(want).max(axis=0))

    def test_run_inverts_its_trials_in_one_call(self, monkeypatch,
                                                gabor_4x61):
        """A run (p = 1, exp weight, Neumann) makes one Neumann
        ``invert_coords`` call, for all its trial families, and its
        verification harness makes at most three ``range_norms`` calls."""
        model, cov, w = gabor_4x61
        Y = WeightedLp(model.space, 1.0, w["exp"])
        calls = {"neumann": 0, "range_norms": 0}
        harness = [False]
        invert, norms = SamplingInverse.invert_coords, SamplingInverse.range_norms
        suite = pipeline_module.verification_suite

        def counted_invert(self, coords):
            calls["neumann"] += self.method == "neumann"
            return invert(self, coords)

        def counted_norms(self, *args, **kwargs):
            calls["range_norms"] += harness[0]
            return norms(self, *args, **kwargs)

        def in_harness(*args, **kwargs):
            harness[0] = True
            try:
                return suite(*args, **kwargs)
            finally:
                harness[0] = False

        monkeypatch.setattr(SamplingInverse, "invert_coords", counted_invert)
        monkeypatch.setattr(SamplingInverse, "range_norms", counted_norms)
        monkeypatch.setattr(pipeline_module, "verification_suite", in_harness)
        result = run_discretization(model, Y, 0.25, covering=cov,
                                    n_trials=10, seed=3)
        assert result.inverse.method == "neumann"
        assert calls["neumann"] == 1
        assert 1 <= calls["range_norms"] <= 3


class TestInverseHandle:
    """The inverse is the one handle of the sampled frame: the helpers read
    its model, covering, Y, report, tol and n_max, and a run of either method
    builds one Neumann and one direct inverse."""

    @staticmethod
    def run_counting_inverses(monkeypatch, method):
        """Run with the given method; return the methods of the inverses it
        built, and check its cross-method gap against a fresh pair."""
        model, Y, weight, cov, gamma, report = make_setup()
        built = []
        prepare = SamplingInverse._prepare

        def counted(self, method):
            prepare(self, method)
            built.append(self.method)

        monkeypatch.setattr(SamplingInverse, "_prepare", counted)
        result = run_discretization(model, Y, 0.25, covering=cov,
                                    method=method, n_trials=10, seed=3)
        monkeypatch.undo()
        neu = SamplingInverse(report)
        direct = SamplingInverse(report, method="direct")
        g = random_vectors(np.random.default_rng(3), model.dim, 20)
        gaps = neu.range_norms(neu.invert_coords(g) - direct.invert_coords(g)) \
            / neu.range_norms(g)
        assert abs(result.cross_method_gap - gaps.max()) <= GAP_ATOL
        return sorted(built)

    def test_neumann_run_builds_two_inverses(self, monkeypatch):
        assert self.run_counting_inverses(monkeypatch, "neumann") \
            == ["direct", "neumann"]

    def test_direct_run_builds_two_inverses(self, monkeypatch):
        """A direct run's inverse is the direct side of its cross-check."""
        assert self.run_counting_inverses(monkeypatch, "direct") \
            == ["direct", "neumann"]

    def test_cross_check_from_a_direct_inverse(self):
        """A direct inverse checks against a Neumann inverse built from its
        report, tol and n_max; under a report without the contraction
        certificate (1 x 8 boxes, sharp bound 5.2) there is none."""
        model, Y, weight, cov, gamma, report = make_setup()
        gaps = []
        for tol in (1e-12, 1e-4):
            neu = SamplingInverse(report, tol=tol)
            direct = SamplingInverse(report, method="direct", tol=tol)
            gaps.append(verification_suite(direct, n_trials=3,
                                           seed=4)["cross_method_gap"])
            assert abs(gaps[-1] - verification_suite(
                neu, n_trials=3, seed=4)["cross_method_gap"]) <= GAP_ATOL
        assert gaps[1] > 100 * gaps[0]       # the looser tol was used
        model, Y, weight, cov, gamma, report = make_setup(box_pts=8)
        assert report.contraction_bounds[1] > 1.0
        uncertified = SamplingInverse(report, method="direct")
        assert verification_suite(uncertified, n_trials=3,
                                  seed=4)["cross_method_gap"] is None

    def test_other_method_shares_the_metric(self):
        """Both methods' handles read the one range metric the first formed."""
        model, Y, weight, cov, gamma, report = make_setup()
        direct = SamplingInverse(report, method="direct")
        assert direct._metric is not None
        assert direct.other_method()._metric is direct._metric
        neu = SamplingInverse(report)
        assert neu.other_method()._metric is neu._metric

    @pytest.mark.parametrize("method", ["neumann", "direct"])
    def test_run_forms_restricted_operator_once(self, monkeypatch, method):
        """S^{-1} S_c is formed once, by the run's inverse: the observed
        contraction reads it, and the other side of the cross-check is
        built from the handle. The p = 2 range metric is formed once, by
        the run's inverse, which hands it to the other method's handle."""
        model, Y, weight, cov, gamma, report = make_setup()
        calls = {"_restricted_matrix": 0, "range_metric": 0}
        for owner, name in ((discretize_module, "_restricted_matrix"),
                            (WeightedLp, "range_metric")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        run_discretization(model, Y, 0.25, covering=cov,
                           method=method, n_trials=5, seed=3)
        assert calls == {"_restricted_matrix": 1, "range_metric": 1}

    def test_result_reads_its_inverse(self):
        """The run's JSON reads the covering, samples, method, certificate and
        D off the handle the run built and its own report."""
        model, Y, weight, cov, gamma, report = make_setup()
        result = run_discretization(model, Y, 0.25, covering=cov,
                                    n_trials=5, seed=3)
        doc = result.to_json_dict()
        inverse = result.inverse
        own = inverse.report
        assert inverse.covering is cov
        assert doc["covering_id"] == own.covering.identifier() \
            == cov.identifier()
        assert doc["samples"] == cov.samples.tolist()
        assert doc["inversion_method"] == inverse.method == "neumann"
        assert doc["constants"]["osc_norm"] == own.osc_norm
        assert doc["constants"]["contraction_bound_sharp"] \
            == own.contraction_bounds[1]
        assert doc["constants"]["D_const"] == own.d_const


class TestPlanOnAnotherCovering:
    """An R pass given a covering of another grid refuses it before any
    Schur sum is formed."""

    @staticmethod
    def forbid_passes(monkeypatch) -> list:
        """Record every ``SchurSums`` the oscillation module would make."""
        passes = []
        monkeypatch.setattr(oscillation_module, "SchurSums",
                            lambda *args: passes.append(args))
        return passes

    def test_kernel_norms(self, monkeypatch):
        model, Y, weight, cov, gamma, report = make_setup(n=96)
        other = uniform_covering(
            build_random_smooth_model(3, 48, 3.0, seed=1).space, 2 / 48)
        passes = self.forbid_passes(monkeypatch)
        with pytest.raises(StructuralError, match="different space"):
            kernel_norms(model, other, weight)
        assert not passes


def off_identity(model):
    """The model with S^{-1} replaced by 1.1 S^{-1}: its kernel is no longer
    idempotent, so the defect is far from zero."""
    out = copy.copy(model)
    out.s_inverse = 1.1 * model.s_inverse
    return out


class TestReproducingDefect:
    """The streamed defect oracle against the dense n^3 composition, and the
    reported rank-d majorant against that oracle."""

    def test_matches_dense_compose(self):
        model = build_random_smooth_model(5, 40, 1.5, seed=3)
        r = dense_kernel(model)
        dense = schur_norm(model.space, compose(model.space, r, r) - r)
        assert abs(reproducing_defect_streamed(model) - dense) <= 1e-12

    def test_matches_dense_compose_off_identity(self):
        """Off the identity both sides are far from zero and must agree."""
        model = off_identity(build_random_smooth_model(5, 40, 1.5, seed=3))
        k = model.vectors.conj().T @ (model.s_inverse @ model.vectors)
        dense = schur_norm(model.space, compose(model.space, k, k) - k)
        assert dense > 0.05
        assert reproducing_defect_streamed(model) \
            == pytest.approx(dense, rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8), st.integers(16, 64),
           st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_majorant_dominates_exact_defect(self, seed, d, n, smoothness):
        """The reported defect bounds the exact one, up to the rounding of
        the two sums, on random smooth models (rounding-level defect) and
        off the identity."""
        try:
            model = build_random_smooth_model(d, n, smoothness, seed=seed)
        except SingularOperatorError:
            return
        for m in (model, off_identity(model)):
            exact = reproducing_defect_streamed(m)
            assert reproducing_defect(m, unit_weight(m.space)) \
                >= exact * (1.0 - 1e-12)

    @pytest.mark.parametrize("kind, scale", [("plain", 2.0 ** 332),
                                             ("plain", 2.0 ** -332),
                                             ("off_identity", 1e100),
                                             ("off_identity", 1e-100)])
    def test_bound_does_not_depend_on_scale(self, kind, scale):
        """Scaling V by c scales S by c^2 and S^{-1} by c^-2 and leaves the
        defect kernel alone, and the bound must follow even at c = 1e+-100.
        A rounding-level core is reproduced only under exact scaling, by
        2^+-332 (about 1e+-100); off the identity any c will do."""
        base = build_random_smooth_model(5, 40, 1.5, seed=3)
        if kind == "off_identity":
            base = off_identity(base)
        scaled = copy.copy(base)
        scaled.vectors = scale * base.vectors
        scaled.frame_operator = scale ** 2 * base.frame_operator
        scaled.s_inverse = base.s_inverse / scale ** 2
        unit = unit_weight(base.space)
        want = reproducing_defect(base, unit)
        assert want > 0.0
        assert reproducing_defect(scaled, unit) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ["plain", "off_identity"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_weighted_bound_dominates_dense_defect(self, kind, seed):
        """Under a non-trivial weight the bound dominates the naive A_m
        norm of the dense defect R o R - R, and stays within the factor
        that m <= w(x)/w(y) + w(y)/w(x) costs of the unit-weight bound
        times the weight's spread; w scaled by 1e+-200 gives the same
        float."""
        model = build_random_smooth_model(4, 24, 1.5, seed=seed)
        if kind == "off_identity":
            model = off_identity(model)
        space = model.space
        w = random_pointwise_weight(np.random.default_rng(seed), space.n_points)
        weight = Weight2D(space, w)
        k = model.vectors.conj().T @ (model.s_inverse @ model.vectors)
        defect = compose(space, k, k) - k
        exact = schur_norm_naive(space.weights, defect, weight_matrix_naive(w))
        got = reproducing_defect(model, weight)
        assert got >= exact * (1.0 - 1e-12)
        assert got <= 2.0 * w.max() / w.min() \
            * reproducing_defect(model, unit_weight(space)) * (1.0 + 1e-12)
        for scale in (1e-200, 1e200):
            assert reproducing_defect(model, Weight2D(space, scale * w)) \
                == pytest.approx(got, rel=1e-12)

    def test_trivial_weight_keeps_unit_floats(self):
        """Any constant w is the unit weight: the same floats."""
        model = off_identity(build_random_smooth_model(5, 40, 1.5, seed=3))
        space = model.space
        want = reproducing_defect(model, unit_weight(space))
        assert reproducing_defect(model, Weight2D(space, np.full(
            space.n_points, 7.5))) == want
