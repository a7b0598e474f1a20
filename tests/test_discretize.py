import tracemalloc

import numpy as np
import pytest

import framedisc.discretize as discretize_module
import framedisc.kernels as kernels_module
import framedisc.spaces as spaces_module
from framedisc import CertificationError, Covering, SamplingInverse, \
    SingularOperatorError, StructuralError, WeightedLp, apply_sampling, \
    apply_smoothed, atomic_decomposition, build_pou, contraction_bounds, \
    dual_frame, hilbert_frame_bounds, make_phase, norm_flat, norm_natural, \
    observed_contraction, oscillation_report, reconstruct_from_samples, \
    schur_norm, select_samples, singleton_covering, synthesize_plan, \
    uniform_covering, verify_sampled_bounds
from framedisc.models import build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model
from framedisc.pipeline import cross_check_inversion, reproducing_defect, \
    residual_suite, run_discretization

from framedisc.spaces import local_integrability_constant

from conftest import random_interval_covering, random_pointwise_weight
from oracles import apply_kernel, compose, dense_kernel, \
    measure_observed_naive, observed_contraction_naive, osc_naive, \
    phase_table_naive, rank_d_entries, sampled_row_kernel, \
    sampling_operator_naive, schur_norm_naive, weight_matrix_naive


def make_setup(d=3, n=96, smoothness=3.0, box_pts=2, delta=0.25, seed=1,
               p=2.0, pou_kind="flat", rule="max_weight"):
    """Random smooth model with a box covering; delta=0.25 certifies it."""
    model = build_random_smooth_model(d, n, smoothness, seed=seed)
    space = model.space
    Y = WeightedLp.lebesgue(space, p)
    weight = Y.weight2d()
    cov = uniform_covering(space, box_pts / n)
    gamma = make_phase(model, "kernel")
    report = oscillation_report(model, cov, gamma, weight, delta)
    pou = build_pou(cov, pou_kind)
    plan = select_samples(cov, pou, rule)
    return model, Y, weight, cov, gamma, report, plan


def singleton_setup(model, p=2.0):
    space = model.space
    cov = singleton_covering(space)
    Y = WeightedLp.lebesgue(space, p)
    weight = Y.weight2d()
    gamma = make_phase(model, "kernel")
    report = oscillation_report(model, cov, gamma, weight, 0.25)
    pou = build_pou(cov)
    plan = select_samples(cov, pou)
    return Y, weight, gamma, report, plan


class TestSampleSelection:
    def test_singleton_sets(self, small_space):
        cov = singleton_covering(small_space)
        plan = select_samples(cov, build_pou(cov))
        assert np.array_equal(plan.samples, np.arange(5))

    def test_uniform_weights_tie_break_lowest(self, grid64):
        cov = uniform_covering(grid64, 8.0)
        plan = select_samples(cov, build_pou(cov), "max_weight")
        assert np.array_equal(plan.samples, [s[0] for s in cov.sets])

    def test_max_weight_matches_argmax(self, rng):
        """Distinct and tied weights, on boxes and on overlapping intervals."""
        from framedisc import uniform_grid
        for weights in ("distinct", "tied"):
            w = rng.uniform(0.1, 2.0, 32) if weights == "distinct" \
                else rng.choice([0.5, 1.0, 2.0], 32)
            space = uniform_grid(32, weights=w)
            for cov in (uniform_covering(space, 4.0),
                        random_interval_covering(rng, space, 12)):
                plan = select_samples(cov, build_pou(cov), "max_weight")
                for i, s in enumerate(cov.sets):
                    best = max(s, key=lambda j: (space.weights[j], -j))
                    assert plan.samples[i] == best

    def test_medoid_of_interval_is_middle(self, grid64):
        cov = uniform_covering(grid64, 5.0)
        plan = select_samples(cov, build_pou(cov), "medoid")
        for i, s in enumerate(cov.sets):
            assert plan.samples[i] == s[(s.size - 1) // 2]

    def test_sample_in_its_set_enforced(self, grid64):
        """Sets are [8 i, 8 i + 8); a sample outside its set, or off the
        grid, is refused, naming the first such set."""
        cov = uniform_covering(grid64, 8.0)
        pou = build_pou(cov)
        from framedisc import SamplingPlan
        with pytest.raises(StructuralError):
            SamplingPlan(cov, pou, np.zeros(cov.n_sets, dtype=int), pou.masses)
        for bad in (0, -1, 64, 40):
            samples = np.array([s[-1] for s in cov.sets])
            SamplingPlan(cov, pou, samples, pou.masses)
            samples[3] = bad
            with pytest.raises(StructuralError,
                               match=f"sample {bad} is not inside covering set 3"):
                SamplingPlan(cov, pou, samples, pou.masses)
            samples[6] = bad
            with pytest.raises(StructuralError, match="covering set 3"):
                SamplingPlan(cov, pou, samples, pou.masses)


class TestSamplingOperator:
    def test_singleton_plan_degenerates_to_kernel(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=2)
        Y, weight, gamma, report, plan = singleton_setup(model)
        rng = np.random.default_rng(0)
        F = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        out = apply_sampling(model, plan, F)
        ref = apply_kernel(model.space, dense_kernel(model), F)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        G = model.random_range_function(rng)
        assert np.max(np.abs(apply_sampling(model, plan, G) - G)) \
            <= 1e-11 * np.max(np.abs(G))

    def test_zero_input(self):
        model, Y, weight, cov, gamma, report, plan = make_setup(n=48, delta=0.6)
        assert np.all(apply_sampling(model, plan, np.zeros(48)) == 0)

    def test_matches_direct_summation(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup(n=48, delta=0.6)
        F = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        got = apply_sampling(model, plan, F)
        want = sampling_operator_naive(dense_kernel(model), plan.samples,
                                       plan.masses, F)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_maps_range_into_range(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        for _ in range(10):
            F = model.random_range_function(rng)
            UF = apply_sampling(model, plan, F)
            proj = model.project_to_range(UF)
            assert np.max(np.abs(proj - UF)) <= 1e-10 * Y.norm(F)

    def test_self_adjoint_under_weighted_pairing(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        space = model.space
        for _ in range(10):
            F = model.random_range_function(rng)
            G = model.random_range_function(rng)
            lhs = space.integrate(apply_sampling(model, plan, F) * np.conj(G))
            rhs = space.integrate(F * np.conj(apply_sampling(model, plan, G)))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-11 * scale


class TestSmoothedOperator:
    def test_trivial_phase_singleton_plan(self, rng):
        model = build_random_smooth_model(3, 24, 2.0, seed=4)
        space = model.space
        cov = singleton_covering(space)
        plan = select_samples(cov, build_pou(cov))
        gamma = make_phase(model, "one")
        F = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        out = apply_smoothed(model, plan, gamma, F)
        ref = apply_kernel(space, dense_kernel(model), F)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_input(self):
        model, Y, weight, cov, gamma, report, plan = make_setup(n=48, delta=0.6)
        assert np.all(apply_smoothed(model, plan, gamma, np.zeros(48)) == 0)

    def test_gap_to_sampling_operator_bounded(self, rng):
        """|S F - U F| <= sigma |osc| |F| on the kernel range."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        bound = report.sigma * report.osc_norm
        for _ in range(20):
            F = model.random_range_function(rng)
            gap = Y.norm(apply_smoothed(model, plan, gamma, F)
                         - apply_sampling(model, plan, F))
            assert gap <= bound * Y.norm(F) * (1 + 1e-10)

    def test_distance_to_identity_bounded(self, rng):
        """|F - S F| <= |R| |osc| |F| on the kernel range."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        bound = report.r_norm * report.osc_norm
        for _ in range(20):
            F = model.random_range_function(rng)
            gap = Y.norm(F - apply_smoothed(model, plan, gamma, F))
            assert gap <= bound * Y.norm(F) * (1 + 1e-10)


class TestContraction:
    def test_bounds_arithmetic(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        nominal, sharp = contraction_bounds(report)
        assert nominal == pytest.approx(report.delta * (report.r_norm + report.sigma))
        assert sharp == pytest.approx(report.osc_norm * (report.r_norm + report.sigma))
        assert sharp <= nominal

    def test_zero_for_singleton_covering(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=5)
        Y, weight, gamma, report, plan = singleton_setup(model)
        _, sharp = contraction_bounds(report)
        assert sharp == 0.0

    def test_observed_below_sharp_certificate(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        assert report.oscillation_ok and report.invertibility_ok
        _, sharp = contraction_bounds(report)
        observed = observed_contraction(model, plan, Y, seed=2)
        assert observed <= sharp + 1e-9

    def test_observed_below_sharp_all_p(self):
        for p in (1.0, np.inf):
            model, Y, weight, cov, gamma, report, plan = make_setup(p=p)
            _, sharp = contraction_bounds(report)
            observed = observed_contraction(model, plan, Y, seed=2)
            assert observed <= sharp + 1e-9


class TestInversion:
    def test_singleton_plan_inverse_is_identity(self, rng):
        model = build_random_smooth_model(3, 24, 2.0, seed=6)
        Y, weight, gamma, report, plan = singleton_setup(model)
        inverse = SamplingInverse(model, plan, Y, report=report)
        F = model.random_range_function(rng)
        assert Y.norm(inverse.apply(F) - F) <= 1e-10 * Y.norm(F)

    def test_neumann_matches_direct(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        neu = SamplingInverse(model, plan, Y, method="neumann", report=report)
        dir_ = SamplingInverse(model, plan, Y, method="direct")
        for _ in range(20):
            F = model.random_range_function(rng)
            gap = Y.norm(neu.apply(F) - dir_.apply(F))
            assert gap <= 1e-9 * Y.norm(F)

    def test_term_norms_decay_geometrically(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        observed = observed_contraction(model, plan, Y, seed=0)
        inverse = SamplingInverse(model, plan, Y, method="neumann",
                                  report=report)
        F = model.random_range_function(rng)
        inverse.apply(F)
        norms = inverse.last_term_norms
        assert len(norms) >= 3
        for a, b in zip(norms, norms[1:]):
            if a > 1e-13:
                assert b / a <= observed + 1e-6

    def test_inverse_really_inverts(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        for _ in range(5):
            F = model.random_range_function(rng)
            back = apply_sampling(model, plan, inverse.apply(F))
            assert Y.norm(back - F) <= 1e-9 * Y.norm(F)

    def test_refusal_without_certificate(self):
        model, Y, weight, cov, gamma, report, plan = make_setup(
            d=3, n=48, smoothness=2.5, delta=0.5)
        _, sharp = contraction_bounds(report)
        assert sharp >= 1.0
        with pytest.raises(CertificationError):
            SamplingInverse(model, plan, Y, method="neumann", report=report)
        with pytest.raises(CertificationError):
            SamplingInverse(model, plan, Y, method="neumann", report=None)

    def test_neumann_term_budget_exhaustion(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, method="neumann",
                                  report=report, n_max=1)
        with pytest.raises(SingularOperatorError):
            inverse.apply(model.random_range_function(rng))

    def test_direct_refuses_rank_deficient_plan(self):
        model = build_orthonormal_model(4)
        cov = Covering(model.space, (np.array([0, 1]), np.array([2, 3])))
        plan = select_samples(cov, build_pou(cov))
        Y = WeightedLp.lebesgue(model.space, 2.0)
        with pytest.raises(SingularOperatorError):
            SamplingInverse(model, plan, Y, method="direct")


class TestDecomposition:
    def test_zero_vector(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        lam = atomic_decomposition(inverse, np.zeros(3))
        assert np.all(lam == 0)

    def test_frame_vector_roundtrip_singleton_plan(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=7)
        Y, weight, gamma, report, plan = singleton_setup(model)
        inverse = SamplingInverse(model, plan, Y, report=report)
        f = model.vectors[:, 5]
        lam = atomic_decomposition(inverse, f)
        rec = synthesize_plan(model, plan, lam)
        assert np.linalg.norm(rec - f) <= 1e-9

    def test_random_vectors_reconstruct(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            rec = synthesize_plan(model, plan, lam)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)

    def test_coefficient_norm_controlled(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        _, sharp = contraction_bounds(report)
        d_const = schur_norm(model.space, sampled_row_kernel(model, plan), weight)
        bound = d_const / (1.0 - sharp)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            assert norm_natural(lam, cov, Y) \
                <= bound * Y.norm(model.dual_analyze(f)) * (1 + 1e-9)


class TestSampleReconstruction:
    def test_round_trip(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        for _ in range(10):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            samples = model.analyze(f)[plan.samples]
            rec = reconstruct_from_samples(inverse, samples)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)

    def test_frame_vector_from_its_samples(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        f = model.vectors[:, plan.samples[3]]
        samples = model.analyze(f)[plan.samples]
        rec = reconstruct_from_samples(inverse, samples)
        assert np.linalg.norm(rec - f) <= 1e-8

    def test_zero_samples(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        rec = reconstruct_from_samples(inverse, np.zeros(cov.n_sets))
        assert np.linalg.norm(rec) <= 1e-12

    def test_decompose_then_resample_consistent(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        samples = model.analyze(f)[plan.samples]
        rec = reconstruct_from_samples(inverse, samples)
        resampled = model.analyze(rec)[plan.samples]
        assert np.max(np.abs(resampled - samples)) \
            <= 1e-8 * max(1.0, np.max(np.abs(samples)))


class TestDualFrame:
    def test_orthonormal_singleton_plan(self):
        model = build_orthonormal_model(4)
        Y, weight, gamma, report, plan = singleton_setup(model)
        inverse = SamplingInverse(model, plan, Y, report=report)
        duals = dual_frame(inverse)
        assert np.allclose(duals, np.eye(4), atol=1e-10)
        f = np.array([1.0, 2.0, 3.0 - 1.0j, 0.5])
        rec = (model.analyze(f)[plan.samples]) @ duals
        assert np.linalg.norm(rec - f) <= 1e-10

    def test_dim_one(self):
        model = build_random_smooth_model(1, 8, 1.0, seed=8)
        Y, weight, gamma, report, plan = singleton_setup(model)
        inverse = SamplingInverse(model, plan, Y, report=report)
        duals = dual_frame(inverse)
        f = np.array([2.0 - 1.0j])
        rec = sum(np.vdot(duals[i], f) * model.vectors[:, plan.samples[i]]
                  for i in range(plan.covering.n_sets))
        assert np.linalg.norm(rec - f) <= 1e-10

    def test_duality_of_coefficients(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        duals = dual_frame(inverse)
        for _ in range(20):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f /= np.linalg.norm(f)
            lam = atomic_decomposition(inverse, f)
            inner = duals.conj() @ f
            assert np.max(np.abs(lam - inner)) <= 1e-10


class TestSwappedRoles:
    def test_full_residual_suite(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        res = residual_suite(inverse, n_trials=20, seed=9, swap_roles=True)
        assert res["atomic_max"] <= 1e-8
        assert res["banach_max"] <= 1e-8
        assert res["duality_max"] <= 1e-10
        assert res["dual_expansion_max"] <= 1e-8
        assert res["sample_expansion_max"] <= 1e-8

    def test_swapped_atoms_are_duals(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = atomic_decomposition(inverse, f, swap_roles=True)
        rec = synthesize_plan(model, plan, lam, swap_roles=True)
        manual = sum(lam[i] * (model.s_inverse @ model.vectors[:, plan.samples[i]])
                     for i in range(cov.n_sets))
        assert np.linalg.norm(rec - manual) <= 1e-12
        assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


class TestFrameBounds:
    def test_singleton_plan_recovers_frame_operator(self):
        model = build_random_smooth_model(3, 24, 2.0, seed=10)
        Y, weight, gamma, report, plan = singleton_setup(model)
        c1, c2 = hilbert_frame_bounds(model, plan)
        ev = model.s_eigenvalues
        assert c1 == pytest.approx(ev[0], abs=1e-10)
        assert c2 == pytest.approx(ev[-1], abs=1e-10)

    def test_orthonormal_unit_bounds(self):
        model = build_orthonormal_model(5)
        Y, weight, gamma, report, plan = singleton_setup(model)
        c1, c2 = hilbert_frame_bounds(model, plan)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_certified_plan_positive_lower_bound(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        assert report.invertibility_ok
        c1, c2 = hilbert_frame_bounds(model, plan)
        assert c1 > 0
        xs = plan.samples
        psi = model.vectors[:, xs] * np.sqrt(cov.measures)[None, :]
        ev = np.linalg.eigvalsh(psi @ psi.conj().T)
        assert c1 == pytest.approx(ev[0], rel=1e-10)
        assert c2 == pytest.approx(ev[-1], rel=1e-10)


class TestWeakerThresholds:
    def test_gap_instance_still_reconstructs(self, rng):
        """Invertibility condition fails but the sharp certificate holds:
        the whole decomposition pipeline still goes through."""
        model, Y, weight, cov, gamma, report, plan = make_setup(delta=0.30)
        assert report.oscillation_ok
        assert not report.invertibility_ok
        _, sharp = contraction_bounds(report)
        assert sharp < 1.0
        inverse = SamplingInverse(model, plan, Y, report=report)
        for _ in range(5):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = atomic_decomposition(inverse, f)
            assert np.linalg.norm(synthesize_plan(model, plan, lam) - f) \
                <= 1e-8 * np.linalg.norm(f)
            samples = model.analyze(f)[plan.samples]
            rec = reconstruct_from_samples(inverse, samples)
            assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


class TestVerifiedBounds:
    def test_no_violations_on_certified_setup(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        rep = verify_sampled_bounds(model, plan, Y, weight, report,
                                    n_trials=50, seed=3)
        assert rep.violations == 0
        assert rep.sampled_flat_observed <= rep.sampled_flat_constant + 1e-10
        assert rep.pou_pileup_observed <= rep.pou_pileup_constant + 1e-10
        assert rep.measure_observed <= rep.measure_constant + 1e-10
        assert rep.range_sup_observed <= rep.range_sup_constant + 1e-10

    def test_norm_equivalence_interval(self, rng):
        """Observed sampled-norm ratios sit inside the certified interval."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        _, sharp = contraction_bounds(report)
        d_const = schur_norm(model.space, sampled_row_kernel(model, plan), weight)
        n_over = cov.overlap_bound
        c_mu = report.c_mu
        c_plus = n_over ** 2 * c_mu ** 2 * max(1.0, cov.moderateness)
        c_measure = (report.osc_norm + report.r_norm) * c_plus
        lower = (1.0 - sharp) / c_measure
        for _ in range(20):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            F = model.analyze(f)
            ratio = norm_flat(F[plan.samples], cov, Y) / Y.norm(F)
            assert lower * (1 - 1e-9) <= ratio <= d_const * (1 + 1e-9)

    def test_sampled_measure_application_bound(self, rng):
        """Kernel applied to point masses at the sample points is controlled
        by the covering-neighborhood constant times the natural norm."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        c_plus = cov.overlap_bound ** 2 * report.c_mu ** 2 \
            * max(1.0, cov.moderateness)
        bound = (report.osc_norm + report.r_norm) * c_plus
        for _ in range(20):
            lam = rng.standard_normal(cov.n_sets) \
                + 1j * rng.standard_normal(cov.n_sets)
            spread = dense_kernel(model)[:, plan.samples] @ lam
            assert Y.norm(spread) <= bound * norm_natural(lam, cov, Y) * (1 + 1e-10)

    def test_natural_equivalence_interval_stable(self):
        """Dual-coefficient natural norms stay inside the certified interval,
        independently of the probe seed."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        _, sharp = contraction_bounds(report)
        d_const = schur_norm(model.space, sampled_row_kernel(model, plan), weight)
        upper = d_const / (1.0 - sharp)
        c_plus = cov.overlap_bound ** 2 * report.c_mu ** 2 \
            * max(1.0, cov.moderateness)
        lower = 1.0 / ((report.osc_norm + report.r_norm) * c_plus)
        for seed in (21, 22):
            res = residual_suite(inverse, n_trials=25, seed=seed)
            assert lower * (1 - 1e-9) <= res["natural_ratio_lo"]
            assert res["natural_ratio_hi"] <= upper * (1 + 1e-9)

    def test_cross_check_inversion_helper(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        gap = cross_check_inversion(inverse, n_trials=10, seed=4)
        assert gap is not None and gap <= 1e-9


class TestStreamedBounds:
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("covering", ["intervals", "boxes"])
    def test_constants_match_dense_oracles(self, covering, weight_rule):
        """The streamed sampled-row constant and the range-sup constant built
        from the report's m_v norms match naive Schur norms of the dense
        sampled-row, oscillation and reproducing kernels."""
        model = build_random_smooth_model(3, 24, 3.0, seed=1)
        space = model.space
        n = space.n_points
        rng = np.random.default_rng(5)
        cov = random_interval_covering(rng, space, 5) if covering == "intervals" \
            else uniform_covering(space, 3.0 / n)
        w = np.ones(n) if weight_rule == "unit" else random_pointwise_weight(rng, n)
        Y = WeightedLp(space, 2.0, w)
        weight = Y.weight2d(ref_index=4)
        report = oscillation_report(model, cov, make_phase(model, "kernel"),
                                    weight, 0.25)
        plan = select_samples(cov, build_pou(cov))
        bounds = verify_sampled_bounds(model, plan, Y, weight, report, n_trials=5)
        mu = space.weights
        m = weight_matrix_naive(weight.w)
        m_v = weight_matrix_naive(weight.v)
        assert bounds.sampled_flat_constant == pytest.approx(
            schur_norm_naive(mu, sampled_row_kernel(model, plan), m), rel=1e-13)
        osc = osc_naive(dense_kernel(model), [s.tolist() for s in cov.sets],
                        phase_table_naive(rank_d_entries(model), "kernel"))
        range_sup = (schur_norm_naive(mu, osc, m_v)
                     + schur_norm_naive(mu, dense_kernel(model), m_v)) \
            * local_integrability_constant(cov, Y, weight)
        assert bounds.range_sup_constant == pytest.approx(range_sup, rel=1e-13)

    def test_no_square_array_besides_the_kernel(self, monkeypatch):
        """With an eight-row block budget, the oscillation report, the bounds
        check and the reproducing defect each allocate less than one n x n
        float array; the model itself holds no kernel."""
        model = build_gabor_model(6, 81, 2.45)
        space = model.space
        n = space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 8 * 16 * n)
        cov = Covering(space, tuple(np.arange(t, t + 2) for t in range(0, n, 2)))
        Y = WeightedLp(space, 2.0, np.exp(0.02 * np.linalg.norm(space.points,
                                                                axis=1)))
        weight = Y.weight2d()
        gamma = make_phase(model, "kernel")
        plan = select_samples(cov, build_pou(cov))
        report = oscillation_report(model, cov, gamma, weight, 0.2)
        for run in (lambda: oscillation_report(model, cov, gamma, weight, 0.2),
                    lambda: verify_sampled_bounds(model, plan, Y, weight, report,
                                                  n_trials=5),
                    lambda: reproducing_defect(model)):
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
            result = run_discretization(model, Y, Y.weight2d(), 0.21,
                                        covering=cov, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.osc_report.oscillation_ok
        assert result.osc_report.invertibility_ok
        assert peak < 16 * n * n


class TestScaleInvariantNeumann:
    """The Neumann stopping rule is relative to each input's size."""

    @pytest.fixture(scope="class")
    def gabor_plan(self):
        model = build_gabor_model(6, 161, 2.45)
        Y = WeightedLp.lebesgue(model.space, 2.0)
        cov = uniform_covering(model.space, (1.0, 2 * 6 / 161))
        report = oscillation_report(model, cov, make_phase(model, "kernel"),
                                    Y.weight2d(), 0.2)
        return model, Y, select_samples(cov, build_pou(cov)), report

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-20])
    def test_matches_direct_at_every_scale(self, gabor_plan, scale):
        model, Y, plan, report = gabor_plan
        neu = SamplingInverse(model, plan, Y, method="neumann", report=report)
        dir_ = SamplingInverse(model, plan, Y, method="direct")
        rng = np.random.default_rng(5)
        for _ in range(5):
            F = scale * model.random_range_function(rng)
            gap = Y.norm(neu.apply(F) - dir_.apply(F))
            assert gap <= 1e-12 * Y.norm(F)
            assert len(neu.last_term_norms) > 2

    def test_block_columns_of_mixed_scale(self, gabor_plan):
        model, Y, plan, report = gabor_plan
        neu = SamplingInverse(model, plan, Y, method="neumann", report=report)
        dir_ = SamplingInverse(model, plan, Y, method="direct")
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((model.dim, 4)) \
            + 1j * rng.standard_normal((model.dim, 4))
        coords *= np.array([1.0, 1e-10, 1e-20, 0.0])
        got = neu._invert_coords(coords)
        want = dir_._invert_coords(coords)
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
        weight = WeightedLp(space, 2.0, w).weight2d()
        report = oscillation_report(model, cov, make_phase(model, "kernel"),
                                    weight, 0.25)
        return model, w, select_samples(cov, build_pou(cov)), report

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_neumann_apply_homogeneous(self, gabor_4x61, p):
        model, w, plan, report = gabor_4x61
        Y = WeightedLp(model.space, p, w)
        neu = SamplingInverse(model, plan, Y, method="neumann", report=report)
        F = model.random_range_function(np.random.default_rng(3))
        base = neu.apply(F)
        terms = len(neu.last_term_norms)
        assert terms > 2
        for scale in (1e-150, 1e-120, 1e150):
            got = neu.apply(scale * F)
            assert len(neu.last_term_norms) == terms
            assert Y.norm(scale * F) == pytest.approx(scale * Y.norm(F),
                                                      rel=1e-14)
            assert Y.norm(got - scale * base) <= 1e-14 * scale * Y.norm(base)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_streamed_neumann_norms_match_one_block(self, monkeypatch,
                                                    gabor_4x61, p, k):
        """The p != 2 term norms, streamed over row blocks of V* C, equal
        the Y-norms of the whole V* C, zero columns included."""
        model, w, plan, report = gabor_4x61
        Y = WeightedLp(model.space, p, w)
        neu = SamplingInverse(model, plan, Y, method="neumann", report=report)
        rng = np.random.default_rng(k)
        coords = rng.standard_normal((model.dim, k)) \
            + 1j * rng.standard_normal((model.dim, k))
        coords[:, -1] *= 1e-100
        if k > 1:
            coords[:, 0] = 0.0
        want = Y.column_norms(model.vectors.conj().T @ coords)
        for rows in (7, None):
            if rows is not None:
                monkeypatch.setattr(discretize_module, "NORM_BLOCK_BYTES",
                                    rows * 16 * k)
            got = neu._column_norms(coords)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        if k > 1:
            assert got[0] == 0.0


class TestBlocks:
    """Every helper taking one vector also takes a block, column by column."""

    def test_block_equals_columns(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        f = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for swap in (False, True):
            lam = atomic_decomposition(inverse, f, swap_roles=swap)
            assert lam.shape == (cov.n_sets, 4)
            samples = (model.dual_analyze if swap else model.analyze)
            block = np.stack([samples(f[:, j])[plan.samples] for j in range(4)],
                             axis=1)
            rec = reconstruct_from_samples(inverse, block, swap_roles=swap)
            syn = synthesize_plan(model, plan, lam, swap_roles=swap)

            def close(got, want):
                return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

            for j in range(4):
                assert close(lam[:, j], atomic_decomposition(
                    inverse, f[:, j], swap_roles=swap))
                assert close(rec[:, j], reconstruct_from_samples(
                    inverse, block[:, j], swap_roles=swap))
                assert close(syn[:, j], synthesize_plan(
                    model, plan, lam[:, j], swap_roles=swap))

    def test_inverse_apply_block_is_columnwise(self, rng):
        model, Y, weight, cov, gamma, report, plan = make_setup(p=1.0)
        inverse = SamplingInverse(model, plan, Y, report=report)
        F = np.stack([model.random_range_function(rng) for _ in range(3)],
                     axis=1)
        got = inverse.apply(F)
        assert got.shape == F.shape
        for j in range(3):
            want = inverse.apply(F[:, j])
            assert np.linalg.norm(got[:, j] - want) \
                <= 1e-12 * np.linalg.norm(want)

    def test_wrong_lengths_rejected(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        inverse = SamplingInverse(model, plan, Y, report=report)
        with pytest.raises(StructuralError):
            atomic_decomposition(inverse, np.ones(4))
        with pytest.raises(StructuralError):
            reconstruct_from_samples(inverse, np.ones(cov.n_sets + 1))
        with pytest.raises(StructuralError):
            synthesize_plan(model, plan, np.ones((cov.n_sets - 1, 2)))


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
        return model, select_samples(cov, build_pou(cov)), w

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_observed_contraction_matches_loop(self, gabor_4x61, p,
                                               weight_rule, tol):
        """tol = 1e-3 settles the power iteration after a few steps; 1e-10
        runs all of them."""
        model, plan, w = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        want = observed_contraction_naive(model, plan, Y, tol=tol, seed=4)
        got = observed_contraction(model, plan, Y, tol=tol, seed=4)
        assert want > 1e-4
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_observed_contraction_stops_at_first_step(self, monkeypatch, p):
        """m = Id - S^{-1} S_c vanishes on a singleton plan: exactly for the
        orthonormal basis (the image is zero, so the iteration keeps one
        iterate), to rounding for a smooth model (the first ratio settles)."""
        model = build_orthonormal_model(4)
        Y, weight, gamma, report, plan = singleton_setup(model, p=p)
        widths = []
        original = discretize_module._analysis_norms

        def recorded(analysis, Y, coords):
            widths.append(coords.shape[1])
            return original(analysis, Y, coords)

        monkeypatch.setattr(discretize_module, "_analysis_norms", recorded)
        assert observed_contraction(model, plan, Y, seed=3) == 0.0
        assert widths == [1, 1, 20, 20]
        assert observed_contraction_naive(model, plan, Y, seed=3) == 0.0
        model = build_random_smooth_model(3, 24, 2.0, seed=5)
        Y, weight, gamma, report, plan = singleton_setup(model, p=p)
        assert observed_contraction(model, plan, Y, seed=3) <= 1e-12
        assert observed_contraction_naive(model, plan, Y, seed=3) <= 1e-12

    @pytest.mark.parametrize("n_iter", [1, 7, 200])
    def test_observed_contraction_norm_calls(self, monkeypatch, gabor_4x61,
                                             n_iter):
        """The iterates, their images and the probes are three blocks and
        the probe images a fourth, whatever n_iter is."""
        model, plan, w = gabor_4x61
        Y = WeightedLp(model.space, 1.0, w["exp"])
        want = observed_contraction_naive(model, plan, Y, n_iter=n_iter)
        calls = {"column_norms": 0, "streamed_column_norms": 0}
        for name in calls:
            original = getattr(WeightedLp, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(WeightedLp, name, counted)
        got = observed_contraction(model, plan, Y, n_iter=n_iter)
        assert calls["column_norms"] <= 4
        assert calls["streamed_column_norms"] <= 4
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_measure_observed_matches_loop(self, monkeypatch, gabor_4x61, p,
                                           weight_rule):
        """The decomposition norms of all measure trials come from one
        density block; no trial calls ``decomposition_norm``."""
        model, plan, w = gabor_4x61
        Y = WeightedLp(model.space, p, w[weight_rule])
        weight = Y.weight2d()
        report = oscillation_report(model, plan.covering,
                                    make_phase(model, "kernel"), weight, 0.25)
        want = measure_observed_naive(model, plan, Y, n_trials=20, seed=6)
        calls = []
        original = spaces_module.decomposition_norm

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (discretize_module, spaces_module):
            monkeypatch.setattr(module, "decomposition_norm", counted,
                                raising=False)
        rep = verify_sampled_bounds(model, plan, Y, weight, report,
                                    n_trials=20, seed=6)
        assert not calls
        assert want > 0.0
        assert rep.measure_observed == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_dual_frame_inverts_once_for_both_roles(self, monkeypatch):
        model, Y, weight, cov, gamma, report, plan = make_setup(p=1.0)
        inverse = SamplingInverse(model, plan, Y, report=report)
        calls = []
        original = SamplingInverse._invert_coords

        def counted(self, coords):
            calls.append(coords.shape)
            return original(self, coords)

        monkeypatch.setattr(SamplingInverse, "_invert_coords", counted)
        duals = dual_frame(inverse)
        swapped = dual_frame(inverse, swap_roles=True)
        assert calls == [(model.dim, cov.n_sets)]
        assert np.array_equal(swapped, (model.frame_operator @ duals.T).T)
        assert not duals.flags.writeable

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_run_residuals_equal_standalone_suites(self, gabor_4x61, p):
        """The two role-swapped suites of a run share one dual-frame
        inversion and still report exactly what two separate suites, each
        with its own inverse, report."""
        model, plan, w = gabor_4x61
        cov = plan.covering
        Y = WeightedLp(model.space, p, w["exp"])
        weight = Y.weight2d()
        result = run_discretization(model, Y, weight, 0.25, covering=cov,
                                    n_trials=10, seed=3)
        report = oscillation_report(model, cov, make_phase(model, "kernel"),
                                    weight, 0.25)
        suites = [residual_suite(SamplingInverse(model, plan, Y, report=report),
                                 n_trials=10, seed=3 + swap,
                                 swap_roles=bool(swap))
                  for swap in (0, 1)]
        assert result.residuals == suites[0]
        assert result.residuals_swapped == suites[1]


class TestInverseHandle:
    """The inverse is the one handle of the sampled frame: the helpers read
    its model, plan, Y, report, tol and n_max, and a Neumann run builds one
    Neumann and one direct inverse."""

    def test_neumann_run_builds_two_inverses(self, monkeypatch):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        built = []
        init = SamplingInverse.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.method)

        monkeypatch.setattr(SamplingInverse, "__init__", counted)
        result = run_discretization(model, Y, weight, 0.25, covering=cov,
                                    n_trials=10, seed=3)
        monkeypatch.undo()
        assert sorted(built) == ["direct", "neumann"]
        neu = SamplingInverse(model, plan, Y, report=report)
        direct = SamplingInverse(model, plan, Y, method="direct")
        rng = np.random.default_rng(3)
        F = np.stack([model.random_range_function(rng) for _ in range(20)],
                     axis=1)
        gaps = Y.column_norms(neu.apply(F) - direct.apply(F)) / Y.column_norms(F)
        assert result.cross_method_gap == float(gaps.max())

    def test_cross_check_from_a_direct_inverse(self):
        """A direct inverse checks against a Neumann inverse built from its
        report, tol and n_max; without a report there is none."""
        model, Y, weight, cov, gamma, report, plan = make_setup()
        gaps = []
        for tol in (1e-12, 1e-4):
            neu = SamplingInverse(model, plan, Y, tol=tol, report=report)
            direct = SamplingInverse(model, plan, Y, method="direct", tol=tol,
                                     report=report)
            gaps.append(cross_check_inversion(direct, n_trials=10, seed=4))
            assert gaps[-1] == cross_check_inversion(neu, n_trials=10, seed=4)
        assert gaps[1] > 100 * gaps[0]       # the looser tol was used
        bare = SamplingInverse(model, plan, Y, method="direct")
        assert cross_check_inversion(bare, n_trials=10, seed=4) is None

    def test_direct_inverse_forms_no_metric(self):
        model, Y, weight, cov, gamma, report, plan = make_setup()
        assert SamplingInverse(model, plan, Y, method="direct")._metric is None
        assert SamplingInverse(model, plan, Y, report=report)._metric is not None


class TestReproducingDefect:
    """The d x d defect against the dense n^3 composition."""

    def test_matches_dense_compose(self):
        model = build_random_smooth_model(5, 40, 1.5, seed=3)
        r = dense_kernel(model)
        dense = schur_norm(model.space, compose(model.space, r, r) - r)
        assert abs(reproducing_defect(model) - dense) <= 1e-12

    def test_matches_dense_compose_off_identity(self):
        """With S^{-1} replaced by 1.1 S^{-1} the kernel is no longer
        idempotent, so both sides are far from zero and must agree."""
        import copy
        model = copy.copy(build_random_smooth_model(5, 40, 1.5, seed=3))
        model.s_inverse = 1.1 * model.s_inverse
        k = model.vectors.conj().T @ (model.s_inverse @ model.vectors)
        dense = schur_norm(model.space, compose(model.space, k, k) - k)
        assert dense > 0.05
        assert reproducing_defect(model) == pytest.approx(dense, rel=1e-12)
