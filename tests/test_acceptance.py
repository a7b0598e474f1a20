"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The certified time-frequency configurations used below were chosen so that
the measured oscillation norm sits strictly inside the invertibility budget;
frequency counts are odd so that the sampled sublattice is not harmonic and
the sampling operator genuinely differs from the identity.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from framedisc import PhaseFunction, SamplingInverse, Weight2D, WeightedLp, \
    hilbert_frame_bounds, \
    invertibility_condition, observed_contraction, oscillation_norms, \
    oscillation_report, singleton_covering, uniform_covering, uniform_grid, \
    verification_suite
from framedisc.cli import main
from framedisc.coverings import Covering, weight_compatibility
from framedisc.models import build_gabor_model, build_random_smooth_model

from conftest import random_kernel, random_pointwise_weight
from oracles import compose, dense_kernel, osc_naive, oscillation_kernel, \
    phase_table_naive, rank_d_entries, schur_norm_naive, weight_matrix_naive
from theory import SequenceNorms, flat_equivalence_interval, lp_sequence_norm, \
    neighbor_sums, norm_flat, norm_natural, permutation_kernel, \
    random_admissible_permutation, schur_norm, sets_of, \
    sup_embedding_report, transfer_kernel


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


GABOR_CONFIGS = (
    # (n_time, n_freq, window, freq_box_points, p, delta)
    (6, 161, 2.45, 2, 2.0, 0.20),
    (6, 191, 2.45, 2, 1.0, 0.18),
    (8, 191, 2.83, 2, 2.0, 0.21),
    (6, 255, 2.45, 3, np.inf, 0.21),
    (8, 8, 2.83, None, 2.0, 0.22),   # singleton covering: zero oscillation
)


@pytest.fixture(scope="module")
def certified_runs():
    """Build every frozen configuration once; reused by criteria 4, 5, 6, 9."""
    t0 = time.time()
    runs = []
    for n_time, n_freq, width, box_pts, p, delta in GABOR_CONFIGS:
        model = build_gabor_model(n_time, n_freq, width)
        space = model.space
        Y = WeightedLp.lebesgue(space, p)
        weight = Y.weight2d()
        if box_pts is None:
            cov = singleton_covering(space)
        else:
            cov = uniform_covering(space, (1.0, box_pts * n_time / n_freq))
        gamma = PhaseFunction(model, "kernel")
        report = oscillation_report(model, cov, gamma, weight, delta)
        runs.append({
            "label": f"d{n_time}-nf{n_freq}-p{p}",
            "model": model, "Y": Y, "weight": weight, "cov": cov,
            "gamma": gamma, "report": report,
        })
    return {"runs": runs, "build_seconds": time.time() - t0}


def test_criterion_1_reproducing_identity():
    with criterion(1, "reproducing identity for both built-in models"):
        t0 = time.time()
        gabor = build_gabor_model(32, 32, 5.7)
        r = dense_kernel(gabor)
        defect = schur_norm(gabor.space, compose(gabor.space, r, r) - r)
        assert defect <= 1e-10
        smooth = build_random_smooth_model(16, 256, 2.0, seed=0)
        r = dense_kernel(smooth)
        defect = schur_norm(smooth.space, compose(smooth.space, r, r) - r)
        assert defect <= 1e-10
        assert time.time() - t0 <= 30.0


def test_criterion_2_schur_norm_oracle():
    with criterion(2, "Schur norm equals brute force; submultiplicativity"):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 25))
            space = uniform_grid(n, weights=rng.uniform(0.1, 2.0, n))
            k = random_kernel(rng, n)
            m = Weight2D(space, random_pointwise_weight(rng, n))
            got = schur_norm(space, k, m)
            want = schur_norm_naive(space.weights, k, weight_matrix_naive(m.w))
            assert abs(got - want) <= 1e-13 * want
            k2 = random_kernel(rng, n)
            lhs = schur_norm(space, compose(space, k, k2), m)
            assert lhs <= schur_norm(space, k, m) * schur_norm(space, k2, m) \
                + 1e-12


def test_criterion_3_oscillation_oracle():
    with criterion(3, "oscillation kernel matches triple loop; singleton zero"):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(6, 13))
            d = int(rng.integers(2, min(5, n)))
            model = build_random_smooth_model(d, n, 1.5, seed=trial)
            edges = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
            pieces = np.split(np.arange(n), edges)
            sets = [p for p in pieces if p.size] + [np.arange(n // 2 + 1)]
            cov = Covering(model.space, tuple(sets))
            rule = "kernel" if trial % 2 else "one"
            gamma = PhaseFunction(model, rule)
            got = oscillation_kernel(model, cov, gamma)
            want = osc_naive(dense_kernel(model), [s.tolist() for s in sets],
                             phase_table_naive(rank_d_entries(model), rule))
            assert np.max(np.abs(got - want)) <= 1e-14
            streamed = oscillation_norms(model, cov, gamma, None)
            assert streamed == pytest.approx(
                schur_norm_naive(model.space.weights, want), rel=1e-13)
            singleton = singleton_covering(model.space)
            assert np.all(oscillation_kernel(model, singleton, gamma) == 0.0)


def test_criterion_4_contraction_certificates(certified_runs):
    with criterion(4, "contraction certificate on certified configurations"):
        t0 = time.time()
        n_certified = 0
        for run in certified_runs["runs"]:
            report = run["report"]
            assert report.oscillation_ok and report.invertibility_ok, run["label"]
            n_certified += 1
            _, sharp = report.contraction_bounds
            inverse = SamplingInverse(report, run["Y"])
            observed = observed_contraction(inverse, seed=0)
            assert observed <= sharp + 1e-9, run["label"]
        assert n_certified >= 5
        lhs, ok = invertibility_condition(0.4, 1.0, 1.0)
        assert ok and abs(lhs - 0.96) <= 1e-12
        lhs, ok = invertibility_condition(0.5, 1.0, 1.0)
        assert (not ok) and abs(lhs - 1.25) <= 1e-12
        assert certified_runs["build_seconds"] + (time.time() - t0) <= 120.0


def test_criterion_5_end_to_end_decomposition(certified_runs):
    with criterion(5, "atomic decomposition / sampled-frame round trips"):
        for run in certified_runs["runs"]:
            inverse = SamplingInverse(run["report"], run["Y"],
                                      method="neumann")
            checks = verification_suite(inverse, n_trials=50, seed=5)
            res = checks["residuals"]
            assert res["atomic_max"] <= 1e-8, run["label"]
            assert res["banach_max"] <= 1e-8, run["label"]
            assert res["duality_max"] <= 1e-10, run["label"]
            assert res["dual_expansion_max"] <= 1e-8, run["label"]
            assert res["sample_expansion_max"] <= 1e-8, run["label"]
            gap = checks["cross_method_gap"]
            assert gap is not None and gap <= 1e-9, run["label"]


def test_criterion_6_swapped_roles(certified_runs):
    with criterion(6, "same residual suite with analysis roles exchanged"):
        for run in certified_runs["runs"]:
            inverse = SamplingInverse(run["report"], run["Y"],
                                      method="neumann")
            # the swapped role draws its trials from seed + 1 = 7
            res = verification_suite(inverse, n_trials=50,
                                     seed=6)["residuals_swapped"]
            assert res["atomic_max"] <= 1e-8, run["label"]
            assert res["banach_max"] <= 1e-8, run["label"]
            assert res["duality_max"] <= 1e-10, run["label"]
            assert res["dual_expansion_max"] <= 1e-8, run["label"]
            assert res["sample_expansion_max"] <= 1e-8, run["label"]


def test_criterion_7_sequence_norm_sandwich():
    with criterion(7, "two-sided pile-up norm equivalence, zero violations"):
        rng = np.random.default_rng(3)
        space = uniform_grid(48, spacing=1 / 48, weights=1 / 48)
        w = np.exp(space.points[:, 0])
        cov = uniform_covering(space, 6 / 48, overlap=2 / 48)
        for p in (1.0, 2.0, np.inf):
            Y = WeightedLp(space, p, w)
            m = Y.weight2d()
            lo, hi = flat_equivalence_interval(cov, m)
            sn = SequenceNorms.build(cov, Y, m)
            for _ in range(50):
                lam = rng.standard_normal(cov.n_sets) \
                    + 1j * rng.standard_normal(cov.n_sets)
                ref = lp_sequence_norm(lam, sn.flat_weights, p)
                val = norm_flat(lam, cov, Y)
                assert lo * ref * (1 - 1e-12) <= val <= hi * ref * (1 + 1e-12)
                ref = lp_sequence_norm(lam, sn.natural_weights, p)
                val = norm_natural(lam, cov, Y)
                assert lo * ref * (1 - 1e-12) <= val <= hi * ref * (1 + 1e-12)


def test_criterion_8_kernel_inequality_suite(certified_runs):
    with criterion(8, "kernel-derived constants dominate observed ratios"):
        rng = np.random.default_rng(12)
        space = uniform_grid(48, spacing=1 / 48, weights=1 / 48)
        w = np.exp(space.points[:, 0])
        Y = WeightedLp(space, 2.0, w)
        m = Y.weight2d()
        cov_u = uniform_covering(space, 6 / 48, overlap=2 / 48)

        # transfer kernel between equivalent coverings
        cov_v = Covering(space, tuple(np.clip(s + 1, 0, 47) for s in sets_of(cov_u)))
        bound = schur_norm(space, transfer_kernel(cov_u, cov_v), m)
        for _ in range(50):
            lam = rng.standard_normal(cov_u.n_sets)
            assert norm_flat(lam, cov_u, Y) \
                <= bound * norm_flat(lam, cov_v, Y) + 1e-10

        # neighbor-sum relabeling kernels
        n_over = cov_u.overlap_bound
        c_mu = weight_compatibility(cov_u, m)
        per_side = c_mu ** 2 * max(n_over, cov_u.moderateness * n_over)
        pis = [np.arange(cov_u.n_sets)]
        for _ in range(20):
            pi = random_admissible_permutation(cov_u, rng)
            if pi is not None:
                pis.append(pi)
        k_norms = [schur_norm(space, permutation_kernel(cov_u, pi), m)
                   for pi in pis]
        assert all(v <= per_side + 1e-10 for v in k_norms)
        c_sampled = n_over * max(k_norms)
        for _ in range(50):
            lam = np.abs(rng.standard_normal(cov_u.n_sets))
            assert norm_natural(neighbor_sums(cov_u, lam), cov_u, Y) \
                <= c_sampled * norm_natural(lam, cov_u, Y) + 1e-10

        # single-coefficient bound through the set-pair kernels
        rep = sup_embedding_report(cov_u, Y, m, n_trials=50, seed=2)
        assert rep.observed_constant <= rep.apriori_constant + 1e-10

        # sampled-kernel inequalities on every certified configuration
        for run in certified_runs["runs"]:
            inverse = SamplingInverse(run["report"], run["Y"])
            rep = verification_suite(inverse, n_trials=50, seed=8)["bounds"]
            assert rep["violations"] == 0, run["label"]
            for pair in (("D_observed", "D_const"),
                         ("sigma_observed", "sigma_const"),
                         ("measure_observed", "measure_const"),
                         ("range_sup_observed", "range_sup_const")):
                assert rep[pair[0]] <= rep[pair[1]] + 1e-10


def test_criterion_9_hilbert_frame_bounds(certified_runs):
    with criterion(9, "sampled frame bounds: singleton exactness, positivity"):
        model = build_random_smooth_model(6, 64, 2.0, seed=4)
        cov = singleton_covering(model.space)
        c1, c2 = hilbert_frame_bounds(model, cov)
        ev = model.s_eigenvalues
        assert abs(c1 - ev[0]) <= 1e-10
        assert abs(c2 - ev[-1]) <= 1e-10
        for run in certified_runs["runs"]:
            c1, _ = hilbert_frame_bounds(run["model"], run["cov"])
            assert c1 > 0.0, run["label"]


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "byte-identical reports for identical config and seed"):
        args = ["discretize", "--model-kind", "random-smooth", "--dim", "3",
                "--n-points", "96", "--smoothness", "3.0", "--model-seed", "1",
                "--covering-width", str(2 / 96), "--delta", "0.25",
                "--seed", "11", "--n-trials", "10"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
