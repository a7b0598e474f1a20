import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import Covering, SamplingInverse, StructuralError, \
    WeightedLp, build_gabor_model, build_pou, cell_space, \
    local_integrability_constant, pileup_norms, select_samples, \
    singleton_covering, uniform_covering, uniform_grid
from framedisc.coverings import weight_compatibility
from framedisc.spaces import streamed_norms, sup_infinity_space

from conftest import unit_weight
from oracles import lp_norm_naive, membership_naive, pileup_naive, set_masses_naive
from theory import DiscreteMeasure, SequenceNorms, check_m_equivalent, \
    decomposition_norm, flat_equivalence_interval, integrate, \
    lp_sequence_norm, neighbor_sums, norm_flat, norm_natural, \
    permutation_kernel, pileup, random_admissible_permutation, schur_norm, \
    sets_of, sup_embedding_report, transfer_kernel

P_VALUES = (1.0, 2.0, np.inf)


@pytest.fixture
def weighted_setup(rng):
    space = uniform_grid(48, spacing=1 / 48, weights=1 / 48)
    w = np.exp(space.points[:, 0])
    cov = uniform_covering(space, 6 / 48, overlap=2 / 48)
    return space, w, cov


class TestNormY:
    def test_indicator_l1(self, small_space):
        Y = WeightedLp.lebesgue(small_space, 1.0)
        chi = np.zeros(5)
        chi[3] = 1.0
        assert Y.norm(chi) == small_space.weights[3]

    def test_l2_matches_integral(self, small_space, rng):
        Y = WeightedLp.lebesgue(small_space, 2.0)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        want = np.sqrt(integrate(small_space, np.abs(f) ** 2).real)
        assert Y.norm(f) == pytest.approx(want, rel=1e-14)

    def test_sup_norm_matches_loop(self, rng):
        space = uniform_grid(16, weights=rng.uniform(0.1, 1.0, 16))
        w = rng.uniform(0.5, 2.0, 16)
        Y = WeightedLp(space, np.inf, w)
        f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert Y.norm(f) == pytest.approx(
            lp_norm_naive(space.weights, w, f, np.inf), rel=1e-15)

    def test_norms_match_naive_all_p(self, rng):
        space = uniform_grid(12, weights=rng.uniform(0.1, 1.0, 12))
        w = rng.uniform(0.5, 2.0, 12)
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for p in P_VALUES:
            got = WeightedLp(space, p, w).norm(f)
            want = lp_norm_naive(space.weights, w, f, p)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_streamed_norms_match_naive(self, weighted_setup, rng, p):
        """Every column of a block fed in uneven pieces, zero columns and a
        column zero on all but one piece included, against the loop."""
        space, w, _ = weighted_setup
        Y = WeightedLp(space, p, w)
        n = space.n_points
        block = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        block[:, 1] = 0.0
        block[:n - 4, 3] = 0.0
        block[:, 4] *= 1e-150
        cuts = [0, 1, 7, 20, 21, n]
        pieces = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        got = streamed_norms([Y], ((rows, block[rows]) for rows in pieces))[0]
        want = [lp_norm_naive(space.weights, w, block[:, j], p) for j in range(4)]
        assert got[1] == 0.0
        assert np.allclose(got[:4], want, rtol=1e-14, atol=0.0)
        assert got[4] == pytest.approx(1e-150 * lp_norm_naive(
            space.weights, w, block[:, 4] * 1e150, p), rel=1e-14)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_solidity(self, seed):
        r = np.random.default_rng(seed)
        space = uniform_grid(10, weights=r.uniform(0.1, 1.0, 10))
        w = r.uniform(0.5, 2.0, 10)
        big = r.standard_normal(10) + 1j * r.standard_normal(10)
        small = big * r.uniform(0.0, 1.0, 10)
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            assert Y.norm(small) <= Y.norm(big) * (1 + 1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_norms_homogeneous_at_extreme_scales(self, weighted_setup, rng, p):
        """|s F|_Y = s |F|_Y for s in 1e+-150 and 1e-200: no power of an
        unscaled value underflows to 0 or overflows to inf."""
        space, w, _ = weighted_setup
        Y = WeightedLp(space, p, w)
        block = rng.standard_normal((space.n_points, 3)) \
            + 1j * rng.standard_normal((space.n_points, 3))
        block[:, 2] = 0.0
        base = Y.column_norms(block)
        assert base[2] == 0.0
        for scale in (1e-200, 1e-150, 1e150):
            got = Y.column_norms(scale * block)
            assert got[2] == 0.0
            assert np.allclose(got[:2], scale * base[:2], rtol=1e-14, atol=0.0)
            assert Y.norm(scale * block[:, 0]) == pytest.approx(
                scale * base[0], rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_streamed_pieces_match_one_block(self, weighted_setup, rng, p):
        """Pieces in any row order, with the column maxima in late pieces,
        give the one-block norms."""
        space, w, _ = weighted_setup
        Y = WeightedLp(space, p, w)
        n = space.n_points
        block = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        block[:, 0] *= 1e-120
        block[n - 3, 1] = 1e3           # a late piece raises column 1's maximum
        block[:, 3] = 0.0
        pieces = [slice(start, min(n, start + 7)) for start in range(0, n, 7)]
        got = streamed_norms([Y], ((rows, block[rows])
                                  for rows in pieces[::-1]))[0]
        assert np.allclose(got, Y.column_norms(block), rtol=1e-14, atol=0.0)
        got = streamed_norms([Y], ((rows, block[rows]) for rows in pieces))[0]
        assert np.allclose(got, Y.column_norms(block), rtol=1e-14, atol=0.0)
        assert got[3] == 0.0

    def test_indicator_norm_finite_positive(self, weighted_setup):
        space, w, cov = weighted_setup
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            member = membership_naive(sets_of(cov), space.n_points)
            for i in range(min(3, cov.n_sets)):
                val = Y.norm(member[i].astype(float))
                assert np.isfinite(val) and val > 0


class TestSequenceNorms:
    def test_flat_partition_l1(self, grid64, rng):
        cov = uniform_covering(grid64, 8.0)
        Y = WeightedLp.lebesgue(grid64, 1.0)
        lam = rng.standard_normal(cov.n_sets) + 1j * rng.standard_normal(cov.n_sets)
        want = np.sum(np.abs(lam) * cov.measures)
        assert norm_flat(lam, cov, Y) == pytest.approx(want, rel=1e-13)

    def test_single_indicator(self, grid64):
        cov = uniform_covering(grid64, 8.0, overlap=4.0)
        Y = WeightedLp.lebesgue(grid64, 2.0)
        lam = np.zeros(cov.n_sets)
        lam[2] = 1.0
        assert norm_flat(lam, cov, Y) == pytest.approx(
            Y.norm(membership_naive(sets_of(cov), 64)[2].astype(float)), rel=1e-14)

    def test_natural_partition_counts(self, grid64, rng):
        cov = uniform_covering(grid64, 8.0)
        Y = WeightedLp.lebesgue(grid64, 1.0)
        lam = rng.standard_normal(cov.n_sets)
        assert norm_natural(lam, cov, Y) == pytest.approx(
            np.sum(np.abs(lam)), rel=1e-13)

    def test_natural_flat_substitution(self, weighted_setup, rng):
        space, w, cov = weighted_setup
        Y = WeightedLp(space, 2.0, w)
        lam = rng.standard_normal(cov.n_sets) + 1j * rng.standard_normal(cov.n_sets)
        assert norm_natural(cov.measures * lam, cov, Y) == pytest.approx(
            norm_flat(lam, cov, Y), rel=1e-14)

    def test_flat_and_natural_weights_related(self, weighted_setup):
        space, w, cov = weighted_setup
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            sn = SequenceNorms.build(cov, Y, Y.weight2d())
            assert np.allclose(sn.flat_weights,
                               sn.natural_weights * cov.measures, rtol=1e-14)

    def test_two_sided_equivalence(self, weighted_setup, rng):
        """Pile-up norms sandwiched between weighted l^p norms."""
        space, w, cov = weighted_setup
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            m = Y.weight2d()
            lo, hi = flat_equivalence_interval(cov, m)
            sn = SequenceNorms.build(cov, Y, m)
            for _ in range(50):
                lam = rng.standard_normal(cov.n_sets) \
                    + 1j * rng.standard_normal(cov.n_sets)
                ref_flat = lp_sequence_norm(lam, sn.flat_weights, p)
                val_flat = norm_flat(lam, cov, Y)
                assert lo * ref_flat * (1 - 1e-12) <= val_flat \
                    <= hi * ref_flat * (1 + 1e-12)
                ref_nat = lp_sequence_norm(lam, sn.natural_weights, p)
                val_nat = norm_natural(lam, cov, Y)
                assert lo * ref_nat * (1 - 1e-12) <= val_nat \
                    <= hi * ref_nat * (1 + 1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sequence_solidity(self, seed):
        r = np.random.default_rng(seed)
        space = uniform_grid(24, weights=1.0)
        cov = uniform_covering(space, 5.0, overlap=2.0)
        Y = WeightedLp.lebesgue(space, 2.0)
        big = r.standard_normal(cov.n_sets) + 1j * r.standard_normal(cov.n_sets)
        small = big * r.uniform(0.0, 1.0, cov.n_sets)
        assert norm_flat(small, cov, Y) <= norm_flat(big, cov, Y) * (1 + 1e-14)
        assert norm_natural(small, cov, Y) <= norm_natural(big, cov, Y) * (1 + 1e-14)

    def test_length_mismatch(self, grid64):
        cov = uniform_covering(grid64, 8.0)
        with pytest.raises(StructuralError):
            norm_flat(np.ones(3), cov, WeightedLp.lebesgue(grid64, 1.0))


class TestDualSpace:
    """``WeightedLp.dual`` is L^q_{1/w}: its norm of g >= 0 is the sharp
    constant of sum_x mu_x g(x) |F(x)| <= C |F|_Y."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_dual_norm_is_sharp(self, weighted_setup, rng, p):
        """The inequality holds on random F and is attained: at
        F = (g/w)^(q-1) / w for finite q, at the point of the largest g/w
        for p = 1."""
        space, w, _ = weighted_setup
        mu = space.weights
        Y = WeightedLp(space, p, w)
        g = rng.uniform(0.0, 3.0, space.n_points)
        c = Y.dual().norm(g)
        for _ in range(20):
            f = rng.standard_normal(space.n_points)
            assert mu @ (g * np.abs(f)) <= c * Y.norm(f) * (1 + 1e-13)
        if p == 1.0:
            f = np.zeros(space.n_points)
            f[np.argmax(g / w)] = 1.0
        elif np.isinf(p):
            f = 1.0 / w
        else:
            f = (g / w) ** (1.0 / (p - 1.0)) / w
        assert mu @ (g * f) == pytest.approx(c * Y.norm(f), rel=1e-13)

    @pytest.mark.parametrize("w0", [0.1, 1e-3])
    @pytest.mark.parametrize("p", [1.001, 1.0001])
    def test_holder_constant_finite_near_p_one(self, p, w0):
        """With w < 1 and p near one, (1/w)^q overflows; the Hoelder
        constant, the dual norm of chi_Q, stays finite and equals
        max(1/w) mu(Q)^(1/q) on constant w and mu, and so does the local
        integrability constant built on it."""
        space = uniform_grid(10, weights=0.1)
        Y = WeightedLp(space, p, np.full(10, w0))
        q = p / (p - 1.0)
        c = Y.holder_l1_constant(np.arange(5))
        assert c == pytest.approx(0.5 ** (1.0 / q) / w0, rel=1e-13)
        cov = uniform_covering(space, 5.0)
        assert np.isfinite(local_integrability_constant(cov, Y, Y.weight2d()))


@pytest.mark.parametrize("weight_rule", ["unit", "exp"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_range_metric(p, weight_rule):
    """At p = 2, sqrt(a* M a) is the Y-norm of V* a, on columns of any
    scale; at any other p there is no metric. An inverse handle's
    ``range_norms`` with extra spaces gives, bit for bit, what separate
    calls give, with and without a metric."""
    model = build_gabor_model(4, 61, 2.0)
    space = model.space
    w = np.ones(space.n_points) if weight_rule == "unit" \
        else np.exp(0.02 * np.linalg.norm(space.points, axis=1))
    Y = WeightedLp(space, p, w)
    metric = Y.range_metric(model.vectors)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((model.dim, 4)) \
        + 1j * rng.standard_normal((model.dim, 4))
    a *= np.array([1.0, 1e300, 1e-300, 0.0])
    if p == 2.0:
        top = np.abs(a).max(axis=0)
        unit = a / np.where(top > 0.0, top, 1.0)
        got = top * np.sqrt(np.einsum("ij,ij->j", unit.conj(),
                                      metric @ unit).real)
        want = Y.column_norms(model.vectors.conj().T @ a)
        assert got[3] == want[3] == 0.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    else:
        assert metric is None
    inverse = SamplingInverse(model, select_samples(build_pou(
        singleton_covering(space))), Y, method="direct")
    extra = [WeightedLp(space, np.inf, 1.0 / w), WeightedLp(space, 1.0, w)]
    together = inverse.range_norms(a, extra)
    alone = [inverse.range_norms(a, [s])[0] for s in extra] \
        + [inverse.range_norms(a)]
    assert len(together) == 3
    for got, want in zip(together, alone):
        assert np.array_equal(got, want)


class TestSupEmbedding:
    def test_singleton_covering_sup_space(self, small_space):
        cov = singleton_covering(small_space)
        Y = WeightedLp.lebesgue(small_space, np.inf)
        rep = sup_embedding_report(cov, Y, unit_weight(small_space),
                                   n_trials=50, seed=1)
        assert rep.observed_constant <= 1.0 + 1e-12
        assert rep.apriori_constant >= rep.observed_constant - 1e-12

    def test_dirac_sequences_bounded(self, weighted_setup):
        space, w, cov = weighted_setup
        Y = WeightedLp(space, 2.0, w)
        weight = Y.weight2d()
        sn = SequenceNorms.build(cov, Y, weight)
        rep = sup_embedding_report(cov, Y, weight, n_trials=0, seed=0)
        for j in range(cov.n_sets):
            delta = np.zeros(cov.n_sets)
            delta[j] = 1.0
            bound = rep.apriori_constant * sn.sup_trace[j] \
                * norm_natural(delta, cov, Y)
            assert 1.0 <= bound * (1 + 1e-12)

    def test_apriori_dominates_observed(self, weighted_setup):
        space, w, cov = weighted_setup
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            rep = sup_embedding_report(cov, Y, Y.weight2d(), n_trials=100, seed=3)
            assert rep.apriori_constant >= rep.observed_constant * (1 - 1e-12)


    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_one_probe_at_a_time(self, weighted_setup, p):
        """The report equals the same probes built one unit vector at a time."""
        space, w, cov = weighted_setup
        Y = WeightedLp(space, p, w)
        weight = Y.weight2d()
        rep = sup_embedding_report(cov, Y, weight, n_trials=20, seed=4)
        trace = SequenceNorms.build(cov, Y, weight).sup_trace
        rng = np.random.default_rng(4)
        n = cov.n_sets
        probes = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            probes.append(e)
        probes += [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for _ in range(20)]
        observed = 0.0
        for lam in probes:
            nat = norm_natural(lam, cov, Y)
            if nat > 0.0:
                observed = max(observed,
                               float(np.max(np.abs(lam) / (trace * nat))))
        assert rep.observed_constant == observed
        assert np.array_equal(rep.sup_trace, trace)


class TestDecompositionNorm:
    def test_dirac_on_singleton_partition(self, small_space):
        cov = singleton_covering(small_space)
        Y = WeightedLp.lebesgue(small_space, 2.0)
        nu = DiscreteMeasure.dirac(2)
        delta = np.zeros(5)
        delta[2] = 1.0
        assert decomposition_norm(nu, cov, Y) == pytest.approx(
            norm_natural(delta, cov, Y), rel=1e-14)

    def test_zero_function(self, weighted_setup):
        space, w, cov = weighted_setup
        Y = WeightedLp(space, 1.0, w)
        assert decomposition_norm(np.zeros(space.n_points), cov, Y) == 0.0

    def test_local_integrability_bound(self, weighted_setup, rng):
        """Natural sup-space mass of any function is dominated through the
        set-pair kernel constant."""
        space, w, cov = weighted_setup
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            weight = Y.weight2d()
            c = local_integrability_constant(cov, Y, weight)
            sup_nat = sup_infinity_space(Y, weight)
            for _ in range(50):
                f = rng.standard_normal(space.n_points) \
                    + 1j * rng.standard_normal(space.n_points)
                lhs = decomposition_norm(f, cov, sup_nat)
                assert lhs <= c * Y.norm(f) * (1 + 1e-12)


class TestCoveringTransfer:
    def test_pileup_transfer_bound(self, weighted_setup, rng):
        """Pile-ups over one covering controlled through the transfer kernel."""
        space, w, cov_u = weighted_setup
        cov_v = Covering(space, tuple(np.clip(s + 1, 0, space.n_points - 1)
                                      for s in sets_of(cov_u)))
        L = transfer_kernel(cov_u, cov_v)
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            m = Y.weight2d()
            rep = check_m_equivalent(cov_u, cov_v, m)
            assert rep.equivalent
            bound = schur_norm(space, L, m)
            for _ in range(50):
                lam = rng.standard_normal(cov_u.n_sets)
                assert norm_flat(lam, cov_u, Y) <= \
                    bound * norm_flat(lam, cov_v, Y) * (1 + 1e-12)

    def test_neighbor_sum_bound(self, weighted_setup, rng):
        """Neighbor aggregation bounded by the permutation-kernel constants."""
        space, w, cov = weighted_setup
        Y = WeightedLp(space, 2.0, w)
        m = Y.weight2d()
        n_over = cov.overlap_bound
        c_mu = weight_compatibility(cov, m)
        c_tilde = cov.moderateness
        per_side = c_mu ** 2 * max(n_over, c_tilde * n_over)
        pis = [np.arange(cov.n_sets)]
        for _ in range(20):
            pi = random_admissible_permutation(cov, rng)
            if pi is not None:
                pis.append(pi)
        norms = [schur_norm(space, permutation_kernel(cov, pi), m) for pi in pis]
        for val in norms:
            assert val <= per_side * (1 + 1e-10)
        c_sampled = n_over * max(norms)
        c_grand = n_over * per_side
        for _ in range(50):
            lam = np.abs(rng.standard_normal(cov.n_sets))
            plus = neighbor_sums(cov, lam)
            lhs = norm_natural(plus, cov, Y)
            rhs = norm_natural(lam, cov, Y)
            assert lhs <= c_grand * rhs * (1 + 1e-10)
            assert lhs <= c_sampled * rhs * (1 + 1e-10)


def test_pileup_values(grid64, rng):
    cov = uniform_covering(grid64, 8.0, overlap=4.0)
    lam = rng.standard_normal(cov.n_sets) + 1j * rng.standard_normal(cov.n_sets)
    pile = pileup(lam, cov)
    x = 11
    member = membership_naive(sets_of(cov), 64)
    want = sum(abs(lam[i]) for i in range(cov.n_sets) if member[i, x])
    assert pile[x] == pytest.approx(want, rel=1e-13)


class TestScatterGatherSums:
    """Pile-ups and per-set masses against plain loops over the sets."""

    @pytest.fixture(params=[0.0, 4.0, 6.0])
    def overlapping(self, request, rng):
        space = uniform_grid(64, spacing=1.0, weights=rng.uniform(0.5, 2.0, 64))
        return uniform_covering(space, 8.0, overlap=request.param)

    def test_pileup_flat_and_natural(self, overlapping, rng):
        cov = overlapping
        n = cov.space.n_points
        lam = rng.standard_normal(cov.n_sets) + 1j * rng.standard_normal(cov.n_sets)
        assert np.allclose(pileup(lam, cov), pileup_naive(sets_of(cov), n, lam),
                           rtol=1e-14, atol=0.0)
        assert np.allclose(pileup(lam, cov, natural=True),
                           pileup_naive(sets_of(cov), n, lam, cov.measures),
                           rtol=1e-14, atol=0.0)

    def test_pileup_block_is_columnwise(self, overlapping, rng):
        cov = overlapping
        block = rng.standard_normal((cov.n_sets, 5))
        for natural in (False, True):
            got = pileup(block, cov, natural=natural)
            assert got.shape == (cov.space.n_points, 5)
            for j in range(5):
                assert np.array_equal(got[:, j], pileup(block[:, j], cov,
                                                        natural=natural))

    @pytest.mark.parametrize("p", P_VALUES)
    def test_pileup_norms_on_cells(self, overlapping, rng, p):
        """For the flat and the smooth partition, every flat, natural and
        partition-weighted pile-up is constant on each cell, and its Y-norm
        taken on the cells matches the norm of the whole pile-up; the flat
        partition's cells are the classes of points held by the same sets.
        A Y not collapsed on the cells is refused."""
        cov = overlapping
        n = cov.space.n_points
        Y = WeightedLp(cov.space, p, rng.uniform(0.5, 2.0, n))
        block = rng.standard_normal((cov.n_sets, 3)) \
            + 1j * rng.standard_normal((cov.n_sets, 3))
        holders = {tuple(np.flatnonzero(row))
                   for row in membership_naive(sets_of(cov), n).T}
        for kind in ("flat", "smooth"):
            pou = build_pou(cov, kind)
            cells = pou.cells
            starts = cells.member_ptr[:-1]
            assert np.array_equal(np.sort(cells.members), np.arange(n))
            if kind == "flat":
                assert cells.count == len(holders)
            collapsed = cell_space(Y, cells)
            for pile in ({}, {"natural": True}, {"phi": True}):
                whole = pileup(block, cov, pile.get("natural", False),
                               pou.phi if pile.get("phi") else None)
                on_cells = whole[cells.members[starts]]
                assert np.array_equal(
                    whole[cells.members],
                    np.repeat(on_cells, np.diff(cells.member_ptr), axis=0))
                assert np.allclose(pileup_norms(collapsed, block, pou, **pile),
                                   Y.column_norms(whole), rtol=1e-14, atol=0.0)
            if cells.count != n:
                with pytest.raises(StructuralError, match="not collapsed"):
                    pileup_norms(Y, block, pou)
        want = cov.pair_sums(pou.phi[:, None] * np.abs(block)[
            cov.holders(0, n)])
        assert np.array_equal(pileup(block, cov, phi=pou.phi), want)

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
           st.sampled_from([0.0, 2.0, 3.0]), st.sampled_from(["flat", "smooth"]))
    @settings(max_examples=60, deadline=None)
    def test_cell_pileup_norms_match_grid(self, seed, p, overlap, kind):
        """On a partition (no overlap) and on overlapping uniform coverings,
        under the flat and the smooth partition, the flat, natural and
        partition-weighted pile-up norms taken on the cells equal the Y-norms
        of the pile-ups formed on the grid, to 1e-13, for random weights
        spanning six decades and sequences with zero entries."""
        r = np.random.default_rng(seed)
        space = uniform_grid(40, spacing=1.0, weights=r.uniform(0.1, 2.0, 40))
        cov = uniform_covering(space, 6.0, overlap=overlap)
        pou = build_pou(cov, kind)
        Y = WeightedLp(space, p, np.exp(r.uniform(-7.0, 7.0, 40)))
        seq = r.standard_normal((cov.n_sets, 4)) \
            + 1j * r.standard_normal((cov.n_sets, 4))
        seq[r.random(cov.n_sets) < 0.3] = 0.0
        collapsed = cell_space(Y, pou.cells)
        for natural, phi in ((False, False), (True, False), (False, True)):
            want = Y.column_norms(pileup(seq, cov, natural,
                                         pou.phi if phi else None))
            got = pileup_norms(collapsed, seq, pou, natural, phi)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_pileup_leaves_uncovered_points_zero(self, grid64):
        cov = Covering(grid64, (np.array([0, 1, 2]), np.array([2, 5])))
        pile = pileup(np.array([1.0, -2.0]), cov)
        assert np.array_equal(pile, pileup_naive(sets_of(cov), 64, [1.0, -2.0]))

    def test_measure_masses_with_repeated_atoms(self, overlapping, rng):
        cov = overlapping
        idx = np.array([3, 3, 17, 40, 40, 40, 63, 0])
        coef = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        nu = DiscreteMeasure(idx, coef)
        Y = WeightedLp.lebesgue(cov.space, 2.0)
        masses = set_masses_naive(sets_of(cov), idx, coef)
        assert decomposition_norm(nu, cov, Y) == pytest.approx(
            norm_natural(masses, cov, Y), rel=1e-14)

    def test_function_masses(self, overlapping, rng):
        cov = overlapping
        space = cov.space
        f = rng.standard_normal(space.n_points)
        masses = [sum(space.weights[x] * abs(f[x]) for x in s) for s in sets_of(cov)]
        assert np.allclose(cov.set_sums(np.abs(f) * space.weights), masses,
                           rtol=1e-14, atol=0.0)

    def test_column_norms_match_norm(self, weighted_setup, rng):
        space, w, _ = weighted_setup
        block = rng.standard_normal((space.n_points, 4)) \
            + 1j * rng.standard_normal((space.n_points, 4))
        for p in P_VALUES:
            Y = WeightedLp(space, p, w)
            want = [Y.norm(block[:, j]) for j in range(4)]
            assert np.allclose(Y.column_norms(block), want, rtol=1e-14, atol=0.0)
