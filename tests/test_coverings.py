import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedisc import Covering, QuadratureSpace, StructuralError, Weight2D, \
    singleton_covering, uniform_covering, uniform_grid, validate_covering, \
    weight_compatibility
from framedisc.coverings import PartitionOfUnity, build_pou, covering_from_json

from conftest import random_interval_covering, unit_weight
from oracles import apply_kernel, covering_stats_naive, covering_to_json, \
    dense_pou, identifier_naive, identity_kernel, membership_naive, \
    q_neighborhoods_naive, uniform_covering_naive, weight_matrix_naive
from theory import check_m_equivalent, is_admissible_permutation, \
    neighbor_sums, neighbors_of, permutation_kernel, \
    random_admissible_permutation, sets_of, total_measure, transfer_kernel


class TestValidation:
    def test_singleton_partition(self, small_space):
        cov = singleton_covering(small_space)
        rep = validate_covering(cov)
        assert rep.admissible and rep.moderate
        assert rep.overlap_bound == 1
        assert rep.moderateness == 1.0
        assert rep.min_measure == small_space.weights.min()

    def test_two_identical_full_sets(self, small_space):
        cov = Covering(small_space, (np.arange(5), np.arange(5)))
        rep = validate_covering(cov)
        assert rep.overlap_bound == 2
        assert rep.moderateness == 1.0

    def test_matches_brute_force(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 10)
        rep = validate_covering(cov)
        n, d, c = covering_stats_naive([s.tolist() for s in sets_of(cov)],
                                       grid64.weights)
        assert rep.overlap_bound == n
        assert rep.min_measure == pytest.approx(d, rel=1e-14)
        assert rep.moderateness == pytest.approx(c, rel=1e-14)

    def test_uncovered_point_reported_not_raised(self, small_space):
        cov = Covering(small_space, (np.array([0, 1]), np.array([3, 4])))
        rep = validate_covering(cov)
        assert not rep.admissible
        assert rep.uncovered == (2,)

    def test_empty_set_rejected(self, small_space):
        with pytest.raises(StructuralError):
            Covering(small_space, (np.array([], dtype=int),))

    @pytest.mark.parametrize("sets, message", [
        ((np.array([0, 1]), [], np.array([2])), "nonempty"),
        ((np.array([0.0, 1.0]),), "integer point indices"),
        ((np.array([True, False]),), "integer point indices"),
        ((np.array([0, 1]), [[0, 1], [2]]), "not an index array"),
        ((np.array([0, 1]), np.array([4, 5])), "invalid point index"),
        ((np.array([-1, 1]), np.array([2, 3])), "invalid point index"),
        ((), "at least one set"),
    ])
    def test_malformed_sets_rejected(self, small_space, sets, message):
        with pytest.raises(StructuralError, match=message):
            Covering(small_space, sets)

    def test_sets_sorted_and_deduplicated(self, rng, grid64):
        """Unsorted index lists with repeats, of any integer dtype or shape,
        become the sorted unique sets, with flat pairs in the same order."""
        raw = [rng.integers(0, 64, size=int(rng.integers(1, 20)))
               for _ in range(12)]
        raw[0] = raw[0].astype(np.uint16)
        raw[1] = np.array([[5, 3], [3, 5]])
        raw[2] = [7, 7, 7]
        cov = Covering(grid64, tuple(raw))
        want = [np.unique(np.asarray(s).reshape(-1)) for s in raw]
        assert cov.n_sets == len(want)
        for arr in (cov.flat_sets, cov.flat_points):
            assert arr.dtype == np.dtype(int) and not arr.flags.writeable
        assert np.array_equal(cov.flat_points, np.concatenate(want))
        assert np.array_equal(cov.flat_sets,
                              np.repeat(np.arange(12), [s.size for s in want]))

    def test_overlap_count_bounded_by_n(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 8)
        assert np.max(cov.cover_counts) <= cov.overlap_bound


class TestRepresentation:
    """The covering keeps its incidence as index arrays only; neighbours and
    Q_y are derived from them."""

    def test_no_dense_tables(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 6)
        n, n_sets = grid64.n_points, cov.n_sets
        assert n_sets != n
        # touch every derived quantity so cached ones are present too
        validate_covering(cov)
        cov.q_neighborhoods(0, 1)[1]
        dense = {(n, n), (n_sets, n_sets), (n_sets, n)}
        for name, value in vars(cov).items():
            if isinstance(value, np.ndarray):
                assert value.shape not in dense, name

    def test_no_per_set_objects(self, rng, grid64):
        """The flat pairs are the only copy of the incidence: no tuple of
        per-set arrays is kept, also once every derived quantity is read."""
        cov = random_interval_covering(rng, grid64, 6)
        validate_covering(cov)
        cov.identifier()
        assert not hasattr(cov, "sets") and not hasattr(cov, "neighbors")
        for name, value in vars(cov).items():
            assert not (isinstance(value, tuple) and len(value) == cov.n_sets), name

    def test_q_neighborhood_matches_oracle(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 10)
        want = q_neighborhoods_naive(sets_of(cov), 64)
        for y in range(64):
            assert cov.q_neighborhoods(y, y + 1)[1].tolist() == sorted(want[y])

    def test_q_neighborhood_of_uncovered_point_is_empty(self, small_space):
        cov = Covering(small_space, (np.array([0, 1]), np.array([3, 4])))
        assert cov.q_neighborhoods(2, 3)[1].size == 0
        assert cov.q_neighborhoods(3, 4)[1].tolist() == [3, 4]

    def test_holders_of_points_match_oracle(self, rng, grid64):
        """The sets holding each of a list of points, repeats and uncovered
        points included, point after point in ascending set order, and the
        pairs of a run of points are its slice of the point-major pairs."""
        cov = random_interval_covering(rng, grid64, 10)
        cov = Covering(grid64, sets_of(cov)[:-1])       # leave some points out
        members = [s.tolist() for s in sets_of(cov)]
        points = np.array([5, 5, 63, 0, 17, 40, 40, 2])
        sets, counts = cov.holders_of(points)
        want = [[i for i, s in enumerate(members) if x in s] for x in points]
        assert counts.tolist() == [len(h) for h in want]
        assert sets.tolist() == [i for h in want for i in h]
        held = np.cumsum([0] + [sum(x in s for s in members) for x in range(64)])
        assert np.array_equal(cov.holders(9, 30),
                              cov.holders(0, 64)[held[9]:held[30]])

    def test_neighbors_match_oracle(self, rng, grid64):
        """The flat neighbour pairs (i, j), U_j meeting U_i, ordered by i
        then j, that the overlap bound and moderateness are read from."""
        cov = random_interval_covering(rng, grid64, 10)
        members = [set(s.tolist()) for s in sets_of(cov)]
        want = [(i, j) for i, s in enumerate(members)
                for j, t in enumerate(members) if s & t]
        rows, cols = cov._neighbor_pairs
        assert list(zip(rows.tolist(), cols.tolist())) == want
        assert [nb.tolist() for nb in neighbors_of(cov)] == [
            [j for i, j in want if i == k] for k in range(cov.n_sets)]


class TestWeightCompatibility:
    def test_trivial_weight(self, small_space):
        cov = Covering(small_space, (np.arange(5),))
        assert weight_compatibility(cov, unit_weight(small_space)) == 1.0

    def test_singletons_give_diagonal(self, small_space, rng):
        cov = singleton_covering(small_space)
        m = Weight2D(small_space, rng.uniform(0.5, 2.0, 5))
        assert weight_compatibility(cov, m) == 1.0

    def test_exponential_weight_interval(self):
        space = uniform_grid(32, spacing=1 / 32, weights=1 / 32)
        w = np.exp(space.points[:, 0])
        m = Weight2D(space, w)
        cov = uniform_covering(space, 4 / 32)
        got = weight_compatibility(cov, m)
        mat = weight_matrix_naive(w)
        want = max(mat[np.ix_(s, s)].max() for s in sets_of(cov))
        assert got == want
        assert got == pytest.approx(np.exp(3 / 32), rel=1e-12)


class TestPartitionOfUnity:
    def test_flat_on_partition_is_indicator(self, grid64):
        cov = uniform_covering(grid64, 8.0)
        pou = build_pou(cov, "flat")
        assert np.array_equal(dense_pou(pou),
                              membership_naive(sets_of(cov), 64).astype(float))
        assert np.allclose(pou.masses, cov.measures, rtol=0, atol=0)

    def test_equal_sharing_on_double_cover(self, small_space):
        cov = Covering(small_space, (np.array([0, 1, 2]), np.array([2, 3, 4])))
        pou = build_pou(cov, "flat")
        phi = dense_pou(pou)
        assert phi[0, 2] == 0.5 and phi[1, 2] == 0.5

    def test_masses_sum_to_total_measure(self, rng, grid64):
        for kind in ("flat", "smooth"):
            cov = random_interval_covering(rng, grid64, 6)
            pou = build_pou(cov, kind)
            assert np.sum(pou.masses) == pytest.approx(total_measure(grid64),
                                                       rel=1e-12)
            assert np.all(pou.masses > 0)
            assert np.all(pou.masses <= cov.measures + 1e-12)
            assert np.allclose(pou.masses, dense_pou(pou) @ grid64.weights,
                               rtol=1e-14, atol=0)

    def test_smooth_invariants(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 5)
        pou = build_pou(cov, "smooth")
        phi = dense_pou(pou)
        assert np.all(phi >= 0) and np.all(phi <= 1)
        assert np.max(np.abs(phi.sum(axis=0) - 1)) <= 1e-14
        assert np.all(phi[~membership_naive(sets_of(cov), 64)] == 0)

    def test_smooth_matches_dense_construction(self, rng, grid64):
        """The per-pair smooth partition has the floats of the dense
        construction: Gaussian bumps on each set, divided by their sum."""
        cov = random_interval_covering(rng, grid64, 5)
        want = np.zeros((cov.n_sets, 64))
        pts = grid64.points
        for i, idx in enumerate(sets_of(cov)):
            d2 = np.sum((pts[idx] - pts[idx].mean(axis=0)) ** 2, axis=1)
            want[i, idx] = np.exp(-d2 / max(float(d2.max()), 1e-12))
        want /= want.sum(axis=0)[None, :]
        assert np.array_equal(dense_pou(build_pou(cov, "smooth")), want)

    def test_stores_one_value_per_pair(self):
        cov = singleton_covering(uniform_grid(256))
        pou = build_pou(cov, "smooth")
        assert pou.phi.shape == (256,)
        assert not pou.phi.flags.writeable

    def test_rejects_support_outside_set(self, small_space):
        """Values are stored per (set, point) pair, so a partition of a
        covering whose U_0 also holds point 3 cannot be attached to this
        one; a dense table is refused for its shape."""
        cov = Covering(small_space, (np.array([0, 1, 2]), np.array([2, 3, 4])))
        wider = Covering(small_space, (np.array([0, 1, 2, 3]),
                                       np.array([2, 3, 4])))
        with pytest.raises(StructuralError, match="one value per"):
            PartitionOfUnity(cov, build_pou(wider, "flat").phi)
        with pytest.raises(StructuralError, match="shaped"):
            PartitionOfUnity(cov, dense_pou(build_pou(cov, "flat")))

    def test_rejects_values_out_of_range_or_not_summing_to_one(self, small_space):
        cov = Covering(small_space, (np.array([0, 1, 2]), np.array([2, 3, 4])))
        phi = np.array(build_pou(cov, "flat").phi)
        bad = phi.copy()
        bad[0] = 1.5
        with pytest.raises(StructuralError, match="lie in"):
            PartitionOfUnity(cov, bad)
        bad = phi.copy()
        bad[2] = 0.25                       # point 2's two shares now sum to 0.75
        with pytest.raises(StructuralError, match="sum to one"):
            PartitionOfUnity(cov, bad)


class TestEquivalence:
    def test_same_covering(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 4)
        m = Weight2D(grid64, rng.uniform(0.5, 2.0, 64))
        rep = check_m_equivalent(cov, cov, m)
        assert rep.equivalent
        assert rep.measure_lower == rep.measure_upper == 1.0
        assert rep.cross_weight == weight_compatibility(cov, m)

    def test_shifted_intervals_trivial_weight(self, grid64):
        cov_u = uniform_covering(grid64, 4.0)
        shifted = tuple(np.clip(s + 1, 0, 63) for s in sets_of(cov_u))
        cov_v = Covering(grid64, shifted)
        rep = check_m_equivalent(cov_u, cov_v, unit_weight(grid64))
        assert rep.cross_weight == 1.0

    def test_constants_match_brute_force(self, rng, grid64):
        cov_u = random_interval_covering(rng, grid64, 5)
        cov_v = Covering(grid64, tuple(np.clip(s + 2, 0, 63) for s in sets_of(cov_u)))
        m = Weight2D(grid64, rng.uniform(0.5, 2.0, 64))
        rep = check_m_equivalent(cov_u, cov_v, m)
        ratios = [grid64.weights[v].sum() / grid64.weights[u].sum()
                  for u, v in zip(sets_of(cov_u), sets_of(cov_v))]
        mat = weight_matrix_naive(m.w)
        cross = max(max(mat[x, y] for x in u for y in v)
                    for u, v in zip(sets_of(cov_u), sets_of(cov_v)))
        assert rep.measure_lower == pytest.approx(min(ratios), rel=1e-14)
        assert rep.measure_upper == pytest.approx(max(ratios), rel=1e-14)
        assert rep.cross_weight == cross

    def test_index_set_mismatch(self, grid64):
        with pytest.raises(StructuralError):
            check_m_equivalent(uniform_covering(grid64, 4.0),
                               uniform_covering(grid64, 8.0),
                               unit_weight(grid64))


class TestTransferKernel:
    def test_partition_projects_onto_piecewise_constants(self, grid64):
        cov = uniform_covering(grid64, 8.0)
        L = transfer_kernel(cov, cov)
        member = membership_naive(sets_of(cov), 64)
        for j in (0, 3, 7):
            chi = member[j].astype(float)
            out = apply_kernel(grid64, L, chi)
            assert np.max(np.abs(out - chi)) <= 1e-14

    def test_singletons_give_identity(self, small_space):
        cov = singleton_covering(small_space)
        L = transfer_kernel(cov, cov)
        assert np.allclose(L, identity_kernel(small_space), rtol=0, atol=1e-15)

    def test_entries_match_direct_formula(self, rng, grid64):
        cov_u = random_interval_covering(rng, grid64, 4)
        cov_v = Covering(grid64, tuple(np.clip(s + 1, 0, 63) for s in sets_of(cov_u)))
        L = transfer_kernel(cov_u, cov_v)
        for _ in range(40):
            x = int(rng.integers(0, 64))
            y = int(rng.integers(0, 64))
            want = sum(
                (x in u.tolist()) * (y in v.tolist()) / grid64.weights[v].sum()
                for u, v in zip(sets_of(cov_u), sets_of(cov_v)))
            assert abs(L[x, y] - want) <= 1e-13 * max(1.0, abs(want))


@st.composite
def box_cases(draw):
    """(space, width, overlap): unique points in 1 to 3 dimensions, on a
    lattice, on a random part of one, on one with some coordinates moved
    down by the windows' tolerance 1e-9 (onto a window's ends, where the
    lattice and the windows are exact binary fractions) or scattered over
    its span, with a width and an overlap that are scalars or one per
    axis."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(2, 7), min_size=dim, max_size=dim))
    step = draw(st.sampled_from([1.0, 0.1, 1 / 3, 6 / 161]))
    axes = np.meshgrid(*[np.arange(k) * step for k in shape], indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, dim)
    layout = draw(st.sampled_from(["lattice", "part", "edges", "scattered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if layout == "edges":
        moved = (rng.random(points.shape) < 0.5) & (points > 0)
        points = np.where(moved, points - 1e-9, points)
    elif layout == "part":
        keep = draw(st.lists(st.booleans(), min_size=len(points),
                             max_size=len(points)))
        points = points[np.array(keep)] if any(keep) else points[:1]
    elif layout == "scattered":
        points = rng.uniform(0.0, 5 * step, size=(len(points), dim))

    def per_axis(values):
        return draw(st.sampled_from([values[0], list(values)]))

    widths = [step * draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.5, 4.0))
              for _ in range(dim)]
    shares = [draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.7))
              for _ in range(dim)]
    width = per_axis(widths)
    overlap = per_axis([s * w for s, w in zip(shares, np.broadcast_to(width, dim))])
    space = QuadratureSpace(points, np.ones(len(points)))
    return space, width, overlap


class TestUniformCovering:
    def test_full_span_single_set(self, grid64):
        cov = uniform_covering(grid64, 64.0)
        assert cov.n_sets == 1
        assert cov.overlap_bound == 1
        assert validate_covering(cov).admissible

    def test_unit_width_gives_singleton_partition(self, grid64):
        cov = uniform_covering(grid64, 1.0)
        assert cov.n_sets == 64
        assert all(s.size == 1 for s in sets_of(cov))

    def test_half_overlap_double_covers_interior(self, grid64):
        cov = uniform_covering(grid64, 4.0, overlap=2.0)
        counts = cov.cover_counts
        assert np.all(counts[2:] == 2)
        assert counts[0] == 1 and counts[1] == 1
        assert validate_covering(cov).admissible

    def test_empty_box_rejected(self, grid64):
        with pytest.raises(StructuralError):
            uniform_covering(grid64, 0.5)

    def test_bad_overlap_rejected(self, grid64):
        with pytest.raises(StructuralError):
            uniform_covering(grid64, 2.0, overlap=2.0)

    @pytest.mark.parametrize("width, overlap", [
        ([1.0, 1.0, 1.0], 0.0), ([], 0.0), (1.0, [0.0, 0.0, 0.0]),
        ([1.0, 1.0], [0.0, 0.0, 0.0]),
    ])
    def test_axis_count_refused(self, width, overlap):
        """A width or overlap sequence needs one entry or one per axis."""
        space = QuadratureSpace(np.array([[t, j] for t in range(4)
                                          for j in range(3)], dtype=float),
                                np.ones(12))
        with pytest.raises(StructuralError, match="take 1 or 2 entries"):
            uniform_covering(space, width, overlap)

    @given(box_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_mask_oracle(self, case):
        """Each point's window range per axis gives the covering of the
        masks intersected box by box: the same flat pairs, set order and
        identifier, or the same refusal of an empty box."""
        space, width, overlap = case
        try:
            want = uniform_covering_naive(space, width, overlap)
        except StructuralError as exc:
            with pytest.raises(StructuralError, match=re.escape(str(exc))):
                uniform_covering(space, width, overlap)
            return
        got = uniform_covering(space, width, overlap)
        assert got.n_sets == want.n_sets
        assert np.array_equal(got.flat_sets, want.flat_sets)
        assert np.array_equal(got.flat_points, want.flat_points)
        assert got.identifier() == identifier_naive(want)


class TestPermutations:
    def test_identity_kernel_matches_transfer(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 5)
        k_id = permutation_kernel(cov, np.arange(cov.n_sets))
        assert np.allclose(k_id, transfer_kernel(cov, cov), rtol=0, atol=1e-15)

    def test_entries_match_direct_formula(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 5)
        pi = random_admissible_permutation(cov, rng)
        if pi is None:
            pi = np.arange(cov.n_sets)
        assert is_admissible_permutation(cov, pi)
        k = permutation_kernel(cov, pi)
        inv = np.empty_like(pi)
        inv[pi] = np.arange(cov.n_sets)
        sets = sets_of(cov)
        for _ in range(30):
            x = int(rng.integers(0, 64))
            y = int(rng.integers(0, 64))
            want = sum(
                (x in sets[inv[i]].tolist()) * (y in sets[i].tolist())
                / grid64.weights[sets[inv[i]]].sum()
                for i in range(cov.n_sets))
            assert abs(k[x, y] - want) <= 1e-13 * max(1.0, abs(want))

    def test_rejects_non_neighbor(self, grid64):
        cov = uniform_covering(grid64, 16.0, overlap=8.0)
        assert 3 not in neighbors_of(cov)[0]
        pi = np.arange(cov.n_sets)
        pi[[0, 3]] = pi[[3, 0]]
        assert not is_admissible_permutation(cov, pi)
        pi = np.arange(cov.n_sets)
        pi[[0, 1]] = pi[[1, 0]]
        assert is_admissible_permutation(cov, pi)

    def test_neighbor_sums_brute_force(self, rng, grid64):
        cov = random_interval_covering(rng, grid64, 6)
        lam = rng.standard_normal(cov.n_sets)
        got = neighbor_sums(cov, lam)
        members = [set(s.tolist()) for s in sets_of(cov)]
        for i in range(cov.n_sets):
            want = sum(lam[j] for j in range(cov.n_sets)
                       if members[i] & members[j])
            assert abs(got[i] - want) <= 1e-13 * max(1.0, abs(want))


def test_json_round_trip(rng, grid64):
    cov = random_interval_covering(rng, grid64, 4)
    back = covering_from_json(grid64, covering_to_json(cov))
    assert all(np.array_equal(a, b) for a, b in zip(sets_of(back), sets_of(cov)))
    assert back.identifier() == cov.identifier()


@pytest.mark.parametrize("sets, message", [
    ([], "at least one set"),
    ([[0, 1], [], [2]], "nonempty"),
    ([[0, 1], [2.0, 3.0]], "integer point indices"),
    ([[0, 1], [True, False]], "integer point indices"),
    ([[0, 1], ["3"]], "integer point indices"),
    ([[0, 1], [2 ** 70]], "integer point indices"),
    ([[0, 1], [[2, 3], [4]]], "not an index array"),
    ([[0, 1], [4, 5]], "invalid point index"),
    ([[-1, 1], [2, 3]], "invalid point index"),
])
def test_json_sets_refused(small_space, sets, message):
    """A covering document's lists are refused with the messages the
    set-by-set checks give."""
    with pytest.raises(StructuralError, match=message):
        covering_from_json(small_space, {"sets": sets})


def test_json_sets_read_in_one_pass(rng, grid64, monkeypatch):
    """Lists of ints, unsorted and with repeats, are read without a
    conversion per set and give the covering their arrays give."""
    import framedisc.coverings as coverings_module

    raw = [rng.integers(0, 64, size=int(rng.integers(1, 20))).tolist()
           for _ in range(12)]
    want = Covering(grid64, tuple(np.array(s) for s in raw))
    calls = []
    monkeypatch.setattr(coverings_module, "_index_array",
                        lambda s: calls.append(s))
    got = covering_from_json(grid64, {"sets": raw})
    assert not calls
    assert got.identifier() == want.identifier()
    assert np.array_equal(got.flat_sets, want.flat_sets)
    assert np.array_equal(got.flat_points, want.flat_points)


def test_identifier_hashed_once(grid64, monkeypatch):
    """A covering's identifier keeps its digest (pinned from the code that
    hashed on every call) and is hashed once per covering, also when a
    plan's identifier reads it."""
    import framedisc.coverings as coverings_module
    from framedisc import select_samples

    hashed = []
    sha256 = coverings_module.hashlib.sha256

    def counted(payload):
        hashed.append(payload)
        return sha256(payload)

    monkeypatch.setattr(coverings_module.hashlib, "sha256", counted)
    cov = Covering(grid64, (np.arange(0, 40), np.arange(30, 64), np.array([5, 3, 3])))
    boxes = uniform_covering(grid64, 4.0)
    plan = select_samples(build_pou(boxes))
    for _ in range(3):
        assert cov.identifier() == "c533ecd0e964"
        assert boxes.identifier() == "6616088e25fe"
        assert plan.identifier().startswith("6616088e25fe-")
    assert len(hashed) == 2
