import functools
import json
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framedisc.kernels as kernels_module
import framedisc.oscillation as oscillation_module
from framedisc import CertificationError, Covering, FrameModel, \
    OscReport, PhaseFunction, Screened, StructuralError, Weight2D, \
    WeightedLp, invertibility_condition, kernel_norms, oscillation_norms, \
    oscillation_report, refine_until, sigma_constant, singleton_covering, uniform_covering, uniform_grid
from framedisc.models import build_gabor_model, build_orthonormal_model, \
    build_random_smooth_model

from conftest import random_interval_covering, random_pointwise_weight, \
    unit_weight
from oracles import dense_kernel, involution, osc_naive, osc_rows_loop, \
    osc_tile_keys_naive, oscillation_kernel, phase_table_naive, \
    q_neighborhoods_naive, rank_d_entries, refine_until_naive, \
    schur_norm_naive, weight_matrix_naive
from theory import TablePhase, random_phase_table, schur_norm, sets_of


@pytest.fixture
def smooth_model():
    return build_random_smooth_model(d=4, n_points=12, smoothness=1.2, seed=3)


def constant_frame_model(n=9):
    space = uniform_grid(n, weights=1.0)
    return FrameModel(space, np.ones((1, n), dtype=complex))


class TestOscillationKernel:
    def test_singleton_covering_vanishes(self, smooth_model):
        cov = singleton_covering(smooth_model.space)
        for rule in ("one", "kernel"):
            osc = oscillation_kernel(smooth_model, cov,
                                     PhaseFunction(smooth_model, rule))
            assert np.all(osc == 0.0)

    def test_constant_kernel_no_oscillation(self):
        """A frame whose kernel is constant across the grid has zero
        oscillation for the constant phase, whatever the covering."""
        model = constant_frame_model()
        cov = uniform_covering(model.space, 3.0)
        osc = oscillation_kernel(model, cov, PhaseFunction(model, "one"))
        assert np.max(osc) <= 1e-15

    def test_matches_triple_loop(self, rng):
        for trial in range(5):
            model = build_random_smooth_model(d=3, n_points=10,
                                              smoothness=1.0, seed=trial)
            sets = [np.arange(0, 4), np.arange(3, 7), np.arange(6, 10),
                    np.arange(2, 9)]
            cov = Covering(model.space, tuple(sets))
            gamma = PhaseFunction(model, "kernel")
            got = oscillation_kernel(model, cov, gamma)
            want = osc_naive(dense_kernel(model), [s.tolist() for s in sets],
                             phase_table_naive(rank_d_entries(model), "kernel"))
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_nonnegative(self, smooth_model):
        cov = uniform_covering(smooth_model.space, 0.3)
        osc = oscillation_kernel(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"))
        assert np.all(osc >= 0.0)

    def test_monotone_under_neighborhood_shrinkage(self):
        model = build_gabor_model(6, 6, 2.4)
        coarse = uniform_covering(model.space, 4.0)
        fine = uniform_covering(model.space, 2.0)
        gamma = PhaseFunction(model, "one")
        osc_coarse = oscillation_kernel(model, coarse, gamma)
        osc_fine = oscillation_kernel(model, fine, gamma)
        # aligned dyadic boxes: every fine neighborhood sits in a coarse one
        assert np.all(osc_fine <= osc_coarse + 1e-15)
        assert schur_norm(model.space, osc_fine) \
            <= schur_norm(model.space, osc_coarse) + 1e-12

    def test_involution_norm_identity(self, smooth_model, rng):
        cov = uniform_covering(smooth_model.space, 0.25)
        osc = oscillation_kernel(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"))
        m = Weight2D(smooth_model.space,
                     random_pointwise_weight(rng, smooth_model.space.n_points))
        a = schur_norm(smooth_model.space, osc, m)
        b = schur_norm(smooth_model.space, involution(osc), m)
        assert abs(a - b) <= 1e-14 * a

    def test_pointwise_triangle_bound(self, smooth_model):
        """|R(x,z)| <= osc(x,y) + |R(x,y)| whenever z, y share a set."""
        cov = uniform_covering(smooth_model.space, 0.3)
        osc = oscillation_kernel(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"))
        r = np.abs(dense_kernel(smooth_model))
        n = smooth_model.space.n_points
        for s in sets_of(cov):
            for y in s:
                for z in s:
                    assert np.all(r[:, z] <= osc[:, y] + r[:, y] + 1e-13)


def streamed_setup(covering, weight_rule, phase):
    """A smooth model on 24 points with an overlapping interval covering or a
    box partition, a unit or random weight, and a phase; plus the dense
    oracle's oscillation kernel for them. The ``table`` phase is a random
    Hermitian unimodular table with ones on the diagonal
    (``random_phase_table``)."""
    model = build_random_smooth_model(d=4, n_points=24, smoothness=1.2, seed=3)
    space = model.space
    n = space.n_points
    rng = np.random.default_rng(11)
    if covering == "intervals":
        cov = random_interval_covering(rng, space, 5)
    else:
        cov = uniform_covering(space, 4.0 / n)
        assert sum(s.size for s in sets_of(cov)) == n and cov.n_sets > 1
    w = np.ones(n) if weight_rule == "unit" else random_pointwise_weight(rng, n)
    weight = Weight2D(space, w)
    if phase == "table":
        table = random_phase_table(rng, n)
        gamma = TablePhase(space, table)
    else:
        table = phase_table_naive(rank_d_entries(model), phase)
        gamma = PhaseFunction(model, phase)
    osc = osc_naive(dense_kernel(model), [s.tolist() for s in sets_of(cov)], table)
    return model, cov, weight, gamma, osc


class TestOscRows:
    @pytest.mark.parametrize("rule", ["one", "kernel"])
    @pytest.mark.parametrize("build,width", [
        (lambda: build_gabor_model(6, 41, 2.45), (1.0, 2 * 6 / 41)),
        (lambda: build_random_smooth_model(d=4, n_points=30, smoothness=1.2,
                                           seed=5), 0.15)])
    def test_rows_match_dense_oracle(self, build, width, rule):
        """Blocks of osc^T rows from the rank-d factors match the dense
        oracle's columns within c d eps max|R|."""
        model = build()
        n, d = model.space.n_points, model.dim
        cov = uniform_covering(model.space, width)
        assert cov.overlap_bound == 1 and max(s.size for s in sets_of(cov)) > 1
        gamma = PhaseFunction(model, rule)
        want = oscillation_kernel(model, cov, gamma).T
        tol = 8 * d * np.finfo(float).eps * np.max(np.abs(dense_kernel(model)))
        for start, stop in ((0, 1), (1, 5), (5, n)):
            got = osc_rows(model, cov, gamma, start, stop)
            assert got.shape == (stop - start, n)
            assert np.max(np.abs(got - want[start:stop])) <= tol


def osc_rows(model, cov, gamma, start, stop, cells=None, xcols=None):
    """Columns ``start:stop`` of the oscillation kernel as rows of osc^T,
    assembled from the pass's tiles (``_osc_rows``), each copied before
    the next overwrites it; ``cells`` defaults to the pass's tile size
    under the unit weight, and ``xcols`` to whole rows. The rows start at
    zero: a block with no (y, z) pair yields no tile, its rows being
    exactly zero."""
    n = model.space.n_points
    if cells is None:
        cells = kernels_module.block_rows(n, oscillation_module.OSC_CELL_BYTES)
    out = np.zeros((stop - start, n))
    for rows, xs, block in oscillation_module._osc_rows(
            model, cov, gamma, start, stop, xcols or [slice(0, n)], cells,
            kernels_module.Workspace()):
        out[rows.start - start:rows.stop - start, xs] = block
    return out


def loop_tiles(model, cov, gamma, start, stop, xcols, cells, work):
    """``osc_rows_loop`` as the one tile of a block, in ``_osc_rows``'s
    signature."""
    return [(slice(start, stop), slice(0, model.space.n_points),
             osc_rows_loop(model, cov, gamma, start, stop))]


def count_product_rows(model):
    """Replace ``model.vectors`` by a view that records the row count of
    every left factor multiplied into it (by ``@`` or ``np.matmul``): the
    osc rows formed."""
    counts = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counts.append(inputs[0].shape[0])
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x
                     for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    model.vectors = model.vectors.view(Counting)
    return counts


class TestMirroredPairs:
    """A Hermitian phase forms each mirrored pair of a chunk once, and the
    exact-zero z = y terms not at all."""

    @pytest.mark.parametrize("rule", ["one", "kernel"])
    def test_two_point_boxes_form_half_the_rows(self, monkeypatch, rule):
        """On a partition into 1 x 2 boxes every Q_y \\ {y} is the one mirror
        of a pair: one tile forms n/2 rows, and a scan in tiles of at most
        64 cells (one per row here) forms at most one more per tile (a box
        cut by a tile boundary). The rows are the ones the oracle forms
        twice."""
        model = build_gabor_model(4, 60, 2.0)
        n = model.space.n_points
        cov = Covering(model.space, tuple(np.arange(y, y + 2)
                                          for y in range(0, n, 2)))
        gamma = PhaseFunction(model, rule)
        want = osc_rows_loop(model, cov, gamma, 0, n)
        rows = count_product_rows(model)
        got = osc_rows(model, cov, gamma, 0, n, cells=n)
        assert rows == [n // 2]
        assert np.array_equal(got, want)
        rows.clear()
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                            64 * oscillation_module.OSC_CELL_BYTES * n)
        oscillation_norms(model, cov, gamma, unit_weight(model.space))
        assert len(rows) == -(-n // 64)
        assert sum(rows) <= n // 2 + len(rows)

    def test_three_point_boxes_form_each_unordered_pair_once(self):
        """On Gabor 6 x 255 with 1 x 3 boxes the pass lists 3,060 (y, z)
        pairs with z != y, each box's three unordered pairs twice. Under the
        default budget it forms each unordered pair once, plus at most two
        more per tile (a box cut by a tile boundary), and takes one phase per
        pair it forms. (Reusing a mirror only within one column of the
        table of Q_y formed 1,986.)"""
        model = build_gabor_model(6, 255, 2.45)
        cov = Covering(model.space, tuple(
            np.arange(t * 255 + m, t * 255 + min(m + 3, 255))
            for t in range(6) for m in range(0, 255, 3)))
        phases = []

        class CountingPhase(PhaseFunction):
            def __call__(self, y, z):
                phases.append(int(np.count_nonzero(np.not_equal(y, z))))
                return super().__call__(y, z)

        rows = count_product_rows(model)
        oscillation_norms(model, cov, CountingPhase(model, "kernel"),
                          unit_weight(model.space))
        assert sum(phases) == sum(rows)
        assert sum(rows) <= 3060 // 2 + 2 * len(rows)

    @pytest.mark.parametrize("rule", ["one", "kernel"])
    def test_singleton_covering_forms_no_product(self, rule):
        model = build_gabor_model(4, 30, 2.0)
        cov = singleton_covering(model.space)
        gamma = PhaseFunction(model, rule)
        rows = count_product_rows(model)
        assert oscillation_norms(model, cov, gamma,
                                 unit_weight(model.space)) == 0.0
        assert rows == []

    def test_refine_singleton_round_forms_no_product(self, monkeypatch):
        """The all-singleton round that ends a search forms no osc
        product: under a budget whose tiles hold a whole column of n
        cells, a 6 x 81 search at delta 0.2 forms one product for the
        screened first tile of each of its three box rounds, and then only
        the one strip of R for the report."""
        model = build_gabor_model(6, 81, 2.45)
        n = model.space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                            n * n * oscillation_module.OSC_CELL_BYTES)
        rows = count_product_rows(model)
        rep = refine_until(model, unit_weight(model.space), 0.2)
        assert rep.covering.n_sets == n and rep.osc_norm == 0.0
        assert len(rows) == 4 and all(r < n for r in rows[:3])
        assert rows[3] == n

    def test_hermitian_table_takes_the_mirrored_path(self):
        """The kernel rule written out as a table is Hermitian to the bit,
        so a table phase built from it forms the rows the rule forms."""
        model, cov, gamma = q_table_setup("intervals", "kernel")
        n = model.space.n_points
        table = TablePhase(model.space, full_table(model.space, gamma))
        assert np.array_equal(osc_rows(model, cov, table, 0, n),
                              osc_rows(model, cov, gamma, 0, n))


class TestKeyedRows:
    """Each tile forms one row per distinct key of its cells."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from(["one", "kernel", "table"]),
           st.integers(3, 120))
    def test_rows_formed_are_the_distinct_keys(self, data, phase, cells):
        """On overlapping random intervals that may leave points uncovered,
        over a random block and in tiles of ``cells`` (y, z) cells, the
        pass forms, tile by tile, as many rows as the tile's cells have
        distinct keys, and its rows equal the loop's to the bit. A
        ``table`` phase is a random Hermitian table with ones on the
        diagonal (``random_phase_table``)."""
        model = build_random_smooth_model(d=4, n_points=24, smoothness=1.2,
                                          seed=3)
        space = model.space
        n = space.n_points
        spans = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(1, 8)),
                                   min_size=1, max_size=8))
        cov = Covering(space, tuple(np.arange(a, min(n, a + size))
                                    for a, size in spans))
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        if phase == "table":
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
            gamma = TablePhase(space, random_phase_table(rng, n))
        else:
            gamma = PhaseFunction(model, phase)
        want = osc_rows_loop(model, cov, gamma, start, stop)
        rows = count_product_rows(model)
        got = osc_rows(model, cov, gamma, start, stop, cells)
        assert rows == osc_tile_keys_naive(cov, start, stop, cells)
        assert np.array_equal(got, want)


def q_table_setup(covering, phase):
    """A smooth model on 24 points with one of four coverings and a phase.

    The coverings are a box partition, overlapping random intervals, all
    singletons, and sets that leave points 11-14 and 16-17 uncovered. The
    ``table`` phase is a random Hermitian unimodular table with ones on
    the diagonal (``random_phase_table``)."""
    model = build_random_smooth_model(d=4, n_points=24, smoothness=1.2, seed=3)
    space = model.space
    n = space.n_points
    rng = np.random.default_rng(17)
    cov = {"partition": lambda: uniform_covering(space, 4.0 / n),
           "intervals": lambda: random_interval_covering(rng, space, 5),
           "singletons": lambda: singleton_covering(space),
           "uncovered": lambda: Covering(space, (np.arange(0, 6), np.arange(4, 11),
                                                 [15], np.arange(18, n)))}[covering]()
    if phase == "table":
        gamma = TablePhase(space, random_phase_table(rng, n))
    else:
        gamma = PhaseFunction(model, phase)
    return model, cov, gamma


Q_TABLE_COVERINGS = ["partition", "intervals", "singletons", "uncovered"]


class TestQTable:
    """The block's (y, z) pairs from ``Covering.q_neighborhoods``, and the
    osc rows formed from them, against the per-column loop."""

    @pytest.mark.parametrize("phase", ["one", "kernel", "table"])
    @pytest.mark.parametrize("covering", Q_TABLE_COVERINGS)
    def test_table_and_rows_equal_column_loop(self, covering, phase):
        """Exactly equal on blocks of 1, 2, 4, ... columns, on blocks inside
        and across the uncovered run, and on the whole grid, in tiles of the
        default size and of three cells (which cut the wider rows)."""
        model, cov, gamma = q_table_setup(covering, phase)
        n = model.space.n_points
        q_of = q_neighborhoods_naive(sets_of(cov), n)
        for start, stop in ((0, 1), (1, 3), (3, 7), (7, 15), (15, n), (11, 15),
                            (10, 19), (0, n)):
            y_of, zs = cov.q_neighborhoods(start, stop)
            assert list(zip(y_of.tolist(), zs.tolist())) == \
                [(y, z) for y in range(start, stop) for z in sorted(q_of[y])]
            want = osc_rows_loop(model, cov, gamma, start, stop)
            for cells in (None, 3):
                assert np.array_equal(
                    osc_rows(model, cov, gamma, start, stop, cells), want)

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("phase", ["kernel", "table"])
    @pytest.mark.parametrize("covering", Q_TABLE_COVERINGS)
    def test_norms_equal_column_loop(self, monkeypatch, covering, phase,
                                     weight_rule):
        """The oscillation norm under a weight is the float the loop's rows
        give; the exp weight is least at point 5, so point 0 is interior."""
        model, cov, gamma = q_table_setup(covering, phase)
        space = model.space
        w = np.ones(space.n_points) if weight_rule == "unit" else np.exp(
            0.5 * np.linalg.norm(space.points - space.points[5], axis=1))
        weight = Weight2D(space, w)
        got = oscillation_norms(model, cov, gamma, weight)
        monkeypatch.setattr(oscillation_module, "_osc_rows", loop_tiles)
        assert got == oscillation_norms(model, cov, gamma, weight)


class TestStreamedNorms:
    @pytest.mark.parametrize("budget", ["default", "two rows"])
    @pytest.mark.parametrize("phase", ["one", "kernel", "table"])
    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    @pytest.mark.parametrize("covering", ["intervals", "boxes"])
    def test_match_dense_oracles(self, monkeypatch, covering, weight_rule, phase,
                                 budget):
        """The norms of osc and R under the weight, from one streamed pass
        each, match the triple-loop kernel's naive Schur norms, and the
        report carries them. A budget of two complex rows holds one (y, z)
        cell per oscillation tile, so it also cuts every row of each
        block's table of Q_y into one-cell pieces."""
        model, cov, weight, gamma, osc = streamed_setup(covering, weight_rule,
                                                        phase)
        if budget == "two rows":
            monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                                2 * 16 * model.space.n_points)
        got_osc = oscillation_norms(model, cov, gamma, weight)
        got_r, no_d = kernel_norms(model, weight)
        mu = model.space.weights
        m = weight_matrix_naive(weight.w)
        assert no_d is None
        assert got_osc == pytest.approx(schur_norm_naive(mu, osc, m),
                                        rel=1e-13)
        assert got_r == pytest.approx(
            schur_norm_naive(mu, dense_kernel(model), m), rel=1e-13)
        rep = oscillation_report(model, cov, gamma, weight, 0.5)
        assert (rep.osc_norm, rep.r_norm) == (got_osc, got_r)

    @pytest.mark.parametrize("weight_rule", ["unit", "exp"])
    def test_r_norms_from_upper_strips(self, monkeypatch, weight_rule):
        """Under a budget of 30 full rows (the product and moduli, plus m
        and its second quotient under the exp weight) the norm of R comes
        from at least three strips |R|[a:b, a:] of the upper triangle: the
        first 30 rows tall, each as tall as the budget holds at its width,
        so each fits in the budget. It matches the dense kernel's naive
        Schur norm; the exp weight is least at point 5."""
        model = build_gabor_model(6, 16, 2.45)
        space = model.space
        n = space.n_points
        entry = oscillation_module.STRIP_ENTRY_BYTES \
            + (0 if weight_rule == "unit" else kernels_module.WEIGHT_ENTRY_BYTES)
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 30 * entry * n)
        w = np.ones(n) if weight_rule == "unit" else np.exp(
            0.3 * np.linalg.norm(space.points - space.points[5], axis=1))
        weight = Weight2D(space, w)
        strips = []
        add_upper = kernels_module.SchurSums.add_upper

        def recorded(self, start, block, cols=None):
            strips.append((start, block.shape))
            return add_upper(self, start, block, cols)

        monkeypatch.setattr(kernels_module.SchurSums, "add_upper", recorded)
        got, _ = kernel_norms(model, weight)
        assert len(strips) >= 3
        starts = [a for a, _ in strips] + [n]
        assert starts[:2] == [0, 30]
        for (a, shape), b in zip(strips, starts[1:]):
            assert shape == (b - a, n - a)
            assert (b - a) * (n - a) <= 30 * n
            assert b == n or (b - a + 1) * (n - a) > 30 * n
        assert got == pytest.approx(
            schur_norm_naive(space.weights, dense_kernel(model),
                             weight_matrix_naive(w)), rel=1e-13)

    def test_unscreened_scan_takes_full_blocks(self, monkeypatch):
        """Under a budget of 50 cells an unscreened scan is one block of the
        whole grid whose tiles are even runs of whole columns, as many per
        tile as 50 cells hold at the widest Q_y. A screened scan's blocks
        double, 1, 2, 4, ... columns, and each is cut into the fewest even
        tiles of at most that many columns. Both give the same norms."""
        model = build_gabor_model(6, 41, 2.45)
        n = model.space.n_points
        monkeypatch.setattr(kernels_module, "BLOCK_BYTES",
                            50 * oscillation_module.OSC_CELL_BYTES * n)
        cov = uniform_covering(model.space, (1.0, 2 * 6 / 41))
        gamma = PhaseFunction(model, "kernel")
        width = max(s.size for s in sets_of(cov)) - 1     # z = y is not formed
        blocks, tiles = [], []
        osc_rows = oscillation_module._osc_rows

        def counting(model, cov, gamma, start, stop, *args):
            blocks.append((start, stop))
            for rows, xs, block in osc_rows(model, cov, gamma, start, stop,
                                            *args):
                tiles.append((rows.start, rows.stop))
                yield rows, xs, block

        def even_tiles(start, stop):
            step = kernels_module.even_step(stop - start, 50 // width)
            return [(a, min(stop, a + step)) for a in range(start, stop, step)]

        monkeypatch.setattr(oscillation_module, "_osc_rows", counting)
        unit = unit_weight(model.space)
        full = oscillation_norms(model, cov, gamma, unit)
        assert blocks == [(0, n)] and tiles == even_tiles(0, n)
        assert (tiles[0][1] - tiles[0][0]) * width <= 50
        blocks.clear()
        tiles.clear()
        screened = oscillation_norms(model, cov, gamma, unit, level=np.inf)
        starts = [0, 1, 3, 7, 15, 31, 63, 127]
        assert blocks == list(zip(starts, starts[1:] + [n]))
        assert tiles == [tile for block in blocks for tile in even_tiles(*block)]
        assert screened == pytest.approx(full, rel=1e-14)

    @pytest.mark.parametrize("least_at", [0, 202])
    def test_one_m_per_block(self, monkeypatch, least_at):
        """Every Schur pass has one weight: a report forms m once per block
        it feeds, whether the exp weight is least at point 0, the origin,
        where v = w, or at point 202, where point 0 is interior and m_v is
        not m; its norms are those of one pass under the weight alone."""
        model = build_gabor_model(4, 101, 2.0)
        space = model.space
        cov = Covering(space, tuple(np.arange(t * 101 + m, t * 101 + min(m + 2, 101))
                                    for t in range(4) for m in range(0, 101, 2)))
        w = np.exp(0.02 * np.linalg.norm(space.points - space.points[least_at],
                                         axis=1))
        weight = WeightedLp(space, 2.0, w).weight2d()
        assert np.array_equal(weight.v, weight.w) == (least_at == 0)
        assert least_at == 0 or w.min() < w[0] < w.max()
        gamma = PhaseFunction(model, "kernel")
        blocks, feeds = [], []
        block, feed = Weight2D.block, kernels_module.SchurSums._feed

        def counted_block(self, rows, cols, out=None, spare=None):
            if isinstance(cols, slice):         # not the v trace's column
                blocks.append(rows)
            return block(self, rows, cols, out, spare)

        def counted_feed(self, rows, cols, part, upper=False):
            feeds.append(rows)
            return feed(self, rows, cols, part, upper)

        monkeypatch.setattr(Weight2D, "block", counted_block)
        monkeypatch.setattr(kernels_module.SchurSums, "_feed", counted_feed)
        rep = oscillation_report(model, cov, gamma, weight, 0.25)
        assert len(feeds) > 2 and blocks == feeds
        assert rep.osc_norm == oscillation_norms(model, cov, gamma, weight)
        assert rep.r_norm == kernel_norms(model, weight)[0]

    def test_report_holds_no_array(self, smooth_model):
        cov = uniform_covering(smooth_model.space, 0.3)
        rep = oscillation_report(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"),
                                 unit_weight(smooth_model.space), 0.5)
        assert not any(isinstance(v, np.ndarray) for v in vars(rep).values())

    @pytest.mark.parametrize("column", [0, 1, 2, 6, 40, 150])
    def test_stopped_scan_reads_few_neighborhoods(self, monkeypatch, column):
        """Only the pair {c, c + 1} oscillates, so the scan stops at column c
        having formed at most 2c + 1 columns of osc: the column-0 stop forms
        exactly one."""
        model = build_gabor_model(6, 41, 2.45)
        n = model.space.n_points
        sets = [[y] for y in range(n) if y not in (column, column + 1)]
        cov = Covering(model.space, tuple(sets + [[column, column + 1]]))
        calls = []
        osc_rows = oscillation_module._osc_rows

        def counting(*args):
            for rows, xs, block in osc_rows(*args):
                calls.append((rows.start, rows.stop))
                yield rows, xs, block

        monkeypatch.setattr(oscillation_module, "_osc_rows", counting)
        scan = oscillation_norms(model, cov, PhaseFunction(model, "kernel"),
                                 unit_weight(model.space),
                                 level=np.finfo(float).tiny)
        assert isinstance(scan, Screened) and scan.column == column
        assert sum(stop - start for start, stop in calls) <= 2 * column + 1
        if column == 0:
            assert calls == [(0, 1)]


def full_table(space, gamma):
    """Gamma(y, z) at every pair of points of ``space``, read through
    ``gamma``."""
    y, z = np.indices((space.n_points,) * 2)
    return gamma(y, z)


class TestPhaseFunctions:
    def test_constant_rule_table(self, smooth_model):
        gamma = PhaseFunction(smooth_model, "one")
        assert np.all(full_table(smooth_model.space, gamma) == 1.0)

    def test_kernel_phase_unimodular_and_diagonal_one(self, smooth_model):
        table = full_table(smooth_model.space,
                           PhaseFunction(smooth_model, "kernel"))
        assert np.max(np.abs(np.abs(table) - 1.0)) <= 1e-14
        assert np.max(np.abs(np.diagonal(table) - 1.0)) <= 1e-12

    def test_positive_kernel_gives_constant_phase(self):
        model = constant_frame_model()
        gamma = PhaseFunction(model, "kernel")
        assert np.allclose(full_table(model.space, gamma), 1.0, atol=1e-14)

    @pytest.mark.parametrize("rule", ["one", "kernel"])
    def test_rules_hold_no_dense_array(self, rule):
        """A phase rule keeps no n x n array and allocates none."""
        model = build_gabor_model(6, 81, 2.0)
        n = model.space.n_points
        tracemalloc.start()
        try:
            gamma = PhaseFunction(model, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
        assert not any(isinstance(v, np.ndarray) and v.size >= n * n
                       for v in vars(gamma).values())
        assert gamma.rule == rule

    @pytest.mark.parametrize("rule", ["one", "kernel"])
    @pytest.mark.parametrize("build", [
        lambda: build_gabor_model(6, 41, 2.45),
        lambda: build_random_smooth_model(d=4, n_points=30, smoothness=1.2,
                                          seed=5)], ids=["gabor", "smooth"])
    def test_mirrored_pairs_conjugate_exactly(self, build, rule):
        """gamma(z, y) == conj gamma(y, z) to the bit, at every pair."""
        model = build()
        table = full_table(model.space, PhaseFunction(model, rule))
        assert np.array_equal(table, table.conj().T)

    @pytest.mark.parametrize("rule", ["one", "kernel"])
    def test_rows_match_oracle(self, rule):
        """Gamma(y, zs) for one y at a time matches the loop oracle, on a
        kernel with exact zeros (orthonormal model) and one without. The
        oracle reads the same rank-d entries A[:, z]^* V[:, y] the rule
        reads, in the same orientation (the (z, y) entry for z > y, else
        the conjugate of the (y, z) entry), not the symmetrized dense
        kernel."""
        orthonormal = build_orthonormal_model(5)
        assert np.any(rank_d_entries(orthonormal) == 0.0)
        for model in (orthonormal,
                      build_random_smooth_model(d=4, n_points=12,
                                                smoothness=1.2, seed=3)):
            n = model.space.n_points
            want = phase_table_naive(rank_d_entries(model), rule)
            gamma = PhaseFunction(model, rule)
            for y in range(n):
                got = gamma(y, np.arange(n))
                assert got.shape == (n,)
                assert np.max(np.abs(got - want[y])) <= 1e-15
                assert got[y] == 1.0
                assert np.all(gamma(y, np.array([y])) == 1.0)

    def test_kernel_phase_shrinks_gabor_oscillation(self):
        model = build_gabor_model(16, 16, 4.0)
        cov = uniform_covering(model.space, 2.0)
        n1 = schur_norm(model.space, oscillation_kernel(
            model, cov, PhaseFunction(model, "one")))
        nk = schur_norm(model.space, oscillation_kernel(
            model, cov, PhaseFunction(model, "kernel")))
        assert np.isfinite(n1) and np.isfinite(nk)
        assert nk <= n1

    def test_user_table_matches_oracle(self, smooth_model, rng):
        n = smooth_model.space.n_points
        table = random_phase_table(rng, n)
        gamma = TablePhase(smooth_model.space, table)
        assert gamma.rule == "table"
        assert np.array_equal(full_table(smooth_model.space, gamma), table)
        cov = uniform_covering(smooth_model.space, 0.3)
        got = oscillation_kernel(smooth_model, cov, gamma)
        want = osc_naive(dense_kernel(smooth_model),
                         [s.tolist() for s in sets_of(cov)], table)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_non_unimodular_table_rejected(self, smooth_model):
        n = smooth_model.space.n_points
        with pytest.raises(StructuralError):
            TablePhase(smooth_model.space, np.full((n, n), 0.5 + 0j))

    def test_table_off_the_phase_contract_rejected(self, smooth_model, rng):
        """A unimodular table that is not Hermitian, or whose diagonal is
        not one, is refused: the oscillation pass relies on both."""
        n = smooth_model.space.n_points
        table = random_phase_table(rng, n)
        skew, flipped = table.copy(), table.copy()
        skew[0, 1] *= 1j
        flipped[2, 2] = -1.0
        for bad in (skew, flipped):
            with pytest.raises(StructuralError):
                TablePhase(smooth_model.space, bad)


@functools.cache
def _budget_setup(weight_rule, rule, sampled):
    """Gabor 4 x 61 with boxes of one time step by two frequency steps, its
    weight and oscillation report at delta 0.25, ``sampled`` or not."""
    model = build_gabor_model(4, 61, 2.0)
    space = model.space
    cov = uniform_covering(space, (1.0, 2 * 4 / 61))
    gamma = PhaseFunction(model, rule)
    weight = unit_weight(space) if weight_rule == "unit" else Weight2D(
        space, np.exp(0.02 * np.linalg.norm(space.points, axis=1)))
    return model, cov, gamma, weight, oscillation_report(
        model, cov, gamma, weight, 0.25, sampled=sampled)


class TestBudgetReport:
    def test_condition_arithmetic_pass(self):
        lhs, ok = invertibility_condition(0.4, 1.0, 1.0)
        assert ok
        assert lhs == pytest.approx(0.96, abs=1e-12)
        assert sigma_constant(0.4, 1.0, 1.0) == pytest.approx(1.4, abs=1e-15)

    def test_condition_arithmetic_fail(self):
        lhs, ok = invertibility_condition(0.5, 1.0, 1.0)
        assert not ok
        assert lhs == pytest.approx(1.25, abs=1e-12)

    def test_singleton_report_passes_budget(self, smooth_model):
        cov = singleton_covering(smooth_model.space)
        w = unit_weight(smooth_model.space)
        rep = oscillation_report(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"), w, 0.05)
        assert rep.osc_norm == 0.0
        assert rep.oscillation_ok
        assert rep.sigma == sigma_constant(0.05, rep.r_norm, rep.c_mu)

    def test_report_json_fields(self, smooth_model):
        cov = singleton_covering(smooth_model.space)
        rep = oscillation_report(smooth_model, cov,
                                 PhaseFunction(smooth_model, "one"),
                                 unit_weight(smooth_model.space), 0.1)
        doc = rep.to_json_dict()
        for key in ("osc_norm", "delta", "sigma", "R_norm", "C_mU",
                    "holds_D", "holds_58", "covering_id"):
            assert key in doc

    def test_report_records_covering_and_weight(self, smooth_model):
        """A report holds the model and covering it was made for and the
        weight it was made under, from a direct call and from the
        refinement search alike, which returns that one report; the JSON
        names the covering by its id, and serializes neither the model nor
        the weight."""
        w = unit_weight(smooth_model.space)
        cov = uniform_covering(smooth_model.space, 0.1)
        rep = oscillation_report(smooth_model, cov,
                                 PhaseFunction(smooth_model, "kernel"), w, 0.1)
        assert rep.model is smooth_model and rep.covering is cov
        assert rep.weight is w
        doc = rep.to_json_dict()
        assert "weight" not in doc and "model" not in doc
        assert doc["covering_id"] == cov.identifier()
        assert (doc["N"], doc["n_sets"]) == (cov.overlap_bound, cov.n_sets)
        refined = refine_until(smooth_model, w, delta=0.2)
        assert isinstance(refined, OscReport) and refined.certified
        assert refined.model is smooth_model and refined.weight is w
        assert refined.to_json_dict()["covering_id"] \
            == refined.covering.identifier()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["unit", "exp"]), st.sampled_from(["one", "kernel"]),
           st.booleans(),
           st.sampled_from(["below", "just-below", "at", "just-above",
                            "above"]),
           st.floats(0.05, 0.95))
    def test_replaced_budget_is_the_report_of_that_budget(
            self, weight_rule, rule, sampled, where, frac):
        """Every certificate is derived from the stored norms and delta, so
        the report of another budget is ``replace(report, delta=...)``: it
        equals a fresh ``oscillation_report`` at that delta in every field,
        every certificate and its JSON, for delta below, at and one float
        either side of the oscillation norm, and well above it, where the
        invertibility condition fails."""
        model, cov, gamma, weight, base = _budget_setup(
            weight_rule, rule, sampled)
        osc = base.osc_norm
        delta = {"below": frac * osc,
                 "just-below": np.nextafter(osc, 0.0).item(),
                 "at": osc,
                 "just-above": np.nextafter(osc, np.inf).item(),
                 "above": max(osc, 1.0 / base.r_norm) / frac}[where]
        got = replace(base, delta=delta)
        want = oscillation_report(model, cov, gamma, weight, delta,
                                  sampled=sampled)
        assert got.weight is want.weight
        for field in fields(OscReport):
            if field.name != "weight":
                assert getattr(got, field.name) == getattr(want, field.name), \
                    field.name
        for name in ("sigma", "condition_lhs", "oscillation_ok",
                     "invertibility_ok", "certified", "pileup_sigma",
                     "contraction_bounds"):
            assert getattr(got, name) == getattr(want, name), name
        assert json.dumps(got.to_json_dict(), sort_keys=True) \
            == json.dumps(want.to_json_dict(), sort_keys=True)
        assert got.oscillation_ok == (where in ("just-above", "above"))
        if where == "above":
            assert not got.invertibility_ok


class TestRefine:
    def test_terminates_for_any_positive_delta(self, smooth_model):
        w = unit_weight(smooth_model.space)
        rep = refine_until(smooth_model, w, delta=1e-6, max_rounds=12)
        assert rep.oscillation_ok
        assert all(s.size == 1 for s in sets_of(rep.covering))

    def test_deterministic(self):
        model = build_gabor_model(8, 8, 2.8)
        w = unit_weight(model.space)
        out1 = refine_until(model, w, delta=0.2)
        out2 = refine_until(model, w, delta=0.2)
        assert out1.covering.identifier() == out2.covering.identifier()
        assert out1.osc_norm == out2.osc_norm

    def test_zero_delta_rejected(self, smooth_model):
        with pytest.raises(StructuralError):
            refine_until(smooth_model, unit_weight(smooth_model.space),
                         delta=0.0)

    def test_max_rounds_exhaustion(self, smooth_model):
        w = unit_weight(smooth_model.space)
        with pytest.raises(CertificationError):
            refine_until(smooth_model, w, delta=1e-9, max_rounds=1)


SCREEN_MODELS = {
    "gabor-4x61": lambda: build_gabor_model(4, 61, 2.45),
    "gabor-6x81": lambda: build_gabor_model(6, 81, 2.45),
    "smooth": lambda: build_random_smooth_model(d=4, n_points=12,
                                                smoothness=1.2, seed=3),
}


@pytest.fixture(scope="module")
def screen_models():
    return {name: build() for name, build in SCREEN_MODELS.items()}


@pytest.fixture(scope="module")
def exact_kernels():
    """Memo of the oscillation kernel blocks the oracle's unscreened passes
    compute; they depend on the covering and the phase, not on delta or
    the weight."""
    return {}


def screen_weight(model, rule):
    space = model.space
    w = np.ones(space.n_points) if rule == "unit" else \
        np.exp(0.02 * np.linalg.norm(space.points, axis=1))
    return WeightedLp(space, 2.0, w).weight2d()


def outcome(search, *args, **kwargs):
    """(covering id, report JSON) on success; on exhausted rounds
    (CertificationError, message, the error's last report if it has one)."""
    try:
        rep = search(*args, **kwargs)
    except CertificationError as exc:
        return CertificationError, str(exc), getattr(exc, "last_report", None)
    return rep.covering.identifier(), rep.to_json_dict()


def stated_bound(message):
    """The lower bound in a screened exhaustion message."""
    return float(re.search(r"osc_norm >= (\S+) vs", message).group(1))


def naive_outcome(kernels, monkeypatch, model, *args, **kwargs):
    exact = oscillation_module._osc_rows

    def memo(model, cov, gamma, start, stop, xcols, cells, work):
        key = (id(model), cov.identifier(), gamma.rule, start, stop)
        if key not in kernels:
            kernels[key] = [(rows, xs, block.copy()) for rows, xs, block
                            in exact(model, cov, gamma, start, stop, xcols,
                                     cells, work)]
        return kernels[key]

    with monkeypatch.context() as patch:
        patch.setattr(oscillation_module, "_osc_rows", memo)
        return outcome(refine_until_naive, model, *args, **kwargs)


def column0_sum(model, weight):
    """Round 0's column-0 weighted Schur sum, as the screen forms it."""
    spans = np.ptp(model.space.points, axis=0)
    cov = uniform_covering(model.space,
                           np.where(spans > 0, spans, 1.0) * 1.0000001 + 1.0)
    scan = oscillation_norms(model, cov, PhaseFunction(model, "kernel"), weight,
                             level=0.0)
    assert scan.column == 0
    return scan.lower_bound


def exact_search_cases():
    """Models x weights x deltas x max_rounds, as ``pytest.param``s.

    On Gabor grids a round that passes the screen costs a full n^3 kernel,
    so every delta runs 1 round (exhaustion) and 12 rounds only on the
    smooth model (both weights) and on Gabor 4x61 with the unit weight; the
    other Gabor cases run 12 rounds per delta. At delta 0.2 every round
    before the singleton one fails the screen, so every model and weight
    runs 1 round and 12 rounds (success) there. Gabor 6x81 at delta 10 runs
    with the unit weight alone: its round 0 passes the screen. The
    ``True`` in each id is the invertibility every search requires.
    """
    cases = []
    for model_name in sorted(SCREEN_MODELS):
        for rule in ("unit", "exp"):
            for delta in (0.2, 3.2, 5.5, 10.0):
                if delta == 0.2 or model_name == "smooth" or \
                        (model_name, rule) == ("gabor-4x61", "unit"):
                    rounds = [1, 12]
                elif (model_name, rule, delta) == ("gabor-6x81", "exp", 10.0):
                    rounds = []
                else:
                    rounds = [12]
                cases += [pytest.param(model_name, rule, delta, max_rounds,
                                       id=f"{model_name}-{rule}-{delta}-True-"
                                          f"{max_rounds}")
                          for max_rounds in rounds]
    return cases


def assert_same_outcome(got, want):
    """The search and its exact oracle agree: the same covering and report,
    or the same exhaustion; a screened exhaustion states a lower bound on
    the oscillation norm of the oracle's last round."""
    assert got[0] == want[0]
    if got[0] is CertificationError and ">=" in got[1]:
        assert got[1].startswith(want[1].split("(")[0])
        assert stated_bound(got[1]) <= want[2].osc_norm * (1 + 1e-12)
    else:
        assert got[:2] == want[:2]


class TestRefineScreen:
    @pytest.mark.parametrize("model_name,rule,delta,max_rounds",
                             exact_search_cases())
    def test_matches_exact_search(self, screen_models, exact_kernels, monkeypatch,
                                  model_name, rule, delta, max_rounds):
        model = screen_models[model_name]
        w = screen_weight(model, rule)
        got = outcome(refine_until, model, w, delta, max_rounds=max_rounds)
        want = naive_outcome(exact_kernels, monkeypatch, model, w, delta,
                             max_rounds=max_rounds)
        assert_same_outcome(got, want)

    @pytest.mark.parametrize("model_name,rule,side", [
        (model_name, rule, side)
        for model_name, rule in [("gabor-4x61", "unit"), ("gabor-4x61", "exp"),
                                 ("smooth", "unit"), ("smooth", "exp")]
        for side in (-1, 0, 1)] + [("gabor-6x81", "unit", 0)])
    def test_matches_exact_search_at_column0_sum(self, screen_models, exact_kernels,
                                                 monkeypatch, model_name, rule,
                                                 side):
        """delta on round 0's column-0 sum and one ulp either side, over
        round 0 alone, where the screen decides at column 0. Round 0 is
        one box, so a delta that passes its screen costs a full n^3 kernel
        on 6x81; one weight and the sum itself are enough there."""
        model = screen_models[model_name]
        w = screen_weight(model, rule)
        delta = column0_sum(model, w)
        if side:
            delta = float(np.nextafter(delta, side * np.inf))
        got = outcome(refine_until, model, w, delta, max_rounds=1)
        want = naive_outcome(exact_kernels, monkeypatch, model, w, delta,
                             max_rounds=1)
        assert_same_outcome(got, want)
        stopped_at_0 = got[0] is CertificationError and "column 0's" in got[1]
        assert stopped_at_0 == (side <= 0)

    def test_rejected_rounds_stop_early(self, screen_models, monkeypatch):
        model = screen_models["gabor-6x81"]
        w = screen_weight(model, "unit")
        n = model.space.n_points
        calls = {}
        osc_rows = oscillation_module._osc_rows

        def counting(model, cov, *args):
            for rows, xs, block in osc_rows(model, cov, *args):
                calls[cov] = calls.get(cov, 0) + rows.stop - rows.start
                yield rows, xs, block

        monkeypatch.setattr(oscillation_module, "_osc_rows", counting)
        rep = refine_until(model, w, delta=0.2)
        cov = rep.covering
        rejected = [count for c, count in calls.items() if c is not cov]
        assert rejected and all(count < n for count in rejected)
        # the accepted round is all singletons: every block has no pair
        assert cov.n_sets == n and cov not in calls
        assert rep.oscillation_ok

    def test_screened_exhaustion_names_bound_and_column(self, screen_models):
        model = screen_models["gabor-6x81"]
        w = screen_weight(model, "unit")
        bound = column0_sum(model, w)
        with pytest.raises(CertificationError) as err:
            refine_until(model, w, delta=0.2, max_rounds=1)
        msg = str(err.value)
        assert bound * (1 - 1e-3) < stated_bound(msg) <= bound
        assert "column 0" in msg

    def test_screen_stops_at_first_column_reaching_level(self):
        model = build_gabor_model(4, 16, 2.0)
        cov = uniform_covering(model.space, 2.0)
        gamma = PhaseFunction(model, "kernel")
        w = unit_weight(model.space)
        osc = oscillation_kernel(model, cov, gamma)
        sums = model.space.weights @ osc
        level = float(np.sort(sums)[-2])
        scan = oscillation_norms(model, cov, gamma, w, level=level)
        assert isinstance(scan, Screened)
        first = int(np.flatnonzero(sums >= level)[0])
        assert scan.column == first
        assert scan.lower_bound == pytest.approx(sums[first], rel=1e-14)
        norm = schur_norm(model.space, osc, w)
        assert scan.lower_bound <= norm * (1 + 1e-13)
        full = oscillation_norms(model, cov, gamma, w,
                                 level=float(sums.max()) * 2.0)
        assert full == oscillation_norms(model, cov, gamma, w)
        assert full == pytest.approx(norm, rel=1e-13)

    def test_zero_rounds_rejected(self, smooth_model):
        with pytest.raises(StructuralError):
            refine_until(smooth_model, unit_weight(smooth_model.space),
                         delta=0.5, max_rounds=0)
