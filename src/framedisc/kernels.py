"""Kernels on point pairs and the weighted Schur algebra.

A kernel is a complex function K(x, y) on pairs of points. The algebra
norm is the larger of the two weighted Schur integrals

    sup_x sum_y w_y |K(x,y)| m(x,y)   and   sup_y sum_x w_x |K(x,y)| m(x,y),

which makes the quadrature identity kernel have norm one and is
submultiplicative under weighted composition. The two-point weight m is
the associated weight of a pointwise weight and is stored pointwise.

Schur norms are streamed: ``SchurSums`` takes |K| in blocks of rows,
forms its one weight's m on the block once (none under a trivial weight),
and keeps the row sums and the running column sums, so no (n, n) array of
|K| or m is formed. Every pass has one weight, the target weight m. The
sup space L^inf_{1/v} of the range-sup constant asks for the norms under
m_v, the associated weight of v = m(., z0); submultiplicativity gives
m(x, z0) <= m(x, y) m(y, z0), so m_v <= m pointwise and the norms under m
bound those under m_v, with equality when w(z0) is the least or the
largest value of w. The reproducing kernel and the oscillation kernel
are produced block by block from a model's rank-d factors straight into
it; no dense kernel is accepted. |R| m is symmetric, so R goes in as strips of its
upper triangle (``SchurSums.add_upper``) and each entry is formed once.
Two kernels need no pass of their own. The sampled-row constant is
bounded, under any weight, off the R pass: from the weighted |R| row sums
at the sample points and the sums of |R| m against one more measure on
the sample points, which ``SchurSums`` keeps beside mu under the same m
(``oscillation.kernel_norms``). The reproducing defect is
bounded through its d x d core (``pipeline.reproducing_defect``).

Every streamed pass keeps to one working-set budget, ``BLOCK_BYTES``: the
total bytes of the kernel-derived temporaries it holds at once, i.e. the
complex products, their moduli, the gathered and maxed rows, and the weight
block m with the smaller weight it divides by (``SchurSums.entry_bytes``).
A pass states what it holds per kernel entry and takes its tiles from that.
A tile is whole rows of up to ``TILE_COLS`` entries; longer rows are cut
into even column blocks as well (``col_slices``), so a tile keeps one
shape, at most ``TILE_COLS`` columns by as many rows as the budget holds of
them, however large n grows, and a grid of 4,096 points or fewer keeps
whole-row tiles.
``SchurSums`` adds up the row sums of a row block's column pieces and
closes the rows with their last piece. A pass carves its arrays out of one
buffer allocated once (``Workspace``) and fills them in place. Beside the
budget a pass holds the model's O(n d) factors and its index bookkeeping:
O(n) entries, and for the oscillation pass at most a budget's worth of
(y, z) pairs where n is small against the budget. So a pass's peak follows
from n, d and ``BLOCK_BYTES``.

The verification harness keeps to the same budget: it measures range
functions V* a through their coordinates a (a d x d metric where Y gives
one, p = 2, else row blocks of V* a; a Neumann inversion only through
coordinate bounds, O(d) per column) and norms pile-ups on the partition's
cells, one value per cell and trial. So besides the budget it holds
O(n d + (n_sets + cells) n_trials) values; the flat partition of a
covering whose sets do not overlap has one cell per set, a smooth
partition up to one per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .quadrature import QuadratureSpace

# Total bytes of the kernel-derived temporaries one streamed pass holds at
# once; each pass sizes its tiles from its own bytes per kernel entry
# (``block_rows``, ``col_slices``, ``upper_strips``).
BLOCK_BYTES = 1 << 21

# Most columns of one tile: a pass over longer rows cuts the columns into
# even blocks as well, so its tiles keep one shape however large n grows.
TILE_COLS = 4096

# Bytes per entry a non-trivial weight adds to a Schur pass: m, multiplied
# by |K| in place, and the smaller weight it divides by.
WEIGHT_ENTRY_BYTES = 16


@dataclass(frozen=True, eq=False)
class Weight2D:
    """Associated two-point weight m(x, y) = max{w(x)/w(y), w(y)/w(x)} of a
    positive pointwise weight w.

    Only w is stored; ``block`` evaluates m on index sets. An associated
    weight is symmetric, one on the diagonal and submultiplicative. A
    constant w gives the trivial weight m = 1, for which no m is formed.
    The one-point trace ``v(x) = m(x, z0)`` at the reference point z0 =
    point 0 is what the sup-weighted function spaces use.
    """

    space: QuadratureSpace
    w: np.ndarray

    def __post_init__(self):
        n = self.space.n_points
        wv = np.array(self.w, dtype=float).reshape(-1)
        if wv.shape[0] != n:
            raise StructuralError(f"pointwise weight has length {wv.shape[0]}, "
                                  f"expected {n}")
        if not np.all(np.isfinite(wv)) or np.any(wv <= 0.0):
            raise StructuralError("pointwise weight entries must be finite and > 0")
        # every m(x, y) lies in [1, max(w)/min(w)]
        with np.errstate(over="ignore"):
            spread = wv.max() / wv.min()
        if not np.isfinite(spread):
            raise StructuralError("weight ratio max(w)/min(w) must be finite")
        wv.setflags(write=False)
        object.__setattr__(self, "w", wv)

    @property
    def trivial(self) -> bool:
        """True for a constant w, whose m is one everywhere."""
        return bool(self.w.min() == self.w.max())

    @property
    def v(self) -> np.ndarray:
        """One-point weight v(x) = m(x, z0), z0 = point 0."""
        return self.block(slice(None), [0])[:, 0]

    def block(self, rows, cols, out=None, spare=None) -> np.ndarray:
        """m(x, y) for x in ``rows`` and y in ``cols`` (index arrays or
        slices), written into ``out`` when given; ``spare``, of the same
        shape, takes the smaller weight."""
        wr = self.w[rows][:, None]
        wc = self.w[cols][None, :]
        # the larger weight over the smaller is the quotient that is >= 1,
        # to the bit, and m(x, y) and m(y, x) are the same float
        out = np.maximum(wr, wc, out=out)
        return np.divide(out, np.minimum(wr, wc, out=spare), out=out)


def block_rows(n: int, entry_bytes: int = 16) -> int:
    """Rows of n entries that fit in ``BLOCK_BYTES`` at ``entry_bytes`` of
    temporaries per entry (at least one)."""
    return max(1, BLOCK_BYTES // (entry_bytes * max(1, n)))


def even_step(total: int, step: int) -> int:
    """The least step that cuts ``total`` items into as few pieces as
    steps of ``step`` would: the pieces come out even, none above ``step``."""
    return -(-total // -(-total // step)) if total > 0 else step


def row_slices(n: int, step: int | None = None) -> list:
    """Consecutive slices of at most ``step`` rows (default
    ``block_rows(n)``) covering ``range(n)``, as few as that allows and of
    even size, so the buffers sized for them are no larger than needed."""
    step = even_step(n, block_rows(n) if step is None else step)
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


def tile_width(n: int, entry_bytes: int) -> int:
    """Columns of one tile over rows of n entries at ``entry_bytes`` each:
    all n up to ``TILE_COLS`` columns and one row within ``BLOCK_BYTES``,
    else the most of that allows, evened out over n."""
    return even_step(n, min(TILE_COLS, max(1, BLOCK_BYTES // entry_bytes)))


def col_slices(n: int, entry_bytes: int, start: int = 0) -> list:
    """Consecutive column slices of ``tile_width(n - start, entry_bytes)``
    covering ``range(start, n)``; one slice while whole rows fit."""
    step = tile_width(n - start, entry_bytes)
    return [slice(a, min(n, a + step)) for a in range(start, n, step)]


def upper_strips(n: int, entry_bytes: int) -> list:
    """Consecutive row slices a:b covering ``range(n)`` whose strips
    [a:b, a:] of an n x n upper triangle, taken in column blocks of
    ``col_slices(n, entry_bytes, a)``, fit in ``BLOCK_BYTES`` at
    ``entry_bytes`` per entry (at least one row): the strips grow taller as
    they narrow."""
    strips, start = [], 0
    while start < n:
        width = tile_width(n - start, entry_bytes)
        stop = min(n, start + block_rows(width, entry_bytes))
        strips.append(slice(start, stop))
        start = stop
    return strips


class Workspace:
    """The one buffer a streamed pass allocates and carves its arrays from.

    ``views((shape, dtype), ...)`` lays C-contiguous arrays of those shapes
    and dtypes (float or complex) out one after another in the buffer and
    returns them; every call overwrites the arrays of the last. The buffer
    is allocated again only when a larger layout is asked for, after the
    smaller one is let go. One allocation per pass, rather than one per
    array, also lets the allocator keep the pass's memory for the next
    pass, where arrays freed together above its trim threshold would go
    back to the system and be faulted in again.
    """

    def __init__(self):
        self._buf = np.empty(0)

    def views(self, *specs) -> list:
        layout, end = [], 0
        for shape, dtype in specs:
            size = math.prod(shape) * (2 if dtype is complex else 1)
            layout.append((end, size, shape, dtype))
            end += size + size % 2      # every array 16-byte aligned
        if self._buf.size < end:
            self._buf = None
            self._buf = np.empty(end)
        return [self._buf[start:start + size].view(dtype).reshape(shape)
                for start, size, shape, dtype in layout]


class SchurSums:
    """Weighted Schur sums of a nonnegative kernel fed as blocks of rows.

    ``add(rows, block)`` takes ``block = |K|[rows, :]`` and returns the
    block's row sums sum_y mu_y |K(x, y)| m(x, y) under the one ``weight``
    (``None`` or a trivial weight: m = 1, and no m is formed); ``norms()``
    is the Schur norm once every row has been fed. With a ``measure`` nu
    (one value per point) one more set of sums takes nu in place of mu
    under the same m, formed once per block: its norm comes second in
    ``norms()``.

    A row block may come in column pieces, ``add(rows, |K|[rows, cols],
    cols)`` for consecutive ``cols`` from column 0 to n: the pieces' row
    sums add up, and only the last piece closes the rows and returns their
    sums (the others return None).

    A kernel whose |K| is symmetric may instead be fed as strips of its
    upper triangle, ``add_upper(start, |K|[start:stop, start:])`` for
    consecutive ``start`` from 0, each strip whole or in column pieces
    from ``start`` to n: each strip's column sums beyond ``stop`` are the
    row sums of the rows below it, mirrored, so every entry is formed once
    and the row sup, which equals the column sup, is the norm.

    ``entry_bytes`` is what the sums hold per entry of a block: nothing
    under a unit or trivial weight, else m (multiplied by |K| in place)
    and the smaller weight it divides by, in buffers reused from block to
    block.
    """

    def __init__(self, space: QuadratureSpace, weight: Weight2D | None = None,
                 measure=None):
        if weight is not None and weight.space is not space \
                and weight.space.n_points != space.n_points:
            raise StructuralError("weight lives on a different space")
        self._n = space.n_points
        self._weight = None if weight is None or weight.trivial else weight
        # mu, then the measure: both summed under the one m
        self._mu = [space.weights] if measure is None \
            else [space.weights, np.asarray(measure, dtype=float)]
        self._row = np.zeros(len(self._mu))
        self._col = np.zeros((len(self._mu), space.n_points))
        self._open = None       # row sums of the pieces of an open row block
        self.entry_bytes = 0 if self._weight is None else WEIGHT_ENTRY_BYTES
        self._work = Workspace()

    def add(self, rows, block: np.ndarray,
            cols: slice | None = None) -> np.ndarray | None:
        return self._feed(rows, slice(0, self._n) if cols is None else cols,
                          block)

    def add_upper(self, start: int, block: np.ndarray,
                  cols: slice | None = None) -> np.ndarray | None:
        stop = start + block.shape[0]
        return self._feed(slice(start, stop),
                          slice(start, self._n) if cols is None else cols,
                          block, upper=True)

    def _feed(self, rows, cols, block, upper=False) -> np.ndarray | None:
        """Row sums of ``block`` = |K|[rows, cols], added to those of the
        row block's earlier pieces; the column sums are kept for every
        column or, for an upper strip, for the columns right of its
        diagonal block, where they are the rows' sums left of the diagonal.
        Returns the rows' sums against mu once ``cols`` reaches column n,
        else None."""
        skip = min(max(rows.stop - cols.start, 0), block.shape[1]) \
            if upper else 0
        if self._weight is not None:
            m, spare = self._work.views((block.shape, float),
                                        (block.shape, float))
            self._weight.block(rows, cols, out=m, spare=spare)
            block = np.multiply(m, block, out=m)
        part = np.empty((len(self._mu), block.shape[0]))
        for k, mu in enumerate(self._mu):
            part[k] = block @ mu[cols]
            self._col[k, cols.start + skip:cols.stop] += \
                mu[rows] @ block[:, skip:]
        if cols.start > (rows.start if upper else 0):
            part += self._open
        if cols.stop < self._n:
            self._open = part
            return None
        self._open = None
        out = part + self._col[:, rows] if upper else part
        np.maximum(self._row, out.max(axis=1, initial=0.0), out=self._row)
        return out[0]

    def norms(self) -> list:
        """The Schur norm against mu, then against the measure if given."""
        return [float(max(row, col.max(initial=0.0)))
                for row, col in zip(self._row, self._col)]
