"""Kernels on point pairs and the weighted Schur algebra.

A kernel is a complex function K(x, y) on pairs of points. The algebra
norm is the larger of the two weighted Schur integrals

    sup_x sum_y w_y |K(x,y)| m(x,y)   and   sup_y sum_x w_x |K(x,y)| m(x,y),

which makes the quadrature identity kernel have norm one and is
submultiplicative under weighted composition. The two-point weight m is
the associated weight of a pointwise weight and is stored pointwise.

Schur norms are streamed: ``SchurSums`` takes |K| in blocks of rows,
forms each non-trivial weight's m on the block once, and keeps the row
sums and the running column sums of every weight it was given, so one pass
gives the norm under several weights and no (n, n) array of |K| or m is
formed. The reproducing kernel, the oscillation kernel and, under a
non-trivial weight, the sampled-row kernel are produced block by block
from a model's rank-d factors straight into it; no dense kernel is
accepted. |R| m is symmetric, so R goes in as strips of its upper
triangle (``SchurSums.add_upper``) and each entry is formed once. Two
kernels need no such pass: under a trivial weight the sampled-row constant
is read off the sample rows of R (``discretize.verify_sampled_bounds``),
and the reproducing defect is bounded through its d x d core
(``pipeline.reproducing_defect``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .quadrature import QuadratureSpace

# Bytes of complex kernel values one streamed block may hold; rows per
# block follow from the row length (``block_rows``).
BLOCK_BYTES = 1 << 23


@dataclass(frozen=True, eq=False)
class Weight2D:
    """Associated two-point weight m(x, y) = max{w(x)/w(y), w(y)/w(x)} of a
    positive pointwise weight w, with a distinguished reference point.

    Only w is stored; ``block`` evaluates m on index sets. An associated
    weight is symmetric, one on the diagonal and submultiplicative. A
    constant w gives the trivial weight m = 1, for which no m is formed.
    The one-point trace ``v(x) = m(x, z)`` (z = ``ref_index``) is what the
    sup-weighted function spaces use.
    """

    space: QuadratureSpace
    w: np.ndarray
    ref_index: int = 0

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
        if not 0 <= self.ref_index < n:
            raise StructuralError("ref_index out of range")
        wv.setflags(write=False)
        object.__setattr__(self, "w", wv)

    @property
    def trivial(self) -> bool:
        """True for a constant w, whose m is one everywhere."""
        return bool(self.w.min() == self.w.max())

    @property
    def v(self) -> np.ndarray:
        """One-point weight v(x) = m(x, ref)."""
        return self.block(slice(None), [self.ref_index])[:, 0]

    def block(self, rows, cols) -> np.ndarray:
        """m(x, y) for x in ``rows`` and y in ``cols`` (index arrays or slices)."""
        wr = self.w[rows][:, None]
        wc = self.w[cols][None, :]
        # both quotients, not a reciprocal: m(x, y) and m(y, x) are the same float
        out = wr / wc
        return np.maximum(out, wc / wr, out=out)


def block_rows(n: int) -> int:
    """Rows of n complex values that fit in ``BLOCK_BYTES`` (at least one)."""
    return max(1, BLOCK_BYTES // (16 * n))


def row_slices(n: int, step: int | None = None) -> list:
    """Consecutive slices of ``step`` rows (default ``block_rows(n)``)
    covering ``range(n)``."""
    step = block_rows(n) if step is None else step
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


class SchurSums:
    """Weighted Schur sums of a nonnegative kernel fed as blocks of rows.

    ``add(rows, block)`` takes ``block = |K|[rows, :]`` and returns the
    block's row sums sum_y w_y |K(x, y)| m(x, y), one row per weight;
    ``norms()`` is the Schur norm under each weight once every row has
    been fed. A weight of ``None`` is the unit weight; trivial weights
    share one set of sums, and so do repeats of one weight object, whose m
    is formed once per block.

    A kernel whose |K| is symmetric may instead be fed as strips of its
    upper triangle, ``add_upper(start, |K|[start:stop, start:])`` for
    consecutive ``start`` from 0: each strip's column sums beyond ``stop``
    are the row sums of the rows below it, mirrored, so every entry is
    formed once and the row sup, which equals the column sup, is the norm.
    """

    def __init__(self, space: QuadratureSpace, weights):
        for weight in weights:
            if weight is not None and weight.space is not space \
                    and weight.space.n_points != space.n_points:
                raise StructuralError("weight lives on a different space")
        self._mu = space.weights
        self._weights = [None if w is None or w.trivial else w for w in weights]
        self._row = np.zeros(len(self._weights))
        self._col = np.zeros((len(self._weights), space.n_points))

    def add(self, rows, block: np.ndarray) -> np.ndarray:
        return self._feed(rows, slice(None), block)

    def add_upper(self, start: int, block: np.ndarray) -> np.ndarray:
        stop = start + block.shape[0]
        return self._feed(slice(start, stop), slice(start, None), block,
                          upper=True)

    def _feed(self, rows, cols, block, upper=False) -> np.ndarray:
        """Row sums of ``block`` = |K|[rows, cols]; the column sums are kept
        for every column or, for an upper strip, for the columns right of
        its diagonal block, where they are the rows' sums left of the
        diagonal."""
        mu = self._mu
        skip = block.shape[0] if upper else 0
        kept = slice(rows.stop, None) if upper else slice(None)
        out = np.empty((len(self._weights), block.shape[0]))
        sums = {}
        for k, weight in enumerate(self._weights):
            if weight not in sums:
                weighted = block if weight is None \
                    else block * weight.block(rows, cols)
                sums[weight] = weighted @ mu[cols], mu[rows] @ weighted[:, skip:]
            row, col = sums[weight]
            out[k] = row + self._col[k, rows] if upper else row
            self._col[k, kept] += col
        np.maximum(self._row, out.max(axis=1, initial=0.0), out=self._row)
        return out

    def norms(self) -> list:
        return [float(max(row, col.max(initial=0.0)))
                for row, col in zip(self._row, self._col)]


def schur_norms(space: QuadratureSpace, blocks, weights) -> list:
    """Schur norms, one per weight, of the kernel whose ``(rows, |K|[rows, :])``
    blocks ``blocks`` yields, in one pass."""
    sums = SchurSums(space, weights)
    for rows, block in blocks:
        sums.add(rows, block)
    return sums.norms()
