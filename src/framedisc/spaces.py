"""Weighted L^p spaces on the grid and the pile-ups of covering sequences.

The solid spaces are L^p_w with norm (sum_x mu_x |F(x)|^p w(x)^p)^(1/p)
(weighted sup for p = inf). Sequences over a covering are measured through
their pile-up functions: the flat pile-up puts |lambda_i| on chi_{U_i}, the
natural one first divides by mu(U_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering
from .errors import StructuralError
from .kernels import Weight2D, Workspace, block_rows, row_slices
from .quadrature import QuadratureSpace

# Bytes a pile-up tile holds per column: for each (set, point) pair, the
# gathered complex value, its modulus and the modulus scaled; for each point,
# the pile-up, a partial sum and the moduli ``streamed_column_norms`` takes.
PILEUP_PAIR_BYTES = 32
PILEUP_POINT_BYTES = 24


@dataclass(frozen=True, eq=False)
class WeightedLp:
    """Solid weighted L^p space over a quadrature space."""

    space: QuadratureSpace
    p: float
    w: np.ndarray

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise StructuralError("exponent p must satisfy p >= 1")
        wv = np.asarray(self.w, dtype=float).reshape(-1)
        if wv.shape[0] != self.space.n_points:
            raise StructuralError("space weight length mismatch")
        if np.any(wv <= 0) or not np.all(np.isfinite(wv)):
            raise StructuralError("space weight must be positive and finite")
        wv.setflags(write=False)
        object.__setattr__(self, "w", wv)
        object.__setattr__(self, "p", float(self.p))

    @classmethod
    def lebesgue(cls, space: QuadratureSpace, p: float) -> "WeightedLp":
        return cls(space, p, np.ones(space.n_points))

    def norm(self, f) -> float:
        arr = self.space.check_function(f)
        return float(self.column_norms(arr[:, None])[0])

    def column_norms(self, block) -> np.ndarray:
        """Norm of every column of an (n_points, k) block of grid functions."""
        arr = np.asarray(block)
        if arr.ndim != 2 or arr.shape[0] != self.space.n_points:
            raise StructuralError(
                f"block of shape {arr.shape} is not (n_points, k) on "
                f"{self.space.n_points} points")
        return self.streamed_column_norms([(slice(None), arr)])

    def streamed_column_norms(self, blocks) -> np.ndarray:
        """Column norms of an (n_points, k) block fed as ``(rows, block[rows])``
        pieces whose rows cover the grid once.

        For 1 < p < inf every column is divided by its largest weighted
        modulus before the power is taken, and the running sums are rescaled
        when a later piece raises that maximum, so the norm neither
        underflows nor overflows for any finite input. p = 1 and p = inf
        need no scaling. Each piece's mu-weighted sum is one product. The
        moduli of every piece go into one buffer.
        """
        p, mu = self.p, self.space.weights
        top = total = 0.0
        work = Workspace()
        for rows, part in blocks:
            vals = np.abs(part, out=work.views((part.shape, float))[0])
            vals *= self.w[rows, None]
            if p == 1.0:
                total = total + mu[rows] @ vals
                continue
            new_top = np.maximum(top, vals.max(axis=0, initial=0.0))
            if not np.isinf(p):
                scale = np.where(new_top > 0.0, new_top, 1.0)
                vals /= scale
                if p == 2.0:
                    np.square(vals, out=vals)
                else:
                    np.power(vals, p, out=vals)
                total = total * (top / scale) ** p + mu[rows] @ vals
            top = new_top
        if p == 1.0:
            return total
        if np.isinf(p):
            return top
        return top * total ** (1.0 / p)

    def weight2d(self, ref_index: int = 0) -> Weight2D:
        """Associated two-point weight max{w(x)/w(y), w(y)/w(x)}."""
        return Weight2D(self.space, self.w, ref_index)

    def holder_l1_constant(self, subset) -> float:
        """Sharp constant of |chi_Q F|_{L^1} <= C |F|_{L^p_w} on a point subset."""
        idx = np.asarray(subset, dtype=int).reshape(-1)
        mu = self.space.weights[idx]
        winv = 1.0 / self.w[idx]
        if np.isinf(self.p):
            return float(np.sum(mu * winv))
        if self.p == 1.0:
            return float(np.max(winv))
        q = self.p / (self.p - 1.0)
        return float(np.sum(mu * winv ** q) ** (1.0 / q))


def sup_infinity_space(Y: WeightedLp, weight: Weight2D) -> WeightedLp:
    """The sup-normed space with weight 1/v, v the one-point trace of ``weight``."""
    return WeightedLp(Y.space, np.inf, 1.0 / weight.v)


def pileup(seq, cov: Covering, natural: bool = False, rows: slice | None = None,
           phi=None) -> np.ndarray:
    """Grid function sum_i |lambda_i| chi_{U_i} (divided by mu(U_i) if natural).

    A 2-D ``seq`` of shape (n_sets, k) is k sequences, one per column; the
    result is then (n_points, k). With ``rows`` (a slice of points) only
    those rows are formed, from the sets holding them. With ``phi``, one
    value per (set, point) pair in the covering's point-major order (a
    partition of unity's ``phi``), the term of set i at x is weighted by
    phi_i(x) instead of chi_{U_i}(x).
    """
    arr = np.asarray(seq)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    if arr.shape[0] != cov.n_sets:
        raise StructuralError("sequence length must equal number of covering sets")
    rows = slice(0, cov.space.n_points) if rows is None else rows
    held = cov.holders(rows.start, rows.stop)
    lam = np.abs(arr[held]).astype(float, copy=False)
    if natural:
        lam = (lam.T / cov.measures[held]).T
    if phi is not None:
        lam = (np.asarray(phi)[cov.pairs(rows.start, rows.stop)] * lam.T).T
    return cov.pair_sums(lam, rows.start, rows.stop)


def pileup_norms(Y: WeightedLp, seq, cov: Covering, natural: bool = False,
                 phi=None) -> np.ndarray:
    """Y-norms of the pile-ups (``pileup``) of the columns of an (n_sets, k)
    block ``seq``, formed in point tiles whose gathered values, pile-up and
    moduli fit in ``BLOCK_BYTES``, so no (n_points, k) block is formed."""
    k = np.shape(seq)[1]
    depth = int(cov.cover_counts.max(initial=1))
    step = block_rows(k, PILEUP_PAIR_BYTES * depth + PILEUP_POINT_BYTES)
    return Y.streamed_column_norms(
        (rows, pileup(seq, cov, natural, rows, phi))
        for rows in row_slices(cov.space.n_points, step))


def set_pair_kernel_norms(cov: Covering, weight: Weight2D) -> np.ndarray:
    """Schur norms of the rank-one set kernels chi_{U_k}(x) chi_{U_i}(y), for
    the reference set k = 0.

    Computed directly from the definition (no dense kernels): the two Schur
    integrals of set i are sup_{x in U_k} sum_{y in U_i} mu_y m(x,y) and the
    transpose-side analogue, for every set at once over the covering's flat
    (set, point) pairs.
    """
    mu = cov.space.weights
    k_idx = cov.sets[0]
    points = cov.flat_points
    starts = np.flatnonzero(np.diff(cov.flat_sets, prepend=-1))
    m_k = weight.block(k_idx, points)               # (|U_k|, pairs)
    row = np.add.reduceat(m_k * mu[points][None, :], starts, axis=1).max(axis=0)
    col = np.maximum.reduceat((m_k * mu[k_idx][:, None]).sum(axis=0), starts)
    return np.maximum(row, col)


def local_integrability_constant(cov: Covering, Y: WeightedLp,
                                 weight: Weight2D) -> float:
    """A-priori constant C with |F|_{D(L^1, natural sup-space)} <= C |F|_Y.

    Chains the sharp local Hoelder embedding on the reference set k = 0
    with the set-pair kernel norms:
    |chi_{U_i} F|_{L^1} <= C_k mu(U_k)^{-1} |K_i| |F|_Y, then takes the
    weighted sup of the resulting pile-up against 1/v.
    """
    c_hold = Y.holder_l1_constant(cov.sets[0])
    coef = set_pair_kernel_norms(cov, weight) / cov.measures
    envelope = cov.point_sums(coef)
    return float(c_hold / cov.measures[0] * np.max(envelope / weight.v))
