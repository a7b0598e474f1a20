"""Weighted L^p spaces on the grid and the pile-ups of covering sequences.

The solid spaces are L^p_w with norm (sum_x mu_x |F(x)|^p w(x)^p)^(1/p)
(weighted sup for p = inf); the dual of L^p_w is L^q_{1/w}, 1/p + 1/q = 1,
whose norms give the sharp Hoelder constants. Sequences over a covering are
measured through their pile-up functions: the flat pile-up puts |lambda_i|
on chi_{U_i}, the natural one first divides by mu(U_i), and a partition of
unity's pile-up weights set i by phi_i. Every pile-up over a covering is
constant on the covering's cells, so ``pileup_norms`` forms it there and
norms it in Y collapsed on the cells (``cell_space``), without a grid
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Cells, Covering
from .errors import StructuralError
from .kernels import Weight2D, Workspace
from .quadrature import QuadratureSpace


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
        return streamed_norms([self], [(slice(None), arr)])[0]

    def range_metric(self, vectors: np.ndarray) -> np.ndarray | None:
        """The d x d metric M = V diag(mu w^2) V* of this norm on the range
        of the analysis transform of the (d, n_points) frame vectors V, so
        that |V* a|_Y^2 = a* M a; None where the norm has no such metric
        (p != 2)."""
        if self.p != 2.0:
            return None
        return (vectors * (self.space.weights * self.w ** 2)) \
            @ vectors.conj().T

    def weight2d(self) -> Weight2D:
        """Associated two-point weight max{w(x)/w(y), w(y)/w(x)}."""
        return Weight2D(self.space, self.w)

    def dual(self) -> "WeightedLp":
        """The dual space L^q_{1/w}(mu), 1/p + 1/q = 1: its norm of g >= 0 is
        the sharp C in sum_x mu_x g(x) |F(x)| <= C |F|_Y (Hoelder's
        inequality on g/w and w F, which is attained)."""
        q = np.inf if self.p == 1.0 else 1.0 if np.isinf(self.p) \
            else self.p / (self.p - 1.0)
        return WeightedLp(self.space, q, 1.0 / self.w)

    def holder_l1_constant(self, subset) -> float:
        """Sharp constant of |chi_Q F|_{L^1} <= C |F|_{L^p_w} on a point
        subset: the dual norm of chi_Q, scaled like every norm, so it stays
        finite where (1/w)^q overflows."""
        chi = np.zeros(self.space.n_points)
        chi[np.asarray(subset, dtype=int).reshape(-1)] = 1.0
        return self.dual().norm(chi)


def streamed_norms(spaces, blocks) -> list:
    """Column norms in each of ``spaces`` (solid spaces on one grid), one
    array per space, of an (n_points, k) block fed once as
    ``(rows, block[rows])`` pieces whose rows cover the grid once.

    For 1 < p < inf every column is divided by its largest weighted
    modulus before the power is taken, and the running sums are rescaled
    when a later piece raises that maximum, so the norm neither
    underflows nor overflows for any finite input. p = 1 and p = inf
    need no scaling. Each piece's mu-weighted sum is one product. Every
    space takes the moduli of a piece in turn, into one buffer.
    """
    tops, totals = [0.0] * len(spaces), [0.0] * len(spaces)
    work = Workspace()
    for rows, part in blocks:
        vals, = work.views((part.shape, float))
        for s, Y in enumerate(spaces):
            np.abs(part, out=vals)
            vals *= Y.w[rows, None]
            p, mu = Y.p, Y.space.weights[rows]
            if p == 1.0:
                totals[s] = totals[s] + mu @ vals
                continue
            top = tops[s]
            tops[s] = np.maximum(top, vals.max(axis=0, initial=0.0))
            if not np.isinf(p):
                scale = np.where(tops[s] > 0.0, tops[s], 1.0)
                vals /= scale
                np.power(vals, p, out=vals)
                totals[s] = totals[s] * (top / scale) ** p + mu @ vals
    return [total if Y.p == 1.0 else top if np.isinf(Y.p)
            else top * total ** (1.0 / Y.p)
            for Y, top, total in zip(spaces, tops, totals)]


def sup_infinity_space(Y: WeightedLp, weight: Weight2D) -> WeightedLp:
    """The sup-normed space with weight 1/v, v the one-point trace of ``weight``."""
    return WeightedLp(Y.space, np.inf, 1.0 / weight.v)


def cell_space(Y: WeightedLp, cells: Cells) -> WeightedLp:
    """Y collapsed onto a covering's cells, each at its lowest point: the
    weight w'_c = max of w over cell c and the measure
    mu'_c = sum over c of mu_x (w(x)/w'_c)^p (sum of mu_x at p = inf), so
    |F|_Y = |F on the cells|_{Y'} for every F constant on each cell."""
    members, sizes = cells.members, np.diff(cells.member_ptr)
    starts = cells.member_ptr[:-1]
    w = Y.w[members]
    top = np.maximum.reduceat(w, starts)
    mu = Y.space.weights[members]
    if not np.isinf(Y.p):
        mu = mu * (w / np.repeat(top, sizes)) ** Y.p
    space = QuadratureSpace(Y.space.points[members[starts]],
                            np.add.reduceat(mu, starts))
    return WeightedLp(space, Y.p, top)


def pileup_norms(Y: WeightedLp, seq, cov: Covering,
                 natural: bool = False, phi: bool = False) -> np.ndarray:
    """Y-norms of the pile-ups sum_i |seq_i| chi_{U_i} (each term divided by
    mu(U_i) if ``natural``, weighted by the covering's phi_i with ``phi``)
    over the covering, one per column of an (n_sets, k) block ``seq``.

    Every such pile-up is constant on each of the covering's cells
    (``Covering.cells``), so it is formed and normed there: ``Y`` is the
    grid's space collapsed on those cells (``cell_space``), and each column
    costs one value per (cell, set) pair. No grid function is formed.
    """
    cells = cov.cells
    if Y.space.n_points != cells.count:
        raise StructuralError(f"space of {Y.space.n_points} points is not "
                              f"collapsed on the covering's {cells.count} "
                              f"cells")
    lam = np.abs(seq).take(cells.sets, axis=0).astype(float, copy=False)
    if natural:
        lam /= cov.measures[cells.sets][:, None]
    if phi:
        lam *= cells.phi[:, None]
    return Y.column_norms(cells.pair_sums(lam))


def set_pair_kernel_norms(cov: Covering, weight: Weight2D) -> np.ndarray:
    """Schur norms of the rank-one set kernels chi_{U_k}(x) chi_{U_i}(y), for
    the reference set k = 0.

    Computed directly from the definition (no dense kernels): the two Schur
    integrals of set i are sup_{x in U_k} sum_{y in U_i} mu_y m(x,y) and the
    transpose-side analogue, for every set at once over the covering's flat
    (set, point) pairs.
    """
    mu = cov.space.weights
    k_idx = cov.flat_points[cov.flat_sets == 0]
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
    c_hold = Y.holder_l1_constant(cov.flat_points[cov.flat_sets == 0])
    coef = set_pair_kernel_norms(cov, weight) / cov.measures
    envelope = cov.point_sums(coef)
    return float(c_hold / cov.measures[0] * np.max(envelope / weight.v))
