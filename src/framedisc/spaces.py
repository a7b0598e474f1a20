"""Weighted L^p spaces on the grid and the covering sequence norms.

The solid spaces are L^p_w with norm (sum_x mu_x |F(x)|^p w(x)^p)^(1/p)
(weighted sup for p = inf). Sequences over a covering are measured through
their pile-up functions: the flat norm piles |lambda_i| on chi_{U_i}, the
natural norm first divides by mu(U_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, weight_compatibility
from .errors import StructuralError
from .kernels import DiscreteMeasure, Weight2D
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
        return self.streamed_column_norms([(slice(None), arr)])

    def streamed_column_norms(self, blocks) -> np.ndarray:
        """Column norms of an (n_points, k) block fed as ``(rows, block[rows])``
        pieces whose rows cover the grid once.

        For 1 < p < inf every column is divided by its largest weighted
        modulus before the power is taken, and the running sums are rescaled
        when a later piece raises that maximum, so the norm neither
        underflows nor overflows for any finite input. p = 1 and p = inf
        need no scaling.
        """
        p, mu = self.p, self.space.weights
        top = total = 0.0
        for rows, part in blocks:
            vals = np.abs(part) * self.w[rows, None]
            new_top = np.maximum(top, vals.max(axis=0, initial=0.0))
            if p == 1.0:
                total = total + np.sum(mu[rows, None] * vals, axis=0)
            elif not np.isinf(p):
                scale = np.where(new_top > 0.0, new_top, 1.0)
                total = total * (top / scale) ** p \
                    + np.sum(mu[rows, None] * (vals / scale) ** p, axis=0)
            top = new_top
        if np.isinf(p):
            return top
        return total if p == 1.0 else top * total ** (1.0 / p)

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


def pileup(seq, cov: Covering, natural: bool = False) -> np.ndarray:
    """Grid function sum_i |lambda_i| chi_{U_i} (divided by mu(U_i) if natural).

    A 2-D ``seq`` of shape (n_sets, k) is k sequences, one per column; the
    result is then (n_points, k).
    """
    lam = np.abs(np.asarray(seq))
    if lam.ndim != 2:
        lam = lam.reshape(-1)
    if lam.shape[0] != cov.n_sets:
        raise StructuralError("sequence length must equal number of covering sets")
    if natural:
        lam = (lam.T / cov.measures).T
    return cov.point_sums(lam.astype(float, copy=False))


def norm_flat(seq, cov: Covering, Y: WeightedLp) -> float:
    """Pile-up norm |sum_i |lambda_i| chi_{U_i}|_Y."""
    return Y.norm(pileup(seq, cov, natural=False))


def norm_natural(seq, cov: Covering, Y: WeightedLp) -> float:
    """Measure-normalized pile-up norm |sum_i |lambda_i| chi_{U_i}/mu(U_i)|_Y."""
    return Y.norm(pileup(seq, cov, natural=True))


def lp_sequence_norm(seq, weights, p: float) -> float:
    """Discrete weighted l^p norm of a sequence."""
    lam = np.abs(np.asarray(seq, dtype=complex).reshape(-1))
    wts = np.asarray(weights, dtype=float).reshape(-1)
    if lam.shape != wts.shape:
        raise StructuralError("sequence/weight length mismatch")
    if np.isinf(p):
        return float(np.max(lam * wts))
    return float(np.sum((lam * wts) ** p) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class SequenceNorms:
    """Per-set weights that turn the pile-up norms into plain weighted l^p norms.

    flat_weights     b(i) = mu(U_i)^(1/p)  * sup_{x in U_i} w(x)
    natural_weights  d(i) = mu(U_i)^(1/p-1)* sup_{x in U_i} w(x)
    sup_trace        r(i) = mu(U_i) * sup_{x in U_i} v(x)
    """

    covering: Covering
    Y: WeightedLp
    flat_weights: np.ndarray
    natural_weights: np.ndarray
    sup_trace: np.ndarray
    w_sup: np.ndarray
    v_sup: np.ndarray

    @classmethod
    def build(cls, cov: Covering, Y: WeightedLp, weight: Weight2D) -> "SequenceNorms":
        w_sup = cov.set_extrema(Y.w)[0]
        v_sup = cov.set_extrema(weight.v)[0]
        mu = cov.measures
        inv_p = 0.0 if np.isinf(Y.p) else 1.0 / Y.p
        b = mu ** inv_p * w_sup
        d = mu ** (inv_p - 1.0) * w_sup
        r = mu * v_sup
        return cls(cov, Y, b, d, r, w_sup, v_sup)


def flat_equivalence_interval(cov: Covering, weight: Weight2D) -> tuple:
    """[1/C_mU, N]: guaranteed range of norm_flat / weighted-l^p ratios."""
    c_mu = weight_compatibility(cov, weight)
    return 1.0 / c_mu, float(cov.overlap_bound)


def set_pair_kernel_norms(cov: Covering, weight: Weight2D, ref_set: int = 0) -> np.ndarray:
    """Schur norms of the rank-one set kernels chi_{U_k}(x) chi_{U_i}(y), k fixed.

    Computed directly from the definition (no dense kernels): the two Schur
    integrals of set i are sup_{x in U_k} sum_{y in U_i} mu_y m(x,y) and the
    transpose-side analogue, for every set at once over the covering's flat
    (set, point) pairs.
    """
    mu = cov.space.weights
    k_idx = cov.sets[ref_set]
    points = cov.flat_points
    starts = np.flatnonzero(np.diff(cov.flat_sets, prepend=-1))
    m_k = weight.block(k_idx, points)               # (|U_k|, pairs)
    row = np.add.reduceat(m_k * mu[points][None, :], starts, axis=1).max(axis=0)
    col = np.maximum.reduceat((m_k * mu[k_idx][:, None]).sum(axis=0), starts)
    return np.maximum(row, col)


@dataclass(frozen=True, eq=False)
class SupEmbeddingReport:
    """Coefficient bound |lambda_i| <= C r(i) |lambda|_natural, with evidence."""

    apriori_constant: float
    observed_constant: float
    per_set_constants: np.ndarray
    sup_trace: np.ndarray


def sup_embedding_report(cov: Covering, Y: WeightedLp, weight: Weight2D,
                         ref_set: int = 0, n_trials: int = 100,
                         seed: int = 0) -> SupEmbeddingReport:
    """Bound single coefficients by the natural norm, scaled by r(i).

    The a-priori constant comes from the set-pair kernels; the observed one
    is the worst ratio over basis sequences and ``n_trials`` random draws.
    """
    norms = SequenceNorms.build(cov, Y, weight)
    chi = np.zeros(cov.space.n_points)
    chi[cov.sets[ref_set]] = 1.0
    base = Y.norm(chi)
    per_set = set_pair_kernel_norms(cov, weight, ref_set) / base
    apriori = float(np.max(per_set / norms.sup_trace))

    rng = np.random.default_rng(seed)
    observed = 0.0
    n = cov.n_sets
    probes = list(np.eye(n))
    for _ in range(n_trials):
        probes.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for lam in probes:
        nat = norm_natural(lam, cov, Y)
        if nat == 0.0:
            continue
        ratios = np.abs(lam) / (norms.sup_trace * nat)
        observed = max(observed, float(ratios.max()))
    return SupEmbeddingReport(apriori, observed, per_set, norms.sup_trace)


def decomposition_norm(nu, cov: Covering, Y: WeightedLp) -> float:
    """Natural pile-up norm of the per-set masses of a measure or function.

    Measures contribute sum of |coefficients| of atoms inside U_i; grid
    functions contribute the integral of |F| over U_i.
    """
    if isinstance(nu, DiscreteMeasure):
        nu.check_on(cov.space)
        dens = np.bincount(nu.indices, np.abs(nu.coefficients),
                           minlength=cov.space.n_points)
    else:
        arr = cov.space.check_function(nu)
        dens = np.abs(arr) * cov.space.weights
    return norm_natural(cov.set_sums(dens), cov, Y)


def local_integrability_constant(cov: Covering, Y: WeightedLp, weight: Weight2D,
                                 ref_set: int = 0) -> float:
    """A-priori constant C with |F|_{D(L^1, natural sup-space)} <= C |F|_Y.

    Chains the sharp local Hoelder embedding on the reference set with the
    set-pair kernel norms:
    |chi_{U_i} F|_{L^1} <= C_k mu(U_k)^{-1} |K_i| |F|_Y, then takes the
    weighted sup of the resulting pile-up against 1/v.
    """
    k_idx = cov.sets[ref_set]
    c_hold = Y.holder_l1_constant(k_idx)
    mu_k = cov.space.subset_measure(k_idx)
    kernel_norms = set_pair_kernel_norms(cov, weight, ref_set)
    coef = kernel_norms / cov.measures
    envelope = cov.point_sums(coef)
    return float(c_hold / mu_k * np.max(envelope / weight.v))
