"""The lemma-level theory layer: everything here is called only by tests.

The ``osc`` and ``discretize`` path never uses these maps, so the package
does not carry them; the tests use them to measure both sides of the
paper's inequalities. Maps on a space or a model take it as their first
argument. Here are:

- integration and total measure of a quadrature space;
- finite measures (``DiscreteMeasure``) and the dense kernel interface
  (``check_kernel``, ``abs_row_blocks``, ``streamed_schur_norm`` of
  streamed blocks, ``schur_norm``);
- the analysis maps V* f and V* S^{-1} f of a frame model and their
  inverses, synthesis from a measure, the range projection and one random
  range function;
- a phase given as a full table (``TablePhase``) and a random table it
  accepts;
- the sets and the neighbour sets i* of a covering, cut from its flat
  (set, point) pairs (``sets_of``, ``neighbors_of``);
- m-equivalent coverings, admissible permutations and their kernels;
- the pile-up of a sequence on the grid (``pileup``), the flat and natural
  sequence norms, their weighted l^p equivalents, the sup embedding and
  decomposition norms;
- the sampling operator and its phase-corrected companion applied to a
  grid function (``apply_sampling``, ``apply_smoothed``), and the
  oscillation report a directly inverted covering's handle is made from
  (``report_for``).

The brute-force loops these are checked against are in ``oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from framedisc import Covering, FrameModel, OscReport, PhaseFunction, \
    QuadratureSpace, SchurSums, StructuralError, Weight2D, WeightedLp, \
    oscillation_report, weight_compatibility
from framedisc.kernels import row_slices
from framedisc.models import random_vectors
from framedisc.spaces import set_pair_kernel_norms


def integrate(space: QuadratureSpace, f) -> complex:
    """Weighted sum of ``f`` over all points (deterministic order)."""
    arr = space.check_function(f)
    return complex(np.sum(space.weights * arr))


def total_measure(space: QuadratureSpace) -> float:
    return float(np.sum(space.weights))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite complex combination of point masses sitting on grid points."""

    indices: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1)
        coef = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if idx.shape != coef.shape:
            raise StructuralError("one coefficient per atom required")
        idx.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficients", coef)

    @classmethod
    def dirac(cls, index: int) -> "DiscreteMeasure":
        return cls(np.array([index]), np.array([1.0 + 0.0j]))

    def check_on(self, space: QuadratureSpace) -> None:
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= space.n_points):
            raise StructuralError("measure atom off the grid")


def check_kernel(space: QuadratureSpace, kernel) -> np.ndarray:
    """Coerce to an (n, n) array with finite entries: float for real input,
    complex otherwise."""
    n = space.n_points
    k = np.asarray(kernel)
    k = k.astype(complex if np.iscomplexobj(k) else float, copy=False)
    if k.shape != (n, n):
        raise StructuralError(f"kernel shape {k.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(k)):
        raise StructuralError("kernel entries must be finite")
    return k


def abs_row_blocks(kernel: np.ndarray):
    """``(rows, |kernel|[rows, :])`` over row blocks of a dense kernel."""
    return ((rows, np.abs(kernel[rows])) for rows in row_slices(kernel.shape[0]))


def streamed_schur_norm(space: QuadratureSpace, blocks,
                        weight: Weight2D | None = None) -> float:
    """Schur norm under ``weight`` of the kernel whose
    ``(rows, |K|[rows, :])`` blocks ``blocks`` yields, in one pass."""
    sums = SchurSums(space, weight)
    for rows, block in blocks:
        sums.add(rows, block)
    return sums.norms()[0]


def schur_norm(space: QuadratureSpace, kernel, weight: Weight2D | None = None) -> float:
    """Weighted Schur algebra norm of a dense kernel."""
    k = check_kernel(space, kernel)
    return streamed_schur_norm(space, abs_row_blocks(k), weight)


def analyze(model: FrameModel, f) -> np.ndarray:
    """Frame coefficients (V* f)(x) = <f, psi_x> of a vector, or of each
    column of a (d, k) block, as grid functions."""
    return model.vectors.conj().T @ np.asarray(f, dtype=complex)


def dual_analyze(model: FrameModel, f) -> np.ndarray:
    """Canonical-dual coefficients (V* S^{-1} f)(x) = <f, S^{-1} psi_x>."""
    return model.vectors.conj().T @ (model.s_inverse
                                     @ np.asarray(f, dtype=complex))


def from_analysis(model: FrameModel, F) -> np.ndarray:
    """Invert ``analyze`` on its range: f = S^{-1} sum_x w_x F(x) psi_x."""
    arr = model.space.check_function(F)
    return model.s_inverse @ (model.vectors @ (model.space.weights * arr))


def from_dual_analysis(model: FrameModel, F) -> np.ndarray:
    """Invert ``dual_analyze`` on its range: f = sum_x w_x F(x) psi_x."""
    arr = model.space.check_function(F)
    return model.vectors @ (model.space.weights * arr)


def synthesize(model: FrameModel, coeffs: DiscreteMeasure,
               dual_atoms: bool = False) -> np.ndarray:
    """sum_i lambda_i psi_{x_i} (or S^{-1} psi_{x_i} with ``dual_atoms``)."""
    coeffs.check_on(model.space)
    if coeffs.indices.size == 0:
        return np.zeros(model.dim, dtype=complex)
    out = model.vectors[:, coeffs.indices] @ coeffs.coefficients
    return model.s_inverse @ out if dual_atoms else out


def project_to_range(model: FrameModel, F) -> np.ndarray:
    """Weighted-L2-orthogonal projection of a grid function onto the
    common range of the analysis transforms."""
    arr = model.space.check_function(F)
    return model.vectors.conj().T @ (
        model.s_inverse @ (model.vectors @ (model.space.weights * arr)))


def random_range_function(model: FrameModel, rng: np.random.Generator) -> np.ndarray:
    """Analysis of a random vector: a generic element of the range."""
    return analyze(model, random_vectors(rng, model.dim, 1)[:, 0])


class TablePhase:
    """A unimodular phase given as a full n x n table, called like
    ``oscillation.PhaseFunction``: ``gamma(y, z)`` reads the table at index
    arrays broadcast together and ``rule`` names it in reports. Like both
    built-in rules, the table must be Hermitian with Gamma(y, y) = 1, to
    the bit: the oscillation pass relies on both."""

    rule = "table"

    def __init__(self, space: QuadratureSpace, table):
        tab = np.ascontiguousarray(np.asarray(table, dtype=complex))
        n = space.n_points
        if tab.shape != (n, n):
            raise StructuralError(f"phase table shape {tab.shape}, expected {(n, n)}")
        mod = np.abs(tab)
        if np.max(np.abs(mod - 1.0)) > 1e-14:
            raise StructuralError("phase values must have modulus one")
        if not np.array_equal(tab, tab.conj().T) or np.any(np.diag(tab) != 1.0):
            raise StructuralError("phase table must be Hermitian with ones on "
                                  "the diagonal")
        tab.setflags(write=False)
        self.space = space
        self._table = tab

    def __call__(self, y, z) -> np.ndarray:
        return self._table[y, z]


def random_phase_table(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random n x n table ``TablePhase`` accepts: unimodular entries drawn
    on the upper triangle, their conjugates mirrored below, ones on the
    diagonal."""
    upper = np.triu(np.exp(2j * np.pi * rng.uniform(0.1, 0.9, size=(n, n))), 1)
    return upper + upper.conj().T + np.eye(n)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    equivalent: bool
    measure_lower: float   # C_1: min mu(V_i)/mu(U_i)
    measure_upper: float   # C_2: max mu(V_i)/mu(U_i)
    cross_weight: float    # C': max over i of sup_{x in U_i, y in V_i} m(x,y)

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "C_1": self.measure_lower,
            "C_2": self.measure_upper,
            "C_prime": self.cross_weight,
        }


def check_m_equivalent(cov_u: Covering, cov_v: Covering,
                       weight: Weight2D) -> EquivalenceReport:
    """Measure-ratio and cross-weight constants linking two coverings.

    Requires identical index sets. On a finite space the constants are
    always finite, so the report mostly carries their magnitudes.
    """
    if cov_u.n_sets != cov_v.n_sets:
        raise StructuralError("coverings must share one index set")
    ratios = cov_v.measures / cov_u.measures
    # sup of m over U_i x V_i: the larger of the two extreme quotients
    hi_u, lo_u = cov_u.set_extrema(weight.w)
    hi_v, lo_v = cov_v.set_extrema(weight.w)
    cross = float(np.max(np.maximum(hi_u / lo_v, hi_v / lo_u)))
    c1, c2 = float(ratios.min()), float(ratios.max())
    ok = np.isfinite(c1) and np.isfinite(c2) and np.isfinite(cross) and c1 > 0
    return EquivalenceReport(bool(ok), c1, c2, cross)


def sets_of(cov: Covering) -> tuple:
    """The sets U_i of a covering, each its sorted point indices, cut from
    the flat (set, point) pairs."""
    return tuple(np.split(cov.flat_points,
                          np.flatnonzero(np.diff(cov.flat_sets)) + 1))


def neighbors_of(cov: Covering) -> tuple:
    """i* = {j : U_j meets U_i} for every set i, as sorted index arrays,
    from the product of the dense membership table with its transpose."""
    member = np.zeros((cov.n_sets, cov.space.n_points), dtype=int)
    member[cov.flat_sets, cov.flat_points] = 1
    return tuple(np.flatnonzero(row) for row in member @ member.T)


def transfer_kernel(cov_u: Covering, cov_v: Covering) -> np.ndarray:
    """Kernel moving coefficient pile-ups over ``cov_v`` to pile-ups over ``cov_u``.

    L(x, y) = sum_j chi_{U_j}(x) chi_{V_j}(y) / mu(V_j).
    """
    if cov_u.n_sets != cov_v.n_sets:
        raise StructuralError("coverings must share one index set")
    n = cov_u.space.n_points
    out = np.zeros((n, n), dtype=complex)
    for u, v, mu_v in zip(sets_of(cov_u), sets_of(cov_v), cov_v.measures):
        out[np.ix_(u, v)] += 1.0 / mu_v
    return out


def permutation_kernel(cov: Covering, pi) -> np.ndarray:
    """Kernel bounding the relabeling lambda -> lambda o pi on pile-up norms.

    K_pi(x, y) = sum_i chi_{U_{pi^{-1}(i)}}(x) chi_{U_i}(y) / mu(U_{pi^{-1}(i)}).
    ``pi`` must be a permutation of range(n_sets).
    """
    pi = np.asarray(pi, dtype=int)
    if sorted(pi.tolist()) != list(range(cov.n_sets)):
        raise StructuralError("pi must be a permutation of the covering index set")
    inv = np.empty_like(pi)
    inv[pi] = np.arange(cov.n_sets)
    n = cov.space.n_points
    out = np.zeros((n, n), dtype=complex)
    sets = sets_of(cov)
    for i, j in enumerate(inv):          # j = pi^{-1}(i)
        out[np.ix_(sets[j], sets[i])] += 1.0 / cov.measures[j]
    return out


def is_admissible_permutation(cov: Covering, pi) -> bool:
    """True when pi(i) always lies in the neighbor set i*."""
    pi = np.asarray(pi, dtype=int)
    return all(pi[i] in nb for i, nb in enumerate(neighbors_of(cov)))


def random_admissible_permutation(cov: Covering, rng: np.random.Generator):
    """Random permutation with pi(i) in i*, or None if the greedy draw fails.

    The identity is always admissible, so callers can fall back to it.
    """
    n = cov.n_sets
    order = rng.permutation(n)
    taken = np.zeros(n, dtype=bool)
    pi = np.full(n, -1, dtype=int)
    neighbors = neighbors_of(cov)
    for i in order:
        options = [j for j in neighbors[i] if not taken[j]]
        if not options:
            return None
        j = options[rng.integers(len(options))]
        pi[i] = j
        taken[j] = True
    return pi


def neighbor_sums(cov: Covering, seq) -> np.ndarray:
    """lambda+_i = sum over j with U_j meeting U_i of lambda_j."""
    arr = np.asarray(seq, dtype=complex).reshape(-1)
    if arr.shape[0] != cov.n_sets:
        raise StructuralError("sequence length must equal number of sets")
    neighbors = neighbors_of(cov)
    starts = np.cumsum([0] + [nb.size for nb in neighbors[:-1]])
    return np.add.reduceat(arr[np.concatenate(neighbors)], starts)


def pileup(seq, cov: Covering, natural: bool = False, phi=None) -> np.ndarray:
    """Grid function sum_i |lambda_i| chi_{U_i} (divided by mu(U_i) if natural).

    A 2-D ``seq`` of shape (n_sets, k) is k sequences, one per column; the
    result is then (n_points, k). With ``phi``, one value per (set, point)
    pair in the covering's point-major order (a partition of unity's
    ``phi``), the term of set i at x is weighted by phi_i(x) instead of
    chi_{U_i}(x). The package norms pile-ups on a partition's cells
    (``spaces.pileup_norms``); this is their grid-side form.
    """
    arr = np.asarray(seq)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    if arr.shape[0] != cov.n_sets:
        raise StructuralError("sequence length must equal number of covering sets")
    held = cov.holders(0, cov.space.n_points)
    lam = np.abs(arr[held]).astype(float, copy=False)
    if natural:
        lam = (lam.T / cov.measures[held]).T
    if phi is not None:
        lam = (np.asarray(phi) * lam.T).T
    return cov.pair_sums(lam)


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


@dataclass(frozen=True, eq=False)
class SupEmbeddingReport:
    """Coefficient bound |lambda_i| <= C r(i) |lambda|_natural, with evidence."""

    apriori_constant: float
    observed_constant: float
    per_set_constants: np.ndarray
    sup_trace: np.ndarray


def sup_embedding_report(cov: Covering, Y: WeightedLp, weight: Weight2D,
                         n_trials: int = 100,
                         seed: int = 0) -> SupEmbeddingReport:
    """Bound single coefficients by the natural norm, scaled by r(i), through
    the reference set k = 0.

    The a-priori constant comes from the set-pair kernels; the observed one
    is the worst ratio over basis sequences and ``n_trials`` random draws.
    """
    norms = SequenceNorms.build(cov, Y, weight)
    chi = np.zeros(cov.space.n_points)
    chi[sets_of(cov)[0]] = 1.0
    base = Y.norm(chi)
    per_set = set_pair_kernel_norms(cov, weight) / base
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


def report_for(model: FrameModel, cov: Covering, Y: WeightedLp,
               delta: float = 1.0) -> OscReport:
    """The oscillation report of ``cov`` under Y's weight with the kernel
    phase: what a ``SamplingInverse`` of ``cov`` in Y is made from when a
    test inverts directly and needs no certificate of its own."""
    return oscillation_report(model, cov, PhaseFunction(model, "kernel"),
                              Y.weight2d(), delta)


def apply_sampling(model: FrameModel, cov: Covering, F) -> np.ndarray:
    """(U F)(x) = sum_i c_i F(x_i) R(x, x_i), formed as V^* A[:, xs] (c F(xs))."""
    arr = model.space.check_function(F)
    xs = cov.samples
    return model.vectors.conj().T @ (model.duals[:, xs] @ (cov.masses * arr[xs]))


def apply_smoothed(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                   F) -> np.ndarray:
    """Phase-corrected companion of the sampling operator.

    Builds G(y) = sum_i conj(Gamma(y, x_i)) F(x_i) phi_i(y) over the
    covering's (set, point) pairs and applies the reproducing kernel as
    V^* S^{-1} V (mu G); it differs from U by at most the oscillation norm
    times the partition pile-up bound.
    """
    arr = model.space.check_function(F)
    n = arr.size
    points = np.repeat(np.arange(n), cov.cover_counts)
    held = cov.samples[cov.holders(0, n)]
    g = cov.pair_sums(np.conj(gamma(points, held)) * cov.phi * arr[held])
    return model.vectors.conj().T @ (
        model.s_inverse @ (model.vectors @ (model.space.weights * g)))
