"""Sampling the frame through a covering: operators, inversion, dual frames.

Given a covering with partition of unity and one sample point per set, the
sampling operator

    (U F)(x) = sum_i c_i F(x_i) R(x, x_i),      c_i = integral of phi_i,

approximates the reproducing kernel on its range. When the oscillation
budget certifies ||Id - U|| < 1 there, U is invertible by Neumann series
and yields frame coefficients, a dual frame, and stable reconstruction
from point samples. Every certified bound here is also measurable, and the
verification helpers compute both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, PartitionOfUnity
from .errors import CertificationError, SingularOperatorError, StructuralError
from .kernels import DiscreteMeasure, Weight2D, row_slices, schur_norms
from .models import FrameModel
from .oscillation import OscReport, PhaseFunction
from .spaces import WeightedLp, decomposition_norm, local_integrability_constant, \
    pileup, sup_infinity_space

# Smallest eigenvalue modulus of the restricted sampling operator that
# ``direct`` inversion accepts; below it the operator counts as singular.
DIRECT_EIG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """A covering, its partition of unity, and one sample point per set."""

    covering: Covering
    pou: PartitionOfUnity
    samples: np.ndarray
    masses: np.ndarray       # c_i

    def __post_init__(self):
        cov = self.covering
        if self.pou.covering is not cov:
            raise StructuralError("partition of unity built for another covering")
        idx = np.asarray(self.samples, dtype=int).reshape(-1)
        if idx.shape[0] != cov.n_sets:
            raise StructuralError("one sample point per covering set required")
        for i, (s, members) in enumerate(zip(idx, cov.sets)):
            if s not in members:
                raise StructuralError(f"sample {s} is not inside covering set {i}")
        c = np.asarray(self.masses, dtype=float).reshape(-1)
        if c.shape[0] != cov.n_sets or np.any(c <= 0):
            raise StructuralError("partition masses must be positive, one per set")
        idx.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "samples", idx)
        object.__setattr__(self, "masses", c)

    def identifier(self) -> str:
        return f"{self.covering.identifier()}-{'.'.join(map(str, self.samples))}"


def select_samples(cov: Covering, pou: PartitionOfUnity,
                   rule: str = "max_weight") -> SamplingPlan:
    """Pick one point per covering set; ties break to the lowest index.

    max_weight : the point of largest quadrature weight in the set.
    medoid     : the point minimizing the summed coordinate distance to the
                 rest of the set.
    """
    space = cov.space
    samples = np.empty(cov.n_sets, dtype=int)
    for i, idx in enumerate(cov.sets):
        if rule == "max_weight":
            vals = space.weights[idx]
            samples[i] = idx[int(np.argmax(vals))]
        elif rule == "medoid":
            pts = space.points[idx]
            dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            samples[i] = idx[int(np.argmin(dists.sum(axis=1)))]
        else:
            raise StructuralError(f"unknown sampling rule {rule!r}")
    return SamplingPlan(cov, pou, samples, pou.masses)


def apply_sampling(model: FrameModel, plan: SamplingPlan, F) -> np.ndarray:
    """(U F)(x) = sum_i c_i F(x_i) R(x, x_i)."""
    arr = model.space.check_function(F)
    xs = plan.samples
    return model.kernel[:, xs] @ (plan.masses * arr[xs])


def apply_smoothed(model: FrameModel, plan: SamplingPlan, gamma: PhaseFunction,
                   F) -> np.ndarray:
    """Phase-corrected companion of the sampling operator.

    Builds G(y) = sum_i conj(Gamma(y, x_i)) F(x_i) phi_i(y) and applies the
    reproducing kernel; it differs from U by at most the oscillation norm
    times the partition pile-up bound.
    """
    arr = model.space.check_function(F)
    xs = plan.samples
    phases = np.conj(gamma(np.arange(arr.size)[:, None], xs))   # (n, n_sets) over y
    g = (phases * plan.pou.phi.T) @ arr[xs]
    return model.kernel @ (model.space.weights * g)


def contraction_bounds(report: OscReport) -> tuple:
    """(nominal, sharp) bounds on ||Id - U|| restricted to the kernel range.

    nominal uses the target budget delta, sharp the measured oscillation
    norm; both are multiplied by (|R| + sigma).
    """
    factor = report.r_norm + report.sigma
    return report.delta * factor, report.osc_norm * factor


def _restricted_matrix(model: FrameModel, plan: SamplingPlan) -> np.ndarray:
    """Action of U on analysis coordinates: U(V g) = V(S^{-1} S_c g)."""
    xs = plan.samples
    psi = model.vectors[:, xs]
    s_c = (psi * plan.masses[None, :]) @ psi.conj().T
    return model.s_inverse @ s_c


class SamplingInverse:
    """Handle applying the inverse of the sampling operator on the kernel range.

    Works in analysis coordinates: every function in the range of the
    analysis transforms is F = V* a for a unique a in C^d (V the d x n
    matrix of frame vectors), and there U acts as the d x d matrix
    S^{-1} S_c, with S_c = sum_i c_i psi_{x_i} psi_{x_i}^*. ``apply`` maps a
    grid function to coordinates (anything outside the range is first
    projected onto it), inverts there and maps back; ``_invert_coords``
    inverts a (d, k) block of coordinates directly, which is what the
    decomposition, reconstruction and dual-frame helpers use.

    ``neumann`` sums a + (Id-U)a + (Id-U)^2 a + ... and requires a
    certificate that the sharp contraction bound is below one; ``direct``
    solves the d x d system and needs none. Each column of a block stops
    once its term's Y-norm is at most ``tol`` times the Y-norm of its input,
    so the stopping rule does not depend on the scale of the input.
    """

    def __init__(self, model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                 method: str = "neumann", tol: float = 1e-12, n_max: int = 200,
                 report: OscReport | None = None):
        self.model = model
        self.plan = plan
        self.Y = Y
        self.method = method
        self.tol = float(tol)
        self.n_max = int(n_max)
        self.report = report
        self.last_term_norms: list = []
        self._restricted = _restricted_matrix(model, plan)
        self._analysis = model.vectors.conj().T
        self._metric = None
        if Y.p == 2.0:
            self._metric = (model.vectors * (model.space.weights * Y.w ** 2)) \
                @ self._analysis

        if method == "neumann":
            if report is None:
                raise CertificationError(
                    "Neumann inversion needs an oscillation report carrying "
                    "the contraction certificate"
                )
            _, sharp = contraction_bounds(report)
            if not sharp < 1.0:
                raise CertificationError(
                    f"sharp contraction bound {sharp:.4f} is not below 1; "
                    f"refine the covering (smaller width) before inverting"
                )
            self.sharp_bound = sharp
        elif method == "direct":
            evals = np.linalg.eigvals(self._restricted)
            if np.min(np.abs(evals)) <= DIRECT_EIG_FLOOR:
                raise SingularOperatorError(
                    "sampling operator is numerically singular on the kernel range"
                )
            self._matrix_inv = np.linalg.inv(self._restricted)
        else:
            raise StructuralError(f"unknown inversion method {method!r}")

    def _column_norms(self, coords: np.ndarray) -> np.ndarray:
        """Y-norms of the grid functions with the given analysis coordinates.

        For p = 2 this is the d x d quadratic form |V* a|_Y^2 = a* M a with
        M = V diag(mu w^2) V*, on columns scaled to unit size so that the
        squares cannot underflow.
        """
        if self._metric is None:
            return self.Y.column_norms(self._analysis @ coords)
        scale = np.abs(coords).max(axis=0, initial=0.0)
        unit = coords / np.where(scale > 0.0, scale, 1.0)
        quad = np.einsum("ij,ij->j", unit.conj(), self._metric @ unit).real
        return scale * np.sqrt(np.maximum(quad, 0.0))

    def _invert_coords(self, coords: np.ndarray) -> np.ndarray:
        """Apply the inverse to every column of a (d, k) coordinate block.

        ``last_term_norms`` records, per Neumann term, the largest Y-norm
        among the columns still summing.
        """
        if self.method == "direct":
            return self._matrix_inv @ coords
        total = np.array(coords, dtype=complex, copy=True)
        first = self._column_norms(total)
        limit = self.tol * first
        active = np.flatnonzero(first > 0.0)    # zero columns are done
        term = total[:, active]
        norms = [float(first.max(initial=0.0))]
        self.last_term_norms = norms
        if active.size == 0:
            return total
        for _ in range(self.n_max):
            term = term - self._restricted @ term
            term_norms = self._column_norms(term)
            norms.append(float(term_norms.max()))
            total[:, active] += term
            going = term_norms > limit[active]
            if not going.any():
                return total
            active, term = active[going], term[:, going]
        raise SingularOperatorError(
            f"Neumann series did not reach tol {self.tol:.1e} relative to the "
            f"input within {self.n_max} terms (last term norm {norms[-1]:.3e})"
        )

    def apply(self, F) -> np.ndarray:
        """Apply the inverse to one grid function in the kernel range."""
        arr = self.model.space.check_function(F)
        g = self.model.from_analysis(arr)
        out = self._invert_coords(g[:, None])
        return self._analysis @ out[:, 0]


def _as_columns(values, length: int, what: str) -> tuple:
    """One value per row: a vector or a (length, k) block as a (length, k)
    block, plus the trailing shape to restore."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim not in (1, 2) or arr.shape[0] != length:
        raise StructuralError(
            f"{what} must have length {length} (or be a ({length}, k) block), "
            f"got shape {arr.shape}")
    return arr.reshape(length, -1), arr.shape[1:]


def atomic_decomposition(model: FrameModel, plan: SamplingPlan,
                         inverse: SamplingInverse, f,
                         swap_roles: bool = False) -> np.ndarray:
    """Coefficients lambda_i = c_i (U^{-1} A f)(x_i).

    A is the dual analysis for expansion in the sampled frame vectors, or
    the plain analysis (``swap_roles``) for expansion in the sampled
    canonical duals. In analysis coordinates A f is S^{-1} f (or f). ``f``
    may be one vector or a (d, k) block of column vectors, giving an
    (n_sets, k) block of coefficients.
    """
    vecs, shape = _as_columns(f, model.dim, "vector")
    coords = vecs if swap_roles else model.s_inverse @ vecs
    g = inverse._invert_coords(coords)
    out = plan.masses[:, None] * (model.vectors[:, plan.samples].conj().T @ g)
    return out.reshape((plan.covering.n_sets,) + shape)


def synthesize_plan(model: FrameModel, plan: SamplingPlan, coeffs,
                    swap_roles: bool = False) -> np.ndarray:
    """sum_i lambda_i times the sampled atom (dual atoms when swapped).

    ``coeffs`` may be one sequence or an (n_sets, k) block of them.
    """
    lam, shape = _as_columns(coeffs, plan.covering.n_sets, "coefficient sequence")
    out = model.vectors[:, plan.samples] @ lam
    if swap_roles:
        out = model.s_inverse @ out
    return out.reshape((model.dim,) + shape)


def reconstruct_from_samples(model: FrameModel, plan: SamplingPlan,
                             inverse: SamplingInverse, samples,
                             swap_roles: bool = False) -> np.ndarray:
    """Recover f from its point samples of the analysis transform.

    Unswapped, ``samples`` are <f, psi_{x_i}>; swapped, <f, S^{-1}psi_{x_i}>.
    The sampled function U(A f) = sum_i c_i A f(x_i) R(., x_i) has analysis
    coordinates S^{-1} sum_i c_i A f(x_i) psi_{x_i}, so the kernel is never
    formed. ``samples`` may be an (n_sets, k) block, one sample set per
    column, giving a (d, k) block of vectors.
    """
    vals, shape = _as_columns(samples, plan.covering.n_sets, "sample set")
    xs = plan.samples
    coords = model.s_inverse @ (model.vectors[:, xs] @ (plan.masses[:, None] * vals))
    g = inverse._invert_coords(coords)
    out = model.frame_operator @ g if swap_roles else g
    return out.reshape((model.dim,) + shape)


def dual_frame(model: FrameModel, plan: SamplingPlan,
               inverse: SamplingInverse, swap_roles: bool = False) -> np.ndarray:
    """Vectors e_i with lambda_i(f) = <f, e_i>, stacked as rows.

    Solves A(e_i) = c_i U^{-1} R(., x_i) where A is the analysis whose range
    the coefficients live in; solvability is guaranteed because the model's
    frame operator is positive definite (the family spans). In analysis
    coordinates R(., x_i) is S^{-1} psi_{x_i}, so all e_i come from one
    (d, n_sets) inversion: e_i = U^{-1} c_i S^{-1} psi_{x_i}, times S when
    swapped.
    """
    xs = plan.samples
    coords = model.s_inverse @ (model.vectors[:, xs] * plan.masses[None, :])
    e = inverse._invert_coords(coords)
    return (model.frame_operator @ e if swap_roles else e).T


def hilbert_frame_bounds(model: FrameModel, plan: SamplingPlan) -> tuple:
    """Extreme eigenvalues of sum_i mu(U_i) psi_{x_i} psi_{x_i}^*."""
    xs = plan.samples
    psi = model.vectors[:, xs]
    op = (psi * plan.covering.measures[None, :]) @ psi.conj().T
    evals = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
    return float(evals[0]), float(evals[-1])


def observed_contraction(model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                         n_iter: int = 200, tol: float = 1e-10,
                         n_probes: int = 20, seed: int = 0) -> float:
    """Empirical lower estimate of ||Id - U|| on the kernel range in Y-norm.

    For p = 2 the restriction is finite dimensional and the norm is computed
    exactly through the weighted metric; otherwise the estimate is the best
    ratio over power-iteration iterates and random range functions.
    """
    rng = np.random.default_rng(seed)
    m = np.eye(model.dim, dtype=complex) - _restricted_matrix(model, plan)

    if Y.p == 2.0:
        metric = (model.vectors * (model.space.weights * Y.w ** 2)[None, :]) \
            @ model.vectors.conj().T
        evals, evecs = np.linalg.eigh(0.5 * (metric + metric.conj().T))
        evals = np.maximum(evals, 1e-300)
        half = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
        half_inv = (evecs / np.sqrt(evals)[None, :]) @ evecs.conj().T
        return float(np.linalg.norm(half @ m @ half_inv, ord=2))

    best = 0.0
    g = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    prev = 0.0
    for _ in range(n_iter):
        F = model.analyze(g)
        nf = Y.norm(F)
        if nf == 0.0:
            break
        g_next = m @ g
        ratio = Y.norm(model.analyze(g_next)) / nf
        best = max(best, ratio)
        scale = np.linalg.norm(g_next)
        if scale == 0.0:
            break
        g = g_next / scale
        if abs(ratio - prev) <= tol * max(1.0, ratio):
            break
        prev = ratio
    for _ in range(n_probes):
        g = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        F = model.analyze(g)
        nf = Y.norm(F)
        if nf == 0.0:
            continue
        best = max(best, Y.norm(model.analyze(m @ g)) / nf)
    return float(best)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Certified constants next to the worst observed ratios they dominate."""

    sampled_flat_constant: float        # Schur norm of the sampled-row kernel
    sampled_flat_observed: float
    pou_pileup_constant: float          # sigma
    pou_pileup_observed: float
    measure_constant: float             # |osc| + |R|
    measure_observed: float
    range_sup_constant: float           # range of R into the sup space
    range_sup_observed: float
    transform_norm_ratios: dict         # finite two-sided comparison constants
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "D_const": self.sampled_flat_constant,
            "D_observed": self.sampled_flat_observed,
            "sigma_const": self.pou_pileup_constant,
            "sigma_observed": self.pou_pileup_observed,
            "measure_const": self.measure_constant,
            "measure_observed": self.measure_observed,
            "range_sup_const": self.range_sup_constant,
            "range_sup_observed": self.range_sup_observed,
            "transform_norm_ratios": self.transform_norm_ratios,
            "violations": self.violations,
        }


def _sampled_row_blocks(model: FrameModel, plan: SamplingPlan):
    """``(rows, K[rows, :])`` over row blocks of the sampled-row kernel
    K(x, y) = sum_i |R(x_i, y)| chi_{U_i}(x), read through the covering's
    point-major index; K itself is never formed."""
    cov = plan.covering
    for rows in row_slices(model.space.n_points):
        sets = cov.holders(rows.start, rows.stop)
        yield rows, cov.pair_sums(np.abs(model.kernel[plan.samples[sets]]),
                                  rows.start, rows.stop)


def verify_sampled_bounds(model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                          weight: Weight2D, report: OscReport,
                          n_trials: int = 50, seed: int = 0,
                          slack: float = 1e-10) -> BoundsReport:
    """Measure every inequality the sampled kernels certify.

    ``report`` must be the oscillation report under ``weight``; its m_v
    norms of osc and R give the range-sup constant. Each block computes a
    kernel-derived constant and the worst observed ratio over random
    trials; ``violations`` counts ratios exceeding their constant beyond
    ``slack``. The trials run as blocks, one column each; the kernel
    applied to a measure sum_k lambda_k delta_{y_k} is formed as
    V* S^{-1} sum_k lambda_k psi_{y_k}.
    """
    rng = np.random.default_rng(seed)
    space = model.space
    cov = plan.covering
    violations = 0

    d_const, = schur_norms(space, _sampled_row_blocks(model, plan), [weight])
    sigma = report.sigma
    meas_const = report.osc_norm + report.r_norm
    sup_space = sup_infinity_space(Y, weight)
    range_sup_const = (report.osc_norm_v + report.r_norm_v) \
        * local_integrability_constant(cov, Y, weight)

    F = np.stack([model.random_range_function(rng) for _ in range(n_trials)],
                 axis=1)
    ny = Y.column_norms(F)
    F, ny = F[:, ny > 0.0], ny[ny > 0.0]
    vals = np.abs(F[plan.samples])
    sup = sup_space.column_norms(F)
    d_obs = np.max(Y.column_norms(pileup(vals, cov)) / ny, initial=0.0)
    sig_obs = np.max(Y.column_norms(plan.pou.phi.T @ vals) / ny, initial=0.0)
    sup_obs = np.max(sup / ny, initial=0.0)
    ratios_1y = ny / WeightedLp(space, 1.0, weight.v).column_norms(F)
    ratios_ysup = sup / ny

    dec_norms = np.empty(n_trials)
    atoms = np.empty((model.dim, n_trials), dtype=complex)
    for j in range(n_trials):
        k = rng.integers(1, cov.n_sets + 1)
        idx = rng.choice(space.n_points, size=k, replace=True)
        coef = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        dec_norms[j] = decomposition_norm(DiscreteMeasure(idx, coef), cov, Y)
        atoms[:, j] = model.vectors[:, idx] @ coef
    applied = model.vectors.conj().T @ (model.s_inverse @ atoms)
    keep = dec_norms > 0.0
    meas_obs = np.max(Y.column_norms(applied[:, keep]) / dec_norms[keep],
                      initial=0.0)

    if d_obs > d_const + slack:
        violations += 1
    if report.oscillation_ok and sig_obs > sigma + slack:
        violations += 1
    if meas_obs > meas_const + slack:
        violations += 1
    if sup_obs > range_sup_const + slack:
        violations += 1

    ratios = {
        "l1v_vs_Y_max": float(np.max(ratios_1y, initial=0.0)),
        "l1v_vs_Y_min": float(np.min(ratios_1y)) if ratios_1y.size else 0.0,
        "Y_vs_sup_max": float(np.max(ratios_ysup, initial=0.0)),
        "Y_vs_sup_min": float(np.min(ratios_ysup)) if ratios_ysup.size else 0.0,
    }
    return BoundsReport(
        sampled_flat_constant=float(d_const),
        sampled_flat_observed=float(d_obs),
        pou_pileup_constant=float(sigma),
        pou_pileup_observed=float(sig_obs),
        measure_constant=float(meas_const),
        measure_observed=float(meas_obs),
        range_sup_constant=float(range_sup_const),
        range_sup_observed=float(sup_obs),
        transform_norm_ratios=ratios,
        violations=violations,
    )
