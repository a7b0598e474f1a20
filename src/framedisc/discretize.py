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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coverings import Covering, PartitionOfUnity
from .errors import CertificationError, SingularOperatorError, StructuralError
from .kernels import Weight2D, row_slices, schur_norms
from .models import FrameModel, random_vectors
from .oscillation import OscReport, kernel_norms
from .spaces import WeightedLp, local_integrability_constant, pileup, \
    sup_infinity_space

# Smallest eigenvalue modulus of the restricted sampling operator that
# ``direct`` inversion accepts; below it the operator counts as singular.
DIRECT_EIG_FLOOR = 1e-12

# Bytes of complex grid values one block of a streamed Y-norm may hold
# (``_analysis_norms``).
NORM_BLOCK_BYTES = 1 << 20

# ``observed_contraction`` at p != 2: at most this many power steps, settled
# when two successive ratios agree to the tolerance, then this many probes.
CONTRACTION_STEPS = 200
CONTRACTION_TOL = 1e-10
CONTRACTION_PROBES = 20

# An observed ratio above its certified constant by more than this is a
# violation (``verify_sampled_bounds``).
BOUNDS_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """A partition of unity and one sample point per set of its covering;
    the covering and the masses c_i = integral of phi_i are the partition's."""

    pou: PartitionOfUnity
    samples: np.ndarray
    masses: np.ndarray = field(init=False)      # c_i

    def __post_init__(self):
        cov = self.covering
        idx = np.asarray(self.samples, dtype=int).reshape(-1)
        if idx.shape[0] != cov.n_sets:
            raise StructuralError("one sample point per covering set required")
        inside = np.zeros(cov.n_sets, dtype=bool)
        inside[cov.flat_sets[cov.flat_points == idx[cov.flat_sets]]] = True
        if not inside.all():
            i = int(np.argmin(inside))
            raise StructuralError(f"sample {idx[i]} is not inside covering set {i}")
        c = self.pou.masses
        if np.any(c <= 0):
            raise StructuralError("partition masses must be positive")
        idx.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "samples", idx)
        object.__setattr__(self, "masses", c)

    @property
    def covering(self) -> Covering:
        return self.pou.covering

    def identifier(self) -> str:
        return f"{self.covering.identifier()}-{'.'.join(map(str, self.samples))}"


def select_samples(pou: PartitionOfUnity,
                   rule: str = "max_weight") -> SamplingPlan:
    """Pick one point per set of the partition's covering; ties break to
    the lowest index.

    max_weight : the point of largest quadrature weight in the set.
    medoid     : the point minimizing the summed coordinate distance to the
                 rest of the set.
    """
    cov = pou.covering
    space = cov.space
    if rule == "max_weight":
        # the pairs are set-major with ascending points, so the first pair of
        # a set at the set's largest weight holds its lowest such index
        vals = space.weights[cov.flat_points]
        top = np.flatnonzero(vals == cov.set_extrema(space.weights)[0][cov.flat_sets])
        first = top[np.diff(cov.flat_sets[top], prepend=-1) != 0]
        samples = cov.flat_points[first]
    elif rule == "medoid":
        samples = np.empty(cov.n_sets, dtype=int)
        for i, idx in enumerate(cov.sets):
            pts = space.points[idx]
            dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            samples[i] = idx[int(np.argmin(dists.sum(axis=1)))]
    else:
        raise StructuralError(f"unknown sampling rule {rule!r}")
    return SamplingPlan(pou, samples)


def _own_report(plan: SamplingPlan, report: OscReport) -> None:
    """Refuse a report of another covering: it certifies nothing here."""
    if report.covering_id != plan.covering.identifier():
        raise StructuralError(f"oscillation report made for covering "
                              f"{report.covering_id}, not the plan's covering")


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


def _weighted_metric(model: FrameModel, Y: WeightedLp) -> np.ndarray:
    """The d x d metric M = V diag(mu w^2) V* of the p = 2 Y-norm in
    analysis coordinates: |V* a|_Y^2 = a* M a."""
    return (model.vectors * (model.space.weights * Y.w ** 2)) \
        @ model.vectors.conj().T


class SamplingInverse:
    """Handle applying the inverse of the sampling operator on the kernel range.

    Works in analysis coordinates: every function in the range of the
    analysis transforms is F = V* a for a unique a in C^d (V the d x n
    matrix of frame vectors), and there U acts as the d x d matrix
    S^{-1} S_c, with S_c = sum_i c_i psi_{x_i} psi_{x_i}^*. ``apply`` maps a
    grid function to coordinates (anything outside the range is first
    projected onto it), inverts there and maps back; ``_invert_coords``
    inverts a (d, k) block of coordinates directly. The handle is the one
    argument the decomposition, reconstruction, dual-frame, residual and
    cross-check helpers take: they read the model, plan, Y, report, ``tol``
    and ``n_max`` from it. A report of another covering is refused.

    ``neumann`` sums a + (Id-U)a + (Id-U)^2 a + ... and requires a
    certificate that the sharp contraction bound is below one; ``direct``
    solves the d x d system and needs none. Each column of a block stops
    once its term's Y-norm is at most ``tol`` times the Y-norm of its input,
    so the stopping rule does not depend on the scale of the input. For
    p = 2 the term norms are exact (a d x d quadratic form). Otherwise a
    term t is tested through the bound |V* t|_Y <= kappa_Y |t|_2, with
    kappa_Y = |x -> |psi_x|_2|_Y (Cauchy-Schwarz at every point, then
    solidity of Y), so no term is formed on the grid; the bound dominates
    the norm, so a column stops no earlier than the exact rule would stop
    it. The input norms stay exact.
    """

    def __init__(self, model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                 method: str = "neumann", tol: float = 1e-12, n_max: int = 200,
                 report: OscReport | None = None):
        if report is not None:
            _own_report(plan, report)
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
        self._metric = self._kappa = None

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
            if Y.p == 2.0:
                self._metric = _weighted_metric(model, Y)
            else:
                self._kappa = Y.norm(np.linalg.norm(model.vectors, axis=0))
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

        For p = 2 this is the d x d quadratic form |V* a|_Y^2 = a* M a
        (``_weighted_metric``), on columns scaled to unit size so that the
        squares cannot underflow. Otherwise V* a is formed and its norms
        summed in row blocks of at most ``NORM_BLOCK_BYTES``.
        """
        if self._metric is None:
            return _analysis_norms(self._analysis, self.Y, coords)
        scale, unit = _unit_columns(coords)
        quad = np.einsum("ij,ij->j", unit.conj(), self._metric @ unit).real
        return scale * np.sqrt(np.maximum(quad, 0.0))

    def _term_norms(self, coords: np.ndarray) -> np.ndarray:
        """What the stopping rule tests for each column of a Neumann term:
        the exact Y-norm for p = 2, else the bound kappa_Y |t|_2, taken on
        columns scaled to unit size (O(d) work per column)."""
        if self._metric is not None:
            return self._column_norms(coords)
        scale, unit = _unit_columns(np.abs(coords))
        return self._kappa * scale * np.sqrt(np.einsum("ij,ij->j", unit, unit))

    def _invert_coords(self, coords: np.ndarray) -> np.ndarray:
        """Apply the inverse to every column of a (d, k) coordinate block.

        ``last_term_norms`` records the largest input Y-norm of the block,
        then, per Neumann term, the largest tested value among the columns
        still summing: the term's Y-norm for p = 2, its bound kappa_Y |t|_2
        otherwise. At p != 2 only the input is formed on the grid, once per
        call.
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
            term_norms = self._term_norms(term)
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
        """Apply the inverse to a grid function in the kernel range, or to
        each column of an (n_points, k) block of them."""
        model = self.model
        arr, shape = _as_columns(F, model.space.n_points, "grid function")
        coords = model.s_inverse @ (model.vectors
                                    @ (model.space.weights[:, None] * arr))
        out = self._analysis @ self._invert_coords(coords)
        return out.reshape((model.space.n_points,) + shape)

    @cached_property
    def dual_coords(self) -> np.ndarray:
        """The read-only (d, n_sets) block U^{-1} c_i S^{-1} psi_{x_i}, one
        column per sample: the canonical coordinates of the dual frame
        (``dual_frame``), inverted once per handle for both roles."""
        model, plan = self.model, self.plan
        coords = model.s_inverse @ (model.vectors[:, plan.samples]
                                    * plan.masses[None, :])
        out = self._invert_coords(coords)
        out.setflags(write=False)
        return out


def _unit_columns(block: np.ndarray) -> tuple:
    """(scale, unit): the largest modulus of each column of a (d, k) block,
    and the block with each nonzero column divided by it. Only floats are
    divided (the real and imaginary parts of a complex block): numpy's
    complex division forms 1 / scale, which overflows for a subnormal
    scale."""
    scale = np.abs(block).max(axis=0, initial=0.0)
    div = np.where(scale > 0.0, scale, 1.0)
    if not np.iscomplexobj(block):
        return scale, block / div
    unit = np.empty(block.shape, dtype=complex)
    np.divide(block.real, div, out=unit.real)
    np.divide(block.imag, div, out=unit.imag)
    return scale, unit


def _analysis_norms(analysis: np.ndarray, Y: WeightedLp,
                   coords: np.ndarray) -> np.ndarray:
    """Y-norms of the columns of ``analysis @ coords``, for the (n, d)
    analysis matrix V* and a (d, k) coordinate block, formed and summed in
    row blocks of at most ``NORM_BLOCK_BYTES``."""
    step = max(1, NORM_BLOCK_BYTES // (16 * max(1, coords.shape[1])))
    return Y.streamed_column_norms((rows, analysis[rows] @ coords)
                                   for rows in row_slices(analysis.shape[0], step))


def _as_columns(values, length: int, what: str) -> tuple:
    """One value per row: a vector or a (length, k) block as a (length, k)
    block, plus the trailing shape to restore."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim not in (1, 2) or arr.shape[0] != length:
        raise StructuralError(
            f"{what} must have length {length} (or be a ({length}, k) block), "
            f"got shape {arr.shape}")
    return arr.reshape(length, -1), arr.shape[1:]


def atomic_decomposition(inverse: SamplingInverse, f,
                         swap_roles: bool = False) -> np.ndarray:
    """Coefficients lambda_i = c_i (U^{-1} A f)(x_i) in the inverse's plan.

    A is the dual analysis for expansion in the sampled frame vectors, or
    the plain analysis (``swap_roles``) for expansion in the sampled
    canonical duals. In analysis coordinates A f is S^{-1} f (or f). ``f``
    may be one vector or a (d, k) block of column vectors, giving an
    (n_sets, k) block of coefficients.
    """
    model, plan = inverse.model, inverse.plan
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


def reconstruct_from_samples(inverse: SamplingInverse, samples,
                             swap_roles: bool = False) -> np.ndarray:
    """Recover f from its point samples of the analysis transform at the
    inverse's sample points.

    Unswapped, ``samples`` are <f, psi_{x_i}>; swapped, <f, S^{-1}psi_{x_i}>.
    The sampled function U(A f) = sum_i c_i A f(x_i) R(., x_i) has analysis
    coordinates S^{-1} sum_i c_i A f(x_i) psi_{x_i}, so the kernel is never
    formed. ``samples`` may be an (n_sets, k) block, one sample set per
    column, giving a (d, k) block of vectors.
    """
    model, plan = inverse.model, inverse.plan
    vals, shape = _as_columns(samples, plan.covering.n_sets, "sample set")
    xs = plan.samples
    coords = model.s_inverse @ (model.vectors[:, xs] @ (plan.masses[:, None] * vals))
    g = inverse._invert_coords(coords)
    out = model.frame_operator @ g if swap_roles else g
    return out.reshape((model.dim,) + shape)


def dual_frame(inverse: SamplingInverse, swap_roles: bool = False) -> np.ndarray:
    """Vectors e_i with lambda_i(f) = <f, e_i>, stacked as rows.

    Solves A(e_i) = c_i U^{-1} R(., x_i) where A is the analysis whose range
    the coefficients live in; solvability is guaranteed because the model's
    frame operator is positive definite (the family spans). In analysis
    coordinates R(., x_i) is S^{-1} psi_{x_i}, so all e_i come from one
    (d, n_sets) inversion: e_i = U^{-1} c_i S^{-1} psi_{x_i}, times S when
    swapped. That inversion is ``inverse.dual_coords``, made once per
    inverse and shared by both roles; the unswapped rows are read-only.
    """
    e = inverse.dual_coords
    return (inverse.model.frame_operator @ e if swap_roles else e).T


def hilbert_frame_bounds(model: FrameModel, plan: SamplingPlan) -> tuple:
    """Extreme eigenvalues of sum_i mu(U_i) psi_{x_i} psi_{x_i}^*."""
    xs = plan.samples
    psi = model.vectors[:, xs]
    op = (psi * plan.covering.measures[None, :]) @ psi.conj().T
    evals = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
    return float(evals[0]), float(evals[-1])


def observed_contraction(model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                         *, seed: int = 0) -> float:
    """Empirical lower estimate of ||Id - U|| on the kernel range in Y-norm.

    For p = 2 the restriction is finite dimensional and the norm is computed
    exactly through the weighted metric; otherwise the estimate is the best
    ratio |V* m g|_Y / |V* g|_Y, m = Id - S^{-1} S_c, over power-iteration
    iterates g and ``CONTRACTION_PROBES`` random coordinate vectors.

    The power iteration g <- m g / |m g| runs in coordinates for up to
    ``CONTRACTION_STEPS`` steps, stopping early only where m g vanishes.
    Image j is |m g_j| times iterate j + 1, so the iterates and the last
    image are analyzed as one (n, k + 1) block, and the iteration's stopping
    rule (a zero-norm iterate, or two successive ratios within
    ``CONTRACTION_TOL``) is replayed
    on the array of ratios: the estimate is the one a step-by-step
    iteration would return, up to rounding. The probes are drawn in one
    call (``random_vectors``) and analyzed as one block.
    """
    rng = np.random.default_rng(seed)
    m = np.eye(model.dim, dtype=complex) - _restricted_matrix(model, plan)

    if Y.p == 2.0:
        metric = _weighted_metric(model, Y)
        evals, evecs = np.linalg.eigh(0.5 * (metric + metric.conj().T))
        evals = np.maximum(evals, 1e-300)
        half = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
        half_inv = (evecs / np.sqrt(evals)[None, :]) @ evecs.conj().T
        return float(np.linalg.norm(half @ m @ half_inv, ord=2))

    analysis = model.vectors.conj().T
    best = 0.0
    g = random_vectors(rng, model.dim, 1)[:, 0]
    iterates, scales = [], []
    for _ in range(CONTRACTION_STEPS):
        g_next = m @ g
        iterates.append(g)
        scale = np.linalg.norm(g_next)
        scales.append(scale)
        if scale == 0.0:
            break
        g = g_next / scale
    if iterates:
        norms = _analysis_norms(analysis, Y, np.stack(iterates + [g_next], axis=1))
        nf = norms[:-1]
        ni = np.append(np.array(scales[:-1]) * norms[1:-1], norms[-1])
        zero = np.flatnonzero(nf == 0.0)
        stop = zero[0] if zero.size else nf.size
        ratios = ni[:stop] / nf[:stop]
        settled = np.abs(np.diff(ratios, prepend=0.0)) \
            <= CONTRACTION_TOL * np.maximum(1.0, ratios)
        if settled.any():
            ratios = ratios[:np.argmax(settled) + 1]
        best = ratios.max(initial=0.0)

    probes = random_vectors(rng, model.dim, CONTRACTION_PROBES)
    nf = _analysis_norms(analysis, Y, probes)
    ni = _analysis_norms(analysis, Y, m @ probes)
    keep = nf > 0.0
    return float(max(best, np.max(ni[keep] / nf[keep], initial=0.0)))


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
    point-major index; K itself is never formed. Each block forms the row
    R(x_i, .) once per set i holding one of its points."""
    cov = plan.covering
    for rows in row_slices(model.space.n_points):
        sets, pair = np.unique(cov.holders(rows.start, rows.stop),
                               return_inverse=True)
        sampled = np.abs(model.kernel_rows(plan.samples[sets]))
        yield rows, cov.pair_sums(sampled[pair], rows.start, rows.stop)


def _sampled_row_constant(model: FrameModel, plan: SamplingPlan,
                          weight: Weight2D, report: OscReport | None = None
                          ) -> float:
    """Schur norm of the sampled-row kernel K(x, y) = sum_i |R(x_i, y)|
    chi_{U_i}(x) under ``weight``.

    Under a trivial weight it is the last norm of an R pass with the plan's
    samples (``oscillation.kernel_norms``), read off the unit-weight |R|
    row sums at the samples and |R| c, with no sample row of R formed; a
    ``report`` on the plan's covering made with the plan's samples carries
    it as ``d_const``, and then no pass runs. Otherwise m(x, y) ties every
    point of U_i to y, and K is streamed in row blocks
    (``_sampled_row_blocks``).
    """
    if not weight.trivial:
        return schur_norms(model.space, _sampled_row_blocks(model, plan),
                           [weight])[0]
    if report is not None and report.d_samples is not None \
            and np.array_equal(report.d_samples, plan.samples):
        return report.d_const
    return kernel_norms(model, (), plan.covering, plan.samples)[-1]


def verify_sampled_bounds(model: FrameModel, plan: SamplingPlan, Y: WeightedLp,
                          report: OscReport, n_trials: int = 50,
                          seed: int = 0) -> BoundsReport:
    """Measure every inequality the sampled kernels certify.

    ``report`` is the oscillation report of the plan's covering (another
    is refused, StructuralError); the constants are taken under its weight,
    and its m_v norms of osc and R give the range-sup constant. Each block
    computes a kernel-derived constant and the worst observed ratio over
    random trials; ``violations`` counts ratios exceeding their constant
    beyond ``BOUNDS_SLACK``. Under a trivial weight the sampled-row
    constant D is the report's ``d_const`` when the report was made with
    the plan's samples, so no second pass over R runs; other samples get an
    R pass of their own, and a non-trivial weight a streamed pass over the
    sampled-row kernel (``_sampled_row_constant``). The trials run as
    blocks, one column each; the kernel applied to a measure sum_k lambda_k
    delta_{y_k} is formed as V* S^{-1} sum_k lambda_k psi_{y_k}.
    """
    _own_report(plan, report)
    rng = np.random.default_rng(seed)
    space = model.space
    cov = plan.covering
    weight = report.weight

    d_const = _sampled_row_constant(model, plan, weight, report)
    meas_const = report.osc_norm + report.r_norm
    sup_space = sup_infinity_space(Y, weight)
    range_sup_const = (report.osc_norm_v + report.r_norm_v) \
        * local_integrability_constant(cov, Y, weight)

    F = model.random_range_block(rng, n_trials)
    ny = Y.column_norms(F)
    F, ny = F[:, ny > 0.0], ny[ny > 0.0]
    vals = np.abs(F[plan.samples])
    sup = sup_space.column_norms(F)
    d_obs = np.max(Y.column_norms(pileup(vals, cov)) / ny, initial=0.0)
    smoothed = cov.pair_sums(plan.pou.phi[:, None]
                             * vals[cov.holders(0, space.n_points)])
    sig_obs = np.max(Y.column_norms(smoothed) / ny, initial=0.0)
    sup_obs = np.max(sup / ny, initial=0.0)
    ratios_1y = ny / WeightedLp(space, 1.0, weight.v).column_norms(F)
    ratios_ysup = sup / ny

    # Measure trials: atoms at random points. Each trial's per-point mass
    # sum_k |lambda_k| [y_k = x] is one column of a (n, n_trials) density,
    # whose decomposition norms are one natural pile-up pass.
    atoms = np.empty((model.dim, n_trials), dtype=complex)
    points, moduli = [], []
    for j in range(n_trials):
        k = rng.integers(1, cov.n_sets + 1)
        # the values rng.choice(n, size=k) gives, without its extra checks
        idx = rng.integers(0, space.n_points, size=k)
        coef = random_vectors(rng, k, 1)[:, 0]
        atoms[:, j] = model.vectors[:, idx] @ coef
        points.append(idx * n_trials + j)
        moduli.append(np.abs(coef))
    density = np.bincount(np.concatenate(points), np.concatenate(moduli),
                          minlength=space.n_points * n_trials)
    dec_norms = Y.column_norms(pileup(
        cov.set_sums(density.reshape(space.n_points, n_trials)), cov,
        natural=True))
    applied = model.vectors.conj().T @ (model.s_inverse @ atoms)
    keep = dec_norms > 0.0
    meas_obs = np.max(Y.column_norms(applied[:, keep]) / dec_norms[keep],
                      initial=0.0)

    checks = [(d_obs, d_const), (meas_obs, meas_const), (sup_obs, range_sup_const)]
    if report.oscillation_ok:
        checks.append((sig_obs, report.sigma))
    violations = int(sum(obs > const + BOUNDS_SLACK for obs, const in checks))

    ratios = {
        "l1v_vs_Y_max": float(np.max(ratios_1y, initial=0.0)),
        "l1v_vs_Y_min": float(np.min(ratios_1y)) if ratios_1y.size else 0.0,
        "Y_vs_sup_max": float(np.max(ratios_ysup, initial=0.0)),
        "Y_vs_sup_min": float(np.min(ratios_ysup)) if ratios_ysup.size else 0.0,
    }
    return BoundsReport(
        sampled_flat_constant=float(d_const),
        sampled_flat_observed=float(d_obs),
        pou_pileup_constant=float(report.sigma),
        pou_pileup_observed=float(sig_obs),
        measure_constant=float(meas_const),
        measure_observed=float(meas_obs),
        range_sup_constant=float(range_sup_const),
        range_sup_observed=float(sup_obs),
        transform_norm_ratios=ratios,
        violations=violations,
    )
