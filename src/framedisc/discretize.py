"""Sampling the frame through a covering: operators, inversion, dual frames.

Given a covering, with its flat partition of unity and one sample point per
set (``Covering.samples``, ``Covering.masses``), the sampling operator

    (U F)(x) = sum_i c_i F(x_i) R(x, x_i),      c_i = integral of phi_i,

approximates the reproducing kernel on its range. When the oscillation
budget certifies ||Id - U|| < 1 there, U is invertible by Neumann series
and yields frame coefficients, a dual frame, and stable reconstruction
from point samples. Every certified bound here is also measurable, and the
verification harness (``pipeline.verification_suite``) measures the
observed side.
"""

from __future__ import annotations

import copy
from functools import cached_property

import numpy as np

from .coverings import Covering
from .errors import CertificationError, SingularOperatorError, StructuralError
from .kernels import Workspace, block_rows, even_step, row_slices
from .models import FrameModel, random_vectors
from .oscillation import OscReport
from .spaces import WeightedLp, cell_space, streamed_norms

# Smallest eigenvalue modulus of the restricted sampling operator that
# ``direct`` inversion accepts; below it the operator counts as singular.
DIRECT_EIG_FLOOR = 1e-12

# Bytes a streamed Y-norm holds per grid value (``_analysis_norms``): the
# complex product and its moduli.
NORM_ENTRY_BYTES = 24

# ``observed_contraction`` at p != 2: at most this many power steps, settled
# when two successive ratios agree to the tolerance, then this many probes.
CONTRACTION_STEPS = 200
CONTRACTION_TOL = 1e-10
CONTRACTION_PROBES = 20

# Bytes the power iteration holds per iterate and frame dimension: the
# iterate, its image and the iterates a doubling forms at once.
ITERATE_BYTES = 48


def _restricted_matrix(model: FrameModel, cov: Covering) -> np.ndarray:
    """Action of U on analysis coordinates: U(V g) = V(S^{-1} S_c g)."""
    psi = model.vectors[:, cov.samples]
    s_c = (psi * cov.masses[None, :]) @ psi.conj().T
    return model.s_inverse @ s_c


class SamplingInverse:
    """Handle applying the inverse of the sampling operator on the kernel range.

    Works in analysis coordinates: every function in the range of the
    analysis transforms is F = V* a for a unique a in C^d (V the d x n
    matrix of frame vectors), and there U acts as the d x d matrix
    S^{-1} S_c, with S_c = sum_i c_i psi_{x_i} psi_{x_i}^*. ``invert_coords``
    inverts a (d, k) block of coordinates, and ``range_norms`` gives the
    Y-norms of the range functions V* a of such a block without forming
    them on the whole grid. The handle is the one argument the
    decomposition, reconstruction, dual-frame and observed-contraction
    helpers and the verification harness take: they read the model,
    covering, Y, report, ``tol``, ``n_max``, S^{-1} S_c and Y's range
    metric from it. The model and covering are the report's own, the ones
    its certificate was computed for; a report made under another weight
    than Y's certifies nothing in Y and is refused here.
    The constructor asks Y once for its range metric
    (``WeightedLp.range_metric``); where Y gives none it forms kappa_Y and
    C_Y below instead. ``other_method`` gives the handle of the other
    method on the same S^{-1} S_c and Y-norm constants, so a run forms
    each of them once.

    ``neumann`` sums a + (Id-U)a + (Id-U)^2 a + ... and requires a
    certificate that the sharp contraction bound
    (``OscReport.contraction_bounds``) is below one; ``direct``
    solves the d x d system and needs none. Each column of a block stops
    once its term's Y-norm is at most ``tol`` times the Y-norm of its input,
    so the stopping rule does not depend on the scale of the input. Where
    Y gives a range metric (p = 2) both norms are exact (a d x d quadratic
    form). Otherwise both are taken in coordinates, O(d) work per column,
    and nothing is formed on the grid. A term t is tested through the
    upper bound |V* t|_Y <= kappa_Y |t|_2, with kappa_Y = |x -> |psi_x|_2|_Y
    (Cauchy-Schwarz at every point, then solidity of Y). The input a is
    measured through the lower bound |V* a|_Y >= |a|_2 / C_Y: a is
    S^{-1} V(mu V* a) = sum_x mu_x (V* a)(x) S^{-1} psi_x, so C_Y is the
    norm of x -> |S^{-1} psi_x|_2 in the dual space of Y
    (``WeightedLp.dual``). Both bounds err on the safe side, so a column
    stops no earlier than the exact rule would stop it.
    """

    def __init__(self, report: OscReport, Y: WeightedLp,
                 method: str = "neumann", tol: float = 1e-12,
                 n_max: int = 200):
        if not np.array_equal(report.weight.w, Y.w):
            raise StructuralError("oscillation report made under another "
                                  "weight than Y's")
        model = report.model
        self.model = model
        self.covering = report.covering
        self.Y = Y
        self.tol = float(tol)
        self.n_max = int(n_max)
        self.report = report
        self._restricted = _restricted_matrix(model, self.covering)
        self._analysis = model.vectors.conj().T
        self._metric = Y.range_metric(model.vectors)
        if self._metric is None:
            self._kappa = Y.norm(np.linalg.norm(model.vectors, axis=0))
            self._c_dual = Y.dual().norm(np.linalg.norm(model.duals, axis=0))
        self._prepare(method)

    def _prepare(self, method: str) -> None:
        """Set the handle up for ``method`` on its S^{-1} S_c."""
        self.method = method
        self.last_term_norms: list = []
        if method == "neumann":
            _, sharp = self.report.contraction_bounds
            if not sharp < 1.0:
                raise CertificationError(
                    f"sharp contraction bound {sharp:.4f} is not below 1; "
                    f"refine the covering (smaller width) before inverting"
                )
        elif method == "direct":
            evals = np.linalg.eigvals(self._restricted)
            if np.min(np.abs(evals)) <= DIRECT_EIG_FLOOR:
                raise SingularOperatorError(
                    "sampling operator is numerically singular on the kernel range"
                )
            self._matrix_inv = np.linalg.inv(self._restricted)
        else:
            raise StructuralError(f"unknown inversion method {method!r}")

    def other_method(self) -> "SamplingInverse":
        """The handle of the other method (Neumann for direct, direct for
        Neumann) on the same covering, Y, report, ``tol`` and ``n_max``, reusing
        this handle's S^{-1} S_c and its range metric or kappa_Y and C_Y.
        Raises what that method's constructor raises."""
        other = copy.copy(self)
        other._prepare("direct" if self.method == "neumann" else "neumann")
        return other

    def range_norms(self, coords: np.ndarray, spaces=()):
        """Y-norms of the range functions V* a, one per column of a (d, k)
        coordinate block a; with ``spaces``, the list of their norms in each
        of ``spaces`` followed by the Y-norms, from one pass over V* a.

        Where Y gives a range metric (p = 2) the Y-norms are the d x d
        quadratic form |V* a|_Y^2 = a* M a (``WeightedLp.range_metric``), on
        columns scaled to unit size so that the squares cannot underflow.
        Otherwise, and for ``spaces``, V* a is formed and its norms summed
        in row blocks within ``BLOCK_BYTES`` (``_analysis_norms``).
        """
        if self._metric is None:
            *norms, ny = _analysis_norms(self._analysis, [*spaces, self.Y],
                                         coords)
        else:
            norms = _analysis_norms(self._analysis, spaces, coords) \
                if spaces else []
            scale, unit = _unit_columns(coords)
            quad = np.einsum("ij,ij->j", unit.conj(), self._metric @ unit).real
            ny = scale * np.sqrt(np.maximum(quad, 0.0))
        return [*norms, ny] if spaces else ny

    @cached_property
    def cell_space(self) -> WeightedLp:
        """Y collapsed on the covering's cells (``spaces.cell_space``), where
        the checks norm their pile-ups (``spaces.pileup_norms``)."""
        return cell_space(self.Y, self.covering.cells)

    def _term_norms(self, coords: np.ndarray) -> np.ndarray:
        """What the stopping rule tests for each column of a Neumann term:
        the exact Y-norm where Y gives a range metric (p = 2), else the bound
        kappa_Y |t|_2."""
        if self._metric is not None:
            return self.range_norms(coords)
        return self._kappa * _l2_norms(coords)

    def _input_norms(self, coords: np.ndarray) -> np.ndarray:
        """What the stopping rule takes for the Y-norm of each input column:
        the exact norm where Y gives a range metric (p = 2), else the lower
        bound |a|_2 / C_Y."""
        if self._metric is not None:
            return self.range_norms(coords)
        return _l2_norms(coords) / self._c_dual

    def invert_coords(self, coords: np.ndarray) -> np.ndarray:
        """Apply the inverse to every column of a (d, k) coordinate block.

        ``last_term_norms`` records the largest input norm of the block,
        then, per Neumann term, the largest tested value among the columns
        still summing: exact Y-norms where Y gives a range metric (p = 2),
        otherwise the lower bound |a|_2 / C_Y of the input and the upper
        bound kappa_Y |t|_2 of each term. Nothing is formed on the grid.
        """
        if self.method == "direct":
            return self._matrix_inv @ coords
        total = np.array(coords, dtype=complex, copy=True)
        first = self._input_norms(total)
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


def _l2_norms(coords: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a (d, k) block, taken on columns
    scaled to unit size so the squares neither underflow nor overflow."""
    scale, unit = _unit_columns(np.abs(coords))
    return scale * np.sqrt(np.einsum("ij,ij->j", unit, unit))


def _analysis_norms(analysis: np.ndarray, spaces,
                    coords: np.ndarray) -> list:
    """The column norms in each of ``spaces`` of ``analysis @ coords``, for
    the (n, d) analysis matrix V* and a (d, k) coordinate block, one array
    per space: each row block of the product, whose product and moduli fit
    in ``BLOCK_BYTES``, is formed once and fed to every space
    (``spaces.streamed_norms``); the product buffer is allocated once."""
    n, k = analysis.shape[0], coords.shape[1]
    step = even_step(n, block_rows(k, NORM_ENTRY_BYTES))
    prod, = Workspace().views(((step, k), complex))

    def blocks():
        for rows in row_slices(n, step):
            yield rows, np.matmul(analysis[rows], coords,
                                  out=prod[:rows.stop - rows.start])

    return streamed_norms(spaces, blocks())


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
                         swap_roles: bool = False, deferred: bool = False):
    """Coefficients lambda_i = c_i (U^{-1} A f)(x_i) at the inverse's samples.

    A is the dual analysis for expansion in the sampled frame vectors, or
    the plain analysis (``swap_roles``) for expansion in the sampled
    canonical duals. In analysis coordinates A f is S^{-1} f (or f). ``f``
    may be one vector or a (d, k) block of column vectors, giving an
    (n_sets, k) block of coefficients. With ``deferred`` it returns
    (coords, finish) instead: the (d, k) block it would invert and the
    function that makes the coefficients from that block's inverse, so
    that a caller can invert several such blocks in one call.
    """
    model, cov = inverse.model, inverse.covering
    vecs, shape = _as_columns(f, model.dim, "vector")

    def finish(g):
        out = cov.masses[:, None] * (model.vectors[:, cov.samples].conj().T @ g)
        return out.reshape((cov.n_sets,) + shape)

    coords = vecs if swap_roles else model.s_inverse @ vecs
    return (coords, finish) if deferred \
        else finish(inverse.invert_coords(coords))


def synthesize_sampled(model: FrameModel, cov: Covering, coeffs,
                       swap_roles: bool = False) -> np.ndarray:
    """sum_i lambda_i times the atom at sample x_i of ``cov`` (dual atoms
    when swapped).

    ``coeffs`` may be one sequence or an (n_sets, k) block of them.
    """
    lam, shape = _as_columns(coeffs, cov.n_sets, "coefficient sequence")
    out = model.vectors[:, cov.samples] @ lam
    if swap_roles:
        out = model.s_inverse @ out
    return out.reshape((model.dim,) + shape)


def reconstruct_from_samples(inverse: SamplingInverse, samples,
                             swap_roles: bool = False, deferred: bool = False):
    """Recover f from its point samples of the analysis transform at the
    inverse's sample points.

    Unswapped, ``samples`` are <f, psi_{x_i}>; swapped, <f, S^{-1}psi_{x_i}>.
    The sampled function U(A f) = sum_i c_i A f(x_i) R(., x_i) has analysis
    coordinates S^{-1} sum_i c_i A f(x_i) psi_{x_i}, so the kernel is never
    formed. ``samples`` may be an (n_sets, k) block, one sample set per
    column, giving a (d, k) block of vectors. With ``deferred`` it returns
    (coords, finish), as ``atomic_decomposition`` does.
    """
    model, cov = inverse.model, inverse.covering
    vals, shape = _as_columns(samples, cov.n_sets, "sample set")

    def finish(g):
        out = model.frame_operator @ g if swap_roles else g
        return out.reshape((model.dim,) + shape)

    coords = model.s_inverse @ (model.vectors[:, cov.samples]
                                @ (cov.masses[:, None] * vals))
    return (coords, finish) if deferred \
        else finish(inverse.invert_coords(coords))


def dual_frame(inverse: SamplingInverse, swap_roles: bool = False,
               deferred: bool = False):
    """Vectors e_i with lambda_i(f) = <f, e_i>, stacked as rows.

    Solves A(e_i) = c_i U^{-1} R(., x_i) where A is the analysis whose range
    the coefficients live in; solvability is guaranteed because the model's
    frame operator is positive definite (the family spans). In analysis
    coordinates R(., x_i) is S^{-1} psi_{x_i}, so all e_i come from one
    (d, n_sets) inversion: e_i = U^{-1} c_i S^{-1} psi_{x_i}, times S when
    swapped. With ``deferred`` it returns (coords, finish), as
    ``atomic_decomposition`` does.
    """
    model, cov = inverse.model, inverse.covering

    def finish(e):
        return (model.frame_operator @ e if swap_roles else e).T

    coords = model.s_inverse @ (model.vectors[:, cov.samples]
                                * cov.masses[None, :])
    return (coords, finish) if deferred \
        else finish(inverse.invert_coords(coords))


def hilbert_frame_bounds(model: FrameModel, cov: Covering) -> tuple:
    """Extreme eigenvalues of sum_i mu(U_i) psi_{x_i} psi_{x_i}^*."""
    psi = model.vectors[:, cov.samples]
    op = (psi * cov.measures[None, :]) @ psi.conj().T
    evals = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
    return float(evals[0]), float(evals[-1])


def _power_iterates(m: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """The (d, k) block of power iterates m^j g / |m^j g|_2, j < k, of a
    unit vector g, read off the normalized powers m^(2^i) / max|m^(2^i)|
    built by doubling: power 2^i maps the first 2^i iterates to the next
    2^i in one product. An iterate whose power of m vanishes is zero."""
    out = np.empty((g.size, k), dtype=complex)
    out[:, 0] = g
    have, power = 1, m
    while have < k:
        top = np.abs(power).max()
        if top > 0.0:
            power = power / top
        take = min(have, k - have)
        new = power @ out[:, :take]
        size = np.linalg.norm(new, axis=0)
        out[:, have:have + take] = new / np.where(size > 0.0, size, 1.0)
        have += take
        if have < k:
            power = power @ power
    return out


def observed_contraction(inverse: SamplingInverse, *, seed: int = 0) -> float:
    """Empirical lower estimate of ||Id - U|| on the kernel range in the
    inverse's Y-norm, read off the handle's S^{-1} S_c.

    Where Y gives a range metric (p = 2) the norm is computed exactly
    through the handle's metric; otherwise the estimate is the best ratio
    |V* m g|_Y / |V* g|_Y, m = Id - S^{-1} S_c, over power-iteration
    iterates g and ``CONTRACTION_PROBES`` random coordinate vectors.

    The power iteration g <- m g / |m g| runs in coordinates for up to
    ``CONTRACTION_STEPS`` steps, stopping early only where m g vanishes.
    Its iterates are read off normalized powers of m built by doubling
    (``_power_iterates``), as many at once as ``BLOCK_BYTES`` holds at
    ``ITERATE_BYTES`` per iterate and frame dimension. Image j is |m g_j|
    times iterate j + 1, so the iterates and the last image are analyzed
    as one (n, k + 1) block, and the iteration's stopping rule (a
    zero-norm iterate, a vanishing image, or two successive ratios within
    ``CONTRACTION_TOL``) is replayed on the array of ratios: the estimate
    is the one a step-by-step iteration would return, up to rounding. The
    probes are drawn in one call (``random_vectors``) and analyzed as one
    block.
    """
    model, metric = inverse.model, inverse._metric
    rng = np.random.default_rng(seed)
    m = np.eye(model.dim, dtype=complex) - inverse._restricted

    if metric is not None:
        evals, evecs = np.linalg.eigh(0.5 * (metric + metric.conj().T))
        evals = np.maximum(evals, 1e-300)
        half = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
        half_inv = (evecs / np.sqrt(evals)[None, :]) @ evecs.conj().T
        return float(np.linalg.norm(half @ m @ half_inv, ord=2))

    best, last = 0.0, 0.0
    g = random_vectors(rng, model.dim, 1)[:, 0]
    held = block_rows(model.dim, ITERATE_BYTES)
    left = CONTRACTION_STEPS
    while left > 0:
        iterates = _power_iterates(m, g, min(left, held))
        images = m @ iterates
        scales = np.linalg.norm(images, axis=0)
        vanish = np.flatnonzero(scales == 0.0)
        k = vanish[0] + 1 if vanish.size else iterates.shape[1]
        norms = inverse.range_norms(np.column_stack(
            (iterates[:, :k], images[:, k - 1])))
        nf = norms[:-1]
        ni = np.append(scales[:k - 1] * norms[1:-1], norms[-1])
        zero = np.flatnonzero(nf == 0.0)
        stop = zero[0] if zero.size else k
        ratios = ni[:stop] / nf[:stop]
        settled = np.abs(np.diff(ratios, prepend=last)) \
            <= CONTRACTION_TOL * np.maximum(1.0, ratios)
        if settled.any():
            ratios = ratios[:np.argmax(settled) + 1]
        best = max(best, ratios.max(initial=0.0))
        if settled.any() or stop < k or vanish.size:
            break
        last, left = ratios[-1], left - k
        g = images[:, k - 1] / scales[k - 1]

    probes = random_vectors(rng, model.dim, CONTRACTION_PROBES)
    nf = inverse.range_norms(probes)
    ni = inverse.range_norms(m @ probes)
    keep = nf > 0.0
    return float(max(best, np.max(ni[keep] / nf[keep], initial=0.0)))
