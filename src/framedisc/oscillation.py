"""Phase-corrected oscillation of the reproducing kernel over a covering.

For a covering with neighborhoods Q_y and a unimodular phase Gamma, the
oscillation kernel is

    osc(x, y) = max over z in Q_y of |R(x, y) - Gamma(y, z) R(x, z)|,

computed by exact enumeration. Its Schur norm against the target weight is
the budget that certifies invertibility of the sampling operator: with
sigma = max{C_mU |R|, |R| + delta}, the sufficient condition reads
delta (|R| + sigma) <= 1. Neither osc nor R is stored: the columns of osc
are formed in blocks from the model's rank-d factors and streamed into the
Schur sums (``oscillation_norms``), and so are the rows of R
(``kernel_norms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, singleton_covering, uniform_covering, \
    weight_compatibility
from .errors import CertificationError, StructuralError
from .kernels import SchurSums, Weight2D, block_rows, row_slices, schur_norms
from .models import FrameModel
from .quadrature import QuadratureSpace


# |R| <= PHASE_EPS carries no usable phase; the kernel rule uses phase one there.
PHASE_EPS = 1e-12


class PhaseFunction:
    """Unimodular phase Gamma(y, z); ``gamma(y, z)`` reads it at index arrays
    broadcast together. ``make_phase`` builds the rules ``one`` (the constant
    phase, plain kernel oscillation) and ``kernel`` (Gamma(y, z) = R(z, y)/
    |R(z, y)|, which cancels the kernel's own rotation and typically shrinks
    the oscillation norm); both are read off the model's rank-d factors, with
    no n x n table.
    The ``kernel`` rule is the per-pair L^2-optimal phase: since
    sum_x mu_x conj(R(x, z)) R(x, y) = R(z, y), it minimizes
    sum_x mu_x |R(x, y) - Gamma(y, z) R(x, z)|^2 for every pair. Which phase
    minimizes the oscillation norm itself is open; any unimodular n x n
    table can be supplied directly."""

    def __init__(self, space: QuadratureSpace, table):
        tab = np.ascontiguousarray(np.asarray(table, dtype=complex))
        n = space.n_points
        if tab.shape != (n, n):
            raise StructuralError(f"phase table shape {tab.shape}, expected {(n, n)}")
        mod = np.abs(tab)
        if np.max(np.abs(mod - 1.0)) > 1e-14:
            raise StructuralError("phase values must have modulus one")
        tab.setflags(write=False)
        self.space = space
        self.rule = "table"
        self._table = tab

    def __call__(self, y, z) -> np.ndarray:
        return self._table[y, z]


class _RulePhase(PhaseFunction):
    """A built-in rule, evaluated from the model's factors on demand:
    R(z, y) is the d-term product A[:, z]^* V[:, y]."""

    def __init__(self, model: FrameModel, rule: str):
        self.space = model.space
        self.rule = rule
        self._model = model

    def __call__(self, y, z) -> np.ndarray:
        if self.rule == "one":
            return np.ones(np.broadcast(y, z).shape, dtype=complex)
        model = self._model
        y, z = np.broadcast_arrays(y, z)
        r = (model.duals[:, z].conj() * model.vectors[:, y]).sum(axis=0)
        mag = np.abs(r)
        big = mag > PHASE_EPS
        # phase one on the diagonal: R(y, y) is a positive quadratic form
        return np.where(big & (y != z), r / np.where(big, mag, 1.0), 1.0)


def make_phase(model: FrameModel, rule: str) -> PhaseFunction:
    if rule not in ("one", "kernel"):
        raise StructuralError(f"unknown phase rule {rule!r}")
    return _RulePhase(model, rule)


@dataclass(frozen=True)
class Screened:
    """An oscillation scan stopped at ``column``, whose weighted Schur
    column sum ``lower_bound`` bounds the oscillation norm from below."""

    column: int
    lower_bound: float


def _osc_rows(model: FrameModel, cov: Covering, gamma: PhaseFunction,
              start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of the oscillation kernel, as rows of osc^T.

    osc(x, y) = max_z |R(y, x) - conj Gamma(y, z) R(z, x)| up to the
    rounding of the rank-d rows, and the row R(y, .) - conj Gamma(y, z)
    R(z, .) is (A[:, y] - Gamma(y, z) A[:, z])^* V, so each chunk of (y, z)
    pairs is one (pairs, d) @ (d, n) product. Each Q_y is padded to the
    block's largest by repeating one of its own points, and the term z = y
    is left out wherever Gamma(y, y) == 1, since it is exactly 0 there.
    """
    ys = np.arange(start, stop)
    drop = gamma(ys, ys) == 1.0
    qs = []
    for y, skip in zip(ys, drop):
        q = cov.q_neighborhood(y)
        if skip:
            q = q[q != y]
        qs.append(q if q.size else np.array([y]))    # the zero term alone
    sizes = np.array([q.size for q in qs])
    width = int(sizes.max())
    last = np.cumsum(sizes) - 1
    zs = np.concatenate(qs)[np.minimum(last[:, None],
                                       last[:, None] - sizes[:, None] + 1
                                       + np.arange(width)[None, :])]
    duals, n = model.duals, model.space.n_points
    # chunks of the padded axis keep each (b * chunk, n) block in budget
    chunk = max(1, block_rows(n) // ys.size)
    out = None
    for lo in range(0, width, chunk):
        z = zs[:, lo:lo + chunk]
        left = duals[:, ys, None] - gamma(ys[:, None], z) * duals[:, z]
        rows = left.reshape(model.dim, -1).conj().T @ model.vectors
        part = np.abs(rows).reshape(ys.size, -1, n).max(axis=1)
        out = part if out is None else np.maximum(out, part, out=out)
    return out


def oscillation_norms(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                      weights, level: float | None = None) -> list | Screened:
    """Schur norms of the oscillation kernel under each of ``weights``.

    One pass over the columns in index order, in blocks of one column,
    then two, four, ... up to ``block_rows``; each block is summed into
    ``SchurSums`` and dropped. With ``level``, the scan returns
    ``Screened`` at the first column whose weighted Schur sum under
    ``weights[0]`` reaches ``level``: the norm is at least that sum, so the
    columns left cannot bring it below ``level``. Those sums are the floats
    the norm is the maximum of, and a stopped scan has read Q_y for at most
    2c + 1 columns, c the column it stopped at.
    """
    if cov.space is not model.space and cov.space.n_points != model.space.n_points:
        raise StructuralError("covering lives on a different space")
    n = model.space.n_points
    sums = SchurSums(model.space, weights)
    cap = block_rows(n)
    start, size = 0, 1
    while start < n:
        stop = min(n, start + size)
        col_sums = sums.add(slice(start, stop), _osc_rows(model, cov, gamma, start, stop))
        if level is not None:
            hit = np.flatnonzero(col_sums[0] >= level)
            if hit.size:
                return Screened(start + int(hit[0]), float(col_sums[0, hit[0]]))
        start, size = stop, min(2 * size, cap)
    return sums.norms()


def v_weight(weight: Weight2D) -> Weight2D:
    """m_v, the associated weight of the one-point trace v of ``weight``;
    ``weight`` itself when v equals w, as it does whenever w is one at the
    reference point and at least one everywhere."""
    v = weight.v
    if np.array_equal(v, weight.w):
        return weight
    return Weight2D(weight.space, v, weight.ref_index)


def sigma_constant(delta: float, r_norm: float, c_mu: float) -> float:
    """sigma = max{C_mU |R|, |R| + delta}."""
    return max(c_mu * r_norm, r_norm + delta)


def invertibility_condition(delta: float, r_norm: float, c_mu: float) -> tuple:
    """LHS and truth of delta (|R| + max{C_mU |R|, |R| + delta}) <= 1."""
    lhs = delta * (r_norm + sigma_constant(delta, r_norm, c_mu))
    return lhs, bool(lhs <= 1.0)


@dataclass(frozen=True, eq=False)
class OscReport:
    """Snapshot of the oscillation budget for one covering/phase/weight.

    ``osc_norm_v`` and ``r_norm_v`` are the norms of osc and R under m_v
    (``v_weight``), taken in the same passes; they are not serialized.
    """

    osc_norm: float
    osc_norm_v: float
    delta: float
    sigma: float
    r_norm: float
    r_norm_v: float
    c_mu: float
    oscillation_ok: bool     # osc_norm < delta (strict)
    invertibility_ok: bool   # delta (r_norm + sigma) <= 1
    condition_lhs: float
    covering_id: str
    gamma_rule: str
    overlap_bound: int
    n_sets: int

    def to_json_dict(self) -> dict:
        return {
            "osc_norm": self.osc_norm,
            "delta": self.delta,
            "sigma": self.sigma,
            "R_norm": self.r_norm,
            "C_mU": self.c_mu,
            "holds_D": self.oscillation_ok,
            "holds_58": self.invertibility_ok,
            "condition_lhs": self.condition_lhs,
            "covering_id": self.covering_id,
            "gamma_rule": self.gamma_rule,
            "N": self.overlap_bound,
            "n_sets": self.n_sets,
        }


def oscillation_report(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                       weight: Weight2D, delta: float) -> OscReport:
    """Evaluate the oscillation budget; reports, never raises on failure."""
    weights = (weight, v_weight(weight))
    return _report(model, cov, gamma, weight, delta,
                   oscillation_norms(model, cov, gamma, weights),
                   kernel_norms(model, weights))


def kernel_norms(model: FrameModel, weights) -> list:
    """Schur norms of R under each of ``weights``, from one pass over |R|
    in row blocks formed from the model's factors."""
    blocks = ((rows, np.abs(model.kernel_rows(rows)))
              for rows in row_slices(model.space.n_points))
    return schur_norms(model.space, blocks, weights)


def _report(model: FrameModel, cov: Covering, gamma: PhaseFunction,
            weight: Weight2D, delta: float, osc_norms: list,
            r_norms: list) -> OscReport:
    """The budget from the norms of osc and R under ``weight`` and its m_v."""
    osc_norm, osc_norm_v = osc_norms
    r_norm, r_norm_v = r_norms
    c_mu = weight_compatibility(cov, weight)
    sigma = sigma_constant(delta, r_norm, c_mu)
    lhs, inv_ok = invertibility_condition(delta, r_norm, c_mu)
    return OscReport(
        osc_norm=float(osc_norm),
        osc_norm_v=float(osc_norm_v),
        delta=float(delta),
        sigma=float(sigma),
        r_norm=float(r_norm),
        r_norm_v=float(r_norm_v),
        c_mu=float(c_mu),
        oscillation_ok=bool(osc_norm < delta),
        invertibility_ok=inv_ok,
        condition_lhs=float(lhs),
        covering_id=cov.identifier(),
        gamma_rule=gamma.rule,
        overlap_bound=cov.overlap_bound,
        n_sets=cov.n_sets,
    )


def _floor_4(x: float) -> float:
    """``x`` rounded down to four significant digits, so that a printed lower
    bound stays below the value it bounds."""
    from decimal import ROUND_FLOOR, Decimal
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 3),
                            rounding=ROUND_FLOOR))


def refine_until(model: FrameModel, weight: Weight2D, delta: float,
                 gamma_rule: str = "kernel", max_rounds: int = 12,
                 require_invertibility: bool = True) -> tuple:
    """Halve the covering width until the oscillation budget is met.

    Starts from a single box spanning the grid and halves the box width each
    round. Succeeds as soon as the oscillation norm is below ``delta`` and
    (when required) the invertibility condition holds; an all-singleton
    covering ends the search regardless, since its oscillation vanishes.
    Each round's oscillation is screened column by column: a round is
    rejected, with no report, at the first column whose weighted Schur sum
    proves the norm at least ``delta``. Rounds that get through the screen
    are reported from the norms the same pass computed, so the returned
    report is the one ``oscillation_report`` gives for that covering.
    Raises CertificationError when ``max_rounds`` is exhausted first.
    """
    if delta <= 0:
        raise StructuralError("delta must be positive")
    if max_rounds < 1:
        raise StructuralError("max_rounds must be at least 1")
    space = model.space
    gamma = make_phase(model, gamma_rule)
    weights = (weight, v_weight(weight))
    r_norms = None
    spans = space.points.max(axis=0) - space.points.min(axis=0)
    width = np.where(spans > 0, spans, 1.0) * 1.0000001 + 1.0

    # Finest usable box width per axis; below it boxes can fall between points.
    spacing = np.full(space.dim, np.inf)
    for a in range(space.dim):
        coords = np.unique(space.points[:, a])
        if coords.size > 1:
            spacing[a] = np.diff(coords).min()

    for _ in range(max_rounds):
        if np.all(width >= spacing):
            cov = uniform_covering(space, width)
        else:
            cov = singleton_covering(space)
        scan = oscillation_norms(model, cov, gamma, weights, level=delta)
        if isinstance(scan, Screened):
            last = scan
        else:
            if r_norms is None:
                r_norms = kernel_norms(model, weights)
            last = _report(model, cov, gamma, weight, delta, scan, r_norms)
            done = last.oscillation_ok and (
                not require_invertibility or last.invertibility_ok)
            singleton = all(s.size == 1 for s in cov.sets)
            if done or (singleton and last.oscillation_ok):
                return cov, last
        width = width / 2.0
    if isinstance(last, Screened):
        found = (f"osc_norm >= {_floor_4(last.lower_bound):.3e} vs delta {delta:.3e}; "
                 f"the bound is column {last.column}'s weighted Schur sum")
    else:
        found = f"osc_norm {last.osc_norm:.3e} vs delta {delta:.3e}"
    raise CertificationError(
        f"no covering met the oscillation budget within {max_rounds} rounds "
        f"(last {found})"
    )
