"""Phase-corrected oscillation of the reproducing kernel over a covering.

For a covering with neighborhoods Q_y and a unimodular phase Gamma, the
oscillation kernel is

    osc(x, y) = max over z in Q_y of |R(x, y) - Gamma(y, z) R(x, z)|,

computed by exact enumeration. Its Schur norm against the target weight is
the budget that certifies invertibility of the sampling operator: with
sigma = max{C_mU |R|, |R| + delta}, the sufficient condition reads
delta (|R| + sigma) <= 1. Neither osc nor R is stored: the columns of osc
are formed in blocks from the model's rank-d factors and streamed into the
Schur sums (``oscillation_norms``), and so are the upper-triangle strips
of R (``kernel_norms``). Both passes form each distinct kernel entry once:
|R| m is symmetric, and for a Hermitian phase the osc rows of the pairs
(y, z) and (z, y) have the same moduli. Under a trivial weight, given a
plan's samples, the R pass also yields the plan's sampled-row constant D.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coverings import Covering, singleton_covering, uniform_covering, \
    weight_compatibility
from .errors import CertificationError, StructuralError
from .kernels import SchurSums, Weight2D, block_rows, row_slices
from .models import FrameModel


# |R| <= PHASE_EPS carries no usable phase; the kernel rule uses phase one there.
PHASE_EPS = 1e-12


class PhaseFunction:
    """Unimodular phase Gamma(y, z); ``gamma(y, z)`` reads it at index arrays
    broadcast together. The rules are ``one`` (the constant phase, plain
    kernel oscillation) and ``kernel`` (Gamma(y, z) = R(z, y)/|R(z, y)|,
    which cancels the kernel's own rotation and typically shrinks the
    oscillation norm); both are read off the model's rank-d factors on
    demand, with no n x n table. The ``kernel`` rule reads each pair in one
    orientation: R(z, y) is the d-term product A[:, z]^* V[:, y] for z > y
    and the conjugate of A[:, y]^* V[:, z] for z < y, so Gamma(z, y) is
    conj Gamma(y, z) to the bit; both rules are ``hermitian``.
    The ``kernel`` rule is the per-pair L^2-optimal phase: since
    sum_x mu_x conj(R(x, z)) R(x, y) = R(z, y), it minimizes
    sum_x mu_x |R(x, y) - Gamma(y, z) R(x, z)|^2 for every pair. Which phase
    minimizes the oscillation norm itself is open."""

    hermitian = True

    def __init__(self, model: FrameModel, rule: str):
        if rule not in ("one", "kernel"):
            raise StructuralError(f"unknown phase rule {rule!r}")
        self.space = model.space
        self.rule = rule
        self._model = model

    def __call__(self, y, z) -> np.ndarray:
        if self.rule == "one":
            return np.ones(np.broadcast(y, z).shape, dtype=complex)
        model = self._model
        y, z = np.broadcast_arrays(y, z)
        # R(hi, lo) = A[:, hi]^* V[:, lo], conjugated below where z < y
        r = (model.duals[:, np.maximum(y, z)].conj()
             * model.vectors[:, np.minimum(y, z)]).sum(axis=0)
        mag = np.abs(r)
        # phase one on the diagonal: R(y, y) is a positive quadratic form
        big = (mag > PHASE_EPS) & (y != z)
        out = np.where(big, r / np.where(big, mag, 1.0), 1.0)
        return np.conjugate(out, out=out, where=z < y)


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
    R(z, .) is (A[:, y] - Gamma(y, z) A[:, z])^* V. The (y, z) pairs of
    the block (``Covering.q_neighborhoods``) are laid out as a table, row
    k listing Q_y for y = start + k, and each chunk of the table's columns
    is one (pairs, d) @ (d, n) product whose moduli are maxed along the
    rows. The term z = y is exactly 0 where Gamma(y, y) == 1 and is not
    formed; a y with no term left, such as an uncovered one, gets a zero
    row, and so do the cells past the end of a shorter row.

    For a ``hermitian`` phase the row of (z, y) is -Gamma(y, z) times the
    row of (y, z), so every pair is formed in the orientation (min, max),
    and a pair whose mirror lies in the same chunk reuses the mirror's
    moduli; a phase that is not Hermitian forms every (y, z).
    """
    ys = np.arange(start, stop)
    n = model.space.n_points
    y_of, zs = cov.q_neighborhoods(start, stop)
    keep = (zs != y_of) | (gamma(ys, ys) != 1.0)[y_of - start]
    y_of, zs = y_of[keep], zs[keep]
    counts = np.bincount(y_of - start, minlength=ys.size)
    first = np.cumsum(counts) - counts
    # chunks of columns keep each (b * chunk, n) block in budget
    chunk = max(1, block_rows(n) // ys.size)
    pair = np.arange(zs.size)
    source = pair.copy()
    lo, hi = y_of, zs
    if gamma.hermitian:
        lo, hi = np.minimum(y_of, zs), np.maximum(y_of, zs)
        col = pair - first[y_of - start]
        # the mirror (z, y) of a pair with start <= z < y, in the sorted
        # pair keys y * n + z
        below = np.flatnonzero((zs < y_of) & (zs >= start))
        mirror = np.searchsorted(y_of * n + zs, zs[below] * n + y_of[below])
        near = col[mirror] // chunk == col[below] // chunk
        source[below[near]] = mirror[near]
    formed = source == pair
    steps = np.arange(counts.max(initial=0))
    table = np.where(steps < counts[:, None], first[:, None] + steps, -1)
    # slot[p]: the row of pair p among the chunk's moduli; slot[-1] is the
    # zero row. A reused pair's mirror is formed in its chunk, so every
    # chunk forms at least one row.
    slot = np.empty(zs.size + 1, dtype=np.intp)
    out = None
    for c0 in range(0, steps.size, chunk):
        cells = table[:, c0:c0 + chunk]
        pairs = cells[cells >= 0]
        made = pairs[formed[pairs]]
        a, b = lo[made], hi[made]
        left = model.duals[:, a] - gamma(a, b) * model.duals[:, b]
        mods = np.empty((made.size + 1, n))
        np.abs(left.conj().T @ model.vectors, out=mods[:-1])
        mods[-1] = 0.0
        slot[made] = np.arange(made.size)
        slot[pairs] = slot[source[pairs]]
        slot[-1] = made.size
        at = slot[cells]
        if np.array_equal(at.ravel(), np.arange(made.size)):
            # every cell formed, in table order: no gather
            part = mods[:-1].reshape(ys.size, -1, n)
        else:
            part = mods[at]
        part = part[:, 0] if part.shape[1] == 1 else part.max(axis=1)
        out = part if out is None else np.maximum(out, part, out=out)
    return np.zeros((ys.size, n)) if out is None else out


def oscillation_norms(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                      weights, level: float | None = None) -> list | Screened:
    """Schur norms of the oscillation kernel under each of ``weights``.

    One pass over the columns in index order, in blocks of ``block_rows``
    columns; each block is summed into ``SchurSums`` and dropped. With
    ``level`` the blocks are one column, then two, four, ... up to
    ``block_rows``, and the scan returns
    ``Screened`` at the first column whose weighted Schur sum under
    ``weights[0]`` reaches ``level``: the norm is at least that sum, so the
    columns left cannot bring it below ``level``. Those sums are the floats
    the norm is the maximum of, and a stopped scan has formed at most
    2c + 1 columns, c the column it stopped at.
    """
    if cov.space is not model.space and cov.space.n_points != model.space.n_points:
        raise StructuralError("covering lives on a different space")
    n = model.space.n_points
    sums = SchurSums(model.space, weights)
    cap = block_rows(n)
    start, size = 0, cap if level is None else 1
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

    It names its covering (``covering_id``) and keeps its ``weight``, which
    its consumers read; they refuse a plan on another covering. Not
    serialized: ``weight``; ``osc_norm_v`` and ``r_norm_v``, the norms of
    osc and R under m_v (``v_weight``) from the same passes; and, under a
    trivial weight given a plan's samples ``d_samples``, that plan's
    sampled-row constant ``d_const`` from the same R pass (else None).
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
    weight: Weight2D
    d_const: float | None = None
    d_samples: np.ndarray | None = None

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
                       weight: Weight2D, delta: float,
                       samples=None) -> OscReport:
    """Evaluate the oscillation budget; reports, never raises on failure.

    With ``samples``, one sample index per set of ``cov`` (a plan's
    ``samples``), a trivial weight's R pass also yields that plan's
    sampled-row constant D, which the report carries as ``d_const``; a
    non-trivial weight ignores them, as its D needs m on every pair.
    """
    weights = (weight, v_weight(weight))
    osc_norms = oscillation_norms(model, cov, gamma, weights)
    if samples is None or not weight.trivial:
        return _report(model, cov, gamma, weight, delta, osc_norms,
                       kernel_norms(model, weights))
    samples = np.array(samples, dtype=int)
    samples.setflags(write=False)
    *r_norms, d_const = kernel_norms(model, weights, cov, samples)
    return replace(_report(model, cov, gamma, weight, delta, osc_norms, r_norms),
                   d_const=d_const, d_samples=samples)


def kernel_norms(model: FrameModel, weights, cov: Covering | None = None,
                 samples=None) -> list:
    """Schur norms of R under each of ``weights``, from one pass over the
    upper triangle of |R| in strips |R|[a:b, a:] formed from the model's
    factors (``SchurSums.add_upper``): |R| m is symmetric, R = V^* S^-1 V
    being Hermitian and m symmetric, so R(x, y) is read for x <= y only.

    Given a covering and one sample index x_i per set, the list ends with
    one more norm: the unit-weight Schur norm D of the sampled-row kernel
    K(x, y) = sum_i |R(x_i, y)| chi_{U_i}(x). Its row sum at x is the sum
    of rho_i = sum_y mu_y |R(x_i, y)| over the sets holding x, and rho_i is
    the unit-weight |R| row sum the pass returns at x_i. Its column sums
    are |R| c, c = sum_i mu(U_i) delta_{x_i}: a strip adds strip @ c[a:] to
    its rows and, mirrored, c[a:b] @ strip[:, b - a:] to the rows right of
    its diagonal block, two products per strip and no sample row of R.
    """
    n = model.space.n_points
    sampled = samples is not None
    sums = SchurSums(model.space, list(weights) + ([None] if sampled else []))
    if sampled:
        c = np.bincount(samples, cov.measures, minlength=n)
        rho, col = np.empty(n), np.zeros(n)
    for rows in row_slices(n):
        strip = np.abs(model.duals[:, rows].conj().T
                       @ model.vectors[:, rows.start:])
        row_sums = sums.add_upper(rows.start, strip)
        if sampled:
            rho[rows] = row_sums[-1]
            col[rows] += strip @ c[rows.start:]
            col[rows.stop:] += c[rows] @ strip[:, rows.stop - rows.start:]
    norms = sums.norms()
    if sampled:
        norms[-1] = float(max(cov.point_sums(rho[samples]).max(), col.max()))
    return norms


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
        weight=weight,
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
    gamma = PhaseFunction(model, gamma_rule)
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
