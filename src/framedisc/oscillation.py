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
(y, z) and (z, y) have the same moduli. Given a sampling plan, the R pass
also yields a certified bound on the plan's sampled-row constant D under
the target weight, equal to D under a trivial weight. Each pass runs under
the target weight alone: its norm also bounds the norm under m_v, the
weight of the sup space (``kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coverings import Covering, singleton_covering, uniform_covering, \
    weight_compatibility
from .errors import CertificationError, StructuralError
from .kernels import SchurSums, Weight2D, Workspace, block_rows, \
    col_slices, even_step, upper_strips
from .models import FrameModel


# |R| <= PHASE_EPS carries no usable phase; the kernel rule uses phase one there.
PHASE_EPS = 1e-12

# Bytes an R strip holds per entry: the complex product and its moduli.
STRIP_ENTRY_BYTES = 24

# Bytes an oscillation tile holds per (y, z) cell and grid point: the
# complex product row, its moduli, the gathered moduli and the maxed osc
# row, each counted for every cell (a cell forms at most one row).
OSC_CELL_BYTES = 40

# Bytes of bookkeeping per (y, z) cell and frame dimension that a column
# block of the oscillation pass holds at its peak, while its phases and
# left factors are formed from gathered factor columns.
PAIR_BYTES = 64


class PhaseFunction:
    """Unimodular phase Gamma(y, z); ``gamma(y, z)`` reads it at index arrays
    broadcast together. The rules are ``one`` (the constant phase, plain
    kernel oscillation) and ``kernel`` (Gamma(y, z) = R(z, y)/|R(z, y)|,
    which cancels the kernel's own rotation and typically shrinks the
    oscillation norm); both are read off the model's rank-d factors on
    demand, with no n x n table. The ``kernel`` rule reads each pair in one
    orientation: R(z, y) is the d-term product A[:, z]^* V[:, y] for z > y
    and the conjugate of A[:, y]^* V[:, z] for z < y, so Gamma(z, y) is
    conj Gamma(y, z) to the bit. Both rules are thus Hermitian, and both
    give Gamma(y, y) = 1 exactly; the oscillation pass relies on both.
    The ``kernel`` rule is the per-pair L^2-optimal phase: since
    sum_x mu_x conj(R(x, z)) R(x, y) = R(z, y), it minimizes
    sum_x mu_x |R(x, y) - Gamma(y, z) R(x, z)|^2 for every pair. Which phase
    minimizes the oscillation norm itself is open."""

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
              start: int, stop: int, xcols: list, cells: int,
              work: Workspace):
    """Columns ``start:stop`` of the oscillation kernel, as rows of osc^T,
    yielded in tiles ``(rows, xs, osc^T[rows, xs])`` of at most ``cells``
    (y, z) cells by one column block ``xs`` of ``xcols``, the column blocks
    of a row tile in order; each tile is a view into ``work`` that the
    next overwrites. A block with no (y, z) pair yields nothing: its rows
    are zero and add nothing to the Schur sums.

    osc(x, y) = max_z |R(y, x) - conj Gamma(y, z) R(z, x)| up to the
    rounding of the rank-d rows, and the row R(y, .) - conj Gamma(y, z)
    R(z, .) is (A[:, y] - Gamma(y, z) A[:, z])^* V. The (y, z) pairs of
    the block (``Covering.q_neighborhoods``) are laid out as a table, row
    k listing Q_y for y = start + k, and cut into even tiles, each whole
    table rows or, where one row has more than ``cells`` cells, a piece of
    one row. The term z = y is exactly 0, Gamma(y, y) being 1, and is not
    listed. A tile forms each distinct row once, in one (rows, d) @
    (d, |xs|) product, and maxes their moduli along the table's rows; a
    row is keyed by its tile and the pair (min, max) of (y, z), the phase
    being Hermitian: the row of (z, y) is -Gamma(y, z) times that of
    (y, z). Row 0 of the moduli is zero, for the cells past the end of a
    shorter table row.
    """
    n = model.space.n_points
    wide = max(xs.stop - xs.start for xs in xcols)
    n_ys = stop - start
    y_of, zs = cov.q_neighborhoods(start, stop)
    keep = zs != y_of
    y_of, zs = y_of[keep], zs[keep]
    if zs.size == 0:
        return
    row_of = y_of - start
    counts = np.bincount(row_of, minlength=n_ys)
    width = int(counts.max())
    # a tile is `tall` whole table rows, or one row in chunks of `chunk` cells
    tall = even_step(n_ys, max(1, cells // width))
    chunk = even_step(width, min(width, cells))
    n_tiles, n_chunks = -(-n_ys // tall), -(-width // chunk)
    first = np.cumsum(counts) - counts
    group = (row_of // tall * n_chunks
             + (np.arange(zs.size) - first[row_of]) // chunk)
    lo, hi = np.minimum(y_of, zs), np.maximum(y_of, zs)
    # group < n_ys * width, the table's cells, which oscillation_norms
    # keeps to max(n, block_rows(d, PAIR_BYTES)) <= max(n, 2^15): a key is
    # below that times n^2, within int64 for every n below 2^21
    keys, slot = np.unique((group * n + lo) * n + hi, return_inverse=True)
    made_in, pair = np.divmod(keys, n * n)
    a, b = np.divmod(pair, n)
    made = np.bincount(made_in, minlength=n_tiles * n_chunks)
    made_start = np.cumsum(made) - made
    # slot[p]: the row of pair p's moduli in its tile; row 0 is zero
    slot += 1 - made_start[group]
    steps = np.arange(width)
    table = np.where(steps < counts[:, None], first[:, None] + steps, -1)
    at = np.append(slot, 0)[table]
    left = (model.duals[:, a] - gamma(a, b) * model.duals[:, b]).conj().T
    tile = tall * chunk
    prod, mods, gathered, out, spare = work.views(
        ((tile * wide,), complex), (((tile + 1) * wide,), float),
        ((tile * wide,), float), ((tall * wide,), float), ((wide,), float))
    for t in range(n_tiles):
        r0, r1 = t * tall, min(n_ys, (t + 1) * tall)
        for xs in xcols:
            w = xs.stop - xs.start
            dst = out[:(r1 - r0) * w].reshape(r1 - r0, w)
            for c in range(n_chunks):
                c0, c1 = c * chunk, min(width, (c + 1) * chunk)
                f0, f = made_start[t * n_chunks + c], made[t * n_chunks + c]
                moduli = mods[:(f + 1) * w].reshape(f + 1, w)
                moduli[0] = 0.0
                if f:
                    product = np.matmul(left[f0:f0 + f], model.vectors[:, xs],
                                        out=prod[:f * w].reshape(f, w))
                    np.abs(product, out=moduli[1:])
                into = dst if c == 0 else spare[:w].reshape(1, w)
                if c1 - c0 == 1:
                    np.take(moduli, at[r0:r1, c0], axis=0, out=into,
                            mode="clip")
                else:
                    cell = at[r0:r1, c0:c1]
                    part = gathered[:cell.size * w].reshape(cell.shape + (w,))
                    np.take(moduli, cell, axis=0, out=part, mode="clip")
                    np.max(part, axis=1, out=into)
                if c:
                    np.maximum(dst, into, out=dst)
            yield slice(start + r0, start + r1), xs, dst


def _same_space(model: FrameModel, cov: Covering) -> None:
    """Refuse a covering of another grid than the model's."""
    if cov.space is not model.space and cov.space.n_points != model.space.n_points:
        raise StructuralError("covering lives on a different space")


def oscillation_norms(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                      weight: Weight2D, level: float | None = None
                      ) -> float | Screened:
    """Schur norm of the oscillation kernel under ``weight``.

    One pass over the columns in index order, in blocks whose table of Q_y
    has at most n cells or, if more, as many as the budget holds the
    bookkeeping of (``PAIR_BYTES`` per cell and frame dimension), counted
    at the bound ``Covering.q_bound`` on |Q_y|. Each block's rows are
    formed in tiles (``_osc_rows``) of a row block by a column block
    (``kernels.col_slices``), whose product, moduli, gathered and maxed
    rows and Schur sums' m hold at most ``BLOCK_BYTES`` together, in
    buffers allocated once; each tile is summed into ``SchurSums`` and
    overwritten. With ``level`` the blocks are one column, then two,
    four, ... up to that size, and the scan returns ``Screened`` at the
    first column whose weighted Schur sum reaches ``level``, each sum
    judged once its last column block is in: the norm is at least that
    sum, so the columns left cannot bring it below ``level``. Those sums are the floats the norm is the maximum of, and a
    stopped scan has formed at most 2c + 1 columns, c the column it
    stopped at.
    """
    _same_space(model, cov)
    n = model.space.n_points
    sums = SchurSums(model.space, weight)
    entry = OSC_CELL_BYTES + sums.entry_bytes
    xcols = col_slices(n, entry)
    cells = block_rows(xcols[0].stop - xcols[0].start, entry)
    step = max(1, max(n, block_rows(model.dim, PAIR_BYTES)) // cov.q_bound)
    work = Workspace()
    start, size = 0, step if level is None else 1
    while start < n:
        stop = min(n, start + size)
        for rows, xs, osc in _osc_rows(model, cov, gamma, start, stop, xcols,
                                       cells, work):
            col_sums = sums.add(rows, osc, xs)
            if level is not None and col_sums is not None:
                hit = np.flatnonzero(col_sums >= level)
                if hit.size:
                    return Screened(rows.start + int(hit[0]),
                                    float(col_sums[hit[0]]))
        start, size = stop, min(2 * size, step)
    return sums.norms()[0]


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
    its consumers read; they refuse a plan on another covering. Both norms
    are taken under that weight's m, which also bounds them under m_v, the
    weight of the sup space (``kernels``). Not serialized: ``weight``; and,
    given a plan, the bound on its sampled-row constant ``d_const`` from
    the same R pass (``kernel_norms``) and its ``identifier()`` as
    ``d_plan`` (else None).
    """

    osc_norm: float
    delta: float
    sigma: float
    r_norm: float
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
    d_plan: str | None = None

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
                       weight: Weight2D, delta: float, plan=None) -> OscReport:
    """Evaluate the oscillation budget; reports, never raises on failure.

    With a sampling ``plan`` on ``cov`` (another covering's is refused
    before any pass, StructuralError), the R pass also gives the bound on
    the plan's sampled-row constant D under ``weight`` (``kernel_norms``),
    carried as ``d_const`` with the plan's ``identifier()`` as ``d_plan``.
    """
    if plan is not None and plan.covering.identifier() != cov.identifier():
        raise StructuralError("the plan is on another covering than the report's")
    osc_norm = oscillation_norms(model, cov, gamma, weight)
    r_norm, d_const = kernel_norms(model, weight, plan)
    report = _report(model, cov, gamma, weight, delta, osc_norm, r_norm)
    if plan is None:
        return report
    return replace(report, d_const=d_const, d_plan=plan.identifier())


def kernel_norms(model: FrameModel, weight: Weight2D, plan=None) -> tuple:
    """(|R|, D bound): the Schur norm of R under ``weight``, from one pass
    over the upper triangle of |R| in strips |R|[a:b, a:] formed from the
    model's factors (``SchurSums.add_upper``): |R| m is symmetric,
    R = V^* S^-1 V being Hermitian and m symmetric, so R(x, y) is read for
    x <= y only. A strip is formed whole or, on a long row, in column
    blocks (``kernels.col_slices``); each piece holds its complex product
    and moduli, plus the Schur sums' m under a non-trivial weight, within
    ``BLOCK_BYTES`` (``upper_strips``), and both buffers are allocated once.

    Given a sampling ``plan`` (one on another grid is refused before the
    pass, StructuralError), the second value is a certified upper bound on
    D (else None), the Schur norm under the weight's m of
    K(x, y) = sum_i |R(x_i, y)| chi_{U_i}(x). With
    M_i = max over x in U_i of m(x, x_i), read off the extremes of w on
    U_i, submultiplicativity gives m(x, y) <= M_i m(x_i, y) for x in U_i,
    so the row sum of K at x is at most the sum of M_i rho_i over the sets
    holding x, where rho_i is the weighted |R| row sum the pass returns at
    x_i, and its column sum at y is at most ((|R| m)(M c))(y),
    c = sum_i mu(U_i) delta_{x_i}: the row sum at y of |R| m against the
    measure M c, which ``SchurSums`` keeps beside mu. No sample row of R is
    formed. The bound lies between D and (max_i M_i)^2 D, and
    max_i M_i <= C_mU; under a trivial weight every M_i is 1 and the
    bound is D.
    """
    n = model.space.n_points
    measure = None
    if plan is not None:
        cov, samples = plan.covering, plan.samples
        _same_space(model, cov)
        w = weight.w
        top, low = cov.set_extrema(w)
        spread = np.maximum(top / w[samples], w[samples] / low)     # M_i
        measure = np.bincount(samples, spread * cov.measures, minlength=n)
        rho = np.empty(n)
    sums = SchurSums(model.space, weight, measure)
    entry = STRIP_ENTRY_BYTES + sums.entry_bytes
    strips = upper_strips(n, entry)
    pieces = [col_slices(n, entry, rows.start) for rows in strips]
    size = max((rows.stop - rows.start) * (xcols[0].stop - xcols[0].start)
               for rows, xcols in zip(strips, pieces))
    prod, mods = Workspace().views(((size,), complex), ((size,), float))
    left = model.duals.conj().T
    for rows, xcols in zip(strips, pieces):
        for xs in xcols:
            shape = (rows.stop - rows.start, xs.stop - xs.start)
            product = np.matmul(left[rows], model.vectors[:, xs],
                                out=prod[:math.prod(shape)].reshape(shape))
            strip = np.abs(product, out=mods[:product.size].reshape(shape))
            row_sums = sums.add_upper(rows.start, strip, xs)
            if plan is not None and row_sums is not None:
                rho[rows] = row_sums
    norms = sums.norms()
    if plan is None:
        return norms[0], None
    return norms[0], float(max(cov.point_sums(spread * rho[samples]).max(),
                               norms[1]))


def _report(model: FrameModel, cov: Covering, gamma: PhaseFunction,
            weight: Weight2D, delta: float, osc_norm: float,
            r_norm: float) -> OscReport:
    """The budget from the norms of osc and R under ``weight``."""
    c_mu = weight_compatibility(cov, weight)
    sigma = sigma_constant(delta, r_norm, c_mu)
    lhs, inv_ok = invertibility_condition(delta, r_norm, c_mu)
    return OscReport(
        osc_norm=float(osc_norm),
        delta=float(delta),
        sigma=float(sigma),
        r_norm=float(r_norm),
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
                 gamma_rule: str = "kernel", max_rounds: int = 12) -> tuple:
    """Halve the covering width until the oscillation budget is met.

    Starts from a single box spanning the grid and halves the box width each
    round. Succeeds as soon as the oscillation norm is below ``delta`` and
    the invertibility condition holds; an all-singleton covering ends the
    search regardless, since its oscillation vanishes.
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
    r_norm = None
    spans = space.points.max(axis=0) - space.points.min(axis=0)
    width = np.where(spans > 0, spans, 1.0) * 1.0000001 + 1.0

    # Finest usable box width per axis; below it boxes can fall between points.
    spacing = np.array([np.diff(np.unique(c)).min(initial=np.inf)
                        for c in space.points.T])

    for _ in range(max_rounds):
        if np.all(width >= spacing):
            cov = uniform_covering(space, width)
        else:
            cov = singleton_covering(space)
        scan = oscillation_norms(model, cov, gamma, weight, level=delta)
        if isinstance(scan, Screened):
            last = scan
        else:
            if r_norm is None:
                r_norm = kernel_norms(model, weight)[0]
            last = _report(model, cov, gamma, weight, delta, scan, r_norm)
            done = last.oscillation_ok and last.invertibility_ok
            singleton = cov.flat_points.size == cov.n_sets
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
