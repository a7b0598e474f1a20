"""Phase-corrected oscillation of the reproducing kernel over a covering.

For a covering with neighborhoods Q_y and a unimodular phase Gamma, the
oscillation kernel is

    osc(x, y) = max over z in Q_y of |R(x, y) - Gamma(y, z) R(x, z)|,

computed by exact enumeration. Its Schur norm against the target weight is
the budget that certifies invertibility of the sampling operator: with
sigma = max{C_mU |R|, |R| + delta}, the sufficient condition reads
delta (|R| + sigma) <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, singleton_covering, uniform_covering, \
    weight_compatibility
from .errors import CertificationError, StructuralError
from .kernels import Weight2D, schur_norm
from .models import FrameModel
from .quadrature import QuadratureSpace


# |R| <= PHASE_EPS carries no usable phase; the kernel rule uses phase one there.
PHASE_EPS = 1e-12


class PhaseFunction:
    """Unimodular phase Gamma(y, z); ``gamma(y, z)`` reads it at index arrays
    broadcast together. ``make_phase`` builds the rules ``one`` (the constant
    phase, plain kernel oscillation) and ``kernel`` (Gamma(y, z) = R(z, y)/
    |R(z, y)|, which cancels the kernel's own rotation and typically shrinks
    the oscillation norm); both are read off the kernel, with no n x n table.
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
    """A built-in rule, evaluated from the model's kernel on demand."""

    def __init__(self, model: FrameModel, rule: str):
        self.space = model.space
        self.rule = rule
        self._model = model

    def __call__(self, y, z) -> np.ndarray:
        if self.rule == "one":
            return np.ones(np.broadcast(y, z).shape, dtype=complex)
        r = self._model.kernel[z, y]
        mag = np.abs(r)
        big = mag > PHASE_EPS
        # phase one on the diagonal: R(y, y) is a positive quadratic form
        return np.where(big & (y != z), r / np.where(big, mag, 1.0), 1.0)


def make_phase(model: FrameModel, rule: str) -> PhaseFunction:
    if rule not in ("one", "kernel"):
        raise StructuralError(f"unknown phase rule {rule!r}")
    return _RulePhase(model, rule)


# Relative margin of refine_until's screening level delta * (1 + SCREEN_MARGIN).
# The one-column dot in oscillation_kernel and the matrix-vector product in
# schur_norm add the same nonnegative terms in different orders, which moves
# a sum by at most about n * eps (below 5e-13 for n <= 4096). A column sum at
# or above the level therefore proves osc_norm > delta, so the screen rejects
# exactly the rounds whose full report would fail the budget.
SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class Screened:
    """An oscillation scan stopped at ``column``, whose weighted Schur
    column sum ``lower_bound`` bounds the oscillation norm from below."""

    column: int
    lower_bound: float


def oscillation_kernel(model: FrameModel, cov: Covering, gamma: PhaseFunction,
                       stop: tuple[Weight2D, float] | None = None
                       ) -> np.ndarray | Screened:
    """Exact sup over the finite neighborhoods; nonnegative real kernel.

    Columns osc(., y) are computed in index order. With ``stop = (weight,
    level)`` each column's weighted Schur sum sum_x mu_x osc(x, y) m(x, y) is
    formed as well, and the scan returns ``Screened`` at the first column
    whose sum reaches ``level``: the Schur norm is at least that sum, so the
    columns left cannot bring it below ``level``.
    """
    if cov.space is not model.space and cov.space.n_points != model.space.n_points:
        raise StructuralError("covering lives on a different space")
    r = model.kernel
    n = model.space.n_points
    out = np.empty((n, n))
    if stop is not None:
        weight, level = stop
        mu = model.space.weights
        trivial = weight.trivial
    for y in range(n):
        zs = cov.q_neighborhood(y)
        diffs = np.abs(r[:, [y]] - r[:, zs] * gamma(y, zs)[None, :])
        col = diffs.max(axis=1)
        out[:, y] = col
        if stop is not None:
            if not trivial:
                col = col * weight.block(slice(None), [y])[:, 0]
            total = float(mu @ col)
            if total >= level:
                return Screened(y, total)
    return out


def sigma_constant(delta: float, r_norm: float, c_mu: float) -> float:
    """sigma = max{C_mU |R|, |R| + delta}."""
    return max(c_mu * r_norm, r_norm + delta)


def invertibility_condition(delta: float, r_norm: float, c_mu: float) -> tuple:
    """LHS and truth of delta (|R| + max{C_mU |R|, |R| + delta}) <= 1."""
    lhs = delta * (r_norm + sigma_constant(delta, r_norm, c_mu))
    return lhs, bool(lhs <= 1.0)


@dataclass(frozen=True, eq=False)
class OscReport:
    """Snapshot of the oscillation budget for one covering/phase/weight."""

    osc: np.ndarray          # the oscillation kernel itself (not serialized)
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
    return _report(model, cov, gamma, weight, delta,
                   oscillation_kernel(model, cov, gamma))


def _report(model: FrameModel, cov: Covering, gamma: PhaseFunction,
            weight: Weight2D, delta: float, osc: np.ndarray) -> OscReport:
    """The budget from ``osc``, this covering's kernel under ``gamma``."""
    osc_norm = schur_norm(model.space, osc, weight)
    r_norm = schur_norm(model.space, model.kernel, weight)
    c_mu = weight_compatibility(cov, weight)
    sigma = sigma_constant(delta, r_norm, c_mu)
    lhs, inv_ok = invertibility_condition(delta, r_norm, c_mu)
    return OscReport(
        osc=osc,
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
    Each round's kernel is screened column by column: a round is rejected,
    with no report, at the first column whose weighted Schur sum proves the
    norm above ``delta``. Rounds that get through the screen are reported
    from the kernel already computed, so the returned report is the one
    ``oscillation_report`` gives for that covering.
    Raises CertificationError when ``max_rounds`` is exhausted first.
    """
    if delta <= 0:
        raise StructuralError("delta must be positive")
    if max_rounds < 1:
        raise StructuralError("max_rounds must be at least 1")
    space = model.space
    gamma = make_phase(model, gamma_rule)
    stop = (weight, delta * (1.0 + SCREEN_MARGIN))
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
        scan = oscillation_kernel(model, cov, gamma, stop=stop)
        if isinstance(scan, Screened):
            last = scan
        else:
            last = _report(model, cov, gamma, weight, delta, scan)
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
