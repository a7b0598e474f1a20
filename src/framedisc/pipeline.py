"""End-to-end discretization runs with a single serializable result."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .coverings import Covering, validate_covering
from .discretize import SamplingInverse, atomic_decomposition, dual_frame, \
    hilbert_frame_bounds, observed_contraction, reconstruct_from_samples, \
    synthesize_sampled
from .errors import CertificationError
from .kernels import Weight2D
from .models import FrameModel, random_vectors
from .oscillation import PhaseFunction, kernel_norms, oscillation_report, \
    refine_until
from .spaces import WeightedLp, local_integrability_constant, pileup_norms, \
    sup_infinity_space


# An observed ratio above its certified constant by more than this is a
# violation (``verification_suite``).
BOUNDS_SLACK = 1e-10


def verification_suite(inverse: SamplingInverse, n_trials: int = 50,
                       seed: int = 0) -> dict:
    """Measure the sampled frame of the inverse's covering in its Y: the
    report's ``residuals`` and ``residuals_swapped`` (``_residuals``, one
    role each), ``bounds`` (each certified constant beside the worst
    observed ratio it dominates, and the count of ``violations`` beyond
    ``BOUNDS_SLACK``) and ``cross_method_gap`` (the worst relative Y-norm
    gap between Neumann and direct inversion, None when the Neumann
    certificate is unavailable).

    Each trial family is drawn once, one call per array
    (``random_vectors``): from ``seed`` the bounds check's range functions,
    which normalized are the unswapped role's trials, then the measure
    trials (``_measure_trials``); from ``seed + 1`` the swapped role's
    trials; from ``seed`` again the cross-check's 20 range functions. No
    trial is formed on the whole grid: V* a is held as a, its samples are
    V[:, x_i]^* a, and each family's pile-ups are normed on the cells
    (``pileup_norms``) before the next family's are formed. Every block the
    inverse inverts (the dual frame's, the decomposition and reconstruction
    inputs of both roles, the cross-check's trials, each ``deferred``) goes
    through one ``invert_coords`` call, each column stopping on its own,
    and the other method's handle (``SamplingInverse.other_method``)
    inverts the cross-check's trials alone. The residual and cross-check
    range functions are normed in Y in one ``range_norms`` call; the bounds
    families run after the residual roles, within their peak, with a call
    for the range functions' Y, sup and L^1_v norms and one for the
    measures' kernel images.

    The constants are taken under the weight m of the handle's report. D
    is the report's bound on the sampled-row constant
    (``oscillation.kernel_norms``), or one R pass here when the report has
    none; sigma' is the report's ``pileup_sigma``, checked whatever osc
    is; the measure constant is |osc| + |R|, and the range-sup constant
    takes the norms of osc and R under m, which bound those under the sup
    space's m_v since m_v <= m (``kernels``).
    """
    model, cov, report = inverse.model, inverse.covering, inverse.report
    rng = np.random.default_rng(seed)
    g = random_vectors(rng, model.dim, n_trials)
    try:
        other = inverse.other_method()
        probes = random_vectors(np.random.default_rng(seed), model.dim, 20)
    except CertificationError:
        other, probes = None, np.empty((model.dim, 0), dtype=complex)

    # each role's decomposition and reconstruction, as the block each
    # inverts and the function that makes its result from the inverse
    roles = []
    for swap, draw in ((False, g), (True, random_vectors(
            np.random.default_rng(seed + 1), model.dim, n_trials))):
        f = draw / np.linalg.norm(draw, axis=0)
        dual_f = model.s_inverse @ f
        roles.append((swap, f, dual_f, atomic_decomposition(
            inverse, f, swap_roles=swap, deferred=True),
            reconstruct_from_samples(inverse, model.vectors[
                :, cov.samples].conj().T @ (dual_f if swap else f),
                swap_roles=swap, deferred=True)))
    dual, *solved, cross = np.split(inverse.invert_coords(np.hstack([
        dual_frame(inverse, deferred=True)[0],
        *(step[0] for *_, atomic, recon in roles for step in (atomic, recon)),
        probes])), np.cumsum([cov.n_sets] + [n_trials] * 4), axis=1)
    gaps = probes if other is None else cross - other.invert_coords(probes)
    ranges = [*(v for _, f, dual_f, *_ in roles for v in (f, dual_f)),
              probes, gaps]
    norms = np.split(inverse.range_norms(np.hstack(ranges)),
                     np.cumsum([a.shape[1] for a in ranges])[:-1])
    residuals = [_residuals(inverse, swap, f, dual_f, dual_frame(
        inverse, swap_roles=swap, deferred=True)[1](dual),
        atomic[1](solved[2 * r]), recon[1](solved[2 * r + 1]),
        *norms[2 * r:2 * r + 2])
        for r, (swap, f, dual_f, atomic, recon) in enumerate(roles)]

    nf, ng = norms[4:]
    d_obs, sig_obs, ratios = _range_bounds(inverse, g)
    measures, masses = _measure_trials(inverse, rng, n_trials)
    applied = inverse.range_norms(model.s_inverse @ measures)
    dec_norms = pileup_norms(inverse.cell_space, masses, cov, natural=True)
    meas_const = report.osc_norm + report.r_norm
    d_const = report.d_const if report.d_const is not None \
        else kernel_norms(model, report.weight, cov)[1]
    pairs = {
        "D": (d_obs, d_const),
        "sigma": (sig_obs, report.pileup_sigma),
        "measure": (np.max(applied[dec_norms > 0.0]
                           / dec_norms[dec_norms > 0.0], initial=0.0),
                    meas_const),
        "range_sup": (ratios["Y_vs_sup_max"], meas_const
                      * local_integrability_constant(cov, inverse.Y,
                                                     report.weight)),
    }
    bounds = {f"{name}_{side}": float(value)
              for name, pair in pairs.items()
              for side, value in zip(("observed", "const"), pair)}
    bounds["transform_norm_ratios"] = ratios
    bounds["violations"] = int(sum(obs > const + BOUNDS_SLACK
                                   for obs, const in pairs.values()))
    gap = None if other is None \
        else float(np.max(ng[nf > 0.0] / nf[nf > 0.0], initial=0.0))
    return {"residuals": residuals[0], "residuals_swapped": residuals[1],
            "bounds": bounds, "cross_method_gap": gap}


def _range_bounds(inverse: SamplingInverse, g: np.ndarray) -> tuple:
    """(D, sigma', ratios) observed on the range functions of coordinates
    g of nonzero Y-norm: the worst flat and phi-weighted pile-ups of their
    samples over their Y-norms, and the two-sided norm ratios between
    L^1_v, Y and the sup space."""
    model, cov, weight = inverse.model, inverse.covering, inverse.report.weight
    sup, l1v, ny = inverse.range_norms(g, [
        sup_infinity_space(inverse.Y, weight),
        WeightedLp(model.space, 1.0, weight.v)])
    keep = ny > 0.0
    g, ny, sup, l1v = g[:, keep], ny[keep], sup[keep], l1v[keep]
    vals = model.vectors[:, cov.samples].conj().T @ g
    d_obs = np.max(pileup_norms(inverse.cell_space, vals, cov) / ny,
                   initial=0.0)
    sig_obs = np.max(pileup_norms(inverse.cell_space, vals, cov,
                                  phi=True) / ny, initial=0.0)
    ratios_1y, ratios_ysup = ny / l1v, sup / ny
    return d_obs, sig_obs, {
        "l1v_vs_Y_max": float(np.max(ratios_1y, initial=0.0)),
        "l1v_vs_Y_min": float(np.min(ratios_1y)) if ratios_1y.size else 0.0,
        "Y_vs_sup_max": float(np.max(ratios_ysup, initial=0.0)),
        "Y_vs_sup_min": float(np.min(ratios_ysup)) if ratios_ysup.size else 0.0,
    }


def _measure_trials(inverse: SamplingInverse, rng: np.random.Generator,
                    n_trials: int) -> tuple:
    """The bounds check's measures sum_k lambda_k delta_{y_k}, drawn in one
    call each: all sizes (1 to n_sets atoms), all atom indices, all
    coefficients. Returns each one's sum_k lambda_k psi_{y_k}, a segment
    sum along each row of V (no (d, total atoms) block is formed), and its
    masses sum_k |lambda_k| over its atoms in each set, one column each."""
    model, cov = inverse.model, inverse.covering
    sizes = rng.integers(1, cov.n_sets + 1, size=n_trials)
    # the values rng.choice(n, size=...) gives, without its extra checks
    points = rng.integers(0, model.space.n_points, size=sizes.sum())
    # the values random_vectors(rng, points.size, 1) gives, formed in place
    coef = np.empty(points.size, dtype=complex)
    coef.real, coef.imag = rng.standard_normal((2, points.size))
    starts, terms = np.cumsum(sizes) - sizes, np.empty_like(coef)
    atoms = np.array([np.add.reduceat(np.multiply(
        np.take(row, points, out=terms), coef, out=terms), starts)
        for row in model.vectors])
    sets, held = cov.holders_of(points)
    trial = np.repeat(np.repeat(np.arange(n_trials), sizes), held)
    masses = np.bincount(sets * n_trials + trial,
                         np.repeat(np.abs(coef), held),
                         minlength=cov.n_sets * n_trials)
    return atoms, masses.reshape(cov.n_sets, n_trials)


def _residuals(inverse: SamplingInverse, swap_roles: bool, f: np.ndarray,
               dual_f: np.ndarray, duals: np.ndarray, lam: np.ndarray,
               rec: np.ndarray, nf: np.ndarray, ndf: np.ndarray) -> dict:
    """One role's reconstruction, duality and norm-equivalence residuals on
    unit vectors f, given S^{-1} f, the dual frame, f's decomposition and
    reconstruction, and the Y-norms of V* f and V* S^{-1} f. All are
    relative except the duality defect, absolute against unit inputs."""
    model, cov = inverse.model, inverse.covering
    # the coordinates of the sampled range function and of its dual
    base, ny, nyd = (dual_f, ndf, nf) if swap_roles else (f, nf, ndf)

    def errors(got):
        return np.linalg.norm(got - f, axis=0)

    atomic = errors(synthesize_sampled(model, cov, lam, swap_roles=swap_roles))
    banach = errors(rec)
    samples = model.vectors[:, cov.samples].conj().T @ base
    inner = duals.conj() @ f
    duality = np.max(np.abs(lam - inner), axis=0)
    exp_b = errors(synthesize_sampled(model, cov, inner, swap_roles=swap_roles))
    exp_c = errors(duals.T @ samples)
    flat_ratios = pileup_norms(inverse.cell_space, samples,
                               cov)[ny > 0] / ny[ny > 0]
    natural_ratios = pileup_norms(inverse.cell_space, inner, cov,
                                  natural=True)[nyd > 0] / nyd[nyd > 0]
    return {
        "atomic_max": float(np.max(atomic)),
        "atomic_mean": float(np.mean(atomic)),
        "banach_max": float(np.max(banach)),
        "banach_mean": float(np.mean(banach)),
        "duality_max": float(np.max(duality)),
        "dual_expansion_max": float(np.max(exp_b)),
        "sample_expansion_max": float(np.max(exp_c)),
        "flat_ratio_lo": float(np.min(flat_ratios)),
        "flat_ratio_hi": float(np.max(flat_ratios)),
        "natural_ratio_lo": float(np.min(natural_ratios)),
        "natural_ratio_hi": float(np.max(natural_ratios)),
    }


def reproducing_defect(model: FrameModel, weight: Weight2D) -> float:
    """Upper bound on the Schur norm of R o R - R under ``weight``, the
    kernel's failure to be idempotent.

    With R = V* S^{-1} V and S = V W V*, the weighted composition is
    R o R = V* S^{-1} S S^{-1} V, so the defect kernel is V* C V with the
    d x d core C = S^{-1} S S^{-1} - S^{-1}. With the SVD C = U Sigma W*
    (not ``eigh``: the computed C is Hermitian only up to rounding),
    |V* C V|(x, y) <= sum_k sigma_k p_k(x) q_k(y) with p_k = |u_k* V| and
    q_k = |w_k* V|. The Schur sums of that majorant are
    sum_k sigma_k p_k(x) (q_k . mu) by rows and sum_k sigma_k q_k(y)
    (p_k . mu) by columns: O(n d) after the d x d work, and no kernel entry
    is formed. Under a non-trivial weight, m(x, y) <= w(x)/w(y) + w(y)/w(x)
    splits the weighted majorant into two rank-d ones, with p_k w, q_k / w
    and p_k / w, q_k w in place of p_k, q_k; w is first divided by its
    maximum, which leaves m alone and keeps every product finite.
    """
    g = model.s_inverse
    u, sigma, wh = np.linalg.svd(g @ model.frame_operator @ g - g)
    p = np.abs(u.conj().T @ model.vectors)
    q = np.abs(wh @ model.vectors)
    mu = model.space.weights
    sp, sq = sigma[:, None] * p, sigma[:, None] * q
    if weight.trivial:
        rows = sp.T @ (q @ mu)
        cols = sq.T @ (p @ mu)
    else:
        w = weight.w / weight.w.max()
        rows = w * (sp.T @ (q @ (mu / w))) + (sp.T @ (q @ (mu * w))) / w
        cols = w * (sq.T @ (p @ (mu / w))) + (sq.T @ (p @ (mu * w))) / w
    return float(max(rows.max(), cols.max()))


@dataclass(frozen=True, eq=False)
class DiscretizationResult:
    """Every certified constant and measured residual of one full run; the
    covering and its samples, the inversion method and the contraction
    bounds are read off the run's ``inverse`` and its report."""

    inverse: SamplingInverse
    contraction_observed: float
    cross_method_gap: float | None
    residuals: dict
    residuals_swapped: dict
    frame_lower: float
    frame_upper: float
    reproducing_defect: float
    bounds: dict
    seed: int
    n_trials: int

    def to_json_dict(self) -> dict:
        report, cov = self.inverse.report, self.inverse.covering
        osc = report.to_json_dict()
        nominal, sharp = report.contraction_bounds
        plan = f"{cov.identifier()}-{'.'.join(map(str, cov.samples))}"
        return {
            "schema_version": "1",
            "constants": {
                "delta": osc["delta"],
                "sigma": osc["sigma"],
                "R_norm": osc["R_norm"],
                "osc_norm": osc["osc_norm"],
                "C_mU": osc["C_mU"],
                "N": osc["N"],
                "contraction_bound": nominal,
                "contraction_bound_sharp": sharp,
                "contraction_observed": self.contraction_observed,
                "C1": self.frame_lower,
                "C2": self.frame_upper,
                "D_const": self.bounds["D_const"],
            },
            "certificates": {
                "holds_D": osc["holds_D"],
                "holds_58": osc["holds_58"],
                "condition_lhs": osc["condition_lhs"],
            },
            "covering": validate_covering(cov),
            "covering_id": osc["covering_id"],
            "plan_id": hashlib.sha256(plan.encode()).hexdigest()[:12],
            "samples": [int(s) for s in cov.samples],
            "inversion_method": self.inverse.method,
            "cross_method_gap": self.cross_method_gap,
            "reproducing_defect": self.reproducing_defect,
            "residuals": self.residuals,
            "residuals_swapped": self.residuals_swapped,
            "bounds": self.bounds,
            "seed": self.seed,
            "n_trials": self.n_trials,
        }


def run_discretization(model: FrameModel, Y: WeightedLp, delta: float,
                       covering: Covering | None = None,
                       gamma_rule: str = "kernel",
                       method: str = "neumann", tol: float = 1e-12,
                       n_max: int = 200, refine_max_rounds: int = 12,
                       n_trials: int = 50, seed: int = 0) -> DiscretizationResult:
    """Full pipeline: covering -> oscillation budget -> inversion -> residuals.

    With ``covering=None`` the covering is refined until the budget and the
    invertibility condition hold. A given covering is refused before any
    pass if it leaves a point out (``Covering.masses``), and its report's R
    pass also gives the bound on its samples' sampled-row constant. The
    checks read the covering, Y, report and S^{-1} S_c off the run's
    inverse. Every weighted norm is taken under Y's own two-point weight
    (``WeightedLp.weight2d``).
    Raises CertificationError when Neumann inversion lacks a usable
    certificate.
    """
    weight = Y.weight2d()
    if covering is None:
        report = refine_until(model, weight, delta, gamma_rule=gamma_rule,
                              max_rounds=refine_max_rounds)
    else:
        covering.masses         # refuses an uncovered covering before any pass
        report = oscillation_report(model, covering,
                                    PhaseFunction(model, gamma_rule), weight,
                                    delta, sampled=True)

    inverse = SamplingInverse(report, Y, method=method, tol=tol, n_max=n_max)
    c1, c2 = hilbert_frame_bounds(model, report.covering)
    if report.invertibility_ok and not c1 > 0.0:
        raise CertificationError(
            "certified covering produced a degenerate sampled frame operator"
        )
    return DiscretizationResult(
        inverse=inverse,
        contraction_observed=observed_contraction(inverse, seed=seed),
        frame_lower=c1,
        frame_upper=c2,
        reproducing_defect=reproducing_defect(model, weight),
        seed=seed,
        n_trials=n_trials,
        **verification_suite(inverse, n_trials=n_trials, seed=seed),
    )
