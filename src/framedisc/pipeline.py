"""End-to-end discretization runs with a single serializable result."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, build_pou, validate_covering
from .discretize import BoundsReport, SamplingInverse, atomic_decomposition, \
    contraction_bounds, dual_frame, hilbert_frame_bounds, observed_contraction, \
    reconstruct_from_samples, select_samples, synthesize_plan, \
    verify_sampled_bounds
from .errors import CertificationError
from .kernels import Weight2D
from .models import FrameModel, random_vectors
from .oscillation import PhaseFunction, oscillation_report, refine_until
from .spaces import WeightedLp, pileup_norms


def residual_suite(inverse: SamplingInverse, n_trials: int = 50, seed: int = 0,
                   swap_roles: bool = False) -> dict:
    """Reconstruction, duality and norm-equivalence residuals on random vectors.

    All residuals are relative except the duality defect, which is absolute
    against unit-norm inputs; the norm-equivalence ratios are in the
    inverse's Y. The trials run as one (d, n_trials) block of unit vectors,
    drawn in one call from ``seed`` (``random_vectors``). No trial is formed
    on the whole grid: the range functions V* a are held as their
    coordinates a, whose Y-norms come through the handle (``range_norms``),
    the sample values are V[:, x_i]^* a, and the pile-ups are normed on
    the plan's cells (``pileup_norms``).
    """
    rng = np.random.default_rng(seed)
    model, plan = inverse.model, inverse.plan
    duals = dual_frame(inverse, swap_roles=swap_roles)
    xs = plan.samples
    f = random_vectors(rng, model.dim, n_trials)
    f /= np.linalg.norm(f, axis=0)

    def errors(rec):
        return np.linalg.norm(rec - f, axis=0)

    lam = atomic_decomposition(inverse, f, swap_roles=swap_roles)
    atomic = errors(synthesize_plan(model, plan, lam, swap_roles=swap_roles))

    dual_f = model.s_inverse @ f
    # the coordinates of the sampled range function and of its dual
    base, dual_base = (dual_f, f) if swap_roles else (f, dual_f)
    samples = model.vectors[:, xs].conj().T @ base
    banach = errors(reconstruct_from_samples(inverse, samples,
                                             swap_roles=swap_roles))

    inner = duals.conj() @ f
    duality = np.max(np.abs(lam - inner), axis=0)
    exp_b = errors(synthesize_plan(model, plan, inner, swap_roles=swap_roles))
    exp_c = errors(duals.T @ samples)

    ny = inverse.range_norms(base)
    flat_ratios = pileup_norms(inverse.cell_space, samples, plan.pou)[ny > 0] \
        / ny[ny > 0]
    nyd = inverse.range_norms(dual_base)
    natural_ratios = pileup_norms(inverse.cell_space, inner, plan.pou,
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


def cross_check_inversion(inverse: SamplingInverse,
                          seed: int = 0) -> float | None:
    """Worst relative Y-norm gap between Neumann and direct inversion,
    or None when the Neumann certificate is unavailable.

    ``inverse`` is the side of its own method; the other side is built
    from it (``SamplingInverse.other_method``: a Neumann one from its
    report, ``tol`` and ``n_max``), on the same S^{-1} S_c and Y-norm
    constants. The trials are 20 random range functions, one per column of
    a block of coordinates (``random_vectors``), inverted and measured in
    coordinates (``invert_coords``, ``range_norms``).
    """
    model = inverse.model
    try:
        other = inverse.other_method()
    except CertificationError:
        return None
    neu, direct = (inverse, other) if inverse.method == "neumann" \
        else (other, inverse)
    rng = np.random.default_rng(seed)
    g = random_vectors(rng, model.dim, 20)
    nf = inverse.range_norms(g)
    g, nf = g[:, nf > 0.0], nf[nf > 0.0]
    gaps = inverse.range_norms(neu.invert_coords(g) - direct.invert_coords(g)) \
        / nf
    return float(np.max(gaps, initial=0.0))


@dataclass(frozen=True, eq=False)
class DiscretizationResult:
    """Every certified constant and measured residual of one full run; the
    covering, the plan, the inversion method and the contraction bounds are
    read off the run's ``inverse`` and its report."""

    inverse: SamplingInverse
    contraction_observed: float
    cross_method_gap: float | None
    residuals: dict
    residuals_swapped: dict
    frame_lower: float
    frame_upper: float
    reproducing_defect: float
    bounds: BoundsReport
    seed: int
    n_trials: int

    def to_json_dict(self) -> dict:
        report, plan = self.inverse.report, self.inverse.plan
        osc = report.to_json_dict()
        nominal, sharp = contraction_bounds(report)
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
                "D_const": self.bounds.sampled_flat_constant,
            },
            "certificates": {
                "holds_D": osc["holds_D"],
                "holds_58": osc["holds_58"],
                "condition_lhs": osc["condition_lhs"],
            },
            "covering": validate_covering(plan.covering).to_json_dict(),
            "covering_id": osc["covering_id"],
            "plan_id": plan.identifier(),
            "samples": [int(s) for s in plan.samples],
            "inversion_method": self.inverse.method,
            "cross_method_gap": self.cross_method_gap,
            "reproducing_defect": self.reproducing_defect,
            "residuals": self.residuals,
            "residuals_swapped": self.residuals_swapped,
            "bounds": self.bounds.to_json_dict(),
            "seed": self.seed,
            "n_trials": self.n_trials,
        }


def run_discretization(model: FrameModel, Y: WeightedLp, weight: Weight2D,
                       delta: float, covering: Covering | None = None,
                       gamma_rule: str = "kernel", pou_kind: str = "flat",
                       sampling_rule: str = "max_weight",
                       method: str = "neumann", tol: float = 1e-12,
                       n_max: int = 200, refine_max_rounds: int = 12,
                       n_trials: int = 50, seed: int = 0) -> DiscretizationResult:
    """Full pipeline: covering -> oscillation budget -> inversion -> residuals.

    With ``covering=None`` the covering is refined until the budget and the
    invertibility condition hold. A given covering's plan is built before
    its oscillation report, whose R pass then also gives the plan's
    sampled-row constant under a trivial weight. The checks read the plan,
    Y, report and S^{-1} S_c off the run's inverse. Raises
    CertificationError when Neumann inversion lacks a usable certificate.
    """
    report = None
    if covering is None:
        covering, report = refine_until(model, weight, delta,
                                        gamma_rule=gamma_rule,
                                        max_rounds=refine_max_rounds)
    plan = select_samples(build_pou(covering, pou_kind), sampling_rule)
    if report is None:
        report = oscillation_report(model, covering,
                                    PhaseFunction(model, gamma_rule), weight,
                                    delta, plan=plan)

    inverse = SamplingInverse(model, plan, Y, method=method, tol=tol,
                              n_max=n_max, report=report)
    observed = observed_contraction(inverse, seed=seed)
    gap = cross_check_inversion(inverse, seed=seed)
    res = residual_suite(inverse, n_trials=n_trials, seed=seed)
    res_sw = residual_suite(inverse, n_trials=n_trials, seed=seed + 1,
                            swap_roles=True)
    c1, c2 = hilbert_frame_bounds(model, plan)
    if report.invertibility_ok and not c1 > 0.0:
        raise CertificationError(
            "certified plan produced a degenerate sampled frame operator"
        )
    bounds = verify_sampled_bounds(inverse, n_trials=n_trials, seed=seed)
    defect = reproducing_defect(model, weight)

    return DiscretizationResult(
        inverse=inverse,
        contraction_observed=float(observed),
        cross_method_gap=gap,
        residuals=res,
        residuals_swapped=res_sw,
        frame_lower=c1,
        frame_upper=c2,
        reproducing_defect=float(defect),
        bounds=bounds,
        seed=seed,
        n_trials=n_trials,
    )
