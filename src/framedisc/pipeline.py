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
from .kernels import Weight2D, row_slices, schur_norms
from .models import FrameModel
from .oscillation import OscReport, make_phase, oscillation_report, refine_until
from .spaces import WeightedLp, pileup


def _unit_random_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return f / np.linalg.norm(f)


def residual_suite(inverse: SamplingInverse, n_trials: int = 50, seed: int = 0,
                   swap_roles: bool = False) -> dict:
    """Reconstruction, duality and norm-equivalence residuals on random vectors.

    All residuals are relative except the duality defect, which is absolute
    against unit-norm inputs; the norm-equivalence ratios are in the
    inverse's Y. The trials run as one (d, n_trials) block of unit vectors,
    drawn one after another from ``seed``.
    """
    rng = np.random.default_rng(seed)
    model, plan, Y = inverse.model, inverse.plan, inverse.Y
    duals = dual_frame(inverse, swap_roles=swap_roles)
    cov = plan.covering
    xs = plan.samples
    f = np.stack([_unit_random_vector(rng, model.dim) for _ in range(n_trials)],
                 axis=1)

    def errors(rec):
        return np.linalg.norm(rec - f, axis=0)

    lam = atomic_decomposition(inverse, f, swap_roles=swap_roles)
    atomic = errors(synthesize_plan(model, plan, lam, swap_roles=swap_roles))

    dual_f = model.s_inverse @ f
    base = model.vectors.conj().T @ (dual_f if swap_roles else f)
    dual_base = model.vectors.conj().T @ (f if swap_roles else dual_f)
    samples = base[xs]
    banach = errors(reconstruct_from_samples(inverse, samples,
                                             swap_roles=swap_roles))

    inner = duals.conj() @ f
    duality = np.max(np.abs(lam - inner), axis=0)
    exp_b = errors(synthesize_plan(model, plan, inner, swap_roles=swap_roles))
    exp_c = errors(duals.T @ samples)

    ny = Y.column_norms(base)
    flat_ratios = Y.column_norms(pileup(samples, cov))[ny > 0] / ny[ny > 0]
    nyd = Y.column_norms(dual_base)
    natural_ratios = Y.column_norms(pileup(inner, cov, natural=True))[nyd > 0] \
        / nyd[nyd > 0]

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


def reproducing_defect(model: FrameModel) -> float:
    """Schur norm of R o R - R, the kernel's failure to be idempotent.

    With R = V* S^{-1} V and S = V W V*, the weighted composition is
    R o R = V* S^{-1} S S^{-1} V, so the defect kernel is
    V* (S^{-1} S S^{-1} - S^{-1}) V: an n^2 d product instead of the
    n^3 dense composition, formed and summed one block of rows at a time.
    """
    g = model.s_inverse
    core = g @ model.frame_operator @ g - g
    blocks = ((rows, np.abs(model.kernel_rows(rows, core)))
              for rows in row_slices(model.space.n_points))
    return schur_norms(model.space, blocks, [None])[0]


def cross_check_inversion(inverse: SamplingInverse, n_trials: int = 20,
                          seed: int = 0) -> float | None:
    """Worst relative Y-norm gap between Neumann and direct inversion,
    or None when the Neumann certificate is unavailable.

    A Neumann ``inverse`` is the Neumann side; otherwise one is built from
    its report, ``tol`` and ``n_max``. The trials run as one block of random
    range functions, one column each.
    """
    model, plan, Y = inverse.model, inverse.plan, inverse.Y
    neu = inverse
    if inverse.method != "neumann":
        try:
            neu = SamplingInverse(model, plan, Y, method="neumann",
                                  tol=inverse.tol, n_max=inverse.n_max,
                                  report=inverse.report)
        except CertificationError:
            return None
    direct = SamplingInverse(model, plan, Y, method="direct")
    rng = np.random.default_rng(seed)
    F = np.stack([model.random_range_function(rng) for _ in range(n_trials)],
                 axis=1)
    nf = Y.column_norms(F)
    F, nf = F[:, nf > 0.0], nf[nf > 0.0]
    gaps = Y.column_norms(neu.apply(F) - direct.apply(F)) / nf
    return float(np.max(gaps, initial=0.0))


@dataclass(frozen=True, eq=False)
class DiscretizationResult:
    """Every certified constant and measured residual of one full run."""

    osc_report: OscReport
    covering_report: dict
    plan_id: str
    sample_indices: list
    contraction_nominal: float
    contraction_sharp: float
    contraction_observed: float
    inversion_method: str
    cross_method_gap: float | None
    residuals: dict
    residuals_swapped: dict
    frame_lower: float
    frame_upper: float
    reproducing_defect: float
    bounds: BoundsReport
    seed: int
    n_trials: int
    schema_version: str = "1"

    def to_json_dict(self) -> dict:
        osc = self.osc_report.to_json_dict()
        return {
            "schema_version": self.schema_version,
            "constants": {
                "delta": osc["delta"],
                "sigma": osc["sigma"],
                "R_norm": osc["R_norm"],
                "osc_norm": osc["osc_norm"],
                "C_mU": osc["C_mU"],
                "N": osc["N"],
                "contraction_bound": self.contraction_nominal,
                "contraction_bound_sharp": self.contraction_sharp,
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
            "covering": self.covering_report,
            "covering_id": osc["covering_id"],
            "plan_id": self.plan_id,
            "samples": self.sample_indices,
            "inversion_method": self.inversion_method,
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
    invertibility condition hold. Raises CertificationError when Neumann
    inversion is requested without a usable certificate.
    """
    if covering is None:
        covering, report = refine_until(model, weight, delta,
                                        gamma_rule=gamma_rule,
                                        max_rounds=refine_max_rounds)
    else:
        gamma = make_phase(model, gamma_rule)
        report = oscillation_report(model, covering, gamma, weight, delta)

    pou = build_pou(covering, pou_kind)
    plan = select_samples(covering, pou, sampling_rule)
    nominal, sharp = contraction_bounds(report)
    observed = observed_contraction(model, plan, Y, seed=seed)

    inverse = SamplingInverse(model, plan, Y, method=method, tol=tol,
                              n_max=n_max, report=report)
    gap = cross_check_inversion(inverse, seed=seed)
    res = residual_suite(inverse, n_trials=n_trials, seed=seed)
    res_sw = residual_suite(inverse, n_trials=n_trials, seed=seed + 1,
                            swap_roles=True)
    c1, c2 = hilbert_frame_bounds(model, plan)
    if report.invertibility_ok and not c1 > 0.0:
        raise CertificationError(
            "certified plan produced a degenerate sampled frame operator"
        )
    bounds = verify_sampled_bounds(model, plan, Y, weight, report,
                                   n_trials=n_trials, seed=seed)
    defect = reproducing_defect(model)

    return DiscretizationResult(
        osc_report=report,
        covering_report=validate_covering(covering).to_json_dict(),
        plan_id=plan.identifier(),
        sample_indices=[int(s) for s in plan.samples],
        contraction_nominal=float(nominal),
        contraction_sharp=float(sharp),
        contraction_observed=float(observed),
        inversion_method=method,
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
