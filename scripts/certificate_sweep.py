#!/usr/bin/env python3
"""Sweep frequency oversampling of a time-frequency frame and record when the
covering's oscillation budget certifies an invertible sampling operator.

For each frequency count the script builds the frame, covers phase space with
one-time-step by two-frequency-step boxes, measures the oscillation norm, the
largest certifiable budget, and (when certified) the measured contraction and
worst reconstruction residual.

Usage:
    python scripts/certificate_sweep.py [--n-time 6] [--window 2.45]
        [--freqs 41,81,121,161,201] [--output sweep.json]
"""

import argparse
import json
import sys
from dataclasses import replace

from framedisc import PhaseFunction, SamplingInverse, WeightedLp, \
    invertibility_condition, observed_contraction, oscillation_report, \
    uniform_covering, verification_suite
from framedisc.models import build_gabor_model


def max_certifiable_budget(r_norm: float, c_mu: float) -> float:
    """Largest delta with delta (|R| + max{C |R|, |R| + delta}) <= 1.

    The left side is increasing in delta, so bisection finds the crossing
    of the package's condition (``invertibility_condition``).
    """
    lo, hi = 0.0, 1.0 / r_norm
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if invertibility_condition(mid, r_norm, c_mu)[1]:
            lo = mid
        else:
            hi = mid
    return lo


def run_one(n_time: int, n_freq: int, window: float) -> dict:
    model = build_gabor_model(n_time, n_freq, window)
    Y = WeightedLp.lebesgue(model.space, 2.0)
    freq_step = n_time / n_freq
    cov = uniform_covering(model.space, (1.0, 2 * freq_step))
    gamma = PhaseFunction(model, "kernel")

    probe = oscillation_report(model, cov, gamma, Y, delta=1.0)
    budget = max_certifiable_budget(probe.r_norm, probe.c_mu)
    delta = 0.5 * (probe.osc_norm + budget)
    report = replace(probe, delta=delta)
    certified = report.certified

    row = {
        "n_time": n_time,
        "n_freq": n_freq,
        "n_points": model.space.n_points,
        "osc_norm": report.osc_norm,
        "R_norm": report.r_norm,
        "max_budget": budget,
        "delta": delta,
        "certified": certified,
    }
    if certified:
        row["contraction_sharp"] = report.contraction_bounds[1]
        inverse = SamplingInverse(report)
        row["contraction_observed"] = observed_contraction(inverse, seed=0)
        res = verification_suite(inverse, n_trials=10, seed=0)["residuals"]
        row["atomic_residual_max"] = res["atomic_max"]
        row["banach_residual_max"] = res["banach_max"]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-time", type=int, default=6)
    parser.add_argument("--window", type=float, default=2.45)
    parser.add_argument("--freqs", default="41,81,121,161,201")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    rows = []
    header = f"{'n_freq':>7} {'points':>7} {'osc':>8} {'budget':>8} {'cert':>5} " \
             f"{'observed':>9} {'atomic':>9}"
    print(header)
    for n_freq in (int(s) for s in args.freqs.split(",")):
        row = run_one(args.n_time, n_freq, args.window)
        rows.append(row)
        print(f"{row['n_freq']:>7} {row['n_points']:>7} {row['osc_norm']:>8.4f} "
              f"{row['max_budget']:>8.4f} {str(row['certified']):>5} "
              f"{row.get('contraction_observed', float('nan')):>9.2e} "
              f"{row.get('atomic_residual_max', float('nan')):>9.2e}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
