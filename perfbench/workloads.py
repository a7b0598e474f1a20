"""Job lists of the three benchmark workloads.

A job is one ``framedisc`` CLI invocation: a subcommand, a flat JSON config
written by the benchmark, and the invariants its report must satisfy. Every
input is generated here from the workload seed; the program under test only
ever sees the config files.

Coverings are passed as explicit ``covering-sets`` built from the grid
layout of the Gabor model (point ``t * n_freq + j`` sits at time ``t`` and
frequency ``j * n_time / n_freq``), because the scalar ``covering-width``
cannot express a box that is one time step by ``k`` frequency steps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Trial seeds for which every discretize config below was run at the commit
# that introduced the benchmark and passed all of its checks. The workload
# seed chooses among them, so no seed can pick a run that fails for reasons
# unrelated to a code change.
CHECKED_TRIAL_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)

# Relative tolerance on the certificate constants of fixed-covering jobs.
REFERENCE_RTOL = 1e-9
REFERENCE_KEYS = ("osc_norm", "R_norm", "C_mU", "condition_lhs")


@dataclass
class Job:
    """One CLI call and how to judge its report."""

    name: str
    command: str                      # "osc" or "discretize"
    config: dict
    n_points: int
    fixed_covering: bool


def box_sets(n_time: int, n_freq: int, k: int) -> list:
    """Sets of one time step by ``k`` frequency steps, time-major order."""
    return [[t * n_freq + j for j in range(m, min(m + k, n_freq))]
            for t in range(n_time) for m in range(0, n_freq, k)]


def gabor_config(n_time: int, n_freq: int, window: float, **extra) -> dict:
    cfg = {"model-kind": "gabor", "n-time": n_time, "n-freq": n_freq,
           "window-width": window}
    cfg.update(extra)
    return cfg


def _fixed_discretize(label: str, n_time: int, n_freq: int, window: float,
                      k: int, p, delta: float, trial_seed: int, **extra) -> Job:
    cfg = gabor_config(n_time, n_freq, window, p=p, delta=delta,
                       **{"covering-sets": box_sets(n_time, n_freq, k),
                          "n-trials": 50, "seed": trial_seed}, **extra)
    return Job(label, "discretize", cfg, n_time * n_freq, fixed_covering=True)


# The acceptance suite's certified Gabor grids:
# (n_time, n_freq, window, frequency steps per box, p, delta).
MID_GRIDS = (
    (6, 161, 2.45, 2, 2, 0.20),
    (6, 191, 2.45, 2, 1, 0.18),
    (8, 191, 2.83, 2, 2, 0.21),
    (6, 255, 2.45, 3, "inf", 0.21),
)

REFINE_GRIDS = ((6, 81), (6, 121))

SWEEP_FREQS = (61, 81, 101, 121)
SWEEP_PS = (1, 2, "inf")


def _label(prefix: str, n_time: int, n_freq: int, p=None) -> str:
    return f"{prefix}-{n_time}x{n_freq}" + ("" if p is None else f"-p{p}")


def discretize_mid(trial_seed: int) -> list:
    return [_fixed_discretize(_label("mid", nt, nf, p), nt, nf, w, k, p, d,
                              trial_seed)
            for nt, nf, w, k, p, d in MID_GRIDS]


def refine_osc() -> list:
    return [Job(_label("refine", nt, nf), "osc",
                gabor_config(nt, nf, 2.45, delta=0.2), nt * nf,
                fixed_covering=False)
            for nt, nf in REFINE_GRIDS]


def sweep_weighted(trial_seed: int) -> list:
    return [_fixed_discretize(_label("sweep", 4, nf, p), 4, nf, 2.0, 2, p, 0.25,
                              trial_seed, **{"weight-rule": "exp",
                                             "weight-scale": 0.02})
            for nf in SWEEP_FREQS for p in SWEEP_PS]


WORKLOADS = ("discretize-mid", "refine-osc", "sweep-weighted")


def make_jobs(workload: str, seed: int) -> list:
    """The workload's fixed job list, ordered and parametrized by ``seed``."""
    rng = random.Random(seed)
    trial_seed = rng.choice(CHECKED_TRIAL_SEEDS)
    if workload == "discretize-mid":
        jobs = discretize_mid(trial_seed)
    elif workload == "refine-osc":
        jobs = refine_osc()
    elif workload == "sweep-weighted":
        jobs = sweep_weighted(trial_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    return abs(got - want) <= REFERENCE_RTOL * max(abs(want), 1e-300)


def check_report(job: Job, rc, doc, reference: dict) -> list:
    """Reasons the job's result is wrong; empty when it passes.

    Every job must exit 0 and hold both certificates. ``discretize`` jobs
    must also pass every residual check and show no bound violation, and
    fixed-covering jobs must reproduce the reference constants. Jobs that
    refine their covering are held only to invariants a better refinement
    keeps: the certificate holds and the covering has no more sets than
    points.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if doc is None:
        return ["no report written"]
    problems = []
    if job.command == "discretize":
        consts, certs = doc["constants"], doc["certificates"]
        if doc["failing_checks"]:
            problems.append(f"failing checks {doc['failing_checks']}")
        if doc["bounds"]["violations"] != 0:
            problems.append(f"{doc['bounds']['violations']} bound violations")
        n_sets = len(doc["samples"])
        values = dict(consts, condition_lhs=certs["condition_lhs"])
    else:                                   # an osc report is flat
        certs = values = doc
        n_sets = doc["n_sets"]
    if not (certs["holds_D"] and certs["holds_58"]):
        problems.append("certificate does not hold")
    if not 1 <= n_sets <= job.n_points:
        problems.append(f"{n_sets} sets for {job.n_points} points")
    if job.fixed_covering:
        want = reference[job.name]
        for key in REFERENCE_KEYS:
            if not _close(values[key], want[key]):
                problems.append(f"{key} {values[key]!r} != reference {want[key]!r}")
    return problems
