"""Frozen `discretize` reports: one small weighted run per exponent and
one unit-weight run.

``golden_reports.json`` holds the certificate constants and the observed
bound ratios of a Gabor 4 x 61 model (window 2.0, exponential weight 0.02,
boxes of one time step by two frequency steps, delta 0.25, 20 trials, seed
0) for p = 1, 2 and inf, as written by the dense loop-per-trial harness
that preceded the analysis-coordinate one. The entry ``unit-2`` is a Gabor
6 x 161 model (window 2.45, unit weight, boxes of one time step by two
frequency steps, delta 0.2, p = 2, 20 trials, seed 0), written by the
harness that read the unit-weight sampled-row constant off the sample rows
of R, before that constant came from the oscillation report's R pass. The
constants and the observed ratios do not depend on how the harness is
organised, so they must match to 1e-12 relative; the residuals are rounding
noise and only have to stay under their configured limits.
"""

import json
from pathlib import Path

import pytest

from framedisc.cli import DEFAULTS, EXIT_OK, main

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())

RTOL = 1e-12


def box_sets(n_time, n_freq, k):
    return [[t * n_freq + j for j in range(m, min(m + k, n_freq))]
            for t in range(n_time) for m in range(0, n_freq, k)]


def flatten(prefix, doc, into):
    for key, val in doc.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(val, dict):
            flatten(name, val, into)
        else:
            into[name] = val
    return into


def config(key):
    """The run behind the golden entry ``key``."""
    if key == "unit-2":
        return {"model-kind": "gabor", "n-time": 6, "n-freq": 161,
                "window-width": 2.45, "weight-rule": "one", "p": 2,
                "delta": 0.2, "covering-sets": box_sets(6, 161, 2),
                "n-trials": 20, "seed": 0}
    return {"model-kind": "gabor", "n-time": 4, "n-freq": 61, "window-width": 2.0,
            "weight-rule": "exp", "weight-scale": 0.02,
            "p": key if key == "inf" else int(key), "delta": 0.25,
            "covering-sets": box_sets(4, 61, 2), "n-trials": 20, "seed": 0}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def report(request, tmp_path_factory):
    key = request.param
    tmp = tmp_path_factory.mktemp(f"golden-{key}")
    (tmp / "cfg.json").write_text(json.dumps(config(key)))
    out = tmp / "report.json"
    code = main(["discretize", "--config", str(tmp / "cfg.json"),
                 "--output", str(out)])
    return key, code, json.loads(out.read_text())


def test_constants_and_observed_ratios_match(report):
    key, code, doc = report
    want = GOLDEN[key]
    assert code == EXIT_OK
    assert doc["covering_id"] == want["covering_id"]
    got = flatten("", {
        "constants": doc["constants"],
        "condition_lhs": doc["certificates"]["condition_lhs"],
        "bounds": {k: v for k, v in doc["bounds"].items() if k != "violations"},
        "residual_ratios": {k: doc["residuals"][k] for k in want["residual_ratios"]},
        "residual_ratios_swapped": {k: doc["residuals_swapped"][k]
                                    for k in want["residual_ratios_swapped"]},
    }, {})
    expected = flatten("", {k: v for k, v in want.items() if k != "covering_id"}, {})
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, rel=RTOL, abs=0.0), name


def test_rounding_level_residuals_within_limits(report):
    _, _, doc = report
    assert doc["bounds"]["violations"] == 0
    assert doc["failing_checks"] == []
    for key in ("residuals", "residuals_swapped"):
        res = doc[key]
        assert res["atomic_max"] <= DEFAULTS["tol-atomic"]
        assert res["banach_max"] <= DEFAULTS["tol-banach"]
        assert res["duality_max"] <= DEFAULTS["tol-duality"]
    assert doc["cross_method_gap"] <= DEFAULTS["tol-cross"]
    assert doc["reproducing_defect"] <= 1e-12
