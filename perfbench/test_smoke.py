"""Smoke test of the benchmark itself on two tiny jobs.

One job certifies (a singleton covering of an 8 x 8 Gabor grid); the other
is refused, because a single set covering the whole grid has no contraction
certificate and ``discretize`` exits 3. The test checks that every metric
named in BENCHMARK.json prints with its unit, in both modes, that the
refused job is counted as failed, and that an unreadable report is a
failed job rather than a crash.

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_jobs() -> list:
    base = workloads.gabor_config(8, 8, 2.83, delta=0.22, **{"n-trials": 3})
    good = dict(base, **{"covering-sets": [[i] for i in range(64)]})
    refused = dict(base, **{"covering-sets": [list(range(64))]})
    return [workloads.Job("tiny-singleton", "discretize", good, 64, False),
            workloads.Job("tiny-refused", "discretize", refused, 64, False)]


def run_tiny(trace: int) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "sweep-weighted", "--seed", "-1",
                         "--seconds", "0.01", "--trace", str(trace)],
                        jobs=tiny_jobs())
    assert code == 0
    return out.getvalue().splitlines()


def check_metrics(lines: list, spec: list) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        assert printed.get(name) == unit, (name, printed.get(name))
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in spec}
    return result


def test_end_to_end_metrics_and_refused_job():
    result = check_metrics(run_tiny(0), SPEC["end_to_end"])
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_per_layer_metrics_and_refused_job():
    result = check_metrics(run_tiny(1), SPEC["per_layer"])
    # each job runs untraced and then traced: two refused runs
    assert result["attempted"] == 4 and result["failed"] == 2
    metrics = result["metrics"]
    # the refusal leaves run_discretization and cmd_discretize; main maps it
    # to exit code 3
    assert metrics["pipeline.errors"]["value"] == 1
    assert metrics["cli.errors"]["value"] == 1
    assert metrics["pipeline.calls"]["value"] > 0
    assert metrics["oscillation.refine_rounds"]["value"] == 0


def test_malformed_report_is_a_failed_job(tmp_path):
    def write_garbage(argv):
        Path(argv[argv.index("--output") + 1]).write_text("{", encoding="utf-8")
        return 0

    fake_cli = types.SimpleNamespace(main=write_garbage)
    outcome = run.run_pass(fake_cli, tiny_jobs()[:1], tmp_path, {})
    assert outcome["attempted"] == 1 and outcome["failed"] == 1


if __name__ == "__main__":
    import tempfile
    test_end_to_end_metrics_and_refused_job()
    test_per_layer_metrics_and_refused_job()
    with tempfile.TemporaryDirectory() as tmp:
        test_malformed_report_is_a_failed_job(Path(tmp))
    print("smoke test passed")
