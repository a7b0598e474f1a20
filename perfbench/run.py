#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the framedisc CLI.

Runs one workload's fixed job list through ``framedisc.cli.main`` in this
process, back to back (a closed loop with one client), for as many whole
passes as fit in ``--seconds``, and checks every job's report.

    python3 perfbench/run.py --workload discretize-mid --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
which come from spans recorded around framedisc's public functions (see
``tracing.py``). Each metric is printed as ``name value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Reports, configs, spans and a copy of the result go to
``.bench_out/`` under the checkout root.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5

# Imports numpy, initialises BLAS with one small product, imports the whole
# package, then prints the monotonic clock (shared by all processes).
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
a = np.ones((64, 64))
a @ a
import framedisc, framedisc.cli
print(repr(time.monotonic()))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_s.p50": "s",
    "job_s.max": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}


# One BLAS thread. On a shared 2-core machine a second OpenBLAS thread
# doubled cpu_s, left wall_s unchanged within noise, and doubled the
# run-to-run spread of wall_s (see README.md), so it only made runs noisier.
BLAS_THREADS = 1


def configure_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import framedisc from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "framedisc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no framedisc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import framedisc.cli
    if Path(framedisc.__file__).resolve().parent != SRC / "framedisc":
        raise ImportError(f"framedisc imported from {framedisc.__file__}")
    return framedisc.cli


def measure_setup(samples: int = SETUP_SAMPLES) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to run jobs."""
    times = []
    for _ in range(samples):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def _blas_runtime() -> dict:
    """Library, version and thread count of the BLAS numpy actually loaded."""
    import ctypes
    import numpy as np
    info = {"blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["blas_config"] = config().decode()
                return info
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "framedisc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():    # not a git checkout of its own
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp() -> dict:
    import numpy as np
    stamp = {"nproc": len(os.sched_getaffinity(0)),
             "numpy": np.__version__,
             "python": platform.python_version(),
             "git_commit": _git_commit(),
             "src_sha256": _source_digest()}
    stamp.update(_blas_runtime())
    return stamp


def _run_job(cli, job, config: Path, report: Path) -> tuple:
    """One CLI call: (exit code, wall seconds, CPU seconds)."""
    report.unlink(missing_ok=True)
    # Free the previous job's reference cycles first, so every job starts
    # from a clean heap, as it would in a fresh CLI process.
    gc.collect()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = cli.main([job.command, "--config", str(config), "--output", str(report)])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - t0, _cpu_seconds() - cpu0


def run_pass(cli, jobs, workdir: Path, reference: dict, tracer=None) -> dict:
    """Run every job once, time each call, then check every report.

    With a tracer each job runs twice back to back, untraced and then
    traced, so both timings see the machine in the same state and their
    difference is the cost of tracing, not drift of a shared host.
    """
    runs = []                   # (job, report, rc, wall, cpu, traced)
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        config, report = workdir / f"job-{i}.json", workdir / f"report-{i}.json"
        runs.append((job, report, *_run_job(cli, job, config, report), False))
        if tracer is not None:
            tracer.job = job.name
            report = workdir / f"report-{i}-traced.json"
            tracer.install()
            try:
                runs.append((job, report, *_run_job(cli, job, config, report), True))
            finally:
                tracer.uninstall()
    wall = time.perf_counter() - start

    failed, report_bytes, compression = 0, 0, []
    for job, report, rc, _, _, traced in runs:
        try:
            doc = None
            if report.is_file():
                with open(report, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            problems = workloads.check_report(job, rc, doc, reference)
            if doc is not None and not traced:
                report_bytes += report.stat().st_size
                n_sets = doc["n_sets"] if job.command == "osc" else len(doc["samples"])
                compression.append(n_sets / job.n_points)
        except (ValueError, KeyError, TypeError) as exc:   # malformed report
            problems = [f"malformed report: {exc!r}"]
        if problems:
            failed += 1
            print(f"FAILED {job.name}: {'; '.join(problems)}", file=sys.stderr)
    plain = [r for r in runs if not r[5]]
    return {"wall_s": wall,
            "job_s": [r[3] for r in plain], "job_cpu_s": [r[4] for r in plain],
            "traced_job_s": [r[3] for r in runs if r[5]],
            "attempted": len(runs), "failed": failed,
            "report_bytes": report_bytes, "compression": compression}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def per_job_best(passes: list, key: str) -> list:
    """Each job's least value, over the passes, of the per-job list ``key``."""
    return [min(vals) for vals in zip(*(p[key] for p in passes))]


def run_benchmark(cli, jobs, seconds: float, trace: bool, workdir: Path,
                  reference: dict, spans_path: Path | None = None) -> tuple:
    """Measure the job list for about ``seconds``.

    Returns the result object that ends the output and the run's shape
    (jobs per pass, each pass's wall time, each job's times).

    Times are taken per job: ``wall_s`` and ``cpu_s`` are the sums over
    the jobs of each job's least time over the passes. Every job is
    deterministic, so what varies between its passes is interference from
    other work on a shared machine, which only ever adds time; slow spells
    there last from seconds to tens of seconds, and the least time per job
    rejects them where a median of passes or of jobs does not (README.md).

    Another pass starts while at least half of one (by the median so far)
    fits in the budget, so a run overshoots ``seconds`` by at most half a
    pass; at least one pass runs. When tracing, every pass runs each job
    untraced and then traced (``run_pass``).
    """
    import tracing

    workdir.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        with open(workdir / f"job-{i}.json", "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)

    passes = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace else None
        passes.append(run_pass(cli, jobs, workdir, reference, tracer))
        if trace:
            last = passes[-1]
            last["layers"] = tracer.layer_metrics(
                sum(last["traced_job_s"]), last["report_bytes"], last["compression"])
        step = statistics.median([p["wall_s"] for p in passes])
        if time.perf_counter() - start + step / 2 > seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        functions = tracer.function_table()
        if spans_path is not None:
            tracer.write_spans(spans_path)
            with open(spans_path.with_suffix(".functions.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(functions, fh, indent=1, sort_keys=True)
        top = sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        units = {}
        metrics = {}
        for name, (_, unit) in passes[-1]["layers"].items():
            # median_low keeps counts integral: it returns one measured value
            metrics[name] = statistics.median_low([p["layers"][name][0]
                                                   for p in passes])
            units[name] = unit
        metrics["trace.overhead_s"] = (sum(per_job_best(passes, "traced_job_s"))
                                       - sum(per_job_best(passes, "job_s")))
        units["trace.overhead_s"] = "s"
    else:
        units = dict(END_TO_END_UNITS)
        job_s = per_job_best(passes, "job_s")
        metrics = {
            "wall_s": sum(job_s),
            "cpu_s": sum(per_job_best(passes, "job_cpu_s")),
            "job_s.p50": statistics.median(job_s),
            "job_s.max": max(job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    shape = {"jobs_per_pass": len(jobs),
             "pass_wall_s": [p["wall_s"] for p in passes],
             "job_s": {job.name: [p["job_s"][i] for p in passes]
                       for i, job in enumerate(jobs)}}
    if trace:
        shape["top_self_s"] = {name: row["self_s"] for name, row in top}
    return result, shape


def main(argv=None, jobs=None) -> int:
    """Command-line entry; ``jobs`` replaces the workload's own job list."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configure_blas()
    try:
        cli = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    # Half the set-up samples before the jobs and half after, so they see
    # the machine at two times.
    setup = [] if args.trace else measure_setup()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    if jobs is None:
        jobs = workloads.make_jobs(args.workload, args.seed)
    result, shape = run_benchmark(cli, jobs, args.seconds, bool(args.trace),
                                  workdir, workloads.load_reference(),
                                  spans_path=OUT / f"spans-{tag}.jsonl")
    if not args.trace:
        setup += measure_setup()
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}

    stamp = environment_stamp()
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup_samples_s": setup, "environment": stamp,
                   **shape, "result": result}, fh, indent=1, sort_keys=True)
    print(f"environment {json.dumps(stamp, sort_keys=True)}")
    print(f"workload {args.workload}: {len(shape['pass_wall_s'])} pass(es) of "
          f"{shape['jobs_per_pass']} jobs, {result['attempted']} jobs attempted, "
          f"{result['failed']} failed (fail_frac "
          f"{result['failed'] / result['attempted']:.4f})")
    if args.trace:
        print("no layer queues or waits: one process runs the jobs back to back")
        print("largest self times (last traced pass): " + ", ".join(
            f"{name} {sec:.3f} s" for name, sec in shape["top_self_s"].items()))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
