"""Span recorder that wraps framedisc's public functions from outside.

``Tracer.install`` replaces every public function, public method, class
method, constructor and cached property defined in the nine framedisc
modules with a wrapper that records one span per call: name, start, end,
parent span, job id, and whether an exception left the call. Modules bind
each other's names with ``from .x import y``, so the wrapper is set in every
``framedisc`` namespace that holds the original object, not only in the
module that defines it. ``uninstall`` puts every original back.

Spans stay in memory and are written out once, after the traced pass. A
span's self time is its duration minus the durations of its direct children.
A few counts are taken at the same boundaries (see ``_HOOKS``); those marked
"computed" are derived from array shapes and repeat exactly for a given
program and job list.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "kernels", "coverings", "spaces", "models",
          "oscillation", "discretize", "pipeline", "cli")

# Calls of run_discretization's own verification steps: the residual suite,
# the Neumann/direct cross-check, the sampled-bound checks, the observed
# contraction, and the reproducing defect (compose, then its Schur norm).
VERIFY_CHILDREN = ("pipeline.residual_suite", "pipeline.cross_check_inversion",
                   "discretize.verify_sampled_bounds",
                   "discretize.observed_contraction",
                   "kernels.compose", "kernels.schur_norm")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _q_pair_count(cov) -> int:
    """Sum over points y of |Q_y|, Q_y the union of the sets containing y."""
    sizes = [len(s) for s in cov.sets]
    n = cov.space.n_points
    if sum(sizes) == n:                     # a partition: Q_y is y's own set
        return sum(k * k for k in sizes)
    members = [[] for _ in range(n)]
    for s in cov.sets:
        for y in s:
            members[int(y)].append(s)
    return sum(np.unique(np.concatenate(m)).size for m in members)


def _dense_bytes(cov) -> int:
    """Bytes of the dense membership, neighbourhood-pair and intersection
    tables the covering holds; a table the program no longer keeps adds 0."""
    total = 0
    for attr in ("membership", "q_pairs", "_intersects"):
        arr = getattr(cov, attr, None)
        if isinstance(arr, np.ndarray):
            total += arr.size * arr.itemsize
    return total


# Spans after which Tracer._after takes a count.
_HOOKS = frozenset((
    "models.FrameModel.kernel",
    "coverings.Covering.__post_init__",
    "oscillation.oscillation_kernel",
    "oscillation.oscillation_report",
    "discretize.SamplingInverse.apply",
    "discretize.SamplingInverse.apply_columns",
))


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans = []         # [name, layer, start, end, parent, job, error]
        self._stack = []
        self._depth = defaultdict(int)
        self._rss_start = {}
        self.rss_growth_mb = defaultdict(float)
        self.counts = defaultdict(float)
        self.job = None
        self._restore = []
        self._refine_open = 0

    # -- boundary counts -------------------------------------------------
    def _after(self, name, args, result):
        c = self.counts
        if name == "models.FrameModel.kernel":
            c["models.kernel_bytes"] = max(c["models.kernel_bytes"],
                                           getattr(result, "nbytes", 0))
        elif name == "coverings.Covering.__post_init__":
            c["coverings.dense_bytes"] = max(c["coverings.dense_bytes"],
                                             _dense_bytes(args[0]))
        elif name == "oscillation.oscillation_kernel":
            model, cov = args[0], args[1]
            c["oscillation.osc_pairs"] += model.space.n_points * _q_pair_count(cov)
        elif name == "oscillation.oscillation_report":
            c["oscillation.reports"] += 1
            c["oscillation.reports_certifying"] += bool(
                result.oscillation_ok and result.invertibility_ok)
            if self._refine_open:
                c["oscillation.refine_rounds"] += 1
        elif name in ("discretize.SamplingInverse.apply",
                      "discretize.SamplingInverse.apply_columns"):
            c["discretize.neumann_terms"] += len(args[0].last_term_norms)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name, layer):
        tracer = self
        hooked = name in _HOOKS
        clock = time.perf_counter
        spans, stack, depth = self.spans, self._stack, self._depth
        is_refine = name == "oscillation.refine_until"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            outer = depth[layer] == 0
            if outer:
                tracer._rss_start[layer] = _maxrss_mb()
            depth[layer] += 1
            tracer._refine_open += is_refine
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                depth[layer] -= 1
                tracer._refine_open -= is_refine
                if outer:
                    tracer.rss_growth_mb[layer] += (_maxrss_mb()
                                                    - tracer._rss_start[layer])
            if hooked:
                tracer._after(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name in every framedisc namespace; ``uninstall``
        undoes it."""
        modules = {m: sys.modules[f"framedisc.{m}"] for m in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for name, mod in list(sys.modules.items()):
            if name != "framedisc" and not name.startswith("framedisc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1], obj)

    def _wrap_class(self, cls, layer) -> None:
        # A dataclass's generated __init__ calls __post_init__, which holds
        # the real construction work.
        ctor_name = "__post_init__" if hasattr(cls, "__dataclass_fields__") else "__init__"
        for attr, obj in list(vars(cls).items()):
            ctor = attr == ctor_name
            if attr.startswith("_") and not ctor:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(obj, name, layer)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, name, layer))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, name, layer))
            elif isinstance(obj, functools.cached_property):
                new = functools.cached_property(self._wrap(obj.func, name, layer))
                new.__set_name__(cls, attr)
            else:
                continue
            self._set(cls, attr, new, obj)

    def _set(self, holder, attr, new, old) -> None:
        setattr(holder, attr, new)
        self._restore.append((holder, attr, old))

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._restore):
            setattr(holder, attr, old)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        return [rec[3] - rec[2] - child[i] for i, rec in enumerate(self.spans)]

    def function_table(self, self_t=None) -> dict:
        """Per span name: calls, errors, self seconds and inclusive seconds.

        Inclusive time counts only calls with no enclosing call of the same
        name, so recursion is not counted twice.
        """
        self_t = self.self_times() if self_t is None else self_t
        table = defaultdict(lambda: {"calls": 0, "errors": 0, "self_s": 0.0,
                                     "incl_s": 0.0})
        spans = self.spans
        for i, rec in enumerate(spans):
            row = table[rec[0]]
            row["calls"] += 1
            row["errors"] += rec[6]
            row["self_s"] += self_t[i]
            parent = rec[4]
            while parent >= 0 and spans[parent][0] != rec[0]:
                parent = spans[parent][4]
            if parent < 0:
                row["incl_s"] += rec[3] - rec[2]
        return dict(table)

    def verify_seconds(self) -> float:
        """Time in run_discretization's verification steps (VERIFY_CHILDREN)."""
        spans = self.spans
        return sum(rec[3] - rec[2] for rec in spans
                   if rec[0] in VERIFY_CHILDREN and rec[4] >= 0
                   and spans[rec[4]][0] == "pipeline.run_discretization")

    def layer_metrics(self, traced_s: float, report_bytes: int,
                      compression: list) -> dict:
        """Per-layer metrics of one traced pass, as name -> (value, unit).

        ``traced_s`` is the total time of the pass's traced job runs,
        ``report_bytes`` the total size of the reports the jobs wrote,
        ``compression`` each job's final covering size n_sets / n_points.
        """
        self_t = self.self_times()
        funcs = self.function_table(self_t)
        out = {}
        total_self = 0.0
        for layer in LAYERS:
            idx = [i for i, rec in enumerate(self.spans) if rec[1] == layer]
            layer_self = sum(self_t[i] for i in idx)
            total_self += layer_self
            out[f"{layer}.self_s"] = (layer_self, "s")
            out[f"{layer}.calls"] = (len(idx), "count")
            out[f"{layer}.errors"] = (sum(self.spans[i][6] for i in idx), "count")
            out[f"{layer}.rss_growth_mb"] = (self.rss_growth_mb[layer], "MB")

        def incl(name):
            return funcs.get(name, {}).get("incl_s", 0.0)

        def calls(name):
            return funcs.get(name, {}).get("calls", 0)

        c = self.counts
        reports = c["oscillation.reports"]
        phase_s = sum(row["self_s"] for name, row in funcs.items()
                      if name == "oscillation.make_phase"
                      or name.startswith("oscillation.PhaseFunction."))
        out.update({
            "models.kernel_bytes": (int(c["models.kernel_bytes"]), "B-computed"),
            "kernels.set_totals_s": (incl("kernels.DiscreteMeasure.set_totals"), "s"),
            "kernels.set_totals.calls": (calls("kernels.DiscreteMeasure.set_totals"),
                                         "count"),
            "kernels.compose_s": (incl("kernels.compose"), "s"),
            "kernels.schur_norm_s": (incl("kernels.schur_norm"), "s"),
            "kernels.schur_norm.calls": (calls("kernels.schur_norm"), "count"),
            "coverings.dense_bytes": (int(c["coverings.dense_bytes"]), "B-computed"),
            "coverings.compression": (
                sum(compression) / len(compression) if compression else 0.0, "ratio"),
            "oscillation.osc_kernel_s": (incl("oscillation.oscillation_kernel"), "s"),
            "oscillation.osc_pairs": (int(c["oscillation.osc_pairs"]),
                                      "pairs-computed"),
            "oscillation.refine_rounds": (int(c["oscillation.refine_rounds"]), "count"),
            "oscillation.round_yield": (
                c["oscillation.reports_certifying"] / reports if reports else 0.0,
                "ratio"),
            "oscillation.phase_s": (phase_s, "s"),
            "spaces.pileup.calls": (calls("spaces.pileup"), "count"),
            "spaces.norm.calls": (calls("spaces.WeightedLp.norm"), "count"),
            "discretize.reconstruct_s": (incl("discretize.reconstruct_from_samples"),
                                         "s"),
            "discretize.verify_bounds_s": (incl("discretize.verify_sampled_bounds"),
                                           "s"),
            "discretize.inverse_apply.calls": (
                calls("discretize.SamplingInverse.apply"), "count"),
            "discretize.neumann_terms": (int(c["discretize.neumann_terms"]), "count"),
            "pipeline.verify_share": (self.verify_seconds() / traced_s, "ratio"),
            "cli.report_bytes": (report_bytes, "B"),
            "trace.spans": (len(self.spans), "count"),
            "trace.unaccounted_s": (traced_s - total_self, "s"),
        })
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent, job, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[0], "start": rec[2],
                                     "end": rec[3], "parent": rec[4],
                                     "job": rec[5], "error": rec[6]}) + "\n")
