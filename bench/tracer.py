"""In-memory span tracer used by the benchmark's traced iterations.

A span is one call into a public function of a driftbench module: its
name, the per-layer metric its self time is charged to, start, end and the
index of the enclosing span.  Spans stay in memory and are summarised once
the traced work has ended.

:meth:`Tracer.install` replaces each target function with a timing wrapper
in the module that defines it *and* in every driftbench module that
imported it by name (``harness`` imports ``auc``, ``load_dataset`` and
``write_rows``; ``baseline`` imports ``transform_rows``; ``cli`` imports
``run_suite`` and the ranking functions).  Patching only the defining
module would silently miss those calls.  Nothing under ``src/`` changes.

This module uses the standard library only, so importing it adds nothing
to the package import that set-up time measures.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict


def _under_save(tracer: "Tracer") -> str:
    # write_rows and write_schema serve both generate (saving a stream) and
    # SubprocessPredictor (staging a step's files); the caller decides.
    return "data.save_s" if tracer.inside("data.save_dataset") else "data.stage_s"


def _count_len(key):
    def hook(tracer, result, args, kwargs):
        tracer.counts[key] += len(result)
    return hook


def _count_written(tracer, result, args, kwargs):
    if not tracer.inside("data.save_dataset"):
        tracer.counts["data.rows_written"] += len(args[2])


def _count_cells(tracer, result, args, kwargs):
    tracer.counts["encoding.cells"] += result.shape[0] * result.shape[1]


def _count_tree(tracer, result, args, kwargs):
    tracer.counts["baseline.trees"] += 1
    tracer.counts["baseline.nodes"] += result.n_nodes
    tracer.counts["baseline.fit_rows"] += args[1].shape[0]


def _count_margin(tracer, result, args, kwargs):
    ensemble = args[0]
    n_trees = kwargs.get("n_trees", args[2] if len(args) > 2 else None)
    used = ensemble.n_trees if n_trees is None else min(n_trees, ensemble.n_trees)
    tracer.counts["baseline.margin_tree_rows"] += used * result.shape[0]


def _count_auc(tracer, result, args, kwargs):
    tracer.counts["metrics.auc_rows"] += len(args[0])


def _count_lifelong(tracer, result, args, kwargs):
    tracer.counts["harness.steps"] += len(result.steps)
    tracer.counts["harness.failed_steps"] += int(result.outcome != "completed")


def _note_predictor(tracer, result, args, kwargs):
    # unbilled_seconds is cumulative per adapter; keep the adapter to read
    # its final value when the run ends.
    tracer.adapters[id(args[0])] = args[0]


#: (module, attribute or Class.method, span metric or metric chooser, count hook)
TARGETS = (
    ("driftbench.synth", "generate_drift_stream", "synth.busy_s", _count_len("synth.rows")),
    ("driftbench.data", "save_dataset", "data.save_s", None),
    ("driftbench.data", "write_rows", _under_save, _count_written),
    ("driftbench.data", "write_schema", _under_save, None),
    ("driftbench.data", "load_dataset", "data.load_s", _count_len("data.rows_read")),
    ("driftbench.data", "read_unlabeled", "data.load_s", _count_len("data.rows_read")),
    ("driftbench.data", "read_schema", "data.load_s", None),
    ("driftbench.encoding", "transform_rows", "encoding.transform_s", _count_cells),
    ("driftbench.encoding", "fit_dataset_encoders", "encoding.vocab_s", None),
    ("driftbench.encoding", "extend_ordinal", "encoding.vocab_s", None),
    ("driftbench.baseline", "RegressionTree.fit", "baseline.fit_s", _count_tree),
    ("driftbench.baseline", "ensemble_margin", "baseline.margin_s", _count_margin),
    ("driftbench.baseline", "select_training_pool", "baseline.sample_s", None),
    ("driftbench.baseline", "fit_initial", "baseline.other_s", None),
    ("driftbench.baseline", "extend", "baseline.other_s", None),
    ("driftbench.baseline", "predict_scores", "baseline.other_s", None),
    ("driftbench.baseline", "BaselinePredictor.learn", "baseline.other_s", None),
    ("driftbench.baseline", "BaselinePredictor.predict", "baseline.other_s", None),
    ("driftbench.metrics", "auc", "metrics.auc_s", _count_auc),
    ("driftbench.harness", "run_suite", "harness.loop_self_s", None),
    ("driftbench.harness", "run_lifelong", "harness.loop_self_s", _count_lifelong),
    ("driftbench.harness", "SubprocessPredictor.predict", "harness.child_s", _note_predictor),
    ("driftbench.ranking", "build_leaderboard", "ranking.busy_s", None),
    ("driftbench.ranking", "merge_bundles", "ranking.busy_s", None),
    # Submission and leaderboard (de)serialisation is left unwrapped, so it
    # counts as cli.self_s.
    ("driftbench.cli", "main", "cli.self_s", None),
)


class Tracer:
    """Records nested spans and per-layer counts for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, metric, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.adapters: dict[int, object] = {}
        self._stack: list[int] = []

    def open(self, name: str, metric: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        t = time.perf_counter() if start is None else start
        self.spans.append([name, metric, t, None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: float | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][3] = time.perf_counter() if end is None else end

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, metric, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            chosen = metric(self) if callable(metric) else metric
            index = self.open(name, chosen)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        """Patch every target wherever driftbench bound it by name.  Targets
        in modules this process never imported are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "driftbench" or n.startswith("driftbench."))]
        for module_name, attr, metric, hook in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            span_name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(span_name, metric, raw.__func__, hook)))
                else:
                    setattr(cls, meth, self.wrap(span_name, metric, raw, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, metric, original, hook)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapped)

    def install_pickle(self) -> None:
        """Time model-state reads and writes (external predictor side)."""
        pickle.load = self.wrap("pickle.load", "child.state_io_s", pickle.load)
        pickle.dump = self.wrap("pickle.dump", "child.state_io_s", pickle.dump)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict[str, float]:
    """Per-metric sum of span self time: duration minus direct children."""
    child = [0.0] * len(spans)
    for _name, _metric, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (_name, metric, start, end, _parent) in enumerate(spans):
        out[metric] += (end - start) - child[i]
    return dict(out)


def nesting_errors(spans) -> int:
    """Spans that are not inside their parent's interval, or extra roots."""
    bad = 0
    for i, (_name, _metric, start, end, parent) in enumerate(spans):
        if parent < 0:
            bad += i != 0
        elif not spans[parent][2] <= start <= end <= spans[parent][3]:
            bad += 1
    return bad
