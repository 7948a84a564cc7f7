"""Spans and counters recorded around the public functions of ``knnavg``.

The benchmark treats the package as a black box: a :class:`Tracer` replaces
module attributes that the package looks up at call time (for example
``knnavg.nsga2.evaluate_noisy``) with wrappers that record a span, then
puts the originals back. A span is ``[name, start, end, parent]`` with the
parent given as an index into the span list, ``-1`` for the root. Spans are
kept in memory and written out once the traced body has finished.

A layer's self time is the duration of its spans minus the time their
child spans cover. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, layer). Attributes missing from a module are skipped,
# so a refactor that removes one leaves that layer at zero instead of
# breaking the benchmark.
SPAN_POINTS = (
    ("knnavg.nsga2", "knn_evaluate", "averaging"),
    ("knnavg.nsga2", "evaluate_noisy", "problems"),
    ("knnavg.nsga2", "sbx_crossover", "nsga2.variation"),
    ("knnavg.nsga2", "polynomial_mutation", "nsga2.variation"),
    ("knnavg.nsga2", "fast_non_dominated_sort", "nsga2.ranking"),
    ("knnavg.nsga2", "crowding_distance", "nsga2.ranking"),
    ("knnavg.nsga2", "non_dominated_filter", "nsga2.trace"),
    ("knnavg.nsga2", "hypervolume_2d", "nsga2.trace"),
    ("knnavg.experiment", "run_optimization", "nsga2.loop"),
    ("knnavg.experiment", "execute_run", "experiment.run"),
    ("knnavg.experiment", "compute_report", "metrics"),
    ("knnavg.experiment", "compare_setting", "stats"),
    ("knnavg.experiment", "write_history_csv", "experiment.io"),
    ("knnavg.experiment", "load_results", "experiment.load"),
    ("knnavg.experiment", "report", "experiment.report"),
    ("knnavg.experiment", "run_grid", "experiment.grid"),
)

ROOT_SPAN = "workload"


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every span point and counter of the imported package."""
        import importlib

        from knnavg import core, nsga2

        for module_name, attr, layer in SPAN_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            after = self._after_knn if attr == "knn_evaluate" else None
            self._patch(module, attr, self._wrap(layer, fn, after))

        # Counting only: every evaluated solution, and whether it is ranked
        # on its raw sample bitwise (the averaging found no other neighbour).
        for cls in (nsga2.PlainNoisy, nsga2.KnnAveraged):
            self._patch(cls, "evaluate", self._count_evaluated(cls.evaluate))
        post_init = core.Solution.__post_init__

        def counted_post_init(solution):
            self.counts["solutions_built"] += 1
            post_init(solution)

        self._patch(core.Solution, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _after_knn(self, args, result) -> None:
        history = args[1]
        self.counts["averaging_pairs"] += len(result) * len(history)
        self.counts["averaging_pair_dims"] += len(result) * len(history) * history.n_vars
        self.counts["averaging_history_len"] = max(
            self.counts["averaging_history_len"], len(history)
        )

    def _count_evaluated(self, evaluate):
        @functools.wraps(evaluate)
        def counted(evaluator, batch, history):
            out = evaluate(evaluator, batch, history)
            self.counts["evaluated"] += len(out)
            self.counts["self_only"] += sum(
                s.objectives.tobytes() == s.raw_objectives.tobytes() for s in out
            )
            return out

        return counted

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))


def summarize(spans: list[list]) -> dict:
    """Per-layer calls and self time, plus every way the tree is malformed.

    The tree is well formed when there is exactly one root, every child
    starts after its parent and lies inside it, siblings do not overlap,
    and self times are non-negative and sum to the root's duration.
    """
    errors: list[str] = []
    n = len(spans)
    covered = [0.0] * n
    last_child_end: dict[int, float] = {}
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    if len(roots) != 1:
        errors.append(f"expected one root span, found {len(roots)}")
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent == -1:
            continue
        if not 0 <= parent < i:
            errors.append(f"span {i} ({name}) has parent {parent} recorded after it")
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end:
            errors.append(f"span {i} ({name}) lies outside its parent {parent}")
        if start < last_child_end.get(parent, p_start):
            errors.append(f"span {i} ({name}) overlaps an earlier sibling")
        last_child_end[parent] = end
        covered[parent] += end - start
    layers: dict[str, dict[str, float]] = {}
    total_self = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        own = (end - start) - covered[i]
        if own < -1e-9:
            errors.append(f"span {i} ({name}) has negative self time {own!r}")
        total_self += own
        layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += own
    root_s = spans[roots[0]][2] - spans[roots[0]][1] if len(roots) == 1 else 0.0
    if abs(total_self - root_s) > 1e-9 * max(n, 1) + 1e-9:
        errors.append(f"self times sum to {total_self!r}, root lasts {root_s!r}")
    return {"layers": layers, "errors": errors}
