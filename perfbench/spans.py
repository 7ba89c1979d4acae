"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps the public entry points of each layer of the
mapper, from the benchmark's own files, for the length of one traced
pass: the program itself is not edited and carries no tracing. Each span
records its name, start, end, parent span and the search or request id
(``sid``) of the operation it belongs to. Spans stay in memory and are
written out as JSON lines when the run ends.

A layer's self time is its spans' durations minus the time their direct
child spans cover, so the self times of every span under one
``search.run`` add up to that ``search.run``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span fields, in record order.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "sid", "n")


class SpanRecorder:
    """Collects closed spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, sid: Optional[str] = None) -> list:
        """Push a span; it inherits the enclosing span's ``sid``."""
        stack = self.stack()
        parent = stack[-1] if stack else None
        if sid is None and parent is not None:
            sid = parent[4]
        span = [
            next(self._ids), name, time.perf_counter_ns(),
            parent[0] if parent is not None else None, sid,
        ]
        stack.append(span)
        return span

    def close(self, span: list, n: int = 1) -> None:
        end = time.perf_counter_ns()
        popped = self.stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]!r} closed out of order")
        self.spans.append((span[0], span[1], span[2], end, span[3], span[4], n))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, record))) + "\n")


def layer_totals(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_s``, ``total_s`` and the summed count ``n``."""
    covered: Dict[int, int] = defaultdict(int)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "n": 0}
    )
    for span_id, name, start, end, _, _, n in spans:
        entry = totals[name]
        entry["self_s"] += (end - start - covered[span_id]) / 1e9
        entry["total_s"] += (end - start) / 1e9
        entry["n"] += n
    return dict(totals)


def _wrap_call(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    count: Callable[[tuple], int],
) -> Callable:
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        if stack and stack[-1][1] == name:
            # A layer calling into itself (sample -> sample_chains ->
            # assemble) is one span of that layer.
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span, count(args))

    return wrapper


def _wrap_generator(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Time each ``next()`` of a generator as one span of ``name``."""

    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        if stack and stack[-1][1] == name:
            yield from fn(*args, **kwargs)
            return
        iterator = fn(*args, **kwargs)
        while True:
            span = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                recorder.close(span, 0)
                return
            except BaseException:
                recorder.close(span, 0)
                raise
            recorder.close(span, 1)
            yield item

    return wrapper


def _one(args: tuple) -> int:
    return 1


def _none(args: tuple) -> int:
    return 0


def _rows(args: tuple) -> int:
    return args[1].size


def _targets():
    """(owner, attribute, span name, kind, count) of every wrapped entry."""
    from repro.mapspace.generator import MapSpace
    from repro.model import batch
    from repro.model.evaluator import Evaluator
    from repro.search.branch_bound import BranchBoundSearch
    from repro.search.random_search import RandomSearch

    return [
        (MapSpace, "sample", "mapspace.sample", "call", _one),
        (MapSpace, "sample_chains", "mapspace.sample", "call", _one),
        (MapSpace, "assemble", "mapspace.sample", "call", _none),
        (MapSpace, "iter_prefix_batches", "mapspace.enumerate", "gen", None),
        (MapSpace, "iter_batches", "mapspace.enumerate", "gen", None),
        # Looked up as a module global by BatchEvaluator.evaluate_mappings.
        (batch, "pack_mappings", "batch.pack", "call", _one),
        (batch.BatchEvaluator, "evaluate_batch", "batch.kernel", "call", _rows),
        (batch.PartialBoundEngine, "suffix_bounds", "bound.suffix", "call", _one),
        (batch.PartialBoundEngine, "child_bounds", "bound.child", "call", _one),
        (Evaluator, "evaluate", "evaluator.scalar", "call", _one),
        (Evaluator, "evaluate_fresh", "evaluator.scalar", "call", _one),
        (RandomSearch, "run", "search.run", "call", _one),
        (BranchBoundSearch, "run", "search.run", "call", _one),
    ]


class installed:
    """Context manager: wrap every layer entry point for ``recorder``."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        for owner, attr, name, kind, count in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if kind == "gen":
                wrapper = _wrap_generator(self.recorder, name, original)
            else:
                wrapper = _wrap_call(self.recorder, name, original, count)
            setattr(owner, attr, wrapper)
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
