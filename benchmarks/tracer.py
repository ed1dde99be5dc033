"""Span recorder that times the program's layers from outside.

`Tracer.wrap` replaces a public function at its module or class attribute.
Program modules call each other through module attributes (`engine.settle`,
`encoder.encode_fixed`, ...), so calls made inside the program are caught as
well as the benchmark's own.  Each call opens a span; when it closes, its
duration is added to its parent's child time, and its self time (duration
minus the time its child spans cover) is added to the aggregate of its
(parent, name) edge.  A traced pass closes millions of spans, so they are
folded into those aggregates as they close rather than kept one by one;
the root spans (one per job) are kept whole.  `as_dict` gives both for
writing out when the run ends.

Most of the wrapper's own work (the span bookkeeping) runs outside the
callee's timed window and so lands in the caller's self time.
`call_cost` estimates that work per call, and `by_name` can take it off.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.counts: Counter[str] = Counter()
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.roots: list[tuple[str, float, float]] = []  # (name, start, end)
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `on_result(counts, result)` may add counts derived from the result.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        edges = self.edges
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                key = (parent[0] if parent else "", name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if on_result is not None:
                on_result(counts, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def root(self, name: str):
        """A root span; the time not covered by wrapped calls inside it is
        the benchmark's own and is recorded as the self time of `name`."""
        frame = [name, 0.0]
        self._stack.append(frame)
        self.enabled = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.enabled = False
            self._stack.pop()
            self.roots.append((name, start, end))
            edge = self.edges.setdefault(("", name), [0, 0.0, 0.0])
            edge[0] += 1
            edge[1] += end - start
            edge[2] += end - start - frame[1]

    def wrapped_calls(self) -> int:
        return sum(calls for (parent, _), (calls, _, _) in self.edges.items() if parent)

    def by_name(self, call_cost: float = 0.0) -> dict[str, list]:
        """[calls, total_s, self_s] per span name, root spans included.

        `call_cost` seconds per wrapped call are taken off the caller's self
        time (never below zero), to leave out the wrapper's bookkeeping.
        """
        out: dict[str, list] = {}
        for (parent, name), (calls, total, self_s) in self.edges.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for (parent, _), (calls, _, _) in self.edges.items():
            if parent:
                out[parent][2] = max(0.0, out[parent][2] - calls * call_cost)
        return out

    def as_dict(self) -> dict:
        return {
            "roots": [
                {"name": name, "start": start, "end": end} for name, start, end in self.roots
            ],
            "edges": [
                {"parent": parent or None, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (parent, name), (c, t, s) in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def call_cost(calls: int = 200_000, repeats: int = 7) -> float:
    """Seconds a traced call costs beyond the call itself: a wrapped no-op
    inside a root span timed against the bare no-op, median of `repeats`
    timings of `calls` calls each."""
    probe = SimpleNamespace(noop=lambda: None)
    bare = probe.noop
    tracer = Tracer()
    tracer.wrap(probe, "noop", "noop")
    wrapped = probe.noop

    def per_call(fn) -> float:
        start = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - start) / calls

    with tracer.root("probe"):
        costs = [per_call(wrapped) - per_call(bare) for _ in range(repeats)]
    return statistics.median(costs)
