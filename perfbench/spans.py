"""In-memory spans around calls into graphcube's public functions.

A ``Tracer`` replaces module attributes (``graphcube.engine.aggregate_edges``,
``MultidimGraph.fingerprint``, ...) with timing wrappers while a traced
operation runs and restores the originals afterwards, so untraced operations
run the unmodified code. Each wrapped call records one span: name, start, end,
parent span and the id of the benchmark operation (one build, one set-up, one
query) it belongs to. Counts taken at the same boundary are stored on the span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

CountFn = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Patch:
    owner: Any
    attr: str
    name: str
    count: CountFn | None
    io: bool


def read_rchar() -> int:
    """Bytes this process has read through read-like system calls so far."""
    with open("/proc/self/io", encoding="ascii") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


def _rchar_baseline() -> int:
    """What two back-to-back rchar reads differ by with nothing in between."""
    samples = []
    for _ in range(5):
        a = read_rchar()
        samples.append(read_rchar() - a)
    return min(samples)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: dict[int, str] = {}
        self._patches: list[_Patch] = []
        self._stack: list[int] = []
        self._op = -1
        self._io_baseline: int | None = None

    def wrap(self, owner: Any, attr: str, name: str, count: CountFn | None = None, io: bool = False) -> None:
        """Register ``owner.attr`` to be timed as span ``name`` during traced ops.

        ``count(args, kwargs, result)`` returns counts stored on the span;
        ``io`` adds the bytes read during the call as count ``bytes_read``.
        """
        self._patches.append(_Patch(owner, attr, name, count, io))
        if io and self._io_baseline is None:
            self._io_baseline = _rchar_baseline()

    def _wrapper(self, original: Callable, p: _Patch) -> Callable:
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = Span(p.name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer._op)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            rchar = read_rchar() if p.io else 0
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if p.io:
                span.counts["bytes_read"] = read_rchar() - rchar - tracer._io_baseline
            if p.count is not None:
                span.counts.update(p.count(args, kwargs, result))
            return result

        return timed

    @contextmanager
    def op(self, kind: str) -> Iterator[int]:
        """Run one benchmark operation with every registered wrapper installed."""
        self._op = len(self.ops)
        self.ops[self._op] = kind
        originals = [(p, p.owner.__dict__[p.attr]) for p in self._patches]
        for p, original in originals:
            setattr(p.owner, p.attr, self._wrapper(original, p))
        try:
            yield self._op
        finally:
            for p, original in reversed(originals):
                setattr(p.owner, p.attr, original)
            self._op = -1

    # ------------------------------------------------------------------
    # Reductions over recorded spans.
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def per_op(self, name: str, kinds: tuple[str, ...], self_time: bool = False) -> list[float]:
        """Per operation of the given kinds, the summed time of spans ``name``."""
        times = self.self_times() if self_time else [s.duration for s in self.spans]
        totals: dict[int, float] = {}
        for s, t in zip(self.spans, times):
            if s.name == name and self.ops[s.op] in kinds:
                totals[s.op] = totals.get(s.op, 0.0) + t
        return list(totals.values())

    def median_per_op(self, name: str, kinds: tuple[str, ...], self_time: bool = False) -> float:
        values = self.per_op(name, kinds, self_time)
        return statistics.median(values) if values else 0.0

    def spans_named(self, name: str, kinds: tuple[str, ...]) -> list[Span]:
        return [s for s in self.spans if s.name == name and self.ops[s.op] in kinds]

    def dump(self, path: Path) -> None:
        payload = {
            "ops": [{"id": op, "kind": kind} for op, kind in self.ops.items()],
            "spans": [asdict(s) for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
