"""In-memory spans for the traced benchmark runs.

A span records a name, an optional tag (the input or phase it belongs to),
its start and end on the monotonic clock, the span that caused it and the
operation it belongs to.  ``time.monotonic`` reads CLOCK_MONOTONIC on Linux,
which every process shares, so spans written by a child process line up with
the parent's.  Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


class Recorder:
    """Collects nested spans; ``span`` is a context manager."""

    def __init__(self, op: int | None = None):
        self.spans: list[dict] = []
        self.op = op
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "tag": tag,
            "start": time.monotonic(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def adopt(self, child_spans: list[dict]) -> None:
        """Append spans recorded elsewhere (another process) under the
        currently open span, renumbering their ids."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in child_spans:
            self.spans.append(
                dict(
                    s,
                    id=s["id"] + offset,
                    parent=parent if s["parent"] is None else s["parent"] + offset,
                    op=self.op,
                )
            )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover.

    Children of one span run one after another in a single thread, so the
    part of the parent they cover is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_seconds(spans: list[dict]) -> dict[tuple[str, str | None], float]:
    """Median, over the operations that entered it, of each (name, tag)
    pair's self time summed within one operation."""
    own = self_times(spans)
    per_key: dict[tuple, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        per_key[(s["name"], s["tag"])][s["op"]] += own[s["id"]]
    return {k: median(by_op.values()) for k, by_op in per_key.items()}
