"""In-memory spans and counters recorded by the benchmark around its own
calls into aabscreen; nothing inside the library is instrumented.

A span has a name, a start, an end and a parent, and every span and count
recorded while ``instance`` is set carries that instance id.  Self time is
a span's duration minus the durations of its direct children (children of
one parent never overlap: the benchmark is single-threaded).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts in memory; ``dump`` writes them out."""

    enabled = True

    def __init__(self):
        self.instance = None
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "instance": self.instance, "value": value})

    def discard(self, instance) -> None:
        """Forget a failed instance.  Its spans are the newest ones, so the
        ids of the spans that remain still equal their list positions."""
        self.spans = [s for s in self.spans if s["instance"] != instance]
        self.counts = [c for c in self.counts if c["instance"] != instance]

    def _self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_shares(self, root: str) -> list[float]:
        """For each ``root`` span, the share of its duration spent in the
        self time of the spans below it (1 minus the root's own self time)."""
        own = self._self_times()
        return [
            1.0 - own[s["id"]] / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == root
        ]

    def medians(self) -> dict[str, float]:
        """Median over instances of each span name's summed self time (as
        ``<name>.s``) and of each count's per-instance sum."""
        times = defaultdict(float)
        for s, own in zip(self.spans, self._self_times()):
            times[(s["instance"], f"{s['name']}.s")] += own
        for c in self.counts:
            times[(c["instance"], c["name"])] += c["value"]
        per_name = defaultdict(list)
        for (_, name), v in times.items():
            per_name[name].append(v)
        return {name: statistics.median(v) for name, v in per_name.items()}

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"meta": meta, "spans": self.spans, "counts": self.counts}, fh)


class NullTracer:
    """Stand-in for untraced runs: each span and count is one no-op call."""

    enabled = False
    instance = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass
