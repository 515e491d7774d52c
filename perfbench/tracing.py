"""In-memory spans around the benchmark's calls into the library.

A span is one call through a wrapped function: its name, start, end, the
span that was open when it began (its parent) and the id of the benchmark
item it served.  Spans stay in a list until the run ends; `self_times`
then reduces them to per-layer busy time, and `dump` writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable


def no_trace(name: str, fn: Callable) -> Callable:
    """The untraced binding: the library function itself, with no wrapper."""
    return fn


class Tracer:
    """Records one span per call of every function bound through `wrap`."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.item: str | None = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        open_spans = self._open

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append([name, perf_counter(), None, parent, self.item])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                open_spans.pop()

        return traced

    def self_times(
        self,
        group: Callable[[str | None], str],
        seconds: Callable[[float, float], float] = lambda start, end: end - start,
    ) -> tuple[dict[str, float], dict[str, int]]:
        """Busy time and calls per span name, and per `name.<group(item)>`.

        A span's busy time is its duration, `seconds(start, end)`, less the
        time covered by its child spans; children run one after another, so
        that is the sum of their durations.
        """
        duration = [seconds(start, end) for _, start, end, _, _ in self.spans]
        own = list(duration)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= duration[index]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, _, _, _, item), value in zip(self.spans, own):
            for key in (name, f"{name}.{group(item)}"):
                seconds[key] += value
                calls[key] += 1
        return dict(seconds), dict(calls)

    def dump(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as out:
            for name, start, end, parent, item in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "item": item,
                }
                out.write(json.dumps(record) + "\n")
