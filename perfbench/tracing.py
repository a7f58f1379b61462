"""Spans recorded around calls into permpat, from the benchmark's side.

A span is (id, name, start, end, parent id, op id); its layer is the part
of the name before the first dot (``cli``, ``oracle``, ``preimage``, ...).
Spans stay in memory until :meth:`Tracer.write`.  A layer's self time is
the summed duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterable


def call_plain(name: str, fn: Callable, *args, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def proxy(self, cls: type, name: str, methods: Iterable[str]):
        """An object standing in for ``cls`` whose listed (class) methods
        are traced and whose other attributes are those of ``cls``."""
        tracer = self

        class Proxy:
            def __getattr__(self, attr):
                return getattr(cls, attr)

        for m in methods:
            setattr(Proxy, m, staticmethod(tracer.wrap(f"{name}.{m}", getattr(cls, m))))
        return Proxy()

    def self_times(self) -> dict[str, dict]:
        """Per layer: number of spans, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            row = table.setdefault(name.split(".", 1)[0], {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return table

    def write(self, stem: Path) -> dict[str, str]:
        """Write the spans (JSON lines) and the self-time table (text)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        spans_path = stem.with_name(stem.name + ".spans.jsonl")
        table_path = stem.with_name(stem.name + ".selftime.txt")
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(spans_path, "w") as f:
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_s": start - t0,
                                    "end_s": end - t0, "parent": parent, "op": op}) + "\n")
        table = self.self_times()
        total = sum(row["self_s"] for row in table.values()) or 1.0
        lines = [f"{'layer':<12} {'spans':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{layer:<12} {row['spans']:>9} {row['total_s']:>10.4f} "
                         f"{row['self_s']:>10.4f} {100 * row['self_s'] / total:>6.1f}")
        table_path.write_text("\n".join(lines) + "\n")
        return {"spans": str(spans_path), "self_times": str(table_path), "table": table}
