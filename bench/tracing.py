"""In-memory spans recorded around calls into the xnb layers.

A span has an id, a name, a parent id, a start and an end. Spans live in
memory and are written once, when the run ends. Timestamps come from
`time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so shared by
the benchmark and the verb processes it starts; spans recorded in a child
process nest inside the parent's span for that process.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager, suppress


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, parent: str | None = None, **attrs):
        """Record `name` around the body, under `parent` or the open span."""
        record = {
            "id": str(len(self.spans) + 1),
            "name": name,
            "parent": parent if parent is not None else (self._stack[-1] if self._stack else None),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except Exception as exc:
            # kept on the span as a failure of that layer, then re-raised
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc(limit=4)
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def layer_call(self, name: str, **attrs):
        """A span around one library call whose failure must not stop the run.

        The exception is kept on the span as `error` and swallowed; the
        caller tests `"error" in span` before using results.
        """
        with suppress(Exception), self.span(name, **attrs) as record:
            yield record

    def adopt(self, spans: list[dict], parent: str) -> None:
        """Add spans recorded in a child process; its roots hang under `parent`.

        Their ids are prefixed by `parent`, so that they stay unique."""
        for s in spans:
            self.spans.append(dict(
                s, id=f"{parent}/{s['id']}",
                parent=parent if s["parent"] is None else f"{parent}/{s['parent']}",
            ))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
