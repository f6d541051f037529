"""In-memory span recorder of the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer; they are kept in memory and written as one JSON file
when the traced run ends. The untraced run never imports this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Dict, List, Optional


class SpanRecorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, repeat: Optional[int] = None):
        """Record ``name`` from entry to exit; the span open on entry is
        its parent."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "repeat": repeat,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of the finished spans called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        )

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump(self.spans, out, indent=1)
