"""In-memory span tracing, applied to ``pertmap`` from outside by patching names.

A span is (id, parent id, name, start, end).  Spans are appended to a list
while the run executes and written as JSONL once it ends.  A span's self
time is its duration minus the time its child spans cover; calls are
single-threaded, so children never overlap and their coverage is the sum
of their durations.

``Tracer.patch`` replaces an attribute with a timed wrapper and remembers
the original, so ``Tracer.restore`` leaves the package exactly as imported.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_ID, _PARENT, _NAME, _START, _END = range(5)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][_END] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][_NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def current_id(self) -> int:
        return self._stack[-1]

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][_NAME] if self._stack else None

    def timed(self, name: str | Callable[[], str], fn: Callable) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be chosen per call."""
        choose = name if callable(name) else (lambda: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(choose())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_timed(self, owner: Any, attr: str, name: str | Callable[[], str]) -> None:
        self.patch(owner, attr, lambda fn: self.timed(name, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def durations(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per-name lists of inclusive durations and of self times."""
        if self._stack:
            raise RuntimeError("spans still open")
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] is not None:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        inclusive: dict[str, list[float]] = defaultdict(list)
        own: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            dur = s[_END] - s[_START]
            inclusive[s[_NAME]].append(dur)
            own[s[_NAME]].append(dur - child_time[s[_ID]])
        return inclusive, own

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def median_and_tail(samples: list[float]) -> tuple[float, float]:
    """Median, and the highest percentile with at least ten samples beyond it.

    For n samples that is the (n - 10)th smallest, the 100 * (n - 10) / n
    percentile; with ten samples or fewer no percentile qualifies and the
    maximum is reported.  Empty input gives zeros.
    """
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    tail = ordered[n - 11] if n > 10 else ordered[-1]
    return median, tail
