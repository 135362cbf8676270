"""Spans recorded from outside the program, for the traced pass.

``Tracer.wrap`` replaces a function where the program looks it up (a module
global or a class attribute) with a wrapper that records a span: name, start,
end and the id of the span that was open when it began. The runner opens one
root span per benchmark operation (a build, a query, a load, ...), so every
span belongs to exactly one operation. A span's self time is its duration
minus the durations of its child spans; single-threaded calls nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# The runner's clock: CPU time of the process (see run.py).
_clock = time.process_time


class Tracer:
    def __init__(self) -> None:
        # Each span is [id, parent_id, name, start, end, info].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, _clock(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(*args, **kwargs)`` runs ahead of the call and its result is
        passed to ``after(info, result, *args, **kwargs)``, whose return value
        is kept as the span's info. Neither runs inside the span's time.
        A binding the program no longer has is listed in ``missing`` and left
        alone; its time then counts to the enclosing span.
        """
        found = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in found:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = found[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            s = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(s)
            if after is not None:
                s[5] = after(pre, result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- analysis

    def roots(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == -1 and s[2] == name]

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        return [s[4] - s[3] - child[s[0]] for s in self.spans]

    def root_of(self) -> list[int]:
        """Id of the root span above every span (spans are recorded in
        start order, so a parent always precedes its children)."""
        root = [0] * len(self.spans)
        for s in self.spans:
            root[s[0]] = s[0] if s[1] < 0 else root[s[1]]
        return root

    def by_operation(self, op: str) -> dict:
        """Per-layer totals over all operations named ``op``: self seconds,
        call counts, the operation count and their summed time."""
        selfs = self.self_times()
        root = self.root_of()
        roots = {s[0] for s in self.roots(op)}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if root[s[0]] in roots and s[1] >= 0:
                self_s[s[2]] += selfs[s[0]]
                calls[s[2]] += 1
        total = sum(self.spans[r][4] - self.spans[r][3] for r in roots)
        return {"ops": len(roots), "total_s": total,
                "self_s": dict(self_s), "calls": dict(calls)}

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]].append(s[0])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"),
                      default=str)
            fh.write("\n")
