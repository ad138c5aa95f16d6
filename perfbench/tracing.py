"""Spans and call counters installed from outside the program.

Nothing here edits ``sidhlab``: a wrapper is installed by rebinding, in every
loaded ``sidhlab`` module, each name that refers to the original function
(``attack.keygen`` and ``protocol.keygen`` are the same object, so both are
rebound).  Calls resolved through those module globals then go through the
wrapper; ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns


class Rebinder:
    """Installs wrappers by rebinding module names; undone by ``restore``."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        for mod in [m for name, m in list(sys.modules.items()) if name.startswith("sidhlab.")]:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._saved.append((mod, name, orig))

    def restore(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory spans: (id, parent id, operation id, name, start ns, end ns).

    ``attrs`` holds extra fields for a span id (the oracle's verdict).
    """

    def __init__(self):
        self.spans: list = []
        self.attrs: dict = {}
        self.stack: list = []
        self.op = -1

    def span(self, name: str, fn, label=None, on_result=None):
        """Wrap fn so that every call records one span.

        label(args) appends a suffix to the span name; on_result(sid, args,
        result) may store attributes for the span.
        """
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sname = name if label is None else f"{name}.{label(args)}"
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.op, sname, t0, t1)
            if on_result is not None:
                on_result(sid, args, result)
            return result

        return wrapper

    def finished(self) -> list:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        spans = self.finished()
        child = Counter()
        for sid, parent, _, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}

    def write(self, path, header: dict) -> None:
        """One JSON object per line: the header, then every span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, op, name, t0, t1 in self.finished():
                rec = {"id": sid, "parent": parent, "op": op, "name": name, "start_ns": t0, "end_ns": t1}
                if sid in self.attrs:
                    rec.update(self.attrs[sid])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def counting(counts: Counter, name: str):
    """Wrapper factory that only counts calls (no clock reads)."""

    def make(fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make
