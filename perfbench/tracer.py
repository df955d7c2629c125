"""In-memory span recorder for the traced run.

``Tracer.install`` swaps each function named in ``layers.WRAPS`` for a
wrapper that records one span per call: its name, start, end, parent span,
the op it belongs to and the counts the layer's counter reads off the call.
``uninstall`` puts the originals back, so untraced ops run the program
unchanged. Spans stay in memory until ``write`` at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from layers import WRAPS


@dataclass
class Span:
    name: str
    fn: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def install(self):
        for module, path, name, counter in WRAPS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, fn: str = ""):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, fn, self.op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_fn = self.spans[self._stack[-1]].fn if self._stack else ""
            with self.span(name, fn.__name__) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                rec.counts = counter(args, kwargs, result, parent_fn)
            return result
        return traced

    def op_metrics(self, op: int) -> dict:
        """Self time per span name and summed counts for one op's spans.

        Also checks the nesting that self time relies on and returns the
        op span's wall time (``op.wall_s``) and its own self time
        (``op.unattributed_s``), which with the layer self times sums to it.
        """
        idx = [i for i, s in enumerate(self.spans) if s.op == op]
        child_time = defaultdict(float)
        root = {}
        for i in idx:
            s = self.spans[i]
            root[i] = i if s.parent is None else root[s.parent]
            if s.parent is not None:
                p = self.spans[s.parent]
                if not (p.start <= s.start <= s.end <= p.end):
                    raise RuntimeError(f"span {s.name} escapes its parent {p.name}")
                child_time[s.parent] += s.end - s.start
        out: dict = defaultdict(float)
        in_op = 0.0
        for i in idx:
            s = self.spans[i]
            self_time = (s.end - s.start) - child_time[i]
            if s.name == "op":
                out["op.wall_s"] += s.end - s.start
                out["op.unattributed_s"] += self_time
            elif s.name != "gen":
                out[s.name] += self_time
            if self.spans[root[i]].name == "op":
                in_op += self_time
            for key, val in s.counts.items():
                out[key] += val
        out["op.residual_s"] = out["op.wall_s"] - in_op
        return dict(out)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
