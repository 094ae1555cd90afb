"""Spans around the benchmark's calls into iabplan's layers.

Every span is recorded from the benchmark's own code, around a public call
(or around `scipy.sparse.linalg.splu`, which the solver calls once per
Newton system).  Nothing inside `iabplan` is changed.  Spans stay in memory
and are summed per layer when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent) spans and per-layer counts.

    With `on` false, `call` only calls through and `add`/`peak` do nothing,
    so the untraced passes that give the end-to-end metrics pay one Python
    call per layer call and nothing else.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans = []        # [name, start, end, parent index or None]
        self.counts = {}
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name, value):
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        if self.on:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def seconds(self, name) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _p in self.spans if n == name)

    def calls(self, name) -> int:
        return sum(1 for n, *_rest in self.spans if n == name)


@contextmanager
def factor_spans(tracer: Tracer):
    """While tracing, time every `splu` call and keep the largest L+U nnz."""
    if not tracer.on:
        yield
        return
    import scipy.sparse.linalg as spla

    original = spla.splu

    def splu(*args, **kwargs):
        lu = tracer.call("solver.factor", original, *args, **kwargs)
        tracer.peak("solver.factor_nnz_max", int(lu.nnz))
        return lu

    spla.splu = splu
    try:
        yield
    finally:
        spla.splu = original
