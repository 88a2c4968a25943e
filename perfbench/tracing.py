"""In-memory span tracing around calls into the library, from outside it.

A span records a name, a start and an end time, and the span open when it
started (its parent). Library functions are traced by replacing them, for
the duration of a traced pass, in the module namespace of the code that
calls them: ``mhp.training.forward_batch`` is the name ``training.py``
looks up, so replacing it there traces every forward pass of the training
loop and nothing else. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, start, end, parent row (-1 for a root)
        self.rows: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # (span name, return value) of calls whose results are kept
        self.outputs: list[tuple[str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        row = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([self._name_id(name), perf_counter(), 0.0, parent])
        self._stack.append(row)
        return row

    def close(self, row: int) -> None:
        self.rows[row][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        row = self.open(name)
        try:
            yield
        finally:
            self.close(row)

    def wrap(self, module, attr: str, name, keep_output: bool = False) -> None:
        """Replace ``module.attr`` with a traced version until :meth:`unwrap_all`.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.
        """
        original = getattr(module, attr)
        span_name = name if callable(name) else (lambda *_: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = span_name(*args)
            row = self.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(row)
            if keep_output:
                self.outputs.append((label, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take_outputs(self) -> list[tuple[str, object]]:
        out, self.outputs = self.outputs, []
        return out

    def times_by_name(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus the durations of its direct
        children. Spans nest (one caller, one thread), so the children cover
        disjoint parts of their parent, and the self times of all spans add up
        to the total duration of the root spans.
        """
        if not self.rows:
            return {}
        arr = np.array(self.rows, dtype=np.float64)
        name_ids = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parents = arr[:, 3].astype(np.int64)
        child = np.zeros(len(arr))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_ids, minlength=k)
        total = np.bincount(name_ids, weights=dur, minlength=k)
        selfs = np.bincount(name_ids, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    def dump(self) -> dict:
        """All spans, times in microseconds from the first span's start."""
        t0 = self.rows[0][1] if self.rows else 0.0
        return {
            "names": list(self.names),
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": [[r[0], round((r[1] - t0) * 1e6, 3), round((r[2] - t0) * 1e6, 3), r[3]]
                      for r in self.rows],
        }
