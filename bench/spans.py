"""In-memory spans around calls into the package's public functions.

`Tracer` swaps each traced function, wherever a `logitgof` module holds a
reference to it, for a wrapper that records (name, start, end, parent,
chunk). One private function is traced too: `exact._outcome_rows`, the
exact module's lattice step, which stands where the Monte-Carlo engine
calls `draw_outcomes`. The program itself is not edited: the spans sit at
the boundaries between its modules, which is where the benchmark
attributes time to layers. Spans are kept in memory and written out once,
when the run ends.

A chunk is one outcome matrix on its way through draw, refit and
statistics; every span that receives the same matrix gets the same chunk
id. Chunk ids assume one thread, so trace only workers=1 calls.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

TRACED = {
    "logitgof.experiment": ("build_plan",),
    "logitgof.dataio": ("load_csv",),
    "logitgof.fitting": ("fit", "fit_batch"),
    "logitgof.montecarlo": ("estimate_pvalues", "observed_statistics", "draw_outcomes"),
    "logitgof.statistics": ("evaluate_batch",),
    "logitgof.exact": ("exact_pvalues", "_outcome_rows"),
}

# the argument that carries a call's outcome matrix, by function
_OUTCOME_ARG = {"fit_batch": 1, "evaluate_batch": 1}
# calls whose arguments and results the analysis reads back
CAPTURED = ("draw_outcomes", "_outcome_rows", "fit_batch", "evaluate_batch")
# calls whose result starts a chunk, and the arguments that bound its rows
_CHUNK_SOURCES = {"draw_outcomes": (1, 2), "_outcome_rows": (0, 1)}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    chunk: int | None = None
    rows: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Records spans while installed; `captured` keeps the span, arguments
    and result of each call to a function named in CAPTURED."""

    spans: list[Span] = field(default_factory=list)
    captured: list[tuple[Span, tuple, object]] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _last_outcomes: int | None = None
    _chunk: int = -1

    @contextmanager
    def span(self, name: str, rows: int = 0, chunk: int | None = None):
        """A span around the benchmark's own work."""
        s = self._begin(name, rows, chunk)
        try:
            yield s
        finally:
            self._end(s)

    def _begin(self, name, rows, chunk):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, parent=None if parent is None else parent.id,
                 chunk=chunk, rows=rows)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def _end(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children_s += s.duration

    def _chunk_of(self, outcomes) -> int:
        if id(outcomes) != self._last_outcomes:
            self._last_outcomes = id(outcomes)
            self._chunk += 1
        return self._chunk

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            chunk = None
            rows = 0
            if name in _OUTCOME_ARG:
                outcomes = args[_OUTCOME_ARG[name]]
                chunk = tracer._chunk_of(outcomes)
                rows = outcomes.shape[0]
            elif name in _CHUNK_SOURCES:
                lo, hi = _CHUNK_SOURCES[name]
                rows = args[hi] - args[lo]
            s = tracer._begin(name, rows, chunk)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(s)
            if name in _CHUNK_SOURCES:
                tracer._last_outcomes = None  # a draw always starts a chunk
                s.chunk = tracer._chunk_of(result)
            if name in CAPTURED:
                tracer.captured.append((s, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        originals = {}
        for modname, names in TRACED.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (name, fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "logitgof" and not modname.startswith("logitgof."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[2])
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "chunk": s.chunk, "rows": s.rows,
                 "self_s": s.self_time}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

