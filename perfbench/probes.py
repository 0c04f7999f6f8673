"""Layer timing from outside the program: spans around public functions.

:class:`Tracer` replaces a function or method of a program module with a
wrapper that records one span (name, start, end, parent) per call and
then calls the original.  Nothing inside ``src/`` changes: the wrappers
are installed only in a traced run, by this benchmark's own files, so
untraced runs execute the program exactly as shipped.

The parent of a span is the innermost traced span open on the same
thread, so a layer's self time is its duration minus the durations of
its direct traced children (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: (module, owner attribute path, function, span name) per probed layer.
#: ``owner`` is a class name inside the module, or ``None`` for a
#: module-level function.
LAYERS = (
    ("repro.core.qparser", None, "parse_query", "qparser.parse"),
    ("repro.serve.http", None, "parse_query", "qparser.parse"),
    ("repro.core.search", "SearchEngine", "search", "search.engine"),
    ("repro.core.search", "SearchEngine", "migrate_cache_from",
     "refresh.migrate"),
    ("repro.catalog.index", "CatalogIndexes", "build", "index.build"),
    ("repro.catalog.index", "CatalogIndexes", "copy", "index.copy"),
    ("repro.catalog.index", "CatalogIndexes", "apply", "index.apply"),
    ("repro.core.columnar", "ColumnarSnapshot", "freeze",
     "columnar.freeze"),
    ("repro.core.columnar", "ColumnarSnapshot", "freeze_from",
     "columnar.freeze_from"),
    ("repro.catalog.sqlite_store", "SqliteCatalog", "snapshot",
     "store.snapshot"),
    ("repro.catalog.sqlite_store", "SqliteCatalog", "snapshot_cow",
     "store.snapshot_cow"),
    ("repro.catalog.sqlite_store", "SqliteCatalog", "apply_batch",
     "store.apply_batch"),
    ("repro.serve.service", "SearchService", "refresh", "refresh"),
)


class Tracer:
    """In-memory span recorder; spans are written out when a run ends."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: One ``[name, start, end, parent_index]`` row per finished or
        #: open span; the index of a row is its span id.
        self.spans: list[list] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records one span."""
        if getattr(fn, "__perfbench_traced__", False):
            return fn  # already wrapped via another module's binding

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            row = [name, time.perf_counter(), None, parent]
            with self._lock:
                index = len(self.spans)
                self.spans.append(row)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        """Wrap every probed layer (imports the program's modules)."""
        import importlib

        for module_name, owner_name, attr, span in LAYERS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, span)))
            else:
                setattr(owner, attr, self.wrap(raw, span))

    def snapshot(self) -> list[list]:
        """A copy of every span row; rows still open have end ``None``."""
        with self._lock:
            return [list(row) for row in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def duration_ms(row: list) -> float:
    return (row[2] - row[1]) * 1e3


def children(spans: list[list]) -> dict[int, list[int]]:
    """Span id -> ids of its direct traced children."""
    out: dict[int, list[int]] = {}
    for index, row in enumerate(spans):
        if row[2] is not None and row[3] >= 0:
            out.setdefault(row[3], []).append(index)
    return out


def self_times(spans: list[list], name: str) -> list[dict]:
    """Per span called ``name``: its duration split by direct children.

    Returns ``{"total": ms, "parts": {child name: ms}, "other": ms}``
    per span, where ``other`` (self time) is the total minus every
    direct child, so ``sum(parts) + other == total`` exactly.
    """
    kids = children(spans)
    out = []
    for index, row in enumerate(spans):
        if row[0] != name or row[2] is None:
            continue
        parts: dict[str, float] = {}
        for child in kids.get(index, ()):
            child_row = spans[child]
            parts[child_row[0]] = (
                parts.get(child_row[0], 0.0) + duration_ms(child_row)
            )
        total = duration_ms(row)
        out.append(
            {"total": total, "parts": parts,
             "other": total - sum(parts.values())}
        )
    return out


def durations(spans: list[list], name: str, outside: str | None = None,
              window: tuple[float, float] | None = None) -> list[float]:
    """Durations (ms) of spans called ``name``.

    ``outside`` keeps only spans whose parent chain does not contain a
    span called that (e.g. engine searches serving requests rather than
    those run by a refresh's warming).  ``window`` keeps only spans
    that ran entirely inside ``(start, end)`` on the
    ``time.perf_counter`` clock, which on Linux is the system-wide
    monotonic clock and so comparable across processes.
    """

    def has_ancestor(row: list, ancestor: str) -> bool:
        parent = row[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    out = []
    for row in spans:
        if row[0] != name or row[2] is None:
            continue
        if outside is not None and has_ancestor(row, outside):
            continue
        if window is not None and not (
            window[0] <= row[1] and row[2] <= window[1]
        ):
            continue
        out.append(duration_ms(row))
    return out
