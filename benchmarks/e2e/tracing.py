"""Span recorder installed from the harness around the public entry points.

The product code has no tracing of its own (ROADMAP aim 4), so the traced
run wraps the layer boundaries listed in :data:`SPAN_POINTS` from here and
takes the wrappers off again afterwards.  A span carries a name, start,
end, the span that caused it and the id of the public call it belongs to.
Spans stay in memory until :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the time its direct
children cover.  Children nest on the caller's thread, so the self times of
one call tree add up to the root span's duration exactly; that identity is
what lets the per-layer numbers sum to the phase.  Work handed to a pool
thread (async container flush, threaded ranged GETs) starts its own tree on
that thread: it overlaps the main thread, so it is reported apart
(``off_thread``) and never enters the sum.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def _oss_request(args, kwargs):
    """(key family, payload bytes) of ``oss.<verb>(bucket, key[, data])``."""
    key = args[2] if len(args) > 2 else kwargs.get("key", "")
    data = args[3] if len(args) > 3 else kwargs.get("data")
    size = len(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0
    return str(key).split("/", 1)[0], size


def _payload(args, kwargs):
    """(no tag, payload bytes) of ``chunker.boundaries(data)`` and the like."""
    data = args[1] if len(args) > 1 else kwargs.get("data", b"")
    return None, len(data)


#: (module, class, methods, describe).  The span name is ``Class.method``;
#: ``describe`` gives the span a tag and a size (OSS key family and payload
#: bytes, bytes scanned), so one OSS span can be attributed to the layer
#: that issued it.
SPAN_POINTS = [
    ("repro.core.system", "SlimStore", ("backup", "restore", "recover"), None),
    ("repro.core.system", "VersionCatalog", ("to_json",), None),
    ("repro.core.lnode", "LNode", ("backup", "restore"), None),
    ("repro.exec.engine", "ParallelExecutor", ("chunk_and_fingerprint",), None),
    ("repro.core.similar_index", "SimilarFileIndex", ("register", "load"), None),
    ("repro.core.recipe", "RecipeStore", ("put_recipe", "open_recipe"), None),
    ("repro.core.recipe", "RecipeHandle", ("get_segment_range",), None),
    (
        "repro.core.container",
        "ContainerStore",
        ("write", "read_data", "read_meta", "read_spans", "recover"),
        None,
    ),
    (
        "repro.core.global_index",
        "GlobalIndex",
        ("put_many", "get_many", "lookup", "recover"),
        None,
    ),
    ("repro.core.journal", "IntentJournal", ("begin", "update", "close", "recover"), None),
    ("repro.core.gnode", "GNode", ("reverse_dedup", "compact_sparse"), None),
    ("repro.core.restore_plan", "RestorePlanner", ("plan",), None),
    ("repro.core.browse", "BrowseSession", ("read", "fetch_chunks"), None),
    (
        "repro.oss.object_store",
        "ObjectStorageService",
        ("put_object", "get_object", "get_range", "get_ranges", "delete_object"),
        _oss_request,
    ),
]


class Tracer:
    """Records spans while installed; a no-op before and after."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        #: Root span of the public call in flight on the main thread (one
        #: closed-loop client, so there is at most one).
        self._current_call = -1
        self._saved: list[tuple[type, str, object]] = []

    # --- installation ------------------------------------------------------
    def install(self, chunker_class: type) -> None:
        """Wrap every span point (the concrete chunker class is passed in
        because ``Chunker.boundaries`` is abstract)."""
        points = [("Chunker", chunker_class, ("boundaries",), _payload)]
        for module, name, methods, describe in SPAN_POINTS:
            cls = getattr(importlib.import_module(module), name)
            points.append((name, cls, methods, describe))
        for name, cls, methods, describe in points:
            for method in methods:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, f"{name}.{method}", describe))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, describe):
        clock = time.perf_counter
        local = self._local
        spans = self.spans
        ids = self._ids
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The clock is read first and last, so the recorder's own work
            # lands inside the span and a call tree still tiles its root.
            start = clock()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            on_main = threading.get_ident() == main
            if stack:
                parent, call = stack[-1], stack[0]
            elif on_main:
                parent, call = -1, span_id
                self._current_call = span_id
            else:
                # A pool thread working for the call in flight.
                parent, call = -1, self._current_call
            tag, size = describe(args, kwargs) if describe else (None, 0)
            span = {
                "id": span_id,
                "name": name,
                "parent": parent,
                "call": call,
                "phase": self.phase,
                "main": on_main,
                "start": start,
                "end": start,
                "tag": tag,
                "size": size,
            }
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans.append(span)
                span["end"] = clock()

        return traced

    # --- output ------------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → self time (duration minus direct children's durations)."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - covered[span["id"]] for span in spans
    }


class PhaseProfile:
    """Main-thread self time and call counts of one phase, by span name."""

    def __init__(self, spans: list[dict], phase: str) -> None:
        selves = self_times(spans)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tagged_self_s: dict[tuple[str, object], float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.size_sum: dict[str, int] = defaultdict(int)
        self.tagged_size: dict[tuple[str, object], int] = defaultdict(int)
        self.off_thread_s = 0.0
        for span in spans:
            if span["phase"] != phase:
                continue
            duration = span["end"] - span["start"]
            if not span["main"]:
                if span["parent"] < 0:
                    self.off_thread_s += duration
                continue
            name = span["name"]
            self.self_s[name] += selves[span["id"]]
            self.tagged_self_s[(name, span["tag"])] += selves[span["id"]]
            self.total_s[name] += duration
            self.calls[name] += 1
            self.size_sum[name] += span["size"]
            self.tagged_size[(name, span["tag"])] += span["size"]

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def self_of_class(self, prefix: str) -> float:
        """Self time of every span of one class (``"GlobalIndex."``)."""
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def oss_self(self, methods: tuple[str, ...], tag: str | None = None) -> float:
        """OSS self time of the given request kinds, optionally one key family."""
        total = 0.0
        for (name, span_tag), seconds in self.tagged_self_s.items():
            if name in methods and (tag is None or span_tag == tag):
                total += seconds
        return total
