"""In-memory spans around calls into the ``repro`` modules (traced runs only).

:func:`install` wraps public functions and methods of the program with a
recorder that notes name, start, end and parent of every call.  The
wrappers live here, in the benchmark, and are installed only by a traced
run; the program itself is never edited.  :func:`uninstall` restores the
originals.

Self time of a span is its duration minus the part of its interval its
children cover (children of one parent never overlap on one thread).
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    tag: str = ""
    #: bytes of the cached view this call built (0 when it returned a cached one)
    built_bytes: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder: a per-thread stack of open spans, spans kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        #: ``(id(owner), id(view))`` of every cached view seen on a live owner
        self._views: set = set()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: str = "") -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                stack[-1].sid if stack else None,
                threading.current_thread().name,
                time.perf_counter(),
                tag=tag,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def first_view(self, owner, view) -> bool:
        """True the first time ``owner`` returns ``view``: the call built it.

        The owner keeps the view alive, and the entry is dropped when the
        owner dies, so an id is never confused with a later object's.
        """
        key = (id(owner), id(view))
        if key in self._views:
            return False
        self._views.add(key)
        weakref.finalize(owner, self._views.discard, key)
        return True

    def wrap(self, fn, name: str, tag_fn=None, cached_view=False):
        """``fn`` recording a span per call; with ``cached_view`` (a method
        returning an array its owner caches) the span also notes the bytes
        of a view the call built."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, tag_fn(*args, **kwargs) if tag_fn else "")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if cached_view and tracer.first_view(args[0], out):
                span.built_bytes = out.nbytes
            return out

        return traced

    # -- installation ----------------------------------------------------
    def patch(self, owner, attr: str, name: str, tag_fn=None, cached_view=False) -> None:
        """Replace ``owner.attr`` (function, method or property) by a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, tag_fn, cached_view))
        else:
            replacement = self.wrap(original, name, tag_fn, cached_view)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def index(self) -> "SpanIndex":
        return SpanIndex(self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "thread": s.thread,
                            "tag": s.tag,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


class SpanIndex:
    """Parent/child lookups over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.kids: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.kids.setdefault(s.parent, []).append(s)

    def root(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.by_id[span.parent]
        return span

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.by_id[span.parent]
            if span.name == name:
                return True
        return False

    def under(self, root_names: set[str]) -> list[Span]:
        """Spans whose top-level ancestor is named in ``root_names``."""
        return [s for s in self.spans if self.root(s).name in root_names]

    def self_time(self, span: Span) -> float:
        return span.dur - sum(c.dur for c in self.kids.get(span.sid, ()))


def _mesh_tag(self, mesh, *args, **kwargs) -> str:
    return "torus" if mesh.torus else "mesh"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer the benchmark reaches."""
    import repro
    import repro.cache
    import repro.kernels
    from repro.core.pathset import PathSet
    from repro.core.path_selection import HierarchicalRouter
    from repro.core.rect import RectHierarchicalRouter
    from repro.routing.base import Router, RoutingResult
    from repro.service.client import ServiceClient
    from repro.workloads.traffic import HotspotTraffic

    tracer.patch(Router, "route", "route")
    tracer.patch(HierarchicalRouter, "select_path", "select_path", _mesh_tag)
    tracer.patch(RectHierarchicalRouter, "select_path", "select_path", lambda *a, **k: "rect")
    tracer.patch(repro.kernels, "assemble_paths", "kernels.assemble_paths")
    tracer.patch(repro.kernels, "decycle_paths", "kernels.decycle_paths")
    tracer.patch(PathSet, "edge_ids", "pathset.edge_ids", cached_view=True)
    tracer.patch(RoutingResult, "congestion", "metrics.congestion")
    tracer.patch(RoutingResult, "stretches", "metrics.stretches")
    tracer.patch(repro, "simulate_online", "simulate_online")
    tracer.patch(HotspotTraffic, "arrivals_at", "traffic.arrivals_at")
    tracer.patch(ServiceClient, "route", "client.route")

    original_memo = repro.cache.memo

    def memo(kind, key, factory):
        return original_memo(kind, key, tracer.wrap(factory, "cache.build", lambda: kind))

    repro.cache.memo = memo
    tracer._undo.append((repro.cache, "memo", original_memo))
