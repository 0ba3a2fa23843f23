"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into
the program's public functions: either directly (``with
tracer.span(...)``) or through attribute-replacement wrappers
(:meth:`Tracer.wrap`) installed before the engine is built.  Nothing
under ``src/`` knows about this module.

A span is ``(name, start, end, parent, flush id)``.  Parents come from a
per-thread stack, so a wrapper called inside another wrapper's call
nests under it; spans of one flush share its id.  Spans stay in memory
and are written once, at exit, in Chrome trace-event format.

Forked pool workers inherit the wrappers; an ``os.register_at_fork``
hook switches recording off in every child so workers pay one boolean
test per wrapped call and keep no spans (worker-side time is obtained
by replaying payloads in the parent, see ``layers.py``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass(slots=True, eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: Optional["Span"]
    flush: int          # 0 = not inside a flush
    tid: int
    phase: Optional[str]
    #: Roots are the benchmark's own operation spans (a client request,
    #: one sequential query); they cause layer spans but are not layers.
    root: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`enabled`; a disabled tracer costs one
    attribute test per wrapped call."""

    def __init__(self) -> None:
        self.enabled = False
        #: Label stamped on every span: "setup", "segment" or "cold".
        self.phase: Optional[str] = None
        self.spans: List[Span] = []
        self._tls = threading.local()
        self._flush_ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def new_flush_id(self) -> int:
        return next(self._flush_ids)

    @contextmanager
    def span(self, name: str, *, root: bool = False, flush: Optional[int] = None):
        """Record one span around the ``with`` body (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if flush is None:
            flush = parent.flush if parent is not None else 0
        span = Span(
            name, time.perf_counter(), 0.0, parent, flush,
            threading.get_ident(), self.phase, root,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def record(self, name: str, start: float, end: float, *, tid: int) -> None:
        """Add a finished root span measured by the caller.

        For coroutine-side spans (client requests): coroutines interleave
        on one thread, so the per-thread stack cannot parent them.
        """
        if self.enabled:
            self.spans.append(
                Span(name, start, end, None, 0, tid, self.phase, root=True)
            )

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        sites: Iterable[object] = (),
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``sites`` are further modules that imported the function by name
        (``from x import f`` binds a second reference the owner's
        attribute does not reach).  ``after(span, args, kwargs, result)``
        runs after a recorded call, outside the span.  Static and class
        methods keep their descriptor kind.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        replacement = kind(traced) if kind is not None else traced
        for site in (owner, *sites):
            current = inspect.getattr_static(site, attr)
            if current is not raw:
                raise RuntimeError(
                    f"{site!r}.{attr} is not the function defined on "
                    f"{owner!r}; the wrapper list is out of date"
                )
            setattr(site, attr, replacement)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[Span, float]:
        """Each span's duration minus the part its child spans cover."""
        own = {span: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write_chrome_trace(self, path: str) -> None:
        """Dump every span as a Chrome trace-event ``X`` (complete) event."""
        ids = {span: i for i, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.phase or "run",
                "ph": "X",
                "ts": round(1e6 * (span.start - origin), 1),
                "dur": round(1e6 * span.duration, 1),
                "pid": os.getpid(),
                "tid": span.tid,
                "args": {
                    "id": ids[span],
                    "parent": ids.get(span.parent),
                    "flush": span.flush,
                },
            }
            for span in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
