"""A span recorder that times layers from outside.

Nothing under ``src/`` knows it is being traced.  The recorder wraps a
layer's *public* callables where their callers look them up — a method
on its class, a function in the namespace of the module that imported
it — records ``(name, start, end, parent, request id)`` around each
call, keeps the spans in memory, and puts every original back when the
``with`` block ends.  Spans inside the program are a later change; this
one is the instrument they will be checked against.

Parents come from a per-thread stack.  A span opened on a thread with an
empty stack (the coordinator's fan-out threads) is parented to the
driving thread's innermost open span, which is right because the traced
replay runs one request at a time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    #: A number read off the wrapped call's result (see ``Recorder.wrap``).
    note: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._driver_stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        stack = self._stack()
        cause = stack[-1] if stack else (
            self._driver_stack[-1] if self._driver_stack else None
        )
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=None if cause is None else cause.id,
                request=(
                    request
                    if request is not None or cause is None
                    else cause.request
                ),
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    # Wrapping a layer's public callables
    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: Optional[str] = None,
        namer: Optional[Callable[..., str]] = None,
        note: Optional[Callable[[object], float]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``namer(*args)`` may compute the span name per call (used to
        name an estimator's span after the estimator); ``note(result)``
        may keep one number of the call's result on the span (a shard's
        self-reported seconds, a kernel's probe count).
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name if namer is None else namer(*args)
            with recorder.span(label) as span:
                result = original(*args, **kwargs)
                if note is not None:
                    span.note = note(result)
                return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unwrap_all()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        return self_times(self.spans)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        document = {
            **header,
            "clock": "time.perf_counter, seconds",
            "spans": [
                {
                    "id": span.id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                    "self": own[span.id],
                    **({} if span.note is None else {"note": span.note}),
                }
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(document))


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap (the fan-out threads), so the covered part is
    the length of the union of their intervals, clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result
