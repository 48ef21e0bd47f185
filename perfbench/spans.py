"""In-memory span recording by wrapping functions at layer boundaries.

A :class:`SpanRecorder` replaces chosen functions and methods with thin
wrappers for the length of one traced run and puts the originals back
afterwards, so untraced runs execute the unmodified program. Each call
through a wrapper records one span: a name, start and end times from
``time.perf_counter_ns``, the index of the enclosing span (carried in a
``contextvars.ContextVar``, so it follows ``await`` and is copied into
tasks spawned inside the span), and an optional note derived from the
call's arguments or result (an RPC op name, a frame size).

Spans live in a plain list until the run ends. :func:`self_times`
turns them into self time: a span's duration minus the union of its
children's intervals, clipped to the span. Union, not sum, because the
children of an ``async`` span can overlap (a hedged duplicate RPC, the
fan-out of a batch) and a child started in a task the span spawned can
outlive the span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanRecorder", "interval_union", "self_times"]

#: ``(name, start_ns, end_ns, parent_index or None, note)``.
Span = Tuple[str, int, int, Optional[int], Any]

Note = Callable[[tuple, dict, Any], Any]


class SpanRecorder:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench-span", default=None
        )
        #: ``(owner, attribute, original or None if inherited)``, in
        #: installation order.
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def wrap(
        self, owner: Any, attribute: str, name: str, note: Optional[Note] = None
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute`` (a module function or a class's method)."""
        own = vars(owner).get(attribute)
        function = getattr(owner, attribute)
        if inspect.iscoroutinefunction(function):
            wrapper = self._async_wrapper(function, name, note)
        else:
            wrapper = self._sync_wrapper(function, name, note)
        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, own = self._installed.pop()
            if own is None:
                delattr(owner, attribute)  # it was inherited: unshadow it
            else:
                setattr(owner, attribute, own)

    def _sync_wrapper(self, function: Callable, name: str, note: Optional[Note]):
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index, parent, token, start = open_span()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                close_span(index, parent, token, start, name, note, args, kwargs, result)

        return wrapper

    def _async_wrapper(self, function: Callable, name: str, note: Optional[Note]):
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            index, parent, token, start = open_span()
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                close_span(index, parent, token, start, name, note, args, kwargs, result)

        return wrapper

    def _open(self) -> Tuple[int, Optional[int], contextvars.Token, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._current.get()
        token = self._current.set(index)
        return index, parent, token, time.perf_counter_ns()

    def _close(
        self,
        index: int,
        parent: Optional[int],
        token: contextvars.Token,
        start: int,
        name: str,
        note: Optional[Note],
        args: tuple,
        kwargs: dict,
        result: Any,
    ) -> None:
        end = time.perf_counter_ns()
        self._current.reset(token)
        detail = note(args, kwargs, result) if note is not None else None
        self.spans[index] = (name, start, end, parent, detail)


def interval_union(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    reach: Optional[int] = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(
    spans: Sequence[Optional[Span]], indices: Optional[Iterable[int]] = None
) -> Dict[int, int]:
    """Self time (ns) of finished spans, keyed by span index.

    ``spans`` is the recorder's list as is, so that parent indices
    resolve. ``indices`` limits the result to those spans (default:
    all). Unfinished entries (``None``) are skipped, and a child whose
    parent never finished counts for nobody.
    """
    wanted = set(range(len(spans)) if indices is None else indices)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span is not None and span[3] in wanted:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result: Dict[int, int] = {}
    for index in wanted:
        span = spans[index]
        if span is None:
            continue
        _, start, end, _, _ = span
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result[index] = (end - start) - interval_union(clipped)
    return result
