"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows it is being traced. A :class:`Tracer`
replaces public functions and methods *at the attributes the call sites
resolve at call time* — module globals (``from x import f`` copies
included) and class attributes — with timing wrappers, and undoes the
swap afterwards. Spans are kept in memory and written out once, at the
end of the traced repetition.

Three kinds of record:

* **spans** — one per call: ``(id, name, start, end, parent, thread,
  attrs)``. The parent is the innermost open span in the caller's
  :mod:`contextvars` context, so nesting is right across threads and
  across asyncio tasks alike.
* **leaves** — hot functions called hundreds of thousands of times
  (``TenantAggregate.observe``, the beacon encoder) are not kept one
  record per call; their count and total time are summed per
  ``(parent, name)``. Anything called *inside* a leaf belongs to the
  leaf.
* **asyncio steps** — with :meth:`Tracer.task_factory` installed on a
  loop, every step of every task (one ``coroutine.send``) is a span
  named after the coroutine. A step cannot be suspended, so steps and
  the synchronous spans inside them nest properly on the loop thread,
  and the glue code between layer calls (queue puts, batching, merge
  loops) is attributed to the task that ran it.

Self time is a span's duration minus the part of it covered by its
child spans (clipped to the parent) and by the leaves under it.
"""

from __future__ import annotations

import collections.abc
import contextvars
import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

#: ``(span_id, attrs)`` of the innermost open span, or ``(parent_id,
#: LEAF)`` while a leaf runs.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_current_span", default=None)
LEAF = object()


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        #: ``(parent, name) -> [calls, total_s]``
        self.leaves: dict[tuple[int | None, str], list] = {}
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)
        return span_wrapper

    def _call(self, name: str, fn: Callable, /, *args, **kwargs):
        current = _CURRENT.get()
        if current is not None and current[1] is LEAF:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        attrs: dict = {}
        token = _CURRENT.set((span_id, attrs))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, name, start, end,
                                   current[0] if current else None,
                                   threading.get_ident(), attrs or None))

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """``fn`` adding its call count and time to its parent's totals."""
        leaves = self.leaves

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            current = _CURRENT.get()
            if current is not None and current[1] is LEAF:
                return fn(*args, **kwargs)
            parent = current[0] if current else None
            token = _CURRENT.set((parent, LEAF))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _CURRENT.reset(token)
                entry = leaves.get((parent, name))
                if entry is None:
                    leaves[(parent, name)] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
        return leaf_wrapper

    @staticmethod
    def annotate(**attrs) -> None:
        """Attach attributes to the innermost open span."""
        current = _CURRENT.get()
        if current is not None and current[1] is not LEAF:
            current[1].update(attrs)

    def reserve(self) -> int:
        """A fresh id for a measured window: calls made under
        :meth:`enter` with it become its children. The window itself
        is not a span; :meth:`dump` records it as ``root``."""
        return next(self._ids)

    @staticmethod
    def enter(span_id: int) -> contextvars.Token:
        """Make ``span_id`` the parent of spans started from here on."""
        return _CURRENT.set((span_id, {}))

    @staticmethod
    def leave(token: contextvars.Token) -> None:
        _CURRENT.reset(token)

    # -- asyncio -------------------------------------------------------------

    def task_factory(self, names: dict[str, str]):
        """A ``loop.set_task_factory`` callable recording each task step
        as a span named ``names[coroutine qualname]`` (or
        ``asyncio.<qualname>``)."""
        import asyncio

        def factory(loop, coro, context=None):
            qualname = getattr(coro, "__qualname__", type(coro).__name__)
            stepped = _SteppedCoroutine(
                coro, names.get(qualname, f"asyncio.{qualname}"), self)
            return asyncio.Task(stepped, loop=loop, context=context)
        return factory

    # -- patching ------------------------------------------------------------

    def patch_function(self, original: Callable, replacement: Callable,
                       package: str = "repro") -> int:
        """Point every module global under ``package`` that holds
        ``original`` at ``replacement``; returns how many were patched."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or
                                      module_name.startswith(package + ".")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)
                    self._undo.append((module, attribute, original))
                    patched += 1
        return patched

    def patch_method(self, cls: type, name: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` with ``make(function)``, keeping a
        ``classmethod`` a classmethod."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, raw))

    def undo(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str, window: tuple[float, float], root: int,
             **meta) -> None:
        """Write every record as JSON. ``window`` is the measured
        interval and ``root`` the reserved id its calls were parented
        under (see :meth:`reserve`)."""
        payload = dict(meta)
        payload.update({
            "run_id": self.run_id,
            "window": list(window),
            "root": root,
            "main_thread": threading.main_thread().ident,
            "spans": [list(span) for span in self.spans],
            "leaves": [[parent, name, calls, total]
                       for (parent, name), (calls, total)
                       in self.leaves.items()],
        })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _SteppedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every ``send``/``throw`` is a recorded span."""

    __slots__ = ("_coro", "_name", "_tracer", "__qualname__")

    def __init__(self, coro, name: str, tracer: Tracer) -> None:
        self._coro = coro
        self._name = name
        self._tracer = tracer
        self.__qualname__ = getattr(coro, "__qualname__", name)

    def send(self, value):
        return self._tracer._call(self._name, self._coro.send, value)

    def throw(self, *exc_info):
        return self._tracer._call(self._name, self._coro.throw, *exc_info)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self._coro.__await__()


# -- analysis -----------------------------------------------------------------


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["spans"] = [Span(*row) for row in payload["spans"]]
    return payload


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span], leaves: list) -> dict[int, float]:
    """Per span id: duration minus the union of its children's
    intervals (clipped to the span) minus the leaf time under it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    leaf_time: dict[int | None, float] = defaultdict(float)
    for parent, _name, _calls, total in leaves:
        leaf_time[parent] += total
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ()))
        result[span.id] = (span.end - span.start) - covered \
            - leaf_time[span.id]
    return result


def layer_table(trace: dict) -> tuple[list[tuple[str, float, int]], float]:
    """``([(layer, self_s, calls)] sorted by self time, coverage)``.

    Spans count clipped to the measured window; coverage is the share
    of the window some span or leaf covers, on any thread — while the
    loop waits for the gateway's checkpoint writer, the writer's span
    covers that time. Spans on threads other than the one that ran the
    window are listed as ``<name> [thread]``.
    """
    start, end = trace["window"]
    spans = trace["spans"]
    leaves = trace["leaves"]
    selfs = self_times(spans, leaves)
    main = trace["main_thread"]
    by_layer: dict[str, list] = defaultdict(lambda: [0.0, 0])
    covered = []
    for span in spans:
        clipped = min(span.end, end) - max(span.start, start)
        if clipped <= 0:
            continue
        share = clipped / (span.end - span.start) if span.end > span.start \
            else 1.0
        name = span.name if span.thread == main \
            else f"{span.name} [thread]"
        by_layer[name][0] += selfs[span.id] * share
        by_layer[name][1] += 1
        covered.append((max(span.start, start), min(span.end, end)))
    in_window = {span.id for span in spans
                 if span.start < end and span.end > start}
    root = trace.get("root")
    top_level_leaves = 0.0
    for parent, name, calls, total in leaves:
        if parent in in_window or parent == root:
            by_layer[name][0] += total
            by_layer[name][1] += calls
        if parent == root:
            top_level_leaves += total
    window = end - start
    coverage = ((union_length(covered) + top_level_leaves) / window
                if window > 0 else 0.0)
    rows = sorted(((name, values[0], values[1])
                   for name, values in by_layer.items()),
                  key=lambda row: -row[1])
    return rows, coverage


def render_report(workload: str, trace: dict, overhead_ratio: float) -> str:
    """The per-layer self-time table of one traced repetition."""
    rows, coverage = layer_table(trace)
    start, end = trace["window"]
    window = end - start
    lines = [f"trace {workload}: window {window:.3f} s, "
             f"span coverage {coverage:.1%}, "
             f"trace.overhead_ratio {overhead_ratio:+.3f}",
             f"  {'layer':<44} {'self s':>9} {'share':>7} {'calls':>9}"]
    for name, self_s, calls in rows:
        lines.append(f"  {name:<44} {self_s:>9.4f} "
                     f"{self_s / window if window else 0.0:>7.1%} "
                     f"{calls:>9}")
    uncovered = window * (1.0 - coverage)
    lines.append(f"  {'(no span: harness, loop idle)':<44} {uncovered:>9.4f} "
                 f"{1.0 - coverage:>7.1%}")
    return "\n".join(lines)
