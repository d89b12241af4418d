"""In-memory span tracer that wraps library functions from the outside.

The benchmark never edits the code it measures. Instead, for a traced
run, :class:`Tracer` replaces named functions and methods of the
library with thin wrappers that record one :class:`Span` per call
(name, start, end, parent span, operation id), then puts every original
back and checks that each restored attribute is the very object it
replaced.

Targets are resolved by module and attribute path before anything is
wrapped: a missing or renamed target raises :class:`TracerError` naming
it, so a refactor of the library can never turn a layer's time into a
silent zero.

Self time is a span's duration minus the durations of its direct
children. Summed over every span of an operation, self times telescope
to the summed duration of the operation's top-level spans, so
``operation wall time - sum(self times)`` is exactly the time spent
outside every wrapped call (:func:`unattributed`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Name of the benchmark's own root span around each operation.
OPERATION_SPAN = "bench.operation"


class TracerError(RuntimeError):
    """A wrap target is missing, or a restore did not give back the original."""


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` plus a dotted ``attribute`` path.

    ``attribute`` is either a module-level name (``"save_checkpoint"``)
    or ``Class.method`` (``"PrefixSampler.__init__"``); the method must
    be defined on that class itself, not inherited. ``observe``, when
    given, runs after each call with ``(tracer, args, kwargs, result,
    before)`` to record counts at the same boundary (``tracer.count``);
    ``before``, when given, runs before the call with ``(args, kwargs)``
    and its return value is passed on as ``before``.
    """

    module: str
    attribute: str
    span: str
    observe: Callable[..., None] | None = None
    before: Callable[..., Any] | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attribute}"


@dataclass(slots=True)
class Span:
    """One recorded call. Times are ``time.perf_counter()`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    operation: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Installed:
    target: Target
    owner: Any
    name: str
    original: Any  # the raw attribute (function, classmethod, ...)
    replacement: Any


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """``(owner, name, raw attribute)`` for ``target``, or :class:`TracerError`."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError as exc:
        raise TracerError(
            f"trace target {target.label}: cannot import module"
            f" {target.module!r} ({exc})"
        ) from None
    *path, name = target.attribute.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise TracerError(
                f"trace target {target.label}: {part!r} not found in"
                f" {getattr(owner, '__name__', owner)!r}"
            )
        owner = getattr(owner, part)
    namespace = vars(owner)
    if name not in namespace:
        raise TracerError(
            f"trace target {target.label}: {name!r} is not defined on"
            f" {getattr(owner, '__name__', owner)!r}"
        )
    raw = namespace[name]
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(func):
        raise TracerError(f"trace target {target.label} is not callable")
    return owner, name, raw


class Tracer:
    """Record spans around the calls of a fixed set of :class:`Target` s.

    Construction resolves every target (fail loud). :meth:`install`
    swaps the wrappers in, :meth:`uninstall` restores and verifies the
    originals. Spans are recorded only between :meth:`begin_operation`
    and :meth:`end_operation`; wrappers called outside an operation pass
    straight through.
    """

    def __init__(self, targets: Sequence[Target]) -> None:
        labels = [t.label for t in targets]
        duplicates = sorted({x for x in labels if labels.count(x) > 1})
        if duplicates:
            raise TracerError(f"trace targets listed twice: {duplicates}")
        self._resolved = [(t, *_resolve(t)) for t in targets]
        self._installed: list[_Installed] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._operation: int | None = None
        self._op_start = 0.0
        self._next_id = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise TracerError("tracer is already installed")
        try:
            for target, owner, name, raw in self._resolved:
                if vars(owner).get(name) is not raw:
                    raise TracerError(
                        f"trace target {target.label} changed between"
                        " resolution and install"
                    )
                replacement = self._wrap(target, raw)
                setattr(owner, name, replacement)
                self._installed.append(
                    _Installed(target, owner, name, raw, replacement)
                )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original; raise if any restore is not exact."""
        problems = []
        for item in reversed(self._installed):
            if vars(item.owner).get(item.name) is not item.replacement:
                problems.append(f"{item.target.label} was replaced while traced")
            setattr(item.owner, item.name, item.original)
            if vars(item.owner).get(item.name) is not item.original:
                problems.append(f"{item.target.label} did not restore")
        self._installed = []
        if problems:
            raise TracerError("; ".join(problems))

    def _wrap(self, target: Target, raw: Any) -> Any:
        is_classmethod = isinstance(raw, classmethod)
        is_staticmethod = isinstance(raw, staticmethod)
        func = raw.__func__ if (is_classmethod or is_staticmethod) else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._operation is None:
                return func(*args, **kwargs)
            before = (
                target.before(args, kwargs) if target.before is not None else None
            )
            span_id = tracer._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_id, target.span, start, time.perf_counter())
            tracer.count(f"{target.span}.calls")
            if target.observe is not None:
                target.observe(tracer, args, kwargs, result, before)
            return result

        if is_classmethod:
            return classmethod(wrapper)
        if is_staticmethod:
            return staticmethod(wrapper)
        return wrapper

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        assert self._operation is not None
        self.spans.append(Span(span_id, name, start, end, parent, self._operation))

    def begin_operation(self, operation: int) -> None:
        if self._operation is not None:
            raise TracerError("operations do not nest")
        self._operation = operation
        self._op_start = time.perf_counter()
        self._stack = [self._open()]

    def end_operation(self) -> float:
        """Close the operation's root span; return its wall time."""
        end = time.perf_counter()
        root = self._stack[0]
        self._stack = [root]
        self._close(root, OPERATION_SPAN, self._op_start, end)
        self._operation = None
        return end - self._op_start


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    spans = list(spans)
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.span_id]
    return totals


def unattributed(spans: Iterable[Span]) -> float:
    """Summed self time of the operation root spans: time in no wrapped call."""
    return self_time_by_name(spans).get(OPERATION_SPAN, 0.0)


# ----------------------------------------------------------------------
# Chrome trace-event dump
# ----------------------------------------------------------------------
def chrome_trace(spans: Iterable[Span], metadata: dict[str, Any]) -> dict[str, Any]:
    """Spans as Chrome trace-event JSON (opens in Perfetto, chrome://tracing)."""
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    origin = spans[0].start if spans else 0.0
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "span_id": s.span_id,
                "parent": s.parent,
                "operation": s.operation,
            },
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def write_chrome_trace(
    path: Path, spans: Iterable[Span], metadata: dict[str, Any]
) -> None:
    path.write_text(json.dumps(chrome_trace(spans, metadata)), encoding="utf-8")
