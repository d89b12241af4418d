"""Trace sinks: where the engine's event stream goes.

A sink is anything with an ``emit(event)`` method and an ``enabled``
flag. The engine treats a disabled sink (``enabled=False``) exactly like
no sink at all — it never constructs event objects — so the default
:class:`NullSink` is zero-overhead by design, not by luck.

Three implementations cover the common cases:

* :class:`NullSink` — the disabled default;
* :class:`InMemorySink` — collect events in a list (tests, notebooks);
* :class:`JsonlSink` — one JSON object per line to a file, deterministic
  byte-for-byte at a fixed seed (the golden-trace substrate).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator, Protocol, Union, runtime_checkable

from repro.durability.atomic import AtomicTextFile
from repro.exceptions import UnknownAttributeError
from repro.obs.events import IterationEvent, TraceEvent, header_record

__all__ = [
    "TraceSink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "serialize_event",
]


@runtime_checkable
class TraceSink(Protocol):
    """What the engine needs from a trace destination."""

    #: When False the engine skips event construction entirely.
    enabled: bool

    def emit(self, event: TraceEvent) -> None:
        """Receive one trace event."""
        ...  # pragma: no cover - protocol


def serialize_event(record: TraceEvent | dict[str, object]) -> str:
    """Canonical one-line JSON for a trace record.

    Sorted keys and minimal separators make the rendering independent of
    dict construction order, so traces from two runs at the same seed are
    byte-identical — the invariant the golden-trace suite pins.
    """
    payload = record.as_dict() if isinstance(record, TraceEvent) else record
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class NullSink:
    """The disabled sink: accepts nothing, costs nothing."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        """Discard the event (the engine never calls this when disabled)."""


class InMemorySink:
    """Collect events in order; the test- and notebook-friendly sink."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Events whose ``event`` discriminator equals ``kind``."""
        return [e for e in self.events if type(e).event == kind]

    def kinds(self) -> list[str]:
        """The discriminator sequence, in emission order."""
        return [type(e).event for e in self.events]

    def widths(self, attribute: str) -> list[tuple[int, float]]:
        """``(sample_size, upper - lower)`` of every iteration bounding ``attribute``.

        An attribute decided or pruned early keeps the widths of the
        iterations it took part in.

        Raises
        ------
        UnknownAttributeError
            If ``attribute`` appears in no recorded ``iteration`` event —
            a silent ``[]`` would mask typos in diagnostics code.
        """
        out = []
        for event in self.events:
            if isinstance(event, IterationEvent) and attribute in event.bounds:
                lower, upper = event.bounds[attribute]
                out.append((event.sample_size, upper - lower))
        if not out:
            raise UnknownAttributeError(
                f"attribute {attribute!r} appears in no recorded iteration"
                " of this trace"
            )
        return out


class JsonlSink:
    """Write events as JSON Lines; deterministic at a fixed seed.

    The first line is always the schema header
    (``{"event": "header", "schema_version": ...}``) so a trace file
    identifies its own wire format even when the query emitted nothing.
    Accepts a path (owned; the stream goes through
    :class:`repro.durability.atomic.AtomicTextFile`, so the destination
    is only published — by rename — when :meth:`close` runs cleanly, and
    a crash mid-trace leaves the previous trace intact instead of a
    truncated one) or any writable text file object (borrowed; never
    closed by the sink).
    """

    enabled = True

    def __init__(self, destination: Union[str, Path, IO[str]]) -> None:
        if isinstance(destination, (str, Path)):
            self._file: Union[IO[str], AtomicTextFile] = AtomicTextFile(
                destination, encoding="utf-8"
            )
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False
        self.event_count = 0
        self._file.write(serialize_event(header_record()) + "\n")

    def emit(self, event: TraceEvent) -> None:
        self._file.write(serialize_event(event) + "\n")
        self.event_count += 1

    def close(self) -> None:
        """Flush, and close the file if this sink opened it."""
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
