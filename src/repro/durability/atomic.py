"""Atomic write-rename: the one sanctioned way to write durable artifacts.

A checkpoint, trace, metrics dump, or bench-result file that a crash can
truncate is worse than no file at all — a resuming process (or a CI
diff) would read half a JSON document and fail far from the fault. The
helpers here write to a hidden sibling temp file in the *same directory*
(same filesystem, so the final :func:`os.replace` is an atomic rename on
POSIX) and fsync before renaming, so the destination path only ever
holds a complete artifact: either the previous version or the new one,
never a prefix of the new one.

``tests/test_source_invariants.py`` keeps other ``src/repro`` modules
from calling ``open(path, "w")`` / ``Path.write_text``; this package (and
the fault injectors in :mod:`repro.testing`) are the two exempt packages.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["AtomicTextFile", "atomic_write_bytes", "atomic_write_text"]


def _temp_sibling(target: Path) -> Path:
    """A hidden temp path next to ``target`` (same dir ⇒ same filesystem)."""
    return target.with_name(f".{target.name}.tmp-{os.getpid()}")


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename).

    Returns the destination path. On any failure the temp file is
    removed best-effort and the destination is left untouched (holding
    its previous contents, if any).
    """
    target = Path(path)
    tmp = _temp_sibling(target)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return target


def atomic_write_text(
    path: Union[str, Path], text: str, *, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically; see :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


class AtomicTextFile:
    """A streaming text writer that commits via rename on :meth:`close`.

    For artifacts built incrementally (JSONL traces), buffering the
    whole document in memory is wasteful; this wrapper streams into the
    temp sibling and renames it over the destination only when closed
    cleanly. A crash mid-stream leaves the previous version of the
    destination intact (or no file at all on first write) — never a
    truncated stream. :meth:`abort` discards the temp file without
    touching the destination.

    Duck-compatible with the slice of the text-IO interface
    :class:`repro.obs.sinks.JsonlSink` needs: ``write``/``flush``/
    ``close``, plus the context-manager protocol (committing on clean
    exit, aborting when an exception is in flight).
    """

    def __init__(self, path: Union[str, Path], *, encoding: str = "utf-8") -> None:
        self._target = Path(path)
        self._tmp = _temp_sibling(self._target)
        self._file = open(self._tmp, "w", encoding=encoding)
        self._closed = False

    @property
    def path(self) -> Path:
        """The destination path the stream commits to."""
        return self._target

    def write(self, text: str) -> int:
        return self._file.write(text)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        """Fsync, close, and atomically publish the stream to its path."""
        if self._closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        os.replace(self._tmp, self._target)
        self._closed = True

    def abort(self) -> None:
        """Discard the stream: close and remove the temp file."""
        if self._closed:
            return
        self._file.close()
        try:
            self._tmp.unlink()
        except OSError:
            pass
        self._closed = True

    def __enter__(self) -> "AtomicTextFile":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()
