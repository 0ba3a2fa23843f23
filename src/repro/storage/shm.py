"""Shared-memory payload arena: named byte segments one owner writes.

A :class:`ShmArena` is a named family of ``multiprocessing.shared_memory``
segments holding the scatter payload codec's blocks
(:mod:`repro.core.payload`).  The engine that owns the arena writes a
block once with :meth:`ShmArena.add_bytes`; a shard host — forked or a
separate ``repro shard-host`` process on the same machine — copies it
out with :meth:`ShmArena.read_column_bytes`, knowing only the arena
*name* and the column (both carried by an
:class:`~repro.core.payload.ArenaRef`).  Readers open, copy and close:
no process but the owner holds a mapping, so a SIGKILLed host leaves
nothing behind.  An arena named ``A`` owns one segment per column,
named ``A.<column>``, holding the column's raw bytes; creating an arena
creates no segment, and the owner's :meth:`ShmArena.columns` is the
only directory.  Kernel arrays never live here: forked hosts inherit
them through copy-on-write and remote hosts build their own.

Lifecycle
---------
``close()`` and ``unlink()`` are both idempotent.  ``close()`` drops
the owner's mappings; ``unlink()`` removes the *names* from
``/dev/shm`` (POSIX keeps the memory alive for existing mappings), and
``destroy()`` does both.  ``drop_column()`` retires one superseded
block.  A ``weakref.finalize`` unlinks every live segment as a last
resort, so even an abandoned arena leaves ``/dev/shm`` clean.

``resource_tracker`` discipline: CPython (< 3.13) registers a segment
with the resource tracker on open as well as create.  A process forked
after its parent's tracker started shares it — the arena starts it on
construction, or a forked host's first open would start a private one
that unlinks the owner's live segments when the host exits — so there
the open-side registration is an idempotent set-add that must NOT be
compensated (an unregister would erase the creator's entry and make
the final ``unlink()`` raise ``KeyError`` noise in the tracker); the
owner's ``SharedMemory.unlink`` is the one unregister per segment.  An
*unrelated* process — a socket-transport shard host
(:mod:`repro.serve.shardhost`) — would run its OWN tracker, which
unlinks the creator's live segments when the host exits.  Such a
process calls :func:`set_untracked_attach`, after which its opens go
around ``SharedMemory`` (``shm_open`` + ``mmap``): nothing is
registered and no tracker process is ever started in it.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Tuple

__all__ = [
    "ShmArena",
    "ShmArenaError",
    "arena_segments",
    "set_untracked_attach",
    "untracked_attach_enabled",
    "SHM_PREFIX",
]

#: Every segment this tier creates starts with this prefix, so tests
#: (and the CI leak-check) can scan ``/dev/shm`` for leftovers without
#: tripping over unrelated segments.
SHM_PREFIX = "reproshm-"

_NAME_COUNTER = 0
_NAME_LOCK = threading.Lock()

#: Process-wide open-tracking mode: True (set by
#: :func:`set_untracked_attach` in an unrelated reader) makes opens
#: leave no resource_tracker registration in this process.
_UNTRACKED_ATTACH = False


def set_untracked_attach(enabled: bool = True) -> None:
    """Declare this process an *unrelated* reader (shard host).

    Must be called before any segment is opened in the process.  With
    it enabled, opening an existing segment registers nothing with the
    process's resource tracker, so a shard host exiting (or crashing)
    can never tear down the coordinating owner's live ``/dev/shm``
    segments.  Owner-side creates are unaffected — exactly one process
    (the creator) stays responsible for the unlink.
    """
    global _UNTRACKED_ATTACH
    _UNTRACKED_ATTACH = bool(enabled)


def untracked_attach_enabled() -> bool:
    """Is this process in unrelated-reader (untracked) mode?"""
    return _UNTRACKED_ATTACH


class _UntrackedSegment:
    """An existing segment mapped without ``SharedMemory``, so no
    resource tracker hears of it (or is started for it).  Offers what
    :class:`ShmArena` uses of a segment: ``buf``, ``close()``,
    ``unlink()``."""

    def __init__(self, name: str) -> None:
        import mmap

        import _posixshmem

        self._name = "/" + name
        fd = _posixshmem.shm_open(self._name, os.O_RDWR, mode=0o600)
        try:
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        import _posixshmem

        _posixshmem.shm_unlink(self._name)


class ShmArenaError(RuntimeError):
    """Arena misuse: a bad or duplicate column, or a closed arena."""


def _column_ok(name: str) -> bool:
    return bool(name) and all(
        ch.isalnum() or ch in "._-" for ch in name
    ) and "/" not in name


def arena_segments(prefix: str = SHM_PREFIX) -> List[str]:
    """Names under ``/dev/shm`` created by this tier (leak scanning)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:  # pragma: no cover - non-Linux fallback
        return []


def _unlink_columns(arena: str, columns: dict) -> None:
    """Unlink every live column of ``arena``: its ``unlink()``, and the
    last resort for an arena dropped without one.

    ``columns`` is the arena's own column map, so columns added after
    the finalizer was registered are swept too.  Runs from
    ``weakref.finalize`` — must not raise.
    """
    for column in list(columns):
        ShmArena._unlink_by_name(f"{arena}.{column}")
    columns.clear()


class ShmArena:
    """Shared-memory byte columns one engine owns; ``with`` destroys them on exit."""

    def __init__(self) -> None:
        global _NAME_COUNTER
        with _NAME_LOCK:
            _NAME_COUNTER += 1
            self.name = f"{SHM_PREFIX}{os.getpid()}-{_NAME_COUNTER}"
        self._closed = False
        self._unlinked = False
        #: column -> (dtype, shape, nbytes) with dtype None: every
        #: column is a byte blob.
        self._columns: Dict[str, Tuple[None, Tuple[int], int]] = {}
        self._segments: Dict[str, object] = {}  # column -> SharedMemory
        self._lock = threading.RLock()
        self._finalizer = weakref.finalize(
            self, _unlink_columns, self.name, self._columns
        )
        # Hosts forked from here on share this tracker (module docstring).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

    # ------------------------------------------------------------------
    # Segment plumbing (the ONE place SharedMemory is constructed; the
    # source contract SM602 bans raw construction elsewhere)
    # ------------------------------------------------------------------
    @staticmethod
    def _open(name: str, create: bool, size: int = 0):
        from multiprocessing import shared_memory

        # Open-side tracker registrations are left alone, except in an
        # unrelated reader (set_untracked_attach): see the module
        # docstring's resource_tracker paragraphs.
        if create or not _UNTRACKED_ATTACH:
            return shared_memory.SharedMemory(name=name, create=create, size=size)
        return _UntrackedSegment(name)

    @staticmethod
    def _unlink_by_name(name: str) -> None:
        """Unlink one segment by name; silent if already gone."""
        try:
            seg = ShmArena._open(name, create=False)
        except (FileNotFoundError, OSError, ValueError):
            return
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
        seg.close()

    @classmethod
    def read_column_bytes(cls, arena_name: str, column: str) -> bytes:
        """Copy one column's raw bytes out by name, mapping nothing
        afterwards — the host-side payload-codec path (open, copy,
        close: a SIGKILLed host holds no arena state at all).
        """
        seg = cls._open(f"{arena_name}.{column}", create=False)
        try:
            return bytes(seg.buf)
        finally:
            seg.close()

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, Tuple[None, Tuple[int], int]]:
        """``column -> (None, (nbytes,), nbytes)`` descriptor map."""
        return dict(self._columns)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def _require_open(self, op: str) -> None:
        if self._closed or self._unlinked:
            raise ShmArenaError(f"{op} on a closed arena {self.name!r}")

    def add_bytes(self, column: str, data: bytes) -> None:
        """Copy an opaque byte blob into a new column (codec payloads)."""
        with self._lock:
            self._require_open("add_bytes")
            if not _column_ok(column):
                raise ShmArenaError(f"invalid column name {column!r}")
            if column in self._columns:
                raise ShmArenaError(
                    f"column {column!r} already exists in arena {self.name!r}"
                )
            seg = self._open(
                f"{self.name}.{column}", create=True, size=max(1, len(data))
            )
            self._segments[column] = seg
            self._columns[column] = (None, (len(data),), len(data))
            seg.buf[: len(data)] = data

    def drop_column(self, column: str) -> None:
        """Retire one column: unlink its segment and drop the owner's
        mapping (idempotent).  Readers copy bytes out, so only a read
        racing the drop can miss — the payload codec drops a block only
        once no in-flight payload can reference it.
        """
        with self._lock:
            self._require_open("drop_column")
            if column not in self._columns:
                return
            del self._columns[column]
            seg = self._segments.pop(column)
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            seg.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the owner's mappings (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for seg in self._segments.values():
                seg.close()
            self._segments.clear()

    def unlink(self) -> None:
        """Remove every segment name from the system (idempotent).

        Existing mappings stay valid; the memory is reclaimed when the
        last mapping drops.  After unlink, :meth:`read_column_bytes`
        fails for every column of the arena, and :meth:`columns` is
        empty.
        """
        with self._lock:
            self._unlinked = True
            self._finalizer()  # runs _unlink_columns once, then detaches

    def destroy(self) -> None:
        """``unlink()`` + ``close()`` — the owner's teardown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()
