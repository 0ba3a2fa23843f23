"""Zero-copy columnar storage tier over named shared-memory segments.

The serving stack's fork-once COW discipline hands workers the
*initial* arrays for free, but it is fork-only (no spawn-start, no path
to remote hosts) and every per-flush payload still crosses the worker
pipe by pickle.  This module provides the storage half of the fix: a
:class:`ShmArena` is a named family of ``multiprocessing.shared_memory``
segments holding columnar buffers that any process — forked worker,
respawned worker, spawned process, eventually a remote host's agent —
can map knowing only the arena *name*.

Layout
------
An arena named ``A`` owns:

* a **header segment** named ``A`` — a tiny fixed-size directory:
  magic, format version, a seqlock word, and a JSON column table of
  ``(name, dtype, shape)`` descriptors.  ``ShmArena.attach("A")``
  reads it and can then map any column lazily;
* one **column segment** per column, named ``A.<column>`` — the raw
  little-endian buffer a numpy view (or a bytes blob) sits on.

Columns are append-only: the owner adds columns (the engine's
``DatasetArrays``/``TreeArrays`` buffers at startup, delta-shipped
payload blocks per flush — see :mod:`repro.core.payload`), workers only
read.  Directory updates use a seqlock (odd = write in progress) so a
reader racing a writer retries instead of parsing a torn table.

Lifecycle
---------
``close()`` and ``unlink()`` are both idempotent.  ``close()`` drops
this handle's mappings and so invalidates every view it handed out:
``SharedMemory.close()`` unmaps even while numpy views over ``buf``
are exported (no BufferError), so a stale view reads recycled pages or
segfaults.  The owner therefore restores private copies of every
attribute :meth:`share_arrays` re-pointed *before* unmapping, which
keeps ``DatasetArrays``/``TreeArrays`` hosts correct for any engine
built over the same dataset after teardown.  ``unlink()`` (alone)
removes the *names* from ``/dev/shm``;
POSIX keeps the memory alive for existing mappings, so the owner can
unlink eagerly while workers still hold views.  Attachment is
refcounted per process: repeated :meth:`ShmArena.attach` calls on one
name share a handle, and the final ``close()`` detaches it.

``resource_tracker`` discipline: CPython (< 3.13) registers a segment
with the resource tracker on *attach* as well as create — but every
process in one multiprocessing tree (fork or spawn) shares its root's
tracker, so the attach-side registration is an idempotent set-add that
must NOT be compensated: an explicit unregister from an attacher would
erase the creator's entry in the shared tracker and make the final
``unlink()`` raise ``KeyError`` noise inside the tracker process.  This
tier therefore leaves attach registrations alone and guarantees exactly
one unregister per segment (``SharedMemory.unlink`` at owner teardown),
leaving the tracker cache empty at interpreter shutdown — no "leaked
shared_memory" warnings, and SIGKILLed workers leave no registrations
of their own to clean.  A ``weakref.finalize`` on owner arenas unlinks
as a last resort, so even an abandoned arena leaves ``/dev/shm`` clean.

Attaching from an *unrelated* OS process — a socket-transport shard
host (:mod:`repro.serve.shardhost`) — is the one case where the rule
flips: that process runs its OWN resource tracker, so an attach-side
registration there is not an idempotent set-add into the creator's
tracker but a fresh entry in a foreign one, and the foreign tracker
would *unlink the creator's live segments* when the shard host exits.
Such a process declares itself via :func:`set_untracked_attach`, after
which every attach in the process maps segments without tracker
registration: natively with CPython 3.13's ``track=False``, and on
older interpreters by compensating the attach-side registration
immediately (safe exactly because the tracker is process-private
here — the in-tree prohibition above does not apply).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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

#: Header segment layout: magic(8s) version(I) seq(I) length(I), then
#: ``length`` bytes of JSON at :data:`_HEADER_JSON_OFF`.
_HEADER_MAGIC = b"SHMARENA"
_HEADER_VERSION = 1
_HEADER_FMT = "<8sIII"
_HEADER_JSON_OFF = struct.calcsize(_HEADER_FMT)

#: Default directory capacity — generous for thousands of columns.
_HEADER_BYTES = 256 * 1024

_NAME_COUNTER = 0
_NAME_LOCK = threading.Lock()

#: Process-wide attach-tracking mode.  False (default): attaches go
#: through the stock ``SharedMemory`` constructor and the in-tree
#: tracker discipline in the module docstring applies.  True (set by
#: :func:`set_untracked_attach` in foreign-process attachers like the
#: socket shard host): attaches never leave a resource_tracker
#: registration behind in this process.
_UNTRACKED_ATTACH = False

#: Lazily resolved: does this interpreter's SharedMemory accept the
#: 3.13+ ``track=`` keyword?  (None = not probed yet.)
_HAS_TRACK_PARAM: Optional[bool] = None


def set_untracked_attach(enabled: bool = True) -> None:
    """Declare this process an *unrelated* attacher (shard host).

    Must be called before any arena attach in the process.  With it
    enabled, mapping an existing segment registers nothing with the
    process's resource tracker, so a shard host exiting (or crashing)
    can never tear down the coordinating owner's live ``/dev/shm``
    segments.  Owner-side creates are unaffected — exactly one process
    (the creator) stays responsible for the unlink.
    """
    global _UNTRACKED_ATTACH
    _UNTRACKED_ATTACH = bool(enabled)


def untracked_attach_enabled() -> bool:
    """Is this process in foreign-attacher (untracked) mode?"""
    return _UNTRACKED_ATTACH


def _track_param_supported() -> bool:
    global _HAS_TRACK_PARAM
    if _HAS_TRACK_PARAM is None:
        import inspect
        from multiprocessing import shared_memory

        _HAS_TRACK_PARAM = "track" in inspect.signature(
            shared_memory.SharedMemory.__init__
        ).parameters
    return _HAS_TRACK_PARAM


class ShmArenaError(RuntimeError):
    """Arena misuse or a missing/corrupt segment family."""


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


def _finalize_owner(names: List[str]) -> None:
    """Last-resort unlink for an owner arena dropped without close().

    ``names`` is the arena's live mutable segment list (shared with the
    instance), so columns added after finalizer registration are still
    swept.  Runs from ``weakref.finalize`` — must not raise.
    """
    for name in list(names):
        ShmArena._unlink_by_name(name)
    names.clear()


class ShmArena:
    """A named registry of shared-memory columns one engine owns.

    Construct directly to *create* an arena (owner mode); use
    :meth:`attach` to map an existing one by name.  ``with`` support
    closes (and, for owners, unlinks) on exit.
    """

    #: Per-process attach registry: name -> (arena, refcount).  Guarded
    #: by _ATTACH_LOCK; makes attach/detach refcounted per the tier
    #: contract (N attaches need N closes before the mapping drops).
    _ATTACHED: Dict[str, Tuple["ShmArena", int]] = {}
    _ATTACH_LOCK = threading.Lock()

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        header_bytes: int = _HEADER_BYTES,
        _attach: bool = False,
    ) -> None:
        global _NAME_COUNTER
        if name is not None and not _column_ok(name):
            raise ShmArenaError(f"invalid arena name {name!r}")
        if name is None:
            if _attach:
                raise ShmArenaError("attach requires an arena name")
            with _NAME_LOCK:
                _NAME_COUNTER += 1
                name = f"{SHM_PREFIX}{os.getpid()}-{_NAME_COUNTER}"
        self.name = name
        self.owner = not _attach
        self._closed = False
        self._unlinked = False
        #: column -> (dtype str | None for blobs, shape tuple, nbytes)
        self._columns: Dict[str, Tuple[Optional[str], Tuple[int, ...], int]] = {}
        self._segments: Dict[str, object] = {}  # column -> SharedMemory
        self._views: Dict[str, object] = {}     # column -> ndarray view
        #: (weakref(obj), attr, column) for every attribute that
        #: share_arrays re-pointed at an arena view; close() copies
        #: these back out before unmapping (see _restore_shared_attrs).
        self._shared_bindings: List[Tuple[object, str, str]] = []
        #: live segment names, shared with the owner finalizer so late
        #: columns are swept too.
        self._segment_names: List[str] = []
        self._lock = threading.RLock()
        if _attach:
            self._header = self._open(name, create=False)
            magic, version, _, _ = struct.unpack_from(
                _HEADER_FMT, self._header.buf, 0
            )
            if magic != _HEADER_MAGIC:
                self._header.close()
                raise ShmArenaError(f"{name!r} is not a ShmArena header")
            if version != _HEADER_VERSION:
                self._header.close()
                raise ShmArenaError(
                    f"arena {name!r} has format v{version}, expected "
                    f"v{_HEADER_VERSION}"
                )
            self._refresh_directory()
        else:
            self._header = self._open(name, create=True, size=header_bytes)
            struct.pack_into(
                _HEADER_FMT, self._header.buf, 0,
                _HEADER_MAGIC, _HEADER_VERSION, 0, 0,
            )
            self._segment_names.append(name)
            self._write_directory()
            self._finalizer = weakref.finalize(
                self, _finalize_owner, self._segment_names
            )

    # ------------------------------------------------------------------
    # Segment plumbing (the ONE place SharedMemory is constructed; the
    # shm-payload lint rule SM602 bans raw construction elsewhere)
    # ------------------------------------------------------------------
    @staticmethod
    def _open(name: str, create: bool, size: int = 0):
        from multiprocessing import shared_memory

        # CPython < 3.13 registers with the resource tracker on attach
        # too, but the whole multiprocessing tree shares one tracker, so
        # that registration is an idempotent set-add.  Do NOT unregister
        # it here: that would erase the creator's entry and turn the
        # final unlink() into tracker-side KeyError noise (see module
        # docstring).  The one exception is a process that declared
        # itself a *foreign* attacher (set_untracked_attach): its
        # tracker is process-private, and letting it register would make
        # the shard host's exit unlink the owner's live segments.
        if create or not _UNTRACKED_ATTACH:
            return shared_memory.SharedMemory(name=name, create=create, size=size)
        if _track_param_supported():
            return shared_memory.SharedMemory(name=name, track=False)
        from multiprocessing import resource_tracker

        seg = shared_memory.SharedMemory(name=name)
        try:
            # Compensate the attach-side registration in THIS process's
            # own tracker (safe: nothing else in the process registered
            # the name — see the module docstring's foreign-attach
            # paragraph).
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker gone at shutdown
            pass
        return seg

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
        try:
            seg.close()
        except BufferError:  # pragma: no cover - no views on a fresh map
            pass

    @classmethod
    def read_column_bytes(cls, arena_name: str, column: str) -> bytes:
        """Copy one column's raw bytes out by name, mapping nothing
        afterwards — the worker-side payload-codec fast path (open,
        copy, close: a SIGKILLed worker holds no arena state at all).
        """
        seg = cls._open(f"{arena_name}.{column}", create=False)
        try:
            return bytes(seg.buf)
        finally:
            seg.close()

    # ------------------------------------------------------------------
    # Attach / detach (refcounted per process)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, name: str) -> "ShmArena":
        """Map an existing arena from its name alone (header directory).

        Refcounted: attaching an already-attached name returns the same
        handle; each handle needs a matching :meth:`close`.
        """
        with cls._ATTACH_LOCK:
            entry = cls._ATTACHED.get(name)
            if entry is not None:
                arena, refs = entry
                cls._ATTACHED[name] = (arena, refs + 1)
                return arena
            arena = cls(name, _attach=True)
            cls._ATTACHED[name] = (arena, 1)
            return arena

    @classmethod
    def attach_count(cls, name: str) -> int:
        """Current process-local refcount for ``name`` (introspection)."""
        with cls._ATTACH_LOCK:
            entry = cls._ATTACHED.get(name)
            return 0 if entry is None else entry[1]

    def _refresh_directory(self) -> None:
        """(Re)read the header column table, seqlock-retried."""
        buf = self._header.buf
        for _ in range(1000):
            _, _, seq0, length = struct.unpack_from(_HEADER_FMT, buf, 0)
            if seq0 % 2:  # write in progress
                continue
            raw = bytes(buf[_HEADER_JSON_OFF:_HEADER_JSON_OFF + length])
            _, _, seq1, _ = struct.unpack_from(_HEADER_FMT, buf, 0)
            if seq0 == seq1:
                break
        else:  # pragma: no cover - requires a wedged writer
            raise ShmArenaError(f"arena {self.name!r} directory never settled")
        table = json.loads(raw.decode("utf-8")) if raw else {"columns": []}
        self._columns = {
            col["name"]: (col["dtype"], tuple(col["shape"]), col["nbytes"])
            for col in table["columns"]
        }

    def _write_directory(self) -> None:
        table = {
            "columns": [
                {"name": n, "dtype": d, "shape": list(s), "nbytes": b}
                for n, (d, s, b) in self._columns.items()
            ]
        }
        raw = json.dumps(table, separators=(",", ":")).encode("utf-8")
        buf = self._header.buf
        capacity = len(buf) - _HEADER_JSON_OFF
        if len(raw) > capacity:
            raise ShmArenaError(
                f"arena {self.name!r} directory overflow: {len(raw)} bytes "
                f"of descriptors > {capacity} header capacity"
            )
        _, _, seq, _ = struct.unpack_from(_HEADER_FMT, buf, 0)
        struct.pack_into(  # odd seq: readers retry until we finish
            _HEADER_FMT, buf, 0, _HEADER_MAGIC, _HEADER_VERSION, seq + 1, len(raw)
        )
        buf[_HEADER_JSON_OFF:_HEADER_JSON_OFF + len(raw)] = raw
        struct.pack_into(
            _HEADER_FMT, buf, 0, _HEADER_MAGIC, _HEADER_VERSION, seq + 2, len(raw)
        )

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, Tuple[Optional[str], Tuple[int, ...], int]]:
        """``column -> (dtype | None, shape, nbytes)`` descriptor map."""
        return dict(self._columns)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def _require_owner(self, op: str) -> None:
        if not self.owner:
            raise ShmArenaError(f"{op} requires the owning arena handle")
        if self._closed or self._unlinked:
            raise ShmArenaError(f"{op} on a closed arena {self.name!r}")

    def _new_segment(self, column: str, nbytes: int):
        if not _column_ok(column):
            raise ShmArenaError(f"invalid column name {column!r}")
        if column in self._columns:
            raise ShmArenaError(
                f"column {column!r} already exists in arena {self.name!r}"
            )
        seg = self._open(f"{self.name}.{column}", create=True, size=max(1, nbytes))
        self._segments[column] = seg
        self._segment_names.append(f"{self.name}.{column}")
        return seg

    def add_array(self, column: str, array) -> "np.ndarray":
        """Copy ``array`` into a new column; return the shared view.

        The view is marked read-only: shared columns are the engine's
        published state, and silent in-place mutation from one process
        would desynchronize every attached reader.
        """
        with self._lock:
            self._require_owner("add_array")
            array = np.ascontiguousarray(array)
            seg = self._new_segment(column, array.nbytes)
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
            view[...] = array
            view.flags.writeable = False
            self._columns[column] = (
                array.dtype.str, tuple(array.shape), array.nbytes
            )
            self._views[column] = view
            self._write_directory()
            return view

    def add_bytes(self, column: str, data: bytes) -> None:
        """Copy an opaque byte blob into a new column (codec payloads)."""
        with self._lock:
            self._require_owner("add_bytes")
            seg = self._new_segment(column, len(data))
            seg.buf[: len(data)] = data
            self._columns[column] = (None, (len(data),), len(data))
            self._write_directory()

    def drop_column(self, column: str) -> None:
        """Retire one column: remove it from the directory, unlink its
        segment, and drop the owner's mapping (idempotent).  *Other
        processes'* mappings stay valid, but any local :meth:`get` view
        of the column dangles — only drop columns whose readers copy
        bytes out (the payload codec's superseded delta blocks).
        """
        with self._lock:
            self._require_owner("drop_column")
            if column not in self._columns:
                return
            del self._columns[column]
            self._views.pop(column, None)
            seg = self._segments.pop(column, None)
            name = f"{self.name}.{column}"
            if name in self._segment_names:
                self._segment_names.remove(name)
            self._write_directory()
            if seg is None:
                self._unlink_by_name(name)
                return
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported blob view
                pass

    def get(self, column: str):
        """The numpy view over one column (mapped lazily on attach)."""
        with self._lock:
            if self._closed:
                raise ShmArenaError(f"get on a closed arena {self.name!r}")
            view = self._views.get(column)
            if view is not None:
                return view
            if column not in self._columns and not self.owner:
                self._refresh_directory()  # added since we attached?
            if column not in self._columns:
                raise KeyError(column)
            dtype, shape, _ = self._columns[column]
            if dtype is None:
                raise ShmArenaError(
                    f"column {column!r} is a byte blob; use get_bytes"
                )
            seg = self._segments.get(column)
            if seg is None:
                seg = self._open(f"{self.name}.{column}", create=False)
                self._segments[column] = seg
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
            view.flags.writeable = False
            self._views[column] = view
            return view

    def get_bytes(self, column: str) -> bytes:
        """Copy one blob column out (no mapping kept)."""
        with self._lock:
            if column not in self._columns and not self.owner:
                self._refresh_directory()
            if column not in self._columns:
                raise KeyError(column)
        return self.read_column_bytes(self.name, column)

    def share_arrays(self, obj, attrs: Sequence[str], prefix: str) -> List[str]:
        """Move ``obj.<attr>`` numpy arrays into columns; re-point the
        attributes at the shared views.  Returns the column names.

        The copy preserves every byte, so downstream kernels are
        bitwise-identical; attributes that are ``None`` are skipped
        (optional arrays stay optional).
        """
        shared = []
        for attr in attrs:
            array = getattr(obj, attr)
            if array is None:
                continue
            column = f"{prefix}.{attr}"
            if column in self._columns:
                raise ShmArenaError(
                    f"{type(obj).__name__} already shared under {prefix!r}"
                )
            setattr(obj, attr, self.add_array(column, array))
            self._shared_bindings.append((weakref.ref(obj), attr, column))
            shared.append(column)
        return shared

    def _restore_shared_attrs(self) -> None:
        """Copy shared attributes back to private arrays pre-unmap.

        ``SharedMemory.close()`` unmaps the segment even while numpy
        views over ``buf`` are exported — no BufferError — so any
        attribute :meth:`share_arrays` re-pointed would dangle over
        unmapped (or, worse, recycled) pages.  Restoring a private copy
        while the mapping is still live keeps the host objects correct
        for every engine built over the same dataset afterwards.  An
        attribute that no longer points at this arena's view (re-shared
        into a newer arena, or replaced by the caller) is left alone.
        """
        for ref, attr, column in self._shared_bindings:
            obj = ref()
            if obj is None:
                continue
            current = getattr(obj, attr, None)
            if current is None or current is not self._views.get(column):
                continue
            restored = np.array(current, copy=True)
            restored.flags.writeable = False
            setattr(obj, attr, restored)
        self._shared_bindings.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach this handle (idempotent).

        For refcounted attach handles, drops one reference and unmaps
        only at zero.  Unmapping invalidates every view handed out by
        :meth:`get` — ``SharedMemory.close()`` drops the mapping even
        while numpy views are exported — so the owner path first
        restores private copies of every attribute ``share_arrays``
        re-pointed, keeping the host objects usable past teardown.
        """
        if not self.owner:
            with self._ATTACH_LOCK:
                entry = self._ATTACHED.get(self.name)
                if entry is not None:
                    arena, refs = entry
                    if arena is self and refs > 1:
                        self._ATTACHED[self.name] = (arena, refs - 1)
                        return
                    if arena is self:
                        del self._ATTACHED[self.name]
        with self._lock:
            if self._closed:
                return
            if self.owner and self._shared_bindings:
                self._restore_shared_attrs()
            self._closed = True
            self._views.clear()
            for seg in list(self._segments.values()) + [self._header]:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - platform quirk
                    pass
            self._segments.clear()

    def unlink(self) -> None:
        """Remove every segment name from the system (idempotent).

        Existing mappings (local views, workers mid-task) stay valid;
        the memory is reclaimed when the last mapping drops.  After
        unlink, :meth:`attach` by name fails — exactly the signal the
        pool supervisor needs if it respawns past the arena's lifetime.
        """
        with self._lock:
            if self._unlinked:
                return
            self._unlinked = True
            for name in list(self._segment_names):
                self._unlink_by_name(name)
            self._segment_names.clear()
            if self.owner and hasattr(self, "_finalizer"):
                self._finalizer.detach()

    def destroy(self) -> None:
        """``unlink()`` + ``close()`` — the owner's teardown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        if self.owner:
            self.destroy()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return (
            f"<ShmArena {self.name!r} {role} columns={len(self._columns)}"
            f"{' closed' if self._closed else ''}>"
        )
