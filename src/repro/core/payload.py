"""Binary scatter-payload codec over the shared-memory arena.

Every scatter round sends payload tuples
(:func:`repro.core.pipeline.execute_shard_payload`) to shard hosts in
frames.  With ``use_shm`` the codec replaces the heavy element of each
payload — the traversal pool of a refine round, the per-k
``SharedTopK`` states of a select round — with an :class:`ArenaRef`, a
~100-byte named pointer into the engine's
:class:`~repro.storage.shm.ShmArena`.  The referenced block is written
to shared memory **once** and *delta-shipped*: repeat flushes whose
shared states / traversal pools are unchanged (the memoized common
case) re-send only the reference.  Blocks are keyed on
``Dataset.epoch`` plus the codec's ship sequence, so a mutated dataset
can never alias a stale block.  The arena holds nothing but these
blocks.

Decoding reconstructs byte-identical values (an ``RSK1`` block becomes
the same :class:`~repro.core.thresholds.Thresholds` columns, in the same
order), so results stay bitwise identical to the pickle path.  Payloads
that never meet a codec (in-process rounds, degraded mode, ``use_shm``
off) pass through untouched, and a host can always decode a codec
payload because references resolve by *name* via
:meth:`ShmArena.read_column_bytes` (open, copy, close — no lingering
host-side mappings, nothing to leak on SIGKILL).

Encoding for the two arena block kinds:

* ``rsk`` — ``"RSK1" | n:u32 | ids:int64[n] | values:float64[n]``: a
  :class:`~repro.core.thresholds.Thresholds`' two columns (a mapping's
  items in iteration order);
* ``blob`` — a pickle of the object (used for the memoized traversal
  pools and ``SharedTopK`` states whose win is the delta shipping, not
  the encoding).

The gather direction has one block kind: ``GPR1``, a whole refine chunk
of :class:`~repro.core.partial.PartialResult`\\ s (rows + ``RSK1``
blobs) as one ``bytes`` — see the gather funnels below.
"""

from __future__ import annotations

import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from ..storage.shm import ShmArena, ShmArenaError
from .thresholds import Thresholds

__all__ = [
    "ArenaRef",
    "OneShotCodec",
    "PayloadCodec",
    "encode_rsk",
    "decode_rsk",
    "encode_shard_payload",
    "decode_shard_payload",
    "encode_gather_payload",
    "decode_gather_payload",
    "resolve_ref",
]

_RSK_MAGIC = b"RSK1"


@dataclass(frozen=True, slots=True)
class ArenaRef:
    """A named pointer to one arena column, shipped instead of data."""

    arena: str
    column: str
    kind: str   # "rsk" | "blob"
    count: int  # entries (rsk) or bytes (blob): sanity + introspection


# ----------------------------------------------------------------------
# Binary block encodings
# ----------------------------------------------------------------------

def encode_rsk(rsk: Mapping[int, float]) -> bytes:
    """``RSk(u)`` per user -> flat int64/float64 block: the id column,
    then the value column, in the order of ``rsk`` — so the decoded
    vector reads like the original, lookups *and* row order alike.
    ``OverflowError`` for an id outside int64."""
    rsk = Thresholds.of(rsk)
    return b"".join((
        _RSK_MAGIC, struct.pack("<I", len(rsk)),
        rsk.ids.tobytes(), rsk.values.tobytes(),
    ))


def decode_rsk(data: bytes) -> Thresholds:
    if data[:4] != _RSK_MAGIC:
        raise ValueError("not an RSK block")
    (n,) = struct.unpack_from("<I", data, 4)
    ids = np.frombuffer(data, np.int64, n, 8).copy()
    values = np.frombuffer(data, np.float64, n, 8 + 8 * n).copy()
    return Thresholds(ids, values)


# ----------------------------------------------------------------------
# Reference resolution (worker side and in-process fallback alike)
# ----------------------------------------------------------------------

#: Decoded blocks, keyed ``(arena, column)``.  Columns are immutable
#: once written (epoch+sequence keyed), so cached entries never go
#: stale; the bound only caps memory.
_REF_CACHE: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
_REF_CACHE_MAX = 64
_REF_LOCK = threading.Lock()


def resolve_ref(ref: ArenaRef):
    """Materialize one reference (process-local LRU over arena reads)."""
    key = (ref.arena, ref.column)
    with _REF_LOCK:
        if key in _REF_CACHE:
            _REF_CACHE.move_to_end(key)
            return _REF_CACHE[key]
    data = ShmArena.read_column_bytes(ref.arena, ref.column)
    if ref.kind == "rsk":
        obj = decode_rsk(data)
    elif ref.kind == "blob":
        obj = pickle.loads(data)
    else:
        raise ValueError(f"unknown ArenaRef kind {ref.kind!r}")
    with _REF_LOCK:
        _REF_CACHE[key] = obj
        while len(_REF_CACHE) > _REF_CACHE_MAX:
            _REF_CACHE.popitem(last=False)
    return obj


def _clear_ref_cache() -> None:
    """Test hook: forget decoded blocks (simulates a fresh worker)."""
    with _REF_LOCK:
        _REF_CACHE.clear()


def _maybe(value):
    return resolve_ref(value) if isinstance(value, ArenaRef) else value


# ----------------------------------------------------------------------
# The codec (parent side: owns the arena writes + the delta memo)
# ----------------------------------------------------------------------

class PayloadCodec:
    """Encodes scatter payloads against one engine's arena.

    ``ship`` writes an object's block to the arena once and returns the
    same :class:`ArenaRef` for every later call with the same object at
    the same dataset epoch (identity-keyed memo with strong references,
    so a recycled ``id()`` can never alias).  If the arena write fails
    (shm exhausted, arena closed) the object is returned unchanged —
    the payload simply stays on the pickle path, results unaffected.
    """

    #: Delta-memo capacity: the live working set is one traversal pool,
    #: one super-user and a handful of per-k threshold maps;
    #: evicted entries only cost a re-ship.
    MEMO_MAX = 64

    #: Ships to wait before unlinking a superseded column.  Any payload
    #: that references it was dispatched at least this many ships ago —
    #: far past any in-flight flush — so decoders never race a drop.
    RETIRE_LAG = 64

    def __init__(
        self, arena: ShmArena, epoch_fn: Optional[Callable[[], int]] = None
    ) -> None:
        self.arena = arena
        self.epoch_fn = epoch_fn if epoch_fn is not None else (lambda: 0)
        self._memo: "OrderedDict[int, Tuple[object, int, ArenaRef]]" = OrderedDict()
        self._pending_drops: List[Tuple[int, str]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self.arena_bytes_written = 0
        self.delta_hits = 0
        self.inline_fallbacks = 0
        self._broken = False

    def ship(self, obj, tag: str, kind: str = "blob"):
        """An :class:`ArenaRef` for ``obj`` (or ``obj`` itself on
        fallback).  ``tag`` names the block for debuggability; identity
        is the epoch + sequence suffix."""
        if self._broken:
            return obj
        epoch = self.epoch_fn()
        with self._lock:
            entry = self._memo.get(id(obj))
            if entry is not None and entry[0] is obj and entry[1] == epoch:
                self._memo.move_to_end(id(obj))
                self.delta_hits += 1
                return entry[2]
            if entry is not None:
                # Same object at a new epoch (or a recycled id): the old
                # block is superseded — retire it once it's safely cold.
                self._pending_drops.append((self._seq, entry[2].column))
            ref = self._write(obj, tag, kind, epoch)
            if ref is None:
                return obj
            self._memo[id(obj)] = (obj, epoch, ref)
            while len(self._memo) > self.MEMO_MAX:
                _, (_, _, old_ref) = self._memo.popitem(last=False)
                self._pending_drops.append((self._seq, old_ref.column))
            return ref

    def ship_once(self, obj, tag: str, kind: str = "blob"):
        """Ship a per-flush block that will never repeat: written and
        referenced like :meth:`ship`, but not memoized (a one-shot
        object in the delta memo would only evict real candidates and
        pin its memory) and scheduled for retirement immediately — the
        column is dropped once it is ``RETIRE_LAG`` ships cold.

        :class:`OneShotCodec` ships a cold query's round with it.
        """
        if self._broken:
            return obj
        epoch = self.epoch_fn()
        with self._lock:
            ref = self._write(obj, tag, kind, epoch)
            if ref is None:
                return obj
            self._pending_drops.append((self._seq, ref.column))
            return ref

    def _write(self, obj, tag: str, kind: str, epoch: int) -> Optional[ArenaRef]:
        """Encode ``obj`` into a fresh arena column and reference it —
        ``None`` when it stays inline (lock held).  Retires what is
        safely cold, and counts the bytes written."""
        try:
            data = encode_rsk(obj) if kind == "rsk" else pickle.dumps(
                obj, protocol=pickle.HIGHEST_PROTOCOL
            )
        except (TypeError, ValueError, OverflowError, pickle.PicklingError):
            # Unencodable (non-int64 keys, unpicklable object): leave it
            # inline on the pickle path.
            self.inline_fallbacks += 1
            return None
        self._seq += 1
        column = f"{tag}-e{epoch}-f{self._seq}"
        try:
            self.arena.add_bytes(column, data)
        except (ShmArenaError, OSError):
            # Arena exhausted or gone: stop trying (every later payload
            # ships inline — correct, just un-optimized).
            self.inline_fallbacks += 1
            self._broken = True
            return None
        self._drain_retired()
        self.arena_bytes_written += len(data)
        return ArenaRef(
            arena=self.arena.name, column=column, kind=kind,
            count=len(obj) if kind == "rsk" else len(data),
        )

    def _drain_retired(self) -> None:
        """Drop every pending column that is safely cold (lock held)."""
        while (
            self._pending_drops
            and self._seq - self._pending_drops[0][0] > self.RETIRE_LAG
        ):
            _, column = self._pending_drops.pop(0)
            try:
                self.arena.drop_column(column)
            except (ShmArenaError, OSError):  # pragma: no cover
                pass

    def stats_snapshot(self) -> dict:
        return {
            "arena": self.arena.name,
            "arena_bytes_written": self.arena_bytes_written,
            "delta_hits": self.delta_hits,
            "inline_fallbacks": self.inline_fallbacks,
        }


class OneShotCodec:
    """One round's view of a :class:`PayloadCodec` for objects that
    never ship again (a cold query's pool and per-k states).

    Each object is written once per round with
    :meth:`PayloadCodec.ship_once`, so every lane's payload references
    the one block, and it stays out of the delta memo: it neither pins
    its memory there nor evicts the engine's memoized pool.
    """

    def __init__(self, codec: PayloadCodec) -> None:
        self.codec = codec
        self._refs: dict = {}

    def ship(self, obj, tag: str, kind: str = "blob"):
        if id(obj) not in self._refs:
            self._refs[id(obj)] = self.codec.ship_once(obj, tag, kind)
        return self._refs[id(obj)]


# ----------------------------------------------------------------------
# Payload encode/decode (position-preserving: shard ids, fault hooks
# and every consumer keep addressing the same tuple slots)
# ----------------------------------------------------------------------

def encode_shard_payload(codec: PayloadCodec, payload: tuple) -> tuple:
    """Codec form of one :func:`execute_shard_payload` work item."""
    kind = payload[0]
    if kind == "refine":
        # One pool object for every lane of the round: the first lane
        # writes the block, the rest delta-hit the same reference.
        return ("refine", codec.ship(payload[1], "trav")) + payload[2:]
    if kind == "select":
        # Each query's phase-1 state (an O(|U|) ``SharedTopK``, one
        # object per k) delta-ships as a blob reference: shipped once
        # per payload per k, and a memo hit on every later payload.
        _, queries, shared, method = payload
        refs = {}
        for state in shared:
            if id(state) not in refs:
                refs[id(state)] = codec.ship(state, "topk")
        return ("select", queries, tuple(refs[id(state)] for state in shared), method)
    return payload  # unknown kinds pass through untouched


def decode_shard_payload(payload: tuple) -> tuple:
    """Inverse of :func:`encode_shard_payload`; identity on plain
    (pickle-path) payloads, so every execution mode funnels through one
    call site."""
    if not isinstance(payload, tuple) or not payload:
        return payload
    kind = payload[0]
    if kind == "refine":
        return ("refine", _maybe(payload[1])) + payload[2:]
    if kind == "select":
        _, queries, shared, method = payload
        return ("select", queries, tuple(map(_maybe, shared)), method)
    return payload


# ----------------------------------------------------------------------
# Gather funnels (worker -> parent direction)
# ----------------------------------------------------------------------
# Scatter payloads got the codec in PR 9; the *returned* chunks still
# crossed back as pickles.  These funnels turn a whole refine chunk into
# ONE self-describing binary block — no pickle at all on the O(|U|) gather
# direction, which is what a host's answer frame carries verbatim,
# forked or remote, and what ``payload_bytes_in`` measures.  Every
# other chunk shape (selection results, empty lists) passes through unchanged, so the decode funnel is
# safe to apply unconditionally at every collect site.

_GATHER_PARTIALS_MAGIC = b"GPR1"
_GPR_ROW = "<qqqdI"   # lane (shard_id), k, users_total, time_s, rsk blob len


def _encode_gather_partials(chunk) -> bytes:
    parts = [_GATHER_PARTIALS_MAGIC, struct.pack("<I", len(chunk))]
    for p in chunk:
        blob = encode_rsk(p.rsk)
        parts.append(struct.pack(
            _GPR_ROW, p.shard_id, p.k, p.users_total, p.time_s, len(blob)
        ))
        parts.append(blob)
    return b"".join(parts)


def _decode_gather_partials(data: bytes) -> list:
    from .partial import PartialResult

    (n,) = struct.unpack_from("<I", data, 4)
    row = struct.calcsize(_GPR_ROW)
    off = 8
    out = []
    for _ in range(n):
        shard_id, k, users_total, time_s, blob_len = struct.unpack_from(
            _GPR_ROW, data, off
        )
        off += row
        rsk = decode_rsk(data[off:off + blob_len])
        off += blob_len
        out.append(PartialResult(
            shard_id=shard_id, k=k, rsk=rsk,
            users_total=users_total, time_s=time_s,
        ))
    return out


def encode_gather_payload(chunk):
    """Compact wire form of one worker's returned chunk.

    A chunk of :class:`~repro.core.partial.PartialResult`\\ s (refine)
    becomes one RSK1-packed ``bytes`` block; every other chunk is
    returned unchanged, so callers can funnel all returns through this
    without knowing the payload kind.  Decoding restores byte-identical
    python values (float bits, dict insertion order, list order),
    preserving the merge layer's determinism contract.
    """
    from .partial import PartialResult

    if not isinstance(chunk, list) or not chunk:
        return chunk
    try:
        if all(type(p) is PartialResult for p in chunk):
            return _encode_gather_partials(chunk)
    except (TypeError, ValueError, OverflowError, struct.error):
        # Unpackable contents (non-int64 ids): stay on the pickle path.
        return chunk
    return chunk


def decode_gather_payload(chunk):
    """Inverse of :func:`encode_gather_payload`; identity on plain
    (never-encoded) chunks, so in-process fallback rounds and selection
    results flow through the same collect-site funnel untouched."""
    if not isinstance(chunk, (bytes, bytearray)):
        return chunk
    data = bytes(chunk)
    if data[:4] == _GATHER_PARTIALS_MAGIC:
        return _decode_gather_partials(data)
    return chunk
