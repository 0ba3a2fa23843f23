"""Scatter over shard hosts: one frame protocol, one client, one ladder.

Every lane of a sharded engine is a
:class:`~repro.serve.shardhost.ShardHost` holding a full replica of the
dataset — a local child forked by
:class:`~repro.serve.pool.PersistentWorkerPool` on a
``socket.socketpair()``, or an independent ``repro shard-host`` process
reached over TCP that shares nothing with the coordinator but a
workload spec and, with ``use_shm``, the shared-memory arena.  The
coordinator reaches both kinds through the same layers:

* :class:`FrameCodec` — the wire format.  Length-prefixed frames with a
  fixed 21-byte header (magic, kind, flush sequence, shard id, epoch,
  body length) and a pickled body.  Scatter bodies carry the payloads
  **verbatim** — :class:`~repro.core.payload.ArenaRef` descriptors
  pickle as a few hundred bytes; result bodies carry the compact gather
  frames of :func:`~repro.core.payload.encode_gather_payload` (refine)
  or the per-query results (select).  Every pickle on the socket path
  funnels through this class (the ``TR701`` lint contract), and every
  byte a round moves is a frame byte: ``Ticket.bytes_out`` /
  ``bytes_in`` are frame lengths.
* :class:`ShardHostClient` — one blocking client per host with
  send/recv byte counters (``LocalHostClient`` in
  :mod:`repro.serve.pool` is the same client, forking its host instead
  of connecting to it).
* :class:`ShardRegistry` — the fleet: lane→host assignment over the
  surviving hosts, the per-lane :meth:`~ShardRegistry.dispatch` /
  :meth:`~ShardRegistry.collect` ladder, host death and revival, and
  the fault counters ``ShardedEngine.fault_counters()`` and the
  server's stats mirror.
* :class:`SocketTransport` — the lane of
  :func:`~repro.core.pipeline.run_round`: one lane per alive host, for
  refine and select rounds alike.

The ladder is the same for every host:

* EOF or connection reset → :class:`WorkerCrashed`: the host is dead;
  the lane is re-scattered to a surviving host (a local host is
  re-forked first, after the :class:`RetryPolicy` backoff);
* read past the deadline → :class:`FlushDeadlineExceeded`: the same (a
  stalled local child is killed first, with a bounded wait);
* an ``ERROR`` frame → :class:`ScatterTaskError`: the payload raised;
  the round is retried on the same host, which stays alive;
* retry budget spent, or no host left → the failure propagates and
  ``run_round`` runs the lane in-process — bitwise-identical results
  either way, because
  :func:`~repro.core.pipeline.execute_shard_payload` is pure.

A dead host comes back by re-fork (local) or by a heartbeat reconnect
(:meth:`ShardRegistry.ping_all`, remote).
"""

from __future__ import annotations

import logging
import pickle
import socket
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.pipeline import Lane, ScatterFailure, Ticket
from .config import DeadlinePolicy, RetryPolicy
from .errors import (
    FlushDeadlineExceeded,
    PoolUnavailable,
    ScatterTaskError,
    WorkerCrashed,
)
from .faults import FaultPlan

_log = logging.getLogger("repro.serve.transport")

__all__ = [
    "FrameCodec",
    "ShardHostClient",
    "ShardRegistry",
    "SocketTransport",
    "parse_host_specs",
]


def parse_host_specs(
    specs: Union[str, Sequence[Union[str, Tuple[str, int]]]],
) -> List[Tuple[str, int]]:
    """Normalize ``"h:p,h:p"`` / ``["h:p", (h, p)]`` to ``[(host, port)]``."""
    if isinstance(specs, str):
        specs = [part for part in specs.split(",") if part.strip()]
    out: List[Tuple[str, int]] = []
    for spec in specs:
        if isinstance(spec, tuple):
            host, port = spec
        else:
            host, _, port_s = spec.strip().rpartition(":")
            if not host:
                raise ValueError(f"host spec must be 'host:port', got {spec!r}")
            port = int(port_s)
        if not (0 < int(port) < 65536):
            raise ValueError(f"port out of range in host spec {spec!r}")
        out.append((host, int(port)))
    if not out:
        raise ValueError("at least one shard host is required")
    return out


class FrameCodec:
    """Length-prefixed frame protocol for the shard scatter wire.

    Header (little-endian, 21 bytes)::

        magic    4s   b"RPF1"
        kind     u8   SCATTER / RESULT / ERROR / PING / PONG
        flush    u32  coordinator flush sequence (round id)
        shard    i32  lane index the round was dealt to (answers are
                      matched back by it; every lane is answered
                      against the host's full-dataset replica)
        epoch    u32  dataset epoch the payloads were encoded under
        length   u32  body length in bytes

    Bodies are pickles: a scatter body is the round's payload list
    (small tuples of queries and :class:`~repro.core.payload.ArenaRef`
    descriptors — the arena codec's output, shipped verbatim), a result
    body is the list of chunks the host produced (``bytes`` from
    :func:`~repro.core.payload.encode_gather_payload` for a refine
    round, per-query results for a select round), an error body is a
    ``(type_name, message)`` pair.  This class is
    the ONE pickle funnel of the socket path — raw ``pickle.dumps`` /
    ``loads`` anywhere else in a transport module is a ``TR701`` lint
    finding.
    """

    MAGIC = b"RPF1"
    HEADER = struct.Struct("<4sBIiII")
    HEADER_SIZE = HEADER.size

    SCATTER = 1
    RESULT = 2
    ERROR = 3
    PING = 4
    PONG = 5

    _KINDS = frozenset((SCATTER, RESULT, ERROR, PING, PONG))

    @classmethod
    def pack(cls, kind: int, flush_seq: int, shard_id: int, epoch: int,
             body: bytes = b"") -> bytes:
        if kind not in cls._KINDS:
            raise ValueError(f"unknown frame kind {kind!r}")
        return cls.HEADER.pack(
            cls.MAGIC, kind, flush_seq, shard_id, epoch, len(body)
        ) + body

    @classmethod
    def unpack_header(cls, header: bytes) -> Tuple[int, int, int, int, int]:
        """``(kind, flush_seq, shard_id, epoch, body_length)``."""
        magic, kind, flush_seq, shard_id, epoch, length = cls.HEADER.unpack(header)
        if magic != cls.MAGIC:
            raise ValueError(f"bad frame magic {magic!r}")
        if kind not in cls._KINDS:
            raise ValueError(f"unknown frame kind {kind!r}")
        return kind, flush_seq, shard_id, epoch, length

    @staticmethod
    def encode_body(obj) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode_body(data: bytes):
        return pickle.loads(data)


class ShardHostClient:
    """Blocking client for one shard host, with byte counters.

    Error mapping (all callers rely on it):

    * connect refused / unreachable → :class:`PoolUnavailable`;
    * EOF / connection reset mid-round → :class:`WorkerCrashed` (the
      host died with our round in flight);
    * a header that does not parse → :class:`WorkerCrashed` too: the
      stream is garbled past recovery, so the connection is closed;
    * read past the deadline → :class:`FlushDeadlineExceeded`.

    ``bytes_sent`` / ``bytes_received`` count actual wire bytes (frame
    headers included).  ``generation`` is the host incarnation the
    client talks to (a remote host is always 0), ``failures`` the
    consecutive deaths the revival backoff is computed from.
    """

    #: Hosts this client forks (and re-forks) itself; remote ones are
    #: reconnected by heartbeat.
    forked = False

    def __init__(self, host: str, port: int, *,
                 connect_timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._sock: Optional[socket.socket] = None
        self.alive = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rounds = 0
        self.generation = 0
        self.failures = 0
        #: Revival failed (re-fork refused): out of rotation for good.
        self.broken = False
        self.last_error: Optional[str] = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def state(self) -> str:
        if self.alive:
            return "healthy"
        return "broken" if self.broken else "dead"

    def connect(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except (OSError, socket.timeout) as exc:
            self.alive = False
            raise PoolUnavailable(
                f"shard host {self.addr} refused connection: {exc!r}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.alive = True

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._sock = None
        self.alive = False

    # -- frame I/O -----------------------------------------------------
    def send_frame(self, frame: bytes) -> None:
        if self._sock is None:
            raise WorkerCrashed(f"shard host {self.addr} is not connected")
        try:
            self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            self.close()
            raise WorkerCrashed(
                f"shard host {self.addr} dropped the connection mid-send: "
                f"{exc!r}"
            ) from exc
        self.bytes_sent += len(frame)

    def recv_frame(
        self, deadline_s: Optional[float]
    ) -> Tuple[int, int, int, int, bytes]:
        """One frame: ``(kind, flush_seq, shard_id, epoch, body)``.

        ``deadline_s`` bounds the whole read (header + body); ``None``
        waits unbounded (host death still surfaces as EOF/reset).
        """
        if self._sock is None:
            raise WorkerCrashed(f"shard host {self.addr} is not connected")
        started = time.perf_counter()
        header = self._recv_exactly(FrameCodec.HEADER_SIZE, deadline_s, started)
        try:
            kind, flush_seq, shard_id, epoch, length = FrameCodec.unpack_header(header)
        except ValueError as exc:
            # Where the next frame starts is unknowable now: drop the
            # connection, like a host that died mid-frame.
            self.close()
            raise WorkerCrashed(
                f"shard host {self.addr} sent a garbled frame header: {exc}"
            ) from exc
        body = (
            self._recv_exactly(length, deadline_s, started) if length else b""
        )
        if kind in (FrameCodec.RESULT, FrameCodec.ERROR):
            self.rounds += 1  # answered rounds only, not heartbeat PONGs
        return kind, flush_seq, shard_id, epoch, body

    def _recv_exactly(
        self, n: int, deadline_s: Optional[float], started: float
    ) -> bytes:
        assert self._sock is not None
        buf = bytearray()
        while len(buf) < n:
            if deadline_s is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline_s - (time.perf_counter() - started)
                if remaining <= 0:
                    raise FlushDeadlineExceeded(
                        f"shard host {self.addr} exceeded the "
                        f"{deadline_s:.3f}s read deadline"
                    )
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(min(1 << 20, n - len(buf)))
            except socket.timeout as exc:
                raise FlushDeadlineExceeded(
                    f"shard host {self.addr} exceeded the "
                    f"{deadline_s:.3f}s read deadline"
                ) from exc
            except (ConnectionResetError, OSError) as exc:
                self.close()
                raise WorkerCrashed(
                    f"shard host {self.addr} reset the connection: {exc!r}"
                ) from exc
            if not chunk:
                self.close()
                raise WorkerCrashed(
                    f"shard host {self.addr} closed the connection "
                    f"mid-frame (EOF after {len(buf)}/{n} bytes)"
                )
            buf += chunk
            self.bytes_received += len(chunk)
        return bytes(buf)

    # -- liveness ------------------------------------------------------
    def fingerprint(self, timeout_s: float = 2.0) -> str:
        """The host replica's dataset digest: the body of its ``PONG``."""
        self.send_frame(FrameCodec.pack(FrameCodec.PING, 0, -1, 0))
        kind, _seq, _shard, _epoch, body = self.recv_frame(timeout_s)
        if kind != FrameCodec.PONG:
            self.close()
            raise WorkerCrashed(f"shard host {self.addr} answered PING with kind {kind}")
        return body.decode("ascii")

    def ping(self, timeout_s: float = 2.0) -> bool:
        """One PING/PONG round trip on the open connection; closes the
        client on failure."""
        try:
            self.send_frame(FrameCodec.pack(FrameCodec.PING, 0, -1, 0))
            kind, *_ = self.recv_frame(timeout_s)
        except ScatterFailure:
            self.close()
            return False
        if kind != FrameCodec.PONG:
            self.close()
            return False
        return True


@dataclass(slots=True)
class Inflight:
    """One lane's frame on the fleet: where it went and what it cost."""

    wire_id: int
    flush_seq: int
    epoch: int
    body: bytes
    client: Optional[ShardHostClient] = None
    sent: bool = False       # the frame is on ``client`` awaiting its answer
    retries: int = 0         # re-sends the ladder used
    bytes_out: int = 0       # frame bytes sent (re-sends included)
    bytes_in: int = 0        # frame bytes of the answer


class ShardRegistry:
    """The coordinator's fleet of shard hosts, and the ladder over it.

    Lane→host assignment is deterministic over the *surviving* hosts —
    ``lane % len(alive)`` — so a re-scatter after a death lands on a
    well-defined survivor.  Liveness comes from in-band failures (a
    round that crashes or misses its deadline marks its host dead) and
    from :meth:`ping_all` heartbeats.  ``dataset`` is what the rounds'
    payloads were encoded against (its ``epoch`` stamps every frame);
    ``retry`` / ``deadline`` bound the ladder; ``faults`` arms the
    coordinator-side hooks of a :class:`~repro.serve.faults.FaultPlan`
    (``break_dispatch`` / ``break_respawn``).
    """

    #: The hosts are children of this process (PersistentWorkerPool).
    forked = False

    def __init__(
        self,
        clients: Sequence[ShardHostClient],
        dataset=None,
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[DeadlinePolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if not clients:
            raise ValueError("at least one shard host is required")
        self.clients = list(clients)
        self.dataset = dataset
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline = deadline if deadline is not None else DeadlinePolicy()
        self.faults = faults
        #: Monotone fault counters: host deaths, revivals, deadline
        #: hits, re-sends.
        self.counters: Dict[str, int] = {
            "respawns": 0, "worker_deaths": 0, "deadline_hits": 0, "retries": 0,
        }
        #: Clients whose death is already counted (one death per host
        #: per downtime — the client closes its own socket before the
        #: registry hears about the failure, so ``alive`` can't dedupe).
        self._dead_counted: set = set()
        self._flush_seq = 0
        #: Answers read off a connection while waiting for a different
        #: lane's.  After a re-scatter two lanes share one host, so
        #: their answers interleave; frames for a sibling lane of the
        #: SAME round are kept here for that lane's collector, keyed
        #: ``(flush_seq, shard_id)``.  Cleared per round.
        self._stash: Dict[Tuple[int, int], Tuple[int, bytes]] = {}

    @classmethod
    def from_specs(
        cls,
        specs: Union[str, Sequence[Union[str, Tuple[str, int]]]],
        *,
        connect_timeout_s: float = 5.0,
        **kwargs,
    ) -> "ShardRegistry":
        return cls([
            ShardHostClient(host, port, connect_timeout_s=connect_timeout_s)
            for host, port in parse_host_specs(specs)
        ], **kwargs)

    def connect_all(self) -> None:
        """Connect every host; raise ``PoolUnavailable`` if none came up."""
        last: Optional[Exception] = None
        for client in self.clients:
            try:
                client.connect()
            except PoolUnavailable as exc:
                last = exc
        if not self.alive_hosts():
            raise PoolUnavailable(
                f"no shard host reachable out of {len(self.clients)}"
            ) from last

    def verify_replicas(self, digest: str) -> None:
        """Refuse hosts whose replica is not the coordinator's dataset.

        Every reachable host answers a ``PING`` with the digest of the
        dataset it built (:meth:`~repro.model.dataset.Dataset.fingerprint`);
        one that differs raises :class:`PoolUnavailable` naming the host
        and both digests.  A host that does not answer is left to the
        rounds' own failure handling.
        """
        for client in self.alive_hosts():
            try:
                theirs = client.fingerprint()
            except ScatterFailure:
                client.close()
                try:
                    client.connect()
                except PoolUnavailable:
                    pass
                continue
            if theirs != digest:
                raise PoolUnavailable(
                    f"shard host {client.addr} serves a different dataset: "
                    f"host digest {theirs} != coordinator digest {digest}"
                )

    def alive_hosts(self) -> List[ShardHostClient]:
        return [c for c in self.clients if c.alive]

    def host_for(self, shard_id: int) -> ShardHostClient:
        alive = self.alive_hosts()
        if not alive:
            raise PoolUnavailable(
                f"all {len(self.clients)} shard hosts are dead"
            )
        return alive[shard_id % len(alive)]

    # -- death and revival ---------------------------------------------
    def mark_dead(
        self, client: ShardHostClient, reason: Exception, flush_seq: int = 0
    ) -> None:
        """Take ``client`` out of rotation (``flush_seq`` names the round
        that found it dead; 0 = a heartbeat sweep)."""
        if id(client) not in self._dead_counted:
            self._dead_counted.add(id(client))
            self.counters["worker_deaths"] += 1
            client.failures += 1
            _log.warning(
                "shard host %s marked dead: flush_seq=%d reason=%r",
                client.addr, flush_seq, reason,
            )
        client.close()
        client.last_error = repr(reason)

    def revive(self, client: ShardHostClient) -> bool:
        """Bring a dead host back into rotation: re-fork a local one
        (after the capped exponential :class:`RetryPolicy` backoff, so
        a host that keeps dying cannot fork-bomb the machine), reconnect
        a remote one.  False if it stays dead."""
        plan = self.faults
        if plan is not None and plan.break_respawn and plan.armed(client.generation):
            client.broken = True
            client.last_error = "injected respawn failure (FaultPlan.break_respawn)"
            return False
        if client.forked:
            backoff = self.retry.backoff_s(client.failures)
            if backoff > 0:
                time.sleep(backoff)
        try:
            client.connect()
        except ScatterFailure as exc:
            client.broken = client.forked
            client.last_error = repr(exc)
            return False
        client.broken = False
        if id(client) in self._dead_counted:
            self._dead_counted.discard(id(client))
            self.counters["respawns"] += 1
            _log.info("shard host %s resurrected", client.addr)
        return True

    def ping_all(self, timeout_s: float = 2.0) -> Dict[str, bool]:
        """Heartbeat sweep: one PING round trip per host.

        Dead hosts are revived first (reconnected, or re-forked), so a
        restarted host process resurrects into the rotation (and a
        later death counts again).
        """
        results: Dict[str, bool] = {}
        for client in self.clients:
            ok = (client.alive or self.revive(client)) and client.ping(timeout_s)
            if not ok:
                self.mark_dead(client, RuntimeError("heartbeat ping failed"))
            results[client.addr] = ok
        return results

    # -- the ladder ----------------------------------------------------
    def next_round(self) -> None:
        """Open a scatter round: a fresh flush sequence, and any answers
        orphaned by an abandoned earlier round dropped."""
        self._flush_seq += 1
        self._stash.clear()

    def dispatch(self, payloads: Sequence[tuple], wire_id: int = 0) -> Inflight:
        """Send one lane's payloads to its host; never raises a
        :class:`ScatterFailure` (a failed send is :meth:`collect`'s to
        recover)."""
        inflight = Inflight(
            wire_id, self._flush_seq, getattr(self.dataset, "epoch", 0),
            FrameCodec.encode_body(list(payloads)),
        )
        try:
            inflight.client = self.host_for(wire_id)
            self._send(inflight)
        except ScatterFailure as exc:
            self._note_failure(inflight, exc)
        return inflight

    def collect(self, inflight: Inflight) -> list:
        """One lane's chunks, through the ladder (module docstring);
        past the budget the last failure propagates."""
        failure: Optional[ScatterFailure] = None
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                inflight.retries += 1
                self.counters["retries"] += 1
            try:
                kind, rbody = self._answer(inflight)
                inflight.bytes_in += FrameCodec.HEADER_SIZE + len(rbody)
                answer = self._decode(inflight, rbody)
            except PoolUnavailable:
                raise  # no host left to retry on
            except ScatterFailure as exc:
                failure = exc
                self._note_failure(inflight, exc)
                continue
            if kind == FrameCodec.ERROR:
                failure = self._task_error(inflight, answer)
                inflight.sent = False  # retry on the same, living host
                continue
            inflight.client.failures = 0
            return answer
        assert failure is not None
        raise failure

    def _send(self, inflight: Inflight) -> None:
        plan = self.faults
        client = inflight.client
        if plan is not None and plan.break_dispatch and plan.armed(client.generation):
            raise WorkerCrashed("injected dispatch loss (FaultPlan.break_dispatch)")
        frame = FrameCodec.pack(
            FrameCodec.SCATTER, inflight.flush_seq, inflight.wire_id,
            inflight.epoch, inflight.body,
        )
        client.send_frame(frame)
        inflight.bytes_out += len(frame)
        inflight.sent = True

    def _answer(self, inflight: Inflight) -> Tuple[int, bytes]:
        """``(kind, body)`` of this lane's answer, (re-)sending first if
        needed.  A sibling lane's collector may already have read it
        off a shared connection."""
        stashed = self._stash.pop((inflight.flush_seq, inflight.wire_id), None)
        if stashed is not None:
            return stashed
        if inflight.client is None:
            inflight.client = self.host_for(inflight.wire_id)
        if not inflight.sent:
            self._send(inflight)
        return self._recv_matching(inflight)

    def _recv_matching(self, inflight: Inflight) -> Tuple[int, bytes]:
        """Read frames until this lane's answer arrives.

        After a re-scatter a host connection can carry rounds for more
        than one lane; answers arrive in the host's execution order,
        not ours.  Answers for sibling lanes of the same round are
        stashed for their own collectors; anything stale (an abandoned
        earlier round) is discarded.
        """
        client = inflight.client
        while True:
            kind, seq, sid, _ep, rbody = client.recv_frame(
                self.deadline.flush_deadline_s
            )
            if seq != inflight.flush_seq or kind not in (
                FrameCodec.RESULT, FrameCodec.ERROR
            ):
                continue  # stale frame from an abandoned round
            if sid == inflight.wire_id:
                return kind, rbody
            self._stash[(seq, sid)] = (kind, rbody)

    def _decode(self, inflight: Inflight, rbody: bytes):
        """A RESULT or ERROR body.  One that does not decode means the
        host's stream is garbled: :class:`WorkerCrashed`, connection
        closed, so the ladder takes the host out of rotation."""
        try:
            return FrameCodec.decode_body(rbody)
        except Exception as exc:  # noqa: BLE001 - any unpickling failure
            client = inflight.client
            if client is not None:
                client.close()
            raise WorkerCrashed(
                f"shard host {client.addr if client else '?'} sent an "
                f"undecodable answer body: {exc!r}"
            ) from exc

    def _task_error(self, inflight: Inflight, error: Tuple[str, str]) -> ScatterTaskError:
        name, message = error
        client = inflight.client
        client.last_error = f"{name}: {message}"
        return ScatterTaskError(
            f"shard host {client.addr} answered round "
            f"(seq={inflight.flush_seq}, shard={inflight.wire_id}) with "
            f"remote error {name}: {message}"
        )

    def _note_failure(self, inflight: Inflight, exc: Exception) -> None:
        """A lost host: count it, take it out of rotation (a local one
        is killed and re-forked) and leave the lane unsent."""
        if isinstance(exc, FlushDeadlineExceeded):
            self.counters["deadline_hits"] += 1
        client, inflight.client, inflight.sent = inflight.client, None, False
        if client is not None:
            self.mark_dead(client, exc, inflight.flush_seq)
            if client.forked:
                self.revive(client)

    # -- reporting and shutdown ----------------------------------------
    def fault_counters(self) -> Dict[str, int]:
        return dict(self.counters)

    def health_rows(self) -> List[dict]:
        """Per-host rows in the ``pool_health()`` display shape."""
        return [
            {
                "pool": client.addr if client.forked else f"host-{client.addr}",
                "state": client.state,
                "generation": client.generation,
                "rounds": client.rounds,
                "bytes_sent": client.bytes_sent,
                "bytes_received": client.bytes_received,
            }
            for client in self.clients
        ]

    def bytes_totals(self) -> Tuple[int, int]:
        sent = sum(c.bytes_sent for c in self.clients)
        received = sum(c.bytes_received for c in self.clients)
        return sent, received

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Drop every connection (``timeout_s`` bounds a local fleet's
        shutdown; remote hosts are only disconnected)."""
        for client in self.clients:
            client.close()


class SocketTransport:
    """The lane of :func:`repro.core.pipeline.run_round` over a fleet:
    one lane per alive host, each answered against the host's
    full-dataset replica — a cold flush's refine ranges, then every
    flush's ``select`` payloads.  With no host left it has no lane: the
    executor, reading :meth:`hosts`, runs the round in-process."""

    remote = True

    def __init__(self, registry: ShardRegistry) -> None:
        self.registry = registry

    def lanes(self) -> int:
        return self.hosts()

    def hosts(self) -> int:
        return len(self.registry.alive_hosts())

    def dispatch(self, lanes: Sequence[Lane]) -> List[Ticket]:
        registry = self.registry
        registry.next_round()
        return [
            Ticket(lane, handle=registry.dispatch(lane.payloads, lane.wire_id))
            for lane in lanes
        ]

    def collect(self, ticket: Ticket) -> list:
        inflight = ticket.handle
        try:
            return self.registry.collect(inflight)
        finally:
            ticket.retries = inflight.retries
            ticket.bytes_out = inflight.bytes_out
            ticket.bytes_in = inflight.bytes_in
