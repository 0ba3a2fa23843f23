"""Multi-host scatter: socket transport over arena descriptors.

The fork pools of :mod:`repro.serve.pool` cap scatter parallelism at
one machine: every worker is a child of the serving process.  This
module carries the exact same scatter contract over TCP to independent
**shard host processes** (:mod:`repro.serve.shardhost`), each owning a
local engine replica, so the scatter rounds fan out across processes
that share nothing with the coordinator but a workload spec and — with
``use_shm`` — the shared-memory arena.

Three layers, coordinator side:

* :class:`FrameCodec` — the wire format.  Length-prefixed frames with a
  fixed 21-byte header (magic, kind, flush sequence, shard id, epoch,
  body length) and a pickled body.  Scatter bodies carry the PR 9
  payloads **verbatim** — :class:`~repro.core.payload.ArenaRef`
  descriptors pickle as the same few hundred bytes that cross a fork
  pipe; result bodies carry the compact gather frames of
  :func:`~repro.core.payload.encode_gather_payload` (refine) or the
  per-query results (select).  Every pickle
  on the socket path funnels through this class (the ``TR701`` lint
  contract).
* :class:`ShardHostClient` / :class:`ShardRegistry` — one blocking
  client per shard host with send/recv byte counters, plus the registry
  that assigns lanes to surviving hosts, marks hosts dead, and
  aggregates fault counters in the same vocabulary as
  :class:`~repro.serve.pool.PoolHealth` (so
  ``ShardedEngine.fault_counters()`` and the server's stats mirror work
  unchanged).
* :class:`SocketTransport` — the socket lane of
  :func:`~repro.core.pipeline.run_round`: one lane per alive host,
  for refine and select rounds alike, instead of a fork pool.
  Failures map onto the existing taxonomy (EOF/reset →
  :class:`WorkerCrashed`, read timeout → :class:`FlushDeadlineExceeded`,
  refused/exhausted → :class:`PoolUnavailable`); the retry ladder
  re-scatters a failed lane to the next surviving host, and past the
  budget ``run_round`` degrades it to in-process execution —
  bitwise-identical results either way, because
  :func:`~repro.core.pipeline.execute_shard_payload` is pure.
"""

from __future__ import annotations

import logging
import pickle
import socket
import struct
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.pipeline import Lane, ScatterFailure, Ticket
from .config import DeadlinePolicy, RetryPolicy
from .errors import FlushDeadlineExceeded, PoolUnavailable, WorkerCrashed

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
    descriptors — the PR 9 codec output, shipped verbatim), a result
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
    """Blocking TCP client for one shard host, with byte counters.

    Error mapping (all callers rely on it):

    * connect refused / unreachable → :class:`PoolUnavailable`;
    * EOF / connection reset mid-round → :class:`WorkerCrashed` (the
      host died with our round in flight — same semantics as a dead
      fork worker);
    * read past the deadline → :class:`FlushDeadlineExceeded`.

    ``bytes_sent`` / ``bytes_received`` count actual wire bytes (frame
    headers included) — the numbers behind the multi-host bench's
    |U|/N scaling claim.
    """

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
        self.last_error: Optional[str] = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

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
            self.connect()
        assert self._sock is not None
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
        kind, flush_seq, shard_id, epoch, length = FrameCodec.unpack_header(header)
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
        """One PING/PONG round trip; marks the client dead on failure."""
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


class ShardRegistry:
    """The coordinator's view of the shard host fleet.

    Static host list for now; liveness comes from :meth:`ping_all`
    heartbeats and from in-band failures (the executor marks a host
    dead the moment a round on it crashes or misses its deadline).
    Lane→host assignment is deterministic over the *surviving* hosts
    — ``lane % len(alive)`` — so a re-scatter after a death lands on a
    well-defined survivor.
    """

    def __init__(self, clients: Sequence[ShardHostClient]) -> None:
        if not clients:
            raise ValueError("at least one shard host is required")
        self.clients = list(clients)
        #: Same vocabulary as PoolHealth, so ``fault_counters()`` and
        #: the server's stats mirror fold these in unchanged:
        #: host deaths count as worker deaths, re-scatters as retries.
        self.counters: Dict[str, int] = {
            "respawns": 0, "worker_deaths": 0, "deadline_hits": 0, "retries": 0,
        }
        #: Clients whose death is already counted (one death per host
        #: per downtime — the client closes its own socket before the
        #: registry hears about the failure, so ``alive`` can't dedupe).
        self._dead_counted: set = set()

    @classmethod
    def from_specs(
        cls,
        specs: Union[str, Sequence[Union[str, Tuple[str, int]]]],
        *,
        connect_timeout_s: float = 5.0,
    ) -> "ShardRegistry":
        return cls([
            ShardHostClient(host, port, connect_timeout_s=connect_timeout_s)
            for host, port in parse_host_specs(specs)
        ])

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
        rounds' own failure handling, as before this check existed.
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

    def mark_dead(
        self, client: ShardHostClient, reason: Exception, flush_seq: int = 0
    ) -> None:
        """Take ``client`` out of rotation (``flush_seq`` names the round
        that found it dead; 0 = a heartbeat sweep)."""
        if id(client) not in self._dead_counted:
            self._dead_counted.add(id(client))
            self.counters["worker_deaths"] += 1
            _log.warning(
                "shard host %s marked dead: flush_seq=%d reason=%r",
                client.addr, flush_seq, reason,
            )
        client.close()
        client.last_error = repr(reason)

    def ping_all(self, timeout_s: float = 2.0) -> Dict[str, bool]:
        """Heartbeat sweep: one PING round trip per host.

        Dead hosts are pinged too — ``ping`` reconnects first, so a
        restarted host process resurrects into the rotation (and a
        later death counts again).
        """
        results: Dict[str, bool] = {}
        for client in self.clients:
            ok = client.ping(timeout_s)
            if ok:
                if id(client) in self._dead_counted:
                    self._dead_counted.discard(id(client))
                    _log.info("shard host %s resurrected by heartbeat",
                              client.addr)
            else:
                self.mark_dead(client, RuntimeError("heartbeat ping failed"))
            results[client.addr] = ok
        return results

    def fault_counters(self) -> Dict[str, int]:
        return dict(self.counters)

    def health_rows(self) -> List[dict]:
        """Per-host rows in the ``pool_health()`` display shape."""
        return [
            {
                "pool": f"host-{client.addr}",
                "state": "healthy" if client.alive else "dead",
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

    def close(self) -> None:
        for client in self.clients:
            client.close()


class SocketTransport:
    """The socket lane of :func:`repro.core.pipeline.run_round`.

    One lane per alive host, each answered against the host's
    full-dataset replica: a cold flush's refine ranges, then every
    flush's ``select`` chunks — a few KB each way per warm flush,
    independent of |U|.  Indexed searches never come here: hosts hold
    no MIUR-tree and the I/O must replay on the coordinator's counter.

    Per failed lane the ladder is: mark the host dead, re-scatter the
    *same* frame body to the next surviving host (``RetryPolicy``
    budget), and past the budget — or with no survivors —
    :meth:`collect` raises :class:`PoolUnavailable` for ``run_round`` to
    degrade the lane in-process.
    """

    remote = True
    serves_indexed = False

    def __init__(
        self,
        registry: ShardRegistry,
        dataset,
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[DeadlinePolicy] = None,
    ) -> None:
        self.registry = registry
        self.dataset = dataset
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline = deadline if deadline is not None else DeadlinePolicy()
        self._flush_seq = 0
        #: RESULT bodies read off a connection while waiting for a
        #: different lane's answer.  After a re-scatter two lanes
        #: share one host connection, so round responses interleave;
        #: frames for a sibling lane of the SAME flush round are
        #: stashed here for that lane's collector, keyed
        #: ``(flush_seq, shard_id)``.  Cleared per scatter round.
        self._stash: Dict[Tuple[int, int], bytes] = {}

    def chunk_width(self) -> int:
        return 1  # a host runs one frame at a time per connection

    def lanes(self) -> int:
        # One lane per alive host.  With none left the single lane finds
        # no host and degrades through the ladder like any other round.
        return max(1, len(self.registry.alive_hosts()))

    def dispatch(self, lanes: Sequence[Lane]) -> List[Ticket]:
        self._flush_seq += 1
        self._stash.clear()  # orphans of abandoned earlier rounds
        epoch = getattr(self.dataset, "epoch", 0)
        tickets = []
        for lane in lanes:
            body = FrameCodec.encode_body(lane.payloads)
            frame = FrameCodec.pack(
                FrameCodec.SCATTER, self._flush_seq, lane.wire_id, epoch, body
            )
            ticket = Ticket(lane)
            client = None
            try:
                client = self.registry.host_for(lane.wire_id)
                client.send_frame(frame)
            except ScatterFailure as exc:
                self._note_failure(client, exc)
                client = None
            else:
                ticket.bytes_out = len(frame)
            ticket.handle = (body, epoch, client)
            tickets.append(ticket)
        return tickets

    def collect(self, ticket: Ticket) -> list:
        """One lane's answer, re-scattering across survivors."""
        body, epoch, client = ticket.handle
        shard_id, flush_seq = ticket.lane.wire_id, self._flush_seq
        attempts = self.retry.max_retries + 1
        for attempt in range(attempts):
            # A sibling lane's collector may already have read our
            # answer off a shared connection.
            rbody = self._stash.pop((flush_seq, shard_id), None)
            if rbody is None:
                try:
                    if client is None:
                        # (Re-)dispatch: the first send already failed,
                        # or a retry after a death — pick a survivor.
                        client = self.registry.host_for(shard_id)
                        frame = FrameCodec.pack(
                            FrameCodec.SCATTER, flush_seq, shard_id, epoch, body
                        )
                        client.send_frame(frame)
                        ticket.bytes_out += len(frame)
                    rbody = self._recv_matching(
                        client, flush_seq, shard_id,
                        self.deadline.flush_deadline_s,
                    )
                except PoolUnavailable:
                    raise  # no survivor left to retry on
                except ScatterFailure as exc:
                    self._note_failure(client, exc)
                    client = None
                    if attempt + 1 < attempts:
                        ticket.retries += 1
                        self.registry.counters["retries"] += 1
                    continue
            ticket.bytes_in += FrameCodec.HEADER_SIZE + len(rbody)
            return FrameCodec.decode_body(rbody)
        raise PoolUnavailable(
            f"no shard host answered round (seq={flush_seq}, "
            f"shard={shard_id}) within {self.retry.max_retries} retries"
        )

    def _recv_matching(
        self,
        client: ShardHostClient,
        flush_seq: int,
        shard_id: int,
        deadline_s: Optional[float],
    ) -> bytes:
        """Read frames until this round's RESULT body arrives.

        After a re-scatter a host connection can carry rounds for more
        than one lane; responses arrive in the host's execution order,
        not ours.  RESULT frames for sibling lanes of the same flush
        round are stashed for their own collectors; anything stale (an
        abandoned earlier round) is discarded.
        """
        while True:
            kind, seq, sid, _ep, rbody = client.recv_frame(deadline_s)
            if seq != flush_seq:
                continue  # stale frame from an abandoned round
            if kind == FrameCodec.RESULT:
                if sid == shard_id:
                    return rbody
                self._stash[(seq, sid)] = rbody
                continue
            if kind == FrameCodec.ERROR and sid == shard_id:
                # A task error on the host: treat like a crashed round
                # (the host engine is a replica; a genuine payload bug
                # reproduces identically — and authentically — on the
                # in-process degrade path).
                raise WorkerCrashed(
                    f"shard host {client.addr} answered round "
                    f"(seq={flush_seq}, shard={shard_id}) with remote "
                    f"error {FrameCodec.decode_body(rbody)!r}"
                )

    def _note_failure(
        self, client: Optional[ShardHostClient], exc: Exception
    ) -> None:
        if isinstance(exc, FlushDeadlineExceeded):
            self.registry.counters["deadline_hits"] += 1
        if client is not None:
            self.registry.mark_dead(client, exc, self._flush_seq)
