"""Shard host: one engine replica behind the frame loop — every lane.

A lane of a sharded engine is a :class:`ShardHost` wherever it runs:

* **local** — :class:`~repro.serve.pool.PersistentWorkerPool` forks the
  host from the coordinator after the kernel arrays exist, on one end
  of a ``socket.socketpair()``: the child inherits the dataset and its
  arrays through copy-on-write and runs
  :meth:`ShardHost.serve_socket`;
* **remote** — ``python -m repro shard-host --listen 127.0.0.1:0 ...``
  builds the FULL dataset from the same workload flags and seed as the
  coordinator and serves the frame loop over TCP (asyncio,
  :meth:`ShardHost.start`).  Dataset generation is deterministic, so
  every replica is bitwise-identical to the coordinator's — which is
  what makes re-scattering a failed round to *any* surviving host
  result-identical.  The host does not take that on faith: it answers
  a ``PING`` with its replica's digest, and
  :meth:`~repro.serve.sharded.ShardedEngine.connect_hosts` refuses a
  host whose digest is not the coordinator's.

Both speak the :class:`~repro.serve.transport.FrameCodec` protocol
through one frame handler: a ``SCATTER`` frame carrying a lane's
payloads runs :func:`~repro.core.pipeline.execute_shard_payload` on
each against the local replica and answers one ``RESULT`` frame whose
body is the chunks, funnelled through
:func:`~repro.core.payload.encode_gather_payload`; a payload exception
answers an ``ERROR`` frame.

Shared-memory discipline: with ``use_shm`` the payloads carry
:class:`~repro.core.payload.ArenaRef` descriptors, and every host —
forked or remote — copies the referenced block out of the
coordinator's arena by segment name and keeps no mapping.  A remote
host runs its own resource_tracker, so :func:`run_host` enables
:func:`repro.storage.shm.set_untracked_attach`: opening a segment must
not register it there, or the host's exit would unlink it under the
coordinator (see ``tests/storage/test_shm.py``).

Fault injection: every :class:`~repro.serve.faults.FaultPlan` host-side
fault — kill, hang, task exception, dropped frame, stalled read,
refused service — fires HERE, in the frame handler, so the
coordinator's recovery ladder runs over real failures on local and
remote hosts alike.
"""

from __future__ import annotations

import asyncio
import socket
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.payload import encode_gather_payload
from ..core.pipeline import execute_shard_payload
from ..model.dataset import Dataset
from .faults import FaultPlan
from .transport import FrameCodec

__all__ = [
    "ShardHost",
    "WorkloadSpec",
    "make_workload",
    "run_host",
    "workload_spec_from_args",
]


# ----------------------------------------------------------------------
# Canonical workload construction (shared by cli, shard hosts, benches)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Everything that determines a generated workload, bit for bit.

    The coordinator and every shard host build their datasets from the
    same spec; because generation is seed-deterministic, the replicas
    agree without shipping a byte of data.
    """

    dataset: str = "flickr"       # "flickr" | "yelp"
    objects: int = 2000
    users: int = 200
    ul: int = 3                   # keywords per user
    uw: int = 20                  # unique user keywords
    area: float = 5.0
    locations: int = 20
    measure: str = "LM"           # "LM" | "TF" | "KO"
    alpha: float = 0.5
    seed: int = 0

    def cli_args(self) -> list:
        """The ``repro`` workload flags reproducing this spec."""
        return [
            "--dataset", self.dataset,
            "--objects", str(self.objects),
            "--users", str(self.users),
            "--ul", str(self.ul),
            "--uw", str(self.uw),
            "--area", str(self.area),
            "--locations", str(self.locations),
            "--measure", self.measure,
            "--alpha", str(self.alpha),
            "--seed", str(self.seed),
        ]


def workload_spec_from_args(args) -> WorkloadSpec:
    """One spec from an argparse namespace with the workload flags."""
    return WorkloadSpec(
        dataset=args.dataset,
        objects=args.objects,
        users=args.users,
        ul=args.ul,
        uw=args.uw,
        area=args.area,
        locations=args.locations,
        measure=args.measure,
        alpha=args.alpha,
        seed=args.seed,
    )


def make_workload(spec: WorkloadSpec):
    """Build ``(dataset, workload)`` from a spec — the ONE construction
    path shared by the CLI, shard hosts and the multi-host bench."""
    from ..datagen import (
        candidate_locations,
        flickr_like,
        generate_users,
        yelp_like,
    )

    if spec.dataset == "flickr":
        objects, vocab = flickr_like(num_objects=spec.objects, seed=spec.seed)
    else:
        objects, vocab = yelp_like(
            num_objects=max(60, spec.objects // 6), seed=spec.seed
        )
    workload = generate_users(
        objects,
        num_users=spec.users,
        keywords_per_user=spec.ul,
        unique_keywords=spec.uw,
        area_side=spec.area,
        seed=spec.seed,
    )
    candidate_locations(workload, num_locations=spec.locations, seed=spec.seed)
    dataset = Dataset(
        objects, workload.users, relevance=spec.measure, alpha=spec.alpha,
        vocabulary=vocab,
    )
    return dataset, workload


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------

def _payload_lane(payload) -> Optional[int]:
    """Refine lane (row range index) a scatter payload carries (None
    for selection payloads)."""
    if isinstance(payload, tuple) and payload and payload[0] == "refine":
        return payload[3]
    return None


def _read_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    """``n`` bytes off a blocking socket, or None at EOF / reset."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:])
        except ConnectionResetError:
            return None
        if not chunk:
            return None
        got += chunk
    return bytes(buf)


class ShardHost:
    """Frame handler over a local full-dataset replica.

    Serves TCP connections on asyncio (:meth:`start`: the ``repro
    shard-host`` process, and the embedded hosts of the transport
    tests, on background threads) or one connected socket blocking
    (:meth:`serve_socket`: a forked local lane).  One frame at a time
    per connection; independent TCP connections are served concurrently
    by asyncio, which is what lets a retry connection proceed while a
    stalled one sleeps.

    ``generation`` is the host's incarnation — 0 as
    first started, +1 per re-fork — against which ``fault`` is armed.
    """

    def __init__(
        self,
        dataset: Dataset,
        fault: Optional[FaultPlan] = None,
        *,
        generation: int = 0,
    ) -> None:
        self.dataset = dataset
        self.fault = fault
        self.generation = generation
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Scatter frames / payloads seen, process-wide — the
        #: deterministic clocks the frame and task faults count against.
        self.scatter_frames = 0
        self.tasks = 0
        self._fired: set = set()
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Digest of the replica (:meth:`Dataset.fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = self.dataset.fingerprint()
        return self._fingerprint

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and serve; returns the bound port (``port=0`` = ephemeral)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- the frame handler (one for both loops) -------------------------
    def _armed(self) -> Optional[FaultPlan]:
        fault = self.fault
        return fault if fault is not None and fault.armed(self.generation) else None

    def _refuses(self) -> bool:
        """Persistent refusal of service: close before reading a byte."""
        fault = self._armed()
        return fault is not None and fault.refuse_accept

    def _fire_once(self, key: str) -> bool:
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def _frame_fault(self) -> Tuple[bool, float]:
        """Count one scatter frame: ``(drop the connection instead of
        answering, seconds to stall before answering)``."""
        index = self.scatter_frames
        self.scatter_frames += 1
        fault = self._armed()
        if fault is None:
            return False, 0.0
        if fault.drop_connection_on_frame == index and self._fire_once("drop"):
            return True, 0.0
        if fault.stall_read_on_frame == index and self._fire_once("stall"):
            return False, fault.stall_s
        return False, 0.0

    def answer(
        self, kind: int, flush_seq: int, shard_id: int, epoch: int, body: bytes
    ) -> Optional[bytes]:
        """The frame answering one request frame (None: nothing to send)."""
        if kind == FrameCodec.PING:
            # The PONG body is this replica's dataset digest: the
            # coordinator refuses a host built from other data.
            return FrameCodec.pack(
                FrameCodec.PONG, flush_seq, shard_id, epoch,
                self.fingerprint.encode("ascii"),
            )
        if kind != FrameCodec.SCATTER:
            return None  # coordinators never send anything else
        return self._run_round(flush_seq, shard_id, epoch, body)

    def _run_round(
        self, flush_seq: int, shard_id: int, epoch: int, body: bytes
    ) -> bytes:
        """Execute one scatter round against the local replica.

        CPU-bound work runs inline (one round at a time per host); a
        payload exception answers an ERROR frame so the coordinator can
        retry or degrade the round instead of hanging.
        """
        try:
            chunks = []
            for payload in FrameCodec.decode_body(body):
                index = self.tasks
                self.tasks += 1
                if self.fault is not None:
                    self.fault.worker_hook(
                        index, self.generation, _payload_lane(payload)
                    )
                chunks.append(encode_gather_payload(
                    execute_shard_payload(self.dataset, payload)
                ))
            rbody = FrameCodec.encode_body(chunks)
            return FrameCodec.pack(
                FrameCodec.RESULT, flush_seq, shard_id, epoch, rbody
            )
        except Exception as exc:  # noqa: BLE001 - answer typed, keep serving
            rbody = FrameCodec.encode_body((type(exc).__name__, str(exc)))
            return FrameCodec.pack(
                FrameCodec.ERROR, flush_seq, shard_id, epoch, rbody
            )

    # -- the two loops -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._refuses():
            writer.close()
            return
        try:
            while True:
                try:
                    header = await reader.readexactly(FrameCodec.HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # peer closed; this connection is done
                kind, flush_seq, shard_id, epoch, length = (
                    FrameCodec.unpack_header(header)
                )
                body = await reader.readexactly(length) if length else b""
                if kind == FrameCodec.SCATTER:
                    drop, stall_s = self._frame_fault()
                    if drop:
                        # Abort, don't linger: the coordinator must see a
                        # reset/EOF with its round in flight.
                        writer.transport.abort()
                        return
                    if stall_s:
                        await asyncio.sleep(stall_s)
                response = self.answer(kind, flush_seq, shard_id, epoch, body)
                if response is not None:
                    writer.write(response)
                    await writer.drain()
        finally:
            writer.close()

    def serve_socket(self, sock: socket.socket) -> None:
        """The frame loop on one connected socket, blocking, until the
        peer closes it (a forked local lane's whole life)."""
        with sock:
            if self._refuses():
                return
            while True:
                header = _read_exactly(sock, FrameCodec.HEADER_SIZE)
                if header is None:
                    return
                kind, flush_seq, shard_id, epoch, length = (
                    FrameCodec.unpack_header(header)
                )
                body = _read_exactly(sock, length) if length else b""
                if body is None:
                    return
                if kind == FrameCodec.SCATTER:
                    drop, stall_s = self._frame_fault()
                    if drop:
                        return  # closing is the drop: EOF at the coordinator
                    if stall_s:
                        time.sleep(stall_s)
                response = self.answer(kind, flush_seq, shard_id, epoch, body)
                if response is not None:
                    try:
                        sock.sendall(response)
                    except OSError:
                        return  # the coordinator hung up mid-answer


#: ``mallopt`` parameter number of glibc's ``M_TOP_PAD``.
_M_TOP_PAD = -2
_HEAP_PAD_BYTES = 16 << 20


def _pad_heap() -> None:
    """Keep 16 MB free at the top of the C heap (glibc only).

    A select payload allocates and frees ~2 MB of array temporaries.
    A host's replica is built from columns, so its heap is compact:
    glibc trims the freed top back to the OS after every payload and
    the next one faults it in again — ~510 minor page faults a payload,
    ~8 % of a warm ``serve-socket`` flush (2 vCPU, 4k/400 cell).  With
    a 16 MB top pad the heap keeps those pages between payloads.
    Remote hosts pad at startup (:func:`run_host`), forked local hosts
    right after the fork.
    """
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.mallopt(_M_TOP_PAD, _HEAP_PAD_BYTES)
    except (OSError, AttributeError):  # not glibc: nothing to tune
        pass


def run_host(
    spec: WorkloadSpec,
    *,
    listen: Tuple[str, int] = ("127.0.0.1", 0),
    fault: Optional[FaultPlan] = None,
) -> int:
    """Process entry point behind ``repro shard-host`` (blocks forever).

    Prints ``SHARDHOST LISTENING <port>`` once bound — the line the
    bench and CI parse to learn an ephemeral port.
    """
    from ..storage.shm import set_untracked_attach

    # ArenaRefs in scatter payloads resolve against the COORDINATOR's
    # segments; registering them with this process's resource_tracker
    # would unlink them under the coordinator when this host exits.
    set_untracked_attach(True)
    host = ShardHost(make_workload(spec)[0], fault=fault)
    _pad_heap()

    async def _main() -> None:
        port = await host.start(listen[0], listen[1])
        print(f"SHARDHOST LISTENING {port}", flush=True)
        await host.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
