"""Shard host process: one engine replica behind a TCP frame loop.

``python -m repro shard-host --listen 127.0.0.1:0 ...`` builds the
FULL dataset from the same workload flags and seed as the coordinator
and answers every lane against it — a cold flush's refine rounds (each
payload names the user rows it covers) and every flush's ``select``
round alike.  Dataset generation is deterministic, so every host's
replica is bitwise-identical to the coordinator's — which is what makes
re-scattering a failed round to *any* surviving host trivially
result-identical.  The host does not take that on faith: it answers a
``PING`` with its replica's digest, and
:meth:`~repro.serve.sharded.ShardedEngine.connect_hosts` refuses a host
whose digest is not the coordinator's.

The host then serves the :class:`~repro.serve.transport.FrameCodec`
protocol over asyncio: a ``SCATTER`` frame carrying a lane's payload
round runs :func:`~repro.core.pipeline.execute_shard_payload` against
the local replica and answers one ``RESULT`` frame
whose body is the chunks, funnelled through
:func:`~repro.core.payload.encode_gather_payload` — the same bytes the
fork-pool path moves, minus the fork.

Shared-memory discipline: the host is a *foreign attacher* of the
coordinator's arena (payloads carry
:class:`~repro.core.payload.ArenaRef` descriptors that resolve by
segment name), so startup enables
:func:`repro.storage.shm.set_untracked_attach` — attaching must not
register the coordinator's segments with this process's
resource_tracker, or the host's exit would unlink them under the
coordinator (see ``tests/storage/test_shm.py``).

Fault injection (the CI ``multihost-smoke`` / fault suites): the
``--fault`` vocabulary maps onto the socket fields of
:class:`~repro.serve.faults.FaultPlan` and is enforced HERE, in the
frame loop, so the coordinator's recovery ladder runs over real TCP
failures — dropped connections, stalled reads, refused service.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.pipeline import execute_shard_payload
from ..model.dataset import Dataset
from .faults import FaultPlan
from .transport import FrameCodec

__all__ = [
    "ShardHost",
    "WorkloadSpec",
    "make_workload",
    "parse_socket_fault",
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
# Fault vocabulary (the shard-host --fault flag)
# ----------------------------------------------------------------------

def parse_socket_fault(spec: str) -> Optional[FaultPlan]:
    """``none`` | ``drop-frame:N`` | ``stall-read:N[:SECONDS]`` |
    ``refuse-accept`` → a socket-fault :class:`FaultPlan` (or None)."""
    if spec == "none":
        return None
    name, _, rest = spec.partition(":")
    if name == "drop-frame":
        return FaultPlan.drop_connection(int(rest or 0))
    if name == "stall-read":
        frame_s, _, stall = rest.partition(":")
        return FaultPlan.stall_read(
            int(frame_s or 0), stall_s=float(stall) if stall else 5.0
        )
    if name == "refuse-accept":
        return FaultPlan.refuse()
    raise ValueError(
        f"unknown socket fault {spec!r} (expected none, drop-frame:N, "
        f"stall-read:N[:S] or refuse-accept)"
    )


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------

class ShardHost:
    """Frame-serving loop over a local full-dataset replica.

    Embeddable (the transport tests run hosts on background threads)
    and the engine behind the ``repro shard-host`` process.  One frame
    at a time per connection; independent connections are served
    concurrently by asyncio, which is what lets a retry connection
    proceed while a stalled one sleeps.
    """

    def __init__(self, dataset: Dataset, fault: Optional[FaultPlan] = None) -> None:
        self.dataset = dataset
        self.fault = fault
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Scatter frames seen, process-wide — the deterministic clock
        #: the fire-once socket faults count against.
        self.scatter_frames = 0
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

    # -- frame loop ----------------------------------------------------
    def _fire_once(self, key: str) -> bool:
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        fault = self.fault
        if fault is not None and fault.refuse_accept:
            # Persistent refusal of service: close before reading a
            # byte, every connection — the socket analog of pool_loss.
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
                if kind == FrameCodec.PING:
                    # The PONG body is this replica's dataset digest: the
                    # coordinator refuses a host built from other data.
                    writer.write(FrameCodec.pack(
                        FrameCodec.PONG, flush_seq, shard_id, epoch,
                        self.fingerprint.encode("ascii"),
                    ))
                    await writer.drain()
                    continue
                if kind != FrameCodec.SCATTER:
                    continue  # coordinators never send anything else
                frame_index = self.scatter_frames
                self.scatter_frames += 1
                if (
                    fault is not None
                    and fault.drop_connection_on_frame == frame_index
                    and self._fire_once("drop")
                ):
                    # Abort, don't linger: the coordinator must see a
                    # reset/EOF with its round in flight (WorkerCrashed).
                    writer.transport.abort()
                    return
                if (
                    fault is not None
                    and fault.stall_read_on_frame == frame_index
                    and self._fire_once("stall")
                ):
                    await asyncio.sleep(fault.stall_s)
                response = self._run_round(flush_seq, shard_id, epoch, body)
                writer.write(response)
                await writer.drain()
        finally:
            writer.close()

    def _run_round(
        self, flush_seq: int, shard_id: int, epoch: int, body: bytes
    ) -> bytes:
        """Execute one scatter round against the local replica.

        CPU-bound work runs inline (one round at a time per host, like
        a one-worker pool); a payload exception answers an ERROR frame
        so the coordinator can degrade the round instead of hanging.
        """
        from ..core.payload import encode_gather_payload

        try:
            payloads = FrameCodec.decode_body(body)
            chunks = [
                encode_gather_payload(
                    execute_shard_payload(self.dataset, payload)
                )
                for payload in payloads
            ]
            rbody = FrameCodec.encode_body(chunks)
            return FrameCodec.pack(
                FrameCodec.RESULT, flush_seq, shard_id, epoch, rbody
            )
        except Exception as exc:  # noqa: BLE001 - answer typed, keep serving
            rbody = FrameCodec.encode_body((type(exc).__name__, str(exc)))
            return FrameCodec.pack(
                FrameCodec.ERROR, flush_seq, shard_id, epoch, rbody
            )


#: ``mallopt`` parameter number of glibc's ``M_TOP_PAD``.
_M_TOP_PAD = -2
_HEAP_PAD_BYTES = 16 << 20


def _pad_heap() -> None:
    """Keep 16 MB free at the top of the C heap (glibc only).

    A select payload allocates and frees ~2 MB of array temporaries.
    The host's replica is built from columns, so its heap is compact:
    glibc trims the freed top back to the OS after every payload and
    the next one faults it in again — ~510 minor page faults a payload,
    ~8 % of a warm ``serve-socket`` flush (2 vCPU, 4k/400 cell).  With
    a 16 MB top pad the heap keeps those pages between payloads.
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
    arena: Optional[str] = None,
) -> int:
    """Process entry point behind ``repro shard-host`` (blocks forever).

    Prints ``SHARDHOST LISTENING <port>`` once bound — the line the
    bench and CI parse to learn an ephemeral port.
    """
    from ..storage.shm import ShmArena, set_untracked_attach

    # Foreign attacher: ArenaRefs in scatter payloads resolve against
    # the COORDINATOR's segments; registering them with this process's
    # resource_tracker would unlink them under the coordinator when
    # this host exits.
    set_untracked_attach(True)
    if arena:
        ShmArena.attach(arena).close()  # fail fast on a bad --arena
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
