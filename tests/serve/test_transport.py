"""Unit tests for the socket transport wire layer.

Frame codec round trips, host-spec parsing, and the client's error
mapping (refused → PoolUnavailable, EOF → WorkerCrashed, timeout →
FlushDeadlineExceeded) against throwaway local sockets.  The full
scatter path over live shard hosts is ``test_multihost.py``.
"""

import logging
import socket
import struct
import threading

import pytest

from repro.serve.errors import (
    FlushDeadlineExceeded,
    PoolUnavailable,
    WorkerCrashed,
)
from repro.serve.transport import (
    FrameCodec,
    ShardHostClient,
    ShardRegistry,
    parse_host_specs,
)


# ----------------------------------------------------------------------
# FrameCodec
# ----------------------------------------------------------------------

def test_frame_round_trip():
    body = FrameCodec.encode_body([("refine", None, [3, 5], 1, None, 0, 4)])
    frame = FrameCodec.pack(FrameCodec.SCATTER, 7, 1, 42, body)
    header, rest = frame[:FrameCodec.HEADER_SIZE], frame[FrameCodec.HEADER_SIZE:]
    kind, flush_seq, shard_id, epoch, length = FrameCodec.unpack_header(header)
    assert kind == FrameCodec.SCATTER
    assert flush_seq == 7
    assert shard_id == 1
    assert epoch == 42
    assert length == len(body)
    assert rest == body
    assert FrameCodec.decode_body(rest) == [("refine", None, [3, 5], 1, None, 0, 4)]


def test_frame_header_is_21_bytes_and_supports_negative_shard():
    assert FrameCodec.HEADER_SIZE == 21
    frame = FrameCodec.pack(FrameCodec.PING, 0, -1, 0)
    kind, _, shard_id, _, length = FrameCodec.unpack_header(frame)
    assert kind == FrameCodec.PING
    assert shard_id == -1
    assert length == 0


def test_frame_rejects_bad_magic_and_kind():
    frame = FrameCodec.pack(FrameCodec.RESULT, 1, 0, 0, b"x")
    with pytest.raises(ValueError, match="magic"):
        FrameCodec.unpack_header(b"XXXX" + frame[4:FrameCodec.HEADER_SIZE])
    with pytest.raises(ValueError, match="kind"):
        FrameCodec.pack(99, 1, 0, 0)
    bad = struct.pack("<4sBIiII", b"RPF1", 99, 1, 0, 0, 0)
    with pytest.raises(ValueError, match="kind"):
        FrameCodec.unpack_header(bad)


# ----------------------------------------------------------------------
# Host specs
# ----------------------------------------------------------------------

def test_parse_host_specs_variants():
    assert parse_host_specs("a:1,b:2") == [("a", 1), ("b", 2)]
    assert parse_host_specs(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
    assert parse_host_specs("127.0.0.1:9000") == [("127.0.0.1", 9000)]


def test_parse_host_specs_rejects_garbage():
    with pytest.raises(ValueError):
        parse_host_specs("")
    with pytest.raises(ValueError):
        parse_host_specs("no-port")
    with pytest.raises(ValueError):
        parse_host_specs("h:0")
    with pytest.raises(ValueError):
        parse_host_specs("h:70000")


# ----------------------------------------------------------------------
# Client error mapping (the failure-ladder contract)
# ----------------------------------------------------------------------

def _listener():
    """A bound, listening socket on an ephemeral port."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    return srv, srv.getsockname()[1]


def test_connect_refused_maps_to_pool_unavailable():
    srv, port = _listener()
    srv.close()  # nothing listens on this port anymore
    client = ShardHostClient("127.0.0.1", port, connect_timeout_s=1.0)
    with pytest.raises(PoolUnavailable):
        client.connect()
    assert not client.alive


def test_eof_mid_frame_maps_to_worker_crashed():
    srv, port = _listener()

    def peer():
        conn, _ = srv.accept()
        conn.recv(64)      # swallow whatever arrives
        conn.close()       # EOF with the round in flight

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("127.0.0.1", port)
    client.connect()
    client.send_frame(FrameCodec.pack(FrameCodec.PING, 0, -1, 0))
    with pytest.raises(WorkerCrashed):
        client.recv_frame(5.0)
    assert not client.alive
    thread.join(5)
    srv.close()


def test_read_timeout_maps_to_flush_deadline_exceeded():
    srv, port = _listener()

    def peer():
        conn, _ = srv.accept()
        conn.recv(64)
        # ... and never answer.
        threading.Event().wait(2.0)
        conn.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("127.0.0.1", port)
    client.connect()
    client.send_frame(FrameCodec.pack(FrameCodec.PING, 0, -1, 0))
    with pytest.raises(FlushDeadlineExceeded):
        client.recv_frame(0.2)
    thread.join(5)
    srv.close()


def test_client_counts_wire_bytes():
    srv, port = _listener()
    reply = FrameCodec.pack(FrameCodec.PONG, 0, -1, 0)

    def peer():
        conn, _ = srv.accept()
        conn.recv(FrameCodec.HEADER_SIZE)
        conn.sendall(reply)
        conn.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("127.0.0.1", port)
    client.connect()
    ping = FrameCodec.pack(FrameCodec.PING, 0, -1, 0)
    client.send_frame(ping)
    kind, *_ = client.recv_frame(5.0)
    assert kind == FrameCodec.PONG
    assert client.bytes_sent == len(ping)
    assert client.bytes_received == len(reply)
    assert client.rounds == 0  # a PONG is not an answered round
    thread.join(5)
    srv.close()
    client.close()


def test_garbled_header_maps_to_worker_crashed_and_drops_the_connection():
    """Past a header that does not parse, where the next frame starts is
    unknowable: the client closes, like a host that died mid-frame."""
    ours, theirs = socket.socketpair()
    client = ShardHostClient("local", 0)
    client._sock, client.alive = ours, True
    frame = FrameCodec.pack(FrameCodec.RESULT, 1, 0, 0, b"x")
    theirs.sendall(b"JUNK" + frame[4:])
    with pytest.raises(WorkerCrashed, match="garbled frame header"):
        client.recv_frame(5.0)
    assert not client.alive
    with pytest.raises(WorkerCrashed, match="not connected"):
        client.recv_frame(5.0)
    theirs.close()


@pytest.mark.parametrize(
    "kind", [FrameCodec.RESULT, FrameCodec.ERROR], ids=["result", "error"]
)
def test_undecodable_answer_body_takes_the_host_out_of_rotation(kind):
    """A RESULT or ERROR body that does not unpickle is a dead host, not
    a bare decode error: counted once, disconnected, the lane left for
    the ladder to re-send (here: no survivor, so the pool is gone)."""
    ours, theirs = socket.socketpair()
    garbled = b"\x80garbled"

    def peer():
        header = theirs.recv(FrameCodec.HEADER_SIZE, socket.MSG_WAITALL)
        _, seq, sid, epoch, length = FrameCodec.unpack_header(header)
        theirs.recv(length, socket.MSG_WAITALL)
        theirs.sendall(FrameCodec.pack(kind, seq, sid, epoch, garbled))

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("local", 0)
    client._sock, client.alive = ours, True
    registry = ShardRegistry([client])
    registry.next_round()
    inflight = registry.dispatch([("no-such-kind",)])
    with pytest.raises(PoolUnavailable):
        registry.collect(inflight)
    thread.join(5)
    assert not client.alive
    assert registry.counters["worker_deaths"] == 1
    assert "undecodable answer body" in client.last_error
    assert inflight.bytes_in == FrameCodec.HEADER_SIZE + len(garbled)
    theirs.close()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_assigns_shards_over_survivors():
    clients = [ShardHostClient("h", p) for p in (1, 2, 3)]
    for c in clients:
        c.alive = True  # pretend-connected; no I/O in this test
    registry = ShardRegistry(clients)
    assert registry.host_for(0) is clients[0]
    assert registry.host_for(4) is clients[1]
    registry.mark_dead(clients[0], RuntimeError("boom"))
    assert registry.host_for(0) is clients[1]
    assert registry.counters["worker_deaths"] == 1
    # A second death report for the same host is not double-counted.
    registry.mark_dead(clients[0], RuntimeError("boom again"))
    assert registry.counters["worker_deaths"] == 1
    registry.mark_dead(clients[1], RuntimeError("boom"))
    registry.mark_dead(clients[2], RuntimeError("boom"))
    with pytest.raises(PoolUnavailable):
        registry.host_for(0)


def test_registry_connect_all_requires_a_live_host():
    srv, port = _listener()
    srv.close()
    registry = ShardRegistry.from_specs(
        f"127.0.0.1:{port}", connect_timeout_s=0.5
    )
    with pytest.raises(PoolUnavailable):
        registry.connect_all()


def test_registry_health_rows_shape():
    clients = [ShardHostClient("h", 1)]
    registry = ShardRegistry(clients)
    (row,) = registry.health_rows()
    assert row["pool"] == "host-h:1"
    assert row["state"] == "dead"
    assert set(row) >= {"rounds", "bytes_sent", "bytes_received"}


def test_rounds_count_answered_rounds_not_heartbeats():
    """N scatter rounds + M pings leave the health row at rounds == N."""
    srv, port = _listener()
    n_rounds, n_pings = 3, 4

    def peer():
        conn, _ = srv.accept()
        for _ in range(n_rounds + n_pings):
            header = conn.recv(FrameCodec.HEADER_SIZE, socket.MSG_WAITALL)
            kind, seq, sid, epoch, _ = FrameCodec.unpack_header(header)
            answer = (
                FrameCodec.PONG if kind == FrameCodec.PING else FrameCodec.RESULT
            )
            conn.sendall(FrameCodec.pack(answer, seq, sid, epoch))
        conn.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("127.0.0.1", port)
    client.connect()
    registry = ShardRegistry([client])
    for i in range(n_pings):
        assert registry.ping_all(timeout_s=5.0) == {client.addr: True}
        if i < n_rounds:
            client.send_frame(FrameCodec.pack(FrameCodec.SCATTER, i + 1, 0, 0))
            kind, *_ = client.recv_frame(5.0)
            assert kind == FrameCodec.RESULT
    (row,) = registry.health_rows()
    assert row["rounds"] == n_rounds
    thread.join(5)
    srv.close()
    client.close()


def test_heartbeat_resurrection_is_logged_once(caplog):
    srv, port = _listener()

    def peer():
        for _ in range(2):  # the first connection, then the reconnect
            conn, _ = srv.accept()
            while conn.recv(FrameCodec.HEADER_SIZE):
                conn.sendall(FrameCodec.pack(FrameCodec.PONG, 0, -1, 0))
            conn.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    client = ShardHostClient("127.0.0.1", port)
    client.connect()
    registry = ShardRegistry([client])
    with caplog.at_level(logging.INFO, logger="repro.serve.transport"):
        registry.mark_dead(client, RuntimeError("boom"), flush_seq=9)
        registry.mark_dead(client, RuntimeError("boom again"), flush_seq=9)
        assert registry.ping_all(timeout_s=5.0) == {client.addr: True}
        assert registry.ping_all(timeout_s=5.0) == {client.addr: True}
    levels = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert [level for level, _ in levels] == [logging.WARNING, logging.INFO]
    assert f"{client.addr} marked dead: flush_seq=9" in levels[0][1]
    assert f"{client.addr} resurrected" in levels[1][1]
    client.close()
    thread.join(5)
    srv.close()


# ----------------------------------------------------------------------
# Shard host: one full replica answers every lane
# ----------------------------------------------------------------------

def test_host_answers_a_range_outside_its_replica_with_error_frame():
    """A host whose user set disagrees with the coordinator's must not
    answer the round against the wrong rows: typed ERROR frame, echoing
    the lane the round was dealt to."""
    from repro import MaxBRSTkNNEngine
    from repro.core.joint_topk import joint_traversal
    from repro.serve.shardhost import ShardHost

    from .conftest import build_dataset

    dataset, _, _ = build_dataset(0)
    tree = MaxBRSTkNNEngine(dataset, fanout=4).object_tree
    walked = joint_traversal(tree, dataset, 3)
    host = ShardHost(dataset)
    n_users = len(dataset.users)

    def answer(lo, hi):
        body = FrameCodec.encode_body(
            [("refine", walked, [3], 5, None, lo, hi)]
        )
        frame = host._run_round(7, 5, 0, body)
        header = FrameCodec.unpack_header(frame[:FrameCodec.HEADER_SIZE])
        return header[:3], FrameCodec.decode_body(frame[FrameCodec.HEADER_SIZE:])

    header, (type_name, message) = answer(0, n_users + 1)
    assert header == (FrameCodec.ERROR, 7, 5)
    assert type_name == "UserRangeError"
    assert f"{n_users} users" in message
    header, chunks = answer(2, 2)  # an empty range is a valid, empty answer
    assert header == (FrameCodec.RESULT, 7, 5)
    from repro.core.payload import decode_gather_payload

    (chunk,) = chunks
    (partial,) = decode_gather_payload(chunk)
    assert (partial.shard_id, partial.k, partial.rsk) == (5, 3, {})


def test_the_blocking_frame_loop_answers_like_the_tcp_one():
    """``ShardHost.serve_socket`` — a forked local host's whole life —
    runs the same handler as the asyncio loop: PONG with the digest,
    ERROR for a payload that raises, and it returns at the peer's EOF."""
    from repro.serve.shardhost import ShardHost

    from .conftest import build_dataset

    dataset, _, _ = build_dataset(0)
    host = ShardHost(dataset)
    ours, theirs = socket.socketpair()
    loop = threading.Thread(target=host.serve_socket, args=(theirs,), daemon=True)
    loop.start()
    client = ShardHostClient("local", 0)
    client._sock, client.alive = ours, True
    assert client.fingerprint(timeout_s=5.0) == dataset.fingerprint()
    body = FrameCodec.encode_body([("no-such-kind",)])
    client.send_frame(FrameCodec.pack(FrameCodec.SCATTER, 3, 1, 0, body))
    kind, seq, shard, _, rbody = client.recv_frame(5.0)
    assert (kind, seq, shard) == (FrameCodec.ERROR, 3, 1)
    assert FrameCodec.decode_body(rbody)[0] == "ValueError"
    client.close()
    loop.join(5)
    assert not loop.is_alive()


def test_frame_faults_fire_only_in_their_generation():
    """A re-forked host (generation 1) runs fault-free: the drop armed
    for generation 0 answers normally there."""
    from repro.serve.faults import FaultPlan
    from repro.serve.shardhost import ShardHost

    from .conftest import build_dataset

    dataset, _, _ = build_dataset(0)
    plan = FaultPlan.drop_connection(0)
    assert ShardHost(dataset, plan)._frame_fault() == (True, 0.0)
    assert ShardHost(dataset, plan, generation=1)._frame_fault() == (False, 0.0)
