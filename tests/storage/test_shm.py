"""Shared-memory payload tier: arena lifecycle, codec identity, leak-freedom.

Three contracts under test, each an acceptance item of the tier:

* **round-trip identity** — anything placed in a :class:`ShmArena`
  (byte blobs, codec-encoded payload blocks) comes back bit for bit
  when read out by name, including dict insertion order for ``RSk(u)``
  maps;
* **lifecycle** — ``close``/``unlink``/``destroy`` are idempotent, and
  an abandoned owner is swept by its finalizer: ``/dev/shm`` holds zero
  ``reproshm-`` segments after any teardown order, including an
  injected worker SIGKILL mid-flush;
* **codec correctness** — encode/decode are exact inverses over
  randomized ``PartialResult`` inputs, delta shipping memoizes
  by object identity + dataset epoch, and every fallback path keeps the
  payload on plain pickle rather than failing the flush.
"""

import os
import pickle
import random
import re
import struct

import pytest

from repro.core.partial import PartialResult
from repro.core.payload import (
    ArenaRef,
    PayloadCodec,
    _clear_ref_cache,
    decode_gather_payload,
    decode_rsk,
    decode_shard_payload,
    encode_gather_payload,
    encode_rsk,
    encode_shard_payload,
    resolve_ref,
)
from repro.storage.shm import SHM_PREFIX, ShmArena, ShmArenaError, arena_segments


def random_rsk(rng, n=None):
    """A randomized {user_id: RSk(u)} map with non-sorted insertion order."""
    n = rng.randint(0, 40) if n is None else n
    ids = rng.sample(range(-(2**40), 2**40), n)
    return {uid: rng.uniform(-1e9, 1e9) for uid in ids}


# ----------------------------------------------------------------------
# Arena: round-trip identity
# ----------------------------------------------------------------------

def test_bytes_round_trip_and_blob_guard():
    blob = bytes(random.Random(3).randrange(256) for _ in range(4096))
    with ShmArena() as arena:
        arena.add_bytes("blob", blob)
        assert arena.columns() == {"blob": (None, (4096,), 4096)}
        assert ShmArena.read_column_bytes(arena.name, "blob") == blob
        with pytest.raises(ShmArenaError, match="already exists"):
            arena.add_bytes("blob", b"again")
        with pytest.raises(ShmArenaError, match="invalid column"):
            arena.add_bytes("a/b", b"")


# ----------------------------------------------------------------------
# Arena: lifecycle + leak freedom
# ----------------------------------------------------------------------

def test_destroy_leaves_no_segments_and_is_idempotent():
    arena = ShmArena()
    arena.add_bytes("x", b"payload")
    name = arena.name
    assert any(seg.startswith(name) for seg in arena_segments())
    arena.destroy()
    assert not any(seg.startswith(name) for seg in arena_segments())
    arena.destroy()  # idempotent
    arena.unlink()
    arena.close()
    with pytest.raises(FileNotFoundError):
        ShmArena.read_column_bytes(name, "x")
    with pytest.raises(ShmArenaError, match="closed arena"):
        arena.add_bytes("y", b"late")


def test_abandoned_owner_is_swept_by_finalizer():
    import gc

    arena = ShmArena()
    arena.add_bytes("x", b"orphaned")
    name = arena.name
    del arena  # dropped without close(): the weakref.finalize must sweep
    gc.collect()
    assert not any(seg.startswith(name) for seg in arena_segments())


def test_drop_column_unlinks_and_preserves_directory():
    with ShmArena() as arena:
        arena.add_bytes("keep", b"live")
        arena.add_bytes("retire", b"superseded")
        segment = f"{arena.name}.retire"
        assert segment in arena_segments()
        arena.drop_column("retire")
        assert segment not in arena_segments()
        assert "retire" not in arena.columns()
        assert ShmArena.read_column_bytes(arena.name, "keep") == b"live"
        arena.drop_column("retire")  # idempotent


def test_unlink_keeps_existing_mappings_valid():
    arena = ShmArena()
    arena.add_bytes("x", b"published")
    try:
        assert ShmArena.read_column_bytes(arena.name, "x") == b"published"
        arena.unlink()  # names gone; POSIX keeps the memory for mappings
        assert not any(
            seg.startswith(arena.name) for seg in arena_segments()
        )
        # By-name access is now correctly impossible — the exact signal a
        # respawned worker gets if it outlives the arena.
        with pytest.raises(FileNotFoundError):
            ShmArena.read_column_bytes(arena.name, "x")
    finally:
        arena.close()


# ----------------------------------------------------------------------
# Codec: binary block round trips (randomized)
# ----------------------------------------------------------------------

def test_rsk_codec_round_trips_with_insertion_order():
    rng = random.Random(11)
    for _ in range(25):
        rsk = random_rsk(rng)
        decoded = decode_rsk(encode_rsk(rsk))
        assert decoded == rsk
        assert list(decoded.items()) == list(rsk.items())  # order too
    with pytest.raises(ValueError, match="RSK"):
        decode_rsk(b"nope" + b"\x00" * 16)


def test_partial_result_pickle_round_trip_randomized():
    rng = random.Random(19)
    for _ in range(15):
        partial = PartialResult(
            shard_id=rng.randrange(8), k=rng.randrange(1, 9),
            rsk=random_rsk(rng), users_total=rng.randrange(1000),
            time_s=rng.random(),
        )
        clone = pickle.loads(pickle.dumps(partial))
        assert clone == partial
        assert list(clone.rsk.items()) == list(partial.rsk.items())


def test_partial_result_falls_back_to_plain_pickle_on_odd_keys():
    # Non-int64 keys cannot pack into an RSK block; __reduce__ must fall
    # back to the plain constructor tuple, not fail the gather.
    partial = PartialResult(
        shard_id=0, k=2, rsk={2**70: 1.0}, users_total=1, time_s=0.0
    )
    assert pickle.loads(pickle.dumps(partial)) == partial


# ----------------------------------------------------------------------
# Codec: arena shipping (delta memo, fallbacks, retirement)
# ----------------------------------------------------------------------

def test_ship_delta_hits_on_same_object_same_epoch():
    epoch = [0]
    rsk = random_rsk(random.Random(29), n=20)
    with ShmArena() as arena:
        codec = PayloadCodec(arena, epoch_fn=lambda: epoch[0])
        ref1 = codec.ship(rsk, "rsk-root", kind="rsk")
        assert isinstance(ref1, ArenaRef)
        assert ref1.count == len(rsk)
        ref2 = codec.ship(rsk, "rsk-root", kind="rsk")
        assert ref2 is ref1  # delta hit: same ref, nothing rewritten
        assert codec.delta_hits == 1
        _clear_ref_cache()
        assert resolve_ref(ref1) == rsk

        epoch[0] += 1  # dataset mutated: the old block may not alias
        ref3 = codec.ship(rsk, "rsk-root", kind="rsk")
        assert ref3 is not ref1
        assert ref3.column != ref1.column
        _clear_ref_cache()
        assert resolve_ref(ref3) == rsk


def test_ship_falls_back_inline_on_unencodable_and_broken_arena():
    with ShmArena() as arena:
        codec = PayloadCodec(arena)
        bad = {"not-an-int": 1.0}
        assert codec.ship(bad, "rsk-root", kind="rsk") is bad
        assert codec.inline_fallbacks == 1
    # Arena destroyed: the first failed write trips the broken latch and
    # every later ship stays inline (correct, just un-optimized).
    payload = random_rsk(random.Random(31), n=5)
    assert codec.ship(payload, "rsk-root", kind="rsk") is payload
    assert codec._broken
    assert codec.ship(payload, "rsk-root", kind="rsk") is payload


def test_superseded_blocks_retire_after_the_lag():
    epoch = [0]
    with ShmArena() as arena:
        codec = PayloadCodec(arena, epoch_fn=lambda: epoch[0])
        rsk = random_rsk(random.Random(37), n=4)
        old_ref = codec.ship(rsk, "rsk-root", kind="rsk")
        epoch[0] += 1
        codec.ship(rsk, "rsk-root", kind="rsk")  # supersedes old_ref
        assert old_ref.column in arena  # not dropped yet: decoders may race
        for i in range(PayloadCodec.RETIRE_LAG + 1):
            codec.ship(random_rsk(random.Random(100 + i), n=2), f"t{i}",
                       kind="rsk")
        assert old_ref.column not in arena  # retired once safely cold
        assert f"{arena.name}.{old_ref.column}" not in arena_segments()


def test_ship_once_writes_unmemoized_blocks_that_retire():
    # A fresh column per call, never a delta hit, dropped once
    # RETIRE_LAG ships cold.
    with ShmArena() as arena:
        codec = PayloadCodec(arena)
        items = [("q0", [1, 2, 3])]
        first = codec.ship_once(items, "items")
        second = codec.ship_once(items, "items")
        assert isinstance(first, ArenaRef) and first.column != second.column
        assert codec.delta_hits == 0
        _clear_ref_cache()
        assert resolve_ref(first) == items
        for i in range(PayloadCodec.RETIRE_LAG + 1):
            codec.ship_once(i, f"t{i}")
        assert first.column not in arena


def test_shard_payload_encode_decode_inverse_and_passthrough():
    rng = random.Random(41)
    rsk = random_rsk(rng, n=12)
    with ShmArena() as arena:
        codec = PayloadCodec(arena)
        for payload in (
            ("refine", {"pool": [1, 2, 3]}, [2, 4], 1, None, 0, 5),
            ("select", ["q0", "q1", "q2"],
             ({"shared": rsk}, {"k": 2}, {"shared": rsk}), "joint", "greedy"),
        ):
            encoded = encode_shard_payload(codec, payload)
            assert encoded[0] == payload[0]
            assert len(encoded) == len(payload)  # slots preserved
            _clear_ref_cache()
            decoded = decode_shard_payload(encoded)
            assert decoded == payload
            # The decode funnel is identity on plain pickle-path payloads.
            assert decode_shard_payload(payload) == payload
    assert decode_shard_payload(("unknown-kind", 1, 2)) == ("unknown-kind", 1, 2)
    assert decode_shard_payload(()) == ()


# ----------------------------------------------------------------------
# End to end: the shm path is invisible except in bytes shipped
# ----------------------------------------------------------------------

HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()


def _serving_round(use_shm, faults=None, seed=5, prebuilt=None):
    """One pooled 2-shard batch; returns (results, engine arena name)."""
    from repro import EngineConfig, QueryOptions
    from repro.serve import RetryPolicy, make_engine

    from ..serve.conftest import build_dataset, make_queries

    dataset, rng, vocab = prebuilt if prebuilt else build_dataset(seed=seed)
    engine = make_engine(
        dataset, EngineConfig(fanout=4, num_shards=2, use_shm=use_shm)
    )
    engine.start_pools(
        1, faults=faults, retry=RetryPolicy(max_retries=1, backoff_base_s=0.0)
    )
    try:
        arena_name = engine.arena_name
        results = engine.query_batch(
            make_queries(rng, vocab, 6), QueryOptions()
        )
        report = engine.last_flush_report
    finally:
        engine.close_pools()
    return results, arena_name, report


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_engine_results_identical_with_and_without_shm():
    plain, arena_plain, _ = _serving_round(use_shm=False)
    shm, arena_shm, report = _serving_round(use_shm=True)
    assert arena_plain is None
    assert arena_shm is not None
    for a, b in zip(plain, shm):
        assert a.location == b.location
        assert a.keywords == b.keywords
        assert a.brstknn == b.brstknn
    assert report.payload_bytes_out > 0  # the codec path actually ran
    assert not arena_segments(), "serving leaked /dev/shm segments"


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_shared_dataset_survives_shm_engine_teardown():
    # Engines over one dataset share its memoized DatasetArrays /
    # TreeArrays: an shm engine's teardown must leave them usable for
    # every later engine, pickle or shm.
    from ..serve.conftest import build_dataset

    dataset, _, vocab = build_dataset(seed=5)

    def round_(use_shm):
        return _serving_round(
            use_shm, prebuilt=(dataset, random.Random(99), vocab)
        )[0]

    baseline = round_(use_shm=False)
    for use_shm in (True, False, True, False):
        results = round_(use_shm)
        for a, b in zip(baseline, results):
            assert a.location == b.location
            assert a.keywords == b.keywords
            assert a.brstknn == b.brstknn
    assert not arena_segments()


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_killed_worker_leaks_no_segments_and_results_survive():
    from repro.serve import FaultPlan

    plain, _, _ = _serving_round(use_shm=False)
    shm, arena_name, _ = _serving_round(
        use_shm=True, faults=FaultPlan.kill_worker()
    )
    for a, b in zip(plain, shm):
        assert a.location == b.location
        assert a.keywords == b.keywords
        assert a.brstknn == b.brstknn
    # The killed hosts held no arena state of their own (they copy
    # blocks out by name), and close_pools destroyed the arena: /dev/shm
    # is clean.
    assert not any(seg.startswith(arena_name) for seg in arena_segments())
    assert not arena_segments()


#: A codec block's column: ``<tag>-e<epoch>-f<ship sequence>``.
CODEC_COLUMN = re.compile(r"-e\d+-f\d+$")


def _own_segments():
    """This process's ``/dev/shm`` segments (arena names carry the pid)."""
    return arena_segments(f"{SHM_PREFIX}{os.getpid()}-")


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_lanes_keep_private_kernel_arrays_and_ship_only_codec_blocks():
    from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
    from repro.core.kernels import arrays_for, tree_arrays_for
    from repro.serve import ShardedEngine

    from ..serve.conftest import assert_results_equal, build_dataset, make_queries

    dataset, rng, vocab = build_dataset(seed=7)
    queries = make_queries(rng, vocab, 6)
    reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4)).query_batch(
        queries, QueryOptions()
    )
    engine = ShardedEngine(
        dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
    )
    engine.prewarm_kernels()
    dense = arrays_for(dataset)
    tree = tree_arrays_for(engine.object_tree)
    user_xy, ent_rect = dense.user_xy, tree.ent_rect

    def arrays_untouched():
        assert arrays_for(dataset).user_xy is user_xy
        assert tree_arrays_for(engine.object_tree).ent_rect is ent_rect

    arrays_untouched()
    arena = engine.ensure_arena()
    assert arena.columns() == {}  # nothing is published up front
    assert not _own_segments()
    engine.start_pools(1)
    try:
        arrays_untouched()
        engine.query_batch(queries, QueryOptions())  # cold
        warm = engine.query_batch(queries, QueryOptions())
        assert engine.last_flush_report.payload_bytes_out > 0
        arrays_untouched()
        columns = arena.columns()
        assert columns, "the warm flush shipped no codec block"
        for column, (dtype, shape, nbytes) in columns.items():
            assert CODEC_COLUMN.search(column), column
            assert dtype is None and shape == (nbytes,)
    finally:
        engine.close_pools()
    arrays_untouched()
    assert_results_equal(warm, reference)
    assert not _own_segments()


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_cold_queries_on_a_fleet_stay_out_of_the_delta_memo():
    # engine.query walks a pool for its one query: the refine round
    # writes it once (both lanes read the one block) and keeps it out
    # of the delta memo, so cold queries neither pin their pools there
    # nor evict the batch memo's entries, which the next warm flush
    # still delta-hits.
    from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle
    from repro.serve import ShardedEngine

    from ..serve.conftest import assert_results_equal, build_dataset, make_queries

    dataset, rng, vocab = build_dataset(seed=7)
    queries = make_queries(rng, vocab, 6)
    engine = ShardedEngine(
        dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
    )
    twin = MaxBRSTkNNEngine(
        dataset, EngineConfig(fanout=4), object_tree=engine.object_tree
    )
    engine.start_pools(1)
    try:
        engine.query_batch(queries, QueryOptions())
        codec = engine.payload_codec
        memo, written = list(codec._memo), codec._seq
        for query in queries:
            got = engine.query(query, QueryOptions())
            want = oracle.query(twin, query, QueryOptions())
            assert_results_equal([got], [want])
            assert engine.last_flush_report.stage("refine").scatter_width == 2
        assert list(codec._memo) == memo
        assert codec._seq == written + len(queries)  # one block per round
        hits = codec.delta_hits
        engine.query_batch(queries, QueryOptions())
        assert codec.delta_hits > hits and codec._seq == written + len(queries)
    finally:
        engine.close_pools()
    assert not _own_segments()


#: Run in a fresh interpreter, so no earlier test has started the
#: resource tracker: prints how many processes the forked hosts started.
_TRACKER_PROBE = """
import os
from repro import EngineConfig, QueryOptions
from repro.serve import ShardedEngine
from tests.serve.conftest import build_dataset, live_children, make_queries

dataset, rng, vocab = build_dataset(seed=11)
queries = make_queries(rng, vocab, 6)
engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True))
engine.start_pools(1)
try:
    engine.query_batch(queries, QueryOptions())
    engine.query_batch(queries, QueryOptions())
    assert engine.payload_codec.arena_bytes_written > 0
    hosts = set(live_children())
    assert len(hosts) == 2, hosts
    grandchildren = 0
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        grandchildren += ppid in hosts
    print("HOST CHILDREN", grandchildren)
finally:
    engine.close_pools()
"""


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_forked_hosts_share_the_owner_resource_tracker():
    # A forked host that found no tracker at its first block read would
    # start its own, and that one unlinks the owner's live segments when
    # the host exits.  The arena starts the tracker before the fork.
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=f"{repo / 'src'}{os.pathsep}{repo}")
    run = subprocess.run(
        [sys.executable, "-c", _TRACKER_PROBE], cwd=repo, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "HOST CHILDREN 0" in run.stdout, run.stdout
    assert "leaked shared_memory" not in run.stderr, run.stderr


def test_plain_engine_with_use_shm_serves_without_an_arena():
    import asyncio

    from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
    from repro.serve import MaxBRSTkNNServer, ServerConfig

    from ..serve.conftest import assert_results_equal, build_dataset, make_queries

    dataset, rng, vocab = build_dataset(seed=9)
    queries = make_queries(rng, vocab, 6)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, use_shm=True))
    sequential = [engine.query(q, QueryOptions()) for q in queries]

    async def serve():
        config = ServerConfig(max_batch=6, max_wait_ms=2.0)
        async with MaxBRSTkNNServer(engine, config) as server:
            results = await server.submit_many(queries)
            # The server's start-up prewarm used to publish the kernel
            # arrays into an arena; a plain engine ships no payloads.
            assert engine.arena_name is None
            assert not _own_segments()
        return results

    assert_results_equal(asyncio.run(serve()), sequential)
    assert engine.arena_name is None
    assert not _own_segments()


# ----------------------------------------------------------------------
# Gather funnels: exact inverses, identity on plain chunks
# ----------------------------------------------------------------------

def _random_partials(rng):
    return [
        PartialResult(
            shard_id=s, k=k, rsk=random_rsk(rng),
            users_total=rng.randrange(1, 1000), time_s=rng.uniform(0.0, 2.0),
        )
        for s, k in ((0, 3), (1, 5), (2, 7))
    ]


def test_gather_partials_round_trip_is_exact():
    rng = random.Random(11)
    chunk = _random_partials(rng)
    wire = encode_gather_payload(chunk)
    assert isinstance(wire, bytes)
    # The whole chunk is one binary block — strictly smaller than the
    # pickled chunk (the 68 KiB gather gap this funnel exists to close).
    assert len(wire) < len(pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL))
    back = decode_gather_payload(wire)
    assert len(back) == len(chunk)
    for orig, got in zip(chunk, back):
        assert (got.shard_id, got.k, got.users_total) == (
            orig.shard_id, orig.k, orig.users_total
        )
        assert struct.pack("<d", got.time_s) == struct.pack("<d", orig.time_s)
        assert list(got.rsk.items()) == list(orig.rsk.items())  # order too
        assert encode_rsk(got.rsk) == encode_rsk(orig.rsk)      # bitwise


def test_gather_funnel_is_identity_on_plain_chunks():
    rng = random.Random(13)
    plain = [
        [],                                   # empty chunk
        ["result-a", "result-b"],             # select-result-ish chunk
        [(object(), None)],                   # a chunk of pairs
        ("refine", None, [3], 0, None, 0, 3),  # a payload tuple, not a chunk
        None,
    ]
    for chunk in plain:
        assert encode_gather_payload(chunk) is chunk
        assert decode_gather_payload(chunk) is chunk
    mixed = _random_partials(rng) + ["result-a"]
    assert encode_gather_payload(mixed) is mixed  # heterogeneous: untouched
    assert decode_gather_payload(b"NOPE" + b"\x00" * 16) == b"NOPE" + b"\x00" * 16


def test_gather_funnel_falls_back_on_unpackable_contents():
    rng = random.Random(14)
    chunk = _random_partials(rng)
    chunk[1].rsk = {2**70: 1.0}  # key overflows int64: stay on pickle
    assert encode_gather_payload(chunk) is chunk


# ----------------------------------------------------------------------
# Unrelated-process (untracked) reads: no resource_tracker noise
# ----------------------------------------------------------------------

def test_untracked_attach_leaves_no_tracker_registration(monkeypatch):
    from multiprocessing import resource_tracker

    from repro.storage import shm as shm_mod

    events = []
    real_register = resource_tracker.register
    real_unregister = resource_tracker.unregister

    def register(name, rtype):
        events.append(("register", name, rtype))
        real_register(name, rtype)

    def unregister(name, rtype):
        events.append(("unregister", name, rtype))
        real_unregister(name, rtype)

    with ShmArena() as arena:
        arena.add_bytes("blob", b"x" * 64)
        monkeypatch.setattr(resource_tracker, "register", register)
        monkeypatch.setattr(resource_tracker, "unregister", unregister)
        # monkeypatch restores the module flag even if the test dies.
        monkeypatch.setattr(shm_mod, "_UNTRACKED_ATTACH", False)
        shm_mod.set_untracked_attach(True)
        assert shm_mod.untracked_attach_enabled()
        assert ShmArena.read_column_bytes(arena.name, "blob") == b"x" * 64
        # Open-side net registrations must be zero: natively (3.13+
        # track=False registers nothing) or by immediate compensation
        # (< 3.13) — either way this process's tracker holds no entry
        # that could unlink the owner's segments at exit.
        net = {}
        for kind, name, rtype in events:
            if rtype != "shared_memory":
                continue
            net[name] = net.get(name, 0) + (1 if kind == "register" else -1)
        assert all(count == 0 for count in net.values()), events
        shm_mod.set_untracked_attach(False)
    # Owner teardown (create-side registrations) is unaffected.
    assert arena.name not in arena_segments()
    assert not any(s.startswith(arena.name) for s in arena_segments())


#: Run in a fresh interpreter (a remote shard host's situation): reads
#: the owner's block in untracked mode, then reports the tracker pid.
_UNTRACKED_READER = """
import sys
from multiprocessing import resource_tracker
from repro.storage.shm import ShmArena, set_untracked_attach

set_untracked_attach(True)
assert ShmArena.read_column_bytes(sys.argv[1], "blob") == b"z" * 32
print("TRACKER PID", resource_tracker._resource_tracker._pid)
"""


def test_untracked_reader_starts_no_resource_tracker():
    """An unrelated reader starts no tracker of its own — one would sit
    idle in every remote host and, at its exit, unlink what the host
    had registered — and the owner's segment outlives the reader."""
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    with ShmArena() as arena:
        arena.add_bytes("blob", b"z" * 32)
        run = subprocess.run(
            [sys.executable, "-c", _UNTRACKED_READER, arena.name], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert "TRACKER PID None" in run.stdout, run.stdout
        assert f"{arena.name}.blob" in arena_segments()
        assert ShmArena.read_column_bytes(arena.name, "blob") == b"z" * 32


def test_tracked_attach_is_the_default(monkeypatch):
    from repro.storage import shm as shm_mod

    assert shm_mod.untracked_attach_enabled() is False
    calls = []
    real_open = shm_mod.ShmArena._open

    with ShmArena() as arena:
        arena.add_bytes("blob", b"y" * 8)

        def spying_open(name, create, size=0):
            calls.append((name, create))
            return real_open(name, create, size)

        monkeypatch.setattr(
            shm_mod.ShmArena, "_open", staticmethod(spying_open)
        )
        assert ShmArena.read_column_bytes(arena.name, "blob") == b"y" * 8
        assert any(not create for _, create in calls)
    assert not any(s.startswith(arena.name) for s in arena_segments())
