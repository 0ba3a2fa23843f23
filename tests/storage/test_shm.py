"""Zero-copy storage tier: arena lifecycle, codec identity, leak-freedom.

Three contracts under test, each an acceptance item of the tier:

* **round-trip identity** — anything placed in a :class:`ShmArena`
  (numpy columns, byte blobs, codec-encoded payload blocks) comes back
  bit for bit, including dict insertion order for ``RSk(u)`` maps;
* **lifecycle** — attach/detach is refcounted, ``close``/``unlink``/
  ``destroy`` are idempotent, and an abandoned owner is swept by its
  finalizer: ``/dev/shm`` holds zero ``reproshm-`` segments after any
  teardown order, including an injected worker SIGKILL mid-flush;
* **codec correctness** — encode/decode are exact inverses over
  randomized ``PartialResult`` inputs, delta shipping memoizes
  by object identity + dataset epoch, and every fallback path keeps the
  payload on plain pickle rather than failing the flush.
"""

import pickle
import random
import struct

import numpy as np
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
from repro.storage.shm import ShmArena, ShmArenaError, arena_segments


def random_rsk(rng, n=None):
    """A randomized {user_id: RSk(u)} map with non-sorted insertion order."""
    n = rng.randint(0, 40) if n is None else n
    ids = rng.sample(range(-(2**40), 2**40), n)
    return {uid: rng.uniform(-1e9, 1e9) for uid in ids}


# ----------------------------------------------------------------------
# Arena: round-trip identity
# ----------------------------------------------------------------------

def test_array_round_trip_is_bitwise_across_attach():
    rng = np.random.default_rng(7)
    originals = {
        "f64": rng.standard_normal(257),
        "i64": rng.integers(-(2**62), 2**62, size=(31, 3)),
        "i32": rng.integers(-(2**31), 2**31, size=11).astype(np.int32),
        "u8": rng.integers(0, 255, size=1000).astype(np.uint8),
    }
    with ShmArena() as arena:
        for column, arr in originals.items():
            view = arena.add_array(column, arr)
            assert view.tobytes() == arr.tobytes()
            with pytest.raises(ValueError):
                view[...] = 0  # published state is read-only
        attached = ShmArena.attach(arena.name)
        try:
            for column, arr in originals.items():
                got = attached.get(column)
                assert got.dtype == arr.dtype
                assert got.shape == arr.shape
                assert got.tobytes() == arr.tobytes()  # bitwise
        finally:
            attached.close()


def test_bytes_round_trip_and_blob_guard():
    blob = bytes(random.Random(3).randrange(256) for _ in range(4096))
    with ShmArena() as arena:
        arena.add_bytes("blob", blob)
        assert arena.get_bytes("blob") == blob
        assert ShmArena.read_column_bytes(arena.name, "blob") == blob
        with pytest.raises(ShmArenaError, match="byte blob"):
            arena.get("blob")


def test_attached_reader_sees_columns_added_after_attach():
    with ShmArena() as arena:
        attached = ShmArena.attach(arena.name)
        try:
            assert "late" not in attached.columns()
            arena.add_bytes("late", b"delta-shipped")
            # get_bytes refreshes the seqlocked directory on a miss.
            assert attached.get_bytes("late") == b"delta-shipped"
        finally:
            attached.close()


def test_share_arrays_repoints_attributes_and_skips_none():
    class Holder:
        def __init__(self):
            self.a = np.arange(12, dtype=np.int64)
            self.b = None
            self.c = np.linspace(0.0, 1.0, 9)

    holder = Holder()
    want_a, want_c = holder.a.tobytes(), holder.c.tobytes()
    with ShmArena() as arena:
        shared = arena.share_arrays(holder, ("a", "b", "c"), prefix="h")
        assert shared == ["h.a", "h.c"]
        assert holder.b is None
        assert holder.a.tobytes() == want_a
        assert holder.c.tobytes() == want_c
        assert holder.a is arena.get("h.a")  # attribute now IS the view
        with pytest.raises(ShmArenaError, match="already shared"):
            arena.share_arrays(holder, ("a",), prefix="h")


def test_close_restores_shared_attributes_to_private_copies():
    # SharedMemory.close() unmaps even with numpy views exported, so
    # teardown must hand the host object private copies back — else any
    # later engine over the same dataset reads unmapped/recycled pages.
    class Holder:
        def __init__(self):
            self.a = np.arange(12, dtype=np.int64)
            self.c = np.linspace(0.0, 1.0, 9)

    holder = Holder()
    want_a, want_c = holder.a.tobytes(), holder.c.tobytes()
    arena = ShmArena()
    arena.share_arrays(holder, ("a", "c"), prefix="h")
    arena.destroy()
    for attr, want in (("a", want_a), ("c", want_c)):
        restored = getattr(holder, attr)
        assert restored.base is None  # private memory, not an shm view
        assert not restored.flags.writeable
        assert restored.tobytes() == want
    # The restored object can be shared again into a fresh arena.
    with ShmArena() as arena2:
        arena2.share_arrays(holder, ("a", "c"), prefix="h")
        assert holder.a.tobytes() == want_a
    assert holder.a.tobytes() == want_a  # and restored again on exit
    assert not arena_segments()


def test_close_leaves_replaced_attributes_alone():
    class Holder:
        def __init__(self):
            self.a = np.arange(6, dtype=np.int64)

    holder = Holder()
    arena = ShmArena()
    arena.share_arrays(holder, ("a",), prefix="h")
    replacement = np.zeros(3, dtype=np.float32)
    holder.a = replacement  # e.g. re-shared into a newer arena
    arena.destroy()
    assert holder.a is replacement


# ----------------------------------------------------------------------
# Arena: lifecycle + leak freedom
# ----------------------------------------------------------------------

def test_attach_is_refcounted_per_process():
    with ShmArena() as arena:
        assert ShmArena.attach_count(arena.name) == 0
        h1 = ShmArena.attach(arena.name)
        h2 = ShmArena.attach(arena.name)
        assert h1 is h2  # one shared handle
        assert ShmArena.attach_count(arena.name) == 2
        h2.close()
        assert ShmArena.attach_count(arena.name) == 1
        h1.close()
        assert ShmArena.attach_count(arena.name) == 0
        h1.close()  # extra closes are harmless
        assert ShmArena.attach_count(arena.name) == 0


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
    with pytest.raises((ShmArenaError, FileNotFoundError)):
        ShmArena.attach(name)


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
        assert arena.get_bytes("keep") == b"live"
        arena.drop_column("retire")  # idempotent


def test_attach_only_handle_cannot_mutate():
    with ShmArena() as arena:
        arena.add_bytes("x", b"1")
        attached = ShmArena.attach(arena.name)
        try:
            with pytest.raises(ShmArenaError, match="owning"):
                attached.add_bytes("y", b"2")
            with pytest.raises(ShmArenaError, match="owning"):
                attached.drop_column("x")
        finally:
            attached.close()


def test_unlink_keeps_existing_mappings_valid():
    arena = ShmArena()
    want = np.arange(64, dtype=np.int64)
    arena.add_array("x", want)
    attached = ShmArena.attach(arena.name)
    try:
        view = attached.get("x")  # mapped while the name still exists
        arena.unlink()  # names gone; POSIX keeps the memory for mappings
        assert view.tobytes() == want.tobytes()
        assert not any(
            seg.startswith(arena.name) for seg in arena_segments()
        )
        # By-name access is now correctly impossible — the exact signal a
        # respawned worker gets if it outlives the arena.
        with pytest.raises((ShmArenaError, FileNotFoundError)):
            ShmArena.read_column_bytes(arena.name, "x")
    finally:
        attached.close()
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
    # No src/ caller is left (benchmarks/e2e wraps it by name), so this
    # is the method's whole contract: a fresh column per call, never a
    # delta hit, dropped once RETIRE_LAG ships cold.
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
    # Regression: arena teardown used to unmap the segments backing the
    # dataset's memoized DatasetArrays/TreeArrays views, so EVERY later
    # engine over the same dataset (pickle or shm) computed garbage.
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
    # The killed hosts held no arena state of their own (they map what
    # they inherited), and close_pools destroyed the arena: /dev/shm is
    # clean.
    assert not any(seg.startswith(arena_name) for seg in arena_segments())
    assert not arena_segments()


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
        [(object(), None)],                   # indexed (result, charge)-ish
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
# Foreign-process (untracked) attach: no resource_tracker noise
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
        attached = ShmArena.attach(arena.name)
        try:
            assert attached.get_bytes("blob") == b"x" * 64
        finally:
            attached.close()
        assert ShmArena.read_column_bytes(arena.name, "blob") == b"x" * 64
        # Attach-side net registrations must be zero: natively (3.13+
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
        attached = ShmArena.attach(arena.name)
        try:
            assert attached.get_bytes("blob") == b"y" * 8
        finally:
            attached.close()
        assert any(not create for _, create in calls)
    assert not any(s.startswith(arena.name) for s in arena_segments())
