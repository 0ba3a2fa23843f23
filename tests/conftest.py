"""Shared fixtures: small deterministic datasets for the whole suite."""

from __future__ import annotations

import random

import pytest

from repro import Dataset, STObject, User
from repro.datagen import candidate_locations, flickr_like, generate_users
from repro.spatial.geometry import Point


def make_random_objects(n, vocab_size, rng, tf_max=3, space=10.0):
    """Hand-rolled random objects (independent of the datagen package)."""
    objects = []
    for i in range(n):
        num_terms = rng.randint(1, min(6, vocab_size))
        terms = {
            t: rng.randint(1, tf_max)
            for t in rng.sample(range(vocab_size), num_terms)
        }
        objects.append(
            STObject(
                item_id=i,
                location=Point(rng.uniform(0, space), rng.uniform(0, space)),
                terms=terms,
            )
        )
    return objects


def make_random_users(n, vocab_size, rng, space=10.0, start_id=0):
    users = []
    for i in range(n):
        num_terms = rng.randint(1, min(4, vocab_size))
        terms = {t: 1 for t in rng.sample(range(vocab_size), num_terms)}
        users.append(
            User(
                item_id=start_id + i,
                location=Point(rng.uniform(0, space), rng.uniform(0, space)),
                terms=terms,
            )
        )
    return users


@pytest.fixture(scope="session")
def tiny_dataset():
    """60 objects / 12 users, LM relevance — fast unit-test workhorse."""
    rng = random.Random(42)
    objects = make_random_objects(60, 20, rng)
    users = make_random_users(12, 20, rng)
    return Dataset(objects, users, relevance="LM", alpha=0.5)


@pytest.fixture(scope="session")
def small_flickr():
    """Generated Flickr-like workload with query ingredients."""
    objects, vocab = flickr_like(num_objects=250, vocab_size=150, seed=11)
    workload = generate_users(
        objects, num_users=30, keywords_per_user=3, unique_keywords=12, seed=11
    )
    candidate_locations(workload, num_locations=5, seed=11)
    dataset = Dataset(objects, workload.users, relevance="LM", alpha=0.5, vocabulary=vocab)
    return dataset, workload


@pytest.fixture(params=["LM", "TF", "KO"])
def measure_name(request):
    return request.param


def section4(engine, query):
    """Section 4's answer to ``query`` — the exhaustive baseline
    (reference code, not an engine option): per-user top-k over the
    engine's MIR-tree, charged to its page store, then a scan of every
    location and keyword set of up to ``ws`` keywords."""
    from repro.core.baseline import baseline_maxbrstknn

    return baseline_maxbrstknn(engine.object_tree, engine.dataset, query, store=engine.store)


def section7(engine, query, method="approx"):
    """Section 7's answer to ``query`` — the oracle's MIUR-tree search
    (reference code, not an engine option) — over a fresh MIUR-tree of the engine's
    fanout, charged to the engine's page store."""
    from repro import oracle
    from repro.index.miurtree import MIURTree

    ds = engine.dataset
    user_tree = MIURTree(ds.users, ds.relevance, fanout=engine.config.fanout)
    return oracle.indexed_users_maxbrstknn(
        engine.object_tree, user_tree, ds, query, method=method, store=engine.store
    )


def won_users(dataset, query, location, keywords):
    """The users ``query.ox`` at ``location`` with ``keywords`` wins,
    re-scored from scratch: each user's ``RSk(u)`` by one full scan of
    the objects, no tree, no bound."""
    from repro import oracle

    rsk = {}
    for user in dataset.users:
        scores = sorted((dataset.sts(o, user) for o in dataset.objects), reverse=True)
        rsk[user.item_id] = scores[min(query.k, len(scores)) - 1]
    return oracle.compute_brstknn(
        dataset, query.ox, location, keywords, dataset.users, rsk
    )


def refined_states(engine, queries):
    """Each query's phase-1 state (its k's ``SharedTopK``) as a
    flush hands it to the select phase: the engine executor's traverse
    and refine, against its memo."""
    from repro import QueryOptions
    from repro.core.pipeline import FlushReport
    from repro.core.planner import plan_batch

    plan = plan_batch(QueryOptions(), engine.capabilities(), [q.k for q in queries])
    report = FlushReport(batch_size=len(queries))
    executor = engine._executor
    pool, group_by_k = executor._traverse(report, queries, plan)
    return executor._refine(report, queries, plan, pool, group_by_k)


class FrameLanes:
    """A test transport: ``n`` remote lanes answered in this process.

    Each lane's payloads cross as the body of a scatter frame, which one
    :class:`~repro.serve.shardhost.ShardHost` over ``dataset`` answers
    (``ShardHost.answer``), and the chunks come back off the answer
    frame: a frame round trip with no socket and no fork.  Lanes are
    answered at dispatch; an ``ERROR`` frame is a lost lane, which the
    round re-runs in-process.
    """

    remote = True

    def __init__(self, dataset, n: int) -> None:
        from repro.serve import ShardHost

        assert n >= 1
        self.host = ShardHost(dataset)
        self.n = n
        self.rounds = 0

    def lanes(self) -> int:
        return self.n

    def hosts(self) -> int:
        return self.n

    def dispatch(self, lanes):
        from repro.core.pipeline import Ticket
        from repro.serve.transport import FrameCodec

        self.rounds += 1
        epoch = getattr(self.host.dataset, "epoch", 0)
        tickets = []
        for lane in lanes:
            body = FrameCodec.encode_body(list(lane.payloads))
            answer = self.host.answer(
                FrameCodec.SCATTER, self.rounds, lane.wire_id, epoch, body
            )
            tickets.append(Ticket(
                lane, handle=answer,
                bytes_out=FrameCodec.HEADER_SIZE + len(body), bytes_in=len(answer),
            ))
        return tickets

    def collect(self, ticket) -> list:
        from repro.core.pipeline import ScatterFailure
        from repro.serve.transport import FrameCodec

        header, body = (ticket.handle[:FrameCodec.HEADER_SIZE],
                        ticket.handle[FrameCodec.HEADER_SIZE:])
        kind, seq, shard_id, _, length = FrameCodec.unpack_header(header)
        assert (seq, shard_id, length) == (self.rounds, ticket.lane.wire_id, len(body))
        answer = FrameCodec.decode_body(body)
        if kind == FrameCodec.ERROR:
            raise ScatterFailure(f"lane {shard_id} answered {answer!r}")
        return answer


def frame_lanes(engine, n: int) -> FrameLanes:
    """Install ``n`` :class:`FrameLanes` on ``engine``'s executor (its
    ``engine.query`` executors take the same transport)."""
    transport = engine._executor.transport = FrameLanes(engine.dataset, n)
    return transport
