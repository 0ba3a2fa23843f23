"""Query planner: options x capabilities -> executable QueryPlan."""

import pytest

from repro import EngineConfig, MaxBRSTkNNEngine, Method, Mode, QueryOptions
from repro.core.planner import (
    EngineCapabilities,
    ShardPlan,
    plan_batch,
    plan_query,
)

CAPS = EngineCapabilities()


class TestPlanQuery:
    def test_single_query_never_shares_or_fans_out(self):
        plan = plan_query(QueryOptions(), CAPS, k=5)
        assert plan.batch_size == 1
        assert plan.shared_traversal_k is None
        assert plan.shard is None
        assert "phase 1 (top-k): cold per query" in plan.explain()


class TestPlanBatch:
    def test_shares_topk_per_distinct_k(self):
        plan = plan_batch(QueryOptions(), CAPS, ks=[3, 5, 3, 5, 3])
        assert plan.batch_size == 5
        assert plan.distinct_ks == (3, 5)
        assert "per-k thresholds derived from the shared pool" in plan.explain()
        baseline = plan_batch(QueryOptions(mode="baseline"), CAPS, ks=[3, 5, 3])
        assert "phase 1 (top-k thresholds): shared once per distinct k (k=3,5)" \
            in baseline.explain()

    def test_joint_batch_pools_across_k(self):
        """Joint batches share ONE traversal at k_max across all ks."""
        plan = plan_batch(QueryOptions(), CAPS, ks=[1, 5, 10, 5])
        assert plan.shared_traversal_k == 10
        # Baseline batches do not pool across k (no group traversal).
        assert (
            plan_batch(QueryOptions(mode="baseline"), CAPS, ks=[1, 5])
            .shared_traversal_k
            is None
        )
        # Single queries stay cold: no pool.
        assert plan_query(QueryOptions(), CAPS, k=7).shared_traversal_k is None

    @pytest.mark.parametrize("mode", ["joint", "baseline"])
    def test_single_engine_batches_stay_in_process(self, mode):
        """Without lanes nothing leaves the process: no ShardPlan, and
        explain() names no pool or fan-out for phase 2."""
        plan = plan_batch(QueryOptions(mode=mode), CAPS, ks=[3, 3, 5])
        assert plan.shard is None
        text = plan.explain()
        for absent in ("fork pool", "worker pool", "lane", "fan-out", "scatter"):
            assert absent not in text
        (phase_2,) = [line for line in text.splitlines() if "phase 2" in line]
        assert "in-process" in phase_2


class TestExplain:
    def test_single_query_explain(self):
        text = plan_query(QueryOptions(), CAPS, k=7).explain()
        assert text.splitlines()[0] == (
            "plan: single query -> mode=joint method=approx"
        )
        assert "cold per query" in text

    def test_batch_explain_mentions_sharing_and_in_process_selection(self):
        text = plan_batch(
            QueryOptions(), CAPS, ks=[3, 5, 3]
        ).explain()
        assert "batch of 3" in text
        assert "k=3,5" in text
        assert "phase 2 (candidate selection): in-process" in text

    def test_joint_batch_explain_reports_cross_k_reuse(self):
        text = plan_batch(
            QueryOptions(), CAPS, ks=[1, 5, 10]
        ).explain()
        assert "one MIR-tree walk at k=10" in text
        assert "reused for k=1,5,10" in text

class TestSearchFanoutPredicate:
    """explain() and the executor's lane builder share ONE predicate:
    any fan-out width >= 1 ships a multi-query round."""

    @staticmethod
    def sharded_caps(search_workers):
        from dataclasses import replace

        return replace(CAPS, num_shards=2, search_workers=search_workers)

    @pytest.mark.parametrize("search_workers", [0, 1, 2])
    def test_joint_gather_line_follows_the_predicate(self, search_workers):
        from repro.core.planner import search_fans_out

        plan = plan_batch(
            QueryOptions(), self.sharded_caps(search_workers),
            ks=[3, 5],
        )
        fans_out = search_fans_out(search_workers, plan.batch_size)
        assert fans_out == (search_workers >= 1)
        text = plan.explain()
        lanes = f"in one round over {search_workers} full-dataset lane(s)"
        assert (lanes in text) == fans_out
        assert ("per query, against the full dataset) runs in-process" in text) \
            == (not fans_out)
        assert "refine by user row range x2" in text
        assert "disjoint RSk union" in text
        # The phase-2 line agrees with the gather line on where it runs.
        assert (f"phase 2 (candidate selection): search lanes x{search_workers}"
                in text) == fans_out
        assert ("phase 2 (candidate selection): in-process" in text) \
            == (not fans_out)

    @pytest.mark.parametrize("search_workers,batch_size,ships", [
        (0, 1, False),
        (0, 8, False),   # no alive host: the round stays home
        (1, 0, False),   # an empty flush has nothing to search
        (1, 1, False),
        (1, 2, True),    # a single host still takes a multi-query round
        (2, 1, False),
        (2, 8, True),
        (4, 8, True),
    ])
    def test_predicate_reads_only_width_and_batch_size(
        self, search_workers, batch_size, ships
    ):
        from repro.core.planner import search_fans_out

        assert search_fans_out(search_workers, batch_size) is ships

    def test_single_query_keeps_the_searches_home(self):
        from repro.core.planner import search_fans_out

        plan = plan_batch(
            QueryOptions(), self.sharded_caps(2), ks=[3]
        )
        assert not search_fans_out(2, plan.batch_size)
        assert "against the full dataset) runs in-process" in plan.explain()


class TestPurePlanning:
    """A plan is a function of (QueryOptions, EngineCapabilities, ks)
    alone: equal inputs give equal plans, however often it is asked."""

    @staticmethod
    def lane_caps(**fields):
        from dataclasses import replace

        return replace(CAPS, num_shards=2, search_workers=2, **fields)

    def test_same_inputs_same_plan(self):
        first = plan_batch(QueryOptions(), self.lane_caps(), ks=[3, 5, 3])
        for _ in range(5):
            again = plan_batch(QueryOptions(), self.lane_caps(), ks=[3, 5, 3])
            assert again == first
            assert hash(again) == hash(first)
            assert again.explain() == first.explain()

    @pytest.mark.parametrize("k", [0, 5])
    def test_single_query_keeps_the_lane_layout(self, k):
        """``plan_query`` describes a query on lanes without planning it
        as a batch (execution plans every flush with ``plan_batch``)."""
        plan = plan_query(QueryOptions(), self.lane_caps(), k=k)
        assert plan.batch_size == 1
        assert plan.distinct_ks == ((k,) if k else ())
        assert plan.shared_traversal_k is None
        assert plan.shard == ShardPlan(num_shards=2, search_workers=2)

    @pytest.mark.parametrize("num_shards,search_workers", [
        (2, 0), (2, 2), (3, 1), (4, 3),
    ])
    def test_shard_plan_mirrors_the_capabilities(
        self, num_shards, search_workers
    ):
        from dataclasses import replace

        caps = replace(
            CAPS, num_shards=num_shards, search_workers=search_workers
        )
        plan = plan_batch(QueryOptions(), caps, ks=[3, 3])
        assert plan.shard == ShardPlan(
            num_shards=num_shards, search_workers=search_workers
        )
        assert f"refine by user row range x{num_shards}" in plan.explain()

    @pytest.mark.parametrize("pool_k,walk_k", [(None, 7), (5, 7), (9, 9)])
    def test_joint_plan_names_the_longest_walk(self, pool_k, walk_k):
        """The warm traversal pool is a capability like any other: a
        longer earlier walk serves the batch, a shorter one does not."""
        caps = self.lane_caps(traversal_pool_k=pool_k)
        plan = plan_batch(QueryOptions(), caps, ks=[3, 7])
        assert plan.shared_traversal_k == walk_k
        assert f"one MIR-tree walk at k={walk_k}" in plan.explain()

    @pytest.mark.parametrize("entry", ["batch", "query"])
    def test_baseline_is_rejected_on_lanes(self, entry):
        """A fleet engine (a ``ShardedEngine``) refuses the baseline."""
        options = QueryOptions(mode="baseline")
        with pytest.raises(ValueError, match="no mergeable"):
            if entry == "batch":
                plan_batch(options, self.lane_caps(fleet=True), ks=[3, 3])
            else:
                plan_query(options, self.lane_caps(fleet=True), k=3)

    @pytest.mark.parametrize("entry", ["batch", "query"])
    def test_baseline_on_fleetless_lanes_runs_in_process(self, entry):
        """Without a fleet the baseline runs inline whatever the range
        count: no ShardPlan, since it has no refine to deal."""
        options = QueryOptions(mode="baseline")
        if entry == "batch":
            plan = plan_batch(options, self.lane_caps(), ks=[3, 3])
        else:
            plan = plan_query(options, self.lane_caps(), k=3)
        assert plan.shard is None
        assert "scatter" not in plan.explain()


class TestEnginePlan:
    def test_engine_plan_wrapper(self, tiny_dataset):
        engine = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        single = engine.plan(QueryOptions())
        assert single.batch_size == 1
        batch = engine.plan(QueryOptions(), ks=[2, 2, 4])
        assert batch.batch_size == 3
        assert batch.distinct_ks == (2, 4)

    def test_engine_capabilities(self, tiny_dataset):
        engine = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        assert engine.capabilities() == EngineCapabilities()

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_serving_leaves_the_plan_unchanged(self, tiny_dataset, num_shards):
        """Flushes change no planning input except the memoized walk's
        k, so a batch planned again at the same ks gets the same plan —
        the pure plan of the engine's current capabilities."""
        import random

        from repro import MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.serve import ShardedEngine
        from repro.spatial.geometry import Point

        config = EngineConfig(fanout=4, num_shards=num_shards)
        engine = (
            ShardedEngine(tiny_dataset, config) if num_shards > 1
            else MaxBRSTkNNEngine(tiny_dataset, config)
        )
        rng = random.Random(5)
        queries = [
            MaxBRSTkNNQuery(
                ox=STObject(
                    item_id=-(i + 1),
                    location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    terms={},
                ),
                locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10))],
                keywords=sorted(rng.sample(range(16), 4)),
                ws=1,
                k=k,
            )
            for i, k in enumerate([3, 5, 3, 5])
        ]
        options = QueryOptions()
        ks = [q.k for q in queries]
        cold = engine.plan(options, ks=ks)
        for _ in range(3):
            engine.query_batch(queries, options)
        warm = engine.plan(options, ks=ks)
        assert warm == cold
        assert warm == plan_batch(options, engine.capabilities(), ks)
        assert (warm.shard is not None) == (num_shards > 1)

    def test_default_plan_uses_default_options(self, tiny_dataset):
        engine = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        plan = engine.plan()
        assert plan.method is Method.APPROX
        assert plan.mode is Mode.JOINT
