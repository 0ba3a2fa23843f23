"""Query planner: options x capabilities -> executable QueryPlan."""

import pytest

from repro import EngineConfig, MaxBRSTkNNEngine, Method, Mode, QueryOptions
from repro.core.planner import EngineCapabilities, plan_batch, plan_query

CAPS = EngineCapabilities(has_user_tree=True)
CAPS_NO_TREE = EngineCapabilities(has_user_tree=False)


class TestPlanQuery:
    def test_single_query_never_shares_or_fans_out(self):
        plan = plan_query(QueryOptions(), CAPS, k=5)
        assert plan.batch_size == 1
        assert plan.shared_topk is False
        assert plan.shared_traversal is False
        assert plan.shard is None

    def test_indexed_requires_user_tree(self):
        with pytest.raises(ValueError, match="index_users"):
            plan_query(QueryOptions(mode="indexed"), CAPS_NO_TREE)
        plan = plan_query(QueryOptions(mode="indexed"), CAPS)
        assert plan.mode is Mode.INDEXED


class TestPlanBatch:
    def test_shares_topk_per_distinct_k(self):
        plan = plan_batch(QueryOptions(), CAPS, ks=[3, 5, 3, 5, 3])
        assert plan.batch_size == 5
        assert plan.distinct_ks == (3, 5)
        assert plan.shared_topk is True
        assert plan.shared_traversal is False

    def test_joint_batch_pools_across_k(self):
        """Joint batches share ONE traversal at k_max across all ks."""
        plan = plan_batch(QueryOptions(), CAPS, ks=[1, 5, 10, 5])
        assert plan.shared_traversal_k == 10
        # Baseline batches do not pool across k (no group traversal)...
        assert (
            plan_batch(QueryOptions(mode="baseline"), CAPS, ks=[1, 5])
            .shared_traversal_k
            is None
        )
        # ...but indexed batches do, since the node-RSk reformulation
        # made every per-k derivation pool-independent (PR 5).
        assert (
            plan_batch(QueryOptions(mode="indexed"), CAPS, ks=[1, 5])
            .shared_traversal_k
            == 5
        )
        # Single queries stay cold: no pool.
        assert plan_query(QueryOptions(), CAPS, k=7).shared_traversal_k is None

    def test_indexed_batch_shares_root_traversal(self):
        plan = plan_batch(QueryOptions(mode="indexed"), CAPS, ks=[3, 3, 7])
        assert plan.shared_traversal is True
        assert plan.shared_topk is False
        assert plan.distinct_ks == (3, 7)
        assert plan.shared_traversal_k == 7

    def test_indexed_batch_reuses_a_larger_existing_pool(self):
        from dataclasses import replace

        warm = replace(CAPS, root_pool_k=9)
        plan = plan_batch(QueryOptions(mode="indexed"), warm, ks=[3, 7])
        assert plan.shared_traversal_k == 9  # names the walk actually used

    @pytest.mark.parametrize("mode", ["joint", "baseline", "indexed"])
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

    def test_indexed_batch_explain(self):
        text = plan_batch(
            QueryOptions(mode="indexed"), CAPS, ks=[4, 4]
        ).explain()
        assert "MIUR-root joint traversal" in text
        assert "in-process per query" in text


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
        fans_out = search_fans_out(search_workers, plan.batch_size, plan.shard)
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

    @pytest.mark.parametrize("search_workers", [0, 1, 2])
    def test_indexed_phase_2_line_follows_the_predicate(self, search_workers):
        text = plan_batch(
            QueryOptions(mode="indexed"), self.sharded_caps(search_workers),
            ks=[4, 4],
        ).explain()
        fans_out = search_workers >= 1
        assert (f"worker pool x{search_workers}" in text) == fans_out
        assert ("in-process per query" in text) == (not fans_out)

    def test_single_query_and_observed_verdict_keep_the_searches_home(self):
        from dataclasses import replace

        from repro.core.planner import search_fans_out

        plan = plan_batch(
            QueryOptions(), self.sharded_caps(2), ks=[3]
        )
        assert not search_fans_out(2, plan.batch_size, plan.shard)
        assert "against the full dataset) runs in-process" in plan.explain()
        pulled = replace(plan.shard, search_inprocess=True)
        assert not search_fans_out(2, 8, pulled)
        assert search_fans_out(2, 8, None)  # 1-shard engines carry no ShardPlan


class TestObservedPlanning:
    """FlushHistory-driven decisions: observed costs vs static fallback."""

    @staticmethod
    def seasoned_history(signature, stage="select", per_item_ms=0.1, items=4,
                         flushes=3):
        from repro.core.history import FlushHistory
        from repro.core.pipeline import FlushReport, StageStats

        history = FlushHistory()
        for _ in range(flushes):
            history.record(signature, FlushReport(
                mode=signature.mode,
                batch_size=items,
                stages=[StageStats(
                    stage=stage, items=items,
                    time_s=per_item_ms * items / 1000.0,
                )],
            ))
        return history

    @pytest.mark.parametrize("mode,stage", [
        ("joint", "select"), ("indexed", "indexed-search"),
    ])
    @pytest.mark.parametrize("per_item_ms", [0.1, 5.0])
    def test_single_engine_has_no_adaptive_point(self, mode, stage, per_item_ms):
        """A plain engine never ships a round, so even a seasoned
        history at its signature decides nothing."""
        from repro.core.history import FlushSignature

        history = self.seasoned_history(
            FlushSignature(mode=mode, scatter_width=1),
            stage=stage, per_item_ms=per_item_ms,
        )
        plan = plan_batch(
            QueryOptions(mode=mode), CAPS, ks=[3, 3],
            history=history,
        )
        assert plan.decisions == ()
        assert plan.shard is None

    def test_no_history_no_decisions(self):
        plan = plan_batch(QueryOptions(), self.sharded_caps(), ks=[3, 3])
        assert plan.decisions == ()

    def test_cold_engine_falls_back_to_static(self):
        from repro.core.history import FlushHistory

        plan = plan_batch(
            QueryOptions(), self.sharded_caps(), ks=[3, 3],
            history=FlushHistory(),
        )
        assert plan.shard.search_inprocess is False  # static plan untouched
        (decision,) = plan.decisions
        assert decision.source == "static"
        assert "cold engine" in decision.rationale
        assert "static: search-fanout -> search fan-out x2" in plan.explain()

    def test_unseasoned_history_stays_static(self):
        history = self.seasoned_history(
            self.sharded_signature(), per_item_ms=0.1, flushes=2
        )
        plan = plan_batch(
            QueryOptions(), self.sharded_caps(), ks=[3, 3],
            history=history,
        )
        assert plan.shard.search_inprocess is False
        (decision,) = plan.decisions
        assert decision.source == "static"
        assert "need 3" in decision.rationale

    def test_lanes_without_workers_have_no_adaptive_point(self):
        history = self.seasoned_history(self.sharded_signature(), per_item_ms=0.1)
        plan = plan_batch(
            QueryOptions(), self.sharded_caps(search_workers=0),
            ks=[3, 3], history=history,
        )
        assert plan.decisions == ()

    @staticmethod
    def sharded_caps(search_workers=2):
        from dataclasses import replace

        return replace(CAPS, num_shards=2, search_workers=search_workers)

    @staticmethod
    def sharded_signature():
        from repro.core.history import FlushSignature

        return FlushSignature(mode="joint", scatter_width=2)

    def test_sharded_sub_ms_search_goes_in_process(self):
        history = self.seasoned_history(
            self.sharded_signature(), stage="select", per_item_ms=0.2
        )
        plan = plan_batch(
            QueryOptions(), self.sharded_caps(), ks=[3, 3],
            history=history,
        )
        assert plan.shard.search_inprocess is True
        by_name = {d.name: d for d in plan.decisions}
        assert by_name["search-fanout"].source == "observed"
        assert by_name["search-fanout"].choice == "in-process"
        # The search fan-out is the sharded planner's one adaptive point.
        assert set(by_name) == {"search-fanout"}
        assert "against the full dataset) runs in-process" in plan.explain()

    def test_sharded_joint_fanout_reads_the_select_stage(self):
        """The joint search-fanout decision follows the stage list: a
        history that only ever timed a stage named ``search`` (the old
        second round) must leave it static, a heavy ``select`` keeps
        the fan-out with an observed rationale."""
        stale = self.seasoned_history(
            self.sharded_signature(), stage="search", per_item_ms=0.2
        )
        plan = plan_batch(
            QueryOptions(), self.sharded_caps(), ks=[3, 3],
            history=stale,
        )
        (decision,) = plan.decisions
        assert (decision.name, decision.source) == ("search-fanout", "static")
        heavy = self.seasoned_history(
            self.sharded_signature(), stage="select", per_item_ms=2.5
        )
        plan = plan_batch(
            QueryOptions(), self.sharded_caps(), ks=[3, 3],
            history=heavy,
        )
        (decision,) = plan.decisions
        assert decision.source == "observed"
        assert decision.choice == "search fan-out x2"
        assert plan.shard.search_inprocess is False

    def test_engine_records_history_and_plans_observed(self, tiny_dataset):
        """End to end: flushes season a lane engine's own history."""
        import random

        from repro import MaxBRSTkNNQuery
        from repro.model.objects import STObject
        from repro.serve import ShardedEngine
        from repro.spatial.geometry import Point

        engine = ShardedEngine(tiny_dataset, EngineConfig(fanout=4, num_shards=2))
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
                k=3,
            )
            for i in range(4)
        ]
        options = QueryOptions()
        with engine.start_pools(1):
            cold = engine.plan(options, ks=[q.k for q in queries])
            assert [d.source for d in cold.decisions] == ["static"]
            for _ in range(3):
                engine.query_batch(queries, options)
            assert len(engine.flush_history) >= 3
            warm = engine.plan(options, ks=[q.k for q in queries])
        assert [d.source for d in warm.decisions] == ["observed"]
        assert "observed:" in warm.explain()


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
        caps = engine.capabilities()
        assert caps.has_user_tree is False
        assert caps.num_users == len(tiny_dataset.users)
        indexed = MaxBRSTkNNEngine(
            tiny_dataset, EngineConfig(fanout=4, index_users=True)
        )
        assert indexed.capabilities().has_user_tree is True

    def test_default_plan_uses_default_options(self, tiny_dataset):
        engine = MaxBRSTkNNEngine(tiny_dataset, EngineConfig(fanout=4))
        plan = engine.plan()
        assert plan.method is Method.APPROX
        assert plan.mode is Mode.JOINT
