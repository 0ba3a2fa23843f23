"""FlushHistory: the planner's observed-cost ring buffers."""

import pytest

from repro.core.history import (
    FlushHistory,
    FlushSignature,
    signature_of,
)
from repro.core.pipeline import FlushReport, StageStats
from repro.core.planner import EngineCapabilities, plan_batch
from repro.core.config import QueryOptions

SIG = FlushSignature(mode="joint", scatter_width=1)
OTHER = FlushSignature(mode="indexed", scatter_width=1)


def report(batch_size=4, stage="select", items=4, time_s=0.004):
    return FlushReport(
        mode="joint",
        batch_size=batch_size,
        stages=[StageStats(stage=stage, items=items, time_s=time_s)],
    )


class TestRecordObserve:
    def test_unseen_signature_observes_none(self):
        assert FlushHistory().observe(SIG) is None
        assert FlushHistory().flushes(SIG) == 0

    def test_per_item_cost_is_time_over_items(self):
        history = FlushHistory()
        history.record(SIG, report(items=4, time_s=0.004))
        history.record(SIG, report(items=2, time_s=0.008))
        obs = history.observe(SIG)
        assert obs.flushes == 2
        assert obs.mean_batch == 4.0
        # 12 ms over 6 items = 2 ms/item.
        assert obs.per_item_ms("select") == pytest.approx(2.0)
        assert obs.per_item_ms("unknown-stage") is None

    def test_signatures_do_not_bleed(self):
        history = FlushHistory()
        history.record(SIG, report(time_s=0.001))
        history.record(OTHER, report(stage="indexed-search", time_s=5.0))
        assert history.observe(SIG).per_item_ms("indexed-search") is None
        assert history.flushes(SIG) == 1
        assert history.flushes(OTHER) == 1
        assert len(history) == 2

    def test_zero_item_stages_have_no_per_item_cost(self):
        history = FlushHistory()
        history.record(SIG, report(items=0, time_s=0.5))
        assert history.observe(SIG).per_item_ms("select") is None


class TestRingBehavior:
    def test_capacity_ages_old_flushes_out(self):
        history = FlushHistory(capacity=3)
        for _ in range(5):
            history.record(SIG, report(time_s=10.0))  # slow era
        for _ in range(3):
            history.record(SIG, report(items=4, time_s=0.0004))  # fast era
        obs = history.observe(SIG)
        assert obs.flushes == 3
        # The slow flushes aged out; only the fast era remains.
        assert obs.per_item_ms("select") == pytest.approx(0.1)

    def test_clear(self):
        history = FlushHistory()
        history.record(SIG, report())
        history.clear()
        assert len(history) == 0
        assert history.observe(SIG) is None

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, "8", True])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            FlushHistory(capacity=capacity)


class TestSnapshot:
    def test_snapshot_keys_and_rounding(self):
        history = FlushHistory()
        history.record(SIG, report(items=4, time_s=0.004))
        snap = history.snapshot()
        assert set(snap) == {"joint/x1"}
        cell = snap["joint/x1"]
        assert cell["flushes"] == 1
        assert cell["mean_batch"] == 4.0
        assert cell["stage_ms_per_item"] == {"select": 1.0}


class TestSignatureOf:
    def test_local_plan_signature(self):
        caps = EngineCapabilities(has_user_tree=False)
        plan = plan_batch(QueryOptions(), caps, ks=[3, 3])
        assert signature_of(plan) == SIG

    def test_sharded_plan_signature_carries_scatter_width(self):
        caps = EngineCapabilities(
            has_user_tree=False,
            num_shards=2,
        )
        plan = plan_batch(QueryOptions(), caps, ks=[3, 3])
        assert signature_of(plan) == FlushSignature(
            mode="joint", scatter_width=2
        )
