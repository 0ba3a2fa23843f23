"""Adaptive micro-batching: the EWMA wait controller (fake clock)."""

import asyncio
import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle
from repro.serve import (
    AdaptiveWaitController,
    MaxBRSTkNNServer,
    ServerConfig,
)

from ..conftest import make_random_objects, make_random_users
from .test_server import make_queries


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def tick(self, seconds):
        self.now += seconds
        return self.now


class TestController:
    def test_no_signal_waits_the_full_ceiling(self):
        ctl = AdaptiveWaitController(ceiling_ms=10.0, max_batch=8)
        assert ctl.window_ms() == 10.0
        ctl.observe(1.0)  # a single arrival still gives no inter-arrival
        assert ctl.window_ms() == 10.0

    def test_fast_arrivals_shrink_the_window(self):
        clock = FakeClock()
        ctl = AdaptiveWaitController(ceiling_ms=10.0, max_batch=4)
        ctl.observe(clock.now)
        for _ in range(50):
            ctl.observe(clock.tick(0.001))  # 1 ms apart
        assert ctl.ewma_ms == pytest.approx(1.0, rel=0.05)
        # time to fill the batch: ~ (max_batch - 1) * ewma
        assert ctl.window_ms() == pytest.approx(3.0, rel=0.1)

    def test_sparse_arrivals_collapse_to_zero(self):
        clock = FakeClock()
        ctl = AdaptiveWaitController(ceiling_ms=10.0, max_batch=8)
        ctl.observe(clock.now)
        for _ in range(10):
            ctl.observe(clock.tick(1.0))  # 1 s apart >> 10 ms budget
        assert ctl.window_ms() == 0.0

    def test_window_clamped_to_ceiling(self):
        clock = FakeClock()
        ctl = AdaptiveWaitController(ceiling_ms=10.0, max_batch=1000)
        ctl.observe(clock.now)
        for _ in range(20):
            ctl.observe(clock.tick(0.005))  # 5 ms * 999 would be ~5 s
        assert ctl.window_ms() == 10.0

    def test_idle_gap_does_not_poison_the_next_burst(self):
        clock = FakeClock()
        ctl = AdaptiveWaitController(ceiling_ms=10.0, max_batch=32)
        ctl.observe(clock.now)
        for _ in range(20):
            ctl.observe(clock.tick(0.001))  # steady 1 ms stream
        ctl.observe(clock.tick(5.0))  # 5 s idle gap (capped at ceiling)
        assert ctl.ewma_ms <= 10.0
        for _ in range(3):
            ctl.observe(clock.tick(0.001))
        # a few post-gap arrivals restore a useful window
        assert 0.0 < ctl.window_ms() <= 10.0

    def test_ewma_tracks_rate_changes(self):
        clock = FakeClock()
        ctl = AdaptiveWaitController(ceiling_ms=50.0, max_batch=4, smoothing=0.5)
        ctl.observe(clock.now)
        for _ in range(20):
            ctl.observe(clock.tick(0.020))  # 20 ms apart
        slow = ctl.window_ms()
        for _ in range(20):
            ctl.observe(clock.tick(0.001))  # burst at 1 ms
        assert ctl.window_ms() < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveWaitController(-1.0, 4)
        with pytest.raises(ValueError):
            AdaptiveWaitController(1.0, 0)
        with pytest.raises(ValueError):
            AdaptiveWaitController(1.0, 4, smoothing=0.0)


class TestConfig:
    def test_auto_accepted_and_fixed_numbers_still_work(self):
        assert ServerConfig(max_wait_ms="auto").adaptive
        assert not ServerConfig(max_wait_ms=2.0).adaptive
        ctl = ServerConfig(max_wait_ms="auto", auto_wait_ceiling_ms=7.5,
                           max_batch=16).make_wait_controller()
        assert ctl.ceiling_ms == 7.5
        assert ctl.max_batch == 16

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            ServerConfig(max_wait_ms="soon")
        with pytest.raises(ValueError):
            ServerConfig(max_wait_ms=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                ServerConfig(max_wait_ms=bad)
            with pytest.raises(ValueError, match="finite"):
                ServerConfig(max_wait_ms="auto", auto_wait_ceiling_ms=bad)
            with pytest.raises(ValueError, match="finite"):
                AdaptiveWaitController(bad, 4)
        with pytest.raises(ValueError):
            ServerConfig(max_wait_ms="auto", auto_wait_ceiling_ms=-1.0)
        with pytest.raises(ValueError, match="fixed"):
            ServerConfig(max_wait_ms=2.0).make_wait_controller()


class TestServerAutoMode:
    def test_auto_server_serves_and_reports_window(self):
        rng = random.Random(11)
        dataset = Dataset(
            make_random_objects(60, 16, rng),
            make_random_users(12, 16, rng),
            relevance="LM",
            alpha=0.5,
        )
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, 16, 8, ks=(3,))

        async def run():
            async with MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms="auto")
            ) as server:
                results = await server.submit_many(queries)
                return results, server.stats_snapshot()

        results, snapshot = asyncio.run(run())
        assert len(results) == 8
        assert "adaptive_wait_ms" in snapshot
        reference = QueryOptions()
        for query, served in zip(queries, results):
            solo = oracle.query(engine, query, reference)
            assert solo.location == served.location
            assert solo.keywords == served.keywords
            assert solo.brstknn == served.brstknn
