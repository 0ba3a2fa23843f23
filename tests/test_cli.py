"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_stats_command(self, capsys):
        rc = main(["stats", "--objects", "200", "--users", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Total objects: 200" in out

    def test_demo_command(self, capsys):
        rc = main([
            "demo", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--ws", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "|BRSTkNN|=" in out
        assert "simulated I/O" in out

    def test_demo_indexed_mode(self, capsys):
        rc = main([
            "demo", "--objects", "200", "--users", "20", "--locations", "3",
            "--mode", "indexed", "--k", "3",
        ])
        assert rc == 0
        assert "users pruned" in capsys.readouterr().out

    def test_demo_exact_yelp(self, capsys):
        rc = main([
            "demo", "--dataset", "yelp", "--objects", "300", "--users", "15",
            "--locations", "2", "--method", "exact", "--k", "3", "--uw", "8",
        ])
        assert rc == 0

    def test_batch_command_with_explain(self, capsys):
        rc = main([
            "batch", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--batch-size", "4", "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan: batch of 4" in out
        assert "queries/sec" in out

    def test_batch_over_lanes_reaps_its_workers(self, capsys):
        import multiprocessing

        rc = main([
            "batch", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--batch-size", "4", "--shards", "2", "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scatter: refine by user row range x2" in out
        assert "search lanes x2" in out  # the plan names the started lanes
        assert "shards=2" in out
        assert multiprocessing.active_children() == []

    def test_batch_refuses_baseline_over_lanes(self, capsys):
        rc = main([
            "batch", "--objects", "200", "--users", "20", "--batch-size", "2",
            "--shards", "2", "--mode", "baseline",
        ])
        assert rc == 2
        assert "no mergeable per-user decomposition" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--pool-workers", "2"],
        ["--pool-workers", "1", "--fault", "kill-worker"],
        ["--shards", "2", "--fault", "kill-worker"],
    ])
    def test_serve_refuses_worker_flags_without_lanes(self, capsys, flags):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--queries", "2",
            *flags,
        ])
        assert rc == 2
        assert "make_engine(..., EngineConfig(num_shards=N))" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [
        ["serve", "--shards", "2", "--pool-workers", "1"],
        ["shard-host"],
    ])
    def test_one_fault_vocabulary_refuses_unknown_specs(self, capsys, command):
        rc = main([
            *command, "--objects", "200", "--users", "20", "--fault", "explode",
        ])
        assert rc == 2
        assert "unknown fault 'explode'" in capsys.readouterr().err

    def test_serve_command_verifies_against_sequential(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--queries", "6", "--max-batch", "4", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 6 concurrent queries" in out
        assert "verify: served results == sequential" in out
        # --verify points at the static half of the verification story.
        assert "tests/test_source_contracts.py" in out

    def test_serve_sharded_with_auto_wait_verifies(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--queries", "6", "--max-batch", "4",
            "--shards", "2", "--max-wait-ms", "auto",
            "--verify", "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scatter: refine by user row range x2" in out
        assert "shard[0]:" in out  # per-lane refine counters surfaced
        assert "refine_tasks=" in out and "degraded_rounds=" in out
        assert "adaptive_wait_ms" in out
        assert (
            "verify: served results == sequential on 6 queries "
            "(mode=joint, shards=2)" in out
        )

    def test_serve_sharded_indexed_verifies(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--queries", "6", "--max-batch", "4",
            "--shards", "2", "--mode", "indexed", "--verify", "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MIUR-root joint traversal" in out
        assert (
            "verify: served results == sequential on 6 queries "
            "(mode=indexed, shards=2)" in out
        )

    def test_serve_indexed_verifies_against_sequential(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--queries", "4", "--max-batch", "4",
            "--mode", "indexed", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "verify: served results == sequential on 4 queries "
            "(mode=indexed, shards=1)" in out
        )

    def test_serve_rejects_bad_max_wait(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--queries", "2",
            "--max-wait-ms", "soon",
        ])
        assert rc == 2

    def test_serve_rejects_sharded_baseline(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--queries", "2",
            "--shards", "2", "--mode", "baseline",
        ])
        assert rc == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
