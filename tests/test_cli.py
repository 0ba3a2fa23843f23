"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import BLAS_THREAD_VARS, pin_blas_threads
from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize("command", ["demo", "batch", "serve"])
    def test_mode_is_not_a_flag(self, command, capsys):
        """One pipeline: Section 4's baseline and Section 7's search are
        reference code (``repro.core.baseline``, ``repro.oracle``)."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--mode", "joint"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

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

    def test_shard_host_has_no_arena_option(self, capsys):
        # Hosts read payload blocks by the name each ArenaRef carries.
        with pytest.raises(SystemExit) as exc:
            main(["shard-host", "--arena", "x"])
        assert exc.value.code == 2
        assert "--arena" in capsys.readouterr().err

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

    def test_serve_sharded_with_fixed_wait_verifies(self, capsys):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--locations", "3",
            "--k", "3", "--queries", "6", "--max-batch", "4",
            "--shards", "2", "--pool-workers", "1", "--max-wait-ms", "2",
            "--verify", "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scatter: refine by user row range x2" in out
        # one health row per forked host, each of which served rounds
        assert out.count("  pool[local-") == 2 and "rounds=" in out
        assert (
            "verify: served results == sequential on 6 queries "
            "(method=approx, shards=2)" in out
        )

    # a word, a negative window, and the two floats no deadline can
    # use: inf holds a partial batch forever, NaN fails every compare
    @pytest.mark.parametrize("window", ["soon", "auto", "-1", "inf", "nan"])
    def test_serve_rejects_bad_max_wait(self, capsys, window):
        rc = main([
            "serve", "--objects", "200", "--users", "20", "--queries", "2",
            "--max-wait-ms", window,
        ])
        assert rc == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBlasPin:
    """``python -m repro serve`` / ``shard-host`` pin BLAS to one thread
    where the operator left the variables unset."""

    @pytest.mark.parametrize("command", ["serve", "shard-host"])
    def test_serving_commands_set_unset_variables(self, command):
        environ = {}
        pin_blas_threads([command, "--shards", "2"], environ)
        assert environ == {name: "1" for name in BLAS_THREAD_VARS}

    def test_an_operator_value_is_left_alone(self):
        environ = {"OPENBLAS_NUM_THREADS": "4"}
        pin_blas_threads(["serve"], environ)
        assert environ == {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}

    @pytest.mark.parametrize("argv", [
        ["demo"], ["batch", "--shards", "2"], ["stats"], ["report"],
        ["demo", "serve"], [],
    ])
    def test_other_commands_are_ignored(self, argv):
        environ = {}
        pin_blas_threads(argv, environ)
        assert environ == {}

    def test_the_pin_lands_before_numpy_loads(self):
        """``python -m repro`` imports the package first: it must not
        load numpy, or the variables are read too late."""
        script = (
            "import os, runpy, sys\n"
            "import repro\n"
            "loaded_early = 'numpy' in sys.modules\n"
            "sys.argv = ['repro', 'serve', '--queries', '0']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(loaded_early, 'numpy' in sys.modules,"
            " [os.environ.get(v) for v in %r])\n" % (BLAS_THREAD_VARS,)
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[-2] == "False True ['1', '1']"
