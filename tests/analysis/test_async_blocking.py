"""async-blocking checker: exact rules at exact lines, and silence."""

from repro.analysis import AsyncBlockingChecker

from .conftest import line_of


def rules_at(report):
    return {(f.rule, f.line) for f in report.findings}


class TestAsyncBlockingViolations:
    def test_time_sleep_fires_ab401(self, lint_fixture):
        report, path = lint_fixture("async_bad.py", AsyncBlockingChecker())
        found = rules_at(report)
        assert ("AB401", line_of(path, "time.sleep(0.5)")) in found
        assert ("AB401", line_of(path, "sleep(0.1)")) in found

    def test_pool_joins_fire_ab402(self, lint_fixture):
        report, path = lint_fixture("async_bad.py", AsyncBlockingChecker())
        found = rules_at(report)
        assert ("AB402", line_of(path, "pool.join()")) in found
        assert ("AB402", line_of(path, "flusher.join()")) in found
        assert ("AB402", line_of(path, "worker_pool.close()")) in found

    def test_open_fires_ab403(self, lint_fixture):
        report, path = lint_fixture("async_bad.py", AsyncBlockingChecker())
        assert ("AB403", line_of(path, "open(path) as fh")) in rules_at(report)

    def test_sync_engine_queries_fire_ab404(self, lint_fixture):
        report, path = lint_fixture("async_bad.py", AsyncBlockingChecker())
        found = rules_at(report)
        assert ("AB404", line_of(path, "engine.query(query, options)")) in found
        assert ("AB404", line_of(path, "engine.query_batch(queries")) in found


class TestAsyncBlockingCleanCode:
    def test_approved_patterns_produce_nothing(self, lint_fixture):
        report, _ = lint_fixture("async_ok.py", AsyncBlockingChecker())
        assert report.findings == []

    def test_string_join_is_not_a_pool_join(self, lint_fixture):
        # ", ".join(parts) takes an argument and has no pool-like
        # receiver: it must never be mistaken for AB402.
        report, path = lint_fixture("async_ok.py", AsyncBlockingChecker())
        assert not any(
            f.line == line_of(path, '", ".join(parts)')
            for f in report.findings
        )

    def test_shipped_server_reports_only_suppressed(self):
        # The real server's stop() carries one documented AB402
        # suppression (the bounded close_pools); nothing else may fire.
        import repro.serve.server as server_mod

        from repro.analysis import run_paths

        report = run_paths([server_mod.__file__], [AsyncBlockingChecker()])
        assert report.findings == []
        assert report.suppressed == 1
