"""fault-tolerance checker: FT501 at exact lines, and silence."""

from repro.analysis import FaultToleranceChecker, run_paths

from .conftest import line_of


def rules_at(report):
    return {(f.rule, f.line) for f in report.findings}


class TestFaultToleranceViolations:
    def test_async_pool_methods_fire_on_poolish_receivers(self, lint_fixture):
        report, path = lint_fixture("fault_bad.py", FaultToleranceChecker())
        found = rules_at(report)
        for needle in (
            "worker_pool.map_async(fn, items)",
            "self._pool.apply_async(fn)",
            "lane_pool.imap(fn, items)",
            "self.pool.starmap_async(fn, plans)",
        ):
            assert ("FT501", line_of(path, needle)) in found

    def test_every_finding_is_ft501(self, lint_fixture):
        report, _ = lint_fixture("fault_bad.py", FaultToleranceChecker())
        assert report.findings, "the bad fixture must fire"
        assert {f.rule for f in report.findings} == {"FT501"}


class TestFaultToleranceCleanCode:
    def test_supervised_and_out_of_scope_patterns_are_silent(self, lint_fixture):
        # Covers: the supervisor class touching its own raw pool, the
        # sanctioned run_supervised/dispatch+collect paths, synchronous
        # fork_pool.map, and async-looking methods on receivers that
        # are not pools.
        report, _ = lint_fixture("fault_ok.py", FaultToleranceChecker())
        assert report.findings == []

    def test_shipped_serving_stack_is_clean(self):
        import repro.core.batch as batch_mod
        import repro.core.pipeline as pipeline_mod
        import repro.serve.pool as pool_mod
        import repro.serve.server as server_mod
        import repro.serve.sharded as sharded_mod

        report = run_paths(
            [
                mod.__file__
                for mod in (
                    batch_mod, pipeline_mod, pool_mod, server_mod, sharded_mod
                )
            ],
            [FaultToleranceChecker()],
        )
        assert report.findings == []
