"""pool-boundary checker: exact rules at exact lines, and silence."""

from repro.analysis import PoolBoundaryChecker

from .conftest import line_of


def rules_at(report):
    return {(f.rule, f.line) for f in report.findings}


class TestPoolBoundaryViolations:
    def test_classmethod_constructor_taints_name(self, lint_fixture):
        # Dataset.synthetic() -> dataset -> ("refine", dataset, ...)
        report, path = lint_fixture("pool_bad.py", PoolBoundaryChecker())
        assert ("PB202", line_of(path, '("refine", dataset, queries)')) in \
            rules_at(report)

    def test_cow_type_constructed_inline(self, lint_fixture):
        report, path = lint_fixture("pool_bad.py", PoolBoundaryChecker())
        assert ("PB202", line_of(path, "DatasetArrays(None)")) in \
            rules_at(report)

    def test_payload_tuple_outside_submit_site(self, lint_fixture):
        report, path = lint_fixture("pool_bad.py", PoolBoundaryChecker())
        assert ("PB202", line_of(path, '("indexed_search", queries, store)')) \
            in rules_at(report)

    def test_every_finding_is_an_error(self, lint_fixture):
        report, _ = lint_fixture("pool_bad.py", PoolBoundaryChecker())
        assert report.findings
        assert all(f.severity == "error" for f in report.findings)
        assert {f.rule for f in report.findings} == {"PB202"}


class TestPoolBoundaryCleanCode:
    def test_plain_payloads_are_clean(self, lint_fixture):
        report, _ = lint_fixture("pool_ok.py", PoolBoundaryChecker())
        assert report.findings == []

    def test_shipped_pool_module_is_clean(self):
        import repro.serve.pool as pool_mod

        from repro.analysis import run_paths

        report = run_paths([pool_mod.__file__], [PoolBoundaryChecker()])
        assert report.findings == []
