"""The shipped tree must satisfy its own contracts: lint src/ is clean."""

from pathlib import Path

from repro.analysis import checkers_for, exit_code, run_paths

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSelfCheck:
    def test_src_is_clean_under_all_checkers(self):
        report = run_paths([str(SRC)], checkers_for([]))
        assert report.findings == [], "\n".join(
            f"{f.file}:{f.line}: {f.rule} {f.message}"
            for f in report.findings
        )
        assert exit_code(report, strict=True) == 0

    def test_the_documented_suppression_is_counted(self):
        # server.stop()'s bounded shutdown carries one AB402 noqa
        # comment; if this number drifts, a suppression was added or
        # removed without updating the rationale trail.
        report = run_paths([str(SRC)], checkers_for([]))
        assert report.suppressed == 1
