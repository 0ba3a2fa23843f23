"""Engine behavior: suppressions, caching, formats, exit codes."""

import json

import pytest

from repro.analysis import (
    Checker,
    Finding,
    LintUsageError,
    ModuleInfo,
    checkers_for,
    exit_code,
    format_json,
    format_text,
    iter_python_files,
    run_paths,
)
from repro.analysis.engine import suppressed_rules


class FlagEveryDef(Checker):
    """Test checker: one finding per function definition."""

    name = "flag-every-def"
    codes = (("XX901", "a def"),)

    def __init__(self, severity="error"):
        self.severity = severity
        self.calls = 0

    def cache_key(self):
        return f"{self.name}({self.severity})"

    def check(self, module):
        import ast

        self.calls += 1
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef):
                yield self.finding(
                    "XX901", f"def {node.name}", module, node.lineno,
                    severity=self.severity,
                )


class TestSuppressions:
    def test_no_comment_means_no_suppression(self):
        assert suppressed_rules("x = 1") is None

    def test_bare_noqa_silences_everything(self):
        assert suppressed_rules("x = 1  # repro: noqa") == frozenset()

    def test_codes_and_families_parse(self):
        rules = suppressed_rules("x = 1  # repro: noqa[KI301, pool-boundary]")
        assert rules == frozenset({"KI301", "pool-boundary"})

    def test_family_name_suppresses_family_codes(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():  # repro: noqa[flag-every-def]\n    pass\n")
        report = run_paths([str(target)], [FlagEveryDef()])
        assert report.findings == []
        assert report.suppressed == 1

    def test_unrelated_code_does_not_suppress(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():  # repro: noqa[KI301]\n    pass\n")
        report = run_paths([str(target)], [FlagEveryDef()])
        assert len(report.findings) == 1


class TestCaching:
    def test_unchanged_file_is_checked_once(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():\n    pass\n")
        checker = FlagEveryDef()
        first = run_paths([str(target)], [checker])
        second = run_paths([str(target)], [checker])
        assert checker.calls == 1
        assert second.cache_hits == 1
        assert [f.snapshot() for f in first.findings] == \
            [f.snapshot() for f in second.findings]

    def test_edited_file_is_rechecked(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():\n    pass\n")
        checker = FlagEveryDef()
        run_paths([str(target)], [checker])
        target.write_text("def f():\n    pass\n\n\ndef g():\n    pass\n")
        report = run_paths([str(target)], [checker])
        assert checker.calls == 2
        assert len(report.findings) == 2

    def test_checker_configuration_splits_the_cache(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():\n    pass\n")
        errors = run_paths([str(target)], [FlagEveryDef("error")])
        warnings = run_paths([str(target)], [FlagEveryDef("warning")])
        assert errors.findings[0].severity == "error"
        assert warnings.findings[0].severity == "warning"

    def test_disk_cache_round_trips(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("def f():\n    pass\n")
        cache = tmp_path / "lint-cache.json"
        first = run_paths([str(target)], [FlagEveryDef()], cache_file=str(cache))
        assert cache.exists()
        # A fresh checker instance + cold in-process cache must load
        # the stored findings instead of re-running the checker.
        from repro.analysis.engine import _MEMO

        _MEMO.clear()
        checker = FlagEveryDef()
        second = run_paths([str(target)], [checker], cache_file=str(cache))
        assert checker.calls == 0
        assert second.cache_hits == 1
        assert [f.snapshot() for f in second.findings] == \
            [f.snapshot() for f in first.findings]


class TestFilesAndErrors:
    def test_nonexistent_path_is_a_usage_error(self):
        with pytest.raises(LintUsageError, match="does not exist"):
            iter_python_files(["definitely/not/here"])

    def test_directory_without_python_is_a_usage_error(self, tmp_path):
        (tmp_path / "data.txt").write_text("not python")
        with pytest.raises(LintUsageError, match="no python files"):
            iter_python_files([str(tmp_path)])

    def test_hidden_and_pycache_dirs_are_skipped(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        hidden = tmp_path / ".venv"
        hidden.mkdir()
        (hidden / "b.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "c.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py"]

    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(LintUsageError, match="unknown rule"):
            checkers_for(["definitely-not-a-rule"])

    def test_no_rules_selects_the_five_families(self):
        assert [c.name for c in checkers_for([])] == [
            "pool-boundary", "kernel-identity", "async-blocking",
            "shm-payload", "transport",
        ]

    @pytest.mark.parametrize("retired", ["stage-contract", "SC101", "SC106"])
    def test_retired_stage_contract_rules_are_unknown(self, retired):
        # The family went with the Stage framework it checked; selecting
        # it must fail loudly, not lint nothing.
        with pytest.raises(LintUsageError, match="unknown rule"):
            checkers_for([retired])

    def test_rule_selection_by_family_and_code(self):
        by_family = checkers_for(["kernel-identity"])
        by_code = checkers_for(["KI302"])
        assert [c.name for c in by_family] == ["kernel-identity"]
        assert [c.name for c in by_code] == ["kernel-identity"]

    def test_syntax_error_becomes_e000(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        report = run_paths([str(target)], [FlagEveryDef()])
        assert [f.rule for f in report.findings] == ["E000"]
        assert report.findings[0].severity == "error"


class TestExitCodesAndFormats:
    def _report(self, tmp_path, severity):
        target = tmp_path / "t.py"
        target.write_text("def f():\n    pass\n")
        return run_paths([str(target)], [FlagEveryDef(severity)])

    def test_clean_run_exits_zero(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("x = 1\n")
        report = run_paths([str(target)], [FlagEveryDef()])
        assert exit_code(report) == 0
        assert exit_code(report, strict=True) == 0

    def test_errors_exit_one(self, tmp_path):
        report = self._report(tmp_path, "error")
        assert exit_code(report) == 1

    def test_warnings_exit_one_only_under_strict(self, tmp_path):
        report = self._report(tmp_path, "warning")
        assert exit_code(report) == 0
        assert exit_code(report, strict=True) == 1

    def test_text_format_names_file_line_rule(self, tmp_path):
        report = self._report(tmp_path, "error")
        text = format_text(report)
        assert "t.py:1: XX901 [error] def f" in text
        assert "1 finding(s) (1 error(s)) in 1 file(s)" in text

    def test_json_format_round_trips(self, tmp_path):
        report = self._report(tmp_path, "error")
        data = json.loads(format_json(report))
        assert data["files_checked"] == 1
        (finding,) = data["findings"]
        assert finding["rule"] == "XX901"
        assert finding["line"] == 1
        assert finding["severity"] == "error"

    def test_finding_snapshot_is_complete(self):
        f = Finding("XX901", "fam", "msg", "f.py", 3, "warning")
        assert f.snapshot() == {
            "rule": "XX901", "family": "fam", "severity": "warning",
            "file": "f.py", "line": 3, "message": "msg",
        }

    def test_module_info_line_text(self):
        info = ModuleInfo("t.py", "a = 1\nb = 2\n")
        assert info.line_text(2) == "b = 2"
        assert info.line_text(99) == ""
