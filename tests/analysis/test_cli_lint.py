"""The `repro lint` command: exit codes, formats, rule selection."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


class TestLintCommand:
    def test_lint_src_strict_is_clean(self, capsys):
        rc = main(["lint", str(SRC), "--strict"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "suppressed" in out

    def test_lint_fixture_exits_one_with_findings(self, capsys):
        rc = main(["lint", str(FIXTURES / "kernel_bad.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "KI301" in out
        assert "KI302" in out

    def test_rule_selection_filters_families(self, capsys):
        # kernel-identity has nothing to say about a pool fixture.
        rc = main([
            "lint", str(FIXTURES / "pool_bad.py"), "--rule", "kernel-identity",
        ])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, capsys):
        rc = main([
            "lint", str(FIXTURES / "pool_bad.py"), "--format", "json",
        ])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in data["findings"]}
        assert rules == {"PB202"}

    def test_nonexistent_path_exits_two(self, capsys):
        rc = main(["lint", "definitely/not/a/path"])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_directory_without_python_exits_two(self, capsys, tmp_path):
        (tmp_path / "README.txt").write_text("no code here")
        rc = main(["lint", str(tmp_path)])
        assert rc == 2
        assert "no python files" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        rc = main(["lint", str(SRC), "--rule", "nope"])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_names_all_families(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for family in (
            "pool-boundary", "kernel-identity",
            "async-blocking", "shm-payload", "transport",
        ):
            assert family in out
        for code in ("PB202", "KI301", "AB401", "SM601", "TR701"):
            assert code in out
        for gone in (
            "stage-contract", "SC101", "fault-tolerance", "FT501", "PB201",
            "PB203",
        ):
            assert gone not in out

    def test_disk_cache_file_is_written(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        rc = main([
            "lint", str(FIXTURES / "kernel_ok.py"), "--cache", str(cache),
        ])
        assert rc == 0
        assert cache.exists()
        data = json.loads(cache.read_text())
        assert data["version"] == 1
