"""``repro lint``: run the contract checkers from the command line.

Exit codes: ``0`` clean, ``1`` findings (errors always; warnings too
under ``--strict``), ``2`` usage errors (nonexistent path, no python
files, unknown ``--rule``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .checkers import ALL_CHECKERS, checkers_for
from .engine import (
    LintUsageError,
    exit_code,
    format_json,
    format_text,
    run_paths,
)

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on warnings too, not only errors",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format", help="report format (default: text)",
    )
    parser.add_argument(
        "--rule", action="append", default=[], metavar="FAMILY",
        help="run only this checker family (repeatable; family name "
             "like 'pool-boundary' or a code like 'PB202')",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every family and rule code, then exit",
    )
    parser.add_argument(
        "--cache", metavar="FILE", default=None,
        help="JSON result cache keyed on file content hashes",
    )


def _list_rules() -> str:
    lines: List[str] = []
    for cls in ALL_CHECKERS:
        lines.append(f"{cls.name}: {cls.description}")
        for code, summary in cls.codes:
            lines.append(f"  {code}  {summary}")
    return "\n".join(lines)


def run_lint(ns: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if ns.list_rules:
        print(_list_rules())
        return 0
    try:
        checkers = checkers_for(ns.rule)
        report = run_paths(ns.paths, checkers, cache_file=ns.cache)
    except LintUsageError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if ns.output_format == "json":
        print(format_json(report))
    else:
        print(format_text(report))
    return exit_code(report, strict=ns.strict)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="contract-aware static analysis for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
