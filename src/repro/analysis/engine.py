"""AST-walking static analysis engine for repo-specific contracts.

The codebase rests on conventions that ordinary linters cannot see:
the copy-on-write boundary silently breaks when COW-only
state sneaks into scatter payloads, the bitwise-identity kernels in
:mod:`repro.core.kernels` ban re-associating reductions, and blocking
calls inside ``async def`` bodies stall the serving event loop.  Each of
those one-off code-review rules lives here as a :class:`Checker` the
``repro lint`` command runs mechanically.

Design:

* a :class:`Finding` is (rule id, message, file, line, severity) —
  rule ids are stable codes (``PB202``, ``KI301``, ...) grouped into
  the five checker families;
* a :class:`Checker` parses nothing itself — it receives a
  :class:`ModuleInfo` (source + parsed AST) and yields findings, so
  target files are **never imported** (fixtures with deliberate bugs
  and files with missing optional deps lint fine);
* suppressions are explicit: ``# repro: noqa[KI301]`` on the offending
  line silences that code (or a family name, or everything with a bare
  ``# repro: noqa``) — the convention is that every suppression carries
  a comment explaining *why* the violation is intended;
* per-file caching: results memoize on the file's content hash (plus
  the rule selection), in-process always and optionally on disk, so a
  lint of an unchanged tree re-parses nothing.

Exit-code contract (:func:`exit_code`): ``0`` clean, ``1`` findings
(errors always; warnings only under ``--strict``), ``2`` usage errors
(nonexistent path, no python files, unknown rule).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "ModuleInfo",
    "Checker",
    "LintReport",
    "LintUsageError",
    "run_paths",
    "exit_code",
    "format_text",
    "format_json",
    "iter_python_files",
]

#: Severities, in increasing order of concern.
SEVERITIES = ("warning", "error")

#: ``# repro: noqa`` / ``# repro: noqa[KI301, pool-boundary]``
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_\-, ]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source line."""

    rule: str                 # stable code, e.g. "KI301"
    family: str               # checker family, e.g. "kernel-identity"
    message: str
    file: str                 # path as given to the engine
    line: int                 # 1-based
    severity: str = "error"   # "error" | "warning"

    def snapshot(self) -> dict:
        return {
            "rule": self.rule,
            "family": self.family,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }


class ModuleInfo:
    """One target file: source text plus its parsed AST.

    Parsing happens once, here — checkers share the tree.  A file that
    does not parse produces the ``E000`` finding instead of a crash
    (``tree`` is ``None`` then; checkers must tolerate it).
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.AST] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.syntax_error = exc

    def line_text(self, line: int) -> str:
        """The 1-based source line (empty for out-of-range lines)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Checker:
    """Base class: one rule family over one module at a time."""

    #: Family name used by ``--rule`` selection and ``noqa[<family>]``.
    name: str = "checker"
    description: str = ""
    #: The stable rule codes this family can emit (for --list-rules).
    codes: Tuple[Tuple[str, str], ...] = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def cache_key(self) -> str:
        """Cache identity: configurable checkers must extend this so a
        reconfigured instance never hits another configuration's cache."""
        return self.name

    # Helper so concrete checkers emit uniformly tagged findings.
    def finding(
        self, rule: str, message: str, module: ModuleInfo, line: int,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            rule=rule, family=self.name, message=message,
            file=module.path, line=line, severity=severity,
        )


class LintUsageError(Exception):
    """Bad invocation (exit code 2): unknown rule, no files, ..."""


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    cache_hits: int = 0

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def snapshot(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "findings": [f.snapshot() for f in self.findings],
        }


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def suppressed_rules(line_text: str) -> Optional[frozenset]:
    """The rules a source line's ``# repro: noqa`` comment silences.

    Returns ``None`` when the line has no noqa comment, an **empty**
    frozenset for a bare ``# repro: noqa`` (silence everything), and
    the named codes/families otherwise.
    """
    m = _NOQA_RE.search(line_text)
    if m is None:
        return None
    if m.group(1) is None:
        return frozenset()
    return frozenset(
        token.strip() for token in m.group(1).split(",") if token.strip()
    )


def _is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    text = lines[finding.line - 1] if 1 <= finding.line <= len(lines) else ""
    rules = suppressed_rules(text)
    if rules is None:
        return False
    if not rules:  # bare noqa silences the whole line
        return True
    return finding.rule in rules or finding.family in rules


# ----------------------------------------------------------------------
# Per-file caching
# ----------------------------------------------------------------------

#: In-process cache: (abspath, content sha1, rules key) -> raw findings.
#: Keyed on content, not mtime, so edit-and-revert hits too.  The test
#: suite lints the same tree from many tests; this makes that ~free.
_MEMO: Dict[Tuple[str, str, str], List[Finding]] = {}


class _DiskCache:
    """Optional JSON sidecar cache (``repro lint --cache FILE``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._entries: Dict[str, dict] = {}
        self.dirty = False
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                self._entries = data.get("files", {})
        except (OSError, ValueError):
            self._entries = {}

    def lookup(self, key: Tuple[str, str, str]) -> Optional[List[Finding]]:
        entry = self._entries.get(key[0])
        if entry is None or entry.get("sha") != key[1] or entry.get("rules") != key[2]:
            return None
        try:
            return [Finding(**raw) for raw in entry["findings"]]
        except (KeyError, TypeError):
            return None

    def store(self, key: Tuple[str, str, str], findings: List[Finding]) -> None:
        self._entries[key[0]] = {
            "sha": key[1],
            "rules": key[2],
            "findings": [f.snapshot() for f in findings],
        }
        self.dirty = True

    def flush(self) -> None:
        if not self.dirty:
            return
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "files": self._entries}, fh)
        os.replace(tmp, self.path)
        self.dirty = False


# ----------------------------------------------------------------------
# File discovery + the engine proper
# ----------------------------------------------------------------------

def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises :class:`LintUsageError` for a nonexistent path or when the
    expansion finds no python files at all — ``repro lint typo/`` must
    fail loudly, not report a clean empty run.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                out.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise LintUsageError(f"path does not exist: {path!r}")
    files = sorted(dict.fromkeys(out))
    if not files:
        raise LintUsageError(
            f"no python files found under {', '.join(repr(p) for p in paths)}"
        )
    return files


def _rules_key(checkers: Sequence[Checker]) -> str:
    return ",".join(sorted(c.cache_key() for c in checkers))


def _check_one(
    path: str,
    source: str,
    checkers: Sequence[Checker],
    rules_key: str,
    disk: Optional[_DiskCache],
    report: LintReport,
) -> List[Finding]:
    """Raw (pre-suppression) findings for one file, cached on content."""
    sha = hashlib.sha1(source.encode("utf-8")).hexdigest()
    key = (os.path.abspath(path), sha, rules_key)
    cached = _MEMO.get(key)
    if cached is None and disk is not None:
        cached = disk.lookup(key)
    if cached is not None:
        report.cache_hits += 1
        # Cached findings carry their original path string; re-home
        # them so reports stay consistent with how *this* run named it.
        return [
            f if f.file == path else Finding(**(f.snapshot() | {"file": path}))
            for f in cached
        ]
    module = ModuleInfo(path, source)
    raw: List[Finding] = []
    if module.syntax_error is not None:
        err = module.syntax_error
        raw.append(Finding(
            rule="E000", family="engine",
            message=f"syntax error: {err.msg}",
            file=path, line=err.lineno or 1, severity="error",
        ))
    else:
        for checker in checkers:
            raw.extend(checker.check(module))
    raw.sort(key=lambda f: (f.line, f.rule))
    _MEMO[key] = raw
    if disk is not None:
        disk.store(key, raw)
    return raw


def run_paths(
    paths: Sequence[str],
    checkers: Sequence[Checker],
    cache_file: Optional[str] = None,
) -> LintReport:
    """Lint every python file under ``paths`` with ``checkers``."""
    files = iter_python_files(paths)
    disk = _DiskCache(cache_file) if cache_file else None
    report = LintReport()
    rules_key = _rules_key(checkers)
    for path in files:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise LintUsageError(f"cannot read {path!r}: {exc}") from exc
        raw = _check_one(path, source, checkers, rules_key, disk, report)
        report.files_checked += 1
        if not raw:
            continue
        lines = source.splitlines()
        for finding in raw:
            if _is_suppressed(finding, lines):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    if disk is not None:
        disk.flush()
    report.findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return report


def exit_code(report: LintReport, strict: bool = False) -> int:
    """The exit-code contract: 0 clean, 1 findings (see module doc)."""
    if report.errors():
        return 1
    if strict and report.findings:
        return 1
    return 0


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

def format_text(report: LintReport) -> str:
    lines = [
        f"{f.file}:{f.line}: {f.rule} [{f.severity}] {f.message}"
        for f in report.findings
    ]
    tail = (
        f"{len(report.findings)} finding(s) "
        f"({len(report.errors())} error(s)) in {report.files_checked} file(s)"
    )
    if report.suppressed:
        tail += f", {report.suppressed} suppressed"
    lines.append(tail)
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return json.dumps(report.snapshot(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Shared AST helpers for the concrete checkers
# ----------------------------------------------------------------------

def call_name(node: ast.expr) -> str:
    """Dotted name of a call target: ``np.add.reduceat`` -> that string.

    Non-name components (subscripts, calls) render as ``?`` so callers
    can still match on the trailing attribute.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{call_name(node.value)}.{node.attr}"
    return "?"


def const_str(node: ast.expr) -> Optional[str]:
    """The value of a string-constant expression, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def walk_scope(node: ast.AST, *, skip_nested: bool = False) -> Iterable[ast.AST]:
    """Yield ``node``'s body nodes, optionally not descending into
    nested function/class definitions (their bodies are other scopes)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if skip_nested and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))
