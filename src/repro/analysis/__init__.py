"""Contract-aware static analysis for the repro codebase.

``repro lint`` runs five repo-specific AST checkers — COW-only state
in scatter payloads, bitwise-identity kernel discipline, async
event-loop blocking, shm payload hygiene, and the socket-transport
pickle funnel — without importing the target files.  See
:mod:`repro.analysis.engine` for the engine and
:mod:`repro.analysis.checkers` for the rule families.
"""

from .checkers import (
    ALL_CHECKERS,
    AsyncBlockingChecker,
    KernelIdentityChecker,
    PoolBoundaryChecker,
    ShmPayloadChecker,
    TransportChecker,
    checkers_for,
)
from .engine import (
    Checker,
    Finding,
    LintReport,
    LintUsageError,
    ModuleInfo,
    exit_code,
    format_json,
    format_text,
    iter_python_files,
    run_paths,
)

__all__ = [
    "ALL_CHECKERS",
    "AsyncBlockingChecker",
    "Checker",
    "Finding",
    "KernelIdentityChecker",
    "LintReport",
    "LintUsageError",
    "ModuleInfo",
    "PoolBoundaryChecker",
    "ShmPayloadChecker",
    "TransportChecker",
    "checkers_for",
    "exit_code",
    "format_json",
    "format_text",
    "iter_python_files",
    "run_paths",
]
