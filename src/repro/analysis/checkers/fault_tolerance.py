"""``fault-tolerance``: pool scatter rounds must ride the supervisor.

A bare ``multiprocessing`` dispatch has no worker-liveness check, no
deadline and no retry: a worker that dies mid-task loses the task
forever and the round's ``AsyncResult.get()`` simply never returns —
the exact wedge the supervised
:class:`~repro.serve.pool.PersistentWorkerPool` exists to remove.  The
sanctioned path is ``dispatch()`` / ``collect()`` / ``run_supervised()``
(deadline + retry + typed failures); this checker makes that discipline
machine-checked, like the Stage contract.

Flagged (outside ``PersistentWorkerPool`` itself, which implements the
supervisor and may touch the raw pool): async ``multiprocessing``
dispatches (``map_async``, ``apply_async``, ``starmap_async``,
``imap``, ``imap_unordered``) on a pool-like receiver — each returns a
result handle whose ``get()``/iteration can hang forever on worker
death.

Synchronous ``pool.map`` is out of scope: it returns no handle to wait
on, and the serving stack has no call site for it.

Rules
-----
* ``FT501`` bare pool dispatch bypassing the deadline/retry supervisor.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Tuple

from ..engine import Checker, Finding, ModuleInfo, call_name

__all__ = ["FaultToleranceChecker"]

#: multiprocessing async-dispatch methods returning result handles that
#: hang forever if a worker dies (flagged on pool-like receivers).
_ASYNC_POOL_METHODS = frozenset(
    {"map_async", "apply_async", "starmap_async", "imap", "imap_unordered"}
)

#: Receiver names that mark the call target as a worker pool.
_POOLISH_RE = re.compile(r"pool|worker", re.IGNORECASE)

#: Classes allowed to touch the raw pool: the supervisor itself.
_SUPERVISOR_CLASSES = frozenset({"PersistentWorkerPool"})


class FaultToleranceChecker(Checker):
    """Flag pool dispatches that bypass the supervision wrapper."""

    name = "fault-tolerance"
    description = (
        "pool scatter dispatches must flow through the supervised "
        "dispatch()/collect()/run_supervised() wrapper (deadline + "
        "retry), never bare multiprocessing async results"
    )
    codes = (
        ("FT501", "bare pool dispatch bypasses the deadline/retry supervisor"),
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        for node, supervised in _walk_with_class_context(module.tree, False):
            if supervised or not isinstance(node, ast.Call):
                continue
            target = node.func
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr in _ASYNC_POOL_METHODS and _POOLISH_RE.search(
                call_name(target.value)
            ):
                yield self.finding(
                    "FT501",
                    f"bare {call_name(target)}() returns a result handle "
                    f"with no liveness check or deadline — worker death "
                    f"hangs it forever; route the round through "
                    f"PersistentWorkerPool.run_supervised()",
                    module, node.lineno,
                )


def _walk_with_class_context(
    root: ast.AST, supervised: bool
) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``(node, inside_supervisor_class)`` over the whole tree."""
    for child in ast.iter_child_nodes(root):
        child_supervised = supervised or (
            isinstance(child, ast.ClassDef) and child.name in _SUPERVISOR_CLASSES
        )
        yield child, child_supervised
        yield from _walk_with_class_context(child, child_supervised)
