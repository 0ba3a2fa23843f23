"""``pool-boundary``: COW-only state never rides a scatter payload.

Local shard hosts (:class:`~repro.serve.pool.PersistentWorkerPool`)
inherit the dataset and its pre-built
:class:`~repro.core.kernels.DatasetArrays` through fork-time
copy-on-write, and remote hosts rebuild them from the workload spec:
only *small* payload tuples ever travel in a frame.  Something
picklable but enormous landing in one — ``Dataset``, ``PageStore`` —
makes the flush "work" while re-shipping per batch the exact state the
fork exists to share (``Dataset.__getstate__`` even drops its arrays,
so the far side silently rebuilds them); the types that refuse
pickling outright (``DatasetArrays``/``TreeArrays`` raise in
``__reduce__``) kill the flush with an opaque ``PicklingError``.

This checker flags both at lint time.  Boundary sites are scatter
payload tuples — tuple literals whose first element is one of the
:func:`~repro.core.pipeline.execute_shard_payload` kinds.

Rules
-----
* ``PB202`` known COW-only type (``Dataset``, ``DatasetArrays``,
  ``ObjectColumns``, ``TreeArrays``, ``PageStore``, or their factories
  ``arrays_for`` / ``object_columns_for`` / ``tree_arrays_for``)
  flowing into a payload.

The analysis is deliberately shallow (single-function dataflow over
literal payloads); it proves presence of a violation, never absence.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from ..engine import Checker, Finding, ModuleInfo, call_name, const_str, walk_scope

__all__ = ["PoolBoundaryChecker", "COW_ONLY_TYPES", "PAYLOAD_KINDS"]

#: Types (and their lazy factories) that must stay behind the fork:
#: hosts receive them via copy-on-write memory, never in a frame.
COW_ONLY_TYPES = frozenset({
    "Dataset", "DatasetArrays", "ObjectColumns", "TreeArrays", "PageStore",
    "arrays_for", "object_columns_for", "tree_arrays_for",
})

#: First elements of execute_shard_payload work-item tuples.
PAYLOAD_KINDS = frozenset({"refine", "select", "indexed_search"})


def _cow_origin(dotted: str) -> str:
    """The COW-only component of a dotted call name, or ``""``.

    Matches any component so classmethod constructors count too:
    ``Dataset.synthetic`` and ``kernels.DatasetArrays`` both resolve.
    """
    for part in dotted.split("."):
        if part in COW_ONLY_TYPES:
            return part
    return ""


class PoolBoundaryChecker(Checker):
    """Flag COW-only state in scatter payload tuples."""

    name = "pool-boundary"
    description = (
        "COW-only types must not ride a scatter payload tuple across "
        "the shard-host frame boundary"
    )
    codes = (
        ("PB202", "COW-only type shipped through a scatter payload"),
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(scope, module)
        # Module-level payload tuples (rare, but fixtures use them).
        yield from self._check_scope(module.tree, module)

    def _check_scope(self, scope: ast.AST, module: ModuleInfo) -> Iterator[Finding]:
        # walk_scope(skip_nested=True): nested defs get their own
        # _check_scope visit from check(); don't double-report their
        # bodies from the enclosing scope.
        tainted = self._tainted_names(scope)
        for node in walk_scope(scope, skip_nested=True):
            if (
                isinstance(node, ast.Tuple)
                and node.elts
                and const_str(node.elts[0]) in PAYLOAD_KINDS
            ):
                yield from self._scan_payload(node, module, tainted)

    @staticmethod
    def _tainted_names(scope: ast.AST) -> Dict[str, str]:
        """Names assigned from COW-only constructors in this scope."""
        tainted: Dict[str, str] = {}
        for node in walk_scope(scope, skip_nested=True):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            origin = _cow_origin(call_name(value.func))
            if not origin:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tainted[target.id] = origin
        return tainted

    def _scan_payload(
        self, node: ast.Tuple, module: ModuleInfo, tainted: Dict[str, str]
    ) -> Iterator[Finding]:
        """Flag COW-only state anywhere inside one payload tuple."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                yield self.finding(
                    "PB202",
                    f"{sub.id!r} (a {tainted[sub.id]}) in a scatter payload: "
                    f"COW-only state must be inherited at fork time, never "
                    f"shipped in a frame",
                    module, sub.lineno,
                )
            elif isinstance(sub, ast.Call):
                origin = _cow_origin(call_name(sub.func))
                if origin:
                    yield self.finding(
                        "PB202",
                        f"{call_name(sub.func)}(...) constructed inside a "
                        f"scatter payload: {origin} must stay behind the fork "
                        f"boundary (hosts inherit it via copy-on-write)",
                        module, sub.lineno,
                    )
