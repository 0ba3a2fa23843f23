"""``pool-boundary``: nothing unpicklable may cross the fork-pool pipe.

The serving stack's whole performance story rests on the PR 3 COW
discipline: :class:`~repro.serve.pool.PersistentWorkerPool` workers
inherit the dataset and its pre-built
:class:`~repro.core.kernels.DatasetArrays` through fork-time
copy-on-write, and only *small* payloads ever travel through the pool's
queues.  Two ways that discipline silently breaks:

* something **unpicklable** lands in a payload — lambdas, closures,
  bound methods, or the types that refuse pickling outright
  (``DatasetArrays``/``TreeArrays`` raise in ``__reduce__``) — and the
  flush dies with an opaque ``PicklingError`` at dispatch time;
* something **picklable but enormous** lands there — ``Dataset``,
  ``PageStore`` — and the flush "works" while re-shipping per batch the
  exact state the fork exists to share (``Dataset.__getstate__`` even
  drops its arrays, so workers silently rebuild them: the bug PR 3's
  token-registry fix closed by hand).

This checker flags both at lint time.  Boundary sites are pool
construction (``Pool(...)`` ``initializer=``/``initargs=``), pool
dispatch methods
(``.map``/``.map_async``/``.apply``/``.apply_async``/``.imap``), and
scatter payload tuples — tuple literals whose first element is one of
the :func:`~repro.core.pipeline.execute_shard_payload` kinds.

Rules
-----
* ``PB201`` lambda or locally-defined function at a boundary site;
* ``PB202`` known COW-only type (``Dataset``, ``DatasetArrays``,
  ``ObjectColumns``, ``TreeArrays``, ``PageStore``, or their factories
  ``arrays_for`` / ``object_columns_for`` / ``tree_arrays_for``)
  flowing into a payload;
* ``PB203`` bound method (``self.x`` / instance attribute) used as a
  pool function — its pickle drags the whole instance through the pipe.

The analysis is deliberately shallow (single-function dataflow over
literal payloads); it proves presence of a violation, never absence.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..engine import Checker, Finding, ModuleInfo, call_name, const_str, walk_scope

__all__ = ["PoolBoundaryChecker", "COW_ONLY_TYPES", "PAYLOAD_KINDS"]

#: Types (and their lazy factories) that must stay behind the fork:
#: workers receive them via copy-on-write memory, never via pickle.
COW_ONLY_TYPES = frozenset({
    "Dataset", "DatasetArrays", "ObjectColumns", "TreeArrays", "PageStore",
    "arrays_for", "object_columns_for", "tree_arrays_for",
})

#: First elements of execute_shard_payload work-item tuples.
PAYLOAD_KINDS = frozenset({"refine", "select", "indexed_search"})

#: Attribute calls that submit work (and their argument roles).
_SUBMIT_METHODS = frozenset({
    "map", "map_async", "starmap", "starmap_async",
    "imap", "imap_unordered", "apply", "apply_async",
})

#: Submit methods whose FIRST argument is a function shipped by pickle
#: (reference for module-level names, by value for anything bound).
_FUNC_FIRST = frozenset({
    "map", "map_async", "starmap", "starmap_async",
    "imap", "imap_unordered", "apply", "apply_async",
})


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
    """Flag unpicklable / COW-only state at fork-pool boundaries."""

    name = "pool-boundary"
    description = (
        "lambdas, closures, bound methods and COW-only types must not "
        "cross the PersistentWorkerPool / scatter-payload boundary"
    )
    codes = (
        ("PB201", "lambda or local function crosses the fork boundary"),
        ("PB202", "COW-only type shipped through a pool payload"),
        ("PB203", "bound method used as a pool function"),
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(scope, module)
        # Module-level payload tuples (rare, but fixtures use them).
        yield from self._check_scope(module.tree, module, top_level=True)

    # ------------------------------------------------------------------
    def _check_scope(
        self, scope: ast.AST, module: ModuleInfo, top_level: bool = False
    ) -> Iterator[Finding]:
        # walk_scope(skip_nested=True): nested defs get their own
        # _check_scope visit from check(); don't double-report their
        # bodies from the enclosing scope.
        tainted = self._tainted_names(scope)
        local_funcs = self._local_functions(scope) if not top_level else set()
        payload_seen: Set[int] = set()
        for node in walk_scope(scope, skip_nested=True):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, module, tainted, local_funcs)
                if self._is_boundary_call(node):
                    # Payload tuples inside a boundary call were just
                    # scanned; don't report them a second time below.
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Tuple):
                            payload_seen.add(id(sub))
            elif (
                isinstance(node, ast.Tuple)
                and id(node) not in payload_seen
                and self._is_payload_tuple(node)
            ):
                yield from self._scan_expr(
                    node, module, tainted, local_funcs,
                    site="scatter payload",
                )

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

    @staticmethod
    def _local_functions(scope: ast.AST) -> Set[str]:
        """Functions defined inside this (function) scope: closures."""
        return {
            node.name
            for node in ast.walk(scope)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not scope
        }

    @staticmethod
    def _is_payload_tuple(node: ast.Tuple) -> bool:
        if not node.elts:
            return False
        return const_str(node.elts[0]) in PAYLOAD_KINDS

    @staticmethod
    def _is_boundary_call(node: ast.Call) -> bool:
        func = node.func
        if call_name(func).rsplit(".", 1)[-1] == "Pool":
            return any(kw.arg in ("initializer", "initargs") for kw in node.keywords)
        return isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS

    # ------------------------------------------------------------------
    def _check_call(
        self,
        node: ast.Call,
        module: ModuleInfo,
        tainted: Dict[str, str],
        local_funcs: Set[str],
    ) -> Iterator[Finding]:
        func = node.func
        # Pool construction: initializer / initargs keywords.
        if isinstance(func, (ast.Name, ast.Attribute)) and \
                call_name(func).rsplit(".", 1)[-1] == "Pool":
            for kw in node.keywords:
                if kw.arg in ("initializer", "initargs"):
                    yield from self._scan_expr(
                        kw.value, module, tainted, local_funcs,
                        site=f"Pool {kw.arg}",
                        func_position=(kw.arg == "initializer"),
                    )
            return
        if not isinstance(func, ast.Attribute) or func.attr not in _SUBMIT_METHODS:
            return
        # `map`-family on arbitrary objects would over-match the
        # builtin; only attribute calls reach here, and in this codebase
        # every `.map`-style attribute is a pool.  The repo-specific
        # trade-off is intended.
        args = list(node.args)
        if func.attr in _FUNC_FIRST and args:
            yield from self._scan_expr(
                args[0], module, tainted, local_funcs,
                site=f"{func.attr}() function", func_position=True,
            )
            args = args[1:]
        for arg in args:
            yield from self._scan_expr(
                arg, module, tainted, local_funcs,
                site=f"{func.attr}() payload",
            )

    def _scan_expr(
        self,
        node: ast.expr,
        module: ModuleInfo,
        tainted: Dict[str, str],
        local_funcs: Set[str],
        site: str,
        func_position: bool = False,
    ) -> Iterator[Finding]:
        """Flag violations anywhere inside one boundary expression."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                yield self.finding(
                    "PB201",
                    f"lambda in {site}: lambdas cannot be pickled across "
                    f"the fork-pool pipe",
                    module, sub.lineno,
                )
            elif isinstance(sub, ast.Name):
                if sub.id in local_funcs:
                    yield self.finding(
                        "PB201",
                        f"locally-defined function {sub.id!r} in {site}: "
                        f"closures cannot be pickled; hoist it to module "
                        f"level",
                        module, sub.lineno,
                    )
                elif sub.id in tainted:
                    yield self.finding(
                        "PB202",
                        f"{sub.id!r} (a {tainted[sub.id]}) in {site}: "
                        f"COW-only state must be inherited at fork time, "
                        f"never shipped through the pool pipe (PR 3 "
                        f"token-registry discipline)",
                        module, sub.lineno,
                    )
            elif isinstance(sub, ast.Call):
                origin = _cow_origin(call_name(sub.func))
                if origin:
                    yield self.finding(
                        "PB202",
                        f"{call_name(sub.func)}(...) constructed inside "
                        f"{site}: {origin} must stay behind the fork "
                        f"boundary (workers inherit it via copy-on-write)",
                        module, sub.lineno,
                    )
        if func_position and isinstance(node, ast.Attribute):
            yield self.finding(
                "PB203",
                f"bound method {call_name(node)!r} as {site}: pickling a "
                f"bound method drags its whole instance through the pipe; "
                f"use a module-level function plus the worker registry",
                module, node.lineno,
            )
