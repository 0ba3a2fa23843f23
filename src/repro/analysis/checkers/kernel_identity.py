"""``kernel-identity``: bitwise-identity kernels ban re-associating ops.

The PR 3 exactness convention (documented on
:class:`~repro.core.kernels.TreeArrays` and
:class:`~repro.core.kernels.CandidatePoolArrays`): every numpy kernel
that feeds a *decision* — priority-queue order, pruning, pool
admission, ``RSk`` bounds — must be **bitwise identical** to the scalar
reference, not merely close.  That only holds when

* floating-point sums keep the scalar association order (ascending
  term ids, strictly left to right) — numpy's pairwise ``sum``,
  ``einsum``/``dot``/``matmul`` reductions and ``np.add.reduceat``
  (which re-associates long segments) all break it;
* every spatial expression uses only correctly-rounded IEEE-754 ops
  written exactly as the scalar metric writes them — ``hypot`` (libm)
  is *not* correctly rounded and differs from ``sqrt(dx*dx + dy*dy)``
  in the last ulp across platforms;
* no compensated summation sneaks in — ``math.fsum`` is *more*
  accurate than the scalar ``total += w`` loop, which is exactly the
  problem.

This checker enforces the convention inside the identity-kernel
functions: a configurable allowlist of function names
(:data:`IDENTITY_FUNCTIONS`, matched in any module) plus any function
whose ``def`` line carries a ``# repro: identity-kernel`` marker.

Rules
-----
* ``KI301`` non-correctly-rounded / compensated op (``hypot``,
  ``fsum``) inside an identity kernel;
* ``KI302`` sum-order-changing reduction (``.sum``/``np.sum``,
  ``einsum``, ``dot``, ``matmul``, ``@``, ``reduceat``, ``nansum``,
  ``prod``) inside an identity kernel.

Python's builtin ``sum(...)`` stays legal — it accumulates strictly
left to right, which is the scalar reference's own association order.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, Iterator, Optional

from ..engine import Checker, Finding, ModuleInfo, call_name

__all__ = ["KernelIdentityChecker", "IDENTITY_FUNCTIONS"]

#: Default allowlist: the decision/bound kernels of core/kernels.py
#: whose docstrings promise bitwise identity with the oracle,
#: and the pair kernel whose floats Algorithm 2 *returns* (the
#: guard-banded ``candidate_score_matrix`` beside it stays outside: its
#: BLAS product is the point).
IDENTITY_FUNCTIONS = frozenset({
    "_pairwise_norm",
    "_masked_segment_sums",
    "frontier_bounds",
    "node_lower_bounds",
    "node_rsk",
    "weights_of",
    "sts_pairs",
})

#: Opt-in marker for new identity kernels outside the allowlist.
_MARKER_RE = re.compile(r"#\s*repro:\s*identity-kernel")

#: KI301: not correctly rounded / compensated — can never appear in a
#: bitwise-identity kernel, whatever the shape of the computation.
_BANNED_EXACTNESS = frozenset({"hypot", "fsum"})

#: KI302: reductions that re-associate floating-point sums.
_BANNED_REDUCTIONS = frozenset({
    "sum", "nansum", "einsum", "dot", "matmul", "inner", "vdot",
    "reduceat", "prod", "nanprod",
})


class KernelIdentityChecker(Checker):
    """Ban re-associating / non-correctly-rounded ops in decision kernels."""

    name = "kernel-identity"
    description = (
        "bitwise-identity kernels must not use hypot/fsum or "
        "sum-order-changing reductions (PR 3 exactness convention)"
    )
    codes = (
        ("KI301", "non-correctly-rounded or compensated floating op"),
        ("KI302", "sum-order-changing reduction"),
    )

    def __init__(self, functions: Optional[FrozenSet[str]] = None) -> None:
        self.functions = IDENTITY_FUNCTIONS if functions is None else functions

    def cache_key(self) -> str:
        return f"{self.name}({','.join(sorted(self.functions))})"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and self._is_identity_kernel(node, module):
                yield from self._check_kernel(node, module)

    def _is_identity_kernel(self, node: ast.AST, module: ModuleInfo) -> bool:
        if node.name in self.functions:
            return True
        return bool(_MARKER_RE.search(module.line_text(node.lineno)))

    def _check_kernel(self, func: ast.AST, module: ModuleInfo) -> Iterator[Finding]:
        kernel = func.name
        # Nested helpers run inside the kernel's contract too — do NOT
        # skip nested defs here (unlike the scoped checkers).
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                tail = call_name(node.func).rsplit(".", 1)[-1]
                if tail in _BANNED_EXACTNESS:
                    yield self.finding(
                        "KI301",
                        f"{call_name(node.func)}() in identity kernel "
                        f"{kernel!r}: {self._why_exactness(tail)}",
                        module, node.lineno,
                    )
                elif (
                    tail in _BANNED_REDUCTIONS
                    and isinstance(node.func, ast.Attribute)
                ):
                    # Attribute calls only: builtin sum(...) accumulates
                    # strictly left to right and stays legal.
                    yield self.finding(
                        "KI302",
                        f"{call_name(node.func)}() in identity kernel "
                        f"{kernel!r}: numpy reductions re-associate "
                        f"floating-point sums (pairwise/blocked), so the "
                        f"result can differ from the scalar left-to-right "
                        f"accumulation in the last ulp — sum in scalar "
                        f"order instead (see _masked_segment_sums)",
                        module, node.lineno,
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.finding(
                    "KI302",
                    f"matrix product (@) in identity kernel {kernel!r}: "
                    f"BLAS-backed reductions re-associate floating-point "
                    f"sums; accumulate in scalar order instead",
                    module, node.lineno,
                )

    @staticmethod
    def _why_exactness(name: str) -> str:
        if name == "hypot":
            return (
                "libm hypot is not correctly rounded and differs from "
                "sqrt(dx*dx + dy*dy) in the last ulp across platforms; "
                "write the expression exactly as the scalar metric does"
            )
        return (
            "fsum's compensated summation is *more* accurate than the "
            "scalar total += w loop, so decisions can flip near "
            "thresholds; accumulate exactly like the scalar reference"
        )
