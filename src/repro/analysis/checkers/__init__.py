"""The five repo-specific checker families.

``ALL_CHECKERS`` is the ordered default set ``repro lint`` runs;
:func:`checkers_for` resolves ``--rule`` selections (family names or
individual rule codes) to checker instances.
"""

from __future__ import annotations

from typing import List, Sequence

from ..engine import Checker, LintUsageError
from .async_blocking import AsyncBlockingChecker
from .kernel_identity import KernelIdentityChecker
from .pool_boundary import PoolBoundaryChecker
from .shm_payload import ShmPayloadChecker
from .transport import TransportChecker

__all__ = [
    "ALL_CHECKERS",
    "checkers_for",
    "PoolBoundaryChecker",
    "KernelIdentityChecker",
    "AsyncBlockingChecker",
    "ShmPayloadChecker",
    "TransportChecker",
]

#: Default families, in report order.
ALL_CHECKERS = (
    PoolBoundaryChecker,
    KernelIdentityChecker,
    AsyncBlockingChecker,
    ShmPayloadChecker,
    TransportChecker,
)


def checkers_for(rules: Sequence[str]) -> List[Checker]:
    """Instantiate the checkers selected by ``--rule`` tokens.

    Each token may be a family name (``pool-boundary``) or one of its
    rule codes (``PB202`` selects the whole family — suppression, not
    selection, is per-code).  No tokens means every family.
    """
    if not rules:
        return [cls() for cls in ALL_CHECKERS]
    selected: List[Checker] = []
    for cls in ALL_CHECKERS:
        codes = {code for code, _ in cls.codes}
        if any(token == cls.name or token in codes for token in rules):
            selected.append(cls())
    known = {cls.name for cls in ALL_CHECKERS} | {
        code for cls in ALL_CHECKERS for code, _ in cls.codes
    }
    unknown = [token for token in rules if token not in known]
    if unknown:
        names = ", ".join(cls.name for cls in ALL_CHECKERS)
        raise LintUsageError(
            f"unknown rule(s): {', '.join(sorted(unknown))} "
            f"(families: {names})"
        )
    return selected
