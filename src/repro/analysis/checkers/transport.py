"""``transport``: the socket path has exactly one pickle funnel.

The multi-host scatter transport (:mod:`repro.serve.transport`) puts
every pickled byte behind :class:`~repro.serve.transport.FrameCodec`
(frame bodies) and :class:`~repro.core.payload.PayloadCodec` (scatter
payloads).  That funnel is what makes the wire auditable: protocol
version bumps, size accounting, and the eventual
restricted-unpickler hardening all have a single choke point.  A raw
``pickle.dumps``/``pickle.loads`` sprinkled elsewhere in a networked
module silently forks the wire format — frames that one side frames
and the other side eyeballs — and reopens the classic
unpickle-from-the-network hole one call site at a time.

Rules
-----
* ``TR701`` raw ``pickle.dumps``/``loads``/``dump``/``load`` in a
  module that touches sockets (imports ``socket`` or ``asyncio``)
  outside a ``class FrameCodec`` / ``class PayloadCodec`` body.

Modules that never import ``socket`` or ``asyncio`` are out of scope:
pickling to disk is not a wire format.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import Checker, Finding, ModuleInfo, call_name

__all__ = ["TransportChecker", "PICKLE_FUNNEL_CLASSES"]

#: Class bodies sanctioned to call pickle on the socket path.
PICKLE_FUNNEL_CLASSES = frozenset({"FrameCodec", "PayloadCodec"})

#: ``pickle`` entry points that define a wire format when they appear
#: next to a socket.
_PICKLE_CALLS = frozenset({
    "pickle.dumps", "pickle.loads", "pickle.dump", "pickle.load",
})

#: Imports that put a module on the socket path.
_SOCKET_MODULES = frozenset({"socket", "asyncio"})


class TransportChecker(Checker):
    """Flag out-of-funnel pickle calls in socket-touching modules."""

    name = "transport"
    description = (
        "socket-path modules pickle only through FrameCodec/PayloadCodec; "
        "a raw pickle call next to a socket forks the wire format"
    )
    codes = (
        ("TR701", "raw pickle call on the socket path outside the codec funnels"),
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        if not self._on_socket_path(module.tree):
            return
        exempt = self._funnel_class_calls(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            dotted = call_name(node.func)
            if dotted not in _PICKLE_CALLS:
                continue
            yield self.finding(
                "TR701",
                f"{dotted}(...) on the socket path: frame bodies go "
                f"through FrameCodec.encode_body/decode_body and scatter "
                f"payloads through PayloadCodec — a raw pickle call here "
                f"forks the wire format and bypasses the one place "
                f"protocol versioning and unpickler hardening can live",
                module, node.lineno,
            )

    @staticmethod
    def _on_socket_path(tree: ast.AST) -> bool:
        """True when the module imports ``socket`` or ``asyncio``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] in _SOCKET_MODULES for a in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in _SOCKET_MODULES:
                    return True
        return False

    @staticmethod
    def _funnel_class_calls(tree: ast.AST) -> Set[int]:
        """ids of every Call node inside a sanctioned codec class body."""
        exempt: Set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name in PICKLE_FUNNEL_CLASSES
            ):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        exempt.add(id(sub))
        return exempt
