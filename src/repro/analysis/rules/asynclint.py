"""``blocking-call-in-async``: keep the serve event loop unblocked.

The PR 6 serving layer runs every tenant's protocol handling on one
asyncio event loop.  A single blocking call inside an ``async def`` —
``time.sleep``, a synchronous socket operation, a bare ``select`` —
stalls *every* tenant at once, and nothing crashes: the server just
gets mysteriously slow under load, which is the worst possible failure
mode to debug.  The blocking client in :mod:`repro.serve.client` is
fine (it is synchronous by design); the rule therefore fires only
inside ``async def`` bodies and inside the methods of a class that
defines one: such a class (the server) runs all its methods on its
loop, including the plain ones an ``async def`` calls.

Flagged inside those functions:

* ``time.sleep(...)``, or bare ``sleep(...)`` when the module imported
  it from :mod:`time` (``asyncio.sleep`` is the sanctioned spelling);
* ``select.select(...)``;
* ``socket.create_connection(...)`` / ``socket.socket(...)``;
* blocking socket *methods* (``recv``, ``sendall``, ``accept``, ...)
  on receivers whose name mentions ``sock`` or ``conn`` — scoping by
  receiver name keeps unrelated ``.send()`` methods (generators,
  channels) out of the blast radius.

Genuinely intentional blocking (e.g. a bounded call into a C extension)
is grandfathered per line with ``# repro-lint:
allow[blocking-call-in-async] reason``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lintcore import Finding, LintRule, ModuleInfo

#: Module-level calls that block: (module alias, attribute) pairs.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("select", "select"),
    ("socket", "create_connection"),
    ("socket", "socket"),
}

#: Socket methods that block the calling thread.
_BLOCKING_SOCKET_METHODS = {
    "accept",
    "connect",
    "makefile",
    "recv",
    "recv_into",
    "recvfrom",
    "send",
    "sendall",
    "sendto",
}

#: Receiver-name substrings that mark a variable as a socket/connection.
_SOCKETY_NAMES = ("sock", "conn")


def _loop_function(info: ModuleInfo, node: ast.AST) -> Optional[str]:
    """Describe the nearest enclosing function if it runs on the event
    loop: an ``async def``, or a method of a class that defines one.

    A sync helper nested inside a function runs wherever it is
    *called*, so only the innermost function determines the verdict.
    """
    func = info.enclosing_function(node)
    if isinstance(func, ast.AsyncFunctionDef):
        return f"async function {func.name!r}"
    owner = info.parent(func) if func is not None else None
    if isinstance(owner, ast.ClassDef) and any(
        isinstance(member, ast.AsyncFunctionDef) for member in owner.body
    ):
        return f"method '{owner.name}.{func.name}' of an async class"
    return None


def _receiver_name(node: ast.AST) -> Optional[str]:
    """The dotted-path head name of a call receiver, if it has one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class BlockingCallInAsyncRule(LintRule):
    """Flag blocking sleep/socket/select calls on the event loop."""

    id = "blocking-call-in-async"

    def applies_to(self, info: ModuleInfo) -> bool:
        return "async def" in info.source

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        time_sleep_names = self._bare_sleep_names(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            where = _loop_function(info, node)
            if where is None:
                continue
            blocked = self._blocking_call(node, time_sleep_names)
            if blocked is None:
                continue
            yield self.finding(
                info,
                node,
                f"{blocked} inside {where} blocks "
                "the event loop (and with it every tenant on this "
                "server); use the asyncio equivalent or hand the work "
                "to a thread",
            )

    @staticmethod
    def _bare_sleep_names(tree: ast.Module) -> set[str]:
        """Local names bound to ``time.sleep`` via ``from time import``."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        names.add(alias.asname or alias.name)
        return names

    def _blocking_call(
        self, node: ast.Call, bare_sleep: set[str]
    ) -> Optional[str]:
        """Describe the blocking call, or None if ``node`` is benign."""
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in bare_sleep:
                return f"{func.id}(...) (time.sleep)"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name):
            if (value.id, func.attr) in _BLOCKING_MODULE_CALLS:
                return f"{value.id}.{func.attr}(...)"
        if func.attr in _BLOCKING_SOCKET_METHODS:
            receiver = _receiver_name(value)
            if receiver is not None and any(
                marker in receiver.lower() for marker in _SOCKETY_NAMES
            ):
                return f"{receiver}.{func.attr}(...)"
        return None
