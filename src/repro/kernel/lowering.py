"""Lowering: the one step that puts a query on the columnar kernel.

A query runs on the kernel it holds.  :func:`lower` compiles a query
(an :class:`~repro.core.interpretation.Interpretation` kernel plus a
query event) and its start database to a :class:`CompiledKernel`, a
:class:`CompiledEvent` and an interned :class:`ColumnarDatabase`; every
evaluator then runs the lowered pair as given, with answers and seeded
draws identical to the interpreter's.  Callers lower where a request
is read: the service session (once per session, for every forever
request not asking for ``backend: frozenset`` and for ``backend:
columnar`` inflationary ones), ``repro chain`` (unless ``--backend
frozenset``) and library callers that want the speed.

A program the kernel cannot express — attached pc-tables, opaque
:class:`~repro.relational.predicates.RowPredicate` selections, foreign
event types; the static analyzer flags these as ``PH005`` — stays on
the interpreter: each lowering attempt records why on the run context
and in the process-wide counter the service exports as
``repro_kernel_fallback_total``, and returns its inputs (a session
makes one attempt).

A lowered query is an ordinary query everywhere else: its kernel and
event pickle (they recompile against their symbol table on load), and
:func:`source_query` / :func:`source_database` give back the program
and states a checkpoint fingerprints and serialises.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.kernel.columnar import ColumnarDatabase, extern_database, intern_database
from repro.kernel.compile import (
    CompiledEvent,
    CompiledKernel,
    KernelCompileError,
    compile_event,
    compile_kernel,
    compile_query,
)
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.context import RunContext

__all__ = [
    "lower",
    "lower_kernel",
    "lowered",
    "source_query",
    "source_database",
    "state_of",
    "record_fallback",
    "fallback_total",
    "fallback_reasons",
]

_fallback_lock = threading.Lock()
_fallback_total = 0
_fallback_reasons: dict[str, int] = {}


def record_fallback(reason: str, context: "RunContext | None" = None) -> None:
    """Count one program kept on the interpreter (and note it on the run)."""
    global _fallback_total
    with _fallback_lock:
        _fallback_total += 1
        _fallback_reasons[reason] = _fallback_reasons.get(reason, 0) + 1
    if context is not None:
        context.record_event(f"columnar backend fallback: {reason}")


def fallback_total() -> int:
    """Process-wide count of lowerings that kept the interpreter."""
    return _fallback_total


def fallback_reasons() -> dict[str, int]:
    """Fallback counts grouped by reason."""
    with _fallback_lock:
        return dict(_fallback_reasons)


def lowered(query) -> bool:
    """Whether ``query`` runs on the columnar kernel."""
    return isinstance(query.kernel, CompiledKernel)


def lower(query, initial, context: "RunContext | None" = None):
    """``(query, initial)`` on the columnar kernel.

    Returns a query of the same class (inflationary guards keep
    working) whose kernel and event are compiled, and the interned
    start state.  A query already lowered comes back as given; one
    whose kernel is already compiled (an
    :class:`~repro.service.EngineSession` compiles its kernel once)
    compiles its event only.  When the program cannot lower, the reason
    is recorded once and the source pair comes back.

    Examples
    --------
    >>> from repro.workloads import cycle_graph, random_walk_query
    >>> query, db = random_walk_query(cycle_graph(4), "n0", "n2")
    >>> query, db = lower(query, db)
    >>> lowered(query), type(db).__name__
    (True, 'ColumnarDatabase')
    """
    kernel, event = query.kernel, query.event
    if isinstance(event, CompiledEvent):
        return query, initial
    try:
        if isinstance(kernel, CompiledKernel):
            return query.__class__(kernel, compile_event(event, kernel)), initial
        compiled = compile_query(query, initial)
    except KernelCompileError as error:
        record_fallback(str(error), context)
        return source_query(query), source_database(initial)
    return compiled.query, compiled.initial


def lower_kernel(kernel, initial, context: "RunContext | None" = None):
    """``(kernel, initial)`` on the columnar kernel, event-agnostically:
    a session compiles its kernel once for every event, and ``repro
    chain`` has none.  A kernel that cannot lower comes back as given,
    with the reason recorded."""
    try:
        return compile_kernel(kernel, initial)
    except KernelCompileError as error:
        record_fallback(str(error), context)
        return kernel, initial


def source_query(query):
    """The interpreter's query a (possibly) lowered query came from."""
    kernel, event = query.kernel, query.event
    if not isinstance(kernel, CompiledKernel) and not isinstance(event, CompiledEvent):
        return query
    if isinstance(kernel, CompiledKernel):
        kernel = kernel.interpretation
    if isinstance(event, CompiledEvent):
        event = event.source
    return query.__class__(kernel, event)


def source_database(state: Any) -> Database:
    """A start or walker state as the interpreter's :class:`Database`."""
    if isinstance(state, ColumnarDatabase):
        return extern_database(state)
    return state


def state_of(kernel, database: Database):
    """``database`` as a state of ``kernel``: interned into a compiled
    kernel's symbol table, as given for the interpreter."""
    if isinstance(kernel, CompiledKernel):
        return intern_database(database, kernel.table)
    return database
