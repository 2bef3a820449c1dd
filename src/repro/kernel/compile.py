"""Lower prepared programs to columnar execution plans.

:func:`compile_query` takes a parsed query (kernel + event) and its
initial database and produces:

* one per-session :class:`~repro.kernel.symbols.SymbolTable` holding the
  closed value universe (database active domain ∪ program constants ∪
  event values);
* the interned initial state (:class:`ColumnarDatabase`);
* a :class:`CompiledKernel` that duck-types
  :class:`~repro.core.interpretation.Interpretation`'s evaluator-facing
  interface (``sample_transition`` / ``transition`` / ``check_schema`` /
  ``cached`` / ...), so every existing evaluator — MCMC walker, chain
  builder, fixpoint sampler, transition cache — runs on columnar states
  without modification;
* a :class:`CompiledEvent` duck-typing ``QueryEvent.holds``.

Compilation is static: schemas are validated once, every constant is
interned up front, predicate masks and join layouts are fixed per node.
Programs the kernel cannot express (attached pc-tables, opaque
``RowPredicate`` selections, foreign event types) raise
:class:`KernelCompileError`; :func:`repro.kernel.lowering.lower` then
keeps the query on the frozenset interpreter and reports the fallback
(PH005 hint + ``repro_kernel_fallback_total`` metric).

Compiled plans hold closures, so a compiled kernel or event pickles as
its source plus its symbol table and recompiles against that table on
load: a lowered query crosses process boundaries as it is.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.events import (
    AndEvent,
    ExpressionEvent,
    NotEvent,
    OrEvent,
    QueryEvent,
    RelationNonEmpty,
    TupleIn,
)
from repro.core.queries import ForeverQuery
from repro.errors import ReproError, SchemaError
from repro.kernel import ops
from repro.kernel.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    intern_database,
)
from repro.kernel.repair import repair_distribution_columnar, sample_repair_columnar
from repro.kernel.symbols import SymbolTable
from repro.probability.distribution import Distribution
from repro.relational import algebra
from repro.relational import predicates as preds
from repro.relational.algebra import Expression
from repro.relational.database import Database

__all__ = [
    "KernelCompileError",
    "OpTimings",
    "CompiledKernel",
    "CompiledEvent",
    "CompiledQuery",
    "compile_kernel",
    "compile_event",
    "compile_query",
    "kernel_ineligibility",
]


class KernelCompileError(ReproError):
    """The program cannot be lowered to the columnar kernel."""


class OpTimings:
    """Cumulative per-operator wall-clock accounting for one kernel."""

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[str, list] = {}

    def record(self, op: str, seconds: float) -> None:
        entry = self._data.get(op)
        if entry is None:
            self._data[op] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            op: {"calls": calls, "seconds": seconds}
            for op, (calls, seconds) in sorted(self._data.items())
        }

    def reset(self) -> None:
        self._data.clear()


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

_VECTOR_PREDICATES = (
    preds.TruePredicate,
    preds.ColumnEq,
    preds.ValueEq,
    preds.ValueNe,
)

_SUPPORTED_NODES = (
    algebra.RelationRef,
    algebra.Literal,
    algebra.Select,
    algebra.Project,
    algebra.Rename,
    algebra.ExtendedProject,
    algebra.Union,
    algebra.Difference,
    algebra.Product,
    algebra.NaturalJoin,
    algebra.RepairKey,
)


def _predicate_reasons(predicate: preds.Predicate) -> list[str]:
    if isinstance(predicate, (preds.AndPredicate, preds.OrPredicate)):
        return _predicate_reasons(predicate.left) + _predicate_reasons(predicate.right)
    if isinstance(predicate, preds.NotPredicate):
        return _predicate_reasons(predicate.inner)
    if isinstance(predicate, _VECTOR_PREDICATES):
        return []
    return [f"selection predicate {predicate!r} has no vectorized form"]


def _expression_reasons(expr: Expression) -> list[str]:
    reasons: list[str] = []
    if not isinstance(expr, _SUPPORTED_NODES):
        return [f"expression node {type(expr).__name__} is not kernel-lowerable"]
    if isinstance(expr, algebra.Select):
        reasons.extend(_predicate_reasons(expr.predicate))
    for child in expr.children():
        reasons.extend(_expression_reasons(child))
    return reasons


def _event_reasons(event: QueryEvent) -> list[str]:
    if isinstance(event, (AndEvent, OrEvent)):
        return _event_reasons(event.left) + _event_reasons(event.right)
    if isinstance(event, NotEvent):
        return _event_reasons(event.inner)
    if isinstance(event, (TupleIn, RelationNonEmpty)):
        return []
    if isinstance(event, ExpressionEvent):
        return _expression_reasons(event.expression)
    return [f"event type {type(event).__name__} is not kernel-lowerable"]


def kernel_ineligibility(kernel, event: QueryEvent | None = None) -> list[str]:
    """Why a program cannot run on the columnar backend ([] = eligible)."""
    reasons: list[str] = []
    if getattr(kernel, "pc_tables", None) is not None:
        reasons.append("pc-tables are instantiated per sample and stay on the frozenset path")
    for name in sorted(kernel.queries):
        for reason in _expression_reasons(kernel.queries[name]):
            reasons.append(f"{name}: {reason}")
    if event is not None:
        reasons.extend(_event_reasons(event))
    return reasons


# ---------------------------------------------------------------------------
# Constant collection
# ---------------------------------------------------------------------------


def _predicate_constants(predicate: preds.Predicate, out: set) -> None:
    if isinstance(predicate, (preds.ValueEq, preds.ValueNe)):
        out.add(predicate.value)
    elif isinstance(predicate, (preds.AndPredicate, preds.OrPredicate)):
        _predicate_constants(predicate.left, out)
        _predicate_constants(predicate.right, out)
    elif isinstance(predicate, preds.NotPredicate):
        _predicate_constants(predicate.inner, out)


def _expression_constants(expr: Expression, out: set) -> None:
    if isinstance(expr, algebra.Literal):
        out.update(expr.relation.active_domain())
    elif isinstance(expr, algebra.Select):
        _predicate_constants(expr.predicate, out)
    elif isinstance(expr, algebra.ExtendedProject):
        for _name, (kind, value) in expr.outputs:
            if kind == "const":
                out.add(value)
    for child in expr.children():
        _expression_constants(child, out)


def _event_constants(event: QueryEvent, out: set) -> None:
    if isinstance(event, TupleIn):
        out.update(event.row)
    elif isinstance(event, ExpressionEvent):
        _expression_constants(event.expression, out)
    elif isinstance(event, (AndEvent, OrEvent)):
        _event_constants(event.left, out)
        _event_constants(event.right, out)
    elif isinstance(event, NotEvent):
        _event_constants(event.inner, out)


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class _Node:
    """One compiled operator; ``columns`` is the static output schema."""

    __slots__ = ("columns", "deterministic", "table", "timings")
    op = "?"

    def __init__(self, columns: tuple[str, ...], table: SymbolTable, timings: OpTimings):
        self.columns = columns
        self.table = table
        self.timings = timings
        self.deterministic = True

    # Deterministic evaluation; only called when self.deterministic.
    def evaluate(self, db: ColumnarDatabase) -> ColumnarRelation:
        raise NotImplementedError

    def sample(self, db: ColumnarDatabase, rng: random.Random) -> ColumnarRelation:
        """Mirror of :func:`prob_eval.sample_world`: deterministic
        subtrees consume no randomness."""
        if self.deterministic:
            return self.evaluate(db)
        return self._sample(db, rng)

    def _sample(self, db: ColumnarDatabase, rng: random.Random) -> ColumnarRelation:
        raise NotImplementedError

    def enumerate(self, db: ColumnarDatabase) -> Distribution[ColumnarRelation]:
        """Mirror of :func:`prob_eval.enumerate_worlds`."""
        if self.deterministic:
            return Distribution.point(self.evaluate(db))
        return self._enumerate(db)

    def _enumerate(self, db: ColumnarDatabase) -> Distribution[ColumnarRelation]:
        raise NotImplementedError


class _RefNode(_Node):
    op = "ref"
    __slots__ = ("name",)

    def __init__(self, name, columns, table, timings):
        super().__init__(columns, table, timings)
        self.name = name

    def evaluate(self, db):
        return db[self.name]


class _LitNode(_Node):
    op = "literal"
    __slots__ = ("relation",)

    def __init__(self, relation, table, timings):
        super().__init__(relation.columns, table, timings)
        self.relation = relation

    def evaluate(self, db):
        return self.relation


class _UnaryNode(_Node):
    __slots__ = ("child",)

    def __init__(self, child, columns, table, timings):
        super().__init__(columns, table, timings)
        self.child = child
        self.deterministic = child.deterministic

    def apply(self, relation: ColumnarRelation) -> ColumnarRelation:
        start = time.perf_counter()
        out = self._apply(relation)
        self.timings.record(self.op, time.perf_counter() - start)
        return out

    def _apply(self, relation: ColumnarRelation) -> ColumnarRelation:
        raise NotImplementedError

    def evaluate(self, db):
        return self.apply(self.child.evaluate(db))

    def _sample(self, db, rng):
        return self.apply(self.child.sample(db, rng))

    def _enumerate(self, db):
        return self.child.enumerate(db).map(self.apply)


class _BinaryNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right, columns, table, timings):
        super().__init__(columns, table, timings)
        self.left = left
        self.right = right
        self.deterministic = left.deterministic and right.deterministic

    def apply(self, left: ColumnarRelation, right: ColumnarRelation) -> ColumnarRelation:
        start = time.perf_counter()
        out = self._apply(left, right)
        self.timings.record(self.op, time.perf_counter() - start)
        return out

    def _apply(self, left, right):
        raise NotImplementedError

    def evaluate(self, db):
        return self.apply(self.left.evaluate(db), self.right.evaluate(db))

    def _sample(self, db, rng):
        # Left before right: the frozenset sampler recurses in this
        # order, and RNG draws must interleave identically.
        left = self.left.sample(db, rng)
        right = self.right.sample(db, rng)
        return self.apply(left, right)

    def _enumerate(self, db):
        pairs = self.left.enumerate(db).product(self.right.enumerate(db))
        return pairs.map(lambda pair: self.apply(pair[0], pair[1]))


class _SelectNode(_UnaryNode):
    op = "select"
    __slots__ = ("mask_fn",)

    def __init__(self, child, mask_fn, table, timings):
        super().__init__(child, child.columns, table, timings)
        self.mask_fn = mask_fn

    def _apply(self, relation):
        if len(relation) == 0:
            return relation
        mask = self.mask_fn(relation.data)
        # A subset of a normalized array stays normalized.
        return ColumnarRelation(self.columns, relation.data[mask], normalized=True)


class _ProjectNode(_UnaryNode):
    op = "project"
    __slots__ = ("indices",)

    def __init__(self, child, columns, indices, table, timings):
        super().__init__(child, columns, table, timings)
        self.indices = indices

    def _apply(self, relation):
        return ColumnarRelation(
            self.columns, ops.project(relation.data, self.indices), normalized=True
        )


class _RenameNode(_UnaryNode):
    op = "rename"
    __slots__ = ()

    def _apply(self, relation):
        return ColumnarRelation(self.columns, relation.data, normalized=True)


class _ExtendedProjectNode(_UnaryNode):
    op = "extended-project"
    __slots__ = ("sources",)

    def __init__(self, child, columns, sources, table, timings):
        # sources: list of ("col", index) | ("const", symbol_id)
        super().__init__(child, columns, table, timings)
        self.sources = sources

    def _apply(self, relation):
        n = len(relation)
        parts = []
        for kind, value in self.sources:
            if kind == "col":
                parts.append(relation.data[:, value])
            else:
                parts.append(np.full(n, value, dtype=np.int64))
        if parts:
            data = np.stack(parts, axis=1)
        else:
            data = np.empty((n, 0), dtype=np.int64)
        return ColumnarRelation(self.columns, data)


class _UnionNode(_BinaryNode):
    op = "union"
    __slots__ = ()

    def _apply(self, left, right):
        return ColumnarRelation(
            self.columns,
            ops.union(left.data, right.data, len(self.table)),
            normalized=True,
        )


class _DifferenceNode(_BinaryNode):
    op = "difference"
    __slots__ = ()

    def _apply(self, left, right):
        return ColumnarRelation(
            self.columns,
            ops.difference(left.data, right.data, len(self.table)),
            normalized=True,
        )


class _ProductNode(_BinaryNode):
    op = "product"
    __slots__ = ()

    def _apply(self, left, right):
        return ColumnarRelation(
            self.columns, ops.product(left.data, right.data), normalized=True
        )


class _JoinNode(_BinaryNode):
    op = "join"
    __slots__ = ("left_shared", "right_shared", "right_keep")

    def __init__(self, left, right, columns, table, timings):
        super().__init__(left, right, columns, table, timings)
        shared = [c for c in left.columns if c in right.columns]
        self.left_shared = [left.columns.index(c) for c in shared]
        self.right_shared = [right.columns.index(c) for c in shared]
        self.right_keep = [
            i for i, c in enumerate(right.columns) if c not in left.columns
        ]

    def _apply(self, left, right):
        if not self.left_shared:
            data = ops.product(left.data, right.data)
            return ColumnarRelation(self.columns, data, normalized=True)
        data = ops.natural_join(
            left.data,
            self.left_shared,
            right.data,
            self.right_shared,
            self.right_keep,
            len(self.table),
        )
        return ColumnarRelation(self.columns, data)


class _RepairNode(_UnaryNode):
    op = "repair-key"
    __slots__ = ("key", "weight")

    def __init__(self, child, key, weight, table, timings):
        super().__init__(child, child.columns, table, timings)
        self.key = key
        self.weight = weight
        self.deterministic = False

    def _sample(self, db, rng):
        child = self.child.sample(db, rng)
        start = time.perf_counter()
        out = sample_repair_columnar(child, self.table, rng, self.key, self.weight)
        self.timings.record(self.op, time.perf_counter() - start)
        return out

    def _enumerate(self, db):
        child = self.child.enumerate(db)
        return child.bind(
            lambda relation: repair_distribution_columnar(
                relation, self.table, self.key, self.weight
            )
        )


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def _compile_predicate(
    predicate: preds.Predicate, columns: tuple[str, ...], table: SymbolTable
) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(predicate, preds.TruePredicate):
        return lambda data: np.ones(data.shape[0], dtype=bool)
    if isinstance(predicate, preds.ColumnEq):
        li, ri = columns.index(predicate.left), columns.index(predicate.right)
        return lambda data: data[:, li] == data[:, ri]
    if isinstance(predicate, (preds.ValueEq, preds.ValueNe)):
        idx = columns.index(predicate.column)
        symbol = table.id_of(predicate.value)
        negate = isinstance(predicate, preds.ValueNe)
        if symbol is None:
            # Constant not interned (yet): re-resolve per call, since a
            # dynamic intern (footnote-1 weight sum) can introduce it.
            value = predicate.value

            def late_mask(data: np.ndarray) -> np.ndarray:
                resolved = table.id_of(value)
                if resolved is None:
                    hits = np.zeros(data.shape[0], dtype=bool)
                else:
                    hits = data[:, idx] == resolved
                return ~hits if negate else hits

            return late_mask
        if negate:
            return lambda data: data[:, idx] != symbol
        return lambda data: data[:, idx] == symbol
    if isinstance(predicate, preds.AndPredicate):
        left = _compile_predicate(predicate.left, columns, table)
        right = _compile_predicate(predicate.right, columns, table)
        return lambda data: left(data) & right(data)
    if isinstance(predicate, preds.OrPredicate):
        left = _compile_predicate(predicate.left, columns, table)
        right = _compile_predicate(predicate.right, columns, table)
        return lambda data: left(data) | right(data)
    if isinstance(predicate, preds.NotPredicate):
        inner = _compile_predicate(predicate.inner, columns, table)
        return lambda data: ~inner(data)
    raise KernelCompileError(
        f"selection predicate {predicate!r} has no vectorized form"
    )


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def _compile_expression(
    expr: Expression,
    schema: dict[str, tuple[str, ...]],
    table: SymbolTable,
    timings: OpTimings,
) -> _Node:
    if isinstance(expr, algebra.RelationRef):
        return _RefNode(expr.name, expr.output_columns(schema), table, timings)
    if isinstance(expr, algebra.Literal):
        from repro.kernel.columnar import intern_relation

        return _LitNode(intern_relation(expr.relation, table), table, timings)
    if isinstance(expr, algebra.Select):
        child = _compile_expression(expr.child, schema, table, timings)
        mask_fn = _compile_predicate(expr.predicate, child.columns, table)
        return _SelectNode(child, mask_fn, table, timings)
    if isinstance(expr, algebra.Project):
        child = _compile_expression(expr.child, schema, table, timings)
        indices = [child.columns.index(c) for c in expr.columns]
        return _ProjectNode(child, tuple(expr.columns), indices, table, timings)
    if isinstance(expr, algebra.Rename):
        child = _compile_expression(expr.child, schema, table, timings)
        renamed = tuple(expr.mapping.get(c, c) for c in child.columns)
        node = _RenameNode(child, renamed, table, timings)
        return node
    if isinstance(expr, algebra.ExtendedProject):
        child = _compile_expression(expr.child, schema, table, timings)
        columns = tuple(name for name, _source in expr.outputs)
        sources = []
        for _name, (kind, value) in expr.outputs:
            if kind == "col":
                sources.append(("col", child.columns.index(value)))
            else:
                sources.append(("const", table.intern(value)))
        return _ExtendedProjectNode(child, columns, sources, table, timings)
    if isinstance(expr, algebra.Union):
        left = _compile_expression(expr.left, schema, table, timings)
        right = _compile_expression(expr.right, schema, table, timings)
        return _UnionNode(left, right, left.columns, table, timings)
    if isinstance(expr, algebra.Difference):
        left = _compile_expression(expr.left, schema, table, timings)
        right = _compile_expression(expr.right, schema, table, timings)
        return _DifferenceNode(left, right, left.columns, table, timings)
    if isinstance(expr, algebra.Product):
        left = _compile_expression(expr.left, schema, table, timings)
        right = _compile_expression(expr.right, schema, table, timings)
        return _ProductNode(left, right, left.columns + right.columns, table, timings)
    if isinstance(expr, algebra.NaturalJoin):
        left = _compile_expression(expr.left, schema, table, timings)
        right = _compile_expression(expr.right, schema, table, timings)
        columns = left.columns + tuple(
            c for c in right.columns if c not in left.columns
        )
        return _JoinNode(left, right, columns, table, timings)
    if isinstance(expr, algebra.RepairKey):
        child = _compile_expression(expr.child, schema, table, timings)
        return _RepairNode(child, tuple(expr.key), expr.weight, table, timings)
    raise KernelCompileError(
        f"expression node {type(expr).__name__} is not kernel-lowerable"
    )


# ---------------------------------------------------------------------------
# Compiled events
# ---------------------------------------------------------------------------


class CompiledEvent:
    """Duck-type of :class:`~repro.core.events.QueryEvent` over columnar
    states.

    The event :func:`compile_event` returns also keeps its ``source``
    event and the ``kernel`` it was compiled against: checkpoints
    fingerprint the source, and pickling recompiles from the two.
    """

    source: QueryEvent
    kernel: "CompiledKernel"

    def holds(self, db: ColumnarDatabase) -> bool:
        raise NotImplementedError

    def __call__(self, db: ColumnarDatabase) -> bool:
        return self.holds(db)

    def __reduce__(self):
        return _recompile_event, (self.source, self.kernel)


class _CTupleIn(CompiledEvent):
    __slots__ = ("relation", "values", "table", "row")

    def __init__(self, relation: str, values: tuple, table: SymbolTable):
        self.relation = relation
        self.values = values
        self.table = table
        self.row: np.ndarray | None = None

    def _resolve(self) -> np.ndarray | None:
        # Lazy: a value may only become interned by a dynamic intern
        # (footnote-1 weight sum) after compile time.  The table is
        # append-only, so a resolved row stays valid.
        if self.row is None:
            ids = [self.table.id_of(value) for value in self.values]
            if not any(i is None for i in ids):
                self.row = np.asarray(ids, dtype=np.int64)
        return self.row

    def holds(self, db):
        row = self._resolve()
        if self.relation not in db or row is None:
            return False
        data = db[self.relation].data
        if data.shape[0] == 0 or data.shape[1] != row.shape[0]:
            return False
        return bool((data == row).all(axis=1).any())


class _CNonEmpty(CompiledEvent):
    __slots__ = ("relation",)

    def __init__(self, relation: str):
        self.relation = relation

    def holds(self, db):
        return self.relation in db and len(db[self.relation]) > 0


class _CExpression(CompiledEvent):
    __slots__ = ("plan",)

    def __init__(self, plan: _Node):
        self.plan = plan

    def holds(self, db):
        return len(self.plan.evaluate(db)) > 0


class _CBool(CompiledEvent):
    __slots__ = ("kind", "parts")

    def __init__(self, kind: str, parts: tuple[CompiledEvent, ...]):
        self.kind = kind
        self.parts = parts

    def holds(self, db):
        if self.kind == "and":
            return all(part.holds(db) for part in self.parts)
        if self.kind == "or":
            return any(part.holds(db) for part in self.parts)
        return not self.parts[0].holds(db)


def _compile_event(
    event: QueryEvent,
    schema: dict[str, tuple[str, ...]],
    table: SymbolTable,
    timings: OpTimings,
) -> CompiledEvent:
    if isinstance(event, TupleIn):
        return _CTupleIn(event.relation, tuple(event.row), table)
    if isinstance(event, RelationNonEmpty):
        return _CNonEmpty(event.relation)
    if isinstance(event, ExpressionEvent):
        plan = _compile_expression(event.expression, schema, table, timings)
        return _CExpression(plan)
    if isinstance(event, AndEvent):
        return _CBool(
            "and",
            (
                _compile_event(event.left, schema, table, timings),
                _compile_event(event.right, schema, table, timings),
            ),
        )
    if isinstance(event, OrEvent):
        return _CBool(
            "or",
            (
                _compile_event(event.left, schema, table, timings),
                _compile_event(event.right, schema, table, timings),
            ),
        )
    if isinstance(event, NotEvent):
        return _CBool("not", (_compile_event(event.inner, schema, table, timings),))
    raise KernelCompileError(
        f"event type {type(event).__name__} is not kernel-lowerable"
    )


# ---------------------------------------------------------------------------
# Compiled kernel
# ---------------------------------------------------------------------------


class CompiledKernel:
    """Columnar counterpart of one
    :class:`~repro.core.interpretation.Interpretation`.

    Duck-types the evaluator-facing interface over
    :class:`ColumnarDatabase` states; attached pc-tables are a
    compile-time rejection, so ``pc_tables`` is always None here.
    """

    pc_tables = None
    source_spans = None

    def __init__(
        self,
        interpretation,
        table: SymbolTable,
        plans: dict[str, _Node],
        timings: OpTimings,
        schema: dict[str, tuple[str, ...]],
    ):
        self.interpretation = interpretation
        self.queries = interpretation.queries
        self.table = table
        self.plans = plans
        self.timings = timings
        self.schema_map = schema
        self._sorted_names = sorted(plans)

    # -- schema ------------------------------------------------------------

    def pc_relation_names(self) -> list[str]:
        return []

    def updated_relations(self) -> list[str]:
        return list(self._sorted_names)

    def check_schema(self, db: ColumnarDatabase) -> None:
        schema = db.schema()
        for name, plan in self.plans.items():
            if name not in schema:
                raise SchemaError(
                    f"kernel rewrites relation {name!r} missing from the database"
                )
            if plan.columns != schema[name]:
                raise SchemaError(
                    f"query for {name!r} produces columns {plan.columns!r}, "
                    f"but the relation has columns {schema[name]!r}"
                )

    def without_pc_tables(self) -> "CompiledKernel":
        return self

    # -- semantics ---------------------------------------------------------

    def transition(self, db: ColumnarDatabase) -> Distribution[ColumnarDatabase]:
        result: Distribution[ColumnarDatabase] = Distribution.point(db)
        for name in self._sorted_names:
            worlds = self.plans[name].enumerate(db)
            result = result.bind(
                lambda state, name=name, worlds=worlds: worlds.map(
                    lambda relation, name=name, state=state: state.with_relation(
                        name, relation
                    )
                )
            )
        return result

    def sample_transition(
        self, db: ColumnarDatabase, rng: random.Random
    ) -> ColumnarDatabase:
        updates = {
            name: self.plans[name].sample(db, rng) for name in self._sorted_names
        }
        return db.with_relations(updates)

    def cached(self, maxsize: int | None = None):
        from repro.perf.cache import DEFAULT_CACHE_SIZE, TransitionCache

        return TransitionCache(
            self, maxsize=DEFAULT_CACHE_SIZE if maxsize is None else maxsize
        )

    def is_deterministic(self) -> bool:
        return self.interpretation.is_deterministic()

    def op_timings(self) -> dict[str, dict[str, float]]:
        """Cumulative per-operator wall-clock totals since compile (or
        the last reset)."""
        return self.timings.snapshot()

    def __repr__(self) -> str:
        return (
            f"CompiledKernel(queries={self._sorted_names!r}, "
            f"symbols={len(self.table)})"
        )

    def __reduce__(self):
        return _recompile_kernel, (self.interpretation, self.table, self.schema_map)


def _recompile_kernel(interpretation, table: SymbolTable, schema) -> CompiledKernel:
    """Plan ``interpretation`` against an existing symbol table (the
    unpickling half of :meth:`CompiledKernel.__reduce__`)."""
    timings = OpTimings()
    plans = {
        name: _compile_expression(expression, schema, table, timings)
        for name, expression in sorted(interpretation.queries.items())
    }
    return CompiledKernel(interpretation, table, plans, timings, schema)


def _recompile_event(event: QueryEvent, kernel: CompiledKernel) -> CompiledEvent:
    compiled = _compile_event(event, kernel.schema_map, kernel.table, kernel.timings)
    compiled.source, compiled.kernel = event, kernel
    return compiled


class CompiledQuery:
    """The result of :func:`compile_query`: a backend-swapped query plus
    its interned initial state."""

    __slots__ = ("query", "initial", "kernel", "event", "table")

    def __init__(self, query, initial, kernel, event, table):
        self.query = query
        self.initial = initial
        self.kernel = kernel
        self.event = event
        self.table = table

    def op_timings(self) -> dict[str, dict[str, float]]:
        return self.kernel.op_timings()


def compile_kernel(
    kernel, initial: Database, extra_values: Iterable[Any] = ()
) -> tuple[CompiledKernel, ColumnarDatabase]:
    """Lower one transition kernel (an
    :class:`~repro.core.interpretation.Interpretation`) to the columnar
    backend, event-agnostically.

    The symbol universe is the database's active domain plus every
    constant in the program, plus ``extra_values`` (callers that know
    the event up front can pre-intern its values; otherwise unknown
    event constants resolve lazily).  Raises
    :class:`KernelCompileError` when the program is ineligible.
    """
    reasons = kernel_ineligibility(kernel)
    if reasons:
        raise KernelCompileError(
            "program is not kernel-eligible: " + "; ".join(reasons)
        )
    universe: set = set(initial.active_domain())
    for expression in kernel.queries.values():
        _expression_constants(expression, universe)
    universe.update(extra_values)
    table = SymbolTable(universe)
    # Static schema validation, as Interpretation.check_schema does.
    kernel.check_schema(initial)
    compiled = _recompile_kernel(kernel, table, initial.schema())
    return compiled, intern_database(initial, table)


def compile_event(event: QueryEvent, kernel: CompiledKernel) -> CompiledEvent:
    """Compile a query event against an already-compiled kernel.

    Raises :class:`KernelCompileError` for event types the kernel
    cannot express (used by sessions that share one compiled kernel
    across many events).
    """
    reasons = _event_reasons(event)
    if reasons:
        raise KernelCompileError(
            "event is not kernel-eligible: " + "; ".join(reasons)
        )
    return _recompile_event(event, kernel)


def compile_query(query: ForeverQuery, initial: Database) -> CompiledQuery:
    """Lower a prepared query to the columnar backend.

    Returns a :class:`CompiledQuery` whose ``query`` attribute is an
    instance of the *same class* as the input (so inflationary guards
    keep working) with the kernel and event replaced by their compiled
    counterparts, and whose ``initial`` is the interned start state.

    Raises :class:`KernelCompileError` when the program is ineligible.
    """
    reasons = _event_reasons(query.event)
    if reasons:
        raise KernelCompileError(
            "program is not kernel-eligible: " + "; ".join(reasons)
        )
    event_values: set = set()
    _event_constants(query.event, event_values)
    kernel, interned = compile_kernel(query.kernel, initial, event_values)
    event = compile_event(query.event, kernel)
    compiled = query.__class__(kernel, event)
    return CompiledQuery(compiled, interned, kernel, event, kernel.table)
