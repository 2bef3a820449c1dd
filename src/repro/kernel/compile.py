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
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Iterable, Sequence

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
    normalize_rows,
)
from repro.kernel.repair import repair_instances, sample_repair_columnar
from repro.kernel.symbols import SymbolTable
from repro.probability.distribution import Distribution
from repro.relational import algebra
from repro.relational import predicates as preds
from repro.relational.algebra import Expression
from repro.relational.database import Database

__all__ = [
    "KernelCompileError",
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

_ONE = Fraction(1)


class _Batch:
    """The states one :meth:`CompiledKernel.expand` call evaluates.

    ``varying`` names the relations whose object differs between the
    states: a deterministic node that reads none of them is the same for
    every state and is evaluated once, on ``states[0]``.
    """

    __slots__ = ("states", "varying")

    def __init__(self, states: Sequence[ColumnarDatabase], varying: frozenset[str]):
        self.states = states
        self.varying = varying


class _Instances:
    """A plan node's rows over a batch of states.

    An instance is one state of the batch plus one combination of the
    repair-key choices made so far.  ``data`` holds the rows of every
    instance with the instance id in column 0, sorted and unique per
    instance; ``owner[i]`` is the batch index of instance ``i``'s state
    (non-decreasing, every state owns at least one instance) and
    ``weights[i]`` its exact probability.  ``weights`` is None while
    instance ``i`` is state ``i`` itself.
    """

    __slots__ = ("data", "owner", "weights")

    def __init__(
        self, data: np.ndarray, owner: np.ndarray, weights: list[Fraction] | None
    ):
        self.data = data
        self.owner = owner
        self.weights = weights

    def __len__(self) -> int:
        return self.owner.shape[0]


def _states(count: int) -> np.ndarray:
    return np.arange(count, dtype=np.int64)


def _broadcast(rows: np.ndarray, count: int) -> np.ndarray:
    """``rows`` copied into each of ``count`` instances."""
    n = rows.shape[0]
    out = np.zeros((n * count, 1 + rows.shape[1]), dtype=np.int64)
    if count == 1:
        out[:, 1:] = rows
    else:
        out[:, 0] = _states(count).repeat(n)
        out[:, 1:] = np.tile(rows, (count, 1))
    return out


def _gather(data: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The rows of instances ``picks``, those of ``picks[k]`` re-tagged ``k``."""
    tags = data[:, 0]
    lo = tags.searchsorted(picks)
    sizes = tags.searchsorted(picks, side="right") - lo
    index = (lo - sizes.cumsum() + sizes).repeat(sizes)
    out = data[index + np.arange(index.shape[0])]
    out[:, 0] = _states(picks.shape[0]).repeat(sizes)
    return out


def _pair(
    left: _Instances, right: _Instances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Fraction] | None]:
    """Pair both sides' instances of each state, left-major (the order of
    ``Distribution.product``).  Returns both sides' rows re-tagged with
    the pair ids, and the pairs' owners and weights."""
    if right.weights is None:
        return left.data, _gather(right.data, left.owner), left.owner, left.weights
    if left.weights is None:
        return _gather(left.data, right.owner), right.data, right.owner, right.weights
    counts = np.bincount(right.owner)
    reps = counts[left.owner]
    left_pick = _states(len(left)).repeat(reps)
    offsets = np.arange(left_pick.shape[0]) - (reps.cumsum() - reps).repeat(reps)
    right_pick = (counts.cumsum() - counts)[left.owner].repeat(reps) + offsets
    lw, rw = left.weights, right.weights
    weights = [lw[i] * rw[j] for i, j in zip(left_pick.tolist(), right_pick.tolist())]
    return (
        _gather(left.data, left_pick),
        _gather(right.data, right_pick),
        left.owner[left_pick],
        weights,
    )


def _normalized(data: np.ndarray) -> np.ndarray:
    """``normalize_rows`` of instance-tagged rows, skipping rows that are
    already sorted because each instance holds at most one."""
    if data.shape[0] <= 1 or all((data[1:, 0] > data[:-1, 0]).tolist()):
        return data
    return normalize_rows(data)


def _join_index(relation: ColumnarRelation, positions: list[int], universe: int):
    """:func:`ops.join_index` of a relation no query writes, memoised on
    the relation object.  A dynamic intern grows the universe, which
    replaces the entry; racing threads store equal indexes."""
    memo = relation.memo()
    key = tuple(positions)
    entry = memo.get(key)
    if entry is None or entry[0] != universe:
        index = ops.join_index(relation.data, positions, universe)
        entry = memo[key] = (universe, index)
    return entry[1]


class _Node:
    """One compiled operator; ``columns`` is the static output schema and
    ``refs`` the relations its subtree reads."""

    __slots__ = ("columns", "deterministic", "table", "refs")

    def __init__(
        self,
        columns: tuple[str, ...],
        table: SymbolTable,
        refs: frozenset[str] = frozenset(),
    ):
        self.columns = columns
        self.table = table
        self.refs = refs
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

    def rows(self, batch: _Batch) -> ColumnarRelation | _Instances:
        """This node over a batch: one relation when it is the same for
        every state, else the rows of every instance."""
        if self.deterministic and self.refs.isdisjoint(batch.varying):
            return self.evaluate(batch.states[0])
        return self._rows(batch)

    def _rows(self, batch: _Batch) -> _Instances:
        raise NotImplementedError


class _RefNode(_Node):
    __slots__ = ("name", "static")

    def __init__(self, name, columns, table, static=False):
        super().__init__(columns, table, frozenset((name,)))
        self.name = name
        # No query writes the relation, so its object lives as long as
        # the session and may carry memoised indexes.
        self.static = static

    def evaluate(self, db):
        return db[self.name]

    def _rows(self, batch):
        blocks = [state[self.name].data for state in batch.states]
        sizes = [block.shape[0] for block in blocks]
        data = np.empty((sum(sizes), 1 + len(self.columns)), dtype=np.int64)
        data[:, 0] = _states(len(blocks)).repeat(sizes)
        data[:, 1:] = np.concatenate(blocks)
        return _Instances(data, _states(len(blocks)), None)


class _LitNode(_Node):
    __slots__ = ("relation",)

    def __init__(self, relation, table):
        super().__init__(relation.columns, table)
        self.relation = relation

    def evaluate(self, db):
        return self.relation


def _memoisable(node: _Node) -> bool:
    return isinstance(node, _LitNode) or (isinstance(node, _RefNode) and node.static)


class _UnaryNode(_Node):
    __slots__ = ("child",)

    def __init__(self, child, columns, table):
        super().__init__(columns, table, child.refs)
        self.child = child
        self.deterministic = child.deterministic

    def apply(self, relation: ColumnarRelation) -> ColumnarRelation:
        raise NotImplementedError

    def apply_rows(self, data: np.ndarray) -> np.ndarray:
        """:meth:`apply` on instance-tagged rows."""
        raise NotImplementedError

    def evaluate(self, db):
        return self.apply(self.child.evaluate(db))

    def _sample(self, db, rng):
        return self.apply(self.child.sample(db, rng))

    def _rows(self, batch):
        # This node differs between instances, so its child does too.
        child = self.child.rows(batch)
        return _Instances(self.apply_rows(child.data), child.owner, child.weights)


class _BinaryNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right, columns, table):
        super().__init__(columns, table, left.refs | right.refs)
        self.left = left
        self.right = right
        self.deterministic = left.deterministic and right.deterministic

    def apply_rows(
        self, left: np.ndarray, right: np.ndarray, universe: int
    ) -> np.ndarray:
        """The operator on two sides' rows, both untagged or both tagged
        with the same instance ids; ``universe`` bounds every id."""
        raise NotImplementedError

    def with_right(self, left: _Instances, right: ColumnarRelation) -> np.ndarray:
        """The right side is the same for every instance of the left."""
        universe = max(len(self.table), len(left))
        return self.apply_rows(left.data, _broadcast(right.data, len(left)), universe)

    def with_left(self, left: ColumnarRelation, right: _Instances) -> np.ndarray:
        """The left side is the same for every instance of the right."""
        universe = max(len(self.table), len(right))
        return self.apply_rows(_broadcast(left.data, len(right)), right.data, universe)

    def evaluate(self, db):
        return self.apply(self.left.evaluate(db), self.right.evaluate(db))

    def apply(self, left, right):
        return ColumnarRelation._trusted(
            self.columns, self.apply_rows(left.data, right.data, len(self.table))
        )

    def _sample(self, db, rng):
        # Left before right: the frozenset sampler recurses in this
        # order, and RNG draws must interleave identically.
        left = self.left.sample(db, rng)
        right = self.right.sample(db, rng)
        return self.apply(left, right)

    def _rows(self, batch):
        left, right = self.left.rows(batch), self.right.rows(batch)
        if isinstance(right, ColumnarRelation):
            return _Instances(self.with_right(left, right), left.owner, left.weights)
        if isinstance(left, ColumnarRelation):
            return _Instances(self.with_left(left, right), right.owner, right.weights)
        a, b, owner, weights = _pair(left, right)
        universe = max(len(self.table), owner.shape[0])
        return _Instances(self.apply_rows(a, b, universe), owner, weights)


class _SelectNode(_UnaryNode):
    __slots__ = ("mask_fn",)

    def __init__(self, child, mask_fn, table):
        super().__init__(child, child.columns, table)
        self.mask_fn = mask_fn

    def apply(self, relation):
        if len(relation) == 0:
            return relation
        mask = self.mask_fn(relation.data)
        # A subset of a normalized array stays normalized.
        return ColumnarRelation(self.columns, relation.data[mask], normalized=True)

    def apply_rows(self, data):
        if data.shape[0] == 0:
            return data
        return data[self.mask_fn(data[:, 1:])]


class _ProjectNode(_UnaryNode):
    __slots__ = ("indices", "tagged")

    def __init__(self, child, columns, indices, table):
        super().__init__(child, columns, table)
        self.indices = indices
        self.tagged = np.asarray([0] + [i + 1 for i in indices], dtype=np.int64)

    def apply(self, relation):
        return ColumnarRelation(
            self.columns, ops.project(relation.data, self.indices), normalized=True
        )

    def apply_rows(self, data):
        return _normalized(data.take(self.tagged, axis=1))


class _RenameNode(_UnaryNode):
    __slots__ = ()

    def apply(self, relation):
        return ColumnarRelation(self.columns, relation.data, normalized=True)

    def apply_rows(self, data):
        return data


class _ExtendedProjectNode(_UnaryNode):
    __slots__ = ("sources",)

    def __init__(self, child, columns, sources, table):
        # sources: list of ("col", index) | ("const", symbol_id)
        super().__init__(child, columns, table)
        self.sources = sources

    def _extend(self, data: np.ndarray, offset: int, parts: list) -> np.ndarray:
        n = data.shape[0]
        for kind, value in self.sources:
            if kind == "col":
                parts.append(data[:, value + offset])
            else:
                parts.append(np.full(n, value, dtype=np.int64))
        if parts:
            return np.stack(parts, axis=1)
        return np.empty((n, 0), dtype=np.int64)

    def apply(self, relation):
        return ColumnarRelation(self.columns, self._extend(relation.data, 0, []))

    def apply_rows(self, data):
        return _normalized(self._extend(data, 1, [data[:, 0]]))


class _UnionNode(_BinaryNode):
    __slots__ = ()

    def apply_rows(self, left, right, universe):
        return ops.union(left, right, universe)


class _DifferenceNode(_BinaryNode):
    __slots__ = ()

    def apply_rows(self, left, right, universe):
        return ops.difference(left, right, universe)


class _JoinNode(_BinaryNode):
    """Natural join; with no shared column, the Cartesian product.

    Its output is normalized without a sort: left rows come in order and
    each one's matches in the right side's order.
    """

    __slots__ = ("left_shared", "right_shared", "right_keep", "left_keep", "swap_order")

    def __init__(self, left, right, columns, table):
        super().__init__(left, right, columns, table)
        shared = [c for c in left.columns if c in right.columns]
        self.left_shared = [left.columns.index(c) for c in shared]
        self.right_shared = [right.columns.index(c) for c in shared]
        self.right_keep = [
            i for i, c in enumerate(right.columns) if c not in left.columns
        ]
        self.left_keep = [
            i for i, c in enumerate(left.columns) if c not in right.columns
        ]
        # Column order of right ⋈ left, mapped back to this node's.
        swapped = right.columns + tuple(left.columns[i] for i in self.left_keep)
        self.swap_order = [0] + [swapped.index(c) + 1 for c in columns]

    def _join(self, a, a_shared, side, b: ColumnarRelation, b_shared, b_keep):
        """``a ⋈ b``; ``a``'s rows may carry an instance column, ``side``
        is the plan node ``b`` came from."""
        if not b_shared:
            return ops.product(a, b.data)
        universe = len(self.table)
        index = _join_index(b, b_shared, universe) if _memoisable(side) else None
        return ops.natural_join(a, a_shared, b.data, b_shared, b_keep, universe, index)

    def apply(self, left, right):
        data = self._join(
            left.data, self.left_shared, self.right, right,
            self.right_shared, self.right_keep,
        )
        return ColumnarRelation._trusted(self.columns, data)

    def apply_rows(self, left, right, universe):
        return ops.natural_join(
            left,
            [0] + [i + 1 for i in self.left_shared],
            right,
            [0] + [i + 1 for i in self.right_shared],
            [i + 1 for i in self.right_keep],
            universe,
        )

    def with_right(self, left, right):
        return self._join(
            left.data, [i + 1 for i in self.left_shared], self.right, right,
            self.right_shared, self.right_keep,
        )

    def with_left(self, left, right):
        swapped = self._join(
            right.data, [i + 1 for i in self.right_shared], self.left, left,
            self.left_shared, self.left_keep,
        )
        return normalize_rows(swapped[:, self.swap_order])


class _RepairNode(_UnaryNode):
    __slots__ = ("key", "weight", "memo", "key_idx", "widx")

    def __init__(self, child, key, weight, table):
        super().__init__(child, child.columns, table)
        self.key = key
        self.weight = weight
        self.deterministic = False
        # Group weight ids -> exact choice probabilities.
        self.memo: dict = {}
        # Positions in instance-tagged rows (column 0 is the instance);
        # a kernel's schema check has made sure the columns exist.
        position = {name: i + 1 for i, name in enumerate(self.columns)}
        self.key_idx = [position.get(name) for name in key]
        self.widx = None if weight is None else position.get(weight)

    def _sample(self, db, rng):
        child = self.child.sample(db, rng)
        return sample_repair_columnar(child, self.table, rng, self.key, self.weight)

    def _rows(self, batch):
        child = self.child.rows(batch)
        if isinstance(child, ColumnarRelation):
            count = len(batch.states)
            child = _Instances(_broadcast(child.data, count), _states(count), None)
        data, owner, weights = repair_instances(
            child.data, child.owner, child.weights, self.table,
            self.key_idx, self.widx, self.memo,
        )
        return _Instances(data, owner, weights)


def _worlds(
    result: ColumnarRelation | _Instances, count: int, columns: tuple[str, ...]
) -> list[list[tuple[ColumnarRelation, Fraction]]]:
    """Per batch state, the distinct relations of one plan's result with
    their summed probabilities, in first-occurrence order."""
    if isinstance(result, ColumnarRelation):
        return [[(result, _ONE)]] * count
    data = result.data
    bounds = data[:, 0].searchsorted(_states(len(result) + 1)).tolist()
    weights = result.weights
    if weights is None:
        weights = [_ONE] * len(result)
    seen: list[dict[ColumnarRelation, Fraction]] = [{} for _ in range(count)]
    wrap = ColumnarRelation._trusted
    owners = result.owner.tolist()
    for state, weight, lo, hi in zip(owners, weights, bounds, bounds[1:]):
        # A copy, not a view: a kept state must not hold the whole batch.
        relation = wrap(columns, data[lo:hi, 1:].copy())
        row = seen[state]
        row[relation] = row[relation] + weight if relation in row else weight
    return [list(row.items()) for row in seen]


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
    static: frozenset[str] = frozenset(),
) -> _Node:
    """Plan ``expr``; ``static`` names the relations no query writes."""

    def compile_child(child: Expression) -> _Node:
        return _compile_expression(child, schema, table, static)

    if isinstance(expr, algebra.RelationRef):
        return _RefNode(
            expr.name, expr.output_columns(schema), table, expr.name in static
        )
    if isinstance(expr, algebra.Literal):
        from repro.kernel.columnar import intern_relation

        return _LitNode(intern_relation(expr.relation, table), table)
    if isinstance(expr, algebra.Select):
        child = compile_child(expr.child)
        mask_fn = _compile_predicate(expr.predicate, child.columns, table)
        return _SelectNode(child, mask_fn, table)
    if isinstance(expr, algebra.Project):
        child = compile_child(expr.child)
        indices = [child.columns.index(c) for c in expr.columns]
        return _ProjectNode(child, tuple(expr.columns), indices, table)
    if isinstance(expr, algebra.Rename):
        child = compile_child(expr.child)
        renamed = tuple(expr.mapping.get(c, c) for c in child.columns)
        return _RenameNode(child, renamed, table)
    if isinstance(expr, algebra.ExtendedProject):
        child = compile_child(expr.child)
        columns = tuple(name for name, _source in expr.outputs)
        sources = []
        for _name, (kind, value) in expr.outputs:
            if kind == "col":
                sources.append(("col", child.columns.index(value)))
            else:
                sources.append(("const", table.intern(value)))
        return _ExtendedProjectNode(child, columns, sources, table)
    if isinstance(expr, algebra.Union):
        left = compile_child(expr.left)
        right = compile_child(expr.right)
        return _UnionNode(left, right, left.columns, table)
    if isinstance(expr, algebra.Difference):
        left = compile_child(expr.left)
        right = compile_child(expr.right)
        return _DifferenceNode(left, right, left.columns, table)
    if isinstance(expr, algebra.Product):
        left = compile_child(expr.left)
        right = compile_child(expr.right)
        clash = set(left.columns) & set(right.columns)
        if clash:
            raise KernelCompileError(
                f"product inputs share columns {sorted(clash)!r}; rename first"
            )
        return _JoinNode(left, right, left.columns + right.columns, table)
    if isinstance(expr, algebra.NaturalJoin):
        left = compile_child(expr.left)
        right = compile_child(expr.right)
        columns = left.columns + tuple(
            c for c in right.columns if c not in left.columns
        )
        return _JoinNode(left, right, columns, table)
    if isinstance(expr, algebra.RepairKey):
        child = compile_child(expr.child)
        return _RepairNode(child, tuple(expr.key), expr.weight, table)
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
        self.row: tuple[int, ...] | None = None

    def _resolve(self) -> tuple[int, ...] | None:
        # Lazy: a value may only become interned by a dynamic intern
        # (footnote-1 weight sum) after compile time.  The table is
        # append-only, so a resolved row stays valid.
        if self.row is None:
            ids = [self.table.id_of(value) for value in self.values]
            if None not in ids:
                self.row = tuple(ids)
        return self.row

    def holds(self, db):
        row = self._resolve()
        if row is None or self.relation not in db:
            return False
        # A row of another arity is in no row set.
        return row in db[self.relation].row_set()


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
) -> CompiledEvent:
    if isinstance(event, TupleIn):
        return _CTupleIn(event.relation, tuple(event.row), table)
    if isinstance(event, RelationNonEmpty):
        return _CNonEmpty(event.relation)
    if isinstance(event, ExpressionEvent):
        plan = _compile_expression(event.expression, schema, table)
        return _CExpression(plan)
    if isinstance(event, AndEvent):
        return _CBool(
            "and",
            (
                _compile_event(event.left, schema, table),
                _compile_event(event.right, schema, table),
            ),
        )
    if isinstance(event, OrEvent):
        return _CBool(
            "or",
            (
                _compile_event(event.left, schema, table),
                _compile_event(event.right, schema, table),
            ),
        )
    if isinstance(event, NotEvent):
        return _CBool("not", (_compile_event(event.inner, schema, table),))
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
        schema: dict[str, tuple[str, ...]],
    ):
        self.interpretation = interpretation
        self.queries = interpretation.queries
        self.table = table
        self.plans = plans
        self.schema_map = schema
        self._sorted_names = sorted(plans)
        self._refs = frozenset().union(*(plan.refs for plan in plans.values()))

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
        return self.expand([db])[0]

    def expand(
        self, states: Sequence[ColumnarDatabase]
    ) -> list[Distribution[ColumnarDatabase]]:
        """The exact transition rows of a batch of states, one array pass
        per plan node for the whole batch.

        Row ``i`` equals the interpreter's ``transition`` of
        ``states[i]``: the same successors in the same first-occurrence
        order, with equal ``Fraction`` weights.  A relation read by a
        query is evaluated once when every state holds the same object
        (always, for relations no query writes), so states that differ
        there are still expanded correctly, only more slowly.
        """
        if not states:
            return []
        first = states[0]
        varying = frozenset(
            name
            for name in self._refs
            if any(state[name] is not first[name] for state in states[1:])
        ) if len(states) > 1 else frozenset()
        batch = _Batch(states, varying)
        names = self._sorted_names
        worlds = [
            _worlds(self.plans[name].rows(batch), len(states), self.plans[name].columns)
            for name in names
        ]
        rows: list[Distribution[ColumnarDatabase]] = []
        for index, state in enumerate(states):
            choices = [per_state[index] for per_state in worlds]
            if len(choices) == 1:
                name = names[0]
                row = {
                    state.with_relation(name, relation): weight
                    for relation, weight in choices[0]
                }
            else:
                # First name outermost, as in Interpretation.transition;
                # distinct relations per name make every successor new.
                row = {}
                for combo in product(*choices):
                    weight = _ONE
                    for _relation, factor in combo:
                        weight = weight * factor
                    updates = {name: rel for name, (rel, _) in zip(names, combo)}
                    row[state.with_relations(updates)] = weight
            rows.append(Distribution._trusted(row))
        return rows

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
    static = frozenset(schema) - frozenset(interpretation.queries)
    plans = {
        name: _compile_expression(expression, schema, table, static)
        for name, expression in sorted(interpretation.queries.items())
    }
    return CompiledKernel(interpretation, table, plans, schema)


def _recompile_event(event: QueryEvent, kernel: CompiledKernel) -> CompiledEvent:
    compiled = _compile_event(event, kernel.schema_map, kernel.table)
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
