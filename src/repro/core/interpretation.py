"""Probabilistic first-order interpretations (Definition 3.1).

An :class:`Interpretation` is the transition kernel of the paper's
forever-queries: one relational-algebra-with-repair-key query per
relation of the schema.  Applied to a database state A it yields the
probabilistic database Q(A): each relation Rᵢ becomes a possible result
of Qᵢ(A), independently across relations, and a world's probability is
the product of the per-relation world probabilities.

Conveniences beyond the bare definition, both used throughout the paper:

* relations with no query keep their old value (the paper's
  ``E := E  % unchanged`` identity lines);
* a :class:`~repro.ctables.pctable.PCDatabase` may be attached.  Its
  c-table relations are *re-instantiated from a fresh valuation at every
  kernel application*, which is the non-inflationary semantics the paper
  gives pc-table "macros" (end of Section 3.1); variables shared between
  c-tables stay correlated, which the algebraic macro compilation of
  :mod:`repro.ctables.macro` cannot express (see its docstring).
  Under *inflationary* semantics the choice must instead be made once up
  front — the inflationary evaluators handle that by enumerating or
  sampling the valuation before iterating (Section 3.2).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.ctables.pctable import PCDatabase
from repro.errors import SchemaError
from repro.probability.distribution import Distribution
from repro.relational.algebra import Expression, validate
from repro.relational.database import Database
from repro.relational.prob_eval import enumerate_worlds, sample_world
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.cache import TransitionCache


class Interpretation:
    """A probabilistic first-order interpretation (transition kernel).

    Parameters
    ----------
    queries:
        Mapping of relation name to the algebra expression computing its
        next value.  The expression's output columns must match the
        relation's columns (checked lazily against the first database
        the kernel is applied to).
    pc_tables:
        Optional pc-table database; its c-table relations are
        re-instantiated from a fresh joint valuation at each application
        and must not also have queries.

    Examples
    --------
    >>> from repro.relational import rel
    >>> kernel = Interpretation({"C": rel("C")})   # identity kernel
    """

    #: Per-relation ``(start, end)`` character ranges of the ``NAME := expr``
    #: assignments in the source text; set by the parser, ``None`` for
    #: programmatically built kernels.
    source_spans: Mapping[str, tuple[int, int]] | None = None

    def __init__(
        self,
        queries: Mapping[str, Expression],
        pc_tables: PCDatabase | None = None,
    ):
        self.queries = dict(queries)
        self.pc_tables = pc_tables
        if pc_tables is not None:
            clash = set(self.queries) & set(pc_tables.tables)
            if clash:
                raise SchemaError(
                    f"relations {sorted(clash)!r} have both a kernel query and "
                    "a pc-table definition"
                )
            if pc_tables.certain:
                raise SchemaError(
                    "put the pc-database's certain relations into the initial "
                    "database instead of the kernel's pc_tables"
                )

    # -- schema ------------------------------------------------------------

    def pc_relation_names(self) -> list[str]:
        """Names of attached pc-table relations (empty without pc-tables)."""
        if self.pc_tables is None:
            return []
        return sorted(self.pc_tables.tables)

    def updated_relations(self) -> list[str]:
        """All relations the kernel rewrites (queries + pc-tables)."""
        return sorted(set(self.queries) | set(self.pc_relation_names()))

    def check_schema(self, db: Database) -> None:
        """Validate every query's result schema against ``db``.

        Definition 3.1 requires the result schema of Qᵢ to be the schema
        of Rᵢ.  Raises :class:`SchemaError` on mismatch.
        """
        schema = db.schema()
        for name, expression in self.queries.items():
            if name not in schema:
                raise SchemaError(
                    f"kernel rewrites relation {name!r} missing from the database"
                )
            out = validate(expression, schema)
            if out != schema[name]:
                raise SchemaError(
                    f"query for {name!r} produces columns {out!r}, "
                    f"but the relation has columns {schema[name]!r}"
                )
        for name in self.pc_relation_names():
            if name not in schema:
                raise SchemaError(
                    f"pc-table relation {name!r} missing from the database; "
                    "include an initial instantiation in the start state"
                )

    def without_pc_tables(self) -> "Interpretation":
        """The same kernel with pc-table resampling removed (the
        attached pc relations become unchanged-by-default).  Used by the
        inflationary evaluators, which fix the pc-table valuation once."""
        return Interpretation(self.queries, pc_tables=None)

    # -- semantics ------------------------------------------------------------

    def _merge(self, db: Database, updates: Mapping[str, Relation]) -> Database:
        """New state: rewritten relations replaced, the rest unchanged."""
        return db.with_relations(dict(updates))

    def transition(self, db: Database) -> Distribution[Database]:
        """The exact probabilistic database Q(db) (Definition 3.1).

        Exponential in the number of probabilistic choices; this is the
        primitive used by all the exact evaluators.
        """
        result: Distribution[Database] = Distribution.point(db)

        # Queries are independent of each other: fold each one in.
        for name in sorted(self.queries):
            expression = self.queries[name]
            worlds = enumerate_worlds(expression, db)
            result = result.bind(
                lambda state, name=name, worlds=worlds: worlds.map(
                    lambda relation, name=name, state=state: state.with_relation(
                        name, relation
                    )
                )
            )

        if self.pc_tables is not None:
            pc = self.pc_tables
            names = sorted(pc.tables)
            variable_names = pc.variable_names()
            instantiations = pc.valuation_distribution().map(
                lambda values: tuple(
                    pc.tables[name].instantiate(dict(zip(variable_names, values)))
                    for name in names
                )
            )
            result = result.bind(
                lambda state: instantiations.map(
                    lambda relations, state=state: state.with_relations(
                        dict(zip(names, relations))
                    )
                )
            )
        return result

    def expand(self, states: Sequence[Database]) -> list[Distribution[Database]]:
        """:meth:`transition` of each state (the batch surface of
        :meth:`repro.kernel.CompiledKernel.expand`)."""
        return [self.transition(state) for state in states]

    def sample_transition(self, db: Database, rng: random.Random) -> Database:
        """Draw one possible next state in polynomial time."""
        updates: dict[str, Relation] = {}
        for name in sorted(self.queries):
            updates[name] = sample_world(self.queries[name], db, rng)
        if self.pc_tables is not None:
            valuation = self.pc_tables.sample_valuation(rng)
            for name, table in self.pc_tables.tables.items():
                updates[name] = table.instantiate(valuation)
        return self._merge(db, updates)

    def cached(self, maxsize: int | None = None) -> "TransitionCache":
        """A bounded LRU memo of this kernel's exact transition rows.

        Convenience constructor for
        :class:`~repro.perf.cache.TransitionCache`: pass the result as
        ``cache=`` to :func:`~repro.core.chain_builder.build_state_chain`
        or use its ``sample`` method for memoized walking.  See
        ``docs/performance.md`` for when memoized sampling is
        appropriate (small per-state support; different RNG stream).
        """
        from repro.perf.cache import DEFAULT_CACHE_SIZE, TransitionCache

        return TransitionCache(
            self, maxsize=DEFAULT_CACHE_SIZE if maxsize is None else maxsize
        )

    def is_deterministic(self) -> bool:
        """True when the kernel makes no probabilistic choice at all."""
        if self.pc_tables is not None and self.pc_tables.variables:
            return False
        return all(expr.is_deterministic() for expr in self.queries.values())

    def __repr__(self) -> str:
        pc = f", pc={self.pc_relation_names()!r}" if self.pc_tables else ""
        return f"Interpretation(queries={sorted(self.queries)!r}{pc})"


def identity_interpretation() -> Interpretation:
    """The kernel that leaves every relation unchanged."""
    return Interpretation({})
