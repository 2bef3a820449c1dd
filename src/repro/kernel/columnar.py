"""Columnar relations and database snapshots over interned IDs.

A :class:`ColumnarRelation` stores its rows as one C-contiguous
``int64`` array of shape ``(n, arity)`` whose entries are
:class:`~repro.kernel.symbols.SymbolTable` IDs.  The array is always
*normalized*: rows are unique and sorted lexicographically, so two
relations hold the same row set iff their arrays are identical — which
makes equality, hashing (``data.tobytes()``), and cache keys cheap and
canonical.  While the symbol table has seen no dynamic intern, raw-ID
lexicographic order coincides with the canonical value order of the
frozenset interpreter's iteration, row for row.

A :class:`ColumnarDatabase` is the interned counterpart of
:class:`~repro.relational.database.Database`: immutable, hashable,
usable as a Markov-chain state and as a `TransitionCache`/`ResultCache`
key.  :func:`intern_database` / :func:`extern_database` convert between
the two representations losslessly (up to value equality, which is the
equality `frozenset` rows already use).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import SchemaError
from repro.kernel.symbols import SymbolTable
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = [
    "ColumnarRelation",
    "ColumnarDatabase",
    "intern_relation",
    "intern_database",
    "extern_relation",
    "extern_database",
]


def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically and drop duplicates.

    When every entry is a non-negative ID small enough to fold the row
    into one base-``max+1`` scalar, rows are keyed, checked for the
    already-normalized common case (one vectorized comparison, no
    copy), and otherwise deduplicated through a 1-D argsort.  The
    general path is a lexsort plus an adjacent-difference mask — still
    far cheaper than ``np.unique(axis=0)``'s structured-dtype view.
    """
    n = data.shape[0]
    if n <= 1:
        return np.ascontiguousarray(data)
    k = data.shape[1]
    if k == 0:
        # All zero-arity rows are the empty tuple; keep one.
        return np.ascontiguousarray(data[:1])
    low = int(data.min())
    base = int(data.max()) + 1
    if low >= 0 and base ** k < 2 ** 62:
        if k == 1:
            keys = data[:, 0]
        else:
            keys = np.ravel_multi_index(
                tuple(data[:, i] for i in range(k)), dims=(base,) * k
            )
        if (keys[1:] > keys[:-1]).all():
            return np.ascontiguousarray(data)
        order = np.argsort(keys, kind="stable")
        ordered = data[order]
        sorted_keys = keys[order]
        changed = sorted_keys[1:] != sorted_keys[:-1]
        if changed.all():
            return ordered
    else:
        ordered = data[np.lexsort(data.T[::-1])]
        changed = (ordered[1:] != ordered[:-1]).any(axis=1)
        if changed.all():
            return ordered
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = changed
    return np.ascontiguousarray(ordered[keep])


class ColumnarRelation:
    """An immutable interned relation (normalized ID array + columns)."""

    __slots__ = ("columns", "data", "_hash", "_memo")

    def __init__(self, columns: tuple[str, ...], data: np.ndarray, normalized: bool = False):
        self.columns = tuple(columns)
        array = np.asarray(data, dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != len(self.columns):
            raise SchemaError(
                f"columnar data of shape {array.shape!r} does not match "
                f"columns {self.columns!r}"
            )
        if not normalized:
            array = normalize_rows(array)
        self.data = np.ascontiguousarray(array)
        self.data.setflags(write=False)
        self._hash: int | None = None
        self._memo: dict | None = None

    @classmethod
    def _trusted(cls, columns: tuple[str, ...], data: np.ndarray) -> "ColumnarRelation":
        """Wrap a normalized, C-contiguous ``int64`` array of matching
        shape without checking it; the array becomes read-only."""
        data.setflags(write=False)
        relation = cls.__new__(cls)
        relation.columns = columns
        relation.data = data
        relation._hash = None
        relation._memo = None
        return relation

    @classmethod
    def empty(cls, columns: tuple[str, ...]) -> "ColumnarRelation":
        return cls(columns, np.empty((0, len(columns)), dtype=np.int64), normalized=True)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.data.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(
                f"no column {name!r} in relation with columns {self.columns!r}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRelation):
            return NotImplemented
        # Equal int64 arrays of one shape are equal byte strings, which
        # compare far faster than np.array_equal on small relations.
        return (
            self.columns == other.columns
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.columns, self.data.shape, self.data.tobytes()))
        return value

    def __repr__(self) -> str:
        return f"ColumnarRelation(columns={self.columns!r}, rows={len(self)})"

    def __reduce__(self):
        # The cached hash stays behind: string hashes differ by process.
        return ColumnarRelation, (self.columns, self.data, True)

    def memo(self) -> dict:
        """Join indexes derived from the rows, kept with the immutable
        relation and keyed by join columns; never pickled."""
        if self._memo is None:
            self._memo = {}
        return self._memo

    def issubset(self, other: "ColumnarRelation") -> bool:
        if self.columns != other.columns:
            raise SchemaError(
                f"issubset requires identical columns: "
                f"{self.columns!r} vs {other.columns!r}"
            )
        if len(self) == 0:
            return True
        if len(self) > len(other):
            return False
        theirs = other.row_set()
        return all(row.tobytes() in theirs for row in self.data)

    def row_set(self) -> set[bytes]:
        """The rows as a set of raw byte keys (subset checks)."""
        return {row.tobytes() for row in self.data}


class ColumnarDatabase:
    """An immutable interned database snapshot (a Markov-chain state)."""

    __slots__ = ("_relations", "table", "_hash")

    def __init__(self, relations: Mapping[str, ColumnarRelation], table: SymbolTable):
        self._relations: dict[str, ColumnarRelation] = dict(relations)
        self.table = table
        self._hash: int | None = None

    # -- mapping protocol, mirroring Database --------------------------------

    def __getitem__(self, name: str) -> ColumnarRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"no relation {name!r}; database has {sorted(self._relations)!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._relations))

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        return sorted(self._relations)

    def relations(self) -> dict[str, ColumnarRelation]:
        return dict(self._relations)

    def schema(self) -> dict[str, tuple[str, ...]]:
        return {name: rel.columns for name, rel in self._relations.items()}

    def total_rows(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarDatabase):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(frozenset(self._relations.items()))
        return value

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}[{len(r)}]" for n, r in sorted(self._relations.items()))
        return f"ColumnarDatabase({parts})"

    def __reduce__(self):
        return ColumnarDatabase, (self._relations, self.table)

    # -- functional updates --------------------------------------------------

    def with_relation(self, name: str, relation: ColumnarRelation) -> "ColumnarDatabase":
        updated = dict(self._relations)
        updated[name] = relation
        return ColumnarDatabase(updated, self.table)

    def with_relations(self, updates: Mapping[str, ColumnarRelation]) -> "ColumnarDatabase":
        updated = dict(self._relations)
        updated.update(updates)
        return ColumnarDatabase(updated, self.table)

    def contains_database(self, other: "ColumnarDatabase") -> bool:
        """Superset check relation-by-relation (Definition 3.4 guard)."""
        for name, rel in other._relations.items():
            mine = self._relations.get(name)
            if mine is None or mine.columns != rel.columns:
                return False
            if len(rel) == 0:
                continue
            if len(rel) > len(mine):
                return False
            mine_rows = mine.row_set()
            if any(row.tobytes() not in mine_rows for row in rel.data):
                return False
        return True

    def canonical_sort_key(self) -> tuple:
        """A sort key order-isomorphic to
        :func:`~repro.relational.ordering.database_sort_key` on the
        externed snapshot, so frozenset and columnar cached-row outcome
        orderings coincide."""
        rank = self.table.rank_array()
        parts = []
        for name in sorted(self._relations):
            rel = self._relations[name]
            data = rel.data if rank is None else normalize_rows(rank[rel.data])
            parts.append((name, rel.columns, tuple(map(tuple, data.tolist()))))
        return tuple(parts)


# -- conversion ---------------------------------------------------------------


def intern_relation(relation: Relation, table: SymbolTable) -> ColumnarRelation:
    """Intern a frozenset relation into the table's ID space."""
    arity = relation.arity
    if len(relation) == 0:
        return ColumnarRelation.empty(relation.columns)
    intern = table.intern
    flat = [intern(value) for row in relation for value in row]
    data = np.asarray(flat, dtype=np.int64).reshape(len(relation), arity)
    return ColumnarRelation(relation.columns, data)


def intern_database(db: Database, table: SymbolTable) -> ColumnarDatabase:
    """Intern a whole database snapshot."""
    return ColumnarDatabase(
        {name: intern_relation(db[name], table) for name in db.names()}, table
    )


def extern_relation(relation: ColumnarRelation, table: SymbolTable) -> Relation:
    """Map a columnar relation back to the frozenset representation."""
    values = [table.value_of(i) for i in relation.data.ravel().tolist()]
    arity = relation.arity
    rows: Iterable[tuple[Any, ...]]
    if arity == 0:
        rows = [()] * len(relation)
    else:
        rows = [
            tuple(values[r * arity : (r + 1) * arity]) for r in range(len(relation))
        ]
    return Relation(relation.columns, rows)


def extern_database(db: ColumnarDatabase, table: SymbolTable | None = None) -> Database:
    """Map a columnar database snapshot back to frozenset form."""
    table = table or db.table
    return Database({name: extern_relation(db[name], table) for name in db.names()})
