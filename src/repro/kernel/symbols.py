"""Per-session symbol tables: scalar values ⇄ dense integer IDs.

The columnar kernel does not move Python objects through the relational
operators; it interns every scalar value occurring in the database, the
program's constants, and the query event into one per-session
:class:`SymbolTable` and computes on dense ``int64`` IDs.  Two design
points matter for correctness:

* **IDs are assigned in canonical value order** (see
  :func:`~repro.relational.ordering.canonical_key`).  The static
  universe is sorted once at compile time, so for any two statically
  interned values ``u < v`` canonically iff ``id(u) < id(v)`` — sorting
  an ID array lexicographically therefore visits rows in exactly the
  order the frozenset interpreter's canonicalized iteration uses, which
  is what keeps the two backends' RNG streams bit-identical.
* **Dynamic interning is supported but penalised.**  Footnote-1 weight
  merging inside ``repair-key`` sums weight fractions and can create
  values outside the static universe; those are appended past the
  static region and a ``rank`` permutation (ID → canonical position) is
  recomputed lazily.  While no dynamic intern has happened — the common
  case — the rank map is the identity and every kernel skips it.

Values that compare equal (``3 == Fraction(3) == 3.0``) collapse to one
ID, exactly as they collapse to one element of a ``frozenset`` row set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable

import numpy as np

from repro.errors import ProbabilityError
from repro.relational.ordering import canonical_key

__all__ = ["SymbolTable"]


class SymbolTable:
    """An append-only interning table over hashable scalar values."""

    __slots__ = ("_values", "_ids", "_static_size", "_rank", "_floats", "_checked_weights")

    def __init__(self, universe: Iterable[Any] = ()):
        deduped: dict[Any, None] = {}
        for value in universe:
            deduped.setdefault(value, None)
        ordered = sorted(deduped, key=canonical_key)
        self._values: list[Any] = ordered
        self._ids: dict[Any, int] = {value: i for i, value in enumerate(ordered)}
        self._static_size = len(ordered)
        # None means "identity": no dynamic intern has happened, raw ID
        # order *is* canonical order.
        self._rank: np.ndarray | None = None
        self._floats: list[float | None] | None = None
        self._checked_weights: set[int] = set()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._ids

    @property
    def static_size(self) -> int:
        """Number of values interned at compile time."""
        return self._static_size

    @property
    def dynamic_count(self) -> int:
        """Number of values interned after compile time."""
        return len(self._values) - self._static_size

    def id_of(self, value: Any) -> int | None:
        """The ID of an already-interned value, or None."""
        return self._ids.get(value)

    def intern(self, value: Any) -> int:
        """The ID of ``value``, appending it if it is new."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        new_id = len(self._values)
        self._values.append(value)
        self._ids[value] = new_id
        # Appended IDs break the ID-order == canonical-order invariant;
        # the rank permutation is rebuilt on next use.
        self._rank = None
        if self._floats is not None:
            self._floats.append(_float_or_none(value))
        return new_id

    def value_of(self, symbol_id: int) -> Any:
        """The value interned under ``symbol_id``."""
        return self._values[symbol_id]

    def extern_row(self, ids: Iterable[int]) -> tuple:
        """Map a row of IDs back to its value tuple."""
        values = self._values
        return tuple(values[i] for i in ids)

    def rank_array(self) -> np.ndarray | None:
        """ID → canonical-position permutation, or None for identity.

        Identity holds exactly while no dynamic intern has happened:
        static IDs were assigned in sorted canonical order.
        """
        if self.dynamic_count == 0:
            return None
        if self._rank is None or len(self._rank) != len(self._values):
            order = sorted(range(len(self._values)), key=lambda i: canonical_key(self._values[i]))
            rank = np.empty(len(self._values), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(len(self._values), dtype=np.int64)
            self._rank = rank
        return self._rank

    def __reduce__(self):
        # Copying the value list is one atomic step, so a table that
        # another thread interns into while a worker task pickles (in a
        # queue's feeder thread) still pickles whole and consistent; the
        # rest is derived from it.
        return _restore_table, (list(self._values), self._static_size)

    def float_list(self) -> list[float | None]:
        """Per-ID ``float(Fraction(value))``; None for non-numeric values.

        This is the weight cache of the vectorized repair-key step: the
        frozenset sampler converts each weight with exactly
        ``float(as_fraction(value))``, and ``float(Fraction(x))`` is
        correctly rounded, so the cached float equals the frozenset
        path's float bit-for-bit.
        """
        if self._floats is None or len(self._floats) != len(self._values):
            self._floats = [_float_or_none(value) for value in self._values]
        return self._floats

    def check_weight(self, symbol_id: int) -> None:
        """Validate one weight ID eagerly, memoizing acceptance.

        IDs are stable, so an ID that validated once validates forever;
        the per-step repair kernel skips re-checking the (static) weight
        column this way.
        """
        if symbol_id in self._checked_weights:
            return
        self.weight_fraction(symbol_id)
        self._checked_weights.add(symbol_id)

    def weight_fraction(self, symbol_id: int) -> Fraction:
        """Exact weight of an interned value; raises like the frozenset
        path for non-numeric or non-positive weights."""
        value = self._values[symbol_id]
        try:
            weight = Fraction(value) if not isinstance(value, Fraction) else value
        except (TypeError, ValueError) as error:
            raise ProbabilityError(
                f"cannot interpret {value!r} as a probability weight"
            ) from error
        if weight <= 0:
            raise ProbabilityError(
                f"repair-key weight column must contain positive values, got {value!r}"
            )
        return weight


def _restore_table(values: list, static_size: int) -> SymbolTable:
    table = SymbolTable()
    table._values = values
    table._ids = {value: i for i, value in enumerate(values)}
    table._static_size = static_size
    return table


def _float_or_none(value: Any) -> float | None:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float, Fraction)):
        try:
            return float(Fraction(value))
        except (ValueError, OverflowError):
            return None
    return None
