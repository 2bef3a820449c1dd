"""Vectorized ``repair-key`` over columnar relations.

The semantics is exactly :mod:`repro.relational.repair`; the point of
this module is (a) speed — grouping and ordering are array operations
and the per-row weight floats come from the symbol table's per-ID cache
instead of a fresh ``float(Fraction(...))`` per step — and (b) the
bit-identical RNG stream: groups are visited in canonical key order and
rows within a group in canonical row order (the array is sorted by
``(key columns, full row)`` under the rank permutation, which reduces to
a plain lexsort while no dynamic intern has happened), a uniform group
consumes one ``randrange``, a weighted group one ``random()`` compared
against the same sequential float accumulation.  A fixed seed therefore
draws the same worlds here and in the frozenset interpreter.

Footnote 1 (merging rows that agree on the non-weight columns by
summing their weights) is detected on sorted rows by comparing each row
with the next; when it fires — rare in the paper's workloads — the
summed fractions are computed exactly and interned dynamically.

:func:`sample_repair_columnar` draws one world of one relation;
:func:`repair_instances` enumerates every world of every instance of a
batch (:meth:`repro.kernel.CompiledKernel.expand`) with exact
``Fraction`` probabilities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np

from repro.kernel.columnar import ColumnarRelation, normalize_rows
from repro.kernel.ops import encode_rows
from repro.kernel.symbols import SymbolTable

__all__ = ["sample_repair_columnar", "repair_instances"]

#: Distinct groups a repair node remembers the probabilities of; past
#: it the memo starts over, which bounds its memory.
_MEMO_LIMIT = 4096


def _validate_weights(data: np.ndarray, widx: int, table: SymbolTable) -> None:
    """Raise :class:`ProbabilityError` for non-numeric or non-positive
    weights, matching the frozenset path's eager validation.  Accepted
    IDs are memoized on the table, so steady-state steps only pay set
    lookups."""
    for symbol_id in data[:, widx].tolist():
        table.check_weight(symbol_id)


def _merge_duplicate_weight_rows(
    data: np.ndarray, widx: int, table: SymbolTable
) -> np.ndarray:
    """Footnote 1: merge rows equal on all non-weight columns, summing P."""
    _validate_weights(data, widx, table)
    if data.shape[0] <= 1:
        return data
    nonw = [i for i in range(data.shape[1]) if i != widx]
    sub = data[:, nonw]
    keys = encode_rows(np.ascontiguousarray(sub), len(table))
    if keys is not None:
        sorted_keys = np.sort(keys)
        if (sorted_keys[1:] != sorted_keys[:-1]).all():
            # No two rows agree on the non-weight columns — the common
            # case, detected on one folded key per row.
            return data
        order = np.argsort(keys, kind="stable")
        changed = sorted_keys[1:] != sorted_keys[:-1]
    else:
        order = np.lexsort(sub.T[::-1])
        sorted_sub = sub[order]
        changed = (sorted_sub[1:] != sorted_sub[:-1]).any(axis=1)
        if changed.all():
            return data
    starts = np.concatenate([[0], np.flatnonzero(changed) + 1])
    counts = np.diff(np.append(starts, data.shape[0]))
    merged_rows = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        group = order[start : start + count]
        first = data[group[0]].copy()
        if count > 1:
            total = Fraction(0)
            for row_index in group.tolist():
                total += table.weight_fraction(int(data[row_index, widx]))
            first[widx] = table.intern(total)
        merged_rows.append(first)
    return np.stack(merged_rows)


def _canonical_group_sort(
    data: np.ndarray,
    key_idx: list[int],
    table: SymbolTable,
    assume_sorted: bool = False,
) -> tuple[np.ndarray, list[int], list[int]]:
    """Sort rows by (key columns, full row) in canonical value order and
    return (sorted_data, group_starts, group_ends).

    With ``assume_sorted`` (rows already in raw-ID lexicographic order,
    i.e. straight out of a normalized relation), a prefix key under an
    identity rank needs no sort at all — (key columns, full row) order
    *is* full-row order then.
    """
    n, arity = data.shape
    rank = table.rank_array()
    prefix_key = key_idx == list(range(len(key_idx)))
    if assume_sorted and rank is None and prefix_key:
        sorted_data = data
        if key_idx and n > 1:
            key_block = data[:, : len(key_idx)]
            changed = (key_block[1:] != key_block[:-1]).any(axis=1)
            starts = [0] + (np.flatnonzero(changed) + 1).tolist()
        else:
            starts = [0]
    else:
        view = data if rank is None else rank[data]
        sort_keys = [view[:, i] for i in reversed(range(arity))] + [
            view[:, i] for i in reversed(key_idx)
        ]
        order = np.lexsort(tuple(sort_keys))
        sorted_data = data[order]
        if key_idx:
            key_block = (view[order])[:, key_idx]
            changed = (key_block[1:] != key_block[:-1]).any(axis=1)
            starts = [0] + (np.flatnonzero(changed) + 1).tolist()
        else:
            starts = [0]
    ends = starts[1:] + [n]
    return sorted_data, starts, ends


def sample_repair_columnar(
    relation: ColumnarRelation,
    table: SymbolTable,
    rng: random.Random,
    key: tuple[str, ...] = (),
    weight: str | None = None,
) -> ColumnarRelation:
    """Draw one possible world of ``repair-key`` (vectorized).

    Consumes the RNG stream of
    :func:`repro.relational.repair.sample_repair` bit-for-bit.
    """
    if len(relation) == 0:
        return relation
    widx = relation.column_index(weight) if weight is not None else None
    data = relation.data
    if widx is not None:
        data = _merge_duplicate_weight_rows(data, widx, table)
    key_idx = [relation.column_index(c) for c in key]
    sorted_data, starts, ends = _canonical_group_sort(
        data, key_idx, table, assume_sorted=data is relation.data
    )
    # One chosen row per group, groups ascending by key block: when the
    # key columns are a prefix of the schema and raw-ID order is still
    # canonical (no dynamic intern), the picked rows come out already
    # sorted and unique — skip the normalization pass.
    prenormalized = (
        key_idx == list(range(len(key_idx)))
        and table.rank_array() is None
    )
    chosen: list[int] = []
    if widx is None:
        for start, end in zip(starts, ends):
            chosen.append(start + rng.randrange(end - start))
    else:
        floats = table.float_list()
        weights = [floats[i] for i in sorted_data[:, widx].tolist()]
        for start, end in zip(starts, ends):
            group = weights[start:end]
            total = sum(group)
            pick = rng.random() * total
            acc = 0.0
            selected = end - 1
            for offset, w in enumerate(group):
                acc += w
                if pick < acc:
                    selected = start + offset
                    break
            chosen.append(selected)
    return ColumnarRelation(
        relation.columns,
        sorted_data[np.asarray(chosen, dtype=np.int64)],
        normalized=prenormalized,
    )


def repair_instances(
    data: np.ndarray,
    owner: np.ndarray,
    weights: list[Fraction] | None,
    table: SymbolTable,
    key_idx: list[int],
    widx: int | None,
    memo: dict,
) -> tuple[np.ndarray, np.ndarray, list[Fraction] | None]:
    """All possible worlds of ``repair-key`` over a batch of instances.

    ``data`` holds the input rows of every instance, the instance id in
    column 0, sorted and unique per instance; ``owner[i]`` is the batch
    state of instance ``i`` and ``weights[i]`` its probability (None:
    every instance has probability 1).  ``key_idx`` and ``widx`` index
    columns of ``data``.  Returns the output instances in the same
    form: instance ``i`` becomes the product of its groups' choices, the
    first group varying slowest and each group's rows in canonical
    order, which is the world order of the per-relation
    :func:`repro.relational.repair.repair_distribution`.  An instance
    with no rows is one world, itself.

    ``memo`` maps a group's weight ids (or, unweighted, its size) to its
    exact choice probabilities, so ``Fraction`` arithmetic runs once per
    distinct group, not once per row.
    """
    if data.shape[0] == 0:
        return data, owner, weights
    width = data.shape[1]
    prefix = key_idx == list(range(1, len(key_idx) + 1))
    weight_last = widx is None or widx == width - 1
    if not weight_last:
        # Order by (instance, non-weight columns, weight), so rows that
        # footnote 1 merges sit side by side.
        others = [c for c in range(width) if c != widx]
        data = data[np.lexsort(tuple(data[:, c] for c in reversed(others + [widx])))]
    diff = data[1:] != data[:-1]
    if widx is not None:
        changed = (diff[:, :-1] if weight_last else diff[:, others]).any(axis=1)
        if not all(changed.tolist()):
            data = _merge_runs(data, changed, widx, table)
            diff = None
    rank = table.rank_array()
    # Rows are sorted by (instance, full row): the canonical (instance,
    # key, full row) order when the key is a column prefix and raw ids
    # are in canonical order.
    if rank is not None or not prefix or not weight_last:
        view = data[:, 1:] if rank is None else rank[data[:, 1:]]
        sort_keys = [view[:, i] for i in reversed(range(width - 1))]
        sort_keys += [view[:, i - 1] for i in reversed(key_idx)] + [data[:, 0]]
        data = data[np.lexsort(tuple(sort_keys))]
        diff = None
    if diff is None:
        diff = data[1:] != data[:-1]
    block = diff[:, : len(key_idx) + 1] if prefix else diff[:, [0] + key_idx]
    n = data.shape[0]
    starts = [0] + [i + 1 for i in block.any(axis=1).nonzero()[0].tolist()]
    ends = starts[1:] + [n]
    if len(memo) > _MEMO_LIMIT:
        memo.clear()
    if widx is None:
        probabilities = [
            _uniform(end - start, memo) for start, end in zip(starts, ends)
        ]
    else:
        ids = data[:, widx].tolist()
        probabilities = []
        for start, end in zip(starts, ends):
            signature = tuple(ids[start:end])
            choice = memo.get(signature)
            if choice is None:
                choice = memo[signature] = _weighted(signature, table)
            probabilities.append(choice)
    parents = data[:, 0]
    tags = parents.tolist()
    group_instance = [tags[start] for start in starts]
    if group_instance == list(range(owner.shape[0])):
        # One group per instance: every row is a world of its own.
        flat = [p for choice in probabilities for p in choice]
        if weights is not None:
            flat = [weights[i] * p for i, p in zip(tags, flat)]
        out = data.copy()
        out[:, 0] = np.arange(n, dtype=np.int64)
        return out, owner.take(parents), flat
    return _combine_groups(
        data, owner, weights, starts, ends, group_instance, probabilities,
        sorted_rows=rank is None and prefix,
    )


def _uniform(size: int, memo: dict) -> tuple[Fraction, ...]:
    choice = memo.get(size)
    if choice is None:
        choice = memo[size] = (Fraction(1, size),) * size
    return choice


def _weighted(ids: tuple[int, ...], table: SymbolTable) -> tuple[Fraction, ...]:
    """Exact choice probabilities of one group's weight ids; validates
    each weight like the interpreter."""
    weights = [table.weight_fraction(symbol_id) for symbol_id in ids]
    total = sum(weights, Fraction(0))
    return tuple(weight / total for weight in weights)


def _merge_runs(
    data: np.ndarray, changed: np.ndarray, widx: int, table: SymbolTable
) -> np.ndarray:
    """Footnote 1: merge each run of rows that ``changed`` does not mark
    as differing from their predecessor into the run's first row,
    summing P."""
    rows = data.copy()
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = changed
    starts = keep.nonzero()[0].tolist()
    for start, end in zip(starts, starts[1:] + [rows.shape[0]]):
        if end - start > 1:
            total = sum(
                (table.weight_fraction(i) for i in rows[start:end, widx].tolist()),
                Fraction(0),
            )
            rows[start, widx] = table.intern(total)
    return rows[keep]


def _combine_groups(
    data: np.ndarray,
    owner: np.ndarray,
    weights: list[Fraction] | None,
    starts: list[int],
    ends: list[int],
    group_instance: list[int],
    probabilities: list[tuple[Fraction, ...]],
    sorted_rows: bool,
) -> tuple[np.ndarray, np.ndarray, list[Fraction]]:
    """The general case of :func:`repair_instances`: instances with
    several groups, or with none."""
    out_owner: list[int] = []
    out_weights: list[Fraction] = []
    picks: list[int] = []
    sizes: list[int] = []
    owners = owner.tolist()
    g = 0
    for instance in range(len(owners)):
        parent = Fraction(1) if weights is None else weights[instance]
        first = g
        while g < len(starts) and group_instance[g] == instance:
            g += 1
        choices = [
            list(zip(range(starts[k], ends[k]), probabilities[k]))
            for k in range(first, g)
        ]
        for combo in product(*choices):
            weight = parent
            for row, p in combo:
                picks.append(row)
                weight = weight * p
            sizes.append(len(combo))
            out_weights.append(weight)
            out_owner.append(owners[instance])
    out = data[np.asarray(picks, dtype=np.int64)]
    out[:, 0] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    if not sorted_rows:
        out = normalize_rows(out)
    return out, np.asarray(out_owner, dtype=np.int64), out_weights
