"""Vectorized ``repair-key`` over columnar relations.

The semantics is exactly :mod:`repro.relational.repair`, over a batch
of instances in one array pass (:meth:`repro.kernel.CompiledKernel.expand`
and ``sample_transition``).  Both readings of the operator share that
pass: footnote 1 merges rows that agree on the non-weight columns by
summing their weights (detected on sorted rows by comparing each row
with the next; when it fires — rare in the paper's workloads — the
summed fractions are computed exactly and interned dynamically), and
the rows are then grouped in canonical ``(key columns, full row)``
order under the rank permutation, which reduces to a plain sort while
no dynamic intern has happened.

:func:`repair_instances` then either enumerates every world of every
instance with exact ``Fraction`` probabilities, or, given a generator,
draws one: a uniform group consumes one ``randrange``, a weighted group
one ``random()`` compared against the sequential float accumulation of
the symbol table's cached weights.  That is the RNG stream of
:func:`repro.relational.repair.sample_repair` bit for bit, so a fixed
seed draws the same worlds here and in the frozenset interpreter.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np

from repro.kernel.columnar import normalize_rows
from repro.kernel.symbols import SymbolTable

__all__ = ["repair_instances"]

#: Distinct groups a repair node remembers the probabilities of; past
#: it the memo starts over, which bounds its memory.
_MEMO_LIMIT = 4096


def repair_instances(
    data: np.ndarray,
    owner: np.ndarray,
    weights: list[Fraction] | None,
    table: SymbolTable,
    key_idx: list[int],
    widx: int | None,
    memo: dict,
    rng: random.Random | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Fraction] | None]:
    """All possible worlds of ``repair-key`` over a batch of instances,
    or one drawn world per instance when ``rng`` is given.

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

    With ``rng``, each group picks one row instead, groups in order, so
    every instance stays one instance with its owner and weight.  Every
    weight is validated before the first draw, as the interpreter does.
    """
    if data.shape[0] == 0:
        return data, owner, weights
    if rng is not None and widx is not None:
        for symbol_id in data[:, widx].tolist():
            table.check_weight(symbol_id)
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
    if rng is not None:
        out = data[np.asarray(_draw(data, starts, ends, table, widx, rng), dtype=np.int64)]
        # Picked in (instance, key) order: already sorted when that is
        # raw-id row order.
        return (out if rank is None and prefix else normalize_rows(out)), owner, weights
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


def _draw(
    data: np.ndarray,
    starts: list[int],
    ends: list[int],
    table: SymbolTable,
    widx: int | None,
    rng: random.Random,
) -> list[int]:
    """One row per group: the stream of
    :func:`repro.relational.repair.sample_repair`."""
    if widx is None:
        return [start + rng.randrange(end - start) for start, end in zip(starts, ends)]
    floats = table.float_list()
    weights = [floats[i] for i in data[:, widx].tolist()]
    chosen = []
    for start, end in zip(starts, ends):
        group = weights[start:end]
        pick = rng.random() * sum(group)
        acc = 0.0
        selected = end - 1
        for offset, weight in enumerate(group):
            acc += weight
            if pick < acc:
                selected = start + offset
                break
        chosen.append(selected)
    return chosen


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
