"""Vectorized relational operator kernels over normalized ID arrays.

Every function here maps normalized ``(n, arity)`` ID arrays to a
normalized result array; schema bookkeeping lives in the compiled plan
(:mod:`repro.kernel.compile`).  Three implementation techniques carry
all of them:

* **Row encoding** — a block of columns is folded into one scalar key
  per row with :func:`np.ravel_multi_index` over the symbol universe
  (IDs are dense, so ``U**k`` fits ``int64`` for every realistic
  schema); set membership and join-key matching become 1-D sorted-array
  operations (``searchsorted``).  When ``U**k`` would overflow, the
  kernels fall back to byte-key Python sets — correct, merely slower.
* **Bitset fast path** — arity-1 relations (the frontier/current-node
  relations of all the paper's walk examples) short-circuit union,
  difference and intersection through a boolean mask over the universe.
* **Range gather** — the natural join matches sorted key blocks with
  two ``searchsorted`` calls and expands match ranges without a Python
  loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.columnar import normalize_rows

__all__ = [
    "encode_rows",
    "union",
    "difference",
    "intersection",
    "project",
    "product",
    "natural_join",
    "join_index",
    "member_mask",
]

_EMPTY = np.empty(0, dtype=np.int64)


def encode_rows(data: np.ndarray, universe: int) -> np.ndarray | None:
    """Fold each row into one int64 key, or None when ``U**k`` overflows.

    Keys preserve lexicographic row order (base-``U`` positional
    encoding), so the keys of a normalized array are sorted ascending.
    """
    n, k = data.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    if k == 1:
        return data[:, 0]
    base = max(universe, 1)
    if base ** k >= 2 ** 62:
        return None
    return np.ravel_multi_index(
        tuple(data[:, i] for i in range(k)), dims=(base,) * k
    ).astype(np.int64, copy=False)


def member_mask(rows: np.ndarray, others: np.ndarray, universe: int) -> np.ndarray:
    """Boolean mask: which rows of ``rows`` occur in ``others``.

    Both inputs must be normalized arrays of the same arity.
    """
    if rows.shape[0] == 0 or others.shape[0] == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    keys = encode_rows(rows, universe)
    other_keys = encode_rows(others, universe)
    if keys is None or other_keys is None:
        other_set = {row.tobytes() for row in others}
        return np.fromiter(
            (row.tobytes() in other_set for row in rows), dtype=bool, count=rows.shape[0]
        )
    positions = np.searchsorted(other_keys, keys)
    positions[positions >= other_keys.shape[0]] = other_keys.shape[0] - 1
    return other_keys[positions] == keys


def _mask_of(ids: np.ndarray, universe: int) -> np.ndarray:
    mask = np.zeros(universe, dtype=bool)
    mask[ids] = True
    return mask


def union(a: np.ndarray, b: np.ndarray, universe: int) -> np.ndarray:
    """Set union of two normalized arrays (same arity)."""
    if a.shape[0] == 0:
        return b
    if b.shape[0] == 0:
        return a
    if a.shape[1] == 1:
        mask = _mask_of(a[:, 0], universe)
        mask[b[:, 0]] = True
        return np.flatnonzero(mask).astype(np.int64).reshape(-1, 1)
    return normalize_rows(np.concatenate([a, b], axis=0))


def difference(a: np.ndarray, b: np.ndarray, universe: int) -> np.ndarray:
    """Set difference a − b of two normalized arrays (same arity)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return a
    if a.shape[1] == 1:
        mask = _mask_of(a[:, 0], universe)
        mask[b[:, 0]] = False
        return np.flatnonzero(mask).astype(np.int64).reshape(-1, 1)
    keep = ~member_mask(a, b, universe)
    return a[keep]


def intersection(a: np.ndarray, b: np.ndarray, universe: int) -> np.ndarray:
    """Set intersection of two normalized arrays (same arity)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return a[:0]
    if a.shape[1] == 1:
        mask = _mask_of(a[:, 0], universe) & _mask_of(b[:, 0], universe)
        return np.flatnonzero(mask).astype(np.int64).reshape(-1, 1)
    return a[member_mask(a, b, universe)]


def project(data: np.ndarray, indices: list[int]) -> np.ndarray:
    """Projection onto the given column positions (set semantics)."""
    picked = np.ascontiguousarray(data[:, indices])
    if picked.shape[0] <= 1 or picked.shape[1] == 0:
        return picked[:1] if picked.shape[1] == 0 and picked.shape[0] > 1 else picked
    return normalize_rows(picked)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cartesian product; result is normalized because inputs are."""
    na, nb = a.shape[0], b.shape[0]
    if na == 0 or nb == 0:
        return np.empty((0, a.shape[1] + b.shape[1]), dtype=np.int64)
    left = np.repeat(a, nb, axis=0)
    right = np.tile(b, (na, 1))
    # Inputs are sorted and unique, so (row_a, row_b) pairs in this
    # order are sorted and unique too — no re-normalization needed.
    return np.concatenate([left, right], axis=1)


def _key_column(
    data: np.ndarray, columns: list[int], universe: int
) -> np.ndarray | None:
    """:func:`encode_rows` of ``data[:, columns]``; one column is its own
    key, read without a copy."""
    if len(columns) == 1:
        return data[:, columns[0]]
    return encode_rows(np.ascontiguousarray(data[:, columns]), universe)


def join_index(
    b: np.ndarray, b_shared: list[int], universe: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """What :func:`natural_join` searches on its right side: the encoded
    shared-column keys in ascending order and the stable order that sorts
    them (None when they already ascend), or None when keys overflow."""
    kb = _key_column(b, b_shared, universe)
    if kb is None:
        return None
    if b_shared == list(range(len(b_shared))):
        # The shared block is a prefix of b's (lexicographically sorted)
        # rows, so its encoded keys are already ascending.
        return kb, None
    order = kb.argsort(kind="stable")
    return kb[order], order


def natural_join(
    a: np.ndarray,
    a_shared: list[int],
    b: np.ndarray,
    b_shared: list[int],
    b_keep: list[int],
    universe: int,
    index: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> np.ndarray:
    """Natural join: match the shared-column blocks, keep ``b_keep``
    columns of the right side.  ``index`` is ``join_index(b, b_shared,
    universe)`` when the caller keeps it.

    The result is normalized when both inputs are: left rows come in
    order, and each one's matches in the right side's order.
    """
    width = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty((0, width + len(b_keep)), dtype=np.int64)
    ka = _key_column(a, a_shared, universe)
    if index is None:
        index = join_index(b, b_shared, universe)
    if ka is None or index is None:
        return _join_fallback(a, a_shared, b, b_shared, b_keep)
    kb_sorted, order = index
    if a.shape[0] == 1:
        # Singleton left side (the frontier relation of every walk
        # workload): one binary search, one contiguous slice.
        key = ka[0]
        lo = int(kb_sorted.searchsorted(key))
        hi = int(kb_sorted.searchsorted(key, side="right"))
        right_rows = slice(lo, hi) if order is None else order[lo:hi]
        out = np.empty((hi - lo, width + len(b_keep)), dtype=np.int64)
        out[:, :width] = a[0]
    else:
        lo = kb_sorted.searchsorted(ka)
        counts = kb_sorted.searchsorted(ka, side="right") - lo
        total = int(counts.sum())
        offsets = np.arange(total) - (counts.cumsum() - counts).repeat(counts)
        right_rows = lo.repeat(counts) + offsets
        if order is not None:
            right_rows = order[right_rows]
        out = np.empty((total, width + len(b_keep)), dtype=np.int64)
        out[:, :width] = a.repeat(counts, axis=0)
    out[:, width:] = b[right_rows].take(b_keep, axis=1)
    return out


def _join_fallback(
    a: np.ndarray, a_shared: list[int], b: np.ndarray, b_shared: list[int], b_keep: list[int]
) -> np.ndarray:
    buckets: dict[bytes, list[int]] = {}
    b_key_block = np.ascontiguousarray(b[:, b_shared])
    for i in range(b.shape[0]):
        buckets.setdefault(b_key_block[i].tobytes(), []).append(i)
    a_key_block = np.ascontiguousarray(a[:, a_shared])
    rows = []
    for i in range(a.shape[0]):
        for j in buckets.get(a_key_block[i].tobytes(), ()):  # pragma: no branch
            rows.append(np.concatenate([a[i], b[j, b_keep]]))
    if not rows:
        return np.empty((0, a.shape[1] + len(b_keep)), dtype=np.int64)
    return np.stack(rows)
