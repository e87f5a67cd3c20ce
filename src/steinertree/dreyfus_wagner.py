"""Dreyfus-Wagner over the metric closure for every terminal subset at once.

The package's one Dreyfus-Wagner program, in the Erickson-Monma-Veinott
form (Dreyfus and Wagner 1971; Erickson, Monma and Veinott 1987):
`_SharedTables` builds the tables every subset of up to `top` terminals
shares, finds each larger subset's root (`last_masks`), decides without
rebuilding a tree whether its terminals are leaves (`leaves`), and
rebuilds the trees of the subsets a caller reads (`trees`). The k >= 4
enumeration and the candidate table's reader (components) and the exact
optimum (exact.dw_closure_tree) run it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .errors import LimitExceededError


# Most int64 elements in one block of the shared Dreyfus-Wagner tables:
# 2**16 elements are 512 KiB. Every large temporary is a view of one work
# buffer, allocated once per table build and per last-mask pass at the size
# its chunk plan (`_plan`) needs: each half of a block of gathered splits,
# the V x V min-plus step over a block of destination columns, and the last
# masks' merged rows and per-q totals. Subsets (bases for the last masks)
# are chunked, a subset's splits folded a block at a time, and the min-plus
# step blocked over columns, so no block exceeds DW_CHUNK at any V (one
# closure row, V <= DW_CHUNK under DENSE_BUDGET, is the smallest block), and
# transient memory grows with neither the number of subsets nor of splits.
DW_CHUNK = 2**16

# Most bytes of the dense arrays over the V closure vertices that k >= 4
# enumeration and the exact optimum allocate: the distance matrix, 8 V^2
# bytes, and the shared tables, 16 bytes per table row and vertex (W in
# int64, relax and split in int32). 1 GiB keeps a solve well inside a
# machine of a few GiB: the matrix alone fits 11,585 vertices, and the
# exact optimum at its cap of 16 terminals (2**15 - 2 rows) 1,987.
DENSE_BUDGET = 2**30


def check_dense_budget(vertices: int, terminals: int, top: int, remedy: str) -> None:
    """Raise LimitExceededError when the distance matrix and the tables for
    up to `top` of all terminals but the last exceed DENSE_BUDGET."""
    rows = sum(math.comb(terminals - 1, s) for s in range(1, top + 1))
    need = 8 * vertices * vertices + 16 * vertices * rows
    if need > DENSE_BUDGET:
        raise LimitExceededError(
            f"the distance matrix and Dreyfus-Wagner tables over {vertices} vertices "
            f"need {need} bytes, above the budget of {DENSE_BUDGET}; {remedy}")


def _plan(rows: int, splits: int, nv: int, width: int) -> tuple[int, int, int]:
    """The chunk plan for `rows` rows of `splits` splits each over nv
    vertices, whose widest other block is `width` vertices per row and
    vertex: (rows per chunk n, splits or columns per block b, work buffer
    elements). A chunk's merged rows take n * nv elements, each gathered
    half n * min(b, splits) * nv and the other block n * min(b, width) * nv;
    all are within DW_CHUNK unless a single row and split (or column)
    already exceeds it."""
    n = min(rows, max(1, DW_CHUNK // (nv * max(width, splits))))
    b = max(1, DW_CHUNK // (n * nv))
    return n, b, n * nv * (1 + max(2 * min(b, splits), min(b, width)))


@functools.cache
def _bit_counts(width: int) -> np.ndarray:
    """The bit count of each sub-mask of `width` positions, read-only: one
    array per width for the process, so small tables do not rebuild it."""
    size = np.zeros(1, dtype=np.int64)
    for _ in range(width):
        size = np.concatenate([size, size + 1])
    size.flags.writeable = False
    return size


def _colex_levels(n: int, top: int) -> list[np.ndarray]:
    """For s = 0 .. top, the s-subsets of range(n) as increasing rows in
    colex order: row i has colex rank i, and the subsets of range(p) are
    the first C(p, s). Level s appends each largest element p to the first
    C(p, s - 1) rows of level s - 1."""
    levels = [np.zeros((1, 0), dtype=np.int64)]
    for s in range(1, top + 1):
        rows = np.empty((math.comb(n, s), s), dtype=np.int64)
        at = 0
        for p in range(s - 1, n):
            count = math.comb(p, s - 1)
            rows[at:at + count, :-1] = levels[-1][:count]
            rows[at:at + count, -1] = p
            at += count
        levels.append(rows)
    return levels


class _SharedTables:
    """Dreyfus-Wagner over the metric closure for every terminal subset at
    once, in the Erickson-Monma-Veinott form; the exact optimum
    (exact.dw_closure_tree) is the case of a single subset.

    A table W[S] depends only on the terminal set S, and a subset's base
    (every terminal but its last) never holds the last terminal. Local bit
    order preserves global rank, so the sub-mask order and the first-index
    argmins are those of every subset containing S: the tables for |S| up
    to `top` are built once, over the positions 0 .. r-2, and each subset
    adds only its last mask, evaluated at its last terminal.

    The tables are rows of three arrays of closure columns: W (the cheapest
    tree over S and one more vertex v), relax (the hub u it uses at v) and
    split (the local sub-mask chosen at u). The s-subsets take the rows from
    offset[s] on, in colex order; the single terminals (s = 1) come first,
    as their closure rows, each its own relax.
    """

    def __init__(self, D: np.ndarray, tidx: np.ndarray, top: int):
        self.D = D
        self.tidx = tidx
        r, nv = len(tidx), D.shape[0]
        # C(p, j) for each position p and width j, and the bit count of
        # each sub-mask of up to top + 1 positions.
        self._binom = np.array([math.comb(p, j) for p in range(r) for j in range(top + 2)],
                               dtype=np.int64).reshape(r, top + 2)
        self._size = _bit_counts(top + 1)
        self._subsets = _colex_levels(r - 1, top + 1)
        self.offset = np.cumsum([0, 0] + [len(self._subsets[s]) for s in range(1, top + 1)])
        self.W = np.empty((self.offset[-1], nv), dtype=np.int64)
        self.relax = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.split = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.W[:r - 1] = D[tidx[:r - 1]]
        self.relax[:r - 1] = tidx[:r - 1, None]
        plans = [_plan(len(self._subsets[s]), (1 << (s - 1)) - 1, nv, nv)
                 for s in range(2, top + 1)]
        work = np.empty(max((size for *_, size in plans), default=0), dtype=np.int64)
        for s, (step, block, _) in zip(range(2, top + 1), plans):
            subsets = self._subsets[s]
            for at in range(0, len(subsets), step):
                chunk = subsets[at:at + step]
                rows = slice(self.offset[s] + at, self.offset[s] + at + len(chunk))
                n = len(chunk)
                merged, rest = work[:n * nv].reshape(n, nv), work[n * nv:]
                subs, halves = self.splits(chunk)
                self.split[rows] = self._fold(subs, halves, block, merged, rest, choose=True)
                # [i, v, u] is merged[i, u] + D[u, v] over a block of
                # columns v, in the buffer the splits were gathered into;
                # closure distances are symmetric, and the argmin over u
                # takes the first u.
                for c in range(0, nv, block):
                    cols = min(block, nv - c)
                    total = np.add(merged[:, None, :], D[c:c + cols],
                                   out=rest[:n * cols * nv].reshape(n, cols, nv))
                    relax = total.argmin(axis=2)
                    self.relax[rows, c:c + cols] = relax
                    self.W[rows, c:c + cols] = total.reshape(-1, nv)[
                        np.arange(relax.size), relax.ravel()].reshape(relax.shape)

    def _part_rows(self, base: np.ndarray) -> np.ndarray:
        """The table row of every part of each row of increasing positions,
        as [part bits, row]: the binomial sum of its positions, filled in by
        the highest bit, plus the offset of its size (for one, its position)."""
        size = self._size[:1 << base.shape[1]]
        rows = np.zeros((len(size), len(base)), dtype=np.int64)
        for j in range(base.shape[1]):
            high = slice(1 << j, 2 << j)
            rows[high] = rows[:1 << j] + self._binom.T[size[high]][:, base[:, j]]
        return rows + self.offset[size][:, None]

    def splits(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For rows of increasing positions: the local sub-masks of the parts
        holding the row's first position, in decreasing order, and the table
        rows of each part and its rest, as [half, split, row]."""
        full = (1 << base.shape[1]) - 1
        subs = np.arange(full - 2, 0, -2)  # the odd proper sub-masks
        rows = self._part_rows(base)
        return subs, np.stack([rows[subs], rows[full ^ subs]])

    def _fold(self, subs: np.ndarray, halves: np.ndarray, block: int, merged: np.ndarray,
              work: np.ndarray, choose: bool) -> np.ndarray | None:
        """Fill `merged` with W[part] + W[rest] minimized over the splits, as
        [row, vertex], gathering `block` splits at a time into `work`; with
        `choose`, also return the sub-mask of the first minimum at every
        vertex, the largest sub-mask attaining it, which keeps the earlier
        split on a tie. The splits come in decreasing sub-mask order, and a
        later block replaces the running minimum only where it is strictly
        lower, so the fold picks what one pass over all splits would."""
        nv = merged.shape[1]
        for at in range(0, len(subs), block):
            part, rest = halves[0, at:at + block], halves[1, at:at + block]
            shape, size = (*part.shape, nv), part.size * nv
            # take's `out` is filled in place only outside mode "raise".
            cand = self.W.take(part, axis=0, mode="clip", out=work[:size].reshape(shape))
            cand += self.W.take(rest, axis=0, mode="clip", out=work[size:2 * size].reshape(shape))
            if at == 0:
                cand.min(axis=0, out=merged)
                choice = subs[cand.argmin(axis=0)] if choose else None
            else:
                low = cand.min(axis=0)
                lower = low < merged
                np.copyto(merged, low, where=lower)
                if choose:
                    np.copyto(choice, subs[at + cand.argmin(axis=0)], where=lower)
        return choice

    def last_masks(self, m: int) -> Iterator[tuple[np.ndarray, ...]]:
        """Every m-subset's optimal tree root: (the subsets as increasing
        positions, the hub u minimizing merged[u] + D[u, q] for the last
        position q, that tree's cost, the split chosen at u, and the table
        rows of its part and rest as [row, half]), in batches of about
        DW_CHUNK tree ends. The bases (every position but the last) are
        merged once, a chunk at a time, and each chunk is read at every q
        above it: in colex order the bases over positions below q are the
        first C(q, m - 1). The split is chosen only at the hub. Merged rows
        and totals live in one work buffer for the whole pass."""
        bases, nv = self._subsets[m - 1], self.D.shape[0]
        step, block, size = _plan(len(bases), (1 << (m - 2)) - 1, nv, 1)
        work = np.empty(size, dtype=np.int64)
        batch: list[tuple[np.ndarray, ...]] = []
        held = 0  # the rows in batch
        for at in range(0, len(bases), step):
            chunk = bases[at:at + step]
            merged, rest = work[:len(chunk) * nv].reshape(-1, nv), work[len(chunk) * nv:]
            totals = rest[:len(chunk) * nv].reshape(-1, nv)
            subs, halves = self.splits(chunk)
            # The splits are read again at the hubs alone, from W.
            self._fold(subs, halves, block, merged, rest, choose=False)
            for q in range(m - 1, len(self.tidx)):
                n = min(len(chunk), math.comb(q, m - 1) - at)
                if n <= 0:
                    continue
                total = np.add(merged[:n], self.D[self.tidx[q]], out=totals[:n])
                hub = total.argmin(axis=1)
                at_hub = self.W[halves[0, :, :n], hub] + self.W[halves[1, :, :n], hub]
                best = at_hub.argmin(axis=0)
                batch.append((np.column_stack([chunk[:n], np.full(n, q)]), hub,
                              total[np.arange(n), hub], subs[best],
                              halves[:, best, np.arange(n)].T))
                held += n
                if held * 2 * (2 * m - 3) >= DW_CHUNK:
                    yield tuple(np.concatenate(col) for col in zip(*batch))
                    batch, held = [], 0
        if batch:
            yield tuple(np.concatenate(col) for col in zip(*batch))

    def leaves(self, subsets: np.ndarray, hub: np.ndarray, split: np.ndarray,
               parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each subset of a batch of last masks: whether its terminals
        are its tree's leaves, and the tree's interior node count, without
        rebuilding the tree. The interior nodes are the hub and the relax
        vertex of every part of two or more terminals, and each terminal's
        own edge joins it to one of them, so the terminals are the leaves
        exactly when none of those is a subset terminal. A relax vertex
        equal to the vertex above it is that node (`trees` leaves the edge
        between them out), so it counts once. The walk starts from `parts`,
        the halves chosen at the hub: at m = 4 it is one gather, the relax
        vertex of the two-terminal half at the hub."""
        n, mu = subsets.shape[0], subsets.shape[1] - 1
        size, bits, terms = self._size, 1 << np.arange(mu), self.tidx[subsets.T]

        def terminal(at: np.ndarray, row: np.ndarray | slice) -> np.ndarray:
            """Whether each vertex `at` is one of its row's terminals."""
            out = terms[0, row] == at
            for column in terms[1:]:
                out |= column[row] == at
            return out

        everyone = np.arange(n)
        hit, count = terminal(hub, slice(None)), np.ones(n, dtype=np.int16)
        # Groups of parts hanging from a vertex `above`, each row at most
        # once in a group: (row, part as base columns, its table row, above).
        groups = [(everyone, split, parts[:, 0], hub),
                  (everyone, bits.sum() ^ split, parts[:, 1], hub)]
        row_of = None
        while groups:
            row, mask, table, above = groups.pop()
            multi = size[mask] > 1  # a single terminal's relax vertex is itself
            row, mask, table, above = row[multi], mask[multi], table[multi], above[multi]
            at = self.relax[table, above]
            hit[row] |= terminal(at, row)
            count[row] += at != above
            deeper = size[mask] > 2  # a 2-part splits into single terminals
            if deeper.any():
                if row_of is None:
                    row_of = self._part_rows(subsets[:, :-1])
                row, mask, table, at = row[deeper], mask[deeper], table[deeper], at[deeper]
                part = _part_bits(mask, self.split[table, at], bits)
                groups += [(row, half, row_of[half, row], at) for half in (part, mask ^ part)]
        return ~hit, count

    def trees(self, subsets: np.ndarray, hub: np.ndarray, split: np.ndarray) -> np.ndarray:
        """Closure edges of each subset's tree, as (child, parent) indices in
        a (2, 2m - 3, rows) array: `hub` joined to the last terminal q, and
        the parts of the other terminals split by `split` hanging from it,
        each rebuilt from its table, one split level at a time for all rows.
        Edges go depth first, part before rest: a part of p terminals takes
        2p - 1 slots, its own edge first. Edges whose ends coincide are
        left out; each row's edges come first, padded with -1."""
        base = subsets[:, :-1]
        n, mu = base.shape
        row_of, size, bits = self._part_rows(base), self._size, 1 << np.arange(mu)
        ends = np.full((2, (2 * mu - 1) * n), -1, dtype=np.int64)  # [end, slot * n + row]
        ends[:, :n] = hub, self.tidx[subsets[:, -1]]
        # The parts that split at their hub: row, base columns as bits, the
        # hub, the local sub-mask chosen there, the slot of the edge to it.
        row, mask, at, sub, slot = np.arange(n), np.full(n, bits.sum()), hub, split, 0 * hub
        while len(row):
            part = _part_bits(mask, sub, bits)
            halves = np.concatenate([part, mask ^ part])
            slot = np.concatenate([slot + 1, slot + 2 * size[part]])
            row, above = np.concatenate([row, row]), np.concatenate([at, at])
            table = row_of[halves, row]
            at = self.relax[table, above]  # a single terminal's own vertex
            ends[:, slot * n + row] = at, above
            more = size[halves] > 1
            row, mask, at, slot = row[more], halves[more], at[more], slot[more]
            sub = self.split[table[more], at]
        ends = ends.reshape(2, 2 * mu - 1, n)
        ends[:, ends[0] == ends[1]] = -1
        return np.take_along_axis(ends, (ends[:1] < 0).argsort(axis=1, kind="stable"), axis=1)


def _part_bits(mask: np.ndarray, sub: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The part of each base-column `mask` that a local sub-mask `sub`
    picks: the columns whose rank among the mask's columns is in `sub`."""
    on = mask[:, None] & bits != 0
    return ((sub[:, None] >> (on.cumsum(axis=1) - on) & on) * bits).sum(axis=1)
