"""Quine-McCluskey exact two-level minimization.

Phase one builds all prime implicants by iterative adjacency merging
of minterm groups; phase two solves the prime-implicant chart exactly.
The chart is in truth-table bits: a row is its prime's ``cube_mask``,
a column is a minterm bit, and the uncovered columns are one int.  Each
column's row set, an int over row indices, is made once; every round
reads it restricted to the live rows.  Essentials (the rows of columns
with one live row) and one dominance rule reduce the chart to a cyclic
core: the rule drops a set that lies inside another (of equal sets, all
but the least ranked), applied to the rows' useful coverage and to the
complements of the columns' live row sets.  Branch and bound then covers
the core: a loop over an explicit stack, so no recursion limit bounds
how deep the search goes.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Sequence, Set, Tuple

from .boolfn import Cover, Cube, TruthTable, cube_mask, format_cube

MAX_QM_VARS = 16

# A chart row's tie-break key: (literal count, prime index).  Primes are
# in cube-text order, so the index ranks equal counts as their text would.
RowKey = Tuple[int, int]


def prime_implicants(tt: TruthTable) -> List[Cube]:
    """All prime implicants by classic tabulation, ordered by cube text.

    Implicants are (care, value) pairs.  Two merge iff they share care
    and differ in one value bit, so each implicant looks up only its
    neighbour across each of its 0-literals.
    """
    n = tt.n
    if n > MAX_QM_VARS:
        raise ValueError(f"variable count {n} exceeds QM limit {MAX_QM_VARS}")
    current: Set[Tuple[int, int]] = {((1 << n) - 1, m) for m in tt.minterms()}

    primes: Set[Tuple[int, int]] = set()
    while current:
        merged: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        for care, value in current:
            zeros = care & ~value
            while zeros:
                bit = zeros & -zeros
                zeros ^= bit
                if (care, value | bit) in current:
                    merged.add((care ^ bit, value))
                    used.add((care, value))
                    used.add((care, value | bit))
        primes.update(current - used)
        current = merged

    return sorted((Cube(n, care, value) for care, value in primes), key=format_cube)


def _solution_key(keys: Sequence[RowKey], rows: Sequence[int]) -> Tuple[int, int, Tuple[int, ...]]:
    """Cubes, then literals, then sorted prime indices: the order exact covers minimize."""
    return (len(rows), sum(keys[k][0] for k in rows), tuple(sorted(rows)))


def _dominated(sets: Sequence[int], rank: Sequence) -> List[bool]:
    """Which sets lie inside another set of the list; of equal sets, all
    but the one of least rank.

    A dropped set's chain of dominators ends in a kept set, which also
    dominates it, so a set is compared only with sets not yet dropped and
    the result does not depend on the order of the list: callers may pass
    the sets in any order.
    """
    drop = [False] * len(sets)
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets[i + 1:], i + 1):
            if drop[i]:
                break
            if drop[j]:
                continue
            common = si & sj  # not si & ~sj: an AND with a negative int is slower
            if common == si:
                drop[i if si != sj or rank[i] > rank[j] else j] = True
            elif common == sj:
                drop[j] = True
    return drop


def _reduce_chart(
    masks: Sequence[int], keys: Sequence[RowKey], uncovered: int
) -> Tuple[List[int], List[int], int]:
    """Essentials plus dominance to a fixpoint.

    Rows are indices into ``masks`` and ``keys``.  Each column's row set
    (an int over row indices) is made once, in one pass over the masks,
    and each round restricts it to the live rows: a column with one live
    row makes that row essential.  Returns the chosen essential rows, the
    rows of the cyclic core in index order, and the core's uncovered
    columns.
    """
    columns: Dict[int, int] = {}
    for k, mask in enumerate(masks):
        rest = mask & uncovered
        while rest:
            bit = rest & -rest
            rest ^= bit
            columns[bit] = columns.get(bit, 0) | 1 << k
    chosen: List[int] = []
    rows = list(range(len(masks)))
    alive = (1 << len(masks)) - 1
    changed = True
    while changed:
        columns = {bit: col & alive for bit, col in columns.items() if bit & uncovered}

        # essentials: the row of a column with one live row, and the columns
        # those rows cover (a sum of distinct bits is their union)
        essential = sum({col for col in columns.values() if not col & (col - 1)})
        chosen += [k for k in rows if essential >> k & 1]
        uncovered ^= sum(bit for bit, col in columns.items() if col & essential)

        # rows: of the rows that cover something uncovered, drop a row whose
        # useful coverage lies inside another's; on equal coverage keep the
        # least key
        rows = [k for k in rows if masks[k] & uncovered]
        drop = _dominated([masks[k] & uncovered for k in rows], [keys[k] for k in rows])
        rows = [k for k, dropped in zip(rows, drop) if not dropped]
        alive = sum(1 << k for k in rows)

        # columns: a column whose row set holds another column's is covered
        # whenever that one is, so the same rule runs on the complements of
        # the live row sets; on equal row sets keep the least bit.  The
        # columns go in first-seen order, which _dominated allows.
        bits = [bit for bit in columns if bit & uncovered]
        outside = [alive ^ (columns[bit] & alive) for bit in bits]
        removed = sum(bit for bit, dropped in zip(bits, _dominated(outside, bits)) if dropped)
        uncovered ^= removed
        changed = bool(essential or removed) or any(drop)
    return chosen, rows, uncovered


def _branch_and_bound(
    masks: Sequence[int], keys: Sequence[RowKey], rows: Sequence[int], uncovered: int
) -> List[int]:
    """Minimum cover of the uncovered columns over rows, by _solution_key.

    Depth first over a stack of (chosen, remaining, todo) nodes.  A
    node's branch with its pivot is pushed last, so it is searched
    first, and each node is pruned against the best cover found before
    it is popped.
    """
    rows = sorted(rows, key=lambda k: keys[k])
    best: List[int] = list(rows)  # trivially feasible upper bound
    best_key = _solution_key(keys, best)
    stack: List[Tuple[List[int], List[int], int]] = [([], rows, uncovered)]
    while stack:
        chosen, remaining, todo = stack.pop()
        if not todo:
            key = _solution_key(keys, chosen)
            if key < best_key:
                best, best_key = chosen, key
            continue
        usable = []
        counts = []
        for k in remaining:
            count = (masks[k] & todo).bit_count()
            if count:
                usable.append(k)
                counts.append(count)
        if not usable:
            continue
        max_cov = max(counts)
        if len(chosen) + ceil(todo.bit_count() / max_cov) > best_key[0]:
            continue
        # branch on the most-covering row; usable is in key order, so the
        # first such row is the deterministic tie-break
        i = counts.index(max_cov)
        pivot = usable[i]
        rest = usable[:i] + usable[i + 1:]
        stack.append((chosen, rest, todo))
        stack.append((chosen + [pivot], rest, todo & ~masks[pivot]))
    return best


def exact_cover(tt: TruthTable) -> Cover:
    """Minimum-cardinality prime cover; ties by literals, then cube text."""
    primes = prime_implicants(tt)
    masks = [cube_mask(p) for p in primes]
    keys = [(p.literal_count(), k) for k, p in enumerate(primes)]
    chosen, rows, uncovered = _reduce_chart(masks, keys, tt.bits)
    if uncovered:
        chosen += _branch_and_bound(masks, keys, rows, uncovered)
    return Cover(tt.n, tuple(primes[k] for k in sorted(chosen)))
