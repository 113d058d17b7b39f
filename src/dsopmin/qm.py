"""Quine-McCluskey exact two-level minimization.

Phase one builds all prime implicants by iterative adjacency merging
of minterm groups; phase two solves the prime-implicant chart exactly.
The chart is in truth-table bits: a row is its prime's ``cube_mask``,
a column is a minterm bit, and the uncovered columns are one int.  Each
round holds the chart both ways, rows to their useful columns and
columns to their live rows.  Essentials (the rows of columns with one
live row) and two dominance rules reduce the chart to a cyclic core.
One nested-set search serves both rules: ANDing the other view over a
set's elements finds the sets that hold it, with no pairwise pass and
no complements.  A row inside another row goes, and so does a column
that holds another column (of equal sets, all but the least ranked).
Branch and bound then covers the core: a loop over an explicit stack,
so no recursion limit bounds how deep the search goes.
"""

from __future__ import annotations

from math import ceil
from typing import Callable, Dict, List, Sequence, Set, Tuple

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


def _transpose(sets: Dict[int, int]) -> Dict[int, int]:
    """The chart's other view: each element bit to the keys whose sets hold it."""
    view: Dict[int, int] = {}
    for key, members in sets.items():
        while members:
            bit = members & -members
            members ^= bit
            view[bit] = view.get(bit, 0) | key
    return view


def _nested(sets: Dict[int, int], view: Dict[int, int], rank: Callable) -> Tuple[int, int]:
    """The keys of sets that lie inside another set, and of sets that hold
    another; of equal sets, the one of lower rank counts as the outer one.

    Keys are distinct bits, and ``view`` maps each element to the keys
    whose sets hold it, so the AND of ``view`` over a set's elements is
    the keys of its supersets, its own key among them (a pair of a set
    with itself never counts: its rank is not lower).  The AND starts
    from every key, so an empty set lies inside each other set.
    """
    everyone = sum(sets)  # a sum of distinct bits is their union
    inner = outer = 0
    for key, members in sets.items():
        holders = everyone
        while members and holders != key:
            bit = members & -members
            members ^= bit
            holders &= view[bit]
        while holders:
            other = holders & -holders
            holders ^= other
            if sets[other] != sets[key] or rank(other) < rank(key):
                inner, outer = inner | key, outer | other
    return inner, outer


def _reduce_chart(
    masks: Sequence[int], keys: Sequence[RowKey], uncovered: int
) -> Tuple[List[int], List[int], int]:
    """Essentials plus dominance to a fixpoint.

    Rows are indices into ``masks`` and ``keys``.  The chart is held both
    ways: ``rows`` maps ``1 << k`` to the uncovered columns row k covers,
    and ``columns`` maps a column bit to its live rows, made from ``rows``
    once per round.  A column with one live row makes that row essential.
    Returns the chosen essential rows, the rows of the cyclic core in index
    order, and the core's uncovered columns.
    """
    rows = {1 << k: mask & uncovered for k, mask in enumerate(masks) if mask & uncovered}
    columns = _transpose(rows)
    chosen: List[int] = []
    while True:
        # essentials: the row of a column with one live row, and the columns
        # those rows cover (a sum of distinct bits is their union); columns
        # still holds the columns the last round's column rule removed
        essential = sum({col for bit, col in columns.items()
                         if bit & uncovered and not col & (col - 1)})
        chosen += [key.bit_length() - 1 for key in rows if key & essential]
        uncovered ^= sum(bit for bit, col in columns.items() if bit & uncovered and col & essential)

        # rows: of the rows that cover something uncovered, drop a row whose
        # useful coverage lies inside another's; on equal coverage keep the
        # least key.  columns may name rows gone since it was made, which
        # _nested's AND, starting from the live rows, leaves out
        rows = {key: useful & uncovered for key, useful in rows.items() if useful & uncovered}
        inner, _ = _nested(rows, columns, lambda key: keys[key.bit_length() - 1])
        rows = {key: useful for key, useful in rows.items() if not key & inner}

        # columns: a column whose live rows hold another column's is covered
        # whenever that one is, so it goes; on equal row sets keep the least
        # bit.  This rule compares the row sets left by the row rule, so
        # columns is made again here
        columns = _transpose(rows)
        _, removed = _nested(columns, rows, lambda bit: -bit)
        uncovered ^= removed
        if not (essential or inner or removed):
            return chosen, [key.bit_length() - 1 for key in rows], uncovered


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
