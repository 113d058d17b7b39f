"""Quine-McCluskey exact two-level minimization.

Phase one builds all prime implicants by iterative adjacency merging
of minterm groups; phase two solves the prime-implicant chart exactly.
The chart is in truth-table bits: a row is its prime's ``cube_mask``,
a column is a minterm bit, and the uncovered columns are one int.
Essentials and row/column dominance reduce it to a cyclic core, which
branch and bound then covers.
"""

from __future__ import annotations

from math import ceil
from typing import List, Sequence, Set, Tuple

from .boolfn import Cover, Cube, TruthTable, cube_mask, format_cube

MAX_QM_VARS = 16

# A row's tie-break key, _row_key below: (literal count, cube text).
RowKey = Tuple[int, str]


def _check_n(n: int) -> None:
    if n > MAX_QM_VARS:
        raise ValueError(f"variable count {n} exceeds QM limit {MAX_QM_VARS}")


def prime_implicants(tt: TruthTable) -> List[Cube]:
    """All prime implicants by classic tabulation, ordered by cube text.

    Implicants are (care, value) pairs.  Two merge iff they share care
    and differ in one value bit, so each implicant looks up only its
    neighbour across each of its 0-literals.
    """
    _check_n(tt.n)
    n = tt.n
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


def _row_key(cube: Cube) -> RowKey:
    return (cube.literal_count(), format_cube(cube))


def _solution_key(keys: Sequence[RowKey], rows: Sequence[int]) -> Tuple[int, int, Tuple[str, ...]]:
    """Cubes, then literals, then sorted cube text: the order exact covers minimize."""
    texts = tuple(sorted(keys[k][1] for k in rows))
    return (len(rows), sum(keys[k][0] for k in rows), texts)


def _reduce_chart(
    masks: Sequence[int], keys: Sequence[RowKey], uncovered: int
) -> Tuple[List[int], List[int], int]:
    """Essentials plus row/column dominance to a fixpoint.

    Rows are indices into ``masks`` and ``keys``.  Returns the chosen
    essential rows, the rows of the cyclic core in index order, and the
    core's uncovered columns.
    """
    chosen: List[int] = []
    rows = list(range(len(masks)))
    changed = True
    while changed and uncovered:
        changed = False

        # essentials: the rows holding a column that no other row covers
        once = twice = 0
        for k in rows:
            twice |= once & masks[k]
            once |= masks[k]
        alone = uncovered & once & ~twice
        if alone:
            essential = [k for k in rows if masks[k] & alone]
            chosen += essential
            for k in essential:
                uncovered &= ~masks[k]
            rows = [k for k in rows if not masks[k] & alone]
            changed = True
        if not uncovered:
            break

        # row dominance: drop rows whose useful coverage fits inside another's
        useful = [masks[k] & uncovered for k in rows]
        drop = [False] * len(rows)
        for i, ui in enumerate(useful):
            if drop[i]:
                continue
            for j in range(i + 1, len(rows)):
                if drop[j]:
                    continue
                uj = useful[j]
                if not ui & ~uj:
                    # on equal coverage keep the cheaper, deterministic row
                    if ui != uj or keys[rows[i]] > keys[rows[j]]:
                        drop[i] = True
                        break
                    drop[j] = True
                elif not uj & ~ui:
                    drop[j] = True
        if any(drop):
            rows = [k for k, dropped in zip(rows, drop) if not dropped]
            changed = True

        # column dominance: a minterm whose row set contains another's is easier
        # (a column's rows are an int over positions in rows)
        cols = []
        rest = uncovered
        while rest:
            bit = rest & -rest
            rest ^= bit
            cols.append((bit, sum(1 << i for i, k in enumerate(rows) if masks[k] & bit)))
        removed = 0
        for m1, r1 in cols:
            if removed & m1:
                continue
            for m2, r2 in cols:
                if m1 == m2 or removed & m2:
                    continue
                if not r2 & ~r1 and (r2 != r1 or m2 < m1):
                    removed |= m1
                    break
        if removed:
            uncovered &= ~removed
            changed = True

    rows = [k for k in rows if masks[k] & uncovered]
    return chosen, rows, uncovered


def _branch_and_bound(
    masks: Sequence[int], keys: Sequence[RowKey], rows: Sequence[int], uncovered: int
) -> List[int]:
    """Minimum cover of the uncovered columns over rows, by _solution_key."""
    rows = sorted(rows, key=lambda k: keys[k])
    best: List[int] = list(rows)  # trivially feasible upper bound
    best_key = _solution_key(keys, best)

    def recurse(chosen: List[int], remaining: List[int], todo: int) -> None:
        nonlocal best, best_key
        if not todo:
            key = _solution_key(keys, chosen)
            if key < best_key:
                best, best_key = list(chosen), key
            return
        usable = []
        counts = []
        for k in remaining:
            count = (masks[k] & todo).bit_count()
            if count:
                usable.append(k)
                counts.append(count)
        if not usable:
            return
        max_cov = max(counts)
        if len(chosen) + ceil(todo.bit_count() / max_cov) > best_key[0]:
            return
        # branch on the most-covering row; usable is in key order, so the
        # first such row is the deterministic tie-break
        i = counts.index(max_cov)
        pivot = usable[i]
        rest = usable[:i] + usable[i + 1:]
        recurse(chosen + [pivot], rest, todo & ~masks[pivot])
        recurse(chosen, rest, todo)

    recurse([], rows, uncovered)
    return best


def exact_cover(tt: TruthTable) -> Cover:
    """Minimum-cardinality prime cover; ties by literals, then cube text."""
    _check_n(tt.n)
    if tt.bits == 0:
        return Cover(tt.n, ())
    primes = prime_implicants(tt)
    masks = [cube_mask(p) for p in primes]
    keys = [_row_key(p) for p in primes]
    chosen, rows, uncovered = _reduce_chart(masks, keys, tt.bits)
    if uncovered:
        chosen += _branch_and_bound(masks, keys, rows, uncovered)
    return Cover(tt.n, tuple(sorted((primes[k] for k in chosen), key=format_cube)))
