"""Quine-McCluskey exact two-level minimization.

Phase one builds all prime implicants by iterative adjacency merging
of minterm groups; phase two solves the prime-implicant chart exactly:
essentials, then row/column dominance to a cyclic core, then Petrick
style exhaustive search on small cores or branch and bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import FrozenSet, List, Sequence, Set, Tuple

from .boolfn import Cover, Cube, TruthTable, cube_minterms, format_cube

MAX_QM_VARS = 16

# exhaustive subset search below this many chart columns, branch and bound above
_PETRICK_COLUMN_LIMIT = 12


@dataclass(frozen=True)
class Implicant:
    cube: Cube
    covered: FrozenSet[int]


def _check_n(n: int) -> None:
    if n > MAX_QM_VARS:
        raise ValueError(f"variable count {n} exceeds QM limit {MAX_QM_VARS}")


def prime_implicants(tt: TruthTable) -> List[Implicant]:
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

    out = []
    for care, value in primes:
        cube = Cube(n, care, value)
        out.append(Implicant(cube, frozenset(cube_minterms(cube))))
    out.sort(key=lambda p: format_cube(p.cube))
    return out


def _solution_key(primes: Sequence[Implicant]) -> Tuple[int, int, Tuple[str, ...]]:
    texts = tuple(sorted(format_cube(p.cube) for p in primes))
    literals = sum(p.cube.literal_count() for p in primes)
    return (len(primes), literals, texts)


def _row_key(p: Implicant) -> Tuple[int, str]:
    return (p.cube.literal_count(), format_cube(p.cube))


def _reduce_chart(
    rows: List[Implicant], uncovered: Set[int]
) -> Tuple[List[Implicant], List[Implicant], Set[int]]:
    """Essentials plus row/column dominance to a fixpoint."""
    chosen: List[Implicant] = []
    rows = list(rows)
    changed = True
    while changed and uncovered:
        changed = False

        # essentials of the remaining chart
        for m in list(uncovered):
            if m not in uncovered:
                continue
            covering = [r for r in rows if m in r.covered]
            if len(covering) == 1:
                e = covering[0]
                chosen.append(e)
                rows.remove(e)
                uncovered -= e.covered
                changed = True
        if not uncovered:
            break

        # row dominance: drop rows whose useful coverage fits inside another's
        drop: Set[int] = set()
        useful = [r.covered & uncovered for r in rows]
        for i, j in combinations(range(len(rows)), 2):
            if i in drop or j in drop:
                continue
            if useful[i] <= useful[j] and useful[j] <= useful[i]:
                # equal coverage: keep the cheaper, deterministic row
                loser = max(i, j, key=lambda k: _row_key(rows[k]))
                drop.add(loser)
            elif useful[i] <= useful[j]:
                drop.add(i)
            elif useful[j] <= useful[i]:
                drop.add(j)
        if drop:
            rows = [r for k, r in enumerate(rows) if k not in drop]
            changed = True

        # column dominance: a minterm whose row set contains another's is easier
        col_rows = {m: frozenset(k for k, r in enumerate(rows) if m in r.covered)
                    for m in uncovered}
        removed_cols = set()
        for m1 in sorted(uncovered):
            if m1 in removed_cols:
                continue
            for m2 in sorted(uncovered):
                if m1 == m2 or m2 in removed_cols:
                    continue
                if col_rows[m2] < col_rows[m1] or (
                    col_rows[m2] == col_rows[m1] and m2 < m1
                ):
                    removed_cols.add(m1)
                    break
        if removed_cols:
            uncovered -= removed_cols
            changed = True

    rows = [r for r in rows if r.covered & uncovered]
    return chosen, rows, uncovered


def _petrick(rows: List[Implicant], uncovered: Set[int]) -> List[Implicant]:
    """Minimum cover by exhaustive subset search, smallest size first."""
    order = sorted(range(len(rows)), key=lambda k: _row_key(rows[k]))
    for size in range(1, len(rows) + 1):
        best = None
        best_key = None
        for combo in combinations(order, size):
            covered: Set[int] = set()
            for k in combo:
                covered |= rows[k].covered
            if uncovered <= covered:
                sol = [rows[k] for k in combo]
                key = _solution_key(sol)
                if best_key is None or key < best_key:
                    best, best_key = sol, key
        if best is not None:
            return best
    return []


def _branch_and_bound(rows: List[Implicant], uncovered: Set[int]) -> List[Implicant]:
    order = sorted(range(len(rows)), key=lambda k: _row_key(rows[k]))
    rows = [rows[k] for k in order]
    best: List[Implicant] = list(rows)  # trivially feasible upper bound
    best_key = _solution_key(best)

    def recurse(chosen: List[Implicant], remaining: List[Implicant], todo: Set[int]) -> None:
        nonlocal best, best_key
        if not todo:
            key = _solution_key(chosen)
            if key < best_key:
                best, best_key = list(chosen), key
            return
        usable = [r for r in remaining if r.covered & todo]
        if not usable:
            return
        max_cov = max(len(r.covered & todo) for r in usable)
        if len(chosen) + ceil(len(todo) / max_cov) > best_key[0]:
            return
        # branch on the most-covering row, deterministic tie-break
        pivot = min(usable, key=lambda r: (-len(r.covered & todo), _row_key(r)))
        rest = [r for r in usable if r is not pivot]
        recurse(chosen + [pivot], rest, todo - pivot.covered)
        recurse(chosen, rest, todo)

    recurse([], rows, set(uncovered))
    return best


def exact_cover(tt: TruthTable) -> Cover:
    """Minimum-cardinality prime cover; ties by literals, then cube text."""
    _check_n(tt.n)
    if tt.bits == 0:
        return Cover(tt.n, ())
    primes = prime_implicants(tt)
    chosen, rows, uncovered = _reduce_chart(primes, set(tt.minterms()))
    if uncovered:
        if len(uncovered) < _PETRICK_COLUMN_LIMIT:
            chosen += _petrick(rows, uncovered)
        else:
            chosen += _branch_and_bound(rows, uncovered)
    cubes = tuple(sorted((p.cube for p in chosen), key=format_cube))
    return Cover(tt.n, cubes)
