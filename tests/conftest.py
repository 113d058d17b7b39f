"""Shared fixtures and independent oracles for the test suite.

The oracle helpers work on cube text directly and never call into the
package, so they stay independent of the code paths they check.  The
ref_* helpers are the package's former kernels, kept as they were so
the rewritten ones can be compared against them.
"""

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import ceil
from operator import or_
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest

from dsopmin.bdd import (
    BddManager,
    FunctionHandle,
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    split_levels,
)
from dsopmin.boolfn import (
    MAX_TABLE_VARS,
    Cover,
    Cube,
    TruthTable,
    cofactor_bits,
    cube_mask,
    decode_cube,
    format_cube,
    full_mask,
    pair_mask,
    truthtable_from_minterms,
    truthtable_from_pairs,
    var_masks,
)
from dsopmin import minimizer
from dsopmin.cli import PipelineConfig, PlaError, run_pipeline
from dsopmin.qm import prime_implicants

# The worked four-variable example used throughout: f = sum(1,5,6,9,12,13,14,15)
GOLDEN_MINTERMS = [1, 5, 6, 9, 12, 13, 14, 15]


@pytest.fixture
def golden_tt() -> TruthTable:
    return truthtable_from_minterms(4, GOLDEN_MINTERMS)


def text_cube(text: str, n: int) -> Cube:
    """The Cube of a positional cube text over {0,1,2,-}."""
    return Cube(n, *decode_cube(text, n))


def cover_table(cover: Cover) -> TruthTable:
    """The truth table of a cover's cubes."""
    return truthtable_from_pairs(cover.n, [(c.care, c.value) for c in cover])


def build_into(mgr: BddManager, tt: TruthTable) -> FunctionHandle:
    """tt's diagram made in mgr under mgr's order, beside any it holds."""
    perm = mgr.order.perm
    return mgr.build_levels(split_levels(tt, lambda level, rest, *_: rest.index(perm[level])))


def pipeline_sop(tt: TruthTable, ordering: str = "entropy") -> Cover:
    """The minimized cover from the package's one pipeline."""
    return run_pipeline(tt, PipelineConfig(ordering=ordering))[1]["sop"]


def oracle_minterms(text: str) -> set:
    """Enumerate minterms of a cube given as text; var 0 is the MSB."""
    n = len(text)
    choices = []
    for ch in text:
        if ch in "2-":
            choices.append((0, 1))
        else:
            choices.append((int(ch),))
    out = set()
    for bits in itertools.product(*choices):
        idx = 0
        for v, b in enumerate(bits):
            idx |= b << (n - 1 - v)
        out.add(idx)
    return out


def oracle_cover_minterms(texts) -> set:
    out = set()
    for t in texts:
        out |= oracle_minterms(t)
    return out


def oracle_disjoint(texts) -> bool:
    """True iff the cubes are pairwise disjoint: no minterm lies in two of them."""
    sets = [oracle_minterms(t) for t in texts]
    return sum(len(m) for m in sets) == len(set().union(*sets))


def oracle_sharp(c: str, d: str) -> list:
    """Cube c minus cube d, as disjoint cube texts."""
    if any(a in "01" and b in "01" and a != b for a, b in zip(c, d)):
        return [c]
    out = []
    rest = list(c)
    for i, (a, b) in enumerate(zip(c, d)):
        if b in "01" and a not in "01":
            rest[i] = "1" if b == "0" else "0"
            out.append("".join(rest))
            rest[i] = b
    return out


def oracle_same_function(a, b) -> bool:
    """True iff two lists of cube texts cover the same minterms.

    Each cube of one list is sharped by every cube of the other until
    nothing is left, so the cost follows the cube counts, not 2^n.
    """
    for inner, outer in ((a, b), (b, a)):
        for c in inner:
            rest = [c]
            for d in outer:
                rest = [piece for r in rest for piece in oracle_sharp(r, d)]
            if rest:
                return False
    return True


def all_cube_texts(n: int):
    """Every positional cube over n variables (3^n of them)."""
    for trits in itertools.product("012", repeat=n):
        yield "".join(trits)


def cube_text_masks(n: int) -> Dict[str, int]:
    """Every cube text over n variables -> the bit mask of its minterms."""
    return {t: sum(1 << m for m in oracle_minterms(t)) for t in all_cube_texts(n)}


def pipeline_problems(tt: TruthTable, ordering: str, masks: Dict[str, int]):
    """run_pipeline with the oracle on, and each paper invariant its run breaks.

    masks is cube_text_masks(tt.n): the covers are checked as minterm
    sets made from their cube text, not by the package's cube masks.
    Returns (problems, report, covers); no problem means the DSOP is
    disjoint and equals f, P1 is its cube count, the SOP equals f, lies
    inside f and is irredundant, and the oracle is no worse than it.
    """
    report, covers = run_pipeline(tt, PipelineConfig(ordering=ordering, oracle=True))
    dsop = [masks[format_cube(c)] for c in covers["dsop"]]
    sop = [masks[format_cube(c)] for c in covers["sop"]]
    dsop_union = reduce(or_, dsop, 0)
    checks = {
        "DSOP is not disjoint": sum(m.bit_count() for m in dsop) != dsop_union.bit_count(),
        "DSOP differs from f": dsop_union != tt.bits,
        "P1 differs from the DSOP cube count": report.one_paths != len(dsop),
        "SOP differs from f": reduce(or_, sop, 0) != tt.bits,
        "SOP leaves f": any(m & ~tt.bits for m in sop),
        "SOP is redundant": any(reduce(or_, sop[:i] + sop[i + 1:], 0) == tt.bits
                                for i in range(len(sop))),
        "oracle is worse than the SOP": report.oracle_cubes > report.sop_cubes,
    }
    problems = [what for what, broken in checks.items() if broken] + report.check()
    return problems, report, covers


def random_cube(rng, n: int, k: int) -> str:
    """Cube text over {0,1,-} with k literals on k distinct random variables."""
    cube = ["-"] * n
    for v in rng.sample(range(n), k):
        cube[v] = rng.choice("01")
    return "".join(cube)


def brute_force_primes(tt: TruthTable) -> set:
    """Maximal cubes inside the ON-set, by exhaustive enumeration."""
    on = set(tt.minterms())
    inside = [t for t in all_cube_texts(tt.n) if oracle_minterms(t) <= on]

    def contains(outer: str, inner: str) -> bool:
        return all(o == "2" or o == i for o, i in zip(outer, inner))

    primes = set()
    for t in inside:
        if not any(u != t and contains(u, t) for u in inside):
            primes.add(t)
    return primes


def ref_cofactor_bits(bits: int, n: int, var: int, val: bool) -> int:
    """Cofactor of a raw n-variable table on var=val, one minterm at a time."""
    low_bits = n - 1 - var  # index bits below var
    out = 0
    for j in range(1 << (n - 1)):
        low = j & ((1 << low_bits) - 1)
        high = j >> low_bits
        i = (high << (low_bits + 1)) | (int(val) << low_bits) | low
        if (bits >> i) & 1:
            out |= 1 << j
    return out


def ref_build(bits: int, n: int, perm) -> tuple:
    """Reduced ordered BDD of a raw table under perm, as (nodes, root).

    The table is first permuted into order space (bit k of an index, MSB
    first, is the value of perm[k]); a full lo-first post-order recursion
    then allocates ids from 2 through its own unique table.  nodes maps
    id -> (level, lo, hi); 0 and 1 are the terminals.
    """
    values = [0] * (1 << n)
    for i in range(1 << n):
        if (bits >> i) & 1:
            idx = 0
            for k, var in enumerate(perm):
                if (i >> (n - 1 - var)) & 1:
                    idx |= 1 << (n - 1 - k)
            values[idx] = 1
    nodes = {}
    unique = {}

    def walk(level: int, start: int, end: int) -> int:
        if level == n:
            return values[start]
        mid = (start + end) // 2
        lo = walk(level + 1, start, mid)
        hi = walk(level + 1, mid, end)
        if lo == hi:
            return lo
        key = (level, lo, hi)
        if key not in unique:
            unique[key] = len(unique) + 2
            nodes[unique[key]] = key
        return unique[key]

    root = walk(0, 0, 1 << n)
    return nodes, root


# Reference entropy ordering: the package's former entropy_order, which
# keeps every non-constant subtable of a level in a list, repeats
# included, and scores and splits each occurrence on its own.

_REF_EPS = 1e-9


def _ref_h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _ref_split_entropy(on: int, on1: int, half: int) -> float:
    return 0.5 * (_ref_h((on - on1) / half) + _ref_h(on1 / half))


def ref_entropy_order(tt: TruthTable) -> Tuple[int, ...]:
    """The greedy entropy order of tt, as a permutation tuple."""
    n = tt.n
    subtables: List[int] = [tt.bits] if 0 < tt.bits.bit_count() < 1 << n else []
    remaining = list(range(n))  # the subtables' variables, ascending
    chosen: List[int] = []
    level = 0

    while remaining:
        width = n - level
        masks = var_masks(width)
        half = 1 << (width - 1)
        on_counts = [st.bit_count() for st in subtables]
        best_j = None
        best_score = math.inf
        for j in range(len(remaining)):
            pos = masks[j]
            total = 0.0
            for st, on in zip(subtables, on_counts):
                total += _ref_split_entropy(on, (st & pos).bit_count(), half)
            score = total / (1 << level)
            if score < best_score - _REF_EPS:
                best_j = j
                best_score = score
        assert best_j is not None
        chosen.append(remaining.pop(best_j))
        level += 1

        if remaining:
            split: List[int] = []
            for st in subtables:
                for val in (False, True):
                    sub = cofactor_bits(st, width, best_j, val)
                    if sub and sub.bit_count() != half:
                        split.append(sub)
            subtables = split

    return tuple(chosen)


# Reference unate recursive paradigm on cube text: the package's former
# simplify() on tuples of trits, ported step for step onto strings over
# {0,1,2}.  A Cover enters through format_cube and leaves through
# text_cube; nothing in between uses the package's bit masks.

class Monotonicity(Enum):
    POS_UNATE = "pos"
    NEG_UNATE = "neg"
    BINATE = "binate"
    ABSENT = "absent"


def text_contains(outer: str, inner: str) -> bool:
    """True iff every minterm of inner is a minterm of outer."""
    return all(o == "2" or o == i for o, i in zip(outer, inner))


def text_cofactor(text: str, var: int, val: bool) -> Optional[str]:
    """Cofactor w.r.t. var=val; None when the cube has the opposing literal."""
    t = text[var]
    if t != "2" and t != "01"[val]:
        return None
    return text[:var] + "2" + text[var + 1:]


def classify(cubes: List[str], n: int) -> Tuple[List[Monotonicity], bool]:
    """Per-variable monotonicity plus an overall unate flag."""
    result: List[Monotonicity] = []
    unate = True
    for j in range(n):
        has0 = any(c[j] == "0" for c in cubes)
        has1 = any(c[j] == "1" for c in cubes)
        if has0 and has1:
            result.append(Monotonicity.BINATE)
            unate = False
        elif has1:
            result.append(Monotonicity.POS_UNATE)
        elif has0:
            result.append(Monotonicity.NEG_UNATE)
        else:
            result.append(Monotonicity.ABSENT)
    return result, unate


def select_binate(cubes: List[str], n: int) -> int:
    """Most-binate variable: most rows touched, then most balanced, then index."""
    mono, unate = classify(cubes, n)
    if unate:
        raise ValueError("cover is unate; no binate variable to select")
    best = None
    best_key = None
    for j in range(n):
        if mono[j] != Monotonicity.BINATE:
            continue
        c0 = sum(1 for c in cubes if c[j] == "0")
        c1 = sum(1 for c in cubes if c[j] == "1")
        key = (-(c0 + c1), abs(c0 - c1), j)
        if best_key is None or key < best_key:
            best, best_key = j, key
    assert best is not None
    return best


def cover_cofactor(cubes: List[str], var: int, val: bool) -> List[str]:
    """Per-cube cofactor, dropping cubes with the opposing literal."""
    out = []
    for c in cubes:
        cc = text_cofactor(c, var, val)
        if cc is not None:
            out.append(cc)
    return out


def scc(cubes: List[str]) -> List[str]:
    """Single-cube containment: drop cubes contained in another cube.

    Duplicates keep the earliest occurrence; survivor order preserved.
    """
    keep = []
    for i, ci in enumerate(cubes):
        redundant = False
        for j, cj in enumerate(cubes):
            if i == j or not text_contains(cj, ci):
                continue
            if not text_contains(ci, cj) or j < i:
                redundant = True
                break
        if not redundant:
            keep.append(ci)
    return keep


def _specialize(c: str, var: int, val: bool) -> str:
    return c[:var] + "01"[val] + c[var + 1:]


def merge_with_containment(h0: List[str], h1: List[str], var: int) -> List[str]:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with var left don't-care; the rest get the literal back.
    """
    for half in (h0, h1):
        for c in half:
            if c[var] != "2":
                raise ValueError("merge input mentions the splitting variable")

    set1 = set(h1)
    lifted = []
    seen = set()
    for c in h0:
        if c in set1 or any(text_contains(d, c) for d in h1):
            if c not in seen:
                lifted.append(c)
                seen.add(c)
    for c in h1:
        if any(text_contains(d, c) for d in h0):
            if c not in seen:
                lifted.append(c)
                seen.add(c)

    out = list(lifted)
    for c in h0:
        if c not in seen:
            out.append(_specialize(c, var, False))
    for c in h1:
        if c not in seen:
            out.append(_specialize(c, var, True))
    return scc(out)


def _ref_simplify(cubes: List[str], n: int) -> List[str]:
    if not cubes:
        return cubes
    if any(c == "2" * n for c in cubes):
        return ["2" * n]
    _, unate = classify(cubes, n)
    if unate:
        return scc(cubes)
    var = select_binate(cubes, n)
    h0 = _ref_simplify(cover_cofactor(cubes, var, False), n)
    h1 = _ref_simplify(cover_cofactor(cubes, var, True), n)
    merged = merge_with_containment(h0, h1, var)
    if len(merged) <= len(cubes):
        return merged
    return scc(cubes)


def ref_simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    n = cover.n
    out = _ref_simplify([format_cube(c) for c in cover], n)
    return Cover(n, tuple(text_cube(t, n) for t in out))


# References for the URP kernels, on (care, value) int pairs where the
# kernels take one record per cube: the package's former select_binate
# (two counts per binate column), scc (a pairwise scan of the cubes with
# fewer literals) and merge (lift, specialize, then a final scc), kept as
# they were so the packed kernels can be compared against them.

def ref_select_binate(cubes) -> int:
    """Bit of the most-binate variable: most rows touched, then most balanced, then index."""
    ones = zeros = 0
    for care, value in cubes:
        ones |= value
        zeros |= care & ~value
    binate = ones & zeros
    if not binate:
        raise ValueError("cover is unate; no binate variable to select")
    keys = []
    for bit in (1 << s for s in range(binate.bit_length()) if binate >> s & 1):
        c1 = sum(1 for _, value in cubes if value & bit)
        c0 = sum(1 for care, _ in cubes if care & bit) - c1
        keys.append((-(c0 + c1), abs(c0 - c1), -bit))
    return -min(keys)[2]


def ref_scc(cubes) -> list:
    """Drop cubes contained in another; duplicates keep the earliest occurrence."""
    unique = list(dict.fromkeys(cubes))
    ranked = sorted(unique, key=lambda cube: cube[0].bit_count())
    sizes = [care.bit_count() for care, _ in ranked]
    return [
        (ic, iv) for ic, iv in unique
        if not any(not oc & ~ic and not (ov ^ iv) & oc
                   for oc, ov in ranked[:bisect_left(sizes, ic.bit_count())])
    ]


def ref_merge(h0, h1, bit: int) -> list:
    """x'*h0 + x*h1 with the containment lift, then single-cube containment."""
    if any(care & bit for care, _ in h0) or any(care & bit for care, _ in h1):
        raise ValueError("merge input mentions the splitting variable")
    lifted = {}  # insertion-ordered set
    for half, other in ((h0, h1), (h1, h0)):
        same = set(other)
        for ic, iv in half:
            if (ic, iv) in same or any(not oc & ~ic and not (ov ^ iv) & oc for oc, ov in other):
                lifted[ic, iv] = None
    out = list(lifted)
    out += [(care | bit, value) for care, value in h0 if (care, value) not in lifted]
    out += [(care | bit, value | bit) for care, value in h1 if (care, value) not in lifted]
    return ref_scc(out)


# Reference exact cover: the package's former chart phase on frozensets
# of minterms, kept as it was (two solvers, exhaustive subset search on
# small cores) so the bit-mask chart can be compared against it.  Primes
# come from qm.prime_implicants, which the tests check against
# brute_force_primes; their minterm sets come from oracle_minterms.

# exhaustive subset search below this many chart columns, branch and bound above
_PETRICK_COLUMN_LIMIT = 12


@dataclass(frozen=True)
class Implicant:
    cube: Cube
    covered: FrozenSet[int]


def ref_implicants(tt: TruthTable) -> List[Implicant]:
    """The primes of tt in text order, each with its minterm set."""
    return [Implicant(c, frozenset(oracle_minterms(format_cube(c)))) for c in prime_implicants(tt)]


def _solution_key(primes: Sequence[Implicant]) -> Tuple[int, int, Tuple[str, ...]]:
    texts = tuple(sorted(format_cube(p.cube) for p in primes))
    literals = sum(p.cube.literal_count() for p in primes)
    return (len(primes), literals, texts)


def _row_key(p: Implicant) -> Tuple[int, str]:
    return (p.cube.literal_count(), format_cube(p.cube))


def ref_reduce_chart(
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
        for i, j in itertools.combinations(range(len(rows)), 2):
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
        for combo in itertools.combinations(order, size):
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


def ref_exact_cover(tt: TruthTable) -> Cover:
    """Minimum-cardinality prime cover; ties by literals, then cube text."""
    if tt.bits == 0:
        return Cover(tt.n, ())
    primes = ref_implicants(tt)
    chosen, rows, uncovered = ref_reduce_chart(primes, set(tt.minterms()))
    if uncovered:
        if len(uncovered) < _PETRICK_COLUMN_LIMIT:
            chosen += _petrick(rows, uncovered)
        else:
            chosen += _branch_and_bound(rows, uncovered)
    cubes = tuple(sorted((p.cube for p in chosen), key=format_cube))
    return Cover(tt.n, cubes)


# Reference chart reduction on bit masks: the package's former
# _reduce_chart, which writes row dominance and column dominance as two
# loops.  Its rows are indices into masks and keys, as the package's are.

def ref_reduce_chart_masks(
    masks: Sequence[int], keys: Sequence[Tuple[int, int]], uncovered: int
) -> Tuple[List[int], List[int], int]:
    """Essentials plus row/column dominance to a fixpoint."""
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


# Reference path sifting: the package's former swap_adjacent and
# sift_paths, which rescore every candidate position by counting one-paths
# and reachable nodes over the whole diagram and leave the nodes that
# sifting made unreachable in the arena.  They read the manager's arena
# through ref_level and ref_children and make nodes through its make, so
# they run on the package's BddManager.

def ref_level(mgr, u: int) -> int:
    """u's level: its variable's position in mgr.order; terminals lie at level n."""
    if u < 2:
        return mgr.n
    return mgr.order.perm.index(mgr._nodes[u][0])


def ref_children(mgr, u: int) -> Tuple[int, int]:
    _, lo, hi = mgr._nodes[u]
    return lo, hi


def ref_level_nodes(mgr) -> Dict[int, Tuple[int, int, int]]:
    """The arena's live nodes as id -> (level, lo, hi) under mgr.order, ref_build's form."""
    return {u: (ref_level(mgr, u), *ref_children(mgr, u))
            for u, key in enumerate(mgr._nodes) if key}


def _ref_reachable(mgr, root: int) -> List[int]:
    """Internal nodes reachable from root, discovery order."""
    seen: Set[int] = set()
    out: List[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        if u < 2 or u in seen:
            continue
        seen.add(u)
        out.append(u)
        lo, hi = ref_children(mgr, u)
        stack.append(hi)
        stack.append(lo)
    return out


def _ref_node_count(h) -> int:
    """Number of internal nodes reachable from the root; terminals excluded."""
    return len(_ref_reachable(h.manager, h.root))


def _ref_one_path_count(h) -> int:
    """P1: paths from the root to terminal 1, counted bottom-up."""
    mgr = h.manager
    memo: Dict[int, int] = {0: 0, 1: 1}

    def count(u: int) -> int:
        if u in memo:
            return memo[u]
        lo, hi = ref_children(mgr, u)
        memo[u] = count(lo) + count(hi)
        return memo[u]

    return count(h.root)


def ref_swap_adjacent(mgr, root: int, k: int) -> int:
    """Exchange the variables at levels k and k+1, returning the new root.

    Only levels <= k+1 are rebuilt; deeper nodes are shared untouched.
    The manager's order is updated in place.
    """
    n = mgr.n
    if not 0 <= k < n - 1:
        raise ValueError(f"level {k} has no successor to swap with")
    memo: Dict[int, int] = {}
    perm = mgr.order.perm  # the order before the swap, until the end

    def split(u: int) -> Tuple[int, int]:
        # cofactors w.r.t. the (old) level-k+1 variable
        if ref_level(mgr, u) == k + 1:
            return ref_children(mgr, u)
        return u, u

    def rebuild(u: int) -> int:
        lvl = ref_level(mgr, u)
        if u < 2 or lvl > k + 1:
            return u
        if u in memo:
            return memo[u]
        lo, hi = ref_children(mgr, u)
        if lvl < k:
            r = mgr.make(perm[lvl], rebuild(lo), rebuild(hi))
        elif lvl == k:
            f00, f01 = split(lo)
            f10, f11 = split(hi)
            r = mgr.make(perm[k + 1], mgr.make(perm[k], f00, f10), mgr.make(perm[k], f01, f11))
        else:
            # reached by a long edge: the old level-k variable is absent here
            r = mgr.make(perm[k + 1], lo, hi)
        memo[u] = r
        return r

    new_root = rebuild(root)
    p = list(mgr.order.perm)
    p[k], p[k + 1] = p[k + 1], p[k]
    mgr.order = VariableOrder(tuple(p))
    return new_root


def ref_sift_paths(mgr, h) -> VariableOrder:
    """Sift every variable once, scoring positions by one-path count.

    Variables are processed in decreasing order of node population at
    their starting level; each is fixed where P1 is smallest (ties:
    fewer nodes, then the earliest position).  The manager is left in
    the final order and the handle's root updated.
    """
    n = mgr.n
    if n < 2 or h.root < 2:
        return mgr.order

    pops = [0] * n
    for u in _ref_reachable(mgr, h.root):
        pops[ref_level(mgr, u)] += 1
    schedule = sorted(range(n), key=lambda v: (-pops[mgr.order.perm.index(v)], v))

    root = h.root
    for var in schedule:
        pos = mgr.order.perm.index(var)
        scores = {pos: (_ref_one_path_count(FunctionHandle(mgr, root)),
                        _ref_node_count(FunctionHandle(mgr, root)))}
        while pos < n - 1:
            root = ref_swap_adjacent(mgr, root, pos)
            pos += 1
            scores[pos] = (_ref_one_path_count(FunctionHandle(mgr, root)),
                           _ref_node_count(FunctionHandle(mgr, root)))
        while pos > 0:
            root = ref_swap_adjacent(mgr, root, pos - 1)
            pos -= 1
            if pos not in scores:
                scores[pos] = (_ref_one_path_count(FunctionHandle(mgr, root)),
                               _ref_node_count(FunctionHandle(mgr, root)))
        best = min(scores, key=lambda p: (scores[p][0], scores[p][1], p))
        while pos < best:
            root = ref_swap_adjacent(mgr, root, pos)
            pos += 1
        h.root = root

    h.root = root
    return mgr.order


def ref_sift_summary(tt: TruthTable, start: Optional[VariableOrder] = None):
    """(order, P1, reachable nodes, DSOP cube text) after ref_sift_paths from start."""
    h = build_from_truthtable(tt, start)
    order = ref_sift_paths(h.manager, h)
    return (order.perm, _ref_one_path_count(h), _ref_node_count(h),
            [format_cube(c) for c in enumerate_one_paths(h)])


# Reference irredundant: the package's former single pass, which holds
# every cube's table mask and every suffix OR at once.

def ref_irredundant(cover: Cover, tt: TruthTable) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover."""
    if cover.n != tt.n:
        raise ValueError("cover variable count does not match the function")
    cubes = list(dict.fromkeys(cover.cubes))
    masks = [cube_mask(c) for c in cubes]
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    if suffix[0] != tt.bits:
        raise ValueError("cover does not represent the given function")
    kept: List[Cube] = []
    prefix = 0
    for i, c in enumerate(cubes):
        rest = prefix | suffix[i + 1]
        if (masks[i] | rest) != rest:
            kept.append(c)
            prefix |= masks[i]
    return Cover(cover.n, tuple(kept))


# Reference expand: the package's former kernel, which tests each literal
# by shifting the cube's mask across it and ANDing the shift with f's
# OFF-set.  Past the one-pass bound it hands a cube of _MINTERM_LITS
# literals or more to the package's minterm path, as it did.

def ref_expand(cubes: List[Tuple[int, int]], onset: int, n: int,
               masks: Optional[List[int]] = None) -> List[Tuple[int, int]]:
    """Raise literals to don't-care wherever the enlarged cube stays in f;
    appends each output cube's mask to masks when given."""
    outside = full_mask(n) ^ onset
    by_minterm, view = not len(cubes) << n < minimizer._ONE_PASS_BITS, None
    out = []
    for care, value in cubes:
        if by_minterm and care.bit_count() >= minimizer._MINTERM_LITS:
            view = view or minimizer._minterm_view(n, onset)
            out.append(minimizer._expand_by_minterm(care, value, n, view))
            continue
        mask = pair_mask(n, care, value)
        if mask & outside:
            text = format_cube(Cube(n, care, value))
            raise ValueError(f"cube {text} is not contained in the function")
        lits = care
        while lits:
            bit = 1 << (lits.bit_length() - 1)
            lits ^= bit
            other_half = mask >> bit if value & bit else mask << bit
            if not other_half & outside:
                mask |= other_half
                care ^= bit
                value &= ~bit
        out.append((care, value))
        if masks is not None:
            masks.append(mask)
    return out


# Reference DSOP walk and PLA reader: the package's former recursive
# enumerate_one_paths, which builds a Cube at each one-path through
# ref_level and ref_children, and the former parse_pla, which builds a Cube
# and its cube_mask for every cube line.

def ref_enumerate_one_paths(h) -> Cover:
    """One cube per one-path, depth first with the lo branch first."""
    mgr = h.manager
    n = mgr.n
    bits = [1 << (n - 1 - var) for var in mgr.order.perm]
    cubes: List[Cube] = []

    def walk(u: int, care: int, value: int) -> None:
        if u == 0:
            return
        if u == 1:
            cubes.append(Cube(n, care, value))
            return
        bit = bits[ref_level(mgr, u)]
        lo, hi = ref_children(mgr, u)
        walk(lo, care | bit, value)
        walk(hi, care | bit, value | bit)

    walk(h.root, 0, 0)
    return Cover(n, tuple(cubes))


def _ref_directive_int(parts: List[str]) -> int:
    if len(parts) < 2:
        raise PlaError(f"{parts[0]} needs an integer argument")
    try:
        return int(parts[1])
    except ValueError:
        raise PlaError(f"{parts[0]} argument {parts[1]!r} is not an integer") from None


def ref_parse_pla(text: str) -> Tuple[TruthTable, Optional[List[str]]]:
    """Parse the single-output PLA subset; listed cubes define the ON-set."""
    n: Optional[int] = None
    out_count: Optional[int] = None
    names: Optional[List[str]] = None
    cubes: List[Tuple[str, str]] = []
    seen = set()  # header directives read so far: each may appear once
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key in (".i", ".o", ".ilb"):
                if key in seen:
                    raise PlaError(f"repeated {key} directive")
                seen.add(key)
            if key == ".i":
                n = _ref_directive_int(parts)
                if not 1 <= n <= MAX_TABLE_VARS:
                    raise PlaError(f".i {n} outside [1, {MAX_TABLE_VARS}]")
            elif key == ".o":
                out_count = _ref_directive_int(parts)
                if out_count != 1:
                    raise PlaError("only single-output functions are supported (.o 1)")
            elif key == ".ilb":
                names = parts[1:]
            elif key in (".ob", ".p"):
                pass
            elif key == ".e":
                break
            else:
                raise PlaError(f"unsupported PLA directive {key}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PlaError(f"malformed cube line {line!r}")
        cubes.append((parts[0], parts[1]))

    if n is None:
        raise PlaError("missing .i directive")
    if out_count is None:
        raise PlaError("missing .o directive")
    if names is not None and len(names) != n:
        raise PlaError(".ilb name count does not match .i")

    bits = 0
    for in_part, out_part in cubes:
        if out_part == "-" or out_part == "~":
            raise PlaError("don't-care outputs not supported (completely specified only)")
        if out_part not in ("0", "1"):
            raise PlaError(f"malformed output field {out_part!r}")
        cube = text_cube(in_part, n)
        if out_part == "1":
            bits |= cube_mask(cube)
    return TruthTable(n, bits), names


# Symmetric and structured tables: their diagrams repeat subfunctions at
# every level, so equal sub-problems recur in sifting and in URP.

def table_of(n: int, pred) -> TruthTable:
    """The table of pred over the bit list x, x[0] the most significant variable."""
    bits = 0
    for i in range(1 << n):
        if pred([(i >> (n - 1 - v)) & 1 for v in range(n)]):
            bits |= 1 << i
    return TruthTable(n, bits)


def _carry(x) -> bool:
    k = len(x) // 2
    a = int("".join(map(str, x[:k])), 2)
    b = int("".join(map(str, x[k:2 * k])), 2)
    return (a + b) >> k == 1


def _mux(s: int):
    return lambda x: x[s + int("".join(map(str, x[:s])), 2)] == 1


def symmetric_tables(n_max: int = 10) -> List[Tuple[str, TruthTable]]:
    """Parity, majority, carry-out and multiplexer tables up to n_max variables."""
    out = []
    for n in range(2, n_max + 1):
        out.append((f"parity-{n}", table_of(n, lambda x: sum(x) % 2 == 1)))
        out.append((f"majority-{n}", table_of(n, lambda x: 2 * sum(x) > len(x))))
        if n % 2 == 0:
            out.append((f"carry-{n}", table_of(n, _carry)))
    for s in (1, 2):
        out.append((f"mux-{s + (1 << s)}", table_of(s + (1 << s), _mux(s))))
    return out
