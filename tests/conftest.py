"""Shared fixtures and independent oracles for the test suite.

The oracle helpers work on cube text directly and never call into the
package, so they stay independent of the code paths they check.
"""

import itertools
from enum import Enum
from typing import List, Tuple

import pytest

from dsopmin.boolfn import (
    Cover,
    Cube,
    Trit,
    TruthTable,
    cube_cofactor,
    cube_contains,
    truthtable_from_minterms,
    universal_cube,
)
from dsopmin.cli import PipelineConfig, run_pipeline

# The worked four-variable example used throughout: f = sum(1,5,6,9,12,13,14,15)
GOLDEN_MINTERMS = [1, 5, 6, 9, 12, 13, 14, 15]


@pytest.fixture
def golden_tt() -> TruthTable:
    return truthtable_from_minterms(4, GOLDEN_MINTERMS)


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


def all_cube_texts(n: int):
    """Every positional cube over n variables (3^n of them)."""
    for trits in itertools.product("012", repeat=n):
        yield "".join(trits)


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


# Reference unate recursive paradigm on tuples of Trit: the package's
# former simplify(), kept verbatim apart from its name.  It uses only
# boolfn's Cube primitives, never minimizer's packed steps.

class Monotonicity(Enum):
    POS_UNATE = "pos"
    NEG_UNATE = "neg"
    BINATE = "binate"
    ABSENT = "absent"


def classify(cover: Cover) -> Tuple[List[Monotonicity], bool]:
    """Per-variable monotonicity plus an overall unate flag."""
    result: List[Monotonicity] = []
    unate = True
    for j in range(cover.n):
        has0 = any(c.trits[j] == Trit.ZERO for c in cover)
        has1 = any(c.trits[j] == Trit.ONE for c in cover)
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


def select_binate(cover: Cover) -> int:
    """Most-binate variable: most rows touched, then most balanced, then index."""
    mono, unate = classify(cover)
    if unate:
        raise ValueError("cover is unate; no binate variable to select")
    best = None
    best_key = None
    for j in range(cover.n):
        if mono[j] != Monotonicity.BINATE:
            continue
        c0 = sum(1 for c in cover if c.trits[j] == Trit.ZERO)
        c1 = sum(1 for c in cover if c.trits[j] == Trit.ONE)
        key = (-(c0 + c1), abs(c0 - c1), j)
        if best_key is None or key < best_key:
            best, best_key = j, key
    assert best is not None
    return best


def cover_cofactor(cover: Cover, var: int, val: bool) -> Cover:
    """Per-cube cofactor, dropping cubes with the opposing literal."""
    out = []
    for c in cover:
        cc = cube_cofactor(c, var, val)
        if cc is not None:
            out.append(cc)
    return Cover(cover.n, tuple(out))


def scc(cover: Cover) -> Cover:
    """Single-cube containment: drop cubes contained in another cube.

    Duplicates keep the earliest occurrence; survivor order preserved.
    """
    cubes = cover.cubes
    keep = []
    for i, ci in enumerate(cubes):
        redundant = False
        for j, cj in enumerate(cubes):
            if i == j or not cube_contains(cj, ci):
                continue
            if not cube_contains(ci, cj) or j < i:
                redundant = True
                break
        if not redundant:
            keep.append(ci)
    return Cover(cover.n, tuple(keep))


def _specialize(c: Cube, var: int, val: bool) -> Cube:
    t = Trit.ONE if val else Trit.ZERO
    return Cube(c.trits[:var] + (t,) + c.trits[var + 1:])


def merge_with_containment(h0: Cover, h1: Cover, var: int) -> Cover:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with var left don't-care; the rest get the literal back.
    """
    for half in (h0, h1):
        for c in half:
            if c.trits[var] != Trit.DONT_CARE:
                raise ValueError("merge input mentions the splitting variable")

    set1 = set(h1.cubes)
    lifted = []
    seen = set()
    for c in h0:
        if c in set1 or any(cube_contains(d, c) for d in h1):
            if c not in seen:
                lifted.append(c)
                seen.add(c)
    for c in h1:
        if any(cube_contains(d, c) for d in h0):
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
    return scc(Cover(h0.n, tuple(out)))


def ref_simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    if not cover.cubes:
        return cover
    if any(c.is_universal for c in cover):
        return Cover(cover.n, (universal_cube(cover.n),))
    _, unate = classify(cover)
    if unate:
        return scc(cover)
    var = select_binate(cover)
    h0 = ref_simplify(cover_cofactor(cover, var, False))
    h1 = ref_simplify(cover_cofactor(cover, var, True))
    merged = merge_with_containment(h0, h1, var)
    if len(merged) <= len(cover.cubes):
        return merged
    return scc(cover)
