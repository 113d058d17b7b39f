"""Shared fixtures and independent oracles for the test suite.

The oracle helpers work on cube text directly and never call into the
package, so they stay independent of the code paths they check.
"""

import itertools
from bisect import bisect_left
from enum import Enum
from typing import List, Optional, Tuple

import pytest

from dsopmin.boolfn import (
    Cover,
    TruthTable,
    cube_from_text,
    format_cube,
    truthtable_from_minterms,
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


def oracle_disjoint(texts) -> bool:
    """True iff the cubes are pairwise disjoint: no minterm lies in two of them."""
    sets = [oracle_minterms(t) for t in texts]
    return sum(len(m) for m in sets) == len(set().union(*sets))


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


# Reference unate recursive paradigm on cube text: the package's former
# simplify() on tuples of trits, ported step for step onto strings over
# {0,1,2}.  A Cover enters through format_cube and leaves through
# cube_from_text; nothing in between uses the package's bit masks.

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
    return Cover(n, tuple(cube_from_text(t, n) for t in out))


# References for the packed URP kernels on (care, value) int pairs: the
# package's former select_binate (two counts per binate column), scc (a
# pairwise scan of the cubes with fewer literals) and merge (lift,
# specialize, then a final scc), kept as they were so the indexed kernels
# can be compared against them.

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
