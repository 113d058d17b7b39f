"""Shared fixtures and independent oracles for the test suite.

The oracle helpers work on cube text directly and never call into the
package, so they stay independent of the code paths they check.
"""

import itertools

import pytest

from dsopmin.boolfn import Cover, TruthTable, truthtable_from_minterms
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
