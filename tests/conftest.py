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
