"""Cover minimization by the unate recursive paradigm.

simplify() recursively splits a binate cover on the most-binate
variable and recombines the cofactor results with the containment
lift; unate leaves fall to single-cube containment.  It runs on the
cubes' ``(care, value)`` int pairs, so polarity, cofactor, containment
and specialization are each one or two bitwise operations.  expand()
raises literals toward primeness by clearing their bits, and
irredundant() then drops cubes the rest of the cover already covers;
both answer their containment questions on truth-table bit masks, and
each takes the function's table from its BDD.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from . import bdd
from .bdd import FunctionHandle
from .boolfn import Cover, Cube, cube_mask, format_cube

# A cube's (care, value) pair; variable v is bit n-1-v, as in boolfn.Cube.
Packed = Tuple[int, int]


def polarity(cubes: Sequence[Packed]) -> Tuple[int, int]:
    """Bit masks of the variables with a positive and with a complemented literal.

    Their AND is the binate variables; the cover is unate iff it is 0.
    """
    ones = zeros = 0
    for care, value in cubes:
        ones |= value
        zeros |= care & ~value
    return ones, zeros


def select_binate(cubes: Sequence[Packed]) -> int:
    """Bit of the most-binate variable: most rows touched, then most balanced, then index.

    The lowest variable index is the highest bit.
    """
    ones, zeros = polarity(cubes)
    binate = ones & zeros
    if not binate:
        raise ValueError("cover is unate; no binate variable to select")
    keys = []
    for bit in (1 << s for s in range(binate.bit_length()) if binate >> s & 1):
        c1 = sum(1 for _, value in cubes if value & bit)
        c0 = sum(1 for care, _ in cubes if care & bit) - c1
        keys.append((-(c0 + c1), abs(c0 - c1), -bit))
    return -min(keys)[2]


def cover_cofactor(cubes: Sequence[Packed], bit: int, val: bool) -> List[Packed]:
    """Per-cube cofactor on the variable at bit, dropping cubes with the opposing literal."""
    clear = ~bit
    if val:
        return [(care & clear, value & clear) for care, value in cubes if not care & ~value & bit]
    return [(care & clear, value) for care, value in cubes if not value & bit]


def scc(cubes: Sequence[Packed]) -> List[Packed]:
    """Single-cube containment: drop cubes contained in another cube.

    Duplicates keep the earliest occurrence; survivor order preserved.
    Outer contains inner iff outer's care bits are inner's too and the
    two agree on them, so only cubes with fewer literals are tried.
    """
    unique = list(dict.fromkeys(cubes))
    ranked = sorted(unique, key=lambda cube: cube[0].bit_count())
    sizes = [care.bit_count() for care, _ in ranked]
    return [
        (ic, iv) for ic, iv in unique
        if not any(not oc & ~ic and not (ov ^ iv) & oc
                   for oc, ov in ranked[:bisect_left(sizes, ic.bit_count())])
    ]


def merge_with_containment(h0: Sequence[Packed], h1: Sequence[Packed], bit: int) -> List[Packed]:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with the variable at bit left don't-care; the rest get
    the literal back.
    """
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
    return scc(out)


def simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    n = cover.n
    out = _simplify([(c.care, c.value) for c in cover])
    return Cover(n, tuple(Cube(n, care, value) for care, value in out))


def _simplify(cubes: List[Packed]) -> List[Packed]:
    if any(not care for care, _ in cubes):
        return [(0, 0)]  # the universal cube
    ones, zeros = polarity(cubes)
    if not ones & zeros:
        return scc(cubes)
    bit = select_binate(cubes)
    h0 = _simplify(cover_cofactor(cubes, bit, False))
    h1 = _simplify(cover_cofactor(cubes, bit, True))
    merged = merge_with_containment(h0, h1, bit)
    if len(merged) <= len(cubes):
        return merged
    return scc(cubes)


def _onset(cover: Cover, f: FunctionHandle) -> int:
    if cover.n != f.manager.n:
        raise ValueError("cover variable count does not match the function")
    return bdd.to_truthtable(f).bits


def expand(cover: Cover, f: FunctionHandle) -> Cover:
    """Raise literals to don't-care wherever the enlarged cube stays in f.

    Cubes are processed in cover order, variables by ascending index
    (descending bit).  Raising the variable at bit b adds the cube's
    minterms shifted by b across it.
    """
    n = cover.n
    outside = ~_onset(cover, f)  # every minterm where f is 0
    out = []
    for c in cover:
        mask = cube_mask(c)
        if mask & outside:
            raise ValueError(f"cube {format_cube(c)} is not contained in the function")
        care, value = c.care, c.value
        lits = care
        while lits:
            bit = 1 << (lits.bit_length() - 1)
            lits ^= bit
            other_half = mask >> bit if value & bit else mask << bit
            if not other_half & outside:
                mask |= other_half
                care ^= bit
                value &= ~bit
        out.append(Cube(n, care, value))
    return Cover(n, tuple(out))


def irredundant(cover: Cover, f: FunctionHandle) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover.

    Cube i goes iff its mask lies inside the cubes kept before it plus
    every cube after it.
    """
    onset = _onset(cover, f)
    cubes = list(dict.fromkeys(cover.cubes))
    masks = [cube_mask(c) for c in cubes]
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    if suffix[0] != onset:
        raise ValueError("cover does not represent the given function")
    kept: List[Cube] = []
    prefix = 0
    for i, c in enumerate(cubes):
        if masks[i] & ~(prefix | suffix[i + 1]):
            kept.append(c)
            prefix |= masks[i]
    return Cover(cover.n, tuple(kept))


def format_expression(cover: Cover, names: Optional[Sequence[str]] = None) -> str:
    """Human-readable sum of products, e.g. "ab + c'd + bcd'"."""
    if names is None:
        names = default_names(cover.n)
    if not cover.cubes:
        return "0"
    terms = []
    for c in cover:
        if c.is_universal:
            terms.append("1")
            continue
        lits = [names[var] + ("" if c.value >> s & 1 else "'")
                for var, s in enumerate(range(cover.n - 1, -1, -1)) if c.care >> s & 1]
        terms.append("".join(lits))
    return " + ".join(terms)


def default_names(n: int) -> List[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"x{i}" for i in range(n)]
