"""Cover minimization by the unate recursive paradigm.

simplify() recursively splits a binate cover on the most-binate
variable and recombines the cofactor results with the containment
lift; unate leaves fall to single-cube containment.  It runs on the
cubes' ``(care, value)`` int pairs, so polarity, cofactor, containment
and specialization are each one or two bitwise operations.  The work
per recursion node stays near linear in its cover:

* the binate counts of every variable come from one pass that packs
  the cover into one int, then one popcount per count;
* containment queries go through a care index, care -> set of values,
  so a query costs one set lookup per distinct care mask, not one test
  per cube;
* every simplify() result is an antichain (no cube inside another, no
  duplicates), and the merge of two antichains is one again, so the
  merge needs no containment pass of its own.

expand() raises literals toward primeness by clearing their bits, and
irredundant() then drops cubes the rest of the cover already covers;
both answer their containment questions on truth-table bit masks.  The
function comes in as its truth table, which the pipeline already holds,
or as a BDD handle, whose table they then rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from . import bdd
from .bdd import FunctionHandle
from .boolfn import Cover, Cube, TruthTable, cube_mask, format_cube, full_mask

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

    The lowest variable index is the highest bit.  One pass packs the
    cover into one int, a record of 2w bytes per cube: the value mask in
    the low w bytes, the care mask in the high w.  The records' bit s
    then recurs at a fixed period, so a variable's counts are popcounts
    under a periodic mask.
    """
    ones, zeros = polarity(cubes)
    return _select_binate(cubes, ones, zeros)


def _select_binate(cubes: Sequence[Packed], ones: int, zeros: int) -> int:
    """select_binate(cubes), given the cover's polarity(cubes) masks."""
    binate = ones & zeros
    if not binate:
        raise ValueError("cover is unate; no binate variable to select")
    w = ((ones | zeros).bit_length() + 7) // 8
    shift = 8 * w
    packed = int.from_bytes(b"".join([(care << shift | value).to_bytes(2 * w, "little")
                                      for care, value in cubes]), "little")
    period = 2 * shift
    column = ((1 << period * len(cubes)) - 1) // ((1 << period) - 1)  # bit 0 of each record
    keys = []
    for s in range(binate.bit_length()):
        if binate >> s & 1:
            c1 = (packed & (column << s)).bit_count()
            c0 = (packed & (column << (s + shift))).bit_count() - c1
            keys.append((-(c0 + c1), abs(c0 - c1), -(1 << s)))
    return -min(keys)[2]


def cover_cofactor(cubes: Sequence[Packed], bit: int, val: bool) -> List[Packed]:
    """Per-cube cofactor on the variable at bit, dropping cubes with the opposing literal."""
    clear = ~bit
    if val:
        return [(care & clear, value & clear) for care, value in cubes if not care & ~value & bit]
    return [(care & clear, value) for care, value in cubes if not value & bit]


def _care_index(cubes: Sequence[Packed]) -> Dict[int, Set[int]]:
    """The cubes grouped by care mask: care -> set of values."""
    index: Dict[int, Set[int]] = {}
    for care, value in cubes:
        if care in index:
            index[care].add(value)
        else:
            index[care] = {value}
    return index


def _inside(index: Dict[int, Set[int]], care: int, value: int, skip: int = -1) -> bool:
    """True iff a cube of the care index, outside bucket skip, contains (care, value).

    The container's care bits must be the cube's too, and on them the
    two values agree, so each care bucket is one set lookup.
    """
    free = ~care
    for oc, values in index.items():
        if not oc & free and oc != skip and (value & oc) in values:
            return True
    return False


def scc(cubes: Sequence[Packed]) -> List[Packed]:
    """Single-cube containment: drop cubes contained in another cube.

    Duplicates keep the earliest occurrence; survivor order preserved.
    A distinct container has fewer literals, so a cube's own care
    bucket is skipped.
    """
    unique = list(dict.fromkeys(cubes))
    index = _care_index(unique)
    return [(care, value) for care, value in unique if not _inside(index, care, value, care)]


def merge_with_containment(h0: Sequence[Packed], h1: Sequence[Packed], bit: int) -> List[Packed]:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with the variable at bit left don't-care; the rest get
    the literal back.

    Each half must be SCC-minimal (no cube inside another, no
    duplicates), as every simplify() result is.  The output then is
    too, so no containment pass follows: a specialized cube could lie
    only inside a lifted cube of its own half, which would put one cube
    of the half inside another, or of the other half, which would have
    lifted it; a lifted cube strictly inside another lifted one would
    put one cube of a half strictly inside another; and the two
    specialized sides differ in the bit.
    """
    if any(care & bit for care, _ in h0) or any(care & bit for care, _ in h1):
        raise ValueError("merge input mentions the splitting variable")
    lifted = {}  # insertion-ordered set
    for half, other in ((h0, h1), (h1, h0)):
        index = _care_index(other)
        for care, value in half:
            if _inside(index, care, value):
                lifted[care, value] = None
    out = list(lifted)
    out += [(care | bit, value) for care, value in h0 if (care, value) not in lifted]
    out += [(care | bit, value | bit) for care, value in h1 if (care, value) not in lifted]
    return out


def simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    n = cover.n
    out = _simplify([(c.care, c.value) for c in cover])
    return Cover(n, tuple(Cube(n, care, value) for care, value in out))


def _simplify(cubes: List[Packed]) -> List[Packed]:
    if len(cubes) == 1:
        return cubes
    if any(not care for care, _ in cubes):
        return [(0, 0)]  # the universal cube
    ones, zeros = polarity(cubes)
    if not ones & zeros:
        return scc(cubes)
    bit = _select_binate(cubes, ones, zeros)
    h0 = _simplify(cover_cofactor(cubes, bit, False))
    h1 = _simplify(cover_cofactor(cubes, bit, True))
    merged = merge_with_containment(h0, h1, bit)
    if len(merged) <= len(cubes):
        return merged
    return scc(cubes)


Function = Union[TruthTable, FunctionHandle]


def _onset(cover: Cover, f: Function) -> int:
    """f's table bits; a BDD handle's table is rebuilt from the BDD."""
    if not isinstance(f, TruthTable):
        f = bdd.to_truthtable(f)
    if cover.n != f.n:
        raise ValueError("cover variable count does not match the function")
    return f.bits


def expand(cover: Cover, f: Function) -> Cover:
    """Raise literals to don't-care wherever the enlarged cube stays in f.

    Cubes are processed in cover order, variables by ascending index
    (descending bit).  Raising the variable at bit b adds the cube's
    minterms shifted by b across it.
    """
    n = cover.n
    # every minterm where f is 0, kept non-negative: CPython ANDs with a
    # negative int several times slower, which shows on wide tables
    outside = full_mask(n) ^ _onset(cover, f)
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


def irredundant(cover: Cover, f: Function) -> Cover:
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
        rest = prefix | suffix[i + 1]
        if (masks[i] | rest) != rest:  # not mask & ~rest: see expand()
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
