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
  merge needs no containment pass of its own;
* one call keeps a table from each binate sub-cover to its result,
  the computed table of BDD packages (Brace, Rudell and Bryant, DAC
  1990) applied to URP: cofactors of symmetric functions repeat
  (F|x=0,y=1 = F|x=1,y=0), and a repeat is answered by one lookup.
  The key is the packed int the binate counts are read from anyway,
  with its record width and cube count, which give back the cube list
  exactly.  Unlike a tuple of the cubes, an int holds no references,
  so the keys give the garbage collector nothing to traverse.  The
  table goes when the call returns.

expand() raises literals toward primeness by clearing their bits, and
irredundant() then drops cubes the rest of the cover already covers;
both answer their containment questions on truth-table bit masks.  The
function comes in as its truth table, which the pipeline already holds,
or as a BDD handle, whose table they then rebuild.
"""

from __future__ import annotations

import math
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

    The lowest variable index is the highest bit.
    """
    ones, zeros = polarity(cubes)
    if not ones & zeros:
        raise ValueError("cover is unate; no binate variable to select")
    return _pick(_pack(cubes, ones, zeros), ones & zeros)


# A packed cover: (shift, cube count, records), the records int holding
# cube i's record care << shift | value in bytes [2iw, 2(i+1)w), w = shift/8.
Key = Tuple[int, int, int]


def _pack(cubes: Sequence[Packed], ones: int, zeros: int) -> Key:
    """The cover packed into one int, a record of 2w bytes per cube.

    ones and zeros are the cover's polarity() masks; their OR is every
    care bit, so w whole bytes hold any care or value mask.  The value
    mask fills a record's low w bytes and the care mask its high w.
    Shift and count fix the record layout, so the key gives back the
    cube list exactly.
    """
    w = ((ones | zeros).bit_length() + 7) // 8
    shift = 8 * w
    records = int.from_bytes(b"".join([(care << shift | value).to_bytes(2 * w, "little")
                                       for care, value in cubes]), "little")
    return shift, len(cubes), records


def _pick(key: Key, binate: int) -> int:
    """select_binate on a packed cover, given its binate variables' mask.

    A record's bit s recurs at a fixed period in the packed int, so a
    variable's counts are popcounts under a periodic mask.
    """
    shift, count, records = key
    period = 2 * shift
    column = ((1 << period * count) - 1) // ((1 << period) - 1)  # bit 0 of each record
    keys = []
    for s in range(binate.bit_length()):
        if binate >> s & 1:
            c1 = (records & (column << s)).bit_count()
            c0 = (records & (column << (s + shift))).bit_count() - c1
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
    out = _simplify([(c.care, c.value) for c in cover], {})
    return Cover(n, tuple(Cube(n, care, value) for care, value in out))


def _simplify(cubes: List[Packed], done: Dict[Key, List[Packed]]) -> List[Packed]:
    """simplify() on packed cubes; done maps each binate cover's key to its result."""
    if len(cubes) == 1:
        return cubes
    if any(not care for care, _ in cubes):
        return [(0, 0)]  # the universal cube
    ones, zeros = polarity(cubes)
    binate = ones & zeros
    if not binate:
        return scc(cubes)
    key = _pack(cubes, ones, zeros)
    out = done.get(key)
    if out is None:
        bit = _pick(key, binate)
        h0 = _simplify(cover_cofactor(cubes, bit, False), done)
        h1 = _simplify(cover_cofactor(cubes, bit, True), done)
        out = merge_with_containment(h0, h1, bit)
        if len(out) > len(cubes):
            out = scc(cubes)
        done[key] = out
    return out


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


# irredundant() holds every cube mask and suffix OR at once while the k
# masks of 2^n bits each stay below this many bits (16 MiB); above it, it
# keeps suffix ORs at block starts only.
_ONE_PASS_BITS = 1 << 27


def irredundant(cover: Cover, f: Function) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover.

    Cube i goes iff its mask lies inside the cubes kept before it plus
    every cube after it.  Each mask can take 2^n bits, so a large cover
    runs in blocks of about sqrt(k) cubes, which bounds what it holds
    at once by O(sqrt(k) 2^n) bits for the same result.
    """
    onset = _onset(cover, f)
    cubes = list(dict.fromkeys(cover.cubes))
    k = len(cubes)
    block = max(k, 1) if k << cover.n < _ONE_PASS_BITS else math.isqrt(k - 1) + 1
    return Cover(cover.n, tuple(_irredundant(cubes, onset, block)))


def _irredundant(cubes: List[Cube], onset: int, block: int) -> List[Cube]:
    """irredundant()'s greedy pass over cubes, block cubes at a time.

    Only the suffix OR at each block start is kept across the pass.  A
    block's masks and the suffix ORs inside it are rebuilt when the
    pass reaches it; one block is the plain single pass.
    """
    starts = range(0, len(cubes) or 1, block)
    tails = [0] * (len(starts) + 1)  # tails[j]: every mask from block j on
    for j in range(len(starts) - 1, 0, -1):
        tail = tails[j + 1]
        for c in cubes[starts[j]:starts[j] + block]:
            tail |= cube_mask(c)
        tails[j] = tail
    kept: List[Cube] = []
    prefix = 0
    for j, start in enumerate(starts):
        masks = [cube_mask(c) for c in cubes[start:start + block]]
        suffix = [0] * len(masks) + [tails[j + 1]]
        for i in range(len(masks) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | masks[i]
        if j == 0 and suffix[0] != onset:
            raise ValueError("cover does not represent the given function")
        for i, mask in enumerate(masks):
            rest = prefix | suffix[i + 1]
            if (mask | rest) != rest:  # not mask & ~rest: see expand()
                kept.append(cubes[start + i])
                prefix |= mask
    return kept


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
