"""Cover minimization by the unate recursive paradigm.

simplify() splits a binate cover on its most-binate variable and
joins the cofactor results with the containment lift; unate leaves
fall to single-cube containment.  Cubes are ``(care, value)`` int
pairs, so polarity, cofactor and specialization are bitwise operations,
and the work per recursion node stays near linear in its cover:

* a cover of 16 cubes or more packs into one int, a field per cube;
  each binate count is one popcount on it and each containment query
  of the merge or scc() a few operations.  Below that, where most
  nodes are, packing costs more than it saves: a node counts its
  binate columns cube by cube (closed form for three cubes), the merge
  scans a small half pairwise, and a two-cube node is closed form;
* the merge of two simplify() results needs no containment pass;
* one call keeps a table from each binate sub-cover of 16 cubes or
  more to its result (smaller ones seldom repeat on random inputs), the
  computed table of BDD packages (Brace, Rudell and Bryant, DAC 1990)
  applied to URP: cofactors of symmetric functions repeat (F|x=0,y=1 =
  F|x=1,y=0).  Its key is the packed int, which holds no references
  for the garbage collector to traverse.

expand() raises literals toward primeness and irredundant() drops cubes
the rest of the cover covers, both on pairs and truth-table bit masks.
minimize() runs the three passes for the pipeline; simplify(), expand()
and irredundant() wrap the same kernels for a Cover.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import bdd
from .bdd import FunctionHandle
from .boolfn import Cover, Cube, TruthTable, format_cube, full_mask, pair_mask

# A cube's (care, value) pair; variable v is bit n-1-v, as in boolfn.Cube.
Packed = Tuple[int, int]

# Under this many cubes packing costs more than it saves: a binate node
# picks its variable by counting cubes and stays out of the table, and the
# merge scans such a half cube by cube instead of packing it.
_SMALL = 16


def polarity(cubes: Sequence[Packed]) -> Tuple[int, int]:
    """Bit masks of the variables with a positive and with a complemented literal.

    Their AND is the binate variables; the cover is unate iff it is 0.
    """
    ones = zeros = 0
    for care, value in cubes:
        ones |= value
        zeros |= care & ~value
    return ones, zeros


# A packed cover: (size, cube count, fields).  Cube i's record (care ^ value) << 4 size | value,
# complemented literals above positive ones, fills bytes [i size, (i+1) size) under a guard bit.
Key = Tuple[int, int, int]


def _pack(cubes: Sequence[Packed], wide: int) -> Key:
    """The cover packed into one int; wide is the OR of every care mask."""
    size = wide.bit_length() // 4 + 1  # two masks and the guard bit
    half = 4 * size
    fields = int.from_bytes(b"".join([((care ^ value) << half | value).to_bytes(size, "little")
                                      for care, value in cubes]), "little")
    return size, len(cubes), fields


def _count_pick(cubes: Sequence[Packed], binate: int) -> int:
    """_pick on a cover of fewer than _SMALL cubes, counted cube by cube."""
    if len(cubes) == 3:  # a variable all three cubes care about has the most rows; else all tie
        (a, _), (b, _), (c, _) = cubes
        return 1 << (binate & a & b & c or binate).bit_length() - 1
    best, pick = (0, 0), 0
    while binate:  # top bit first, so a tie keeps the lowest index
        bit = 1 << binate.bit_length() - 1
        binate ^= bit
        rows = ones = 0
        for care, value in cubes:
            if care & bit:
                rows += 1
                if value & bit:
                    ones += 1
        score = rows, -abs(rows - 2 * ones)
        if score > best:
            best, pick = score, bit
    return pick


def _pick(key: Key, binate: int) -> int:
    """Bit of the packed cover's most-binate variable, as _count_pick picks it.

    Most rows, most balanced, then lowest index (top bit); each count is
    one popcount under a periodic mask.
    """
    size, count, fields = key
    column = _columns(size, count)[0]
    keys = []
    for s in range(binate.bit_length()):
        if binate >> s & 1:
            c1 = (fields & column << s).bit_count()
            c0 = (fields & column << s + 4 * size).bit_count()
            keys.append((-(c0 + c1), abs(c0 - c1), -(1 << s)))
    return -min(keys)[2]


@lru_cache(maxsize=64)
def _columns(size: int, count: int) -> Tuple[int, int, int]:
    """Bit 0 of each of count fields of size bytes, the bits under each guard, and the guards."""
    column = ((1 << 8 * size * count) - 1) // ((1 << 8 * size) - 1)
    return column, ((1 << 8 * size - 1) - 1) * column, column << 8 * size - 1


def cover_cofactor(cubes: Sequence[Packed], bit: int) -> Tuple[List[Packed], List[Packed]]:
    """The per-cube cofactors at x' and at x on the variable at bit, in one pass."""
    h0, h1 = [], []
    for cube in cubes:
        care, value = cube
        if not care & bit:
            h0.append(cube)
            h1.append(cube)
        elif value & bit:
            h1.append((care ^ bit, value ^ bit))
        else:
            h0.append((care ^ bit, value))
    return h0, h1


def _containers(queries: Sequence[Packed], cubes: Sequence[Packed], wide: int) -> List[int]:
    """For each query cube, how many of cubes contain it; wide ORs every care mask.

    A container's record has no bit (a miss) outside the query's; adding
    low carries into the guard of each field with one (broadword, Knuth
    TAOCP 4A 7.1.3).  Past 512 queries and cubes, a query meets only the
    cubes that can hold it on their top variable, while no part keeps over
    2/3 of them; at most q/512 parts per level copy cubes, on log(k/512)/log(1.5) levels.
    """
    if not queries:
        return []
    if len(queries) > 512 < len(cubes):
        ones, zeros = polarity(cubes)
        bit = 1 << (ones | zeros).bit_length() >> 1  # 0 if every cube is universal
        rest = (ones | zeros) ^ bit  # query literals outside it meet no cube's
        lits = (0, bit, 2 * bit)  # no literal on bit, x', x
        sides = [[(c & rest, v & rest) for c, v in cubes if (c & bit) + (v & bit) == lit]
                 for lit in lits]
        if 3 * (len(sides[0]) + max(len(sides[1]), len(sides[2]))) <= 2 * len(cubes):
            parts = {lit: iter(_containers(
                [(c & rest, v & rest) for c, v in queries if (c & bit) + (v & bit) == lit],
                side + sides[0] if lit else side, rest)) for lit, side in zip(lits, sides)}
            return [next(parts[(care & bit) + (value & bit)]) for care, value in queries]
    size, count, fields = _pack(cubes, wide)
    half, below = 4 * size, (1 << 8 * size - 1) - 1  # below: a field's bits under its guard
    column, low, guard = _columns(size, count)
    return [count - (guard & (fields & (below ^ ((care ^ value) << half | value)) * column) + low)
            .bit_count() for care, value in queries]


def scc(cubes: Sequence[Packed]) -> List[Packed]:
    """Single-cube containment: drop cubes inside another, keeping order and first duplicates."""
    unique = list(dict.fromkeys(cubes))
    ones, zeros = polarity(unique)
    found = _containers(unique, unique, ones | zeros)
    return [cube for cube, inside in zip(unique, found) if inside == 1]


def _merge(h0: Sequence[Packed], h1: Sequence[Packed], bit: int, wide: int) -> List[Packed]:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with the variable at bit left don't-care; the rest get
    the literal back.  wide is the OR of every care mask.

    Neither half may mention the variable at bit, and each must be
    SCC-minimal (no cube inside another, no duplicates), as every
    simplify() result is; then so is the output, with no containment
    pass: a specialized cube could lie only inside a lifted cube of its
    own half (one cube of the half inside another) or of the other half
    (which would have lifted it); a lifted cube inside another would put
    one cube of a half inside another; and the two specialized sides
    differ in the bit.
    """
    lifted, rest = {}, []  # lifted: an insertion-ordered set
    for half, other, lit in ((h0, h1, 0), (h1, h0, bit)):
        found = _held(half, other) if len(other) < _SMALL else _containers(half, other, wide)
        for (care, value), inside in zip(half, found):
            if inside:
                lifted[care, value] = None
            else:
                rest.append((care | bit, value | lit))
    return [*lifted, *rest]


def _held(queries: Sequence[Packed], cubes: Sequence[Packed]) -> List[bool]:
    """For each query cube, whether some cube of cubes contains it; stops at the first."""
    found = []
    for care, value in queries:
        for oc, ov in cubes:
            if oc & care == oc and value & oc == ov:
                found.append(True)
                break
        else:
            found.append(False)
    return found


def _simplify(cubes: List[Packed], done: Dict[Key, List[Packed]]) -> List[Packed]:
    """simplify() on packed cubes; done maps each binate cover's key to its result."""
    if len(cubes) == 1:
        return cubes
    ones = zeros = 0
    for care, value in cubes:
        if not care:
            return [(0, 0)]  # the universal cube
        ones |= value
        zeros |= care ^ value
    binate = ones & zeros
    if not binate:
        return scc(cubes)
    if len(cubes) == 2:  # every binate variable splits the pair: all tie in _pick()
        bit = 1 << binate.bit_length() - 1
        a, b = cubes if cubes[1][1] & bit else cubes[::-1]  # a has x', b has x
        cx, cy = a[0] ^ bit, b[0] ^ bit  # the cofactors' care masks
        # another binate variable splits the cofactors; else one holds the other iff its care does
        if binate != bit or cx & cy not in (cx, cy):
            return [a, b]
        if cx == cy:
            return [(cx, a[1])]
        return [(cx, a[1]), b] if cx & cy == cy else [(cy, b[1] ^ bit), a]
    if len(cubes) < _SMALL:
        return _split(cubes, _count_pick(cubes, binate), ones | zeros, done)
    key = _pack(cubes, ones | zeros)
    out = done.get(key)
    if out is None:
        out = done[key] = _split(cubes, _pick(key, binate), ones | zeros, done)
    return out


def _split(cubes: List[Packed], bit: int, wide: int, done: Dict[Key, List[Packed]]) -> List[Packed]:
    """A binate node: simplify the cofactors on the variable at bit and merge them."""
    h0, h1 = cover_cofactor(cubes, bit)
    if len(h0) > 1:  # a cover of one cube is its own result
        h0 = _simplify(h0, done)  # frees the x' cofactor before the x one recurses
    if len(h1) > 1:
        h1 = _simplify(h1, done)
    out = _merge(h0, h1, bit, wide)
    return out if len(out) <= len(cubes) else scc(cubes)


def minimize(cubes: List[Packed], n: int, onset: int) -> List[Packed]:
    """simplify, expand and irredundant on pairs; expand's masks go to a one-pass irredundant."""
    cubes = _simplify(cubes, {})
    masks: Optional[List[int]] = [] if _one_pass(len(cubes), n) else None
    return _irredundant(_expand(cubes, onset, n, masks), onset, n, masks)


def _unpack(cover: Cover, f: Union[TruthTable, FunctionHandle]) -> Tuple[List[Packed], int]:
    """The cover's pairs and f's table bits; a BDD handle's table is rebuilt from the BDD."""
    if not isinstance(f, TruthTable):
        f = bdd.to_truthtable(f)
    if cover.n != f.n:
        raise ValueError("cover variable count does not match the function")
    return [(c.care, c.value) for c in cover], f.bits


def simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    return Cover.of_pairs(cover.n, _simplify([(c.care, c.value) for c in cover], {}))


def expand(cover: Cover, f: Union[TruthTable, FunctionHandle]) -> Cover:
    """Raise literals to don't-care wherever the enlarged cube stays in f."""
    return Cover.of_pairs(cover.n, _expand(*_unpack(cover, f), cover.n))


def irredundant(cover: Cover, f: Union[TruthTable, FunctionHandle]) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover; keeps the cover's Cubes."""
    cubes, onset = _unpack(cover, f)
    by_pair = dict(zip(cubes, cover.cubes))  # equal pairs are equal Cubes
    return Cover(cover.n, tuple(by_pair[pair] for pair in _irredundant(cubes, onset, cover.n)))


def _expand(cubes: List[Packed], onset: int, n: int,
            masks: Optional[List[int]] = None) -> List[Packed]:
    """expand() on pairs; appends each output cube's mask to masks when given.

    Cubes are processed in cover order, variables by ascending index
    (descending bit).  Raising the variable at bit b adds the cube's
    minterms shifted by b across it.
    """
    # every minterm where f is 0, kept non-negative: CPython ANDs with a
    # negative int several times slower, which shows on wide tables
    outside = full_mask(n) ^ onset
    out = []
    for care, value in cubes:
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


# irredundant() holds every cube mask and suffix OR at once while the k
# masks of 2^n bits each stay below this many bits (16 MiB); above it, it
# keeps suffix ORs at block starts only.
_ONE_PASS_BITS = 1 << 27


def _one_pass(k: int, n: int) -> bool:
    return k << n < _ONE_PASS_BITS


def _irredundant(cubes: List[Packed], onset: int, n: int, masks: Optional[List[int]] = None,
                 block: int = 0) -> List[Packed]:
    """irredundant() on pairs; masks, when given, are the cubes' masks.

    Cube i goes iff its mask lies inside the cubes kept before it plus
    every cube after it.  Each mask can take 2^n bits, so a large cover
    runs in blocks of about sqrt(k) cubes (or block cubes), keeping only
    the suffix OR at each block start: O(sqrt(k) 2^n) bits at once.
    """
    if masks is None:
        cubes = list(dict.fromkeys(cubes))
    else:  # equal cubes have equal masks
        unique = dict(zip(cubes, masks))
        cubes, masks = list(unique), list(unique.values())
    k = len(cubes)
    block = block or (max(k, 1) if _one_pass(k, n) else math.isqrt(k - 1) + 1)
    starts = range(0, k or 1, block)
    tails = [0] * (len(starts) + 1)  # tails[j]: every mask from block j on
    for j in range(len(starts) - 1, 0, -1):
        tails[j] = reduce(or_, (pair_mask(n, c, v) for c, v in cubes[starts[j]:starts[j] + block]),
                          tails[j + 1])
    kept: List[Packed] = []
    prefix = 0
    for j, start in enumerate(starts):
        part = (masks[start:start + block] if masks is not None
                else [pair_mask(n, care, value) for care, value in cubes[start:start + block]])
        suffix = [*accumulate(reversed(part), or_, initial=tails[j + 1])][::-1]
        if j == 0 and suffix[0] != onset:
            raise ValueError("cover does not represent the given function")
        for i, mask in enumerate(part):
            rest = prefix | suffix[i + 1]
            if (mask | rest) != rest:  # not mask & ~rest: see _expand()
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
