"""Cover minimization by the unate recursive paradigm.

simplify() splits a binate cover on its most-binate variable and
joins the cofactor results with the containment lift; unate leaves
fall to single-cube containment.  Inside the recursion each cube is one
int record, ``zeros << n | ones``: its complemented literals above its
positive ones.  A node's polarity is one OR per cube, a cofactor one
test and one XOR, a containment test one OR, and the work per recursion
node stays near linear in its cover:

* a binate node picks Espresso's most-binate variable (most cubes with
  a literal on it, then most balanced; Brayton et al., 1984), but counts
  only the variables that can win: one with a literal in every cube has
  the most rows there are, so a node of 3 cubes or more ANDs its
  records' care bits into its binate mask, and what survives is ranked
  by balance alone, one count each, or taken with no count if it is
  alone.  On the pipeline's DSOPs every such node keeps a variable (all
  1,542 of a seed-1 random-dense pass, with 2.6 candidates for 4.2
  binate variables on average below 16 cubes); a cover with none counts
  every binate variable.  Three cubes are the rule in closed form;
* a cover of 16 cubes or more packs its records into one int, a field
  per cube, from 32 cubes on through one array copy; each count of the
  pick is one popcount on it and each containment query of the merge
  or scc() a few operations, the merge's a yes or no read off the
  guard bits.  Where no query has more literals than the fewest-literal
  cube, only an equal cube can hold one: the counts are one tally and
  nothing is packed (48 of the 67 kernel leaves of a seed-1 structured
  benchmark pass, 2 of 318 of a random-dense one).  Below that, where
  most nodes are, packing costs more than it saves: a node counts cube
  by cube, the merge files each cube against a small other half in one
  loop, and a two-cube node is closed form;
* the merge of two simplify() results needs no containment pass;
* one call keeps a table from each binate sub-cover of 4 cubes or more
  to its result, the computed table of BDD packages (Brace, Rudell and
  Bryant, DAC 1990) applied to URP: cofactors of symmetric functions
  repeat (F|x=0,y=1 = F|x=1,y=0), and so do sub-covers below shared BDD
  nodes.  From 16 cubes on its key is the packed int, which _pick reads
  and which holds no references for the garbage collector to traverse;
  below that, the records' tuple.  It is bounded by its input: an entry
  is stored only while the result records held stay within the input
  cover's record count, so a dense input, where hardly any sub-cover
  repeats, holds at most one cover's worth.

minimize() and simplify() turn ``(care, value)`` pairs into records on
entry and back on exit.  expand() raises literals toward primeness and
irredundant() drops cubes the rest of the cover covers, both on pairs
and truth-table bit masks, or past a size bound, for small cubes, on
minterm lists and counts; within the one-pass bound expand() reads
Espresso's blocking matrix, kept as one mask per variable.  minimize()
runs the three passes for the pipeline; simplify(), expand() and
irredundant() wrap the same kernels for a Cover.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import bdd
from .bdd import FunctionHandle
from .boolfn import Cover, Cube, TruthTable, format_cube, full_mask, pair_mask, var_masks

# A cube's (care, value) pair; variable v is bit n-1-v, as in boolfn.Cube.
Packed = Tuple[int, int]

# Under this many cubes packing costs more than it saves: a binate node
# picks its variable by counting cubes and is keyed by its records' tuple,
# and the merge scans such a half cube by cube instead of packing it.
_SMALL = 16

# A packed cover: (size, cube count, fields).  Cube i's record fills bytes
# [i size, (i+1) size) under a guard bit, with size = 2n // 8 + 1.
Key = Tuple[int, int, int]


def _pack(cubes: Sequence[int], n: int) -> Key:
    """The cover's records packed into one int.

    From 32 cubes on, where a field fits in one 8-byte word (n up to 31),
    the records go through one array("Q") copy, whose little-endian bytes
    fill the fields with one strided slice assignment per field byte;
    fewer cubes or wider fields join each record's bytes.  Either way the
    int is the same, so table keys do not depend on the path.
    """
    size, count = n // 4 + 1, len(cubes)  # two n-bit masks and the guard bit
    if count < 32 or size > 8:
        data = b"".join([r.to_bytes(size, "little") for r in cubes])
    else:
        words = array("Q", cubes)
        if sys.byteorder == "big":
            words.byteswap()
        raw, data = words.tobytes(), bytearray(size * count)
        for b in range(size):
            data[b::size] = raw[b::words.itemsize]
    return size, count, int.from_bytes(data, "little")


def _count_pick(cubes: Sequence[int], binate: int, n: int, every: int = 0) -> int:
    """_pick on a cover of fewer than _SMALL cubes, every as there, counted cube by cube.

    A candidate in every has len(cubes) rows, so only its ones are counted.
    """
    candidates = every or binate
    if not candidates & candidates - 1:
        return candidates
    best, pick = (0, 0), 0
    while candidates:  # top bit first, so a tie keeps the lowest index
        bit = 1 << candidates.bit_length() - 1
        candidates ^= bit
        ones = 0
        for r in cubes:
            if r & bit:
                ones += 1
        zeros = len(cubes) - ones if every else sum(1 for r in cubes if r & bit << n)
        score = ones + zeros, -abs(zeros - ones)
        if score > best:
            best, pick = score, bit
    return pick


def _pick(key: Key, binate: int, n: int, every: int = 0) -> int:
    """Bit of the packed cover's most-binate variable, as _count_pick picks it.

    Most rows, most balanced, then lowest index (top bit).  every holds
    the binate variables with a literal in every cube (_simplify ANDs each
    record's care bits into the binate mask), or 0 where there are none or
    they are not known.  Such a variable has the most rows there are, so
    only those compete: one wins with no count, several by balance alone,
    |k - 2 ones| for k cubes.  On the pipeline's DSOPs every binate node of
    4 cubes or more has one.  With every 0, all binate variables are
    counted in full.  Each count is one popcount under a periodic mask.
    """
    candidates = every or binate
    if not candidates & candidates - 1:
        return candidates
    size, count, fields = key
    column = _columns(size, count)[0]
    keys = []
    for s in range(candidates.bit_length()):
        if candidates >> s & 1:
            c1 = (fields & column << s).bit_count()
            c0 = count - c1 if every else (fields & column << s + n).bit_count()
            keys.append((-(c0 + c1), abs(c0 - c1), -(1 << s)))
    return -min(keys)[2]


@lru_cache(maxsize=64)
def _columns(size: int, count: int) -> Tuple[int, int, int]:
    """Bit 0 of each of count fields of size bytes, the bits under each guard, and the guards."""
    column = ((1 << 8 * size * count) - 1) // ((1 << 8 * size) - 1)
    return column, ((1 << 8 * size - 1) - 1) * column, column << 8 * size - 1


def cover_cofactor(cubes: Sequence[int], bit: int, n: int) -> Tuple[List[int], List[int]]:
    """The per-cube cofactors at x' and at x on the variable at bit, in one pass."""
    zero = bit << n
    h0, h1 = [], []
    for r in cubes:
        if r & bit:
            h1.append(r ^ bit)
        elif r & zero:
            h0.append(r ^ zero)
        else:
            h0.append(r)
            h1.append(r)
    return h0, h1


def _containers(queries: Sequence[int], cubes: Sequence[int], n: int, held: bool = False) -> List[int]:
    """For each query record, how many of the cube records contain it; with held, whether any does.

    A container's record has no bit (a miss) outside the query's; adding
    low carries into the guard of each field with one (broadword, Knuth
    TAOCP 4A 7.1.3).  Past 512 queries and cubes, a query meets only the
    cubes that can hold it on their top variable, while no part keeps over
    2/3 of them; at most q/512 parts per level copy cubes, on log(k/512)/log(1.5) levels.
    A part where only an equal cube can hold a query (_equal_only) is not
    packed: each count is the query's multiplicity in it, duplicates
    included, read from one tally (Espresso's containment orders cubes by
    size the same way; Brayton et al., 1984).  On the seed-1 benchmark
    passes that answers 48 of 67 such leaves on structured, 2 of 318 on
    random-dense, 0 of 7 on wide-pla and 0 of 21 on the oracle pool's
    finishing functions.
    """
    if not queries:
        return []
    if len(queries) > 512 < len(cubes):
        acc = reduce(or_, cubes)
        bit = 1 << ((acc | acc >> n) & (1 << n) - 1).bit_length() >> 1  # 0 if every cube is universal
        both = bit << n | bit
        lits = (0, bit << n, bit)  # no literal on bit, x', x
        sides = [[r ^ lit for r in cubes if r & both == lit] for lit in lits]
        if 3 * (len(sides[0]) + max(len(sides[1]), len(sides[2]))) <= 2 * len(cubes):
            parts = {lit: iter(_containers([q for q in queries if q & both == lit],
                                           side + sides[0] if lit else side, n, held))
                     for lit, side in zip(lits, sides)}
            return [next(parts[q & both]) for q in queries]
    if _equal_only(queries, cubes, n):
        if held:
            return [*map(set(cubes).__contains__, queries)]
        return [*map(Counter(cubes).get, queries, repeat(0))]
    size, count, fields = _pack(cubes, n)
    below = (1 << 8 * size - 1) - 1  # a field's bits under its guard
    column, low, guard = _columns(size, count)
    if held:  # some guard stays clear
        return [guard & (fields & (below ^ q) * column) + low != guard for q in queries]
    return [count - (guard & (fields & (below ^ q) * column) + low).bit_count() for q in queries]


def _equal_only(queries: Sequence[int], cubes: Sequence[int], n: int) -> bool:
    """Whether no query has more literals than the fewest-literal cube.

    A cube holds a query only if it has no more literals (a record's
    popcount), so then only a cube equal to a query holds it.  The first
    query with more literals than the first cube stops the probe, which
    on a random-dense pass reads about 7 queries per leaf; there, under
    CPython 3.11, these loops took under half the time of all(map(...)).
    """
    bound = cubes[0].bit_count() if cubes else n
    most = 0
    for q in queries:
        lits = q.bit_count()
        if lits > bound:
            return False
        if lits > most:
            most = lits
    for r in cubes:
        if r.bit_count() < most:
            return False
    return True


def scc(cubes: Sequence[int], n: int) -> List[int]:
    """Single-cube containment: drop cubes inside another, keeping order and first duplicates."""
    unique = list(dict.fromkeys(cubes))
    return [r for r, inside in zip(unique, _containers(unique, unique, n)) if inside == 1]


def _merge(h0: Sequence[int], h1: Sequence[int], bit: int, n: int) -> List[int]:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with the variable at bit left don't-care; the rest get
    the literal back.

    Neither half may mention the variable at bit, and each must be
    SCC-minimal (no cube inside another, no duplicates), as every
    simplify() result is; then so is the output, with no containment
    pass: a specialized cube could lie only inside a lifted cube of its
    own half (one cube of the half inside another) or of the other half
    (which would have lifted it); a lifted cube inside another would put
    one cube of a half inside another; and the two specialized sides
    differ in the bit.

    A cube is lifted if some cube of the other half holds it.  Against a
    half of _SMALL cubes or more that is _containers' yes or no: a guard
    bit left clear in the packed scan, or membership in the tally, with
    no count of the containers (scc() keeps the counts).
    """
    lifted, rest = {}, []  # lifted: an insertion-ordered set
    for half, other, lit in ((h0, h1, bit << n), (h1, h0, bit)):
        if len(other) < _SMALL:  # one pass: a cube is lifted at its first container
            for r in half:
                for o in other:
                    if o | r == r:
                        lifted[r] = None
                        break
                else:
                    rest.append(r | lit)
            continue
        for r, inside in zip(half, _containers(half, other, n, True)):
            if inside:
                lifted[r] = None
            else:
                rest.append(r | lit)
    return [*lifted, *rest]


class _Table(dict):
    """One simplify() call's table: binate sub-cover key -> its result.

    room is how many more result records it may hold: it starts at the
    input cover's record count, and an entry is stored only while it fits.
    """

    __slots__ = ("room",)

    def __init__(self, room: int) -> None:
        self.room = room


def _simplify(cubes: List[int], n: int, done: _Table) -> List[int]:
    """simplify() on records; done maps each binate cover of 4 cubes or more to its result.

    The key of a cover under _SMALL cubes is its records' tuple; from
    _SMALL on it is the packed cover, which _pick reads.  A tuple of four
    or more records never equals a 3-field Key, so the two kinds share
    one table; three-cube nodes stay out of it.
    """
    if len(cubes) == 1:
        return cubes
    acc = 0
    for r in cubes:
        acc |= r
    binate = acc & acc >> n
    if not binate:
        return scc(cubes, n)
    if len(cubes) == 2:  # every binate variable splits the pair: all tie in _pick()
        bit = 1 << binate.bit_length() - 1
        a, b = cubes if cubes[1] & bit else cubes[::-1]  # a has x', b has x
        ca, cb = a ^ bit << n, b ^ bit  # their cofactors
        # another binate variable splits the cofactors; else one holds the other iff its literals do
        if binate != bit or ca | cb not in (ca, cb):
            return [a, b]
        if ca == cb:
            return [ca]
        return [ca, b] if ca | cb == ca else [cb, a]
    if len(cubes) == 3:  # _pick in closed form: a variable all three care about has the most
        a, b, c = cubes  # rows and a balance of 1, so all such tie; else all binate ones do
        every = binate & (a | a >> n) & (b | b >> n) & (c | c >> n)
        return _split(cubes, 1 << (every or binate).bit_length() - 1, n, done)
    small = len(cubes) < _SMALL
    key = tuple(cubes) if small else _pack(cubes, n)
    out = done.get(key)
    if out is None:
        every = binate  # the binate variables with a literal in every cube: see _pick
        for r in cubes:
            every &= r | r >> n
        out = _split(cubes, _count_pick(cubes, binate, n, every) if small else _pick(key, binate, n, every),
                     n, done)
        if len(out) <= done.room:
            done.room -= len(out)
            done[key] = out
    return out


def _split(cubes: List[int], bit: int, n: int, done: _Table) -> List[int]:
    """A binate node: simplify the cofactors on the variable at bit and merge them."""
    h0, h1 = cover_cofactor(cubes, bit, n)
    h0 = _simplify(h0, n, done)  # frees the x' cofactor before the x one recurses
    h1 = _simplify(h1, n, done)
    out = _merge(h0, h1, bit, n)
    return out if len(out) <= len(cubes) else scc(cubes, n)


def _urp(cubes: Sequence[Packed], n: int) -> List[Packed]:
    """_simplify on pairs: each becomes the record (care ^ value) << n | value, and back."""
    low = (1 << n) - 1
    records = [(care ^ value) << n | value for care, value in cubes]
    out = _simplify(records, n, _Table(len(records)))
    return [(r >> n | r & low, r & low) for r in out]


def minimize(cubes: List[Packed], n: int, onset: int) -> List[Packed]:
    """simplify, expand and irredundant on pairs; expand's masks go to a one-pass irredundant."""
    cubes = _urp(cubes, n)
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
    return Cover.of_pairs(cover.n, _urp([(c.care, c.value) for c in cover], cover.n))


def expand(cover: Cover, f: Union[TruthTable, FunctionHandle]) -> Cover:
    """Raise literals to don't-care wherever the enlarged cube stays in f."""
    return Cover.of_pairs(cover.n, _expand(*_unpack(cover, f), cover.n))


def irredundant(cover: Cover, f: Union[TruthTable, FunctionHandle]) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover."""
    return Cover.of_pairs(cover.n, _irredundant(*_unpack(cover, f), cover.n))


def _expand(cubes: List[Packed], onset: int, n: int,
            masks: Optional[List[int]] = None) -> List[Packed]:
    """expand() on pairs; appends each output cube's mask to masks when given.

    Cubes are processed in cover order, variables by ascending index
    (descending bit).  Raising the variable at bit b adds the cube's
    minterms shifted by b across it.  Within the one-pass bound that is
    _expand_blocked; past it, where masks are not given, a mask shift
    tested against f's OFF-set, or for a cube of _MINTERM_LITS literals
    or more, its minterm list with bit b flipped.
    """
    # every minterm where f is 0, kept non-negative: CPython ANDs with a
    # negative int several times slower, which shows on wide tables
    outside = full_mask(n) ^ onset
    if _one_pass(len(cubes), n):
        return _expand_blocked(cubes, outside, n, masks)
    view = None
    out = []
    for care, value in cubes:
        if care.bit_count() >= _MINTERM_LITS:
            view = view or _minterm_view(n, onset)
            out.append(_expand_by_minterm(care, value, n, view))
            continue
        mask = pair_mask(n, care, value)
        if mask & outside:
            raise _not_contained(n, care, value)
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
    return out


def _expand_blocked(cubes: List[Packed], outside: int, n: int,
                    masks: Optional[List[int]]) -> List[Packed]:
    """_expand() within the one-pass bound.

    blocked[b] is the minterms whose neighbour across bit b lies outside
    f, made once per call, so a literal test is one AND with the cube's
    mask: its care pattern's spread, made once per pattern, shifted by
    its value, and shifted again only when a literal is raised.
    """
    blocked = []  # (b, blocked[b]), b descending
    for var, pos in enumerate(var_masks(n)):
        bit = 1 << (n - 1 - var)
        up = outside & pos  # outside f where the variable is 1
        blocked.append((bit, (outside ^ up) << bit | up >> bit))
    # care -> its spread and its literals' (bit, blocked[bit]), bits descending
    patterns: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
    out = []
    for care, value in cubes:
        pattern = patterns.get(care)
        if pattern is None:
            pattern = patterns[care] = (pair_mask(n, care, 0),
                                        [(bit, block) for bit, block in blocked if care & bit])
        spread, lits = pattern
        mask = spread << value
        if mask & outside:
            raise _not_contained(n, care, value)
        for bit, block in lits:
            if not mask & block:
                mask |= mask >> bit if value & bit else mask << bit
                care ^= bit
                value &= ~bit
        out.append((care, value))
        if masks is not None:
            masks.append(mask)
    return out


def _not_contained(n: int, care: int, value: int) -> ValueError:
    return ValueError(f"cube {format_cube(Cube(n, care, value))} is not contained in the function")


def _expand_by_minterm(care: int, value: int, n: int, view: bytes) -> Packed:
    """_expand() of one cube on its minterm list, each tested in f's minterm view."""
    mins = _minterms(n, care, value)
    if not all(map(view.__getitem__, mins)):
        raise _not_contained(n, care, value)
    lits = care
    while lits:
        bit = 1 << (lits.bit_length() - 1)
        lits ^= bit
        other_half = [m ^ bit for m in mins]
        if all(map(view.__getitem__, other_half)):
            mins += other_half
            care ^= bit
            value &= ~bit
    return care, value


# irredundant() holds every cube mask and suffix OR at once, and expand()
# its n blocked masks, while those k + n masks of 2^n bits each stay below
# this many bits (16 MiB); above it, expand() makes no blocked mask and
# irredundant() keeps suffix ORs at block starts only.
_ONE_PASS_BITS = 1 << 27

# Past the one-pass bound, where expand's masks are not handed over, a cube
# with at least this many literals, so at most 2^n >> 10 minterms, goes
# through expand and irredundant minterm by minterm: a mask costs 2^n bits
# whatever the cube's size.  Larger cubes keep the masks and block mode.
_MINTERM_LITS = 10


def _one_pass(k: int, n: int) -> bool:
    return (k + n) << n < _ONE_PASS_BITS


def _minterm_view(n: int, onset: int) -> bytes:
    """f minterm by minterm: byte m is 1 where f is 1 and 0 elsewhere."""
    return format(onset, f"0{1 << n}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _minterms(n: int, care: int, value: int) -> List[int]:
    """The cube's minterms: value, doubled across each free variable."""
    out = [value]
    free = ~care & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        out += [m | bit for m in out]
    return out


def _irredundant(cubes: List[Packed], onset: int, n: int,
                 masks: Optional[List[int]] = None) -> List[Packed]:
    """irredundant() on pairs; masks, when given, are the cubes' masks.

    Cube i goes iff its mask lies inside the cubes kept before it plus
    every cube after it.  Each mask can take 2^n bits, so a large cover
    runs in blocks of about sqrt(k) cubes, keeping only the suffix OR at
    each block start: O(sqrt(k) 2^n) bits at once.  Past the one-pass
    bound, a nonempty cover of cubes of _MINTERM_LITS literals or more
    keeps a count per minterm of the cubes that cover it instead: cube i
    goes iff every minterm of it has a count of 2 or more, and then takes
    its minterms' counts down by one.  The empty cover is one block of
    none, so f = 0 costs no 2^n counters.
    """
    if masks is None:
        cubes = list(dict.fromkeys(cubes))
    else:  # equal cubes have equal masks
        unique = dict(zip(cubes, masks))
        cubes, masks = list(unique), list(unique.values())
    k = len(cubes)
    kept: List[Packed] = []
    if not _one_pass(k, n) and min((c.bit_count() for c, _ in cubes), default=0) >= _MINTERM_LITS:
        counts = array("I", [0]) * (1 << n)
        for m in chain.from_iterable(_minterms(n, care, value) for care, value in cubes):
            counts[m] += 1
        if bytes(map(bool, counts)) != _minterm_view(n, onset):
            raise ValueError("cover does not represent the given function")
        for care, value in cubes:
            mins = _minterms(n, care, value)
            if 1 in map(counts.__getitem__, mins):  # a minterm no other cube covers
                kept.append((care, value))
            else:
                for m in mins:
                    counts[m] -= 1
        return kept
    block = max(k, 1) if _one_pass(k, n) else math.isqrt(k) + 1
    starts = range(0, k or 1, block)
    tails = [0] * (len(starts) + 1)  # tails[j]: every mask from block j on
    for j in range(len(starts) - 1, 0, -1):
        tails[j] = reduce(or_, (pair_mask(n, c, v) for c, v in cubes[starts[j]:starts[j] + block]),
                          tails[j + 1])
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
