"""Truth tables, bit-mask cubes, and cover semantics.

Conventions used throughout the package:

* A cube is two ints over n variables, ``care`` and ``value``, with
  variable v at bit n-1-v: a care bit is set iff v has a literal, and
  its value bit is set iff that literal is positive.  The URP simplify
  recursion in minimizer holds the same cube as one record,
  ``(care ^ value) << n | value``; everything else runs on the pair.
* Cube text is positional, one character per variable: 0 means the
  complemented literal, 1 the positive literal, 2 (or "-" on input) an
  absent variable.  It exists only at I/O, in ``decode_cube`` (which
  ``cube_from_text`` wraps), its bulk form ``decode_cubes``, and
  ``format_cube``.
* Minterm index bit order: variable 0 is the MOST significant bit.  For
  n=4 with names a,b,c,d, minterm 5 = 0b0101 = a'bc'd.  So a cube's
  ``value`` is its smallest minterm, and a don't-care variable's bit is
  the minterm shift across that variable.
* Truth tables describe completely specified single-output functions.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

# Truth-table-backed operations refuse larger n; 2^24 bits is the ceiling.
MAX_TABLE_VARS = 24

# The pipeline refuses a BDD with more one-paths, before it makes a cube.
# Dense random tables have 83,367 at n=18 (through the pipeline, about 6-10 s
# under the entropy order and 10-13 s under sift, 85-88 MB peak) and 332,509
# at n=20, where minimizing would take minutes.
MAX_ONE_PATHS = 100_000


class Cube:
    """A conjunction of literals: variable v is bit n-1-v of care and value.

    Immutable, and equal only to a Cube with the same three fields.
    Not a dataclass: a frozen, slotted one takes 0.6 ms to create at
    import against 0.01 ms, and constructs Cubes about 1.5x slower.
    """

    __slots__ = ("n", "care", "value")

    def __init__(self, n: int, care: int, value: int) -> None:
        if value & ~care or care >> n:
            raise ValueError(f"({care:#x}, {value:#x}) is not a cube over {n} variables")
        _set_n(self, n)
        _set_care(self, care)
        _set_value(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Cube, (self.n, self.care, self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Cube:
            return NotImplemented
        return self.n == other.n and self.care == other.care and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.n, self.care, self.value))

    def __repr__(self) -> str:
        return f"Cube({format_cube(self)!r})"

    @property
    def is_universal(self) -> bool:
        return not self.care

    def literal_count(self) -> int:
        return self.care.bit_count()


# the slots' own setters, which get past Cube.__setattr__
_set_n, _set_care, _set_value = Cube.n.__set__, Cube.care.__set__, Cube.value.__set__


@dataclass(frozen=True)
class Cover:
    """An ordered list of cubes denoting their disjunction."""

    n: int
    cubes: Tuple[Cube, ...]

    def __post_init__(self) -> None:
        for c in self.cubes:
            if c.n != self.n:
                raise ValueError(f"cube {format_cube(c)} has length {c.n}, expected {self.n}")

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    @classmethod
    def of_pairs(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "Cover":
        """The cover of (care, value) pairs, one Cube constructed per pair.

        A bad pair raises Cube's own error, at the first bad pair.
        """
        return cls(n, tuple([Cube(n, care, value) for care, value in pairs]))


@dataclass(frozen=True)
class TruthTable:
    """A completely specified function; bit i of ``bits`` is f(minterm i)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_TABLE_VARS:
            raise ValueError(f"variable count {self.n} outside [1, {MAX_TABLE_VARS}]")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ValueError("onset bit vector longer than 2^n")

    def minterms(self) -> Iterator[int]:
        """The ON minterms in ascending order, from one scan of bin(bits)."""
        return (i for i, bit in enumerate(bin(self.bits)[:1:-1]) if bit == "1")


_CARE_CHARS = str.maketrans("012-", "1100")
_VALUE_CHARS = str.maketrans("012-", "0100")
_CUBE_CHARS = str.maketrans("", "", "012-")


def decode_cube(text: str, n: int) -> Tuple[int, int]:
    """The (care, value) pair of a positional cube string over {0,1,2,-}."""
    if len(text) != n:
        raise ValueError(f"cube text {text!r} has length {len(text)}, expected {n}")
    illegal = text.translate(_CUBE_CHARS)
    if illegal:
        raise ValueError(f"illegal cube character {illegal[0]!r} in {text!r}")
    return int(text.translate(_CARE_CHARS), 2), int(text.translate(_VALUE_CHARS), 2)


def decode_cubes(texts: List[str], n: int) -> Optional[Iterator[Tuple[int, int]]]:
    """decode_cube of every text, checked and translated in bulk.

    None when a text has the wrong length or an illegal character; the
    caller walks the texts through decode_cube to raise the first one's error.
    """
    if set(map(len, texts)) - {n} or "".join(texts).translate(_CUBE_CHARS):
        return None
    joined = " ".join(texts)
    cares = joined.translate(_CARE_CHARS).split()
    care_of = {care: int(care, 2) for care in set(cares)}  # texts share few care patterns
    return zip(map(care_of.__getitem__, cares),
               map(int, joined.translate(_VALUE_CHARS).split(), repeat(2)))


def cube_from_text(text: str, n: int) -> Cube:
    return Cube(n, *decode_cube(text, n))


# One string per distinct cube, so a caller that keeps the text of many covers
# holds each text once.  A bounded LRU rather than sys.intern: CPython 3.12
# makes interned strings immortal, so an intern table would only grow.
@lru_cache(maxsize=1 << 14)
def format_cube(cube: Cube) -> str:
    """Canonical text over {0,1,2}; equal cubes share one string."""
    care, value = cube.care, cube.value
    return "".join("01"[value >> s & 1] if care >> s & 1 else "2"
                   for s in range(cube.n - 1, -1, -1))


# A descent uses widths n, n-1, ..., 1 in turn, so after one the cache holds
# widths up to 16 only: about 240 KiB, where keeping every width up to 24
# would hold about 92 MiB for the life of the process.
@lru_cache(maxsize=16)
def var_masks(n: int) -> Tuple[int, ...]:
    """Truth-table masks of the positive literals over n variables.

    Bit m of ``var_masks(n)[v]`` is set iff variable v is 1 in minterm m;
    the complemented literal's mask is ``full_mask(n) ^ var_masks(n)[v]``.
    Only the n positive masks are kept: n * 2^n bits per n.
    """
    if not 1 <= n <= MAX_TABLE_VARS:
        raise ValueError(f"variable count {n} outside [1, {MAX_TABLE_VARS}]")
    size = 1 << n
    masks = []
    for v in range(n):
        run = 1 << (n - 1 - v)  # minterms in a row with the same value of v
        mask = ((1 << run) - 1) << run
        width = 2 * run
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


def full_mask(n: int) -> int:
    """The constant-1 truth table over n variables."""
    return (1 << (1 << n)) - 1


def cube_mask(cube: Cube) -> int:
    """pair_mask() of a Cube."""
    return pair_mask(cube.n, cube.care, cube.value)


def pair_mask(n: int, care: int, value: int) -> int:
    """Truth-table bit mask of the minterms of the cube (care, value) over n variables.

    The cube's pattern is spread from minterm 0 over its free variables,
    then shifted by value (its smallest minterm) once.
    """
    if n > MAX_TABLE_VARS:
        raise ValueError(f"variable count {n} exceeds table limit {MAX_TABLE_VARS}")
    return _spread(1, ~care & ((1 << n) - 1)) << value


def _spread(mask: int, free: int) -> int:
    """mask ORed with its shifts across every variable bit in free: each
    free variable doubles it by a shift of that variable's bit."""
    while free:
        bit = free & -free
        mask |= mask << bit
        free ^= bit
    return mask


def truthtable_from_pairs(n: int, pairs: Iterable[Tuple[int, int]]) -> TruthTable:
    """The table of the cubes (care, value) over n variables: one spread per care pattern.

    Each value must lie inside its care.  Cubes of one care pattern
    differ only in value, so their values are set in one bitmap, which is
    spread over the free variables and ORed in once; a minterm list is one
    group that needs no spread.
    """
    groups: Dict[int, List[int]] = {}
    for care, value in pairs:
        groups.setdefault(care, []).append(value)
    bits = 0
    for care, values in groups.items():
        base = min(values) >> 3  # the bitmap's first byte: it spans the group's values only
        bitmap = bytearray((max(values) >> 3) - base + 1)
        for m in values:
            bitmap[(m >> 3) - base] |= 1 << (m & 7)
        bits |= _spread(int.from_bytes(bitmap, "little"), ~care & ((1 << n) - 1)) << 8 * base
    return TruthTable(n, bits)


def cover_to_truthtable(cover: Cover) -> TruthTable:
    return truthtable_from_pairs(cover.n, [(c.care, c.value) for c in cover])


def truthtable_from_minterms(n: int, minterms: Iterable[int]) -> TruthTable:
    TruthTable(n, 0)  # refuses a bad n before any minterm is read
    minterms = list(minterms)
    for m in minterms:
        if not 0 <= m < (1 << n):
            raise ValueError(f"minterm {m} out of range for n={n}")
    return truthtable_from_pairs(n, zip(repeat((1 << n) - 1), minterms))


def cofactor_bits(bits: int, n: int, var: int, val: bool) -> int:
    """Raw-bits cofactor of an n-variable table on var=val, over n-1 variables.

    The var=val half is shifted into place and masked; then one
    shift-OR-mask step per coarser variable closes the gaps between its
    runs.  That is O(var) big-int operations, no per-minterm loop.
    Each x & ~mask is written x ^ (x & mask): CPython ANDs with a
    negative int several times slower, which shows on wide tables.
    """
    masks = var_masks(n)
    run = 1 << (n - 1 - var)
    if val:
        bits >>= run
    bits ^= bits & masks[var]
    for coarser in range(var - 1, -1, -1):
        bits |= bits >> run
        bits ^= bits & masks[coarser]
        run <<= 1
    return bits


def truthtable_cofactor(tt: TruthTable, var: int, val: bool) -> TruthTable:
    """Restrict var to val; the result ranges over the remaining n-1 variables.

    Kept as documented API for the paper's subtables (f with x = v); the
    pipeline splits raw bits with cofactor_bits in bdd.split_levels.
    """
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    if tt.n == 1:
        raise ValueError("cannot drop the only variable of a table")
    return TruthTable(tt.n - 1, cofactor_bits(tt.bits, tt.n, var, val))


def literal_count(cover: Cover) -> int:
    """Total literals across the cover."""
    return sum(c.literal_count() for c in cover)
