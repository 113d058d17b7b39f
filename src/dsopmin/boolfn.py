"""Truth tables, bit-mask cubes, and cover semantics.

Conventions used throughout the package:

* A cube is two ints over n variables, ``care`` and ``value``, with
  variable v at bit n-1-v: a care bit is set iff v has a literal, and
  its value bit is set iff that literal is positive.  The URP simplify
  recursion in minimizer holds the same cube as one record,
  ``(care ^ value) << n | value``; everything else runs on the pair.
* Cube text is positional, one character per variable: 0 means the
  complemented literal, 1 the positive literal, 2 (or "-" on input) an
  absent variable.  It exists only at I/O, in ``decode_cube``, its bulk
  form ``decode_cubes``, and ``format_cube``.
* Minterm index bit order: variable 0 is the MOST significant bit.  For
  n=4 with names a,b,c,d, minterm 5 = 0b0101 = a'bc'd.  So a cube's
  ``value`` is its smallest minterm, and a don't-care variable's bit is
  the minterm shift across that variable.
* Truth tables describe completely specified single-output functions.

No class in the package is made by code generation at import: no
dataclass or named tuple.  Each is a plain class with ``__slots__``, and
the value types (Cube, Cover, TruthTable, bdd.VariableOrder) share
_Frozen's immutability, equality, hash and pickling.  A frozen, slotted
dataclass costs about 1 ms to create at import, and importing
``dataclasses`` loads ``inspect`` too: together about 60% of a
bytecode-cached ``import dsopmin.cli``, paid by every CLI call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# Truth-table-backed operations refuse larger n; 2^24 bits is the ceiling.
MAX_TABLE_VARS = 24

# The pipeline refuses a BDD with more one-paths, before it makes a cube.
# Dense random tables have 83,367 at n=18 (through the pipeline, about 6-10 s
# under the entropy order and 10-13 s under sift, 84-86 MB peak) and 332,509
# at n=20, where minimizing would take minutes.
MAX_ONE_PATHS = 100_000


class _Frozen:
    """An immutable value: equal to, and hashed and pickled as, the tuple
    of its slots' values, which are also its constructor's arguments."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({fields})"


_set = object.__setattr__  # gets past _Frozen.__setattr__


class Cube(_Frozen):
    """A conjunction of literals: variable v is bit n-1-v of care and value.

    Equal only to a Cube with the same three fields.  Its own equality and
    hash, which read the slots directly, are the hot ones.
    """

    __slots__ = ("n", "care", "value")

    def __init__(self, n: int, care: int, value: int) -> None:
        if value & ~care or care >> n:
            raise ValueError(f"({care:#x}, {value:#x}) is not a cube over {n} variables")
        _set_n(self, n)
        _set_care(self, care)
        _set_value(self, value)

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


# the slots' own setters, quicker than _set in the hot constructor
_set_n, _set_care, _set_value = Cube.n.__set__, Cube.care.__set__, Cube.value.__set__


class Cover(_Frozen):
    """An ordered list of cubes denoting their disjunction."""

    __slots__ = ("n", "cubes")

    def __init__(self, n: int, cubes: Tuple[Cube, ...]) -> None:
        for c in cubes:
            if c.n != n:
                raise ValueError(f"cube {format_cube(c)} has length {c.n}, expected {n}")
        _set(self, "n", n)
        _set(self, "cubes", cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    @classmethod
    def of_pairs(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "Cover":
        """The cover of (care, value) pairs, one Cube constructed per pair.

        A bad pair raises Cube's own error, at the first bad pair.  The
        cubes are made over n, so the constructor's length check is skipped.
        """
        cover = object.__new__(cls)
        _set(cover, "n", n)
        _set(cover, "cubes", tuple([Cube(n, care, value) for care, value in pairs]))
        return cover


class TruthTable(_Frozen):
    """A completely specified function; bit i of ``bits`` is f(minterm i)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if not 1 <= n <= MAX_TABLE_VARS:
            raise ValueError(f"variable count {n} outside [1, {MAX_TABLE_VARS}]")
        if bits < 0 or bits.bit_length() > 1 << n:
            raise ValueError("onset bit vector longer than 2^n")
        _set(self, "n", n)
        _set(self, "bits", bits)

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


# One string per distinct cube, so a caller that keeps the text of many covers
# holds each text once.  A bounded LRU rather than sys.intern: CPython 3.12
# makes interned strings immortal, so an intern table would only grow.
@lru_cache(maxsize=1 << 14)
def format_cube(cube: Cube) -> str:
    """Canonical text over {0,1,2}; equal cubes share one string."""
    care, value = cube.care, cube.value
    return "".join("01"[value >> s & 1] if care >> s & 1 else "2"
                   for s in range(cube.n - 1, -1, -1))


# Widths up to KEPT_WIDTH keep their literal masks here (about 240 KiB in
# all) and their cofactor entropies in ordering.  Widths 17 to 24 would take
# about 92 MiB of masks together, so a wider width's masks are built one per
# read and dropped with their last reference.
KEPT_WIDTH = 16


def var_masks(n: int) -> Sequence[int]:
    """Truth-table masks of the positive literals over n variables.

    Bit m of ``var_masks(n)[v]`` is set iff variable v is 1 in minterm m;
    the complemented literal's mask is ``full_mask(n) ^ var_masks(n)[v]``.
    Up to KEPT_WIDTH the kept tuple of the n masks; above it a sequence
    that builds each mask when it is read and keeps none.
    """
    if not 1 <= n <= MAX_TABLE_VARS:
        raise ValueError(f"variable count {n} outside [1, {MAX_TABLE_VARS}]")
    return _kept_masks(n) if n <= KEPT_WIDTH else _LazyMasks(n)


@lru_cache(maxsize=KEPT_WIDTH)
def _kept_masks(n: int) -> Tuple[int, ...]:
    return tuple(map(_var_mask, repeat(n), range(n)))


def _var_mask(n: int, v: int) -> int:
    """var_masks(n)[v], built by doubling a run of 1s."""
    size = 1 << n
    run = 1 << (n - 1 - v)  # minterms in a row with the same value of v
    mask = ((1 << run) - 1) << run
    width = 2 * run
    while width < size:
        mask |= mask << width
        width *= 2
    return mask


class _LazyMasks:
    """var_masks(n) above KEPT_WIDTH: one mask built per read."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(v)  # ends iteration
        return _var_mask(self.n, v)


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


def truthtable_from_minterms(n: int, minterms: Iterable[int]) -> TruthTable:
    TruthTable(n, 0)  # refuses a bad n before any minterm is read
    minterms = list(minterms)
    for m in minterms:
        if not 0 <= m < (1 << n):
            raise ValueError(f"minterm {m} out of range for n={n}")
    return truthtable_from_pairs(n, zip(repeat((1 << n) - 1), minterms))


def cofactor_tables(tables: Iterable[int], masks: Sequence[int], var: int) -> List[Tuple[int, int]]:
    """The (var=0, var=1) raw-bits cofactors of each n-variable table, over n-1 variables.

    masks is var_masks(n), which the caller fetches: the descent fetches
    a level's once, for its place rule and these cofactors.  Each half is
    shifted into place and masked by masks[var]; then one shift-OR-mask
    step per coarser variable, its mask read once for all the tables,
    closes the gaps between its runs: O(var) big-int operations per
    table, no per-minterm loop.  Each x & ~mask is
    written x ^ (x & mask): CPython ANDs with a negative int several
    times slower, which shows on wide tables.
    """
    run, mask = 1 << (len(masks) - 1 - var), masks[var]
    steps = [(run << j, masks[coarser]) for j, coarser in enumerate(range(var - 1, -1, -1))]
    out = []
    for bits in tables:
        lo = bits ^ (bits & mask)
        for shift, coarser in steps:
            lo |= lo >> shift
            lo ^= lo & coarser
        hi = bits >> run
        hi ^= hi & mask
        for shift, coarser in steps:
            hi |= hi >> shift
            hi ^= hi & coarser
        out.append((lo, hi))
    return out


def cofactor_bits(bits: int, n: int, var: int, val: bool) -> int:
    """Raw-bits cofactor of an n-variable table on var=val: cofactor_tables of one table."""
    return cofactor_tables((bits,), var_masks(n), var)[0][val]


def literal_count(cover: Cover) -> int:
    """Total literals across the cover."""
    return sum(c.literal_count() for c in cover)
