"""Truth tables, positional-notation cubes, and cover semantics.

Conventions used throughout the package:

* A cube is written positionally, one trit per variable: 0 means the
  complemented literal, 1 the positive literal, 2 (or "-" on input) an
  absent variable.
* Minterm index bit order: variable 0 is the MOST significant bit.  For
  n=4 with names a,b,c,d, minterm 5 = 0b0101 = a'bc'd.
* Truth tables describe completely specified single-output functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Iterator, Tuple

# Truth-table-backed operations refuse larger n; 2^24 bits is the ceiling.
MAX_TABLE_VARS = 24


class Trit(IntEnum):
    ZERO = 0
    ONE = 1
    DONT_CARE = 2


_CHAR_TO_TRIT = {
    "0": Trit.ZERO,
    "1": Trit.ONE,
    "2": Trit.DONT_CARE,
    "-": Trit.DONT_CARE,
}
_TRIT_TO_CHAR = {Trit.ZERO: "0", Trit.ONE: "1", Trit.DONT_CARE: "2"}

Assignment = Tuple[bool, ...]


@dataclass(frozen=True)
class Cube:
    """A conjunction of literals in positional notation."""

    trits: Tuple[Trit, ...]

    def __len__(self) -> int:
        return len(self.trits)

    def __repr__(self) -> str:
        return f"Cube({format_cube(self)!r})"

    @property
    def is_universal(self) -> bool:
        return all(t == Trit.DONT_CARE for t in self.trits)

    def literal_count(self) -> int:
        return sum(1 for t in self.trits if t != Trit.DONT_CARE)


@dataclass(frozen=True)
class Cover:
    """An ordered list of cubes denoting their disjunction."""

    n: int
    cubes: Tuple[Cube, ...]

    def __post_init__(self) -> None:
        for c in self.cubes:
            if len(c) != self.n:
                raise ValueError(f"cube {format_cube(c)} has length {len(c)}, expected {self.n}")

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)


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

    def value(self, minterm: int) -> bool:
        return bool((self.bits >> minterm) & 1)

    def minterms(self) -> Iterator[int]:
        for i in range(1 << self.n):
            if (self.bits >> i) & 1:
                yield i

    def on_count(self) -> int:
        return self.bits.bit_count()

    @property
    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits.bit_count() == 1 << self.n


def universal_cube(n: int) -> Cube:
    return Cube((Trit.DONT_CARE,) * n)


def cube_from_text(text: str, n: int) -> Cube:
    """Parse a positional cube string over {0,1,2,-}."""
    if len(text) != n:
        raise ValueError(f"cube text {text!r} has length {len(text)}, expected {n}")
    trits = []
    for ch in text:
        try:
            trits.append(_CHAR_TO_TRIT[ch])
        except KeyError:
            raise ValueError(f"illegal cube character {ch!r} in {text!r}") from None
    return Cube(tuple(trits))


def format_cube(cube: Cube) -> str:
    """Canonical text over {0,1,2}."""
    return "".join(_TRIT_TO_CHAR[t] for t in cube.trits)


def _check_same_length(c1: Cube, c2: Cube) -> None:
    if len(c1) != len(c2):
        raise ValueError(f"cube length mismatch: {len(c1)} vs {len(c2)}")


def cube_contains(outer: Cube, inner: Cube) -> bool:
    """True iff every minterm of inner is a minterm of outer."""
    _check_same_length(outer, inner)
    return all(
        o == Trit.DONT_CARE or o == i for o, i in zip(outer.trits, inner.trits)
    )


def cubes_disjoint(c1: Cube, c2: Cube) -> bool:
    """True iff the two cubes share no minterm (opposing 0/1 at some position)."""
    _check_same_length(c1, c2)
    return any(
        {a, b} == {Trit.ZERO, Trit.ONE} for a, b in zip(c1.trits, c2.trits)
    )


def cube_cofactor(c: Cube, var: int, val: bool) -> Cube | None:
    """Cofactor w.r.t. var=val; None when the cube has the opposing literal."""
    if not 0 <= var < len(c):
        raise ValueError(f"variable index {var} out of range for cube of length {len(c)}")
    t = c.trits[var]
    want = Trit.ONE if val else Trit.ZERO
    if t != Trit.DONT_CARE and t != want:
        return None
    return Cube(c.trits[:var] + (Trit.DONT_CARE,) + c.trits[var + 1:])


def index_to_assignment(i: int, n: int) -> Assignment:
    """Minterm index to assignment; variable 0 is the most significant bit."""
    return tuple(bool((i >> (n - 1 - v)) & 1) for v in range(n))


def cube_minterms(cube: Cube) -> Iterator[int]:
    """Enumerate the minterm indices covered by a cube."""
    n = len(cube)
    free = [v for v, t in enumerate(cube.trits) if t == Trit.DONT_CARE]
    base = 0
    for v, t in enumerate(cube.trits):
        if t == Trit.ONE:
            base |= 1 << (n - 1 - v)
    for mask in range(1 << len(free)):
        idx = base
        for k, v in enumerate(free):
            if (mask >> k) & 1:
                idx |= 1 << (n - 1 - v)
        yield idx


@lru_cache(maxsize=None)
def var_masks(n: int) -> Tuple[int, ...]:
    """Truth-table masks of the positive literals over n variables.

    Bit m of ``var_masks(n)[v]`` is set iff variable v is 1 in minterm m;
    the complemented literal's mask is ``full_mask(n) ^ var_masks(n)[v]``.
    Only the n positive masks are kept, so the cache holds at most
    n * 2^n bits per n.
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
    """Truth-table bit mask of the cube's minterms."""
    masks = var_masks(len(cube))
    mask = full_mask(len(cube))
    for v, t in enumerate(cube.trits):
        if t == Trit.ONE:
            mask &= masks[v]
        elif t == Trit.ZERO:
            mask &= ~masks[v]
    return mask


def cover_to_truthtable(cover: Cover) -> TruthTable:
    if cover.n > MAX_TABLE_VARS:
        raise ValueError(f"variable count {cover.n} exceeds table limit {MAX_TABLE_VARS}")
    bits = 0
    for cube in cover:
        bits |= cube_mask(cube)
    return TruthTable(cover.n, bits)


def truthtable_from_minterms(n: int, minterms: Iterable[int]) -> TruthTable:
    bits = 0
    for m in minterms:
        if not 0 <= m < (1 << n):
            raise ValueError(f"minterm {m} out of range for n={n}")
        bits |= 1 << m
    return TruthTable(n, bits)


def cofactor_bits(bits: int, n: int, var: int, val: bool) -> int:
    """Raw-bits cofactor of an n-variable table on var=val, over n-1 variables.

    The var=val half is shifted into place and masked; then one
    shift-OR-mask step per coarser variable closes the gaps between its
    runs.  That is O(var) big-int operations, no per-minterm loop.
    """
    masks = var_masks(n)
    run = 1 << (n - 1 - var)
    if val:
        bits >>= run
    bits &= ~masks[var]
    for coarser in range(var - 1, -1, -1):
        bits = (bits | bits >> run) & ~masks[coarser]
        run <<= 1
    return bits


def truthtable_cofactor(tt: TruthTable, var: int, val: bool) -> TruthTable:
    """Restrict var to val; the result ranges over the remaining n-1 variables."""
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    if tt.n == 1:
        raise ValueError("cannot drop the only variable of a table")
    return TruthTable(tt.n - 1, cofactor_bits(tt.bits, tt.n, var, val))


def literal_count(cover: Cover) -> int:
    """Total non-don't-care trits across the cover."""
    return sum(c.literal_count() for c in cover)
