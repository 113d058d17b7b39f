"""Cover minimization by the unate recursive paradigm.

simplify() recursively splits a binate cover on the most-binate
variable and recombines the cofactor results with the containment
lift; unate leaves fall to single-cube containment.  expand() raises
literals toward primeness and irredundant() then drops cubes the rest
of the cover already covers; both answer their containment questions
on truth-table bit masks, taking the function's table from its BDD.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence, Tuple

from . import bdd
from .bdd import FunctionHandle
from .boolfn import (
    Cover,
    Cube,
    Trit,
    cube_contains,
    cube_mask,
    format_cube,
    universal_cube,
)


class Monotonicity(Enum):
    POS_UNATE = "pos"
    NEG_UNATE = "neg"
    BINATE = "binate"
    ABSENT = "absent"


def classify(cover: Cover) -> Tuple[List[Monotonicity], bool]:
    """Per-variable monotonicity plus an overall unate flag."""
    result: List[Monotonicity] = []
    unate = True
    for j in range(cover.n):
        has0 = any(c.trits[j] == Trit.ZERO for c in cover)
        has1 = any(c.trits[j] == Trit.ONE for c in cover)
        if has0 and has1:
            result.append(Monotonicity.BINATE)
            unate = False
        elif has1:
            result.append(Monotonicity.POS_UNATE)
        elif has0:
            result.append(Monotonicity.NEG_UNATE)
        else:
            result.append(Monotonicity.ABSENT)
    return result, unate


def select_binate(cover: Cover) -> int:
    """Most-binate variable: most rows touched, then most balanced, then index."""
    mono, unate = classify(cover)
    if unate:
        raise ValueError("cover is unate; no binate variable to select")
    best = None
    best_key = None
    for j in range(cover.n):
        if mono[j] != Monotonicity.BINATE:
            continue
        c0 = sum(1 for c in cover if c.trits[j] == Trit.ZERO)
        c1 = sum(1 for c in cover if c.trits[j] == Trit.ONE)
        key = (-(c0 + c1), abs(c0 - c1), j)
        if best_key is None or key < best_key:
            best, best_key = j, key
    assert best is not None
    return best


def cover_cofactor(cover: Cover, var: int, val: bool) -> Cover:
    """Per-cube cofactor, dropping cubes with the opposing literal."""
    from .boolfn import cube_cofactor

    out = []
    for c in cover:
        cc = cube_cofactor(c, var, val)
        if cc is not None:
            out.append(cc)
    return Cover(cover.n, tuple(out))


def scc(cover: Cover) -> Cover:
    """Single-cube containment: drop cubes contained in another cube.

    Duplicates keep the earliest occurrence; survivor order preserved.
    """
    cubes = cover.cubes
    keep = []
    for i, ci in enumerate(cubes):
        redundant = False
        for j, cj in enumerate(cubes):
            if i == j or not cube_contains(cj, ci):
                continue
            if not cube_contains(ci, cj) or j < i:
                redundant = True
                break
        if not redundant:
            keep.append(ci)
    return Cover(cover.n, tuple(keep))


def _specialize(c: Cube, var: int, val: bool) -> Cube:
    t = Trit.ONE if val else Trit.ZERO
    return Cube(c.trits[:var] + (t,) + c.trits[var + 1:])


def merge_with_containment(h0: Cover, h1: Cover, var: int) -> Cover:
    """Recombine cofactor covers: x'*h0 + x*h1 with the containment lift.

    Cubes shared between the halves (up to single-cube containment)
    are lifted with var left don't-care; the rest get the literal back.
    """
    for half in (h0, h1):
        for c in half:
            if c.trits[var] != Trit.DONT_CARE:
                raise ValueError("merge input mentions the splitting variable")

    set1 = set(h1.cubes)
    lifted = []
    seen = set()
    for c in h0:
        if c in set1 or any(cube_contains(d, c) for d in h1):
            if c not in seen:
                lifted.append(c)
                seen.add(c)
    for c in h1:
        if any(cube_contains(d, c) for d in h0):
            if c not in seen:
                lifted.append(c)
                seen.add(c)

    out = list(lifted)
    for c in h0:
        if c not in seen:
            out.append(_specialize(c, var, False))
    for c in h1:
        if c not in seen:
            out.append(_specialize(c, var, True))
    return scc(Cover(h0.n, tuple(out)))


def simplify(cover: Cover) -> Cover:
    """Unate recursive simplification; never grows the cube count."""
    if not cover.cubes:
        return cover
    if any(c.is_universal for c in cover):
        return Cover(cover.n, (universal_cube(cover.n),))
    _, unate = classify(cover)
    if unate:
        return scc(cover)
    var = select_binate(cover)
    h0 = simplify(cover_cofactor(cover, var, False))
    h1 = simplify(cover_cofactor(cover, var, True))
    merged = merge_with_containment(h0, h1, var)
    if len(merged) <= len(cover.cubes):
        return merged
    return scc(cover)


def _onset(cover: Cover, f: FunctionHandle) -> int:
    if cover.n != f.manager.n:
        raise ValueError("cover variable count does not match the function")
    return bdd.to_truthtable(f).bits


def expand(cover: Cover, f: FunctionHandle) -> Cover:
    """Raise literals to don't-care wherever the enlarged cube stays in f.

    Cubes are processed in cover order, variables by ascending index.
    Raising variable v adds the cube's minterms shifted across v's bit.
    """
    n = cover.n
    outside = ~_onset(cover, f)  # every minterm where f is 0
    out = []
    for c in cover:
        mask = cube_mask(c)
        if mask & outside:
            raise ValueError(f"cube {format_cube(c)} is not contained in the function")
        trits = list(c.trits)
        for var, t in enumerate(c.trits):
            if t == Trit.DONT_CARE:
                continue
            shift = 1 << (n - 1 - var)
            other_half = mask >> shift if t == Trit.ONE else mask << shift
            if not other_half & outside:
                mask |= other_half
                trits[var] = Trit.DONT_CARE
        out.append(Cube(tuple(trits)))
    return Cover(n, tuple(out))


def irredundant(cover: Cover, f: FunctionHandle) -> Cover:
    """Drop duplicates, then greedily drop cubes the rest still cover.

    Cube i goes iff its mask lies inside the cubes kept before it plus
    every cube after it.
    """
    onset = _onset(cover, f)
    cubes: List[Cube] = []
    for c in cover:
        if c not in cubes:
            cubes.append(c)
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
        lits = []
        for var, t in enumerate(c.trits):
            if t == Trit.ONE:
                lits.append(names[var])
            elif t == Trit.ZERO:
                lits.append(names[var] + "'")
        terms.append("".join(lits))
    return " + ".join(terms)


def default_names(n: int) -> List[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"x{i}" for i in range(n)]
