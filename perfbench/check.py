"""Independent output checks on cube text.

Nothing here imports dsopmin: covers arrive as positional cube strings
over {0, 1, 2, -} (variable 0 is the most significant minterm bit) and
the function as an on-set bitmask built by the input generator, so the
checks share no code path with the program they judge.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence


def cube_minterms(text: str) -> List[int]:
    """Minterm indices of one cube; var 0 is the MSB."""
    n = len(text)
    choices = []
    for ch in text:
        if ch in "2-":
            choices.append((0, 1))
        elif ch in "01":
            choices.append((int(ch),))
        else:
            raise ValueError(f"illegal cube character {ch!r} in {text!r}")
    out = []
    for bits in itertools.product(*choices):
        idx = 0
        for v, b in enumerate(bits):
            idx |= b << (n - 1 - v)
        out.append(idx)
    return out


def cube_mask(text: str) -> int:
    mask = 0
    for m in cube_minterms(text):
        mask |= 1 << m
    return mask


def cover_mask(texts: Iterable[str]) -> int:
    mask = 0
    for t in texts:
        mask |= cube_mask(t)
    return mask


def literals(texts: Iterable[str]) -> int:
    return sum(1 for t in texts for ch in t if ch in "01")


def check_function(
    n: int,
    on: int,
    dsop: Sequence[str],
    sop: Sequence[str],
    one_paths: int,
    sop_cubes: int,
    sop_literals: int,
    known_cubes: Optional[int] = None,
    oracle_cubes: Optional[int] = None,
) -> List[str]:
    """Invariant violations for one pipeline result; empty when all hold."""
    problems = []
    for name, texts in (("dsop", dsop), ("sop", sop)):
        bad = [t for t in texts if len(t) != n]
        if bad:
            problems.append(f"{name} cube {bad[0]!r} does not have {n} positions")
            return problems

    dsop_masks = [cube_mask(t) for t in dsop]
    union = 0
    for m in dsop_masks:
        union |= m
    if sum(m.bit_count() for m in dsop_masks) != union.bit_count():
        problems.append("dsop cubes are not pairwise disjoint")
    if union != on:
        problems.append("dsop does not equal f")
    if one_paths != len(dsop):
        problems.append(f"P1 {one_paths} != dsop cube count {len(dsop)}")

    sop_masks = [cube_mask(t) for t in sop]
    union = 0
    for m in sop_masks:
        union |= m
    if union != on:
        problems.append("sop does not equal f")
    outside = [t for t, m in zip(sop, sop_masks) if m & ~on]
    if outside:
        problems.append(f"sop cube {outside[0]} is not inside f")
    if sop_cubes != len(sop) or sop_literals != literals(sop):
        problems.append(
            f"report says {sop_cubes} cubes / {sop_literals} literals, "
            f"cover has {len(sop)} / {literals(sop)}"
        )

    if known_cubes is not None and len(sop) != known_cubes:
        problems.append(f"sop has {len(sop)} cubes, known answer is {known_cubes}")
    if oracle_cubes is not None and oracle_cubes > len(sop):
        problems.append(f"oracle {oracle_cubes} cubes is worse than heuristic {len(sop)}")
    return problems
