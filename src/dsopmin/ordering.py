"""Shannon-entropy-based static variable ordering.

A variable's score is the average cofactor entropy E(x) over the
current subtables; the greedy pass repeatedly picks the variable with
the smallest score (largest information gain), splits every subtable
on it, and recurses.  Ties break toward the lowest variable index.
"""

from __future__ import annotations

import math
from typing import List

from .bdd import VariableOrder
from .boolfn import TruthTable, cofactor_bits, var_masks

# Scores are irrational in general; comparisons use this slack.
_EPS = 1e-9


def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def cofactor_entropy(tt: TruthTable, var: int, val: bool) -> float:
    """I(var, val): entropy of the ON fraction of the cofactor."""
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    pos = var_masks(tt.n)[var]
    on = (tt.bits & (pos if val else ~pos)).bit_count()
    return _h(on / (1 << (tt.n - 1)))


def _split_entropy(on: int, on1: int, half: int) -> float:
    """(I(var,0) + I(var,1)) / 2 from the ON counts of a table and its var=1 half."""
    return 0.5 * (_h((on - on1) / half) + _h(on1 / half))


def variable_entropy(tt: TruthTable, var: int) -> float:
    """E(var) = (I(var,0) + I(var,1)) / 2."""
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    on1 = (tt.bits & var_masks(tt.n)[var]).bit_count()
    return _split_entropy(tt.bits.bit_count(), on1, 1 << (tt.n - 1))


def entropy_order(tt: TruthTable) -> VariableOrder:
    """Greedy recursive selection of the minimum-average-entropy variable.

    Every subtable at a level ranges over the same remaining variables,
    so a level is a list of raw table bits plus one list of variables.
    Constant subtables score 0 and split into constants, so they are
    dropped; the divisor still counts all 2^level subtables.
    """
    n = tt.n
    subtables: List[int] = [] if tt.is_constant else [tt.bits]
    remaining = list(range(n))  # the subtables' variables, ascending
    chosen: List[int] = []
    level = 0

    while remaining:
        width = n - level
        masks = var_masks(width)
        half = 1 << (width - 1)
        on_counts = [st.bit_count() for st in subtables]
        best_j = None
        best_score = math.inf
        for j in range(len(remaining)):
            pos = masks[j]
            total = 0.0
            for st, on in zip(subtables, on_counts):
                total += _split_entropy(on, (st & pos).bit_count(), half)
            score = total / (1 << level)
            if score < best_score - _EPS:
                best_j = j
                best_score = score
        assert best_j is not None
        chosen.append(remaining.pop(best_j))
        level += 1

        if remaining:
            split: List[int] = []
            for st in subtables:
                for val in (False, True):
                    sub = cofactor_bits(st, width, best_j, val)
                    if sub and sub.bit_count() != half:
                        split.append(sub)
            subtables = split

    return VariableOrder(tuple(chosen))
