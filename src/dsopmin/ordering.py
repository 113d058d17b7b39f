"""Shannon-entropy-based static variable ordering.

A variable's score is the average cofactor entropy E(x) over the
current subtables; the greedy pass repeatedly picks the variable with
the smallest score (largest information gain), splits every subtable
on it, and recurses.  Ties break toward the lowest variable index.
The pass is bdd.split_levels with the entropy score as its rule, the
same descent the BDD is built from: a level is held as its distinct
subtables with their counts, and each is scored and split once.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .bdd import Levels, VariableOrder, split_levels
from .boolfn import TruthTable, var_masks

# Scores are irrational in general; comparisons use this slack.
_EPS = 1e-9


def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def cofactor_entropy(tt: TruthTable, var: int, val: bool) -> float:
    """I(var, val): entropy of the ON fraction of the cofactor.

    The paper's I(x, v) on one table, kept as documented API; the
    ordering itself scores from ON counts.
    """
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    pos = var_masks(tt.n)[var]
    on = (tt.bits & (pos if val else ~pos)).bit_count()
    return _h(on / (1 << (tt.n - 1)))


def _split_entropy(on: int, on1: int, half: int) -> float:
    """(I(var,0) + I(var,1)) / 2 from the ON counts of a table and its var=1 half."""
    return 0.5 * (_h((on - on1) / half) + _h(on1 / half))


def variable_entropy(tt: TruthTable, var: int) -> float:
    """E(var) = (I(var,0) + I(var,1)) / 2.

    The paper's E(x) on one table, kept as documented API; the ordering
    weights it by count over a level's distinct subtables.
    """
    if not 0 <= var < tt.n:
        raise ValueError(f"variable index {var} out of range for n={tt.n}")
    on1 = (tt.bits & var_masks(tt.n)[var]).bit_count()
    return _split_entropy(tt.bits.bit_count(), on1, 1 << (tt.n - 1))


class _Entropies(dict):
    """_h(k / half) by ON count k, each computed once."""

    def __init__(self, half: int) -> None:
        self.half = half

    def __missing__(self, k: int) -> float:
        self[k] = p = _h(k / self.half)
        return p


def _entropy_place(level: int, remaining: List[int], tables: Dict[int, int]) -> int:
    """The place in remaining of the minimum-average-entropy variable.

    A distinct subtable is scored once, its score weighted by its count;
    constant subtables score 0 and are not in tables, but the divisor
    still counts all 2^level subtables.  A cofactor's entropy depends
    only on its ON count, so each count's is computed once per call.
    """
    width = len(remaining)
    masks = var_masks(width)
    h = _Entropies(1 << (width - 1))
    rows = [(st, st.bit_count(), count) for st, count in tables.items()]
    best_j, best_score = 0, math.inf
    for j in range(width):
        pos = masks[j]
        total = 0.0
        for st, on, count in rows:
            on1 = (st & pos).bit_count()
            total += count * (0.5 * (h[on - on1] + h[on1]))  # _split_entropy's float, exactly
        score = total / (1 << level)
        if score < best_score - _EPS:
            best_j, best_score = j, score
    return best_j


def entropy_levels(tt: TruthTable) -> Levels:
    """The greedy entropy descent of tt: its order and every level's splits."""
    return split_levels(tt, _entropy_place)


def entropy_order(tt: TruthTable) -> VariableOrder:
    """Greedy recursive selection of the minimum-average-entropy variable."""
    return entropy_levels(tt).order
