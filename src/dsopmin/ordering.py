"""Shannon-entropy-based static variable ordering.

A variable's score is the average cofactor entropy E(x) over the
current subtables; the greedy pass repeatedly picks the variable with
the smallest score (largest information gain), splits every subtable
on it, and recurses.  Ties break toward the lowest variable index.
The pass is bdd.split_levels with the entropy score as its rule, the
same descent the BDD is built from: a level is held as its distinct
subtables with their counts, and each is scored and split once, with
the literal masks the descent fetched for the level.  A cofactor's
entropy depends only on its ON count and its width, so each is computed
once per width and, up to boolfn.KEPT_WIDTH, kept across calls.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from .bdd import VariableOrder, split_levels
from .boolfn import KEPT_WIDTH, TruthTable, var_masks

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
    on = (tt.bits & var_masks(tt.n)[var]).bit_count()  # the 1-side's; the 0-side has the rest
    return _h((on if val else tt.bits.bit_count() - on) / (1 << (tt.n - 1)))


def variable_entropy(tt: TruthTable, var: int) -> float:
    """E(var) = (I(var,0) + I(var,1)) / 2.

    The paper's E(x) on one table, kept as documented API; the ordering
    weights it by count over a level's distinct subtables.
    """
    return 0.5 * (cofactor_entropy(tt, var, False) + cofactor_entropy(tt, var, True))


class _Entropies(dict):
    """_h(k / half) by ON count k, each computed once."""

    def __init__(self, half: int) -> None:
        self.half = half

    def __missing__(self, k: int) -> float:
        self[k] = p = _h(k / self.half)
        return p


# Each width's _Entropies, for widths up to KEPT_WIDTH, as boolfn.var_masks
# keeps its masks: a width holds at most 2^(width-1) + 1 counts, so all of
# them at most 65,551 (about 7 MiB); a wider width's are made per call.
_KEPT: Dict[int, _Entropies] = {}


def entropy_place(level: int, remaining: List[int], tables: Dict[int, int],
                  masks: Sequence[int]) -> int:
    """The split_levels rule of the entropy order: the place in remaining
    of the minimum-average-entropy variable.

    masks are the level's literal masks, which split_levels fetched; a
    level of constants only has none and gets place 0.  A distinct
    subtable is scored once, its score weighted by its count; constant
    subtables score 0 and are not in tables, but the divisor still
    counts all 2^level subtables.  Each cofactor entropy comes from
    the width's _Entropies.
    """
    width = len(remaining)
    h = _KEPT[width] if width in _KEPT else _Entropies(1 << (width - 1))
    if width <= KEPT_WIDTH:
        _KEPT[width] = h
    rows = [(st, st.bit_count(), count) for st, count in tables.items()]
    best_j, best_score = 0, math.inf
    for j, pos in enumerate(masks):
        total = 0.0
        for st, on, count in rows:
            on1 = (st & pos).bit_count()
            total += count * (0.5 * (h[on - on1] + h[on1]))  # variable_entropy's float, exactly
        score = total / (1 << level)
        if score < best_score - _EPS:
            best_j, best_score = j, score
    return best_j


def entropy_order(tt: TruthTable) -> VariableOrder:
    """Greedy recursive selection of the minimum-average-entropy variable."""
    return split_levels(tt, entropy_place).order
