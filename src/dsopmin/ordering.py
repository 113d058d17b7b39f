"""Shannon-entropy-based static variable ordering.

A variable's score is the average cofactor entropy E(x) over the
current subtables; the greedy pass repeatedly picks the variable with
the smallest score (largest information gain), splits every subtable
on it, and recurses.  Ties break toward the lowest variable index.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .bdd import VariableOrder
from .boolfn import TruthTable, truthtable_cofactor, var_masks

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


def variable_entropy(tt: TruthTable, var: int) -> float:
    """E(var) = (I(var,0) + I(var,1)) / 2."""
    return 0.5 * (cofactor_entropy(tt, var, False) + cofactor_entropy(tt, var, True))


def entropy_order(tt: TruthTable) -> VariableOrder:
    """Greedy recursive selection of the minimum-average-entropy variable."""
    n = tt.n
    # (subtable, original indices of its variables); constants score 0
    subtables: List[Tuple[TruthTable, Tuple[int, ...]]] = [(tt, tuple(range(n)))]
    remaining = list(range(n))
    chosen: List[int] = []

    while remaining:
        best_var = None
        best_score = math.inf
        for var in remaining:
            total = 0.0
            for st, vars_ in subtables:
                if st.is_constant:
                    continue
                total += variable_entropy(st, vars_.index(var))
            score = total / len(subtables)
            if score < best_score - _EPS:
                best_var = var
                best_score = score
        assert best_var is not None
        chosen.append(best_var)
        remaining.remove(best_var)

        if remaining:
            split: List[Tuple[TruthTable, Tuple[int, ...]]] = []
            for st, vars_ in subtables:
                j = vars_.index(best_var)
                rest = vars_[:j] + vars_[j + 1:]
                split.append((truthtable_cofactor(st, j, False), rest))
                split.append((truthtable_cofactor(st, j, True), rest))
            subtables = split

    return VariableOrder(tuple(chosen))
