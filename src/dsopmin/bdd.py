"""Reduced ordered BDD manager, one-path DSOP extraction, and path sifting.

Nodes are integers: 0 and 1 are the terminals, everything else indexes
an arena of (level, lo, hi) triples.  A single unique table keyed by
that triple keeps the store canonical; equal functions built under the
same order always come back as the same node id.

Terminals live at level n so that "children strictly deeper" holds
uniformly; long edges simply skip levels, and the skipped variables
stay don't-care in the extracted cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .boolfn import (
    Cover,
    Cube,
    Trit,
    TruthTable,
    MAX_TABLE_VARS,
    cofactor_bits,
    full_mask,
    var_masks,
)

ZERO = 0
ONE = 1


@dataclass(frozen=True)
class VariableOrder:
    """Permutation of variable indices; position 0 is the root level."""

    perm: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation of 0..{len(self.perm) - 1}")

    def __len__(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "VariableOrder":
        return cls(tuple(range(n)))

    def position(self, var: int) -> int:
        return self.perm.index(var)


class BddManager:
    """Canonicalizing node store for one function and its cofactors."""

    def __init__(self, n: int, order: Optional[VariableOrder] = None):
        if order is None:
            order = VariableOrder.identity(n)
        if len(order) != n:
            raise ValueError("order length does not match variable count")
        self.n = n
        self.order = order
        # node id -> (level, lo, hi); ids 0 and 1 are the terminals
        self._nodes: Dict[int, Tuple[int, int, int]] = {}
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._next_id = 2

    def is_terminal(self, u: int) -> bool:
        return u < 2

    def level(self, u: int) -> int:
        if u < 2:
            return self.n
        return self._nodes[u][0]

    def children(self, u: int) -> Tuple[int, int]:
        _, lo, hi = self._nodes[u]
        return lo, hi

    def make(self, level: int, lo: int, hi: int) -> int:
        """Canonical node constructor; applies the redundant-test reduction."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        u = self._unique.get(key)
        if u is None:
            u = self._next_id
            self._next_id += 1
            self._nodes[u] = key
            self._unique[key] = u
        return u

    def build(self, tt: TruthTable) -> "FunctionHandle":
        """Build the canonical BDD of tt under the manager's current order."""
        if tt.n != self.n:
            raise ValueError("table variable count does not match manager")
        n = self.n
        perm = self.order.perm
        # The subtable at a level ranges over the variables perm[level:]
        # in ascending index order; split[level] is perm[level]'s place.
        split = [sorted(perm[level:]).index(perm[level]) for level in range(n)]
        fulls = [full_mask(n - level) for level in range(n + 1)]
        memo: Dict[Tuple[int, int], int] = {}

        def node(level: int, bits: int) -> int:
            if bits == 0:
                return ZERO
            if bits == fulls[level]:
                return ONE
            key = (level, bits)
            u = memo.get(key)
            if u is None:
                width, var = n - level, split[level]
                lo = node(level + 1, cofactor_bits(bits, width, var, False))
                hi = node(level + 1, cofactor_bits(bits, width, var, True))
                u = memo[key] = self.make(level, lo, hi)
            return u

        return FunctionHandle(self, node(0, tt.bits))

    def reachable(self, root: int) -> List[int]:
        """Internal nodes reachable from root, discovery order."""
        seen: set[int] = set()
        out: List[int] = []
        stack = [root]
        while stack:
            u = stack.pop()
            if u < 2 or u in seen:
                continue
            seen.add(u)
            out.append(u)
            lo, hi = self.children(u)
            stack.append(hi)
            stack.append(lo)
        return out


@dataclass
class FunctionHandle:
    """Reference to a root node in a manager; root is updated by sifting."""

    manager: BddManager
    root: int


def build_from_truthtable(tt: TruthTable, order: Optional[VariableOrder] = None) -> FunctionHandle:
    """Fresh manager plus the canonical BDD of tt under the given order."""
    return BddManager(tt.n, order).build(tt)


def node_count(h: FunctionHandle) -> int:
    """Number of internal nodes reachable from the root; terminals excluded."""
    return len(h.manager.reachable(h.root))


def one_path_count(h: FunctionHandle) -> int:
    """P1: paths from the root to terminal 1, counted bottom-up."""
    mgr = h.manager
    memo: Dict[int, int] = {ZERO: 0, ONE: 1}

    def count(u: int) -> int:
        if u in memo:
            return memo[u]
        lo, hi = mgr.children(u)
        memo[u] = count(lo) + count(hi)
        return memo[u]

    return count(h.root)


def enumerate_one_paths(h: FunctionHandle) -> Cover:
    """One cube per one-path, depth first with the lo branch first.

    The lo edge contributes the complemented literal, the hi edge the
    positive literal; variables skipped by long edges stay don't-care.
    """
    mgr = h.manager
    n = mgr.n
    perm = mgr.order.perm
    cubes: List[Cube] = []
    trits = [Trit.DONT_CARE] * n

    def walk(u: int) -> None:
        if u == ZERO:
            return
        if u == ONE:
            cubes.append(Cube(tuple(trits)))
            return
        var = perm[mgr.level(u)]
        lo, hi = mgr.children(u)
        trits[var] = Trit.ZERO
        walk(lo)
        trits[var] = Trit.ONE
        walk(hi)
        trits[var] = Trit.DONT_CARE

    walk(h.root)
    return Cover(n, tuple(cubes))


def to_truthtable(h: FunctionHandle) -> TruthTable:
    """The function's truth table, combined bottom-up from literal masks."""
    mgr = h.manager
    n = mgr.n
    if n > MAX_TABLE_VARS:
        raise ValueError(f"variable count {n} exceeds table limit {MAX_TABLE_VARS}")
    masks = var_masks(n)
    perm = mgr.order.perm
    memo: Dict[int, int] = {ZERO: 0, ONE: full_mask(n)}

    def table(u: int) -> int:
        if u in memo:
            return memo[u]
        pos = masks[perm[mgr.level(u)]]
        lo, hi = mgr.children(u)
        memo[u] = (table(hi) & pos) | (table(lo) & ~pos)
        return memo[u]

    return TruthTable(n, table(h.root))


def swap_adjacent(mgr: BddManager, root: int, k: int) -> int:
    """Exchange the variables at levels k and k+1, returning the new root.

    Only levels <= k+1 are rebuilt; deeper nodes are shared untouched.
    The manager's order is updated in place.
    """
    n = mgr.n
    if not 0 <= k < n - 1:
        raise ValueError(f"level {k} has no successor to swap with")
    memo: Dict[int, int] = {}

    def split(u: int) -> Tuple[int, int]:
        # cofactors w.r.t. the (old) level-k+1 variable
        if mgr.level(u) == k + 1:
            return mgr.children(u)
        return u, u

    def rebuild(u: int) -> int:
        lvl = mgr.level(u)
        if u < 2 or lvl > k + 1:
            return u
        if u in memo:
            return memo[u]
        lo, hi = mgr.children(u)
        if lvl < k:
            r = mgr.make(lvl, rebuild(lo), rebuild(hi))
        elif lvl == k:
            f00, f01 = split(lo)
            f10, f11 = split(hi)
            r = mgr.make(k, mgr.make(k + 1, f00, f10), mgr.make(k + 1, f01, f11))
        else:
            # reached by a long edge: the old level-k variable is absent here
            r = mgr.make(k, lo, hi)
        memo[u] = r
        return r

    new_root = rebuild(root)
    p = list(mgr.order.perm)
    p[k], p[k + 1] = p[k + 1], p[k]
    mgr.order = VariableOrder(tuple(p))
    return new_root


def sift_paths(mgr: BddManager, h: FunctionHandle) -> VariableOrder:
    """Sift every variable once, scoring positions by one-path count.

    Variables are processed in decreasing order of node population at
    their starting level; each is fixed where P1 is smallest (ties:
    fewer nodes, then the earliest position).  The manager is left in
    the final order and the handle's root updated.
    """
    n = mgr.n
    if n < 2 or h.root < 2:
        return mgr.order

    pops = [0] * n
    for u in mgr.reachable(h.root):
        pops[mgr.level(u)] += 1
    schedule = sorted(range(n), key=lambda v: (-pops[mgr.order.position(v)], v))

    root = h.root
    for var in schedule:
        pos = mgr.order.position(var)
        scores = {pos: (one_path_count(FunctionHandle(mgr, root)),
                        node_count(FunctionHandle(mgr, root)))}
        while pos < n - 1:
            root = swap_adjacent(mgr, root, pos)
            pos += 1
            scores[pos] = (one_path_count(FunctionHandle(mgr, root)),
                           node_count(FunctionHandle(mgr, root)))
        while pos > 0:
            root = swap_adjacent(mgr, root, pos - 1)
            pos -= 1
            scores.setdefault(pos, (one_path_count(FunctionHandle(mgr, root)),
                                    node_count(FunctionHandle(mgr, root))))
        best = min(scores, key=lambda p: (scores[p][0], scores[p][1], p))
        while pos < best:
            root = swap_adjacent(mgr, root, pos)
            pos += 1
        h.root = root

    h.root = root
    return mgr.order


def to_dot(h: FunctionHandle, names: Optional[Sequence[str]] = None) -> str:
    """Diagnostic dot-format dump: dashed = lo (else), solid = hi (then)."""
    mgr = h.manager
    if names is None:
        names = [f"x{v}" for v in range(mgr.n)]
    lines = ["digraph bdd {"]
    lines.append('  node0 [label="0", shape=box];')
    lines.append('  node1 [label="1", shape=box];')
    for u in mgr.reachable(h.root):
        var = mgr.order.perm[mgr.level(u)]
        lo, hi = mgr.children(u)
        lines.append(f'  node{u} [label="{names[var]}"];')
        lines.append(f"  node{u} -> node{lo} [style=dashed];")
        lines.append(f"  node{u} -> node{hi} [style=solid];")
    lines.append("}")
    return "\n".join(lines)
