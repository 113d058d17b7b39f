"""Reduced ordered BDD manager, one-path DSOP extraction, and path sifting.

Nodes are integers: 0 and 1 are the terminals, everything else indexes
an arena of (var, lo, hi) triples.  A single unique table keyed by
that triple keeps the store canonical; equal functions built under the
same order always come back as the same node id.  A key names the
node's variable, not its level, so a node keeps its key when a swap
only moves it to another level.

Children lie strictly deeper under the manager's order; long edges
simply skip levels, and the skipped variables stay don't-care in the
extracted cubes.

split_levels is the one top-down split of a truth table: one level at
a time, each distinct subtable cofactored once.  A rule picks each
level's variable; the entropy ordering passes its greedy rule, and a
fixed order is the rule "the place of perm[level]".  build_levels makes
the nodes from those splits, so the pipeline's entropy mode orders and
builds from one descent.  Path sifting swaps adjacent levels in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .boolfn import (
    Cover,
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


class BddManager:
    """Canonicalizing node store for one function and its cofactors."""

    def __init__(self, n: int, order: Optional[VariableOrder] = None):
        if order is None:
            order = VariableOrder.identity(n)
        if len(order) != n:
            raise ValueError("order length does not match variable count")
        self.n = n
        self.order = order
        # node id -> (var, lo, hi); ids 0 and 1 are the terminals
        self._nodes: Dict[int, Tuple[int, int, int]] = {}
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._next_id = 2

    def make(self, var: int, lo: int, hi: int) -> int:
        """Canonical node constructor; applies the redundant-test reduction."""
        if lo == hi:
            return lo
        key = (var, lo, hi)
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
        perm = self.order.perm
        return self.build_levels(split_levels(tt, lambda level, rest, _: rest.index(perm[level])))

    def build_levels(self, levels: "Levels") -> "FunctionHandle":
        """Make the nodes of a split table, lo first in post order from the root."""
        if levels.order != self.order:
            raise ValueError("split order does not match manager")
        ids: List[List[Optional[int]]] = [[None] * len(kids) for kids in levels.kids]
        perm = self.order.perm

        def node(level: int, ref: int) -> int:
            if ref < 2:
                return ref
            u = ids[level][ref - 2]
            if u is None:
                lo, hi = levels.kids[level][ref - 2]
                u = self.make(perm[level], node(level + 1, lo), node(level + 1, hi))
                ids[level][ref - 2] = u
            return u

        return FunctionHandle(self, node(0, levels.root))

    def reachable(self, root: int) -> List[int]:
        """Internal nodes reachable from root, discovery order."""
        seen: Dict[int, None] = {}  # an insertion-ordered set
        stack = [root]
        while stack:
            u = stack.pop()
            if u > ONE and u not in seen:
                seen[u] = None
                _, lo, hi = self._nodes[u]
                stack += (hi, lo)
        return list(seen)


@dataclass
class FunctionHandle:
    """Reference to a root node in a manager; sifting keeps the root's id."""

    manager: BddManager
    root: int


class Levels:
    """A truth table split top down into its distinct subfunctions.

    kids[level][i] is the (lo, hi) pair of the i-th distinct non-constant
    subtable at that level, as references: 0 and 1 are the constants and
    i + 2 is the i-th subtable one level down.  root refers to the table.
    """

    # a plain class: making a NamedTuple or dataclass costs 0.1-0.6 ms at import
    __slots__ = ("order", "root", "kids")

    def __init__(self, order: VariableOrder, root: int, kids: Tuple[List[Tuple[int, int]], ...]):
        self.order, self.root, self.kids = order, root, kids


def split_levels(tt: TruthTable, rule: Callable[[int, List[int], Dict[int, int]], int]) -> Levels:
    """Split tt one level at a time, each distinct subtable once.

    Every subtable at a level ranges over the same remaining variables,
    ascending, so a level is held as the count of each distinct
    non-constant subtable's raw bits, the sharing a BDD makes of equal
    subfunctions.  The rule sees the level, the remaining variables and
    those counts, and returns the place of the variable to split on.
    Each distinct subtable is cofactored once, and its count is added
    to each child's; constant children are terminals.  At most two
    levels' tables are held at once; the levels above keep only their
    children's references.
    """
    n = tt.n
    below: Dict[int, int] = {}  # the next level: distinct subtable -> count
    index: Dict[int, int] = {}  # the next level: distinct subtable -> reference

    def refer(bits: int, count: int, full: int) -> int:
        if bits == 0 or bits == full:
            return ONE if bits else ZERO
        ref = index.setdefault(bits, len(index) + 2)
        below[bits] = below.get(bits, 0) + count
        return ref

    root = refer(tt.bits, 1, full_mask(n))
    remaining = list(range(n))
    perm: List[int] = []
    kids: List[List[Tuple[int, int]]] = []
    for level in range(n):
        # refer fills the fresh dicts bound here, one level down
        tables, below, index = below, {}, {}
        width = n - level
        place = rule(level, remaining, tables)
        perm.append(remaining.pop(place))
        full = full_mask(width - 1)
        kids.append([(refer(cofactor_bits(bits, width, place, False), count, full),
                      refer(cofactor_bits(bits, width, place, True), count, full))
                     for bits, count in tables.items()])
    return Levels(VariableOrder(tuple(perm)), root, tuple(kids))


def build_from_truthtable(tt: TruthTable, order: Optional[VariableOrder] = None) -> FunctionHandle:
    """Fresh manager plus the canonical BDD of tt under the given order."""
    return BddManager(tt.n, order).build(tt)


def node_count(h: FunctionHandle) -> int:
    """Number of internal nodes reachable from the root; terminals excluded."""
    return len(h.manager.reachable(h.root))


def one_path_count(h: FunctionHandle) -> int:
    """P1: paths from the root to terminal 1, counted bottom-up."""
    nodes, count = h.manager._nodes, {ZERO: 0, ONE: 1}

    def paths(u: int) -> int:
        if u not in count:
            _, lo, hi = nodes[u]
            count[u] = paths(lo) + paths(hi)
        return count[u]

    return paths(h.root)


def one_paths(h: FunctionHandle) -> List[Tuple[int, int]]:
    """One (care, value) pair per one-path, depth first with the lo branch first.

    Each edge ORs its variable's bit into the care mask, and the hi edge
    (the positive literal) into the value mask too; variables skipped by
    long edges stay don't-care.  Lo edges are followed, hi edges stacked.
    """
    nodes, n = h.manager._nodes, h.manager.n
    bits = [1 << (n - 1 - var) for var in range(n)]
    paths: List[Tuple[int, int]] = []
    stack = [(h.root, 0, 0)]
    while stack:
        u, care, value = stack.pop()
        while u > ONE:
            var, u, hi = nodes[u]
            bit = bits[var]
            care |= bit
            if hi:
                stack.append((hi, care, value | bit))
        if u:
            paths.append((care, value))
    return paths


def enumerate_one_paths(h: FunctionHandle) -> Cover:
    """The DSOP: one cube per one-path, in one_paths() order."""
    return Cover.of_pairs(h.manager.n, one_paths(h))


def to_truthtable(h: FunctionHandle) -> TruthTable:
    """The function's truth table, combined bottom-up from literal masks."""
    n = h.manager.n
    if n > MAX_TABLE_VARS:
        raise ValueError(f"variable count {n} exceeds table limit {MAX_TABLE_VARS}")
    masks, perm, nodes = var_masks(n), h.manager.order.perm, h.manager._nodes
    table = {ZERO: 0, ONE: full_mask(n)}
    # children first: deepest variable first
    for u in sorted(h.manager.reachable(h.root), key=lambda u: -perm.index(nodes[u][0])):
        var, lo, hi = nodes[u]
        pos, low = masks[var], table[lo]
        # low & ~pos, kept non-negative: CPython ANDs with a negative int
        # several times slower, which shows on wide tables
        table[u] = (table[hi] & pos) | (low ^ (low & pos))
    return TruthTable(n, table[h.root])


class _LevelSets:
    """One diagram held as per-level node sets, for in-place swaps.

    The arena is cut to root's diagram once, at the start; from then on
    it equals the live diagram, since a swap drops the nodes it orphans.
    ref counts a node's parents (the root one more), down is its count
    of paths to 1, and paths is its count of root paths: into it above
    the cut, and entering it across the cut at or below it.  P1 is the
    sum, below the cut, of paths times down, so down is kept only there
    and is made as the cut moves up.
    """

    def __init__(self, mgr: BddManager, root: int):
        live = mgr.reachable(root)
        if len(live) != len(mgr._nodes):
            mgr._nodes = {u: mgr._nodes[u] for u in live}
            mgr._unique = {key: u for u, key in mgr._nodes.items()}
        nodes = mgr._nodes
        self.mgr, self.perm = mgr, list(mgr.order.perm)
        self.levels: List[set[int]] = [set() for _ in range(mgr.n)]
        self.ref = dict.fromkeys([ZERO, ONE, *live], 0)
        self.ref[root] += 1
        for u in live:
            var, lo, hi = nodes[u]
            self.levels[self.perm.index(var)].add(u)
            self.ref[lo] += 1
            self.ref[hi] += 1
        self.paths = dict.fromkeys(self.ref, 0)
        self.paths[root] = 1
        self.down = {ZERO: 0, ONE: 1}
        self.cut = 0
        # with the cut under every level, P1 is the root paths into 1
        self.move_cut(mgr.n)
        self.p1, self.size = self.paths[ONE], len(live)

    def move_cut(self, k: int) -> None:
        """Put the cut above level k; each level it passes costs its width."""
        nodes, paths, down = self.mgr._nodes, self.paths, self.down
        while self.cut < k:
            for u in self.levels[self.cut]:
                _, lo, hi = nodes[u]
                paths[lo] += paths[u]
                paths[hi] += paths[u]
            self.cut += 1
        while self.cut > k:
            self.cut -= 1
            for u in self.levels[self.cut]:
                _, lo, hi = nodes[u]
                paths[lo] -= paths[u]
                paths[hi] -= paths[u]
                down[u] = down[lo] + down[hi]

    def swap(self, k: int) -> None:
        """Rudell's swap of levels k and k+1 (ICCAD 1993).

        Keys name variables, so only rewritten nodes are re-keyed.
        Level-(k+1) nodes move up and level-k nodes without a
        level-(k+1) child move down, keys unchanged.  The other level-k
        nodes keep their id, take the level-(k+1) variable and get
        children on the level-k variable, made by mgr.make.  P1 changes
        by paths times the change of down over the rewritten nodes, the
        only ones whose down changes.
        """
        self.move_cut(k)
        mgr, nodes, unique = self.mgr, self.mgr._nodes, self.mgr._unique
        ref, down, paths = self.ref, self.down, self.paths
        upper, lower = self.levels[k], self.levels[k + 1]
        x, y = self.perm[k], self.perm[k + 1]  # x moves down, y up
        below: set[int] = set()
        top: set[int] = set()

        def make(lo: int, hi: int) -> int:
            v = mgr.make(x, lo, hi)
            if v not in ref:  # every live node has a ref entry, so v is new
                ref[v], paths[v], down[v] = 0, 0, down[lo] + down[hi]
                ref[lo] += 1
                ref[hi] += 1
                below.add(v)
            return v

        # the nodes moving down keep their keys, so make finds them whether
        # or not the loop has reached them; it never finds a rewritten
        # node, whose old key has a child at level k+1 and new key var y
        delta = 0
        for u in upper:
            _, lo, hi = key = nodes[u]
            if lo not in lower and hi not in lower:
                below.add(u)
                continue
            top.add(u)
            del unique[key]
            f00, f01 = nodes[lo][1:] if lo in lower else (lo, lo)
            f10, f11 = nodes[hi][1:] if hi in lower else (hi, hi)
            r0, r1 = make(f00, f10), make(f01, f11)
            key = nodes[u] = (y, r0, r1)
            unique[key] = u
            ref[r0] += 1
            ref[r1] += 1
            ref[lo] -= 1
            ref[hi] -= 1
            count = down[r0] + down[r1]
            delta += paths[u] * (count - down[u])
            down[u] = count
        for v in lower:
            if ref[v]:
                top.add(v)
                continue
            # orphaned; its children are the new nodes' children, so they live on
            _, lo, hi = key = nodes.pop(v)
            del unique[key], ref[v], down[v], paths[v]
            ref[lo] -= 1
            ref[hi] -= 1
        self.size += len(top) + len(below) - len(upper) - len(lower)
        self.levels[k], self.levels[k + 1] = top, below
        self.p1 += delta
        self.perm[k], self.perm[k + 1] = y, x


def sift_paths(mgr: BddManager, h: FunctionHandle) -> VariableOrder:
    """Sift every variable once, scoring positions by one-path count.

    Variables are processed in decreasing order of node population at
    their starting level; each is fixed where P1 is smallest (ties:
    fewer nodes, then the earliest position).  The manager is left in
    the final order, holding only h's diagram; h's root keeps its id.

    No position is scored by a walk over the whole diagram.  Swaps are
    in place and touch only the two levels they exchange (Rudell, ICCAD
    1993): every node keeps its id and its function, only the nodes a
    swap rewrites change key, and a node a swap orphans is dropped at
    once.  P1 is kept as a running total that a swap changes by the
    rewritten nodes' share, and the node count as per-level widths.
    """
    n = mgr.n
    if n < 2 or h.root < 2:
        return mgr.order

    levels = _LevelSets(mgr, h.root)
    perm = levels.perm
    schedule = sorted(range(n), key=lambda v: (-len(levels.levels[perm.index(v)]), v))
    for var in schedule:
        pos = perm.index(var)
        scores = {pos: (levels.p1, levels.size)}
        while pos < n - 1:
            levels.swap(pos)
            pos += 1
            scores[pos] = (levels.p1, levels.size)
        while pos > 0:
            levels.swap(pos - 1)
            pos -= 1
            if pos not in scores:
                scores[pos] = (levels.p1, levels.size)
        best = min(scores, key=lambda p: (scores[p][0], scores[p][1], p))
        while pos < best:
            levels.swap(pos)
            pos += 1

    mgr.order = VariableOrder(tuple(perm))
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
        var, lo, hi = mgr._nodes[u]
        lines.append(f'  node{u} [label="{names[var]}"];')
        lines.append(f"  node{u} -> node{lo} [style=dashed];")
        lines.append(f"  node{u} -> node{hi} [style=solid];")
    lines.append("}")
    return "\n".join(lines)
