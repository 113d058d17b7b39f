"""Reduced ordered BDD manager, one-path DSOP extraction, and path sifting.

Nodes are integers: 0 and 1 are the terminals, everything else indexes
one arena, a list of (var, lo, hi) triples indexed by node id.  A single
unique table keyed by that triple keeps the store canonical; equal
functions built under the same order always come back as the same node
id.  A key names the node's variable, not its level, so a node keeps
its key when a swap only moves it to another level.

Children lie strictly deeper under the manager's order; long edges
simply skip levels, and the skipped variables stay don't-care in the
extracted cubes.

split_levels is the one top-down split of a truth table: one level at
a time, each distinct subtable cofactored once.  A rule picks each
level's variable; the entropy ordering passes its greedy rule, and a
fixed order is the rule "the place of perm[level]".  build_levels makes
the nodes from those splits, bottom up, so the pipeline orders and
builds from one descent in every mode.  Path sifting swaps adjacent
levels in place, in the same arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .boolfn import (
    Cover,
    TruthTable,
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
    """Canonicalizing node store for one function and its cofactors.

    _nodes[u] is node u's (var, lo, hi) key, None at the terminals 0 and
    1 and at ids the sifter dropped; its length is the next id.  _unique
    finds the id of each live key.
    """

    def __init__(self, n: int, order: Optional[VariableOrder] = None):
        if order is None:
            order = VariableOrder.identity(n)
        if len(order) != n:
            raise ValueError("order length does not match variable count")
        self.n = n
        self.order = order
        self._nodes: List[Optional[Tuple[int, int, int]]] = [None, None]
        self._unique: Dict[Tuple[int, int, int], int] = {}

    def make(self, var: int, lo: int, hi: int) -> int:
        """Canonical node constructor; applies the redundant-test reduction."""
        if lo == hi:
            return lo
        key = (var, lo, hi)
        u = self._unique.get(key)
        if u is None:
            u = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return u

    def build(self, tt: TruthTable) -> "FunctionHandle":
        """Build the canonical BDD of tt under the manager's current order."""
        if tt.n != self.n:
            raise ValueError("table variable count does not match manager")
        perm = self.order.perm
        return self.build_levels(split_levels(tt, lambda level, rest, _: rest.index(perm[level])))

    def build_levels(self, levels: "Levels") -> "FunctionHandle":
        """Make the nodes of a split table bottom up, a level's in its split order."""
        if levels.order != self.order:
            raise ValueError("split order does not match manager")
        make, ids = self.make, [ZERO, ONE]
        # ids: reference -> node id, one level down
        for var, kids in zip(reversed(self.order.perm), reversed(levels.kids)):
            ids = [ZERO, ONE, *[make(var, ids[lo], ids[hi]) for lo, hi in kids]]
        return FunctionHandle(self, ids[levels.root])

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


def _fold(h: FunctionHandle, zero: int, one: int, combine: Callable[[int, int, int], int]) -> int:
    """The root's value, made bottom up once per reachable node.

    A terminal's value is given; a node's is combine(var, lo's value,
    hi's value).
    """
    nodes, memo = h.manager._nodes, {ZERO: zero, ONE: one}

    def value(u: int) -> int:
        if u not in memo:
            var, lo, hi = nodes[u]
            memo[u] = combine(var, value(lo), value(hi))
        return memo[u]

    root = value(h.root)
    del value  # value's closure holds value: free it without the cycle collector
    return root


def one_path_count(h: FunctionHandle) -> int:
    """P1: paths from the root to terminal 1, counted bottom-up."""
    return _fold(h, 0, 1, lambda var, lo, hi: lo + hi)


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
    n, masks = h.manager.n, var_masks(h.manager.n)
    # lo & ~mask, kept non-negative: CPython ANDs with a negative int several
    # times slower, which shows on wide tables
    return TruthTable(n, _fold(h, 0, full_mask(n),
                               lambda var, lo, hi: (hi & masks[var]) | (lo ^ (lo & masks[var]))))


class _LevelSets:
    """One diagram held as per-level node sets, for in-place swaps.

    Swaps rewrite the manager's arena and unique table, cut at the start
    to root's diagram; a swap drops the nodes it orphans, so the arena
    stays the live diagram.  The side tables are lists indexed by node
    id: ref counts a node's parents (the root one more), down is its
    count of paths to 1, and paths is its count of root paths: into it
    above the cut, and entering it across the cut at or below it.  P1 is
    the sum, below the cut, of paths times down, so down is kept only
    there and is made as the cut moves up.  perm is the order the swaps
    have reached; sift_paths gives it to the manager at the end.
    """

    def __init__(self, mgr: BddManager, root: int):
        live, nodes, slots = mgr.reachable(root), mgr._nodes, len(mgr._nodes)
        self.mgr, self.perm = mgr, list(mgr.order.perm)
        self.levels: List[set[int]] = [set() for _ in range(mgr.n)]
        mgr._nodes, mgr._unique = [None] * slots, {}
        self.ref, self.paths, self.down = [0] * slots, [0] * slots, [0] * slots
        self.ref[root] = self.paths[root] = self.down[ONE] = 1
        level_of = sorted(range(mgr.n), key=self.perm.__getitem__)  # perm's inverse: var -> level
        for u in live:
            var, lo, hi = key = mgr._nodes[u] = nodes[u]
            mgr._unique[key] = u
            self.levels[level_of[var]].add(u)
            self.ref[lo] += 1
            self.ref[hi] += 1
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

    def save(self) -> tuple:
        """A copy of everything a swap changes: list slices, dict and set copies."""
        mgr = self.mgr
        return (mgr._nodes[:], dict(mgr._unique), self.ref[:], self.paths[:], self.down[:],
                [set(level) for level in self.levels], self.perm[:], self.p1, self.size, self.cut)

    def restore(self, state: tuple) -> None:
        """Go back to a save(); the state is taken over, not copied."""
        mgr = self.mgr
        (mgr._nodes, mgr._unique, self.ref, self.paths, self.down,
         self.levels, self.perm, self.p1, self.size, self.cut) = state

    def swap(self, k: int) -> None:
        """Rudell's swap of levels k and k+1 (ICCAD 1993).

        Keys name variables, so only rewritten nodes are re-keyed.
        Level-(k+1) nodes move up and level-k nodes without a
        level-(k+1) child move down, keys unchanged.  The other level-k
        nodes keep their id, take the level-(k+1) variable and get
        children on the level-k variable, found in or added to the
        unique table; a new node takes the next id.  P1 changes by paths
        times the change of down over the rewritten nodes, the only ones
        whose down changes.
        """
        self.move_cut(k)
        nodes, unique = self.mgr._nodes, self.mgr._unique
        ref, down, paths = self.ref, self.down, self.paths
        upper, lower = self.levels[k], self.levels[k + 1]
        x, y = self.perm[k], self.perm[k + 1]  # x moves down, y up
        below: set[int] = set()
        top: set[int] = set()

        # the nodes moving down keep their keys, so the unique table finds
        # them whether or not the loop has reached them; it never finds a
        # rewritten node, whose old key has a child at level k+1 and new key var y
        delta = 0
        for u in upper:
            _, lo, hi = key = nodes[u]
            if lo not in lower and hi not in lower:
                below.add(u)
                continue
            top.add(u)
            del unique[key]
            _, f00, f01 = nodes[lo] if lo in lower else (y, lo, lo)
            _, f10, f11 = nodes[hi] if hi in lower else (y, hi, hi)
            # new children (x, f00, f10) and (x, f01, f11); a redundant test is its child
            if f00 == f10:
                r0 = f00
            elif (r0 := unique.get(key := (x, f00, f10))) is None:
                r0 = unique[key] = len(nodes)
                nodes.append(key)
                ref.append(0)
                paths.append(0)
                down.append(down[f00] + down[f10])
                ref[f00] += 1
                ref[f10] += 1
                below.add(r0)
            if f01 == f11:
                r1 = f01
            elif (r1 := unique.get(key := (x, f01, f11))) is None:
                r1 = unique[key] = len(nodes)
                nodes.append(key)
                ref.append(0)
                paths.append(0)
                down.append(down[f01] + down[f11])
                ref[f01] += 1
                ref[f11] += 1
                below.add(r1)
            ref[r0] += 1
            ref[r1] += 1
            key = nodes[u] = (y, r0, r1)
            unique[key] = u
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
            _, lo, hi = key = nodes[v]
            nodes[v] = None
            del unique[key]
            ref[lo] -= 1
            ref[hi] -= 1
        self.size += len(top) + len(below) - len(upper) - len(lower)
        self.levels[k], self.levels[k + 1] = top, below
        self.p1 += delta
        self.perm[k], self.perm[k + 1] = y, x

    def sift(self, var: int) -> None:
        """Move var to the position of least (P1, node count, position).

        var sweeps down to the last level, then from a copy of its start
        state up to the root, so it crosses each level once; it goes to
        its best position from the root or from that copy, whichever
        takes fewer swaps: at most 2(n-1) swaps.  Each position's diagram
        is canonical for its order, so a position scores the same
        whichever way var came to it.
        """
        start = self.perm.index(var)
        saved = self.save()
        best = (self.p1, self.size, start)
        for pos in range(start, len(self.perm) - 1):
            self.swap(pos)
            best = min(best, (self.p1, self.size, pos + 1))
        if start < len(self.perm) - 1:
            self.restore(saved)
            # a second return to start can beat going from the root only if start > 0
            saved = self.save() if start else None
        for pos in range(start, 0, -1):
            self.swap(pos - 1)
            best = min(best, (self.p1, self.size, pos - 1))
        target, pos = best[2], 0
        if abs(target - start) < target:
            self.restore(saved)
            pos = start
        for k in range(pos, target) if pos < target else range(pos - 1, target - 1, -1):
            self.swap(k)


def sift_paths(mgr: BddManager, h: FunctionHandle) -> int:
    """Sift every variable once, scoring positions by one-path count.

    Variables are processed in decreasing order of node population at
    their starting level; each is fixed where P1 is smallest (ties:
    fewer nodes, then the earliest position).  The manager is left in
    the final order, holding only h's diagram; h's root keeps its id.
    Returns P1 in that order.

    No position is scored by a walk over the whole diagram.  Swaps are
    in place and touch only the two levels they exchange (Rudell, ICCAD
    1993): every node keeps its id and its function, only the nodes a
    swap rewrites change key, and a node a swap orphans is dropped at
    once.  P1 is kept as a running total that a swap changes by the
    rewritten nodes' share, and the node count as per-level widths.

    The sifter rewrites the manager's arena, lists indexed by node id,
    in place: it cuts the arena to h's diagram at the start, so a copy of
    its state is a few list slices, and sets the manager's order at the
    end.  A constant's order stays put: every position of a constant
    scores the same.  Each variable moves as _LevelSets.sift moves it.
    """
    levels = _LevelSets(mgr, h.root)
    if h.root > ONE:
        widths = [len(levels.levels[levels.perm.index(v)]) for v in range(mgr.n)]
        for var in sorted(range(mgr.n), key=lambda v: (-widths[v], v)):
            levels.sift(var)
        mgr.order = VariableOrder(tuple(levels.perm))
    return levels.p1


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
