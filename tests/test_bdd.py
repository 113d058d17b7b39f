import hashlib
import random
import re
import sys

import pytest

from dsopmin import bdd
from dsopmin.bdd import (
    BddManager,
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    node_count,
    one_path_count,
    one_paths,
    sift_paths,
    split_levels,
    to_dot,
    to_truthtable,
)
from dsopmin.boolfn import (
    TruthTable,
    cube_mask,
    format_cube,
    full_mask,
    truthtable_from_minterms,
    truthtable_from_pairs,
    var_masks,
)
from dsopmin.cli import ORDERINGS, PipelineConfig, run_pipeline
from dsopmin.ordering import entropy_order, entropy_place

from conftest import (
    _ref_reachable,
    build_into,
    cover_table,
    oracle_disjoint,
    random_cube,
    ref_build,
    ref_cofactor_bits,
    ref_enumerate_one_paths,
    ref_level,
    ref_level_nodes,
    ref_sift_summary,
    symmetric_tables,
    text_cube,
)

ORDER_ABCD = VariableOrder((0, 1, 2, 3))
ORDER_BACD = VariableOrder((1, 0, 2, 3))


def live_nodes(mgr):
    """The arena's live slots, id -> (var, lo, hi)."""
    return {u: key for u, key in enumerate(mgr._nodes) if key}


def post_order(nodes, root):
    """A diagram (id -> (level, lo, hi)) and its root with ids renumbered
    from 2 in lo-first post order from the root, ref_build's numbering."""
    ids = {0: 0, 1: 1}
    out = {}

    def walk(u):
        if u not in ids:
            level, lo, hi = nodes[u]
            key = (level, walk(lo), walk(hi))
            ids[u] = len(ids)
            out[ids[u]] = key
        return ids[u]

    return out, walk(root)


def assert_arena_invariants(mgr, root):
    """The arena is a reduced ordered BDD rooted at root, under mgr.order."""
    assert mgr._nodes[:2] == [None, None]  # the terminals' slots
    nodes = live_nodes(mgr)
    assert mgr._unique == {key: u for u, key in nodes.items()}
    assert len(set(nodes.values())) == len(nodes)  # no key twice
    for u, (_, lo, hi) in nodes.items():
        assert lo != hi
        assert min(ref_level(mgr, lo), ref_level(mgr, hi)) > ref_level(mgr, u)
    assert set(_ref_reachable(mgr, root)) == set(nodes)


def random_tables(count, n_range, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        yield TruthTable(n, rng.getrandbits(1 << n))


class TestVariableOrder:
    def test_identity(self):
        assert VariableOrder.identity(3).perm == (0, 1, 2)

    def test_not_permutation(self):
        with pytest.raises(ValueError):
            VariableOrder((0, 0, 2))

    def test_position(self):
        assert ORDER_BACD.perm.index(0) == 1
        assert ORDER_BACD.perm.index(1) == 0

    def test_manager_refuses_order_of_other_length(self):
        with pytest.raises(ValueError, match="order length does not match variable count"):
            BddManager(4, VariableOrder.identity(3))


class TestBuild:
    def test_golden_node_count_given_order(self, golden_tt):
        assert node_count(build_from_truthtable(golden_tt, ORDER_ABCD)) == 7

    def test_golden_node_count_entropy_order(self, golden_tt):
        assert node_count(build_from_truthtable(golden_tt, ORDER_BACD)) == 6

    def test_constant_zero(self):
        h = build_from_truthtable(TruthTable(3, 0))
        assert h.root == bdd.ZERO
        assert node_count(h) == 0

    def test_constant_one(self):
        h = build_from_truthtable(TruthTable(3, (1 << 8) - 1))
        assert h.root == bdd.ONE
        assert node_count(h) == 0

    def test_build_refuses_table_over_other_n(self, golden_tt):
        with pytest.raises(ValueError, match="split order does not match manager"):
            build_into(BddManager(5), golden_tt)

    def test_to_truthtable_refuses_25_variables(self):
        with pytest.raises(ValueError, match="variable count 25 outside"):
            to_truthtable(bdd.FunctionHandle(BddManager(25), bdd.ONE))

    @pytest.mark.parametrize("n", [17, 20])
    def test_to_truthtable_above_the_kept_width(self, n):
        # past boolfn.KEPT_WIDTH to_truthtable builds its width's masks itself
        rng = random.Random(f"wide-table/{n}")
        pairs = []
        for _ in range(40):
            care = rng.getrandbits(n) | rng.getrandbits(n)
            pairs.append((care, rng.getrandbits(n) & care))
        tt = truthtable_from_pairs(n, pairs)
        perm = list(range(n))
        rng.shuffle(perm)
        for order in (None, VariableOrder(tuple(perm))):
            assert to_truthtable(build_from_truthtable(tt, order)) == tt

    def test_repeat_build_identical_root(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        assert build_into(h.manager, golden_tt).root == h.root

    def test_canonicity_random(self):
        for tt in random_tables(50, (1, 8), seed=11):
            h1 = build_from_truthtable(tt)
            mgr = h1.manager
            h2 = build_into(mgr, tt)
            assert h1.root == h2.root
            other = TruthTable(tt.n, tt.bits ^ 1)
            assert build_into(mgr, other).root != h1.root

    def test_reduction_invariants(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        assert_arena_invariants(h.manager, h.root)

    def test_reduction_invariants_after_sift(self):
        # the same checks on the structured tables, under the order that
        # sifting leaves, from the identity and a shuffled start
        rng = random.Random("sift-invariants")
        for name, tt in symmetric_tables():
            perm = list(range(tt.n))
            rng.shuffle(perm)
            for start in (None, VariableOrder(tuple(perm))):
                h = build_from_truthtable(tt, start)
                sift_paths(h.manager, h)
                assert_arena_invariants(h.manager, h.root)
                assert to_truthtable(h).bits == tt.bits, name

    def test_matches_reference_builder(self):
        rng = random.Random(23)
        for i in range(120):
            n = rng.randint(1, 10)
            kind = i % 3
            if kind == 0:
                bits = rng.getrandbits(1 << n)
            elif kind == 1:  # sparse: a few minterms
                bits = 0
                for _ in range(rng.randint(0, 5)):
                    bits |= 1 << rng.randrange(1 << n)
            else:  # dense with a few holes
                bits = (1 << (1 << n)) - 1
                for _ in range(rng.randint(0, 5)):
                    bits &= ~(1 << rng.randrange(1 << n))
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_from_truthtable(TruthTable(n, bits), VariableOrder(tuple(perm)))
            mgr, root = h.manager, h.root
            want = ref_build(bits, n, perm)
            # the same diagram up to node renaming, with no other node made
            assert post_order(ref_level_nodes(mgr), root) == want
            assert len(live_nodes(mgr)) == len(want[0])

    def test_levels_match_build(self):
        # the ordering's splits, made into nodes, are the BDD that building
        # from the table under the entropy order gives, ids included, and
        # ref_build's diagram up to node renaming
        rng = random.Random("build-levels")
        for i in range(200):
            n = 1 + i % 12
            kind = i % 5
            if kind == 0:
                bits = rng.getrandbits(1 << n)
            elif kind == 1:  # an OR of a few cubes
                bits = 0
                for _ in range(rng.randint(1, 4)):
                    cube = "".join(rng.choice("012") for _ in range(n))
                    bits |= cube_mask(text_cube(cube, n))
            elif kind == 2:  # the constants
                bits = full_mask(n) if i % 2 else 0
            elif kind == 3:  # parity
                bits = sum(1 << m for m in range(1 << n) if bin(m).count("1") % 2)
            else:  # dense with a few holes
                bits = full_mask(n)
                for _ in range(rng.randint(1, 5)):
                    bits &= ~(1 << rng.randrange(1 << n))
            tt = TruthTable(n, bits)
            levels = split_levels(tt, entropy_place)
            mgr = BddManager(n, levels.order)
            h = mgr.build_levels(levels)
            want = build_from_truthtable(tt, entropy_order(tt))
            assert (mgr._nodes, h.root) == (want.manager._nodes, want.root), (n, hex(bits))
            nodes, root = ref_build(bits, n, levels.order.perm)
            assert post_order(ref_level_nodes(mgr), h.root) == (nodes, root)
            assert len(live_nodes(mgr)) == len(nodes)

    def test_levels_under_another_order(self, golden_tt):
        levels = split_levels(golden_tt, entropy_place)
        with pytest.raises(ValueError):
            BddManager(4, ORDER_ABCD).build_levels(levels)


def count_tables():
    """Seeded tables for n = 1..12: dense and sparse random, a random
    function of a seeded subset of the variables, parity, x0 and both
    constants."""
    rng = random.Random("count-sources")
    for n in range(1, 13):
        minterms = range(1 << n)
        yield TruthTable(n, rng.getrandbits(1 << n))
        yield TruthTable(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
        # f(m) = g(m with the variables outside the subset set to 0)
        kept = sum(1 << (n - 1 - v) for v in rng.sample(range(n), rng.randint(1, n)))
        g = rng.getrandbits(1 << n)
        yield TruthTable(n, sum(1 << m for m in minterms if g >> (m & kept) & 1))
        yield TruthTable(n, sum(1 << m for m in minterms if bin(m).count("1") % 2))
        yield TruthTable(n, sum(1 << m for m in minterms if m >> (n - 1) & 1))  # x0
        yield TruthTable(n, 0)
        yield TruthTable(n, full_mask(n))


def support(tt: TruthTable):
    """The variables tt depends on, from minterm-by-minterm cofactors."""
    return [v for v in range(tt.n)
            if ref_cofactor_bits(tt.bits, tt.n, v, False) != ref_cofactor_bits(tt.bits, tt.n, v, True)]


class TestCountsFromTheBuild:
    """The pipeline's P1 comes from the descent (Levels.one_paths) and its
    node count from the store (BddManager.live_size); both equal the
    independent traversals one_path_count and node_count, after the build
    and after sift_paths."""

    @pytest.mark.parametrize("mode", ("entropy", "given"))
    def test_equal_to_the_traversals(self, mode):
        rule = entropy_place if mode == "entropy" else lambda level, rest, tables, masks: 0
        for tt in count_tables():
            levels = split_levels(tt, rule)
            mgr = BddManager(tt.n, levels.order)
            h = mgr.build_levels(levels)
            assert levels.one_paths() == one_path_count(h), (mode, tt)
            assert mgr.live_size() == node_count(h), (mode, tt)
            p1 = sift_paths(mgr, h)
            assert p1 == one_path_count(h), (mode, tt)
            assert mgr.live_size() == node_count(h), (mode, tt)

    @pytest.mark.parametrize("mode", ORDERINGS)
    def test_report_counts(self, mode):
        # the diagram is canonical for its order, so a fresh build in the
        # report's order has the report's counts, sifted or not
        for tt in count_tables():
            report, _ = run_pipeline(tt, PipelineConfig(ordering=mode))
            h = build_from_truthtable(tt, VariableOrder(report.order))
            assert (report.one_paths, report.bdd_nodes) == (one_path_count(h), node_count(h)), (mode, tt)


class TestMaskFetches:
    """split_levels fetches a level's literal masks once, for its place
    rule and its cofactors both, and only on a level that holds a
    non-constant subtable."""

    @pytest.mark.parametrize("mode", ORDERINGS)
    def test_one_mask_fetch_per_level_to_split(self, mode, monkeypatch):
        # the levels down to the deepest variable f depends on, in the
        # descent's order, hold a non-constant subtable; fetches are
        # recorded from every module's var_masks during the pipeline's one
        # split_levels call
        tables = [(tt, support(tt)) for tt in count_tables()]
        fetched, splits = [], []

        def counting(n):
            fetched.append(n)
            return var_masks(n)

        def recording(tt, rule):
            fetched.clear()
            levels = split_levels(tt, rule)
            splits.append((levels.order.perm, fetched[:]))
            return levels

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dsopmin" and getattr(module, "var_masks", None) is var_masks:
                monkeypatch.setattr(module, "var_masks", counting)
        monkeypatch.setattr(bdd, "split_levels", recording)
        for tt, depends_on in tables:
            splits.clear()
            run_pipeline(tt, PipelineConfig(ordering=mode))
            [(perm, widths)] = splits
            depth = max((perm.index(v) + 1 for v in depends_on), default=0)
            assert widths == list(range(tt.n, tt.n - depth, -1)), (mode, tt)


class TestOnePaths:
    def test_golden_count_entropy_order(self, golden_tt):
        assert one_path_count(build_from_truthtable(golden_tt, ORDER_BACD)) == 4

    def test_golden_count_given_order(self, golden_tt):
        # cross-checked against the enumeration op below
        h = build_from_truthtable(golden_tt, ORDER_ABCD)
        assert one_path_count(h) == 5
        assert len(enumerate_one_paths(h).cubes) == 5

    def test_constants(self):
        assert one_path_count(build_from_truthtable(TruthTable(2, 0b1111))) == 1
        assert one_path_count(build_from_truthtable(TruthTable(2, 0))) == 0

    def test_golden_dsop_set(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        cubes = {format_cube(c) for c in enumerate_one_paths(h)}
        assert cubes == {"2001", "0101", "0110", "1122"}

    def test_enumeration_order_deterministic(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        texts = [format_cube(c) for c in enumerate_one_paths(h)]
        # depth-first, lo branch first, root variable b
        assert texts == ["2001", "0101", "0110", "1122"]

    def test_constant_one_universal_cube(self):
        h = build_from_truthtable(TruthTable(3, (1 << 8) - 1))
        assert [format_cube(c) for c in enumerate_one_paths(h)] == ["222"]

    def test_single_minterm(self):
        tt = truthtable_from_minterms(4, [13])
        h = build_from_truthtable(tt)
        assert [format_cube(c) for c in enumerate_one_paths(h)] == ["1101"]

    def test_dsop_soundness_random(self):
        for tt in random_tables(60, (1, 10), seed=7):
            order = list(range(tt.n))
            random.Random(tt.bits & 0xFFFF).shuffle(order)
            h = build_from_truthtable(tt, VariableOrder(tuple(order)))
            dsop = enumerate_one_paths(h)
            assert len(dsop.cubes) == one_path_count(h)
            assert oracle_disjoint(format_cube(c) for c in dsop)
            assert cover_table(dsop).bits == tt.bits


class TestOnePathWalk:
    """one_paths' iterative walk against the former recursive one
    (conftest.ref_enumerate_one_paths): same cubes in the same order."""

    @staticmethod
    def handles(tt, rng):
        """tt's diagram under entropy, given (identity and shuffled) and sift orders."""
        levels = split_levels(tt, entropy_place)
        yield BddManager(tt.n, levels.order).build_levels(levels)
        yield build_from_truthtable(tt)
        perm = list(range(tt.n))
        rng.shuffle(perm)
        yield build_from_truthtable(tt, VariableOrder(tuple(perm)))
        h = build_from_truthtable(tt)
        sift_paths(h.manager, h)
        yield h

    def assert_matches_reference(self, h):
        want = ref_enumerate_one_paths(h)
        assert one_paths(h) == [(c.care, c.value) for c in want]
        assert enumerate_one_paths(h) == want
        assert len(want.cubes) == one_path_count(h)

    def test_random_tables_every_ordering(self):
        rng = random.Random("one-path-walk")
        for tt in random_tables(80, (1, 10), seed=19):
            if rng.random() < 0.5:  # thin the on-set, so some diagrams are sparse
                tt = TruthTable(tt.n, tt.bits & rng.getrandbits(1 << tt.n))
            for h in self.handles(tt, rng):
                self.assert_matches_reference(h)

    def test_constant_roots(self):
        rng = random.Random("one-path-walk/constants")
        for n in (1, 3, 6):
            for bits in (0, full_mask(n)):
                for h in self.handles(TruthTable(n, bits), rng):
                    assert h.root == (1 if bits else 0)
                    self.assert_matches_reference(h)
                    assert one_paths(h) == ([(0, 0)] if bits else [])

    def test_long_edges(self):
        # sparse PLAs and symmetric functions: edges that skip levels
        # leave their variables don't-care in the cubes
        rng = random.Random("one-path-walk/long-edges")
        tables = [truthtable_from_minterms(5, [0b10010, 0b10011, 0b11010, 0b11011])]  # a d' only
        for n in (6, 9, 12):
            bits = 0
            for k in (2, 3, 3, 4):
                bits |= cube_mask(text_cube(random_cube(rng, n, k), n))
            tables.append(TruthTable(n, bits))
        tables += [tt for _name, tt in symmetric_tables(8)]
        skipped = 0
        for tt in tables:
            for h in self.handles(tt, rng):
                self.assert_matches_reference(h)
                skipped += sum(tt.n - care.bit_count() for care, _ in one_paths(h))
        assert skipped > 0


class TestTautologyAndContainment:
    """f is a tautology iff its table is full; cube -> f iff the cube's
    mask misses f's off-set."""

    def test_constant_one(self):
        table = to_truthtable(build_from_truthtable(TruthTable(2, 0b1111)))
        assert table.bits == full_mask(2)

    def test_golden_not_tautology(self, golden_tt):
        assert to_truthtable(build_from_truthtable(golden_tt)).bits != full_mask(4)

    def test_x_plus_not_x(self):
        tt = truthtable_from_minterms(2, [2, 3])  # f = x0
        table = to_truthtable(build_from_truthtable(tt))
        # f|x0=1 is a tautology, f|x0=0 is a contradiction
        assert cube_mask(text_cube("12", 2)) & ~table.bits == 0
        assert cube_mask(text_cube("02", 2)) & table.bits == 0

    def test_cube_in_function_true(self, golden_tt):
        table = to_truthtable(build_from_truthtable(golden_tt))
        assert {6, 14} <= set(golden_tt.minterms())
        assert cube_mask(text_cube("2110", 4)) & ~table.bits == 0

    def test_cube_in_function_false(self, golden_tt):
        table = to_truthtable(build_from_truthtable(golden_tt))
        assert not golden_tt.bits >> 2 & 1
        assert cube_mask(text_cube("2210", 4)) & ~table.bits != 0

    def test_universal_in_constant_one(self):
        table = to_truthtable(build_from_truthtable(TruthTable(3, (1 << 8) - 1)))
        assert cube_mask(text_cube("222", 3)) & ~table.bits == 0


class TestSwap:
    def test_swap_work_follows_two_levels(self):
        # a swap makes at most two nodes per old level-k node, every node
        # keeps its function, and the running P1 and node count match walks;
        # the manager's arena is read after each swap, under the swaps' order
        for tt in random_tables(40, (2, 8), seed=53):
            h = build_from_truthtable(tt)
            mgr = h.manager
            levels = bdd._LevelSets(mgr, h.root)
            for k in list(range(tt.n - 1)) + list(range(tt.n - 2, -1, -1)):
                upper = set(levels.levels[k])
                tables = {u: to_truthtable(bdd.FunctionHandle(mgr, u)).bits
                          for u in live_nodes(mgr)}
                made = len(mgr._nodes)
                levels.swap(k)
                mgr.order = VariableOrder(tuple(levels.perm))
                assert_arena_invariants(mgr, h.root)
                assert len(mgr._nodes) - made <= 2 * len(upper)
                live = set(live_nodes(mgr))
                assert upper <= live
                for u in set(tables) & live:
                    assert to_truthtable(bdd.FunctionHandle(mgr, u)).bits == tables[u]
                assert to_truthtable(h).bits == tt.bits
                assert (levels.p1, levels.size) == (one_path_count(h), node_count(h))
                assert len(live) == levels.size


class TestSifting:
    def test_golden_reaches_minimum(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_ABCD)
        assert one_path_count(h) == 5
        sift_paths(h.manager, h)
        assert one_path_count(h) == 4
        assert to_truthtable(h).bits == golden_tt.bits

    def test_constant_function(self):
        h = build_from_truthtable(TruthTable(3, 0))
        assert sift_paths(h.manager, h) == one_path_count(h) == 0
        assert sorted(h.manager.order.perm) == [0, 1, 2]

    def test_single_variable_function(self):
        tt = truthtable_from_minterms(3, [2, 3])  # f = x1
        h = build_from_truthtable(tt)
        sift_paths(h.manager, h)
        assert one_path_count(h) == 1

    def test_never_increases_p1(self):
        for tt in random_tables(40, (4, 8), seed=31):
            h = build_from_truthtable(tt)
            before = one_path_count(h)
            sift_paths(h.manager, h)
            assert one_path_count(h) <= before
            assert to_truthtable(h).bits == tt.bits


def relabel(tt, perm, flip):
    """tt with variable v renamed perm[v], complemented where flip has its bit."""
    n = tt.n
    bits = 0
    for i in tt.minterms():
        j = 0
        for v in range(n):
            if (i >> (n - 1 - v)) & 1:
                j |= 1 << (n - 1 - perm[v])
        bits |= 1 << (j ^ flip)
    return TruthTable(n, bits)


def sift_tables():
    """Seeded tables with n from 2 to 10: uniform, sparse, near-full,
    constant, one-variable, and relabelled symmetric ones."""
    rng = random.Random("sift-tables")
    out = []
    for i in range(260):
        n = rng.randint(2, 10)
        kind = i % 5
        if kind == 0:
            bits = rng.getrandbits(1 << n)
        elif kind == 1:
            bits = 0
            for _ in range(rng.randint(1, 6)):
                bits |= 1 << rng.randrange(1 << n)
        elif kind == 2:
            bits = full_mask(n)
            for _ in range(rng.randint(1, 6)):
                bits &= ~(1 << rng.randrange(1 << n))
        elif kind == 3:
            bits = rng.choice((0, full_mask(n)))
        else:
            bits = var_masks(n)[rng.randrange(n)]
            if rng.random() < 0.5:
                bits ^= full_mask(n)
        out.append(TruthTable(n, bits))
    for _name, tt in symmetric_tables():
        perm = list(range(tt.n))
        rng.shuffle(perm)
        out.append(tt)
        out.append(relabel(tt, perm, rng.getrandbits(tt.n)))
    return out


def sift_summary(tt, start=None):
    """sift_paths's order, P1, node count and DSOP text, with its arena checks."""
    h = build_from_truthtable(tt, start)
    p1 = sift_paths(h.manager, h)
    assert_arena_invariants(h.manager, h.root)
    assert len(live_nodes(h.manager)) == node_count(h)
    assert to_truthtable(h).bits == tt.bits
    assert p1 == one_path_count(h)
    return (h.manager.order.perm, p1, node_count(h),
            [format_cube(c) for c in enumerate_one_paths(h)])


class TestSiftAgainstReference:
    """sift_paths against the former whole-diagram rescoring (conftest.ref_sift_paths)."""

    def test_identity_start(self):
        tables = sift_tables()
        assert len(tables) >= 300
        for tt in tables:
            assert sift_summary(tt) == ref_sift_summary(tt), (tt.n, tt.bits)

    def test_random_start(self):
        rng = random.Random("sift-start")
        for tt in sift_tables()[::3]:
            perm = list(range(tt.n))
            rng.shuffle(perm)
            start = VariableOrder(tuple(perm))
            assert sift_summary(tt, start) == ref_sift_summary(tt, start), (tt.n, tt.bits, perm)

    def test_swap_reports_level_widths(self):
        # after every swap, the two widths it reports are the reachable
        # node counts at levels k and k+1, in the manager's arena under the
        # swaps' order
        for tt in random_tables(40, (2, 8), seed=47):
            h = build_from_truthtable(tt)
            mgr, root = h.manager, h.root
            levels = bdd._LevelSets(mgr, root)
            for k in list(range(tt.n - 1)) + list(range(tt.n - 2, -1, -1)):
                levels.swap(k)
                mgr.order = VariableOrder(tuple(levels.perm))
                top, below = len(levels.levels[k]), len(levels.levels[k + 1])
                widths = [0] * tt.n
                for u in mgr.reachable(root):
                    widths[ref_level(mgr, u)] += 1
                assert (top, below) == (widths[k], widths[k + 1])

    def test_reachable_walked_once(self, monkeypatch):
        # once, for the starting level sets; every position is scored from
        # the running P1 and the level widths, and no dead arena is left
        calls = []
        walk = BddManager.reachable

        def counted(mgr, root):
            calls.append(root)
            return walk(mgr, root)

        monkeypatch.setattr(BddManager, "reachable", counted)
        tt = [t for name, t in symmetric_tables() if name == "carry-8"][0]
        h = build_from_truthtable(relabel(tt, [3, 6, 0, 5, 1, 7, 2, 4], 0b10110010))
        sift_paths(h.manager, h)
        assert len(calls) == 1

    def test_swaps_per_variable(self, monkeypatch):
        # each variable sweeps each side once, from a copy of its start
        # state, then returns from the root or from that copy: at most
        # 2(n-1) swaps where a walk back from the last level took up to
        # 3(n-1).  The totals are pinned (the walk back took 15,544 swaps
        # over sift_tables(), 105 on carry-8 and 44 on mux-6)
        log = []
        swap, sift = bdd._LevelSets.swap, bdd._LevelSets.sift

        def counted_swap(levels, k):
            log[-1][-1] += 1
            swap(levels, k)

        def counted_sift(levels, var):
            log[-1].append(0)
            sift(levels, var)

        monkeypatch.setattr(bdd._LevelSets, "swap", counted_swap)
        monkeypatch.setattr(bdd._LevelSets, "sift", counted_sift)

        def swaps(tt):
            log.append([])
            h = build_from_truthtable(tt)
            sift_paths(h.manager, h)
            assert max(log[-1], default=0) <= 2 * (tt.n - 1), (tt.n, tt.bits, log[-1])
            return sum(log[-1])

        totals = [swaps(tt) for tt in sift_tables()]
        assert sum(totals) == 10_376
        assert hashlib.sha256(" ".join(map(str, totals)).encode()).hexdigest()[:16] == "92143981aec23835"
        tables = dict(symmetric_tables())
        assert swaps(relabel(tables["carry-8"], [3, 6, 0, 5, 1, 7, 2, 4], 0b10110010)) == 58
        assert swaps(relabel(tables["mux-6"], [5, 2, 4, 0, 3, 1], 0)) == 36

    def test_sparse_pla(self):
        # 12 random cubes of 3-4 literals at n=15, the wide-pla shape: a
        # longer sift, with wider levels, than any table above
        rng = random.Random("sift-sparse-pla")
        bits = 0
        for k in (3,) * 4 + (4,) * 8:
            bits |= cube_mask(text_cube(random_cube(rng, 15, k), 15))
        tt = TruthTable(15, bits)
        assert sift_summary(tt) == ref_sift_summary(tt)

    def test_arena_holds_only_the_diagram(self):
        # the arena is cut to the handle's diagram before the first swap,
        # and swaps keep node ids and drop the nodes they orphan; a constant
        # or an n=1 table is cut too, though it takes no swap
        mux = relabel([t for name, t in symmetric_tables() if name == "mux-6"][0],
                      [5, 2, 4, 0, 3, 1], 0)
        parity = [t for name, t in symmetric_tables(3) if name == "parity-3"][0]
        for tt, other in ((mux, TruthTable(mux.n, mux.bits ^ 1)),
                          (TruthTable(3, 0), parity),
                          (TruthTable(3, full_mask(3)), parity),
                          (TruthTable(1, 0b01), TruthTable(1, 0b10))):
            h = build_from_truthtable(tt)
            mgr = h.manager
            build_into(mgr, other)  # a second diagram in the arena
            order = mgr.order
            sift_paths(mgr, h)
            live = set(mgr.reachable(h.root))
            assert set(live_nodes(mgr)) == live
            assert set(mgr._unique.values()) == live
            assert all(mgr._unique[mgr._nodes[u]] == u for u in live)
            assert build_into(mgr, tt).root == h.root
            if h.root < 2:
                assert mgr.order == order


class TestDot:
    def test_dump_conventions(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        dot = to_dot(h, ["a", "b", "c", "d"])
        assert dot.count("style=dashed") == 6
        assert dot.count("style=solid") == 6
        assert '"b"' in dot and '"1"' in dot

    def test_default_names(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        dot = to_dot(h)
        assert dot == to_dot(h, ["x0", "x1", "x2", "x3"])
        assert 'label="x1"' in dot

    def test_quotes_and_backslashes_escaped(self, golden_tt):
        # each label is one DOT quoted string, \" and \\ its only escapes,
        # and reads back as its name
        names = ['a"b', "c\\", '\\"', "d"]
        dot = to_dot(build_from_truthtable(golden_tt, ORDER_BACD), names)
        assert 'label="a\\"b"' in dot and 'label="c\\\\"' in dot
        labels = re.findall(r'label=("(?:[^"\\]|\\.)*")(.*)', dot)
        assert len(labels) == 2 + 6 and all(rest == ", shape=box];" or rest == "];" for _, rest in labels)
        read = {re.sub(r"\\(.)", r"\1", text[1:-1]) for text, _ in labels}
        assert read == {"0", "1", *names}
