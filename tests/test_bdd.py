import itertools
import random

import pytest

from dsopmin import bdd
from dsopmin.bdd import (
    BddManager,
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    node_count,
    one_path_count,
    sift_paths,
    swap_adjacent,
    to_dot,
    to_truthtable,
)
from dsopmin.boolfn import (
    TruthTable,
    cover_to_truthtable,
    cube_from_text,
    cube_mask,
    cubes_disjoint,
    format_cube,
    full_mask,
    truthtable_from_minterms,
)

from conftest import ref_build

ORDER_ABCD = VariableOrder((0, 1, 2, 3))
ORDER_BACD = VariableOrder((1, 0, 2, 3))


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
        assert ORDER_BACD.position(0) == 1
        assert ORDER_BACD.position(1) == 0


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

    def test_repeat_build_identical_root(self, golden_tt):
        mgr = BddManager(4, ORDER_BACD)
        assert mgr.build(golden_tt).root == mgr.build(golden_tt).root

    def test_canonicity_random(self):
        for tt in random_tables(50, (1, 8), seed=11):
            mgr = BddManager(tt.n)
            h1 = mgr.build(tt)
            h2 = mgr.build(tt)
            assert h1.root == h2.root
            other = TruthTable(tt.n, tt.bits ^ 1)
            assert mgr.build(other).root != h1.root

    def test_reduction_invariants(self, golden_tt):
        mgr = BddManager(4, ORDER_BACD)
        mgr.build(golden_tt)
        seen = set()
        for u, (level, lo, hi) in mgr._nodes.items():
            assert lo != hi
            assert (level, lo, hi) not in seen
            seen.add((level, lo, hi))
            assert mgr.level(lo) > level and mgr.level(hi) > level

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
            mgr = BddManager(n, VariableOrder(tuple(perm)))
            root = mgr.build(TruthTable(n, bits)).root
            nodes, ref_root = ref_build(bits, n, perm)
            assert mgr._nodes == nodes
            assert root == ref_root


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
            for a, b in itertools.combinations(dsop.cubes, 2):
                assert cubes_disjoint(a, b)
            assert cover_to_truthtable(dsop).bits == tt.bits


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
        assert cube_mask(cube_from_text("12", 2)) & ~table.bits == 0
        assert cube_mask(cube_from_text("02", 2)) & table.bits == 0

    def test_cube_in_function_true(self, golden_tt):
        table = to_truthtable(build_from_truthtable(golden_tt))
        assert {6, 14} <= set(golden_tt.minterms())
        assert cube_mask(cube_from_text("2110", 4)) & ~table.bits == 0

    def test_cube_in_function_false(self, golden_tt):
        table = to_truthtable(build_from_truthtable(golden_tt))
        assert not golden_tt.value(2)
        assert cube_mask(cube_from_text("2210", 4)) & ~table.bits != 0

    def test_universal_in_constant_one(self):
        table = to_truthtable(build_from_truthtable(TruthTable(3, (1 << 8) - 1)))
        assert cube_mask(cube_from_text("222", 3)) & ~table.bits == 0


class TestSwap:
    def test_preserves_function(self):
        for tt in random_tables(40, (2, 7), seed=23):
            h = build_from_truthtable(tt)
            for k in range(tt.n - 1):
                h.root = swap_adjacent(h.manager, h.root, k)
                assert to_truthtable(h).bits == tt.bits

    def test_swap_updates_order(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_ABCD)
        swap_adjacent(h.manager, h.root, 0)
        assert h.manager.order.perm == (1, 0, 2, 3)


class TestSifting:
    def test_golden_reaches_minimum(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_ABCD)
        assert one_path_count(h) == 5
        sift_paths(h.manager, h)
        assert one_path_count(h) == 4
        assert to_truthtable(h).bits == golden_tt.bits

    def test_constant_function(self):
        h = build_from_truthtable(TruthTable(3, 0))
        order = sift_paths(h.manager, h)
        assert one_path_count(h) == 0
        assert sorted(order.perm) == [0, 1, 2]

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


class TestDot:
    def test_dump_conventions(self, golden_tt):
        h = build_from_truthtable(golden_tt, ORDER_BACD)
        dot = to_dot(h, ["a", "b", "c", "d"])
        assert dot.count("style=dashed") == 6
        assert dot.count("style=solid") == 6
        assert '"b"' in dot and '"1"' in dot
