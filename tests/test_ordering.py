import random
import tracemalloc

import pytest

from dsopmin.bdd import build_from_truthtable, node_count, one_path_count, split_levels
from dsopmin.boolfn import (
    TruthTable,
    cofactor_bits,
    cube_mask,
    truthtable_from_minterms,
    var_masks,
)
from dsopmin import ordering
from dsopmin.ordering import (
    _EPS,
    cofactor_entropy,
    entropy_order,
    entropy_place,
    variable_entropy,
)

from conftest import oracle_cover_minterms, random_cube, ref_entropy_order, text_cube

TOL = 1e-3

# entropy_order on order_tables(), recorded with the per-minterm
# cofactoring implementation that preceded the bit-parallel one.
RECORDED_ORDERS = (
    (3, 1, 2, 0, 4),
    (4, 2, 3, 1, 0),
    (2, 4, 1, 0, 3, 5),
    (3, 1, 4, 2, 5, 0),
    (1, 0, 4, 2, 3, 6, 5),
    (1, 4, 6, 0, 5, 3, 2),
    (3, 0, 4, 7, 6, 5, 1, 2),
    (7, 2, 4, 0, 6, 3, 5, 1),
    (1, 7, 3, 2, 4, 8, 6, 0, 5),
    (7, 0, 1, 2, 6, 5, 8, 3, 4),
    (3, 8, 5, 7, 6, 9, 0, 2, 4, 1),
    (9, 2, 0, 1, 5, 6, 8, 3, 4, 7),
    (4, 8, 2, 6, 9, 3, 0, 10, 5, 7, 1),
    (2, 5, 9, 0, 10, 1, 4, 3, 7, 8, 6),
    (7, 0, 1, 10, 3, 8, 4, 5, 6, 9, 11, 2),
    (2, 3, 5, 8, 9, 0, 4, 6, 1, 7, 10, 11),
    (0, 3, 1, 2, 4),
    (1, 0, 3, 2, 4),
    (2, 1, 0, 4, 5, 3),
    (3, 4, 5, 1, 2, 0),
)


def order_tables():
    """Seeded tables, n = 5..12: even entries uniform random, odd ones an
    OR of a few random cubes (sparse, with many constant subtables)."""
    rng = random.Random("entropy-order")
    for i in range(20):
        n = 5 + (i // 2) % 8
        if i % 2 == 0:
            bits = rng.getrandbits(1 << n)
        else:
            texts = []
            for _ in range(rng.randint(2, 8)):
                cube = ["2"] * n
                for v in rng.sample(range(n), rng.randint(2, n - 1)):
                    cube[v] = rng.choice("01")
                texts.append("".join(cube))
            bits = 0
            for m in oracle_cover_minterms(texts):
                bits |= 1 << m
        yield TruthTable(n, bits)


# entropy_order on wide_tables(), recorded with the implementation that
# kept every occurrence of a repeated subtable in its own list entry.
RECORDED_WIDE_ORDERS = (
    (17, 5, 0, 6, 16, 10, 14, 12, 3, 8, 11, 2, 13, 15, 7, 4, 9, 1),
    (18, 11, 19, 10, 16, 9, 5, 15, 13, 0, 2, 4, 14, 3, 6, 7, 8, 1, 12, 17),
    (20, 3, 0, 15, 10, 5, 1, 17, 2, 8, 11, 21, 18, 7, 14, 12, 9, 6, 4, 19, 13, 16),
    (5, 8, 2, 6, 1, 12, 4, 3, 10, 0, 7, 11, 13, 9),
    # recorded with the separate ordering loop that preceded the shared
    # descent in bdd.split_levels
    (23, 20, 9, 2, 22, 10, 19, 11, 15, 4, 21, 13, 3, 6, 0, 8, 16, 1, 7, 12, 18, 5, 14, 17),
)


def wide_tables():
    """Seeded sparse PLAs of the benchmark's wide-pla shape (4 three-literal
    and 8 four-literal cubes) at n = 18, 20 and 22, one uniform n=14 table,
    then one such PLA at the table cap, n=24.  A wide level holds many
    copies of few distinct subtables."""
    rng = random.Random("entropy-order/wide")

    def wide_pla(n):
        bits = 0
        for k in (3,) * 4 + (4,) * 8:
            bits |= cube_mask(text_cube(random_cube(rng, n, k), n))
        return TruthTable(n, bits)

    for n in (18, 20, 22):
        yield wide_pla(n)
    yield TruthTable(14, rng.getrandbits(1 << 14))
    yield wide_pla(24)


def _table(n: int, f) -> TruthTable:
    """The table of f over the n input bits, variable v being bit n-1-v."""
    bits = 0
    for m in range(1 << n):
        if f([(m >> (n - 1 - v)) & 1 for v in range(n)]):
            bits |= 1 << m
    return TruthTable(n, bits)


def reference_tables():
    """360 seeded tables, n = 1..12, six kinds in turn: uniform random, an
    OR of random cubes, and four symmetric or near-symmetric families
    (parity, majority, adder carry-out, a random function of the weight).
    Symmetric functions have many equal subtables at a level."""
    rng = random.Random("entropy-order/reference")
    for i in range(360):
        n = 1 + i % 12
        kind = (i // 12) % 6
        flip = [rng.getrandbits(1) for _ in range(n)]
        if kind == 0:
            yield TruthTable(n, rng.getrandbits(1 << n))
        elif kind == 1:
            bits = 0
            for _ in range(rng.randint(1, 6)):
                bits |= cube_mask(text_cube(random_cube(rng, n, rng.randint(1, n)), n))
            yield TruthTable(n, bits)
        elif kind == 2:
            yield _table(n, lambda x: sum(x) % 2)
        elif kind == 3:
            yield _table(n, lambda x: 2 * sum(a ^ b for a, b in zip(x, flip)) > n)
        elif kind == 4:
            k = n // 2

            def carry(x, k=k):
                a = int("".join(map(str, x[:k])) or "0", 2)
                b = int("".join(map(str, x[k:2 * k])) or "0", 2)
                return a + b + (x[-1] if n % 2 else 0) >> k

            yield _table(n, carry)
        else:
            by_weight = [rng.getrandbits(1) for _ in range(n + 1)]
            yield _table(n, lambda x: by_weight[sum(x)])


class TestCofactorEntropy:
    def test_golden_i_a0(self, golden_tt):
        assert cofactor_entropy(golden_tt, 0, False) == pytest.approx(0.954, abs=TOL)

    def test_golden_b0_subtable_i_c1(self, golden_tt):
        sub = TruthTable(3, cofactor_bits(golden_tt.bits, 4, 1, False))  # over (a, c, d)
        assert cofactor_entropy(sub, 1, True) == pytest.approx(0.0, abs=TOL)
        assert cofactor_entropy(sub, 1, False) == pytest.approx(1.0, abs=TOL)

    def test_constant_cofactor(self):
        tt = TruthTable(3, 0)
        assert cofactor_entropy(tt, 0, True) == 0.0
        full = TruthTable(3, (1 << 8) - 1)
        assert cofactor_entropy(full, 2, False) == 0.0

    def test_bad_index(self, golden_tt):
        with pytest.raises(ValueError):
            cofactor_entropy(golden_tt, 4, True)

    def test_dense_24_reads_one_mask(self):
        # above boolfn.KEPT_WIDTH only the variable's own mask is built: a
        # 2 MiB mask and the 2 MiB AND, not the width's 48 MiB of masks
        tt = TruthTable(24, random.Random("dense/24").getrandbits(1 << 24))
        for var in (0, 23):
            tracemalloc.start()
            try:
                h = cofactor_entropy(tt, var, True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20, (var, peak)
            assert 0.99 < h <= 1.0


class TestVariableEntropy:
    def test_golden_e_b(self, golden_tt):
        assert variable_entropy(golden_tt, 1) == pytest.approx(0.811, abs=TOL)

    def test_golden_b1_subtable_e_a(self, golden_tt):
        sub = TruthTable(3, cofactor_bits(golden_tt.bits, 4, 1, True))  # over (a, c, d)
        assert variable_entropy(sub, 0) == pytest.approx(0.5, abs=TOL)
        assert variable_entropy(sub, 1) == pytest.approx(0.811, abs=TOL)

    def test_golden_b0_subtable_e_c(self, golden_tt):
        sub = TruthTable(3, cofactor_bits(golden_tt.bits, 4, 1, False))
        assert variable_entropy(sub, 1) == pytest.approx(0.5, abs=TOL)

    @pytest.mark.parametrize("var", [-1, 4])
    def test_refuses_index_out_of_range(self, golden_tt, var):
        with pytest.raises(ValueError, match=f"variable index {var} out of range for n=4"):
            variable_entropy(golden_tt, var)

    def test_xor_is_maximally_ambiguous(self):
        xor = truthtable_from_minterms(2, [1, 2])
        assert variable_entropy(xor, 0) == pytest.approx(1.0, abs=TOL)
        assert variable_entropy(xor, 1) == pytest.approx(1.0, abs=TOL)


def least_entropy_place(scores):
    """The first place whose score is within _EPS of the least score."""
    least = min(scores)
    return next(j for j, score in enumerate(scores) if score <= least + _EPS)


class TestPlaceScoresAreVariableEntropy:
    """entropy_place's scores are the paper's E(x): on the table itself at
    level 0, and below it the mean over all 2^level subtables, each
    distinct one weighted by its count and the constants scoring 0."""

    def test_level_0(self):
        for tt in reference_tables():
            if tt.n <= 10:
                scores = [variable_entropy(tt, v) for v in range(tt.n)]
                assert entropy_place(0, list(range(tt.n)), {tt.bits: 1}, var_masks(tt.n)) == \
                    least_entropy_place(scores), (tt.n, hex(tt.bits))

    def test_deeper_levels(self):
        checked = 0

        def rule(level, remaining, tables, masks):
            nonlocal checked
            place = entropy_place(level, remaining, tables, masks)
            if level:
                width = len(remaining)
                scores = [sum(count * variable_entropy(TruthTable(width, st), j)
                              for st, count in tables.items()) / (1 << level)
                          for j in range(width)]
                assert place == least_entropy_place(scores), (level, remaining)
                checked += 1
            return place

        for tt in reference_tables():
            if tt.n <= 10:
                assert split_levels(tt, rule).order == entropy_order(tt)
        assert checked > 1000


class TestKeptEntropies:
    """entropy_place keeps each width's cofactor entropies across calls,
    up to width 16; a kept value is the value a fresh table computes."""

    def test_cold_and_warm_splits_agree(self):
        rng = random.Random("kept-entropies")
        tables = [*order_tables(), *reference_tables(), *wide_tables()]
        for n in range(1, 15):
            for _ in range(3):
                on = rng.getrandbits(1 << n)
                tables += [TruthTable(n, on), TruthTable(n, on & rng.getrandbits(1 << n))]
        cold = []
        for tt in tables:
            ordering._KEPT.clear()
            levels = split_levels(tt, entropy_place)
            cold.append((levels.order, levels.kids))
        for tt, want in zip(tables, cold):  # warm from every table before it
            levels = split_levels(tt, entropy_place)
            assert (levels.order, levels.kids) == want, (tt.n, hex(tt.bits))

    def test_only_widths_up_to_16_kept(self):
        ordering._KEPT.clear()
        split_levels(TruthTable(18, random.Random("dense/18").getrandbits(1 << 18)), entropy_place)
        assert sorted(ordering._KEPT) == list(range(1, 17))
        for width, h in ordering._KEPT.items():
            assert h.half == 1 << (width - 1) and len(h) <= h.half + 1


class TestEntropyReport:
    def test_golden_values(self, golden_tt):
        assert cofactor_entropy(golden_tt, 0, False) == pytest.approx(0.954, abs=TOL)
        assert cofactor_entropy(golden_tt, 0, True) == pytest.approx(0.954, abs=TOL)
        assert variable_entropy(golden_tt, 0) == pytest.approx(0.954, abs=TOL)
        assert variable_entropy(golden_tt, 1) == pytest.approx(0.811, abs=TOL)
        assert variable_entropy(golden_tt, 2) == pytest.approx(0.954, abs=TOL)
        assert variable_entropy(golden_tt, 3) == pytest.approx(0.954, abs=TOL)

    def test_values_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            for var in range(n):
                assert 0.0 <= cofactor_entropy(tt, var, False) <= 1.0
                assert 0.0 <= cofactor_entropy(tt, var, True) <= 1.0
                assert 0.0 <= variable_entropy(tt, var) <= 1.0


class TestEntropyOrder:
    def test_golden_order(self, golden_tt):
        assert entropy_order(golden_tt).perm == (1, 0, 2, 3)

    def test_constant_function(self):
        assert entropy_order(TruthTable(3, 0)).perm == (0, 1, 2)
        assert entropy_order(TruthTable(3, (1 << 8) - 1)).perm == (0, 1, 2)

    def test_determining_variable_first(self):
        tt = truthtable_from_minterms(3, [1, 3, 5, 7])  # f = x2
        assert entropy_order(tt).perm[0] == 2

    def test_always_a_permutation(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 7)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            assert sorted(entropy_order(tt).perm) == list(range(n))

    def test_deterministic(self, golden_tt):
        assert entropy_order(golden_tt) == entropy_order(golden_tt)

    def test_irrelevant_never_beats_determining(self):
        # f = x1 on three variables: x1 fully determines f, x0/x2 are absent
        tt = truthtable_from_minterms(3, [2, 3, 6, 7])
        order = entropy_order(tt)
        assert order.perm[0] == 1

    def test_recorded_orders(self):
        got = tuple(entropy_order(tt).perm for tt in order_tables())
        assert got == RECORDED_ORDERS

    def test_recorded_wide_orders(self):
        got = tuple(entropy_order(tt).perm for tt in wide_tables())
        assert got == RECORDED_WIDE_ORDERS

    def test_matches_reference(self):
        for tt in reference_tables():
            assert entropy_order(tt).perm == ref_entropy_order(tt), (tt.n, hex(tt.bits))

    def test_golden_order_improves_bdd(self, golden_tt):
        h = build_from_truthtable(golden_tt, entropy_order(golden_tt))
        assert node_count(h) == 6
        assert one_path_count(h) == 4
