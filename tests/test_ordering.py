import random

import pytest

from dsopmin.bdd import build_from_truthtable, node_count, one_path_count
from dsopmin.boolfn import (
    TruthTable,
    cube_from_text,
    cube_mask,
    truthtable_cofactor,
    truthtable_from_minterms,
)
from dsopmin.ordering import (
    cofactor_entropy,
    entropy_order,
    variable_entropy,
)

from conftest import oracle_cover_minterms, random_cube, ref_entropy_order

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
            bits |= cube_mask(cube_from_text(random_cube(rng, n, k), n))
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
                bits |= cube_mask(cube_from_text(random_cube(rng, n, rng.randint(1, n)), n))
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
        sub = truthtable_cofactor(golden_tt, 1, False)  # over (a, c, d)
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


class TestVariableEntropy:
    def test_golden_e_b(self, golden_tt):
        assert variable_entropy(golden_tt, 1) == pytest.approx(0.811, abs=TOL)

    def test_golden_b1_subtable_e_a(self, golden_tt):
        sub = truthtable_cofactor(golden_tt, 1, True)  # over (a, c, d)
        assert variable_entropy(sub, 0) == pytest.approx(0.5, abs=TOL)
        assert variable_entropy(sub, 1) == pytest.approx(0.811, abs=TOL)

    def test_golden_b0_subtable_e_c(self, golden_tt):
        sub = truthtable_cofactor(golden_tt, 1, False)
        assert variable_entropy(sub, 1) == pytest.approx(0.5, abs=TOL)

    def test_xor_is_maximally_ambiguous(self):
        xor = truthtable_from_minterms(2, [1, 2])
        assert variable_entropy(xor, 0) == pytest.approx(1.0, abs=TOL)
        assert variable_entropy(xor, 1) == pytest.approx(1.0, abs=TOL)


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
