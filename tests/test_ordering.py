import random

import pytest

from dsopmin.bdd import build_from_truthtable, node_count, one_path_count
from dsopmin.boolfn import TruthTable, truthtable_cofactor, truthtable_from_minterms
from dsopmin.ordering import (
    cofactor_entropy,
    entropy_order,
    variable_entropy,
)

from conftest import oracle_cover_minterms

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

    def test_golden_order_improves_bdd(self, golden_tt):
        h = build_from_truthtable(golden_tt, entropy_order(golden_tt))
        assert node_count(h) == 6
        assert one_path_count(h) == 4
