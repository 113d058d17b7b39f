import itertools
import random

import pytest
from hypothesis import given, strategies as st

from dsopmin.boolfn import (
    Cover,
    Cube,
    Trit,
    TruthTable,
    cover_to_truthtable,
    cube_cofactor,
    cube_contains,
    cube_from_text,
    cube_mask,
    cubes_disjoint,
    format_cube,
    literal_count,
    truthtable_cofactor,
    truthtable_from_minterms,
    universal_cube,
)

from conftest import (
    all_cube_texts,
    oracle_cover_minterms,
    oracle_minterms,
    ref_cofactor_bits,
)


def cube(text: str) -> Cube:
    return cube_from_text(text, len(text))


def cover(*texts: str) -> Cover:
    n = len(texts[0]) if texts else 0
    return Cover(n, tuple(cube_from_text(t, n) for t in texts))


class TestCubeCodec:
    def test_ab_cube(self):
        c = cube_from_text("1122", 4)
        assert c.trits == (Trit.ONE, Trit.ONE, Trit.DONT_CARE, Trit.DONT_CARE)

    def test_universal(self):
        assert cube_from_text("2222", 4) == universal_cube(4)
        assert universal_cube(4).is_universal

    def test_minterm_cube(self):
        assert format_cube(cube_from_text("0101", 4)) == "0101"

    def test_dash_alias(self):
        assert cube_from_text("1-0-", 4) == cube_from_text("1202", 4)
        assert format_cube(cube_from_text("1-0-", 4)) == "1202"

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            cube_from_text("112", 4)

    def test_illegal_character(self):
        with pytest.raises(ValueError):
            cube_from_text("11x2", 4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_exhaustive(self, n):
        for text in all_cube_texts(n):
            assert format_cube(cube_from_text(text, n)) == text

    @given(st.integers(1, 6).flatmap(
        lambda n: st.text(alphabet="012-", min_size=n, max_size=n)))
    def test_round_trip_property(self, text):
        canonical = text.replace("-", "2")
        assert format_cube(cube_from_text(text, len(text))) == canonical


class TestCubeContains:
    def test_literal_superset(self):
        assert cube_contains(cube("2201"), cube("0101"))

    def test_not_contained(self):
        assert not cube_contains(cube("1122"), cube("2201"))

    def test_reflexive(self):
        c = cube("0110")
        assert cube_contains(c, c)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cube_contains(cube("22"), cube("222"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_minterm_inclusion(self, n):
        texts = list(all_cube_texts(n))
        for a, b in itertools.product(texts, texts):
            expected = oracle_minterms(b) <= oracle_minterms(a)
            assert cube_contains(cube_from_text(a, n), cube_from_text(b, n)) == expected


class TestCubesDisjoint:
    def test_opposing_literal(self):
        # ab vs b'c'd oppose at b; minterm sets verified disjoint by enumeration
        assert oracle_minterms("1122") & oracle_minterms("2001") == set()
        assert cubes_disjoint(cube("1122"), cube("2001"))

    def test_shared_minterm(self):
        assert 13 in oracle_minterms("1122") & oracle_minterms("2201")
        assert not cubes_disjoint(cube("1122"), cube("2201"))

    def test_universal_never_disjoint(self):
        for text in all_cube_texts(3):
            assert not cubes_disjoint(cube_from_text(text, 3), universal_cube(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_enumeration(self, n):
        texts = list(all_cube_texts(n))
        for a, b in itertools.product(texts, texts):
            expected = not (oracle_minterms(a) & oracle_minterms(b))
            assert cubes_disjoint(cube_from_text(a, n), cube_from_text(b, n)) == expected


class TestCubeCofactor:
    def test_positive_literal_dropped(self):
        assert cube_cofactor(cube("0110"), 1, True) == cube("0210")

    def test_opposing_literal_absent(self):
        assert cube_cofactor(cube("2001"), 1, True) is None

    def test_universal_unchanged(self):
        u = universal_cube(4)
        assert cube_cofactor(u, 2, False) == u

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cube_cofactor(cube("2222"), 4, True)


class TestCubeMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_minterm_enumeration(self, n):
        for text in all_cube_texts(n):
            mask = cube_mask(cube_from_text(text, n))
            assert {m for m in range(1 << n) if (mask >> m) & 1} == oracle_minterms(text)


class TestCoverEval:
    def test_minterm_13_covered(self):
        c = cover("1122", "2201", "2110")
        assert cover_to_truthtable(c).value(0b1101)

    def test_minterm_0_uncovered(self):
        c = cover("1122", "2201", "2110")
        assert not cover_to_truthtable(c).value(0b0000)

    def test_empty_cover(self):
        assert not cover_to_truthtable(Cover(4, ())).value(0b1010)


class TestCoverToTruthTable:
    def test_golden_dsop(self):
        c = cover("1122", "0110", "2001", "0101")
        tt = cover_to_truthtable(c)
        assert set(tt.minterms()) == {1, 5, 6, 9, 12, 13, 14, 15}

    def test_empty(self):
        assert cover_to_truthtable(Cover(3, ())).bits == 0

    def test_universal(self):
        tt = cover_to_truthtable(Cover(3, (universal_cube(3),)))
        assert tt.bits == (1 << 8) - 1

    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_minterm_cover_round_trip(self, n, rng):
        minterms = [m for m in range(1 << n) if rng.random() < 0.4]
        tt = truthtable_from_minterms(n, minterms)
        texts = [format(m, f"0{n}b") for m in minterms]
        c = Cover(n, tuple(cube_from_text(t, n) for t in texts))
        assert cover_to_truthtable(c).bits == tt.bits


class TestTruthTable:
    def test_golden_table(self, golden_tt):
        assert golden_tt.value(1) and golden_tt.value(13)
        assert not golden_tt.value(0) and not golden_tt.value(2)
        assert golden_tt.on_count() == 8

    def test_msb_convention(self):
        # minterm 5 with n=4 is a'bc'd
        tt = truthtable_from_minterms(4, [5])
        assert set(tt.minterms()) == oracle_minterms("0101")

    def test_empty(self):
        assert truthtable_from_minterms(4, []).bits == 0

    def test_constant_one(self):
        assert truthtable_from_minterms(1, [0, 1]).bits == 0b11

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truthtable_from_minterms(3, [8])

    def test_n_cap(self):
        with pytest.raises(ValueError):
            TruthTable(25, 0)

    def test_cofactor(self, golden_tt):
        sub = truthtable_cofactor(golden_tt, 1, False)
        # paper's b=0 sub-table over (a,c,d): only a'c'd and ac'd are on
        assert set(sub.minterms()) == {1, 5}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cofactor_matches_minterm_loop(self, n):
        rng = random.Random(f"cofactor/{n}")
        full = (1 << (1 << n)) - 1
        tables = [0, full, 1, 1 << ((1 << n) - 1)]
        tables += [rng.getrandbits(1 << n) for _ in range(4)]
        for bits in tables:
            tt = TruthTable(n, bits)
            for var in range(n):
                for val in (False, True):
                    sub = truthtable_cofactor(tt, var, val)
                    assert sub.n == n - 1
                    assert sub.bits == ref_cofactor_bits(bits, n, var, val)

    def test_cofactor_bad_index(self, golden_tt):
        with pytest.raises(ValueError):
            truthtable_cofactor(golden_tt, 4, True)
        with pytest.raises(ValueError):
            truthtable_cofactor(TruthTable(1, 0b10), 0, True)

    @pytest.mark.parametrize("n", [1, 3, 24])
    def test_bits_bound(self, n):
        size = 1 << n
        assert TruthTable(n, (1 << size) - 1).on_count() == size
        assert TruthTable(n, 1 << (size - 1)).value(size - 1)
        with pytest.raises(ValueError):
            TruthTable(n, 1 << size)
        with pytest.raises(ValueError):
            TruthTable(n, -1)

    def test_is_constant(self):
        assert TruthTable(3, 0).is_constant
        assert TruthTable(3, 0xFF).is_constant
        assert not TruthTable(3, 0x7F).is_constant
        assert not TruthTable(3, 0x01).is_constant


class TestLiteralCount:
    def test_final_sop(self):
        # counted from the cube texts: 2 + 2 + 3
        texts = ["1122", "2201", "2110"]
        expected = sum(1 for t in texts for ch in t if ch != "2")
        assert expected == 7
        assert literal_count(cover(*texts)) == expected

    def test_universal(self):
        assert literal_count(Cover(4, (universal_cube(4),))) == 0

    def test_golden_dsop(self):
        texts = ["1122", "0110", "2001", "0101"]
        expected = sum(1 for t in texts for ch in t if ch != "2")
        assert expected == 13
        assert literal_count(cover(*texts)) == expected
