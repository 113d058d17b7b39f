import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from dsopmin.boolfn import (
    Cover,
    Cube,
    TruthTable,
    cover_to_truthtable,
    cube_from_text,
    cube_mask,
    format_cube,
    literal_count,
    truthtable_cofactor,
    truthtable_from_minterms,
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
        assert (c.n, c.care, c.value) == (4, 0b1100, 0b1100)

    def test_universal(self):
        assert cube_from_text("2222", 4) == Cube(4, 0, 0)
        assert Cube(4, 0, 0).is_universal

    def test_minterm_cube(self):
        assert format_cube(cube_from_text("0101", 4)) == "0101"

    def test_dash_alias(self):
        assert cube_from_text("1-0-", 4) == cube_from_text("1202", 4)
        assert format_cube(cube_from_text("1-0-", 4)) == "1202"

    def test_equal_cubes_share_text(self):
        a, b = cube_from_text("1202", 4), cube_from_text("1-0-", 4)
        assert a is not b
        assert format_cube(a) is format_cube(b)

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


class TestCubeMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_minterm_enumeration(self, n):
        for text in all_cube_texts(n):
            mask = cube_mask(cube_from_text(text, n))
            assert {m for m in range(1 << n) if (mask >> m) & 1} == oracle_minterms(text)


class TestCubeBits:
    """The Cube constructor: variable v is bit n-1-v of care and value."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_text(self, n):
        # care set iff a literal, value iff positive; every text round-trips
        for text in all_cube_texts(n):
            care = sum(1 << (n - 1 - v) for v, ch in enumerate(text) if ch != "2")
            value = sum(1 << (n - 1 - v) for v, ch in enumerate(text) if ch == "1")
            c = Cube(n, care, value)
            assert c == cube_from_text(text, n)
            assert format_cube(c) == text
            assert c.literal_count() == n - text.count("2")
            # value is the smallest minterm; filling the free bits gives the largest
            minterms = oracle_minterms(text)
            assert (min(minterms), max(minterms)) == (value, value | ~care & ((1 << n) - 1))

    def test_golden_cubes(self):
        assert (cube("1122").care, cube("1122").value) == (0b1100, 0b1100)
        assert (cube("2001").care, cube("2001").value) == (0b0111, 0b0001)
        assert cube_from_text("22222", 5) == Cube(5, 0, 0)

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            Cube(2, 0b01, 0b10)  # a value bit without its care bit
        with pytest.raises(ValueError):
            Cube(2, 0b100, 0)  # a care bit beyond n variables
        with pytest.raises(ValueError):
            Cube(2, -1, 0)  # negative masks set bits beyond n

    def test_equal_only_to_cubes(self):
        c = Cube(3, 0b101, 0b001)
        assert c == Cube(3, 0b101, 0b001) and hash(c) == hash((3, 0b101, 0b001))
        assert c != (3, 0b101, 0b001) and (3, 0b101, 0b001) != c
        assert c != Cube(4, 0b101, 0b001)
        assert repr(c) == "Cube('021')"

    def test_immutable(self):
        c = Cube(3, 0b101, 0b001)
        for name in ("n", "care", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 0)
            with pytest.raises(AttributeError):
                delattr(c, name)
        assert (c.n, c.care, c.value) == (3, 0b101, 0b001)
        assert pickle.loads(pickle.dumps(c)) == c == copy.copy(c)


class TestOfPairs:
    """Cover.of_pairs checks every pair, then fills Cubes without a
    constructor call each; its Cubes equal constructed ones."""

    def test_equals_constructed(self):
        rng = random.Random("of-pairs")
        for n in (1, 4, 10):
            pairs = []
            for _ in range(50):
                care = rng.getrandbits(n)
                pairs.append((care, rng.getrandbits(n) & care))
            got = Cover.of_pairs(n, iter(pairs))  # any iterable, read once
            assert got == Cover(n, tuple(Cube(n, c, v) for c, v in pairs))
            assert [hash(c) for c in got] == [hash(Cube(n, c, v)) for c, v in pairs]
        assert Cover.of_pairs(3, []) == Cover(3, ())

    @pytest.mark.parametrize("bad", [(0b01, 0b10), (0b100, 0), (-1, 0), (0b11, -1)])
    def test_refuses_bad_pair_with_constructor_text(self, bad):
        with pytest.raises(ValueError) as want:
            Cube(2, *bad)
        assert str(want.value) == f"({bad[0]:#x}, {bad[1]:#x}) is not a cube over 2 variables"
        with pytest.raises(ValueError) as got:
            Cover.of_pairs(2, [(0b11, 0b01), bad, (0b01, 0b10)])
        assert str(got.value) == str(want.value)  # the first bad pair's message


class TestCoverEval:
    def test_minterm_13_covered(self):
        c = cover("1122", "2201", "2110")
        assert cover_to_truthtable(c).bits >> 0b1101 & 1

    def test_minterm_0_uncovered(self):
        c = cover("1122", "2201", "2110")
        assert not cover_to_truthtable(c).bits >> 0b0000 & 1

    def test_empty_cover(self):
        assert not cover_to_truthtable(Cover(4, ())).bits >> 0b1010 & 1


class TestCoverToTruthTable:
    def test_golden_dsop(self):
        c = cover("1122", "0110", "2001", "0101")
        tt = cover_to_truthtable(c)
        assert set(tt.minterms()) == {1, 5, 6, 9, 12, 13, 14, 15}

    def test_empty(self):
        assert cover_to_truthtable(Cover(3, ())).bits == 0

    def test_universal(self):
        tt = cover_to_truthtable(Cover(3, (Cube(3, 0, 0),)))
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
        assert golden_tt.bits >> 1 & 1 and golden_tt.bits >> 13 & 1
        assert not golden_tt.bits >> 0 & 1 and not golden_tt.bits >> 2 & 1
        assert golden_tt.bits.bit_count() == 8

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
        assert TruthTable(n, (1 << size) - 1).bits.bit_count() == size
        assert TruthTable(n, 1 << (size - 1)).bits >> (size - 1) & 1
        with pytest.raises(ValueError):
            TruthTable(n, 1 << size)
        with pytest.raises(ValueError):
            TruthTable(n, -1)


class TestLiteralCount:
    def test_final_sop(self):
        # counted from the cube texts: 2 + 2 + 3
        texts = ["1122", "2201", "2110"]
        expected = sum(1 for t in texts for ch in t if ch != "2")
        assert expected == 7
        assert literal_count(cover(*texts)) == expected

    def test_universal(self):
        assert literal_count(Cover(4, (Cube(4, 0, 0),))) == 0

    def test_golden_dsop(self):
        texts = ["1122", "0110", "2001", "0101"]
        expected = sum(1 for t in texts for ch in t if ch != "2")
        assert expected == 13
        assert literal_count(cover(*texts)) == expected
