import copy
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dsopmin.bdd import VariableOrder
from dsopmin.boolfn import (
    KEPT_WIDTH,
    _kept_masks,
    _var_mask,
    Cover,
    Cube,
    TruthTable,
    cofactor_bits,
    cube_mask,
    decode_cube,
    format_cube,
    full_mask,
    literal_count,
    pair_mask,
    truthtable_from_minterms,
    var_masks,
)

from conftest import (
    all_cube_texts,
    cover_table,
    oracle_cover_minterms,
    oracle_minterms,
    random_cube,
    ref_cofactor_bits,
    text_cube,
)


def cube(text: str) -> Cube:
    return text_cube(text, len(text))


def cover(*texts: str) -> Cover:
    n = len(texts[0]) if texts else 0
    return Cover(n, tuple(text_cube(t, n) for t in texts))


class TestCubeCodec:
    def test_ab_cube(self):
        c = text_cube("1122", 4)
        assert (c.n, c.care, c.value) == (4, 0b1100, 0b1100)

    def test_universal(self):
        assert text_cube("2222", 4) == Cube(4, 0, 0)
        assert Cube(4, 0, 0).is_universal

    def test_minterm_cube(self):
        assert format_cube(text_cube("0101", 4)) == "0101"

    def test_dash_alias(self):
        assert text_cube("1-0-", 4) == text_cube("1202", 4)
        assert format_cube(text_cube("1-0-", 4)) == "1202"

    def test_equal_cubes_share_text(self):
        a, b = text_cube("1202", 4), text_cube("1-0-", 4)
        assert a is not b
        assert format_cube(a) is format_cube(b)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            text_cube("112", 4)

    def test_illegal_character(self):
        with pytest.raises(ValueError):
            text_cube("11x2", 4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_exhaustive(self, n):
        for text in all_cube_texts(n):
            assert format_cube(text_cube(text, n)) == text

    @given(st.integers(1, 6).flatmap(
        lambda n: st.text(alphabet="012-", min_size=n, max_size=n)))
    def test_round_trip_property(self, text):
        canonical = text.replace("-", "2")
        assert format_cube(text_cube(text, len(text))) == canonical


class TestCubeMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_minterm_enumeration(self, n):
        for text in all_cube_texts(n):
            mask = cube_mask(text_cube(text, n))
            assert {m for m in range(1 << n) if (mask >> m) & 1} == oracle_minterms(text)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_cubes_match_references(self, n):
        # up to n=12 against the cube's minterm list; wider, against the AND
        # of its literals' masks (read through var_masks, which keeps no
        # width above KEPT_WIDTH)
        rng = random.Random(f"pair-mask/{n}")
        masks = var_masks(n) if n > 12 else None
        for _ in range(20 if n <= 12 else 4):
            text = random_cube(rng, n, rng.randint(0, n))
            mask = pair_mask(n, *decode_cube(text, n))
            if masks is None:
                assert {m for m in range(1 << n) if mask >> m & 1} == oracle_minterms(text)
                continue
            want = full_mask(n)
            for v, ch in enumerate(text):
                if ch != "-":
                    want &= masks[v] if ch == "1" else full_mask(n) ^ masks[v]
            assert mask == want

    def test_refuses_25_variables(self):
        with pytest.raises(ValueError, match="variable count 25 exceeds table limit 24"):
            cube_mask(Cube(25, 1, 1))
        with pytest.raises(ValueError, match=r"variable count 25 outside \[1, 24\]"):
            var_masks(25)

    def test_mask_cache_keeps_the_last_16_widths(self):
        # a descent uses widths n, n-1, ..., 1: only the widths up to
        # KEPT_WIDTH reach the cache, each built once, and a wider width
        # never does
        assert KEPT_WIDTH == 16
        _kept_masks.cache_clear()
        for n in range(24, 0, -1):
            var_masks(n)
        assert _kept_masks.cache_info()[1:] == (16, 16, 16)  # misses, maxsize, size
        for n in range(16, 0, -1):
            assert var_masks(n) is var_masks(n)
        assert _kept_masks.cache_info()[:2] == (32, 16)  # hits, and no new miss
        for n in (0, 25):
            with pytest.raises(ValueError, match=rf"variable count {n} outside \[1, 24\]"):
                var_masks(n)
        assert _kept_masks.cache_info()[:2] == (32, 16)

    def test_wide_masks_built_on_read(self):
        # above KEPT_WIDTH a sequence that builds each mask when it is read:
        # no tuple is made or kept, and at most two masks are held here at once
        _kept_masks.cache_clear()
        for n in range(17, 25):
            masks = var_masks(n)
            assert not isinstance(masks, tuple) and len(masks) == n
            rng = random.Random(f"wide-masks/{n}")
            for v in range(n):
                mask = masks[v]
                assert mask == _var_mask(n, v)
                for m in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(8))]:
                    assert mask >> m & 1 == m >> (n - 1 - v) & 1
            assert masks[n - 1] is not masks[n - 1]  # nothing kept
            for v in (-1, n):
                with pytest.raises(IndexError):
                    masks[v]
        assert list(var_masks(17)) == [_var_mask(17, v) for v in range(17)]
        assert _kept_masks.cache_info().currsize == 0


class TestCubeBits:
    """The Cube constructor: variable v is bit n-1-v of care and value."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_text(self, n):
        # care set iff a literal, value iff positive; every text round-trips
        for text in all_cube_texts(n):
            care = sum(1 << (n - 1 - v) for v, ch in enumerate(text) if ch != "2")
            value = sum(1 << (n - 1 - v) for v, ch in enumerate(text) if ch == "1")
            c = Cube(n, care, value)
            assert c == text_cube(text, n)
            assert format_cube(c) == text
            assert c.literal_count() == n - text.count("2")
            # value is the smallest minterm; filling the free bits gives the largest
            minterms = oracle_minterms(text)
            assert (min(minterms), max(minterms)) == (value, value | ~care & ((1 << n) - 1))

    def test_golden_cubes(self):
        assert (cube("1122").care, cube("1122").value) == (0b1100, 0b1100)
        assert (cube("2001").care, cube("2001").value) == (0b0111, 0b0001)
        assert text_cube("22222", 5) == Cube(5, 0, 0)

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


class TestValueTypes:
    """TruthTable, Cover and VariableOrder are values: equal and hashed by
    their fields, immutable, and pickled and copied through their
    constructors."""

    VALUES = [
        (lambda: TruthTable(4, 0b1010), lambda: TruthTable(4, 0b1011)),
        (lambda: TruthTable(4, 0b1010), lambda: TruthTable(5, 0b1010)),
        (lambda: Cover(3, (Cube(3, 0b101, 0b001),)), lambda: Cover(3, ())),
        (lambda: Cover(3, ()), lambda: Cover(2, ())),
        (lambda: VariableOrder((1, 0, 2)), lambda: VariableOrder((0, 1, 2))),
    ]
    IDS = ["table-bits", "table-n", "cover-cubes", "cover-n", "order"]

    @pytest.mark.parametrize("make, other", VALUES, ids=IDS)
    def test_equality_and_hash(self, make, other):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other() and not a == other()
        assert len({a, b, other()}) == 2
        assert a != a._fields() and a._fields() != a  # equal only to its own type

    @pytest.mark.parametrize("make, other", VALUES, ids=IDS)
    def test_immutable(self, make, other):
        a = make()
        for name in (*a.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == make()

    @pytest.mark.parametrize("make, other", VALUES, ids=IDS)
    def test_pickle_and_copy(self, make, other):
        a = make()
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b.__class__ is a.__class__ and b == a and hash(b) == hash(a)

    def test_constructor_keywords_and_repr(self):
        assert TruthTable(n=3, bits=5) == TruthTable(3, 5)
        assert Cover(n=3, cubes=()) == Cover(3, ())
        assert VariableOrder(perm=(0, 1)) == VariableOrder.identity(2)
        assert repr(TruthTable(3, 5)) == "TruthTable(n=3, bits=5)"
        assert repr(Cover(3, (cube("021"),))) == "Cover(n=3, cubes=(Cube('021'),))"
        assert repr(VariableOrder((1, 0))) == "VariableOrder(perm=(1, 0))"

    def test_validation_messages(self):
        with pytest.raises(ValueError, match=r"^onset bit vector longer than 2\^n$"):
            TruthTable(2, 1 << 4)
        with pytest.raises(ValueError, match=r"^\(0, 0\) is not a permutation of 0..1$"):
            VariableOrder((0, 0))


class TestOfPairs:
    """Cover.of_pairs constructs one Cube per pair, so its Cubes equal and
    hash as constructed ones, and a bad pair raises the constructor's
    error at the first bad pair."""

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

    def test_cover_refuses_cube_of_other_length(self):
        with pytest.raises(ValueError, match="cube 12 has length 2, expected 3"):
            Cover(3, (Cube(3, 0b100, 0), Cube(2, 0b10, 0b10)))

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
        assert cover_table(c).bits >> 0b1101 & 1

    def test_minterm_0_uncovered(self):
        c = cover("1122", "2201", "2110")
        assert not cover_table(c).bits >> 0b0000 & 1

    def test_empty_cover(self):
        assert not cover_table(Cover(4, ())).bits >> 0b1010 & 1


class TestCoverToTruthTable:
    def test_golden_dsop(self):
        c = cover("1122", "0110", "2001", "0101")
        tt = cover_table(c)
        assert set(tt.minterms()) == {1, 5, 6, 9, 12, 13, 14, 15}

    def test_empty(self):
        assert cover_table(Cover(3, ())).bits == 0

    def test_universal(self):
        tt = cover_table(Cover(3, (Cube(3, 0, 0),)))
        assert tt.bits == (1 << 8) - 1

    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    def test_minterm_cover_round_trip(self, n, rng):
        minterms = [m for m in range(1 << n) if rng.random() < 0.4]
        tt = truthtable_from_minterms(n, minterms)
        texts = [format(m, f"0{n}b") for m in minterms]
        c = Cover(n, tuple(text_cube(t, n) for t in texts))
        assert cover_table(c).bits == tt.bits

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_cubes_sharing_care_patterns(self, n):
        # the table is built one care pattern at a time: many cubes share each
        rng = random.Random(f"cover-table/{n}")
        cares = [rng.getrandbits(n) for _ in range(3)]
        cubes = [Cube(n, care, rng.getrandbits(n) & care)
                 for care in (rng.choice(cares) for _ in range(40))]
        want = set().union(*(oracle_minterms(format_cube(c)) for c in cubes))
        assert set(cover_table(Cover(n, tuple(cubes))).minterms()) == want


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
        # the first bad minterm in input order names the error, and n before any
        with pytest.raises(ValueError, match="minterm 9 out of range for n=3"):
            truthtable_from_minterms(3, [1, 9, -1])
        with pytest.raises(ValueError, match="minterm -1 out of range for n=3"):
            truthtable_from_minterms(3, iter([2, -1, 9]))
        with pytest.raises(ValueError, match=r"variable count 25 outside \[1, 24\]"):
            truthtable_from_minterms(25, [1 << 40])

    def test_duplicate_minterms(self):
        assert truthtable_from_minterms(3, [5, 2, 5, 2]).bits == 1 << 5 | 1 << 2

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_minterms_ascending(self, n):
        rng = random.Random(f"minterms/{n}")
        for bits in (0, full_mask(n), 1, 1 << ((1 << n) - 1), rng.getrandbits(1 << n)):
            assert list(TruthTable(n, bits).minterms()) == [
                m for m in range(1 << n) if bits >> m & 1]

    def test_minterms_dense_18_linear(self):
        # linear in 2^n: a dense n=18 table lists its 131,173 minterms well inside the bound
        bits = random.Random("dense/18").getrandbits(1 << 18)
        start = time.perf_counter()
        got = list(TruthTable(18, bits).minterms())
        assert time.perf_counter() - start < 0.5
        assert len(got) == bits.bit_count()
        assert truthtable_from_minterms(18, got).bits == bits

    def test_n_cap(self):
        with pytest.raises(ValueError):
            TruthTable(25, 0)

    def test_cofactor(self, golden_tt):
        sub = TruthTable(3, cofactor_bits(golden_tt.bits, 4, 1, False))
        # paper's b=0 sub-table over (a,c,d): only a'c'd and ac'd are on
        assert set(sub.minterms()) == {1, 5}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cofactor_matches_minterm_loop(self, n):
        rng = random.Random(f"cofactor/{n}")
        full = (1 << (1 << n)) - 1
        tables = [0, full, 1, 1 << ((1 << n) - 1)]
        tables += [rng.getrandbits(1 << n) for _ in range(4)]
        for bits in tables:
            for var in range(n):
                for val in (False, True):
                    sub = cofactor_bits(bits, n, var, val)
                    assert sub.bit_length() <= 1 << (n - 1)  # a table over n-1 variables
                    assert sub == ref_cofactor_bits(bits, n, var, val)

    def test_dense_24_low_variable_reads_one_mask(self):
        # the cofactor on variable 0 reads var_masks(24)[0] only: its 2 MiB
        # mask and the 2 MiB intermediates of one half, under 10 MiB in all
        # (about 6.4 MiB measured), not the width's 48 MiB of masks
        bits = random.Random("dense/24").getrandbits(1 << 24)
        for val in (False, True):
            tracemalloc.start()
            try:
                sub = cofactor_bits(bits, 24, 0, val)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 << 20, (val, peak)
            assert sub == (bits >> (1 << 23) if val else bits & full_mask(23))

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
