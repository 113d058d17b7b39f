import hashlib
import itertools
import random

import pytest

from dsopmin.boolfn import (
    TruthTable,
    cube_mask,
    format_cube,
    truthtable_from_minterms,
)
from dsopmin.qm import (
    _branch_and_bound,
    _nested,
    _reduce_chart,
    _transpose,
    exact_cover,
    prime_implicants,
)

from conftest import (
    brute_force_primes,
    cover_table,
    oracle_minterms,
    pipeline_sop,
    ref_exact_cover,
    ref_implicants,
    ref_reduce_chart,
    ref_reduce_chart_masks,
)


def prime_texts(tt):
    return {format_cube(p) for p in prime_implicants(tt)}


class TestPrimeImplicants:
    def test_golden_primes(self, golden_tt):
        assert prime_texts(golden_tt) == brute_force_primes(golden_tt)
        assert prime_texts(golden_tt) == {"1122", "2201", "2110"}

    def test_constant_one(self):
        assert prime_texts(TruthTable(3, (1 << 8) - 1)) == {"222"}

    def test_xor(self):
        xor = truthtable_from_minterms(2, [1, 2])
        assert prime_texts(xor) == {"01", "10"}

    def test_empty_onset(self):
        assert prime_implicants(TruthTable(3, 0)) == []

    def test_deterministic_order(self, golden_tt):
        got = [format_cube(p) for p in prime_implicants(golden_tt)]
        assert got == sorted(got)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            prime_implicants(TruthTable(17, 0))

    def test_matches_brute_force_random(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            assert prime_texts(tt) == brute_force_primes(tt)

    def test_primes_maximal_in_function(self, golden_tt):
        on = set(golden_tt.minterms())
        for p in prime_implicants(golden_tt):
            assert oracle_minterms(format_cube(p)) <= on
            assert not cube_mask(p) & ~golden_tt.bits

    def test_upper_bound_sanity(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 5)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            assert len(prime_implicants(tt)) <= 3 ** n / n + 1


def reduce_chart(tt):
    """_reduce_chart on tt's full chart, rows given as their primes."""
    primes = prime_implicants(tt)
    chosen, rows, uncovered = _reduce_chart(
        [cube_mask(p) for p in primes],
        [(p.literal_count(), k) for k, p in enumerate(primes)], tt.bits)
    return [primes[k] for k in chosen], [primes[k] for k in rows], uncovered


def essential_texts(tt):
    return [format_cube(p) for p in reduce_chart(tt)[0]]


class TestEssentialPrimes:
    def test_golden_all_essential(self, golden_tt):
        essentials = set(essential_texts(golden_tt))
        # minterm 12 only in ab, 1 only in c'd, 6 only in bcd'
        assert essentials == {"1122", "2201", "2110"}

    def test_shared_coverage_not_essential(self):
        # n=3 cyclic function: every minterm covered twice
        tt = truthtable_from_minterms(3, [0, 1, 2, 5, 6, 7])
        assert essential_texts(tt) == []

    def test_single_prime_chart(self):
        assert essential_texts(TruthTable(2, 0b1111)) == ["22"]


class TestExactCover:
    def test_golden(self, golden_tt):
        got = exact_cover(golden_tt)
        assert {format_cube(c) for c in got} == {"1122", "2201", "2110"}

    def test_empty_onset(self):
        assert exact_cover(TruthTable(3, 0)).cubes == ()

    def test_cyclic_core(self):
        tt = truthtable_from_minterms(3, [0, 1, 2, 5, 6, 7])
        got = exact_cover(tt)
        assert cover_table(got).bits == tt.bits
        assert len(got.cubes) == 3
        # certified minimum: exhaustive search over prime subsets
        primes = prime_implicants(tt)
        on = set(tt.minterms())
        sizes = [k for k in range(1, len(primes) + 1)
                 if any(set().union(*(oracle_minterms(format_cube(p)) for p in combo)) >= on
                        for combo in itertools.combinations(primes, k))]
        assert min(sizes) == 3

    def test_function_equality_exhaustive_small(self):
        for n in (1, 2):
            for bits in range(1 << (1 << n)):
                tt = TruthTable(n, bits)
                assert cover_table(exact_cover(tt)).bits == bits

    def test_function_equality_random(self):
        rng = random.Random(53)
        for _ in range(100):
            n = rng.randint(3, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            got = exact_cover(tt)
            assert cover_table(got).bits == tt.bits

    def test_never_beaten_by_heuristic(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(3, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            assert len(exact_cover(tt).cubes) <= len(pipeline_sop(tt).cubes)

    def test_deterministic(self, golden_tt):
        assert exact_cover(golden_tt) == exact_cover(golden_tt)

    def test_search_deeper_than_the_recursion_limit(self):
        # 1,100 rows that all cover the one column: the search goes one
        # level deeper per row it leaves out, past Python's default
        # recursion limit of 1,000
        rows = 1100
        keys = [(1, k) for k in range(rows)]
        assert _branch_and_bound([1] * rows, keys, range(rows), 1) == [0]


def oracle_pool(indices):
    """The oracle benchmark's random n=8 pool functions, drawn as perfbench/workloads.py does."""
    rng = random.Random("oracle/pool")
    pool = [rng.getrandbits(1 << 8) for _ in range(8)]
    return [TruthTable(8, pool[i]) for i in indices]


class TestAgainstReference:
    """The bit-mask chart against the former frozenset chart in conftest."""

    def assert_matches(self, tt):
        assert exact_cover(tt) == ref_exact_cover(tt)
        chosen, rows, uncovered = reduce_chart(tt)
        ref_chosen, ref_rows, ref_uncovered = ref_reduce_chart(
            ref_implicants(tt), set(tt.minterms()))
        assert sorted(chosen, key=format_cube) == sorted((p.cube for p in ref_chosen),
                                                         key=format_cube)
        assert rows == [p.cube for p in ref_rows]
        assert {m for m in range(1 << tt.n) if uncovered >> m & 1} == ref_uncovered

    def test_random(self):
        rng = random.Random(71)
        for _ in range(2000):
            n = rng.randint(1, 6)
            self.assert_matches(TruthTable(n, rng.getrandbits(1 << n)))

    def test_oracle_pool_functions_that_finish(self):
        # qm-01, qm-04, qm-05 and qm-06 hit the benchmark's 2.5 s limit;
        # qm-01 alone takes about a minute
        for tt in oracle_pool((0, 2, 3, 7)):
            self.assert_matches(tt)


def nested(sets, ranks):
    """_nested on a list of sets, set i keyed 1 << i and ranked ranks[i]:
    (inner, outer) as one flag per set."""
    chart = {1 << i: s for i, s in enumerate(sets)}
    inner, outer = _nested(chart, _transpose(chart), lambda key: ranks[key.bit_length() - 1])
    return ([bool(inner >> i & 1) for i in range(len(sets))],
            [bool(outer >> i & 1) for i in range(len(sets))])


def dominated(sets, ranks):
    return nested(sets, ranks)[0]


def survivors(sets, ranks):
    return {(s, r) for s, r, dropped in zip(sets, ranks, dominated(sets, ranks)) if not dropped}


class TestDominated:
    """The one dominance rule, as _nested finds it: a set inside another is
    inner and the other is outer; of equal sets, the one of lower rank is
    the outer one."""

    def test_equal_sets_keep_the_least_rank_wherever_it_sits(self):
        for ranks in itertools.permutations(range(4)):
            assert dominated([0b101] * 4, ranks) == [r != 0 for r in ranks]

    def test_a_chain_keeps_its_largest_set(self):
        chain = [0b1, 0b11, 0b111, 0b1111]
        for sets in itertools.permutations(chain):
            assert dominated(sets, range(4)) == [s != 0b1111 for s in sets]

    def test_an_empty_set_goes_beside_a_non_empty_one(self):
        assert dominated([0], [0]) == [False]
        assert dominated([0, 0b10], [0, 1]) == [True, False]
        assert dominated([0b10, 0], [1, 0]) == [False, True]
        assert dominated([0b01, 0, 0b10], [2, 0, 1]) == [False, True, False]

    def test_incomparable_sets_all_stay(self):
        assert dominated([0b011, 0b110, 0b101], [2, 1, 0]) == [False] * 3

    def test_survivors_match_the_definition_in_any_order(self):
        rng = random.Random("dominated")
        for _ in range(500):
            size = rng.randint(1, 12)
            sets = [rng.getrandbits(5) & rng.getrandbits(5) for _ in range(size)]
            ranks = rng.sample(range(100), size)
            # kept: no other set holds it strictly, or equally with a lower rank
            want = {(s, r) for s, r in zip(sets, ranks)
                    if not any(s | t == t and (s != t or q < r) for t, q in zip(sets, ranks))}
            assert survivors(sets, ranks) == want
            order = rng.sample(range(size), size)
            assert survivors([sets[i] for i in order], [ranks[i] for i in order]) == want

    def test_outer_matches_the_definition(self):
        # the column rule drops the outer side: a set that holds another
        # strictly, or equally when its rank is lower
        rng = random.Random("nested/outer")
        for _ in range(500):
            size = rng.randint(1, 12)
            sets = [rng.getrandbits(5) & rng.getrandbits(5) for _ in range(size)]
            ranks = rng.sample(range(100), size)
            want = [any(i != j and t | s == s and (t != s or r < q)
                        for j, (t, q) in enumerate(zip(sets, ranks)))
                    for i, (s, r) in enumerate(zip(sets, ranks))]
            assert nested(sets, ranks)[1] == want

    def test_outer_of_equal_and_empty_sets(self):
        # of equal sets, all but the one of greatest rank hold another
        assert nested([0b101] * 3, [2, 0, 1])[1] == [False, True, True]
        assert nested([0, 0b10, 0b11], [0, 1, 2])[1] == [False, True, True]
        assert nested([0], [0]) == ([False], [False])


class TestAgainstMaskReference:
    """_reduce_chart against the former two-loop reducer in conftest, on
    charts too large for the frozenset reference."""

    def assert_matches(self, tt, uncovered=None):
        primes = prime_implicants(tt)
        chart = ([cube_mask(p) for p in primes],
                 [(p.literal_count(), k) for k, p in enumerate(primes)],
                 tt.bits if uncovered is None else uncovered)
        got = _reduce_chart(*chart)
        assert got == ref_reduce_chart_masks(*chart), (tt.n, tt.bits)
        return got

    def test_random_n7_to_n9(self):
        rng = random.Random("reduce/7-9")
        core_rows = 0
        for _ in range(40):
            n = rng.randint(7, 9)
            bits = rng.getrandbits(1 << n)
            if rng.random() < 0.5:
                bits &= rng.getrandbits(1 << n)
            core_rows += len(self.assert_matches(TruthTable(n, bits))[1])
        assert core_rows  # some charts keep a cyclic core for the search

    def test_partial_uncovered(self):
        # exact_cover passes the whole onset; here some columns start covered,
        # or all of them do while the primes are still rows
        rng = random.Random("reduce/partial")
        for _ in range(1000):
            n = rng.randint(1, 8)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            self.assert_matches(tt, 0 if tt.bits and rng.random() < 0.1
                                else tt.bits & rng.getrandbits(1 << n))

    def test_deep_n10(self):
        _, rows, uncovered = self.assert_matches(
            TruthTable(10, random.Random("deep/10/0").getrandbits(1 << 10)))
        assert (len(rows), uncovered.bit_count()) == (464, 365)


class TestDeepCharts:
    """The full charts of random.Random("deep/{n}/0")'s tables at n=11 and
    n=12, pinned by the (chosen, rows, uncovered) digest and core size."""

    @pytest.mark.parametrize("n, want, core", [
        (11, "728663c964287b60", (1312, 922)),
        (12, "1f456ed4e78684c8", (2621, 1763)),
    ])
    def test_pinned(self, n, want, core):
        tt = TruthTable(n, random.Random(f"deep/{n}/0").getrandbits(1 << n))
        primes = prime_implicants(tt)
        chosen, rows, uncovered = _reduce_chart(
            [cube_mask(p) for p in primes],
            [(p.literal_count(), k) for k, p in enumerate(primes)], tt.bits)
        assert hashlib.sha256(repr((chosen, rows, uncovered)).encode()).hexdigest()[:16] == want
        assert (len(rows), uncovered.bit_count()) == core
