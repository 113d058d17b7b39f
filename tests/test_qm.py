import itertools
import random

import pytest

from dsopmin.boolfn import (
    TruthTable,
    cover_to_truthtable,
    cube_mask,
    format_cube,
    truthtable_from_minterms,
)
from dsopmin.qm import _reduce_chart, _row_key, exact_cover, prime_implicants

from conftest import (
    brute_force_primes,
    oracle_minterms,
    pipeline_sop,
    ref_exact_cover,
    ref_implicants,
    ref_reduce_chart,
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
        [cube_mask(p) for p in primes], [_row_key(p) for p in primes], tt.bits)
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
        assert cover_to_truthtable(got).bits == tt.bits
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
                assert cover_to_truthtable(exact_cover(tt)).bits == bits

    def test_function_equality_random(self):
        rng = random.Random(53)
        for _ in range(100):
            n = rng.randint(3, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            got = exact_cover(tt)
            assert cover_to_truthtable(got).bits == tt.bits

    def test_never_beaten_by_heuristic(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(3, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            assert len(exact_cover(tt).cubes) <= len(pipeline_sop(tt).cubes)

    def test_deterministic(self, golden_tt):
        assert exact_cover(golden_tt) == exact_cover(golden_tt)


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
