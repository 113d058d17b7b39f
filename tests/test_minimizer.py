import itertools
import random
import sys
import time
import tracemalloc
from functools import reduce
from operator import or_

import pytest

from dsopmin import minimizer
from dsopmin.bdd import VariableOrder, build_from_truthtable, enumerate_one_paths, one_paths
from dsopmin.boolfn import (
    Cover,
    Cube,
    TruthTable,
    cube_mask,
    format_cube,
    literal_count,
    truthtable_from_minterms,
)
from dsopmin.cli import PipelineConfig, run_pipeline
from dsopmin.minimizer import (
    cover_cofactor,
    expand,
    format_expression,
    irredundant,
    scc,
    simplify,
)

from conftest import (
    all_cube_texts,
    cover_table,
    oracle_cover_minterms,
    oracle_minterms,
    pipeline_sop,
    ref_expand,
    ref_irredundant,
    ref_merge,
    ref_scc,
    ref_select_binate,
    ref_simplify,
    symmetric_tables,
    table_of,
    text_cube,
)


def cover(*texts: str) -> Cover:
    n = len(texts[0]) if texts else 4
    return Cover(n, tuple(text_cube(t, n) for t in texts))


def texts(c: Cover):
    return [format_cube(x) for x in c]


def packed(*texts: str):
    """The (care, value) pairs the URP steps work on."""
    return [(c.care, c.value) for c in (text_cube(t, len(t)) for t in texts)]


def unpacked(cubes, n: int = 4):
    return [format_cube(Cube(n, care, value)) for care, value in cubes]


def bit(var: int, n: int = 4) -> int:
    return 1 << (n - 1 - var)


def records(cubes, n: int):
    """(care, value) pairs as the URP kernel's records, zeros << n | ones."""
    return [(care ^ value) << n | value for care, value in cubes]


def pairs(cubes, n: int):
    """The URP kernel's records over n variables as (care, value) pairs."""
    low = (1 << n) - 1
    return [(r >> n | r & low, r & low) for r in cubes]


def binate_mask(cubes, n: int) -> int:
    """The binate variables of a pair cover, from its records' OR."""
    acc = reduce(or_, records(cubes, n), 0)
    return acc & acc >> n


def pick(cubes, n: int) -> int:
    """The binate variable _simplify picks: counted below _SMALL cubes, packed from there."""
    rs, binate = records(cubes, n), binate_mask(cubes, n)
    if len(rs) < minimizer._SMALL:
        return minimizer._count_pick(rs, binate, n)
    return minimizer._pick(minimizer._pack(rs, n), binate, n)


def kernel_scc(cubes, n: int) -> list:
    """minimizer.scc on pairs over n variables."""
    return pairs(scc(records(cubes, n), n), n)


def kernel_merge(h0, h1, bit: int, n: int) -> list:
    """minimizer._merge on pair halves over n variables, which must not mention bit."""
    assert not any(care & bit for care, _ in [*h0, *h1]), "merge input mentions the splitting variable"
    return pairs(minimizer._merge(records(h0, n), records(h1, n), bit, n), n)


def kernel_containers(queries, cubes, n: int) -> list:
    """minimizer._containers on pairs over n variables."""
    return minimizer._containers(records(queries, n), records(cubes, n), n)


def brute_containers(queries, cubes) -> list:
    """For each query pair, how many of the cube pairs contain it, cube by cube."""
    return [sum(1 for oc, ov in cubes if not oc & ~care and not (ov ^ value) & oc)
            for care, value in queries]


GOLDEN_DSOP = ("1122", "0110", "2001", "0101")

# Variable counts for the seeded kernel checks: small ones, some on both
# sides of a step in the packed field size (a field takes 2n // 8 + 1
# bytes), and 20-24, the widest tables the pipeline takes.
KERNEL_NS = (1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 20, 21, 22, 23, 24)


def random_packed(rng, n: int, count: int, free: int = 0):
    """count random (care, value) cubes over n variables, never caring about free.

    The literal density is drawn per cover, so some covers nest often.
    """
    density = rng.choice(("sparse", "half", "dense"))
    out = []
    for _ in range(count):
        care = rng.getrandbits(n)
        if density == "sparse":
            care &= rng.getrandbits(n)
        elif density == "dense":
            care |= rng.getrandbits(n)
        care &= ~free
        out.append((care, rng.getrandbits(n) & care))
    return out


def cover_size(rng) -> int:
    """Mostly small covers, now and then one with several hundred cubes."""
    return rng.randint(257, 700) if rng.random() < 0.08 else rng.randint(0, 24)


def assert_antichain(cubes, n: int):
    """No duplicates and no cube inside another; by minterm sets when n is small."""
    assert ref_scc(cubes) == list(cubes)
    if n <= 6:
        sets = [oracle_minterms(t) for t in unpacked(cubes, n)]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert i == j or not a <= b


class TestClassify:
    """A record cover's OR: the positive literal columns in its low n bits, the complemented above."""

    def test_golden_all_binate(self):
        acc = reduce(or_, records(packed(*GOLDEN_DSOP), 4))
        assert acc & acc >> 4 == binate_mask(packed(*GOLDEN_DSOP), 4) == 0b1111

    def test_unate_cover(self):
        # a, b, c positive unate; d negative unate
        acc = reduce(or_, records(packed("1122", "2110"), 4))
        assert (acc & 0b1111, acc >> 4) == (0b1110, 0b0001)

    def test_universal(self):
        assert records(packed("2222"), 4) == [0]


class TestSelectBinate:
    def test_golden_selects_b(self):
        # b touches all 4 rows; a, c, d touch 3 each
        assert pick(packed(*GOLDEN_DSOP), 4) == bit(1)

    def test_symmetric_tie_breaks_by_index(self):
        assert pick(packed("10", "01"), 2) == bit(0, 2)

    def test_single_column(self):
        assert pick(packed("1", "0"), 1) == bit(0, 1)

    def test_matches_reference_random(self):
        # seeded covers up to n=24 and 700 cubes, some with many repeats so
        # that one column's count is large and its neighbours' near-tied
        rng = random.Random("binate-counts")
        for _ in range(400):
            n = rng.choice(KERNEL_NS)
            cubes = random_packed(rng, n, cover_size(rng) + 2)
            if rng.random() < 0.3:
                cubes += rng.choices(cubes, k=rng.randint(1, 300))
            if binate_mask(cubes, n):  # _simplify picks only on binate covers
                assert pick(cubes, n) == ref_select_binate(cubes), (n, cubes)

    def test_full_columns_at_n24(self):
        # 600 cubes carrying every variable: each count is 600 or near it
        rng = random.Random("binate-n24")
        full = (1 << 24) - 1
        cubes = [(full, rng.getrandbits(24)) for _ in range(600)]
        cubes += [(full, 0)] * 7 + [(full, full)] * 3
        assert len(cubes) >= minimizer._SMALL
        assert pick(cubes, 24) == ref_select_binate(cubes)


def cofactors(cubes, var: int, n: int = 4):
    """cover_cofactor on the records of pair cubes, as cube text."""
    h0, h1 = cover_cofactor(records(cubes, n), bit(var, n), n)
    return unpacked(pairs(h0, n), n), unpacked(pairs(h1, n), n)


class TestCoverCofactor:
    def test_golden_b1(self):
        assert cofactors(packed(*GOLDEN_DSOP), 1)[1] == ["1222", "0210", "0201"]

    def test_golden_b0(self):
        assert cofactors(packed(*GOLDEN_DSOP), 1)[0] == ["2201"]

    def test_empty(self):
        assert cover_cofactor([], bit(1), 4) == ([], [])

    def test_cube_without_the_literal_goes_to_both(self):
        h0, h1 = cofactors(packed("2201", "1122", "0022"), 1)
        assert (h0, h1) == (["2201", "0222"], ["2201", "1222"])


class TestScc:
    def test_contained_cube_dropped(self):
        assert unpacked(kernel_scc(packed("2201", "0101"), 4)) == ["2201"]

    def test_antichain_unchanged(self):
        c = packed(*GOLDEN_DSOP)
        assert kernel_scc(c, 4) == c

    def test_derived_example(self):
        assert unpacked(kernel_scc(packed("0201", "2201", "1122"), 4)) == ["2201", "1122"]

    def test_duplicates_keep_earliest(self):
        assert unpacked(kernel_scc(packed("1122", "2201", "1122"), 4)) == ["1122", "2201"]

    def test_matches_minterm_inclusion(self):
        # every ordered pair of 3-variable cubes: the bitwise containment
        # test must agree with minterm-set inclusion
        for a, b in itertools.product(all_cube_texts(3), repeat=2):
            ma, mb = oracle_minterms(a), oracle_minterms(b)
            if mb <= ma:
                expected = [a]
            elif ma < mb:
                expected = [b]
            else:
                expected = [a, b]
            assert unpacked(kernel_scc(packed(a, b), 3), 3) == expected

    def test_matches_reference_random(self):
        # the care-indexed scan against the former pairwise one, repeats included
        rng = random.Random("scc-index")
        for _ in range(200):
            n = rng.choice(KERNEL_NS)
            cubes = random_packed(rng, n, cover_size(rng))
            cubes += rng.choices(cubes, k=min(len(cubes), rng.randint(0, 8)))
            rng.shuffle(cubes)
            got = kernel_scc(cubes, n)
            assert got == ref_scc(cubes), (n, cubes)
            assert_antichain(got, n)

    def test_output_is_antichain(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            cubes = ["".join(rng.choice("012") for _ in range(n))
                     for _ in range(rng.randint(1, 8))]
            out = [oracle_minterms(t) for t in unpacked(kernel_scc(packed(*cubes), n), n)]
            for i, a in enumerate(out):
                for j, b in enumerate(out):
                    if i != j:
                        assert not b <= a


class TestMerge:
    def test_derived_example(self):
        h0 = packed("2201")
        h1 = packed("1222", "0210", "0201")
        got = unpacked(kernel_merge(h0, h1, bit(1), 4))
        assert got == ["0201", "2001", "1122", "0110"]
        # function equality with x1'*h0 + x1*h1, by minterm enumeration
        expected = oracle_cover_minterms(["0201", "2001", "1122", "0110"])
        shifted = oracle_cover_minterms(["2001"]) | oracle_cover_minterms(
            ["1122", "0110", "0101"])
        assert oracle_cover_minterms(got) == expected == shifted

    def test_identical_cube_lifted(self):
        got = kernel_merge(packed("1222"), packed("1222"), bit(1), 4)
        assert unpacked(got) == ["1222"]

    def test_one_sided(self):
        got = kernel_merge([], packed("2222"), bit(1), 4)
        assert unpacked(got) == ["2122"]

    def test_matches_reference_on_antichains(self):
        # SCC-minimal halves, as simplify hands over: h1 is drawn from h0 by
        # keeping, widening, narrowing or replacing cubes, so lifts are common
        rng = random.Random("merge-antichains")
        for _ in range(300):
            n = rng.choice(KERNEL_NS)
            split = 1 << rng.randrange(n)
            size = cover_size(rng)
            base = random_packed(rng, n, size, free=split)
            derived = []
            for (care, value), (rc, rv) in zip(base, random_packed(rng, n, size, free=split)):
                kind = rng.randrange(4)
                if kind == 1:  # fewer literals: contains the base cube
                    care &= rc
                elif kind == 2:  # more literals: inside the base cube
                    value |= rv & ~care
                    care |= rc
                elif kind == 3:
                    care, value = rc, rv
                derived.append((care, value & care))
            rng.shuffle(derived)
            h0, h1 = ref_scc(base), ref_scc(derived)
            if rng.random() < 0.5:
                h0, h1 = h1, h0
            got = kernel_merge(h0, h1, split, n)
            assert got == ref_merge(h0, h1, split), (n, split, h0, h1)
            assert_antichain(got, n)


# Variable counts on both sides of every step in the packed field size
# (2n // 8 + 1 bytes), and the widest tables the pipeline takes.
FIELD_WIDTHS = (1, 3, 4, 7, 8, 9, 11, 12, 15, 16, 19, 20, 23, 24)
# Cube counts on both sides of minimizer._SMALL, where a merge half switches
# from the pairwise scan to the packed kernel.
FIELD_COUNTS = (0, 1, 2, 3, 15, 16, 17, 40)


def nested_halves(rng, width: int, split: int, count: int):
    """Two SCC-minimal halves whose cubes often lie inside each other's.

    h0 is random; h1 takes each h0 cube as it is, widened, narrowed or
    replaced.  Every care mask lies below 1 << width, and h0's first
    draw cares about bit width-1 unless split is that bit, so the records
    mostly fill their fields.
    """
    top = 1 << width - 1
    h0 = random_packed(rng, width, count, free=split)
    if h0 and not top & split:
        h0[0] = (h0[0][0] | top, h0[0][1] | top & rng.getrandbits(width))
    h1 = []
    for (care, value), (rc, rv) in zip(h0, random_packed(rng, width, count, free=split)):
        kind = rng.randrange(4)
        if kind == 1:
            care &= rc
        elif kind == 2:
            value |= rv & ~care
            care |= rc
        elif kind == 3:
            care, value = rc, rv
        h1.append((care, value & care))
    rng.shuffle(h1)
    h1 = h1[:rng.randint(0, len(h1))]
    return ref_scc(h0), ref_scc(h1)


class TestContainmentKernel:
    """scc, and merges of halves of 16 cubes or more, share one kernel: each field size.

    The kernel packs a part, or tallies it where only an equal cube can
    hold a query.
    """

    @pytest.mark.parametrize("width", FIELD_WIDTHS)
    def test_merge_matches_reference(self, width):
        rng = random.Random(f"kernel-merge/{width}")
        for count in FIELD_COUNTS * 4 + (600,):
            split = 1 << rng.randrange(width)
            h0, h1 = nested_halves(rng, width, split, count)
            if rng.random() < 0.5:
                h0, h1 = h1, h0
            got = kernel_merge(h0, h1, split, width)
            assert got == ref_merge(h0, h1, split), (width, split, h0, h1)
            assert got == kernel_merge(h0, h1, split, width + 5)  # the same cubes in wider records

    @pytest.mark.parametrize("width", FIELD_WIDTHS)
    def test_scc_matches_reference(self, width):
        rng = random.Random(f"kernel-scc/{width}")
        for count in FIELD_COUNTS * 4 + (600,):
            h0, h1 = nested_halves(rng, width, 0, count)
            cubes = h0 + h1 + rng.choices(h0, k=min(len(h0), 3))
            rng.shuffle(cubes)
            assert kernel_scc(cubes, width) == ref_scc(cubes), (width, cubes)

    @pytest.mark.parametrize("width", FIELD_WIDTHS)
    def test_containers_counts(self, width, monkeypatch):
        # each query's count is exactly the number of cubes that contain it,
        # duplicates included; the last cubes are dense and past 512 with
        # their queries, so the kernel splits them before it scans
        rng = random.Random(f"kernel-counts/{width}")
        dense = [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(700)]
        for cubes in [random_packed(rng, width, count) for count in FIELD_COUNTS] + [
                [(care, rng.getrandbits(width) & care) for care in dense]]:
            queries = random_packed(rng, width, len(cubes) // 2 + 1) + cubes[:len(cubes) // 2]
            calls = count_calls(monkeypatch, "_containers")
            found = kernel_containers(queries, cubes, width)
            for query, k, want in zip(queries, found, brute_containers(queries, cubes)):
                assert k == want, (width, query, len(cubes))
            monkeypatch.undo()
        assert len(calls) > 1
        # every query ties the cubes' fewest literals and the cubes hold
        # duplicates, as a split's part can: only an equal cube holds a
        # query, so the counts are a tally and nothing is packed
        lits = rng.randint(0, width)

        def tied():
            care = sum(1 << s for s in rng.sample(range(width), lits))
            return care, rng.getrandbits(width) & care

        cubes = [tied() for _ in range(20)]
        cubes += rng.choices(cubes, k=10)
        cubes += [(care, value) for care, value in random_packed(rng, width, 20)
                  if care.bit_count() > lits]
        rng.shuffle(cubes)
        queries = cubes[:10] + [tied() for _ in range(10)]
        queries = [q for q in queries if q[0].bit_count() == lits]
        packs = count_calls(monkeypatch, "_pack")
        found = kernel_containers(queries, cubes, width)
        assert found == brute_containers(queries, cubes), (width, lits)
        assert kernel_containers(queries, [], width) == [0] * len(queries)
        assert not packs and max(found) > 1

    def test_minterm_halves_are_a_tally(self, monkeypatch):
        # minterm halves: every cube has the same literal count, so a merge
        # of halves of 16 cubes or more counts through the kernel without
        # packing; in parity's simplify (every sub-cover is minterms and
        # nothing lifts) _pack makes only the table's keys
        rng = random.Random("kernel-tally")
        n, split = 9, 1 << 4
        free = [m for m in range(1 << n) if not m & split]
        full = (1 << n) - 1 ^ split
        kernel = count_calls(monkeypatch, "_containers")
        packs = count_calls(monkeypatch, "_pack")
        for _ in range(20):
            h0 = [(full, m) for m in rng.sample(free, rng.randint(16, 60))]
            h1 = [(full, m) for m in rng.sample(free, rng.randint(16, 60))]
            assert kernel_merge(h0, h1, split, n) == ref_merge(h0, h1, split)
        assert len(kernel) == 40 and not packs
        monkeypatch.undo()
        kernel = count_calls(monkeypatch, "_containers")
        callers = []
        pack = minimizer._pack

        def traced_pack(cubes, n):
            callers.append(sys._getframe(1).f_code.co_name)
            return pack(cubes, n)

        monkeypatch.setattr(minimizer, "_pack", traced_pack)
        dsop = parity_dsop(10)
        assert set(simplify(dsop).cubes) == set(dsop.cubes)
        assert kernel and callers and set(callers) == {"_simplify"}

    def test_few_cubes_mention_the_top_variables(self, monkeypatch):
        # over 512 dense cubes over the lowest 12 variables in each half and
        # one cube over 23 in h1: the split takes its variable from the
        # cubes, leaves a part that would keep nearly all of them to the
        # flat scan and skips parts with no queries, so this is a few
        # scans, not one per subset of the wide cube's variables; the merge
        # also runs on records wider than the cubes need, and the wide
        # cube's literals above the low cubes' must stay in their fields
        rng = random.Random("kernel-top")
        def dense_half():
            cares = [rng.getrandbits(12) | rng.getrandbits(12) | rng.getrandbits(12)
                     for _ in range(650)]
            return ref_scc([(care, rng.getrandbits(12) & care) for care in cares])

        h0, h1 = dense_half(), dense_half()
        while True:  # a cube over 23 variables that no low cube holds
            wide = ((1 << 23) - 1, rng.getrandbits(23))
            if ref_scc(h1 + [wide])[-1] == wide:
                break
        h1.append(wide)
        high = (1 << 23) - (1 << 12)  # h0's cubes with the wide cube's high literals
        queries = h1 + [(care | high, value | wide[1] & high) for care, value in h0[:100]]
        calls = count_calls(monkeypatch, "_containers")
        start = time.perf_counter()
        got = (kernel_scc(h0 + h1, 23), kernel_merge(h0, h1, 1 << 23, 24),
               kernel_merge(h0, h1, 1 << 23, 28), kernel_containers(queries, h0, 23))
        assert time.perf_counter() - start < 1.0
        # scc, and h0's queries on h1's cubes, whose top variable only the
        # wide cube mentions, scan flat; h1's queries on h0's cubes and the
        # count split once into three flat scans
        assert len(calls) == 1 + 2 * (1 + 1 + 3) + 1 + 3
        assert got[0] == ref_scc(h0 + h1)
        assert got[1] == got[2] == ref_merge(h0, h1, 1 << 23)
        assert got[3] == brute_containers(queries, h0)

    @pytest.mark.parametrize("width", FIELD_WIDTHS)
    def test_held_scan_matches_counts(self, width, monkeypatch):
        # the merge's yes/no answers are the counts' "some cube holds it", on
        # a flat scan, a tally (only an equal cube can hold a query) and a
        # split past 512 queries and cubes
        rng = random.Random(f"kernel-held/{width}")
        dense = [rng.getrandbits(width) | rng.getrandbits(width) for _ in range(700)]
        lits = rng.randint(0, width)
        tied = [(care, rng.getrandbits(width) & care)
                for care in (sum(1 << s for s in rng.sample(range(width), lits)) for _ in range(40))]
        cases = {
            "flat": [random_packed(rng, width, count) for count in FIELD_COUNTS],
            "tally": [tied[:20] + rng.choices(tied[:20], k=10)],
            "split": [[(care, rng.getrandbits(width) & care) for care in dense]],
        }
        for kind, covers in cases.items():
            packs = count_calls(monkeypatch, "_pack")
            calls = count_calls(monkeypatch, "_containers")
            for cubes in covers:
                queries = (tied[20:] if kind == "tally" else random_packed(rng, width, len(cubes) // 2 + 1))
                queries += cubes[:len(cubes) // 2]
                rs, qs = records(cubes, width), records(queries, width)
                held = minimizer._containers(qs, rs, width, True)
                assert held == [c > 0 for c in minimizer._containers(qs, rs, width)], (kind, width)
            if kind == "tally":
                assert not packs and any(held)
            if kind == "split":
                assert len(calls) > 2
            monkeypatch.undo()


# n where 2n and the guard bit cross a byte: the packed field takes
# 2n // 8 + 1 bytes, one more from each step on.
BYTE_STEP_NS = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24)


class TestFieldFollowsN:
    """A record's field width follows n, not the variables its cover mentions.

    Narrow covers mention only the low k <= 6 variables of n = 16-24;
    step covers reach the top variable of an n at a byte step.
    """

    @pytest.mark.parametrize("kind, n", [("narrow", n) for n in range(16, 25)]
                             + [("step", n) for n in BYTE_STEP_NS])
    def test_simplify_containers_and_key(self, kind, n, monkeypatch):
        rng = random.Random(f"field/{kind}/{n}")
        for _ in range(30):
            k = rng.randint(1, 6) if kind == "narrow" else n
            rate = rng.choice((0.15, 0.3, 0.6, 0.9))
            texts = ["2" * (n - k) + "".join(rng.choice("01") if rng.random() < rate else "2"
                                             for _ in range(k))
                     for _ in range(rng.choice((2, 3, 8, 15, 16, 17, 30)))]
            if kind == "step":
                texts[0] = rng.choice("01") + texts[0][1:]
            c = Cover(n, tuple(text_cube(t, n) for t in texts))
            assert simplify(c) == ref_simplify(c), (n, texts)
            cubes = [(x.care, x.value) for x in c]
            assert decode(minimizer._pack(records(cubes, n), n), n) == cubes
            queries = random_packed(rng, k, len(cubes)) + cubes
            assert kernel_containers(queries, cubes, n) == brute_containers(queries, cubes)
        if kind == "narrow":  # past 512 queries and cubes, the count splits the cover first
            cares = [rng.getrandbits(6) | rng.getrandbits(6) | rng.getrandbits(6) for _ in range(520)]
            cubes = [(care, rng.getrandbits(6) & care) for care in cares]
            calls = count_calls(monkeypatch, "_containers")
            assert kernel_containers(cubes, cubes, n) == brute_containers(cubes, cubes)
            assert len(calls) > 1


def _random_tables(rng):
    """Seeded random, sparse and near-full tables, n = 1-11."""
    for n in range(1, 12):
        for _ in range(6 if n <= 8 else 2 if n == 9 else 1):
            on = rng.getrandbits(1 << n)
            yield n, on
            yield n, on & rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
            yield n, on | rng.getrandbits(1 << n) | rng.getrandbits(1 << n)


class TestSimplify:
    def test_golden_dsop(self, golden_tt):
        got = simplify(cover(*GOLDEN_DSOP))
        assert cover_table(got).bits == golden_tt.bits
        assert len(got.cubes) <= 4

    def test_tautology_collapses(self):
        got = simplify(cover("1", "0"))
        assert texts(got) == ["2"]

    def test_unate_no_containment_unchanged(self):
        c = cover("1122", "2110")
        assert simplify(c) == c

    def test_function_preserved_random(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            dsop = enumerate_one_paths(build_from_truthtable(tt))
            out = simplify(dsop)
            assert cover_table(out).bits == tt.bits
            assert len(out.cubes) <= len(dsop.cubes)

    def test_matches_reference_on_dsops(self):
        # the bit-mask recursion against the cube-text reference: the same
        # cubes in the same order, on one-path DSOPs under random orders
        rng = random.Random("urp-dsop")
        for n, on in _random_tables(rng):
            perm = list(range(n))
            rng.shuffle(perm)
            dsop = enumerate_one_paths(
                build_from_truthtable(TruthTable(n, on), VariableOrder(tuple(perm))))
            assert simplify(dsop) == ref_simplify(dsop), (n, on, perm)

    def test_matches_reference_on_arbitrary_covers(self):
        # overlapping cubes, repeats and empty covers, which no DSOP has
        rng = random.Random("urp-cover")
        for _ in range(300):
            n = rng.randint(1, 8)
            cubes = ["".join(rng.choice("0122") for _ in range(n))
                     for _ in range(rng.randint(0, 24))]
            cubes += rng.choices(cubes, k=min(len(cubes), 4))
            rng.shuffle(cubes)
            c = Cover(n, tuple(text_cube(t, n) for t in cubes))
            assert simplify(c) == ref_simplify(c), cubes

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_two_cube_cover(self, n):
        # every ordered pair of cubes: equal, nested, overlapping, disjoint,
        # and pairs whose cofactors are universal
        for a, b in itertools.product(all_cube_texts(n), repeat=2):
            c = Cover(n, (text_cube(a, n), text_cube(b, n)))
            assert simplify(c) == ref_simplify(c), (a, b)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_universal_and_empty(self, n):
        empty = Cover(n, ())
        assert simplify(empty) == ref_simplify(empty) == empty
        some = Cover(n, (text_cube("0" * n, n), Cube(n, 0, 0),
                         text_cube("1" * n, n)))
        assert simplify(some) == ref_simplify(some) == Cover(n, (Cube(n, 0, 0),))

    def test_universal_among_binate_cubes(self):
        # four or more cubes that are binate together, the universal cube
        # among them anywhere: the recursion, small nodes and tabled ones
        # alike, returns the universal cube alone
        rng = random.Random("urp-universal")
        for _ in range(200):
            n = rng.randint(2, 8)
            texts = ["".join(rng.choice("0122") for _ in range(n))
                     for _ in range(rng.randint(4, 24))]
            texts[:2] = ["0" + texts[0][1:], "1" + texts[1][1:]]  # binate in variable 0
            texts.insert(rng.randint(0, len(texts)), "2" * n)
            c = Cover(n, tuple(text_cube(t, n) for t in texts))
            assert simplify(c) == ref_simplify(c) == Cover(n, (Cube(n, 0, 0),)), texts


def count_calls(monkeypatch, name: str):
    """A list that grows by one on each call of minimizer.<name>."""
    calls = []
    original = getattr(minimizer, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(minimizer, name, counted)
    return calls


def decode(key, n: int):
    """The (care, value) list a packed-cover key over n variables stands for."""
    size, count, fields = key
    assert size == 2 * n // 8 + 1
    out = []
    for i in range(count):
        record = fields >> (8 * size * i) & (1 << 8 * size) - 1
        assert record < 1 << 8 * size - 1  # the guard bit stays clear
        out.append(record)
    assert fields < 1 << 8 * size * count
    out = pairs(out, n)
    assert all(care < 1 << n for care, _ in out)
    return out


def parity(n: int) -> TruthTable:
    return table_of(n, lambda x: sum(x) % 2 == 1)


def parity_dsop(n: int, perm=None) -> Cover:
    return enumerate_one_paths(build_from_truthtable(parity(n), perm and VariableOrder(tuple(perm))))


class TestSimplifyTable:
    """simplify() does each distinct binate sub-cover once per call."""

    def test_matches_reference_on_symmetric_dsops(self, monkeypatch):
        # symmetric functions repeat cofactors (F|x=0,y=1 = F|x=1,y=0), so
        # the table answers many sub-covers here
        packs = count_calls(monkeypatch, "_pack")
        picks = count_calls(monkeypatch, "_pick")
        rng = random.Random("urp-symmetric")
        for name, tt in symmetric_tables(8):
            for _ in range(3):
                perm = list(range(tt.n))
                rng.shuffle(perm)
                dsop = enumerate_one_paths(build_from_truthtable(tt, VariableOrder(tuple(perm))))
                assert simplify(dsop) == ref_simplify(dsop), (name, perm)
        assert len(packs) > len(picks) > 0  # some binate sub-covers were answered by the table

    def test_key_decodes_to_cover(self):
        # shift and count fix the record layout: the key is the cover, so
        # equal keys mean equal sub-covers
        rng = random.Random("urp-key")
        for i in range(10_000):
            n = rng.randint(1, 24)
            cubes = random_packed(rng, n, rng.randint(0, 40))
            if i % 7 == 0:
                cubes.append((0, 0))  # a zero record, at the end or not
                rng.shuffle(cubes)
            assert decode(minimizer._pack(records(cubes, n), n), n) == cubes, (n, cubes)

    @pytest.mark.parametrize("n", KERNEL_NS + (31, 32, 33, 40))
    def test_pack_copy_equals_byte_join(self, n):
        # from 32 cubes on _pack copies the records through one array while
        # a field fits in its 8-byte word (n up to 31); the int, so every
        # table key, is the join of each record's bytes.  Some records have
        # their top bits set, the zeros of the first variables
        rng = random.Random(f"pack/{n}")
        size = n // 4 + 1
        for count in (1, 31, 32, 33, 700):
            top = 1 << 2 * n - 1
            rs = [rng.getrandbits(2 * n) | (top if rng.random() < 0.5 else 0) for _ in range(count)]
            rs[-1] = (1 << 2 * n) - 1
            want = int.from_bytes(b"".join(r.to_bytes(size, "little") for r in rs), "little")
            assert minimizer._pack(rs, n) == (size, count, want), (n, count)

    @pytest.mark.parametrize("n", [31, 32, 33, 40])
    def test_wide_covers(self, n):
        # simplify() takes covers of any width; from n=32 a packed field is
        # wider than the array word, so a binate cover of 32 cubes or more
        # is packed by the byte join.  Cubes care about 8 of the variables,
        # the first and last among them, so that some merge
        rng = random.Random(f"wide/{n}")
        merged = 0
        for _ in range(6):
            spots = [0, n - 1] + rng.sample(range(1, n - 1), 6)
            cubes = []
            for _ in range(rng.randint(32, 60)):
                care = sum(1 << s for s in spots if rng.random() < 0.7) | 1 | 1 << n - 1
                cubes.append(Cube(n, care, rng.getrandbits(n) & care))
            cover = Cover(n, tuple(cubes))
            got = simplify(cover)
            assert got == ref_simplify(cover), n
            merged += len(got) < len(cover)
        assert merged

    def test_parity12_merges(self, monkeypatch):
        # each cofactor of parity is parity or its complement over the rest,
        # so each level has two distinct sub-covers, not 2^level; every node
        # of 4 cubes or more is in the table, and a 2-cube node needs no
        # merge: 19 merges, not 1,023
        merges = count_calls(monkeypatch, "_merge")
        dsop = parity_dsop(12, [5, 11, 0, 7, 2, 9, 4, 1, 10, 3, 8, 6])
        assert set(simplify(dsop).cubes) == set(dsop.cubes)  # nothing merges in parity
        assert 0 < len(merges) <= 12 ** 2

    def test_table_lives_for_one_call(self, monkeypatch):
        # a second call on the same cover does all the work again: nothing
        # is kept between calls
        merges = count_calls(monkeypatch, "_merge")
        dsop = parity_dsop(8)
        simplify(dsop)
        first = len(merges)
        simplify(dsop)
        assert first > 0 and len(merges) == 2 * first


def tied_cover(rng, n: int, count: int):
    """count random cubes; half the time one variable copies or mirrors another's literals.

    A copied or mirrored column has the same rows and the same balance as
    its source, so the most-binate choice can fall to the index tie-break.
    """
    cubes = random_packed(rng, n, count)
    if n < 2 or rng.random() < 0.5:
        return cubes
    src, dst = (1 << s for s in rng.sample(range(n), 2))
    mirror = rng.random() < 0.5
    out = []
    for care, value in cubes:
        care, value = care & ~dst, value & ~dst
        if care & src:
            care |= dst
            value |= dst if bool(value & src) != mirror else 0
        out.append((care, value))
    return out


class TestSmallNodes:
    """Binate nodes under minimizer._SMALL cubes count, scan and skip the table.

    Each check holds the small path against the packed one and against
    the references in conftest.
    """

    def test_count_pick_matches_packed_pick(self):
        rng = random.Random("small-pick")
        checked = tied = 0
        for _ in range(3000):
            n = rng.choice(KERNEL_NS)
            cubes = tied_cover(rng, n, rng.randint(3, minimizer._SMALL - 1))
            binate = binate_mask(cubes, n)
            if not binate:
                continue
            want = ref_select_binate(cubes)
            rs = records(cubes, n)
            packed_pick = minimizer._pick(minimizer._pack(rs, n), binate, n)
            assert minimizer._count_pick(rs, binate, n) == packed_pick == want, cubes
            checked += 1
            counts = sorted((-sum(1 for care, _ in cubes if care & b),
                             abs(sum(1 if value & b else -1 for care, value in cubes if care & b)))
                            for b in (1 << s for s in range(n)) if binate & b)
            tied += len(counts) > 1 and counts[0] == counts[1]
        assert checked > 2000 and tied > 500

    @pytest.mark.parametrize("width", FIELD_WIDTHS)
    def test_scan_merge_matches_kernel(self, width, monkeypatch):
        # SCC-minimal halves of 0-15 cubes: the merge scans them pairwise;
        # with the line at 0 the same merge answers through the kernel
        rng = random.Random(f"small-merge/{width}")
        cases = []
        for _ in range(150):
            split = 1 << rng.randrange(width)
            h0, h1 = nested_halves(rng, width, split, rng.randint(0, minimizer._SMALL - 1))
            cases.append((h1, h0, split) if rng.random() < 0.5 else (h0, h1, split))
        kernel = count_calls(monkeypatch, "_containers")
        scanned = [kernel_merge(h0, h1, split, width) for h0, h1, split in cases]
        assert not kernel
        monkeypatch.setattr(minimizer, "_SMALL", 0)
        for (h0, h1, split), got in zip(cases, scanned):
            assert got == ref_merge(h0, h1, split) == kernel_merge(h0, h1, split, width), \
                (width, split, h0, h1)
        assert kernel

    @pytest.mark.parametrize("small", [0, 16, 1 << 30])
    def test_simplify_on_both_sides_of_the_line(self, small, monkeypatch):
        # covers of 14-18 cubes, so nodes fall on both sides of the line;
        # at 0 every node packs, and at 2^30 none does
        monkeypatch.setattr(minimizer, "_SMALL", small)
        rng = random.Random("small-simplify")
        for _ in range(120):
            n = rng.randint(3, 9)
            cubes = ["".join(rng.choice("0122") for _ in range(n)) for _ in range(rng.randint(14, 18))]
            c = Cover(n, tuple(text_cube(t, n) for t in cubes))
            assert simplify(c) == ref_simplify(c), cubes
        checked = 0
        for _ in range(400):
            n = rng.randint(5, 7)
            on = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
            dsop = enumerate_one_paths(build_from_truthtable(TruthTable(n, on)))
            if 14 <= len(dsop.cubes) <= 18:
                assert simplify(dsop) == ref_simplify(dsop), (n, on)
                checked += 1
        assert checked > 40

    def test_small_node_packs_nothing(self, monkeypatch):
        # a binate DSOP of 3-15 cubes: no pack and no packed pick; the table
        # holds covers of 4-15 cubes, keyed by their records
        packs = count_calls(monkeypatch, "_pack")
        picks = count_calls(monkeypatch, "_pick")
        rng = random.Random("small-count")
        checked = 0
        for n, on in _random_tables(rng):
            dsop = enumerate_one_paths(build_from_truthtable(TruthTable(n, on)))
            if 3 <= len(dsop.cubes) < minimizer._SMALL:
                rs = records([(c.care, c.value) for c in dsop], n)
                done = minimizer._Table(len(rs))
                out = minimizer._simplify(rs, n, done)
                assert [(c.care, c.value) for c in ref_simplify(dsop)] == pairs(out, n)
                assert not packs and not picks
                assert all(type(key) is tuple and 4 <= len(key) < minimizer._SMALL
                           and all(type(r) is int for r in key) for key in done)
                checked += 1
        assert checked > 20

    def test_table_keys_by_cover_size(self):
        # from 16 cubes on, the key is the packed cover; from 4 to 15, the
        # records' tuple
        rng = random.Random("small-keys")
        for n in (8, 10, 12):
            dsop = enumerate_one_paths(build_from_truthtable(TruthTable(n, rng.getrandbits(1 << n))))
            rs = records([(c.care, c.value) for c in dsop], n)
            done = minimizer._Table(len(rs))
            out = minimizer._simplify(rs, n, done)
            assert [(c.care, c.value) for c in simplify(dsop)] == pairs(out, n)
            packed_keys = [key for key in done if len(key) == 3]
            tuple_keys = [key for key in done if len(key) != 3]
            assert packed_keys and min(count for _, count, _ in packed_keys) >= minimizer._SMALL == 16
            assert tuple_keys and all(4 <= len(key) < minimizer._SMALL for key in tuple_keys)
            for key, result in done.items():  # each entry is its cover's result
                cover = records(decode(key, n), n) if len(key) == 3 else list(key)
                assert minimizer._simplify(cover, n, minimizer._Table(0)) == result


def every_mask(rs, binate: int, n: int) -> int:
    """The binate variables with a literal in each record, the mask _simplify hands the picks."""
    return reduce(lambda every, r: every & (r | r >> n), rs, binate)


def every_cube_cover(rng, n: int, count: int):
    """count random cubes where a few variables carry a literal in every cube.

    Half the time a further variable copies or mirrors one of them, so two
    variables in every cube tie on balance and the lowest index must win;
    now and then a cube loses its literals on them all, leaving none.
    """
    cubes = random_packed(rng, n, count)
    every = sum(1 << s for s in rng.sample(range(n), rng.randint(1, min(n, 3))))
    cubes = [(care | every, value & ~every | rng.getrandbits(n) & every) for care, value in cubes]
    if rng.random() < 0.5:
        src, dst = every & -every, 1 << rng.randrange(n)
        mirror = rng.random() < 0.5
        cubes = [(care | dst, value & ~dst | (dst if bool(value & src) != mirror else 0))
                 for care, value in cubes]
    if rng.random() < 0.2:
        i = rng.randrange(count)
        cubes[i] = (cubes[i][0] & ~every, cubes[i][1] & ~every)
    return cubes


class TestEveryCubePick:
    """A binate variable with a literal in every cube has the most rows.

    _simplify ANDs each record's care bits into the binate mask; where that
    leaves variables, the picks rank only those, by balance alone, and the
    choice is the full count's.
    """

    def test_pick_matches_reference(self):
        rng = random.Random("every-pick")
        seen = {"one": 0, "tied": 0, "several": 0, "none": 0}
        for i in range(3000):
            n = rng.choice(KERNEL_NS)
            count = rng.randint(4, minimizer._SMALL - 1) if i % 2 else rng.randint(minimizer._SMALL, 40)
            cubes = every_cube_cover(rng, n, count) if i % 3 else tied_cover(rng, n, count)
            rs, binate = records(cubes, n), binate_mask(cubes, n)
            if not binate:
                continue
            every = every_mask(rs, binate, n)
            want = ref_select_binate(cubes)
            if count < minimizer._SMALL:
                assert minimizer._count_pick(rs, binate, n, every) == want, (n, cubes)
            else:
                assert minimizer._pick(minimizer._pack(rs, n), binate, n, every) == want, (n, cubes)
            if every and not every & every - 1:
                seen["one"] += 1
            elif every:
                ones = sorted(abs(count - 2 * sum(1 for r in rs if r & b))
                              for b in (1 << s for s in range(n)) if every & b)
                seen["tied" if ones[0] == ones[1] else "several"] += 1
            else:
                seen["none"] += 1
        assert min(seen.values()) > 200, seen

    def test_pipeline_nodes_take_the_every_cube_path(self, monkeypatch):
        # on a one-path DSOP every binate node of 4 cubes or more has a
        # variable with a literal in every cube, so no pick counts every
        # binate variable: pinned on a dense n=10 table, 256 of 256 nodes
        picked = []
        for name in ("_count_pick", "_pick"):
            original = getattr(minimizer, name)

            def traced(cover, binate, n, every=0, original=original):
                picked.append(every)
                return original(cover, binate, n, every)

            monkeypatch.setattr(minimizer, name, traced)
        tt = TruthTable(10, random.Random("dense/10").getrandbits(1 << 10))
        dsop = run_pipeline(tt, PipelineConfig())[1]["dsop"]
        assert simplify(dsop) == ref_simplify(dsop)
        assert (sum(1 for every in picked if every), len(picked)) == (256, 256)


class SpyTable(minimizer._Table):
    """minimizer._Table recording the key of each lookup it answers."""

    __slots__ = ("hits",)

    def __init__(self, room: int) -> None:
        super().__init__(room)
        self.hits = []

    def get(self, key):
        out = super().get(key)
        if out is not None:
            self.hits.append(key)
        return out


class TestTableBound:
    """One call's table holds no more result records than its input has."""

    @pytest.mark.parametrize("name", ["dense14", "parity10"])
    def test_results_held_within_the_input(self, name, monkeypatch):
        if name == "dense14":
            tt = TruthTable(14, random.Random("dense/14").getrandbits(1 << 14))
            dsop = run_pipeline(tt, PipelineConfig())[1]["dsop"]
        else:
            dsop = parity_dsop(10)
        rs = records([(c.care, c.value) for c in dsop], dsop.n)
        splits = count_calls(monkeypatch, "_split")
        done = minimizer._Table(len(rs))
        out = minimizer._simplify(rs, dsop.n, done)
        assert pairs(out, dsop.n) == [(c.care, c.value) for c in simplify(dsop)]
        held = sum(map(len, done.values()))
        assert held + done.room == len(rs) and done.room >= 0
        if name == "dense14":  # few sub-covers repeat: the bound refuses most entries
            assert len(done) < len(splits) // 2

    @pytest.mark.parametrize("name", ["parity10", "majority9"])
    def test_small_sub_covers_answered(self, name):
        if name == "parity10":
            dsop = parity_dsop(10)
        else:
            dsop = enumerate_one_paths(build_from_truthtable(table_of(9, lambda x: sum(x) >= 5)))
        rs = records([(c.care, c.value) for c in dsop], dsop.n)
        done = SpyTable(len(rs))
        out = minimizer._simplify(rs, dsop.n, done)
        assert pairs(out, dsop.n) == [(c.care, c.value) for c in simplify(dsop)]
        assert any(type(key) is tuple and 4 <= len(key) < minimizer._SMALL for key in done.hits)


class TestExpand:
    def test_golden_dsop(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        got = expand(cover(*GOLDEN_DSOP), h)
        assert texts(got) == ["1122", "2110", "2201", "2201"]

    def test_nothing_raisable(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        assert not golden_tt.bits >> 4 & 1 and not golden_tt.bits >> 8 & 1
        assert texts(expand(cover("1122"), h)) == ["1122"]

    def test_raises_lowest_index_first(self):
        # f = a + b: raising a first leaves b, raising b first would leave a
        h = build_from_truthtable(truthtable_from_minterms(2, [1, 2, 3]))
        assert texts(expand(cover("11"), h)) == ["21"]

    def test_constant_one_universal(self):
        h = build_from_truthtable(TruthTable(4, (1 << 16) - 1))
        got = expand(cover("0101", "1122"), h)
        assert texts(got) == ["2222", "2222"]

    def test_rejects_cube_outside_function(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        with pytest.raises(ValueError):
            expand(cover("2210"), h)

    def test_output_contains_input(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        src = cover(*GOLDEN_DSOP)
        out = expand(src, h)
        for before, after in zip(src.cubes, out.cubes):
            assert oracle_minterms(format_cube(before)) <= oracle_minterms(format_cube(after))
            assert oracle_minterms(format_cube(after)) <= set(golden_tt.minterms())


class TestExpandAgainstReference:
    """_expand against the former kernel (conftest.ref_expand): the same
    cubes, masks and errors with blocked masks (masks given), without, and
    past the one-pass bound."""

    @staticmethod
    def covers():
        """Seeded (cubes, onset, n): each table's raw DSOP and its simplify
        output, dense and sparse tables, n = 1..12."""
        rng = random.Random("expand-reference")
        for n in range(1, 13):
            for i in range(2 if n > 9 else 6):
                bits = rng.getrandbits(1 << n)
                if i % 2:
                    bits &= rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
                paths = one_paths(build_from_truthtable(TruthTable(n, bits)))
                yield paths, bits, n
                yield minimizer._urp(paths, n), bits, n

    @staticmethod
    def outcome(expand_kernel, cubes, onset, n, masks):
        """The kernel's cubes and masks, or its error text."""
        try:
            return expand_kernel(cubes, onset, n, masks), masks
        except ValueError as exc:
            return str(exc)

    def test_with_and_without_masks(self):
        for cubes, onset, n in self.covers():
            want_masks = []
            want = ref_expand(cubes, onset, n, want_masks)
            masks = []
            assert minimizer._expand(cubes, onset, n, masks) == want, (n, onset)
            assert masks == want_masks
            assert minimizer._expand(cubes, onset, n) == want

    def test_both_sides_of_the_one_pass_bound(self, monkeypatch):
        # under a bound of 2^n bits no cover is in one pass, so masks are
        # not handed on and cubes of _MINTERM_LITS literals or more go
        # minterm by minterm
        one_pass = minimizer._ONE_PASS_BITS
        for cubes, onset, n in self.covers():
            for bound in (one_pass, 1 << n):
                monkeypatch.setattr(minimizer, "_ONE_PASS_BITS", bound)
                handed = minimizer._one_pass(len(cubes), n)
                assert handed == (bound == one_pass)
                got = self.outcome(minimizer._expand, cubes, onset, n, [] if handed else None)
                assert got == self.outcome(ref_expand, cubes, onset, n, [] if handed else None)

    def test_cube_outside_the_function(self, monkeypatch):
        rng = random.Random("expand-reference/outside")
        one_pass = minimizer._ONE_PASS_BITS
        tried = 0
        for cubes, onset, n in self.covers():
            off = [m for m in range(1 << n) if not onset >> m & 1]
            if not off:
                continue
            bad = cubes[:]
            bad.insert(rng.randrange(len(bad) + 1), ((1 << n) - 1, rng.choice(off)))
            for bound in (one_pass, 1 << n):
                monkeypatch.setattr(minimizer, "_ONE_PASS_BITS", bound)
                for give in (False, True):
                    got = self.outcome(minimizer._expand, bad, onset, n, [] if give else None)
                    want = self.outcome(ref_expand, bad, onset, n, [] if give else None)
                    assert isinstance(want, str) and "is not contained in the function" in want
                    assert got == want
            tried += 1
        assert tried > 40


class TestIrredundant:
    def test_golden_expanded(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        got = irredundant(cover("1122", "2110", "2201", "2201"), h)
        assert set(texts(got)) == {"1122", "2110", "2201"}

    def test_contained_cube_dropped(self):
        tt = truthtable_from_minterms(4, [12, 13, 14, 15])
        h = build_from_truthtable(tt)
        got = irredundant(cover("1122", "1101"), h)
        assert texts(got) == ["1122"]

    def test_already_irredundant(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        c = cover("1122", "2201", "2110")
        assert irredundant(c, h) == c

    def test_rejects_mismatched_cover(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        with pytest.raises(ValueError):
            irredundant(cover("1122"), h)


class TestIrredundantBlocks:
    """Past a size bound, irredundant() runs in blocks of about sqrt(k) cubes, or
    by minterm counts when every cube has _MINTERM_LITS literals or more."""

    def test_parity14_memory(self):
        # 8192 minterm cubes at n=14: past the one-pass bound, and each cube
        # has 14 literals, so irredundant counts per minterm; a single mask
        # pass held about 33 MB of masks and suffix ORs
        cover = parity_dsop(14)
        tt = parity(14)
        tracemalloc.start()
        try:
            got = irredundant(cover, tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert got == ref_irredundant(cover, tt) == cover

    def test_wide_cubes_memory(self):
        # 8192 random 9-literal cubes at n=14 covering the constant 1: past
        # the one-pass bound with cubes too large to go minterm by minterm,
        # so irredundant runs in blocks of about 91 cubes
        rng = random.Random("irredundant-wide")
        n = 14
        pairs = set()
        while len(pairs) < 8192:
            care = sum(1 << s for s in rng.sample(range(n), 9))
            pairs.add((care, rng.getrandbits(n) & care))
        src = Cover.of_pairs(n, sorted(pairs))
        tt = TruthTable(n, (1 << (1 << n)) - 1)
        assert not minimizer._one_pass(len(src), n)
        assert max(c.literal_count() for c in src) < minimizer._MINTERM_LITS
        want = ref_irredundant(src, tt)
        tracemalloc.start()
        try:
            got = irredundant(src, tt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert got == want

    def test_every_block_size_matches_single_pass(self, monkeypatch):
        # redundant covers of random functions: DSOP cubes next to their
        # expansions, in shuffled order, in one pass and then in blocks of
        # about sqrt(k) cubes, forced by a one-pass bound of 2^n bits; the
        # cover sizes vary, so the block sizes do too
        rng = random.Random("irredundant-blocks")
        one_pass = minimizer._ONE_PASS_BITS
        for _ in range(60):
            n = rng.randint(1, 7)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            dsop = enumerate_one_paths(build_from_truthtable(tt))
            cubes = list(dsop.cubes) + list(expand(dsop, tt).cubes)
            rng.shuffle(cubes)
            src = Cover(n, tuple(cubes))
            want = ref_irredundant(src, tt)
            assert irredundant(src, tt) == want
            unique = [(c.care, c.value) for c in dict.fromkeys(cubes)]
            masks = [cube_mask(c) for c in dict.fromkeys(cubes)]
            want_pairs = [(c.care, c.value) for c in want.cubes]
            for one_pass_bits in (one_pass, 1 << n):
                monkeypatch.setattr(minimizer, "_ONE_PASS_BITS", one_pass_bits)
                for given in (None, masks):
                    assert minimizer._irredundant(unique, tt.bits, n, given) == want_pairs
                    with pytest.raises(ValueError, match="does not represent"):
                        minimizer._irredundant(unique, tt.bits | 1 << (1 << n), n, given)


class TestMintermPath:
    """Past the one-pass bound, expand takes a cube of _MINTERM_LITS literals
    or more minterm by minterm, and irredundant a cover of such cubes by
    minterm counts.  Forced on, off or mixed by the two switch constants,
    the paths give the same covers and the same errors."""

    # the module's own settings and minterm lister, before any test patches them
    DEFAULTS = (minimizer._ONE_PASS_BITS, minimizer._MINTERM_LITS)
    MINTERMS = staticmethod(minimizer._minterms)

    def outcomes(self, monkeypatch, n, run):
        """run()'s result or error text under each setting, and whether it
        listed a cube's minterms."""
        listed = []

        def counted(*args):
            listed[-1] = True
            return self.MINTERMS(*args)

        monkeypatch.setattr(minimizer, "_minterms", counted)
        out = []
        settings = [self.DEFAULTS,  # masks in one pass
                    (0, n + 1),  # masks in blocks
                    (0, 0),  # every cube by minterm
                    (0, n // 2)]  # mixed
        for one_pass_bits, lits in settings:
            monkeypatch.setattr(minimizer, "_ONE_PASS_BITS", one_pass_bits)
            monkeypatch.setattr(minimizer, "_MINTERM_LITS", lits)
            listed.append(False)
            try:
                out.append(run())
            except ValueError as exc:
                out.append(str(exc))
        return out, listed

    def test_paths_agree(self, monkeypatch):
        rng = random.Random("minterm-path")
        errors = {"not contained": 0, "does not represent": 0}
        for _ in range(150):
            n = rng.randint(1, 10)
            tt = TruthTable(n, rng.getrandbits(1 << n) | rng.getrandbits(1 << n))
            h = build_from_truthtable(tt)
            paths = one_paths(h)
            # a redundant cover of f: its DSOP, expansions and single minterms, shuffled
            cubes = [*paths, *minimizer._expand(paths, tt.bits, n)[::2],
                     *[((1 << n) - 1, m) for m in rng.sample(list(tt.minterms()), min(5, len(paths)))]]
            rng.shuffle(cubes)
            off = [m for m in range(1 << n) if not tt.bits >> m & 1]
            outside = ((1 << n) - 1, rng.choice(off)) if off else None
            runs = [(cubes, lambda: minimizer._expand(cubes, tt.bits, n)),
                    (cubes, lambda: minimizer._irredundant(cubes, tt.bits, n)),
                    (paths, lambda: minimizer.minimize(paths, n, tt.bits))]
            if outside:
                bad = cubes[:]
                bad.insert(rng.randrange(len(bad) + 1), outside)
                runs += [(bad, lambda: minimizer._expand(bad, tt.bits, n)),
                         (bad, lambda: minimizer._irredundant(bad, tt.bits, n)),
                         (cubes, lambda: minimizer._irredundant(cubes, tt.bits | 1 << outside[1], n))]
            for i, (given, run) in enumerate(runs):
                out, listed = self.outcomes(monkeypatch, n, run)
                assert out == [out[0]] * 4, (n, tt.bits, i)
                assert listed[:3] == [False, False, bool(given)]
                if isinstance(out[0], str):
                    errors[next(e for e in errors if e in out[0])] += 1
        assert errors["not contained"] > 50 and errors["does not represent"] > 100

    def test_empty_cover_past_the_one_pass_bound(self):
        # f = 0 at n >= 23, where even the empty cover is past the bound: it
        # has no cube under _MINTERM_LITS literals, yet it gets no 2^n
        # minterm counters.  It is one block of no cubes, which an f with a
        # minterm still fails.
        for n in (23, 24):
            assert not minimizer._one_pass(0, n)
            tracemalloc.start()
            try:
                assert minimizer._irredundant([], 0, n) == []
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            with pytest.raises(ValueError, match="does not represent"):
                minimizer._irredundant([], 1 << (1 << n) - 1, n)


class TestMaskHandOff:
    """minimize() hands expand's masks to irredundant only in one-pass mode."""

    def test_one_pass_and_blocks(self, monkeypatch):
        rng = random.Random("mask-hand-off")
        one_pass = minimizer._ONE_PASS_BITS
        for _ in range(20):
            n = rng.randint(3, 9)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            h = build_from_truthtable(tt)
            paths = one_paths(h)
            simplified = simplify(enumerate_one_paths(h))
            want = irredundant(expand(simplified, tt), tt)
            # under a bound of 2^n bits, every cover of one cube or more runs in blocks
            for one_pass_bits, handed in ((one_pass, True), (1 << n, False)):
                monkeypatch.setattr(minimizer, "_ONE_PASS_BITS", one_pass_bits)
                masks_given = []
                made = {"expand": [], "irredundant": []}  # each pass's pair_mask cares
                kernel, mask = minimizer._irredundant, minimizer.pair_mask

                def spy_irredundant(cubes, onset, n, masks=None):
                    masks_given.append(masks is not None)
                    return kernel(cubes, onset, n, masks)

                def counting_mask(n, care, value):
                    made["irredundant" if masks_given else "expand"].append(care)
                    return mask(n, care, value)

                with monkeypatch.context() as m:
                    m.setattr(minimizer, "_irredundant", spy_irredundant)
                    m.setattr(minimizer, "pair_mask", counting_mask)
                    got = minimizer.minimize(paths, n, tt.bits)
                assert got == [(c.care, c.value) for c in want]
                if simplified.cubes:  # an empty cover runs in one pass anyway
                    assert masks_given == [handed]
                if handed:  # expand spreads each care pattern once, and irredundant makes no mask
                    cares = {c.care for c in simplified}
                    assert sorted(made["expand"]) == sorted(cares)
                    assert made["irredundant"] == []


class TestTableHandOff:
    """expand and irredundant take f as its truth table or as a BDD handle."""

    def test_golden_table_equals_handle(self, golden_tt):
        h = build_from_truthtable(golden_tt)
        src = cover(*GOLDEN_DSOP)
        assert expand(src, golden_tt) == expand(src, h)
        expanded = expand(src, h)
        assert irredundant(expanded, golden_tt) == irredundant(expanded, h)

    def test_table_equals_handle_random(self):
        rng = random.Random("table-hand-off")
        for _ in range(100):
            n = rng.randint(1, 10)
            tt = TruthTable(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_from_truthtable(tt, VariableOrder(tuple(perm)))
            src = simplify(enumerate_one_paths(h))
            expanded = expand(src, h)
            assert expand(src, tt) == expanded
            assert irredundant(expanded, tt) == irredundant(expanded, h)
            assert irredundant(src, tt) == irredundant(src, h)

    def test_expand_rejects_cube_outside_table(self, golden_tt):
        with pytest.raises(ValueError, match="not contained"):
            expand(cover("2210"), golden_tt)

    def test_irredundant_rejects_other_function(self, golden_tt):
        with pytest.raises(ValueError, match="does not represent"):
            irredundant(cover("1122"), golden_tt)

    def test_variable_count_mismatch(self, golden_tt):
        for f in (golden_tt, build_from_truthtable(golden_tt)):
            with pytest.raises(ValueError, match="variable count"):
                expand(cover("112"), f)
            with pytest.raises(ValueError, match="variable count"):
                irredundant(cover("112"), f)


class TestMinimize:
    """The full pipeline, through cli.run_pipeline."""

    def test_golden(self, golden_tt):
        got = pipeline_sop(golden_tt)
        assert set(texts(got)) == {"1122", "2201", "2110"}
        assert len(got.cubes) == 3
        assert literal_count(got) == 7

    def test_constant_one(self):
        got = pipeline_sop(TruthTable(3, (1 << 8) - 1))
        assert texts(got) == ["222"]

    def test_constant_zero(self):
        assert pipeline_sop(TruthTable(3, 0)).cubes == ()

    def test_single_minterm(self):
        got = pipeline_sop(truthtable_from_minterms(4, [13]))
        assert texts(got) == ["1101"]

    def test_explicit_order(self, golden_tt):
        got = pipeline_sop(golden_tt, ordering="given")
        assert cover_table(got).bits == golden_tt.bits

    def test_with_sifting(self, golden_tt):
        got = pipeline_sop(golden_tt, ordering="sift")
        assert cover_table(got).bits == golden_tt.bits

    def test_pipeline_invariants_random(self):
        rng = random.Random(97)
        for _ in range(60):
            n = rng.randint(3, 6)
            tt = TruthTable(n, rng.getrandbits(1 << n))
            h = build_from_truthtable(tt)
            dsop = enumerate_one_paths(h)
            out = pipeline_sop(tt)
            assert cover_table(out).bits == tt.bits
            assert len(out.cubes) <= len(dsop.cubes)
            on = set(tt.minterms())
            for c in out:
                assert oracle_minterms(format_cube(c)) <= on
            # no single cube removable
            for i in range(len(out.cubes)):
                rest = Cover(n, out.cubes[:i] + out.cubes[i + 1:])
                assert cover_table(rest).bits != tt.bits


class TestExpression:
    def test_golden_expression(self):
        assert format_expression(cover("1122", "2201", "2110")) == "ab + c'd + bcd'"

    def test_empty_cover(self):
        assert format_expression(Cover(3, ())) == "0"

    def test_universal(self):
        assert format_expression(Cover(3, (Cube(3, 0, 0),))) == "1"

    def test_custom_names(self):
        assert format_expression(cover("10"), ["x", "y"]) == "xy'"

    def test_default_names(self):
        assert minimizer.default_names(26)[-1] == "z"
        assert minimizer.default_names(27) == [f"x{i}" for i in range(27)]
