import contextlib
import gc
import itertools
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dsopmin import boolfn, cli
from dsopmin.bdd import (
    BddManager,
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    node_count,
    one_path_count,
    sift_paths,
    split_levels,
)
from dsopmin.boolfn import (
    MAX_ONE_PATHS,
    TruthTable,
    cofactor_tables,
    full_mask,
    literal_count,
    truthtable_from_minterms,
)
from dsopmin.cli import (
    ORDERINGS,
    PipelineConfig,
    PlaError,
    StatsReport,
    emit_csv,
    emit_report,
    main,
    parse_minterms,
    parse_pla,
    run_benchmark,
    run_pipeline,
)
from dsopmin.boolfn import format_cube
from dsopmin.minimizer import expand, irredundant, simplify
from dsopmin.ordering import entropy_order, entropy_place
from dsopmin.qm import exact_cover

from conftest import (
    cube_text_masks,
    oracle_cover_minterms,
    oracle_same_function,
    pipeline_problems,
    random_cube,
    ref_parse_pla,
)

GOLDEN_PLA = "\n".join(
    [".i 4", ".o 1", ".ilb a b c d"]
    + [f"{m:04b} 1" for m in [1, 5, 6, 9, 12, 13, 14, 15]]
    + [".e"]
)

# The benchmark's wide-pla cube shape: 4 three-literal and 8 four-literal cubes.
WIDE_PLA_LITERALS = (3,) * 4 + (4,) * 8


def sparse_pla(n: int, literals, seed: str):
    """The parsed table of a seeded PLA with one random k-literal cube per
    k in literals, and the cube texts."""
    rng = random.Random(seed)
    cubes = [random_cube(rng, n, k) for k in literals]
    pla = "\n".join([f".i {n}", ".o 1"] + [f"{c} 1" for c in cubes] + [".e"])
    return parse_pla(pla)[0], cubes


def distinct_subtables(tt: TruthTable, perm) -> int:
    """The distinct non-constant subtables of tt, summed over the levels
    of perm, found by sorting every minterm into its subtable."""
    n = tt.n
    total = 0
    for level in range(n):
        fixed, rest = perm[:level], sorted(perm[level:])
        subtables = {}
        for m in range(1 << n):
            x = [(m >> (n - 1 - v)) & 1 for v in range(n)]
            key = tuple(x[v] for v in fixed)
            j = int("".join(str(x[v]) for v in rest), 2)
            subtables[key] = subtables.get(key, 0) | ((tt.bits >> m) & 1) << j
        full = (1 << (1 << len(rest))) - 1
        total += len({bits for bits in subtables.values() if bits not in (0, full)})
    return total


@st.composite
def pla_texts(draw):
    """PLA text near the accepted subset, often valid, often not.

    Cube lines of the declared width mix with directives that have good,
    missing, non-integer or out-of-range arguments, cube lines of the
    wrong width or alphabet, and arbitrary text.  Declared widths stay at
    six or below, so a valid text runs the whole pipeline in milliseconds.
    """
    n = draw(st.integers(1, 6))
    cube = st.builds("{} {}".format, st.text("01-2", min_size=n, max_size=n),
                     st.sampled_from("01"))
    line = st.one_of(
        cube,
        cube,
        st.builds("{} {}".format, st.text("01-2~x", max_size=8), st.text("01-~2 ", max_size=3)),
        st.builds("{} {}".format, st.sampled_from([".i", ".o", ".p", ".ob", ".type"]),
                  st.sampled_from(["", "0", "1", "2", "-1", "25", "x", "1.5", "9" * 5000])),
        st.builds(" ".join, st.lists(st.sampled_from([".ilb", "a", "b", "c", "d", "e", "f"]),
                                     min_size=1, max_size=8)),
        st.sampled_from([".e", ".i", ".o", "#", "# c", ""]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    )
    lines = draw(st.lists(line, max_size=10))
    if draw(st.integers(0, 2)):  # a good header two times in three
        lines = [f".i {n}", ".o 1"] + lines
    return "\n".join(lines)


@pytest.fixture(scope="module")
def dense_20_pla(tmp_path_factory):
    """A PLA file listing each ON minterm of the dense n=20 table, one
    line each (about 525,000 lines), and that table."""
    tt = TruthTable(20, random.Random("dense/20").getrandbits(1 << 20))
    path = tmp_path_factory.mktemp("dense") / "dense20.pla"
    path.write_text("\n".join([".i 20", ".o 1", *(f"{m:020b} 1" for m in tt.minterms()), ".e"]))
    return path, tt


class TestParsePla:
    def test_golden_minterms(self):
        tt, names = parse_pla(GOLDEN_PLA)
        assert set(tt.minterms()) == {1, 5, 6, 9, 12, 13, 14, 15}
        assert names == ["a", "b", "c", "d"]

    def test_cube_expansion(self):
        tt, _ = parse_pla(".i 4\n.o 1\n11-- 1\n.e\n")
        assert set(tt.minterms()) == {12, 13, 14, 15}

    def test_multi_output_rejected(self):
        with pytest.raises(PlaError):
            parse_pla(".i 2\n.o 2\n11 10\n.e\n")

    def test_dont_care_output_rejected(self):
        with pytest.raises(PlaError):
            parse_pla(".i 2\n.o 1\n11 -\n.e\n")

    def test_missing_headers(self):
        with pytest.raises(PlaError):
            parse_pla("11 1\n.e\n")
        with pytest.raises(PlaError):
            parse_pla(".i 2\n11 1\n.e\n")

    def test_malformed_line(self):
        with pytest.raises(PlaError):
            parse_pla(".i 2\n.o 1\n1 1 1\n.e\n")

    def test_off_cubes_ignored(self):
        tt, _ = parse_pla(".i 2\n.o 1\n11 1\n00 0\n.e\n")
        assert set(tt.minterms()) == {3}

    @pytest.mark.parametrize("directive", [".i", ".o", ".i x", ".o 1.5"])
    def test_directive_needs_integer(self, directive):
        with pytest.raises(PlaError):
            parse_pla(f"{directive}\n.e\n")

    def test_dense_20_reads_in_bounded_time(self, dense_20_pla):
        # one bitmap for the single care pattern: no 2^n-bit OR per line
        path, tt = dense_20_pla
        text = path.read_text()
        start = time.perf_counter()
        got, names = parse_pla(text)
        assert time.perf_counter() - start < 2.5
        assert got == tt and names is None

    @pytest.mark.parametrize("n", [0, 25])
    def test_input_count_out_of_range(self, n):
        with pytest.raises(PlaError):
            parse_pla(f".i {n}\n.o 1\n{'-' * n} 1\n.e\n")


def parse_outcome(parse, text):
    """parse(text), or the type and message of the ValueError it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def seeded_pla(rng, n, cubes=None):
    """Valid PLA text that uses every accepted form: comments, blank lines,
    "-" and "2", 0-output lines, .ilb, .p, .ob, and text after .e.  Its
    cube fields are the given texts, else up to 30 random ones."""
    lines = ["# seeded", f".i {n}", "", ".o 1  # one output", f".p {rng.randint(0, 40)}"]
    if rng.random() < 0.5:
        lines.append(".ilb " + " ".join(f"x{v}" for v in range(n)))
    if rng.random() < 0.3:
        lines.append(".ob f")
    if cubes is None:
        cubes = ("".join(rng.choice("01-2") for _ in range(n)) for _ in range(rng.randint(0, 30)))
    for text in cubes:
        line = f"{text} {rng.choice('0111')}"
        lines.append(rng.choice([line, line, f"  {line}  ", f"{line} # note", ""]))
    lines.append(".e")
    lines += rng.choice([[], ["11 1", ".i x", "garbage"]])
    return "\n".join(lines)


# One bad line of each kind that the reader rejects, for a four-input PLA
# whose .i and .o lines (HEADERS) come first.  Lines are read (directives,
# two fields per cube line) before any cube's fields are decoded, so an
# error of the first group comes before one of the second wherever they
# stand, as in the former reader.
HEADERS = [".i 4", ".o 1"]
BAD_READ_LINES = [".type fr", ".i", ".i x", ".i 0", ".i 25", ".o 2", ".o 1.5", "1 1 1", "1011",
                  *HEADERS]
BAD_CUBE_LINES = ["101 1", "10110 0", "1x01 1", "10_1 0", "1011 -", "1011 ~", "1011 2",
                  "1011 10"]


def headers_for(*bad):
    """HEADERS less each line whose directive one of the bad lines gives a
    bad value, so that bad line is the first of its kind and raises its
    value error, not a repeat.  The header lines themselves stay bad as
    repeats of HEADERS."""
    keys = {line.split()[0] for line in bad if line not in HEADERS}
    return [h for h in HEADERS if h.split()[0] not in keys]


class TestParsePlaReference:
    """parse_pla against the former reader (conftest.ref_parse_pla): equal
    tables and names, and the same error for every kind of bad line."""

    def test_seeded_plas(self):
        rng = random.Random("parse-pla-reference")
        texts = [seeded_pla(rng, rng.randint(1, 12)) for _ in range(300)]
        for n in range(12, 17):  # dense minterm lists: one care pattern, many values
            bits = rng.getrandbits(1 << n)
            minterms = [format(m, f"0{n}b") for m in range(1 << n) if bits >> m & 1]
            texts.append(seeded_pla(rng, n, rng.sample(minterms, len(minterms))))
        for n in range(18, 25):  # wide cubes, nearly each with its own care pattern
            texts.append(seeded_pla(rng, n, [random_cube(rng, n, rng.randint(1, n))
                                             for _ in range(30)]))
        for text in texts:
            got = parse_pla(text)
            assert got == ref_parse_pla(text)

    @pytest.mark.parametrize("bad", BAD_READ_LINES + BAD_CUBE_LINES)
    def test_each_bad_line(self, bad):
        head, body = headers_for(bad), ["1-01 1", "0000 0", "22-1 1", ".e"]
        for at in range(len(body)):
            text = "\n".join(head + body[:at] + [bad] + body[at:])
            got = parse_outcome(parse_pla, text)
            assert isinstance(got[0], type) and issubclass(got[0], ValueError)
            assert got == parse_outcome(ref_parse_pla, text)

    @pytest.mark.parametrize("bad, error", [
        (".i", ".i needs an integer argument"),
        (".i x", ".i argument 'x' is not an integer"),
        (".i 0", ".i 0 outside [1, 24]"),
        (".i 25", ".i 25 outside [1, 24]"),
        (".o 2", "only single-output functions are supported (.o 1)"),
        (".o 1.5", ".o argument '1.5' is not an integer"),
        (".i 4", "repeated .i directive"),
        (".o 1", "repeated .o directive"),
    ])
    def test_header_line_errors(self, bad, error):
        # the bad .i and .o lines above raise their own errors, not a repeat
        text = "\n".join(headers_for(bad) + ["1-01 1", bad, ".e"])
        assert parse_outcome(parse_pla, text) == (PlaError, error)
        assert parse_outcome(ref_parse_pla, text) == (PlaError, error)

    def test_missing_headers_and_names(self):
        for text in ["1-01 1\n.e", ".i 4\n1-01 1", ".o 1\n.i 4\n.ilb a b\n1-01 1",
                     "", ".e\n.i 4\n.o 1"]:
            got = parse_outcome(parse_pla, text)
            assert issubclass(got[0], PlaError)
            assert got == parse_outcome(ref_parse_pla, text)

    def test_first_bad_line_wins(self):
        # two bad lines of one group: the one first in file order decides
        for bad_lines in (BAD_READ_LINES, BAD_CUBE_LINES):
            for first, second in itertools.permutations(bad_lines, 2):
                head = headers_for(first, second)
                if first in HEADERS and first not in head:
                    continue  # second gives first's directive a bad value: first is no repeat
                text = "\n".join(head + ["1-01 1", first, "0000 0", second, ".e"])
                alone = "\n".join(head + ["1-01 1", first, "0000 0", ".e"])
                got = parse_outcome(parse_pla, text)
                assert got == parse_outcome(parse_pla, alone) == parse_outcome(ref_parse_pla, text)

    def test_read_errors_come_first(self):
        for cube_line, read_line in itertools.product(BAD_CUBE_LINES, BAD_READ_LINES):
            head = headers_for(read_line)
            for pair in ((cube_line, read_line), (read_line, cube_line)):
                text = "\n".join([*head, *pair, ".e"])
                alone = "\n".join([*head, read_line, ".e"])
                got = parse_outcome(parse_pla, text)
                assert got == parse_outcome(parse_pla, alone) == parse_outcome(ref_parse_pla, text)

    @settings(max_examples=300, deadline=None)
    @given(text=pla_texts())
    def test_fuzz_matches_reference(self, text):
        assert parse_outcome(parse_pla, text) == parse_outcome(ref_parse_pla, text)


class TestCubeConstructions:
    """Cubes are built only for the covers a caller receives: run_pipeline
    makes exactly len(dsop) + len(sop) of them, and parse_pla none.  Every
    Cube's constructor sets its n through boolfn._set_n once, so that is
    where they are counted."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        set_n = boolfn._set_n

        def counting(cube, n):
            count[0] += 1
            set_n(cube, n)

        monkeypatch.setattr(boolfn, "_set_n", counting)
        return count

    def test_run_pipeline(self, built, golden_tt):
        tables = [golden_tt, TruthTable(10, random.Random("constructions/10").getrandbits(1 << 10))]
        for tt in tables:
            for ordering in ("entropy", "given", "sift"):
                built[0] = 0
                report, covers = run_pipeline(tt, PipelineConfig(ordering=ordering))
                assert built[0] == len(covers["dsop"]) + len(covers["sop"]) > 0
                assert report.sop_literals == literal_count(covers["sop"])

    def test_parse_pla(self, built):
        rng = random.Random("constructions/pla")
        for text in [GOLDEN_PLA] + [seeded_pla(rng, 10) for _ in range(5)]:
            parse_pla(text)
        assert built[0] == 0


class TestParseMinterms:
    def test_golden(self):
        tt = parse_minterms("4:1,5,6,9,12,13,14,15")
        assert set(tt.minterms()) == {1, 5, 6, 9, 12, 13, 14, 15}

    def test_constant_zero(self):
        assert parse_minterms("3:").bits == 0

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_minterms("x:1,2")


class TestRunPipeline:
    def test_golden_entropy(self, golden_tt):
        report, outputs = run_pipeline(golden_tt, PipelineConfig(ordering="entropy"))
        assert report.order == (1, 0, 2, 3)
        assert report.bdd_nodes == 6
        assert report.one_paths == 4
        assert report.dsop_cubes == 4
        assert report.sop_cubes == 3
        assert len(outputs["sop"].cubes) == 3
        assert report.check() == []

    def test_golden_given_order(self, golden_tt):
        report, _ = run_pipeline(golden_tt, PipelineConfig(ordering="given"))
        assert report.bdd_nodes == 7
        assert report.one_paths == 5

    def test_golden_sift(self, golden_tt):
        report, _ = run_pipeline(golden_tt, PipelineConfig(ordering="sift"))
        assert report.one_paths == 4

    def test_constant_zero(self):
        tt = truthtable_from_minterms(3, [])
        report, outputs = run_pipeline(tt, PipelineConfig())
        assert report.one_paths == 0
        assert report.dsop_cubes == 0
        assert report.sop_cubes == 0
        assert outputs["sop"].cubes == ()

    def test_one_split_per_distinct_subtable(self, golden_tt, monkeypatch):
        # in entropy mode the ordering and the BDD share one descent: each
        # distinct non-constant subtable of each level is cofactored once on
        # each side, whichever module asks; a level's subtables go through
        # one cofactor_tables call, which makes two cofactors of each
        calls = []

        def counting(tables, masks, var):
            out = cofactor_tables(tables, masks, var)
            calls.extend(half for halves in out for half in halves)
            return out

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dsopmin" and getattr(module, "cofactor_tables", None) is cofactor_tables:
                monkeypatch.setattr(module, "cofactor_tables", counting)
        rng = random.Random("one-descent")
        tables = [golden_tt, TruthTable(10, rng.getrandbits(1 << 10)),
                  sparse_pla(10, (2, 3, 3, 4), "one-descent/sparse")[0],
                  TruthTable(8, sum(1 << m for m in range(256) if bin(m).count("1") % 2)),  # parity
                  TruthTable(5, 0), TruthTable(5, (1 << 32) - 1)]
        for tt in tables:
            calls.clear()
            report, _ = run_pipeline(tt, PipelineConfig())
            assert len(calls) == 2 * distinct_subtables(tt, report.order), tt

    def test_oracle(self, golden_tt):
        report, _ = run_pipeline(golden_tt, PipelineConfig(oracle=True))
        assert report.oracle_cubes == 3
        assert report.oracle_literals == 7
        assert report.check() == []

    @pytest.mark.parametrize("mode", ORDERINGS)
    def test_every_function_up_to_three_variables(self, mode):
        # all 4 + 16 + 256 functions of one to three variables
        for n in (1, 2, 3):
            masks = cube_text_masks(n)
            for bits in range(1 << (1 << n)):
                problems, _, _ = pipeline_problems(TruthTable(n, bits), mode, masks)
                assert problems == [], (n, bits)

    @pytest.mark.parametrize("mode", ORDERINGS)
    def test_exported_stages_give_its_result(self, mode):
        # the exported stage functions, called in stage order, give
        # run_pipeline's order, counts and covers, though it orders, walks
        # and minimizes through split_levels, one_paths and minimize instead
        rng = random.Random(f"stages/{mode}")
        for n in range(1, 11):
            for tt in (TruthTable(n, rng.getrandbits(1 << n)),  # half the minterms on
                       TruthTable(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))):
                report, covers = run_pipeline(tt, PipelineConfig(ordering=mode))
                order = entropy_order(tt) if mode == "entropy" else VariableOrder.identity(n)
                h = build_from_truthtable(tt, order)
                if mode == "sift":
                    assert sift_paths(h.manager, h) == one_path_count(h)
                dsop = enumerate_one_paths(h)
                sop = irredundant(expand(simplify(dsop), h), h)
                assert (h.manager.order.perm, node_count(h), one_path_count(h), dsop, sop) == (
                    report.order, report.bdd_nodes, report.one_paths, covers["dsop"],
                    covers["sop"]), (n, tt.bits)

    def test_sparse_pla_at_n18(self):
        # wide-PLA shape (4 three-literal and 8 four-literal cubes) near
        # the table cap: entropy ordering and BDD construction must not
        # walk the 2^18 minterms one by one
        tt, cubes = sparse_pla(18, WIDE_PLA_LITERALS, "sparse-pla/18")
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig())
        assert time.perf_counter() - start < 10.0
        assert report.check() == []
        sop = [format_cube(c) for c in outputs["sop"]]
        assert oracle_cover_minterms(sop) == oracle_cover_minterms(cubes)

    def assert_fast_and_correct(self, tt, cubes, bound_s):
        # SOP = f by cube-text sharps: at n >= 22 the minterm oracle would
        # enumerate millions of minterms
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig())
        assert time.perf_counter() - start < bound_s
        assert report.check() == []
        assert oracle_same_function([format_cube(c) for c in outputs["sop"]], cubes)

    def test_sparse_pla_at_n22(self):
        # a level of 2^21 subtables holds few distinct ones, and expand
        # and irredundant read f's table instead of rebuilding it
        self.assert_fast_and_correct(*sparse_pla(22, WIDE_PLA_LITERALS, "sparse-pla/22"), 1.0)

    def test_sparse_pla_at_n24(self):
        # the declared table cap
        self.assert_fast_and_correct(*sparse_pla(24, WIDE_PLA_LITERALS, "sparse-pla/24"), 3.0)
        self.assert_fast_and_correct(*sparse_pla(24, (4,), "one-cube/24"), 1.5)

    def test_sparse_pla_split_at_n22_holds_one_wide_width(self):
        # the PLA's distinct subtables take a few hundred bytes each, so the
        # descent's memory is its literal masks: above width 16 each is
        # built when it is read, never every width it has passed (about
        # 23 MiB)
        tt, _ = sparse_pla(22, WIDE_PLA_LITERALS, "sparse-pla/22")
        tracemalloc.start()
        try:
            split_levels(tt, entropy_place)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("kind, bound_mib", [("x0", 16), ("sparse-pla", 40)])
    def test_split_at_n24_builds_masks_when_read(self, kind, bound_mib):
        # a width-24 level reads its masks one at a time (2 MiB each), not
        # as one 48 MiB tuple: with the tuple, the peaks were 56.5 MiB (x0)
        # and 60.2 MiB (the PLA, whose cofactors read up to 21 masks)
        if kind == "x0":
            tt = TruthTable(24, full_mask(24) ^ full_mask(23))
        else:
            tt, _ = sparse_pla(24, WIDE_PLA_LITERALS, "sparse-pla/24")
        tracemalloc.start()
        try:
            split_levels(tt, entropy_place)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib << 20

    def test_constant_zero_at_n24_builds_no_wide_width(self):
        # every level of a constant holds only constants, so the descent
        # fetches no masks, and irredundant checks the empty cover as one
        # block of none, not with 2^24 minterm counters
        tracemalloc.start()
        try:
            report, _ = run_pipeline(TruthTable(24, 0), PipelineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.sop_cubes == 0
        assert peak < 16 << 20

    def test_sharp_oracle_matches_minterm_oracle(self):
        rng = random.Random("sharp-oracle")
        for _ in range(300):
            n = rng.randint(1, 6)
            a = [random_cube(rng, n, rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
            b = [random_cube(rng, n, rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.3:
                # the same function from other cubes: each cube split on its first free variable
                b = [c[:i] + x + c[i + 1:] if i >= 0 else c
                     for c in a for i in [c.find("-")] for x in ("01" if i >= 0 else "-")]
            same = oracle_cover_minterms(a) == oracle_cover_minterms(b)
            assert oracle_same_function(a, b) == same, (a, b)

    def test_dense_n12(self):
        # uniform random n=12 tables: about 1.3k DSOP cubes each, so the
        # URP simplify must stay well under a second per function
        rng = random.Random("dense/12")
        for _ in range(3):
            tt = TruthTable(12, rng.getrandbits(1 << 12))
            start = time.perf_counter()
            report, outputs = run_pipeline(tt, PipelineConfig(ordering="entropy"))
            assert time.perf_counter() - start < 3.0
            assert report.check() == []
            sop = [format_cube(c) for c in outputs["sop"]]
            assert oracle_cover_minterms(sop) == set(tt.minterms())

    def test_dense_n14(self):
        # a uniform random n=14 table: about 5k DSOP cubes, whose URP merges
        # are only fast with word-parallel containment on packed covers
        rng = random.Random("dense/14")
        tt = TruthTable(14, rng.getrandbits(1 << 14))
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig(ordering="entropy"))
        assert time.perf_counter() - start < 1.5
        assert report.check() == []
        sop = [format_cube(c) for c in outputs["sop"]]
        assert oracle_cover_minterms(sop) == set(tt.minterms())

    def test_dense_n16(self):
        # a uniform random n=16 table: 20,683 DSOP cubes, whose URP halves
        # pass 512 cubes, so the containment kernel's split runs; the covers
        # are pinned by digest, and the time at about 3x that of a shared
        # 2-vCPU host (2.2-2.9 s)
        rng = random.Random("dense/16")
        tt = TruthTable(16, rng.getrandbits(1 << 16))
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig(ordering="entropy"))
        assert time.perf_counter() - start < 8.0
        assert report.check() == []
        digests = {name: hashlib.sha256(" ".join(map(format_cube, outputs[name])).encode())
                   .hexdigest()[:16] for name in ("dsop", "sop")}
        assert digests == {"dsop": "6bf3c0f3b1385b05", "sop": "85dc21a7bc9b9136"}
        assert (report.dsop_cubes, report.sop_cubes, report.sop_literals) == (20683, 10634, 145356)

    def test_dense_n16_sift(self):
        # the same table sifted: every variable crosses levels of thousands
        # of nodes, each sweep side from a copy of its start state; the
        # order, P1 and covers are pinned, with the time about 3x that of a
        # shared 2-vCPU host (1.6-1.8 s)
        rng = random.Random("dense/16")
        tt = TruthTable(16, rng.getrandbits(1 << 16))
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig(ordering="sift"))
        assert time.perf_counter() - start < 6.0
        assert report.check() == []
        assert report.order == (15, 1, 2, 3, 14, 4, 5, 13, 8, 12, 10, 9, 7, 0, 11, 6)
        assert (report.one_paths, report.bdd_nodes) == (20621, 8303)
        digests = {name: hashlib.sha256(" ".join(map(format_cube, outputs[name])).encode())
                   .hexdigest()[:16] for name in ("dsop", "sop")}
        assert digests == {"dsop": "f804bf96817231d3", "sop": "09981b74685d8c77"}
        assert (report.sop_cubes, report.sop_literals) == (10611, 145051)


def garbage_after(call) -> int:
    """What a collection finds after call() with the cycle collector off:
    the objects call left in reference cycles, which refcounting cannot free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestNoReferenceCycles:
    """A run leaves nothing for the cycle collector: _fold's
    self-recursive closure is let go."""

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_random_run(self, ordering):
        tt = TruthTable(10, random.Random("cycles/10").getrandbits(1 << 10))
        assert garbage_after(lambda: run_pipeline(tt, PipelineConfig(ordering=ordering))) == 0

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_golden_with_oracle(self, golden_tt, ordering):
        cfg = PipelineConfig(ordering=ordering, oracle=True)
        assert garbage_after(lambda: run_pipeline(golden_tt, cfg)) == 0

    def test_branch_and_bound(self):
        # a cyclic chart: no essential row, so the search runs
        tt = truthtable_from_minterms(3, [0, 1, 2, 5, 6, 7])
        assert garbage_after(lambda: exact_cover(tt)) == 0


class TestReports:
    def test_emit_record_fields(self, golden_tt, tmp_path):
        report, _ = run_pipeline(golden_tt, PipelineConfig())
        path = tmp_path / "report.json"
        emit_report([report], str(path))
        records = json.loads(path.read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["schema"] == "dsopmin-report/1"
        assert rec["dsop_cubes"] == 4
        assert rec["sop_cubes"] == 3
        assert rec["sop_literals"] == 7
        assert "time_build_ms" in rec

    def test_empty_report(self, tmp_path):
        path = tmp_path / "empty.json"
        emit_report([], str(path))
        assert json.loads(path.read_text()) == []

    def test_csv_table(self, golden_tt, tmp_path):
        report, _ = run_pipeline(golden_tt, PipelineConfig())
        path = tmp_path / "report.csv"
        emit_csv([report], str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("schema,n,order")
        assert lines[0].split(",") == list(report.to_record())
        assert len(lines) == 2
        # --benchmark 0: no rows, the same header
        emit_csv([], str(path))
        assert path.read_text().splitlines() == lines[:1]

    def test_invariant_checker(self):
        bad = StatsReport(n=2, order=(0, 1), bdd_nodes=1, one_paths=2,
                          dsop_cubes=3, sop_cubes=4, sop_literals=5)
        assert len(bad.check()) == 2

    def test_oracle_above_heuristic_is_a_violation(self):
        bad = StatsReport(n=2, order=(0, 1), bdd_nodes=1, one_paths=2, dsop_cubes=2,
                          sop_cubes=1, sop_literals=1, oracle_cubes=2, oracle_literals=2)
        assert bad.check() == ["oracle_cubes 2 > sop_cubes 1"]

    def test_keyword_construction_and_defaults(self):
        cfg = PipelineConfig()
        assert (cfg.ordering, cfg.oracle) == ("entropy", False)
        cfg = PipelineConfig(oracle=True, ordering="sift")
        assert (cfg.ordering, cfg.oracle) == ("sift", True)
        assert PipelineConfig("given", True).ordering == "given"
        counts = dict(n=2, order=(1, 0), bdd_nodes=1, one_paths=2, dsop_cubes=2,
                      sop_cubes=1, sop_literals=1)
        a, b = StatsReport(**counts), StatsReport(*counts.values())
        for r in (a, b):
            assert [getattr(r, name) for name in counts] == list(counts.values())
            assert (r.oracle_cubes, r.oracle_literals, r.timings_ms) == (None, None, {})
        assert a.timings_ms is not b.timings_ms  # a new dict per report
        timings = {"order": 1.5}
        r = StatsReport(**counts, oracle_cubes=1, oracle_literals=2, timings_ms=timings)
        assert (r.oracle_cubes, r.oracle_literals, r.timings_ms) == (1, 2, timings)
        with pytest.raises(TypeError):
            StatsReport(n=2)
        with pytest.raises(TypeError):
            PipelineConfig(order="given")

    def test_record_fields(self):
        # the record's columns, in the order reports and CSV headers carry them
        assert cli.RECORD_FIELDS == (
            "schema", "n", "order", "bdd_nodes", "one_paths", "dsop_cubes", "sop_cubes",
            "sop_literals", "oracle_cubes", "oracle_literals", "time_order_ms",
            "time_build_ms", "time_dsop_ms", "time_minimize_ms", "time_oracle_ms")


class TestBenchmark:
    def test_records_satisfy_invariants(self):
        cfg = PipelineConfig(oracle=True)
        reports = run_benchmark(cfg, 4, count=30, seed=42)
        assert len(reports) == 30
        for r in reports:
            assert r.check() == []

    def test_fixed_seed_byte_stable(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            assert main(["--benchmark", "10", "--bench-vars", "4", "--seed", "7",
                         "--no-timing", "--report", str(p)]) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("mode, want", [("entropy", "0ab10a9adcd09e72"),
                                            ("given", "07f20edc9b124701"),
                                            ("sift", "0f7baa212d299391")])
    def test_report_bytes_pinned_per_order(self, tmp_path, mode, want):
        # every --order mode's report, byte for byte; no benchmark workload
        # runs given, so this is the one pin on its orders and counts
        path = tmp_path / f"{mode}.json"
        assert main(["--benchmark", "40", "--bench-vars", "7", "--seed", "3", "--order", mode,
                     "--no-timing", "--report", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == want

    def test_stages_always_timed(self, tmp_path):
        # run_pipeline times every stage it runs; --no-timing writes them as 0.0
        report, _ = run_pipeline(truthtable_from_minterms(4, [1, 5, 6, 9]),
                                 PipelineConfig(oracle=True))
        assert set(report.timings_ms) == set(cli.STAGES)
        assert all(t >= 0.0 for t in report.timings_ms.values())
        path = tmp_path / "r.json"
        assert main(["--minterms", "4:1,5,6,9", "--oracle", "qm", "--no-timing",
                     "--report", str(path)]) == 0
        [rec] = json.loads(path.read_text())
        assert [rec[f"time_{stage}_ms"] for stage in cli.STAGES] == [0.0] * len(cli.STAGES)


class TestOnePathBudget:
    """run_pipeline counts P1 before it sifts or makes any cube, and refuses
    a BDD with more than MAX_ONE_PATHS one-paths."""

    @staticmethod
    def dense(n):
        return TruthTable(n, random.Random(f"dense/{n}").getrandbits(1 << n))

    def test_dense_20_refused_before_any_path(self, monkeypatch):
        def never(*args):
            raise AssertionError("one-paths walked past the budget")

        monkeypatch.setattr(cli.bdd, "one_paths", never)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="one-path count 332509 exceeds the budget"):
            run_pipeline(self.dense(20), PipelineConfig())
        assert time.perf_counter() - start < 5

    def test_dense_20_refused_before_sifting(self, monkeypatch):
        # sifting never raises P1, so the count under the input order bounds
        # the sifted DSOP too, and a refused table is never sifted
        def never(*args):
            raise AssertionError("sifted past the budget")

        monkeypatch.setattr(cli.bdd, "sift_paths", never)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="one-path count 333140 exceeds the budget"):
            run_pipeline(self.dense(20), PipelineConfig(ordering="sift"))
        assert time.perf_counter() - start < 5

    def test_dense_18_within_budget(self):
        # the largest dense size the pipeline still takes; its full run is
        # too long for the suite, so only its P1 is counted here
        levels = split_levels(self.dense(18), entropy_place)
        h = BddManager(18, levels.order).build_levels(levels)
        assert one_path_count(h) == 83_367 <= MAX_ONE_PATHS

    def test_cli_exits_2_with_one_line(self, capsys):
        for order in ("entropy", "sift"):
            start = time.perf_counter()
            assert main(["--benchmark", "1", "--bench-vars", "20", "--order", order]) == 2
            assert time.perf_counter() - start < 5, order
            err = capsys.readouterr().err
            assert err.startswith("dsopmin: error: one-path count")
            assert err.count("\n") == 1 and "Traceback" not in err


    def test_cli_pla_exits_2_with_one_line(self, capsys, dense_20_pla):
        # the dense n=20 PLA is read, then refused by the budget
        start = time.perf_counter()
        assert main(["--input", str(dense_20_pla[0])]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("dsopmin: error: one-path count 332509 exceeds the budget")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestOracleLimit:
    """With the oracle on, its stage runs first, so qm's variable limit
    refuses a wider table before any other stage."""

    def test_refused_before_any_stage(self, monkeypatch):
        def never(*args):
            raise AssertionError("a stage ran before the oracle")

        monkeypatch.setattr(cli.bdd, "split_levels", never)
        tt = TruthTable(17, random.Random("dense/17").getrandbits(1 << 17))
        with pytest.raises(ValueError, match="variable count 17 exceeds QM limit 16"):
            run_pipeline(tt, PipelineConfig(oracle=True))

    def test_cli_exits_2_with_one_line(self, capsys):
        start = time.perf_counter()
        assert main(["--benchmark", "1", "--bench-vars", "17", "--oracle", "qm"]) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err == "dsopmin: error: variable count 17 exceeds QM limit 16\n"


class TestMain:
    def test_minterms_run(self, capsys):
        rc = main(["--minterms", "4:1,5,6,9,12,13,14,15", "--emit", "dsop,sop",
                   "--oracle", "qm"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ab + c'd + bcd'" in out or "c'd + bcd' + ab" in out
        assert "order: b a c d" in out

    def test_constant_zero_at_the_table_cap(self, capsys):
        assert main(["--minterms", "24:"]) == 0
        assert "sop (0 cubes, 0 literals): 0" in capsys.readouterr().out

    def test_pla_input(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(GOLDEN_PLA)
        rc = main(["--input", str(pla), "--report", str(tmp_path / "r.json")])
        assert rc == 0
        records = json.loads((tmp_path / "r.json").read_text())
        assert records[0]["sop_cubes"] == 3

    def test_given_order(self, capsys):
        rc = main(["--minterms", "4:1,5,6,9,12,13,14,15", "--order", "given"])
        assert rc == 0
        assert "nodes: 7" in capsys.readouterr().out

    def test_bad_pla_exit_code(self, tmp_path, capsys):
        pla = tmp_path / "bad.pla"
        pla.write_text(".i 2\n.o 2\n11 10\n.e\n")
        assert main(["--input", str(pla)]) == 2

    @pytest.mark.parametrize("pla", [
        ".i\n.o 1\n.e\n",
        ".i 2\n.o\n.e\n",
        ".i 25\n.o 1\n" + "-" * 25 + " 1\n.e\n",
    ])
    def test_bad_directive_clean_exit(self, tmp_path, capsys, pla):
        path = tmp_path / "bad.pla"
        path.write_text(pla)
        assert main(["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dsopmin: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["0", "25"])
    def test_bench_vars_out_of_range(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "1", "--bench-vars", n])
        assert exc.value.code == 2
        assert "--bench-vars" in capsys.readouterr().err

    def test_unknown_emit_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--minterms", "2:1", "--emit", "sop,pos"])
        assert exc.value.code == 2
        assert "unknown emit kind 'pos'" in capsys.readouterr().err

    def test_no_input_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--emit", "sop"])
        assert exc.value.code == 2
        assert "one of --input, --minterms, --benchmark is required" in capsys.readouterr().err

    def test_csv_equals_emit_csv(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        assert main(["--minterms", "4:1,5,6,9,12,13,14,15", "--oracle", "qm", "--no-timing",
                     "--csv", str(path)]) == 0
        report, _ = run_pipeline(truthtable_from_minterms(4, [1, 5, 6, 9, 12, 13, 14, 15]),
                                 PipelineConfig(oracle=True))
        report.timings_ms.clear()
        emit_csv([report], str(tmp_path / "want.csv"))
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_invariant_violation_exits_1(self, monkeypatch, capsys):
        problems = ["dsop_cubes 5 != one_paths 4", "sop_cubes 6 > dsop_cubes 5"]
        monkeypatch.setattr(StatsReport, "check", lambda self: problems)
        assert main(["--minterms", "4:1,5,6,9,12,13,14,15"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"dsopmin: invariant violation: {p}" for p in problems]

    def test_unknown_ordering(self, golden_tt):
        with pytest.raises(ValueError, match="unknown ordering mode 'random'"):
            run_pipeline(golden_tt, PipelineConfig(ordering="random"))

    def test_negative_benchmark_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "-1"])
        assert exc.value.code == 2
        assert "--benchmark" in capsys.readouterr().err

    # argparse's type=int takes "1_0" as 10 and "\u0663" as 3 too
    @pytest.mark.parametrize("value", ["1_0", "\u0663", "x"])
    @pytest.mark.parametrize("flag", ["--benchmark", "--seed", "--bench-vars"])
    def test_int_options_need_ascii_digits(self, capsys, flag, value):
        options = {"--benchmark": "1", "--bench-vars": "3", "--seed": "0", flag: value}
        with pytest.raises(SystemExit) as exc:
            main([word for item in options.items() for word in item])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"dsopmin: error: argument {flag}: not a decimal integer: {value!r}\n")

    def test_int_options_signs_and_spaces(self, capsys):
        assert main(["--benchmark", " +2", "--bench-vars", "3 ", "--seed", "-3"]) == 0
        assert capsys.readouterr().out == "benchmark: 2 runs, n=3, seed=-3\n"

    # a reader that closes stdout early (`| head`) makes a write or the last
    # flush raise BrokenPipeError: no bad input, so no error line and not 2
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout(self, monkeypatch, capsys, failing):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["--minterms", "4:1,5,6,9,12,13,14,15", "--emit", "dsop,sop"]) == 141
        assert sys.stdout is None  # the flush at exit finds nothing to write
        assert capsys.readouterr().err == ""

    def test_no_stdout(self, monkeypatch, capsys):
        # a process started with fd 1 closed has sys.stdout None: print
        # writes nothing, and the flush must not fail either
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--minterms", "4:1,5,6,9,12,13,14,15"]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_process(self):
        # the whole process, buffered, on a pipe whose reader is gone before
        # it starts: the status and the empty stderr include the flush at exit
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "dsopmin", "--minterms", "4:1,5,6"],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.parametrize("spec", ["4:1,,2", "4:1,", "4:,1", "4:,", "4: , "])
    def test_empty_minterm_entry_refused(self, capsys, spec):
        assert main(["--minterms", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: malformed minterm spec {spec!r}\n"

    # int() reads "1_0" as 10 and other scripts' digits as their values
    @pytest.mark.parametrize("spec", ["4:1_0", "4:\u0661", "4:1,\u0662", "\u0664:1", "1_0:1"])
    def test_minterm_spec_needs_ascii_digits(self, capsys, spec):
        assert main(["--minterms", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: malformed minterm spec {spec!r}\n"

    @pytest.mark.parametrize("spec, minterms", [(" 4 : 1 , 2 ", [1, 2]), ("+4:+3", [3])])
    def test_minterm_spec_signs_and_spaces(self, spec, minterms):
        assert parse_minterms(spec) == truthtable_from_minterms(4, minterms)

    @pytest.mark.parametrize("directive, arg", [(".i", "1_0"), (".i", "\u0664"), (".o", "1_0")])
    def test_directive_needs_ascii_digits(self, tmp_path, capsys, directive, arg):
        pla = tmp_path / "bad.pla"
        other = ".o 1" if directive == ".i" else ".i 2"
        pla.write_text(f"{directive} {arg}\n{other}\n11 1\n.e\n")
        assert main(["--input", str(pla)]) == 2
        assert capsys.readouterr().err == (
            f"dsopmin: error: {directive} argument {arg!r} is not an integer\n")

    def test_directive_sign_and_spaces(self):
        tt, _ = parse_pla(".i  +2 \n.o 1\n11 1\n.e\n")
        assert (tt.n, set(tt.minterms())) == (2, {3})

    @pytest.mark.parametrize("spec", ["4:", "4: "])
    def test_empty_minterm_list_is_constant_zero(self, capsys, spec):
        assert main(["--minterms", spec]) == 0
        assert "sop (0 cubes, 0 literals): 0" in capsys.readouterr().out

    def test_huge_minterm_variable_count(self, capsys):
        # n is checked before any 2^n-sized value is formed
        assert main(["--minterms", "99999999999:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dsopmin: error:")
        assert err.count("\n") == 1 and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(text=pla_texts(), order=st.sampled_from(["entropy", "given", "sift"]),
           oracle=st.booleans())
    def test_fuzz_pla_text(self, text, order, oracle):
        # any PLA text: exit 0 with a clean stderr, or exit 2 with exactly
        # one error line; never a traceback, never an invariant violation
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.pla")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["--input", path, "--order", order] + ["--oracle", "qm"] * oracle)
        err = err.getvalue()
        assert rc in (0, 2), (text, err)
        assert "Traceback" not in err
        if rc == 2:
            assert err.startswith("dsopmin: error:") and err.count("\n") == 1, (text, err)
        else:
            assert err == "" and out.getvalue().startswith("sop ("), (text, err)

    def test_missing_input_file(self, capsys):
        assert main(["--input", "/nonexistent/f.pla"]) == 2

    def test_benchmark_mode(self, tmp_path, capsys):
        rc = main(["--benchmark", "5", "--bench-vars", "3", "--seed", "1",
                   "--no-timing", "--report", str(tmp_path / "b.json")])
        assert rc == 0
        records = json.loads((tmp_path / "b.json").read_text())
        assert len(records) == 5

    def test_unwritable_report(self, capsys):
        rc = main(["--minterms", "2:1", "--report", "/nonexistent/dir/r.json"])
        assert rc == 2

    def test_custom_names(self, capsys):
        rc = main(["--minterms", "2:3", "--names", "p,q"])
        assert rc == 0
        assert "pq" in capsys.readouterr().out

    def test_name_count_checked_before_pipeline(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("run_pipeline ran before the name check")

        monkeypatch.setattr(cli, "run_pipeline", never)
        assert main(["--minterms", "3:1", "--names", "p,q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dsopmin: error: variable name count does not match n\n"

    @pytest.mark.parametrize("names, error", [
        ("", "variable name count does not match n"),
        (",,", "empty variable name"),
        ("p,,q", "empty variable name"),
        ("a,a,b", "repeated variable name 'a'"),
        ("p,q,q", "repeated variable name 'q'"),
        ("a b,c,d", "variable name 'a b' holds whitespace, ' or +"),
        ("p,\tq,r", "variable name '\\tq' holds whitespace, ' or +"),
        ("p,q',r", "variable name \"q'\" holds whitespace, ' or +"),
        ("p,q,r+s", "variable name 'r+s' holds whitespace, ' or +"),
    ])
    def test_names_refused(self, monkeypatch, capsys, names, error):
        def never(*args):
            raise AssertionError("run_pipeline ran before the name check")

        monkeypatch.setattr(cli, "run_pipeline", never)
        assert main(["--minterms", "3:1", "--names", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: {error}\n"

    def test_ilb_repeated_name_refused(self, tmp_path, capsys):
        path = tmp_path / "f.pla"
        path.write_text(GOLDEN_PLA.replace(".ilb a b c d", ".ilb a b a d"))
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dsopmin: error: repeated variable name 'a'\n"

    @pytest.mark.parametrize("ilb, name", [(".ilb a b' c d", "\"b'\""), (".ilb a b c+d e", "'c+d'")])
    def test_ilb_name_with_separator_refused(self, tmp_path, capsys, ilb, name):
        # format_expression prints whitespace, ' and + between and after
        # names, so a name holding one would make the printed SOP ambiguous
        path = tmp_path / "f.pla"
        path.write_text(GOLDEN_PLA.replace(".ilb a b c d", ilb))
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: variable name {name} holds whitespace, ' or +\n"

    @pytest.mark.parametrize("argv, error", [
        # the cube a·b and the literal ab would both print as ab
        (["--minterms", "3:6,7", "--names", "a,b,ab"],
         "variable names a,b,ab run together: a cube's literals, printed side by side, "
         "could be read two ways"),
        (["--minterms", "3:1,3,5,7", "--names", "a,b,ab"],
         "variable names a,b,ab run together: a cube's literals, printed side by side, "
         "could be read two ways"),
        # the literal would print as the constant 1
        (["--minterms", "2:2,3", "--names", "1,b"], "variable name '1' is the text of a constant"),
        (["--minterms", "2:2,3", "--names", "b,0"], "variable name '0' is the text of a constant"),
        # the cube ab·c and the literal abc
        (["--minterms", "3:1", "--names", "ab,c,abc"],
         "variable names ab,c,abc run together: a cube's literals, printed side by side, "
         "could be read two ways"),
    ])
    def test_names_that_print_ambiguously_refused(self, monkeypatch, capsys, argv, error):
        def never(*args):
            raise AssertionError("run_pipeline ran before the name check")

        monkeypatch.setattr(cli, "run_pipeline", never)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: {error}\n"

    def test_ilb_names_that_run_together_refused(self, tmp_path, capsys):
        path = tmp_path / "f.pla"
        path.write_text(GOLDEN_PLA.replace(".ilb a b c d", ".ilb a bc ab c"))
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("dsopmin: error: variable names a,bc,ab,c run together: a cube's "
                                "literals, printed side by side, could be read two ways\n")

    @pytest.mark.parametrize("names", ["x1,x10", ",".join(f"x{i}" for i in range(12))])
    def test_names_that_read_back_one_way_accepted(self, capsys, names):
        n = names.count(",") + 1
        assert main(["--minterms", f"{n}:{(1 << n) - 1}", "--names", names, "--emit", "sop"]) == 0
        assert f"sop (1 cubes, {n} literals): {names.replace(',', '')}\n" in capsys.readouterr().out

    def test_long_name_refused_before_decodability(self, monkeypatch, tmp_path, capsys):
        # a name past MAX_NAME_LENGTH exits 2 before the Sardinas-Patterson
        # test, whose time grows with name length (a long prefix chain
        # of another name took seconds); a name of the longest length passes
        def never(words):
            raise AssertionError("the decodability test ran on an over-long name")

        monkeypatch.setattr(cli, "_uniquely_decodable", never)
        chain = "a" * 30_000 + "b"
        path = tmp_path / "f.pla"
        path.write_text(GOLDEN_PLA.replace(".ilb a b c d", f".ilb a b c {chain}"))
        for argv in (["--minterms", "2:3", "--names", f"a,{chain}"], ["--input", str(path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("dsopmin: error: variable name of 30001 characters: "
                                    f"at most {cli.MAX_NAME_LENGTH} are accepted\n")
        monkeypatch.undo()
        longest = "a" * (cli.MAX_NAME_LENGTH - 1) + "b"
        assert main(["--minterms", "2:3", "--names", f"a,{longest}", "--emit", "sop"]) == 0
        assert f"sop (1 cubes, 2 literals): a{longest}\n" in capsys.readouterr().out

    def test_uniquely_decodable(self):
        # Sardinas-Patterson on codes whose answers are known
        assert cli._uniquely_decodable(["a", "ba", "bb"])  # a prefix code
        assert cli._uniquely_decodable(["1", "10", "100"])  # not prefix-free, yet decodable
        assert not cli._uniquely_decodable(["0", "01", "10"])  # 010 = 0.10 = 01.0
        assert not cli._uniquely_decodable(["1", "011", "01110", "1110", "10011"])
        assert cli._uniquely_decodable(["a", "a'", "b", "b'"])
        names = [f"x{i}" for i in range(24)]
        assert cli._uniquely_decodable(names + [name + "'" for name in names])

    @pytest.mark.parametrize("line", [".i 4", ".i 3", ".o 1", ".ilb a b c d", ".ilb"])
    def test_repeated_directive_refused(self, tmp_path, capsys, line):
        # a second .i, .o or .ilb line is refused where it stands, not
        # read over the first
        path = tmp_path / "f.pla"
        path.write_text(GOLDEN_PLA.replace("0001 1", f"0001 1\n{line}"))
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dsopmin: error: repeated {line.split()[0]} directive\n"

    def test_python_m_dsopmin(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dsopmin", "--minterms", "4:1,5,6,9,12,13,14,15"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("sop (3 cubes, 7 literals): ")
        assert "order: b a c d" in proc.stdout

    def test_dsopmin_module_main(self, monkeypatch, capsys):
        # __main__ run in this process, the way python -m runs it
        monkeypatch.setattr(sys, "argv", ["dsopmin", "--minterms", "4:1,5,6,9,12,13,14,15"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("dsopmin", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sop (3 cubes, 7 literals): ")
