import contextlib
import itertools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dsopmin import boolfn, cli
from dsopmin.bdd import BddManager, one_path_count
from dsopmin.boolfn import (
    MAX_ONE_PATHS,
    TruthTable,
    cofactor_bits,
    literal_count,
    truthtable_from_minterms,
)
from dsopmin.cli import (
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
from dsopmin.ordering import entropy_levels

from conftest import (
    oracle_cover_minterms,
    oracle_same_function,
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


def seeded_pla(rng, n):
    """Valid PLA text that uses every accepted form: comments, blank lines,
    "-" and "2", 0-output lines, .ilb, .p, .ob, and text after .e."""
    lines = ["# seeded", f".i {n}", "", ".o 1  # one output", f".p {rng.randint(0, 40)}"]
    if rng.random() < 0.5:
        lines.append(".ilb " + " ".join(f"x{v}" for v in range(n)))
    if rng.random() < 0.3:
        lines.append(".ob f")
    for _ in range(rng.randint(0, 30)):
        text = "".join(rng.choice("01-2") for _ in range(n))
        line = f"{text} {rng.choice('0111')}"
        lines.append(rng.choice([line, line, f"  {line}  ", f"{line} # note", ""]))
    lines.append(".e")
    lines += rng.choice([[], ["11 1", ".i x", "garbage"]])
    return "\n".join(lines)


# One bad line of each kind that the reader rejects, for a four-input PLA.
# Lines are read (directives, two fields per cube line) before any cube's
# fields are decoded, so an error of the first group comes before one of
# the second wherever they stand, as in the former reader.
BAD_READ_LINES = [".type fr", ".i", ".i x", ".i 0", ".i 25", ".o 2", ".o 1.5", "1 1 1", "1011"]
BAD_CUBE_LINES = ["101 1", "10110 0", "1x01 1", "10_1 0", "1011 -", "1011 ~", "1011 2",
                  "1011 10"]


class TestParsePlaReference:
    """parse_pla against the former reader (conftest.ref_parse_pla): equal
    tables and names, and the same error for every kind of bad line."""

    def test_seeded_plas(self):
        rng = random.Random("parse-pla-reference")
        for _ in range(300):
            text = seeded_pla(rng, rng.randint(1, 12))
            got = parse_pla(text)
            assert got == ref_parse_pla(text)

    @pytest.mark.parametrize("bad", BAD_READ_LINES + BAD_CUBE_LINES)
    def test_each_bad_line(self, bad):
        base = [".i 4", ".o 1", "1-01 1", "0000 0", "22-1 1", ".e"]
        for at in range(2, 6):
            text = "\n".join(base[:at] + [bad] + base[at:])
            got = parse_outcome(parse_pla, text)
            assert isinstance(got[0], type) and issubclass(got[0], ValueError)
            assert got == parse_outcome(ref_parse_pla, text)

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
                text = "\n".join([".i 4", ".o 1", "1-01 1", first, "0000 0", second, ".e"])
                alone = "\n".join([".i 4", ".o 1", "1-01 1", first, "0000 0", ".e"])
                got = parse_outcome(parse_pla, text)
                assert got == parse_outcome(parse_pla, alone) == parse_outcome(ref_parse_pla, text)

    def test_read_errors_come_first(self):
        for cube_line, read_line in itertools.product(BAD_CUBE_LINES, BAD_READ_LINES):
            for pair in ((cube_line, read_line), (read_line, cube_line)):
                text = "\n".join([".i 4", ".o 1", *pair, ".e"])
                alone = "\n".join([".i 4", ".o 1", read_line, ".e"])
                got = parse_outcome(parse_pla, text)
                assert got == parse_outcome(parse_pla, alone) == parse_outcome(ref_parse_pla, text)

    @settings(max_examples=300, deadline=None)
    @given(text=pla_texts())
    def test_fuzz_matches_reference(self, text):
        assert parse_outcome(parse_pla, text) == parse_outcome(ref_parse_pla, text)


class TestCubeConstructions:
    """Cubes are built only for the covers a caller receives: run_pipeline
    makes exactly len(dsop) + len(sop) of them, and parse_pla none.  Every
    Cube, whether constructed or filled in by Cover.of_pairs, gets its n
    through boolfn._set_n once, so that is where they are counted."""

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
        # each side, whichever module asks
        calls = []

        def counting(*args):
            calls.append(args)
            return cofactor_bits(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dsopmin" and getattr(module, "cofactor_bits", None) is cofactor_bits:
                monkeypatch.setattr(module, "cofactor_bits", counting)
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


class TestBenchmark:
    def test_records_satisfy_invariants(self):
        cfg = PipelineConfig(oracle=True, record_timings=False)
        reports = run_benchmark(cfg, 4, count=30, seed=42)
        assert len(reports) == 30
        for r in reports:
            assert r.check() == []

    def test_fixed_seed_byte_stable(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            cfg = PipelineConfig(record_timings=False)
            reports = run_benchmark(cfg, 4, count=10, seed=7)
            p = tmp_path / name
            emit_report(reports, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


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
        levels = entropy_levels(self.dense(18))
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


class TestMain:
    def test_minterms_run(self, capsys):
        rc = main(["--minterms", "4:1,5,6,9,12,13,14,15", "--emit", "dsop,sop",
                   "--oracle", "qm"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ab + c'd + bcd'" in out or "c'd + bcd' + ab" in out
        assert "order: b a c d" in out

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

    def test_negative_benchmark_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "-1"])
        assert exc.value.code == 2
        assert "--benchmark" in capsys.readouterr().err

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

    def test_python_m_dsopmin(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dsopmin", "--minterms", "4:1,5,6,9,12,13,14,15"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "order: b a c d" in proc.stdout
