import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dsopmin.boolfn import truthtable_from_minterms
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

from conftest import oracle_cover_minterms

GOLDEN_PLA = "\n".join(
    [".i 4", ".o 1", ".ilb a b c d"]
    + [f"{m:04b} 1" for m in [1, 5, 6, 9, 12, 13, 14, 15]]
    + [".e"]
)


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

    def test_oracle(self, golden_tt):
        report, _ = run_pipeline(golden_tt, PipelineConfig(oracle=True))
        assert report.oracle_cubes == 3
        assert report.oracle_literals == 7
        assert report.check() == []

    def test_sparse_pla_at_n18(self):
        # wide-PLA shape (4 three-literal and 8 four-literal cubes) near
        # the table cap: entropy ordering and BDD construction must not
        # walk the 2^18 minterms one by one
        n = 18
        rng = random.Random("sparse-pla/18")
        cubes = []
        for k in (3,) * 4 + (4,) * 8:
            cube = ["-"] * n
            for v in rng.sample(range(n), k):
                cube[v] = rng.choice("01")
            cubes.append("".join(cube))
        pla = "\n".join([f".i {n}", ".o 1"] + [f"{c} 1" for c in cubes] + [".e"])
        tt, _ = parse_pla(pla)
        start = time.perf_counter()
        report, outputs = run_pipeline(tt, PipelineConfig())
        assert time.perf_counter() - start < 10.0
        assert report.check() == []
        sop = [format_cube(c) for c in outputs["sop"]]
        assert oracle_cover_minterms(sop) == oracle_cover_minterms(cubes)


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
        assert len(lines) == 2

    def test_invariant_checker(self):
        bad = StatsReport(n=2, order=(0, 1), bdd_nodes=1, one_paths=2,
                          dsop_cubes=3, sop_cubes=4, sop_literals=5)
        assert len(bad.check()) == 2


class TestBenchmark:
    def test_records_satisfy_invariants(self):
        cfg = PipelineConfig(oracle=True, seed=42, count=30, record_timings=False)
        reports = run_benchmark(cfg, 4)
        assert len(reports) == 30
        for r in reports:
            assert r.check() == []

    def test_fixed_seed_byte_stable(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            cfg = PipelineConfig(seed=7, count=10, record_timings=False)
            reports = run_benchmark(cfg, 4)
            p = tmp_path / name
            emit_report(reports, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


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
