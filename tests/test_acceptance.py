"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import pytest

from dsopmin import bdd, minimizer, qm
from dsopmin.bdd import (
    VariableOrder,
    build_from_truthtable,
    enumerate_one_paths,
    node_count,
    one_path_count,
    sift_paths,
)
from dsopmin.boolfn import (
    Cover,
    TruthTable,
    cover_to_truthtable,
    format_cube,
    literal_count,
    truthtable_cofactor,
    truthtable_from_minterms,
)
from dsopmin.cli import PipelineConfig, emit_report, run_benchmark
from dsopmin.ordering import cofactor_entropy, entropy_order, variable_entropy

from conftest import (
    GOLDEN_MINTERMS,
    brute_force_primes,
    oracle_disjoint,
    oracle_minterms,
    pipeline_sop,
)


def report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_end_to_end():
    tt = truthtable_from_minterms(4, GOLDEN_MINTERMS)
    start = time.perf_counter()

    order = entropy_order(tt)
    assert order.perm == (1, 0, 2, 3)  # b, a, c, d

    h_given = build_from_truthtable(tt, VariableOrder((0, 1, 2, 3)))
    assert node_count(h_given) == 7
    h = build_from_truthtable(tt, order)
    assert node_count(h) == 6

    dsop = enumerate_one_paths(h)
    assert {format_cube(c) for c in dsop} == {"1122", "0110", "2001", "0101"}

    sop = pipeline_sop(tt)
    assert {format_cube(c) for c in sop} == {"1122", "2201", "2110"}
    assert len(sop.cubes) == 3
    # the mandated cover's literal total, counted from its own cube texts
    # (the criterion's figure of 8 miscounts ab + c'd + bcd'; see notes)
    expected_literals = sum(
        1 for t in ("1122", "2201", "2110") for ch in t if ch != "2")
    assert expected_literals == 7
    assert literal_count(sop) == expected_literals

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, True)


def test_criterion_2_entropy_table():
    tt = truthtable_from_minterms(4, GOLDEN_MINTERMS)
    tol = 1e-3
    assert cofactor_entropy(tt, 0, False) == pytest.approx(0.954, abs=tol)
    assert variable_entropy(tt, 1) == pytest.approx(0.811, abs=tol)
    b0 = truthtable_cofactor(tt, 1, False)   # over (a, c, d)
    assert variable_entropy(b0, 1) == pytest.approx(0.5, abs=tol)
    assert cofactor_entropy(b0, 1, True) == pytest.approx(0.0, abs=tol)
    b1 = truthtable_cofactor(tt, 1, True)
    assert variable_entropy(b1, 0) == pytest.approx(0.5, abs=tol)
    report(2, True)


SUITE_500 = None


def _suite_500():
    global SUITE_500
    if SUITE_500 is None:
        rng = random.Random(20240)
        SUITE_500 = []
        for _ in range(500):
            n = rng.randint(3, 8)
            SUITE_500.append(TruthTable(n, rng.getrandbits(1 << n)))
    return SUITE_500


def test_criterion_3_dsop_soundness():
    start = time.perf_counter()
    for tt in _suite_500():
        h = build_from_truthtable(tt, entropy_order(tt))
        dsop = enumerate_one_paths(h)
        assert one_path_count(h) == len(dsop.cubes)
        assert oracle_disjoint(format_cube(c) for c in dsop)
        assert cover_to_truthtable(dsop).bits == tt.bits
    assert time.perf_counter() - start < 60.0
    report(3, True)


def test_criterion_4_minimizer_soundness():
    for tt in _suite_500():
        h = build_from_truthtable(tt, entropy_order(tt))
        dsop = enumerate_one_paths(h)
        sop = pipeline_sop(tt)
        assert cover_to_truthtable(sop).bits == tt.bits
        assert len(sop.cubes) <= len(dsop.cubes)
        on = set(tt.minterms())
        for c in sop:
            assert oracle_minterms(format_cube(c)) <= on
        for i in range(len(sop.cubes)):
            rest = Cover(tt.n, sop.cubes[:i] + sop.cubes[i + 1:])
            assert cover_to_truthtable(rest).bits != tt.bits
    report(4, True)


def test_criterion_5_oracle_dominance():
    rng = random.Random(50505)
    for _ in range(200):
        n = rng.randint(3, 6)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        assert len(qm.exact_cover(tt).cubes) <= len(pipeline_sop(tt).cubes)
    # exhaustive prime-set verification on small n
    rng = random.Random(50607)
    for _ in range(200):
        n = rng.randint(1, 4)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        got = {format_cube(p) for p in qm.prime_implicants(tt)}
        assert got == brute_force_primes(tt)
    report(5, True)


def test_criterion_6_sifting_monotonicity():
    rng = random.Random(60606)
    for _ in range(100):
        n = rng.randint(4, 8)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        h = build_from_truthtable(tt)
        before = one_path_count(h)
        sift_paths(h.manager, h)
        assert one_path_count(h) <= before

    tt = truthtable_from_minterms(4, GOLDEN_MINTERMS)
    # exhaustive check: the global P1 minimum over all 24 orders is 4
    best = min(
        one_path_count(build_from_truthtable(tt, VariableOrder(p)))
        for p in itertools.permutations(range(4))
    )
    assert best == 4
    h = build_from_truthtable(tt, VariableOrder((0, 1, 2, 3)))
    sift_paths(h.manager, h)
    assert one_path_count(h) == 4
    report(6, True)


def test_criterion_7_benchmark_harness(tmp_path):
    cfg = PipelineConfig(oracle=True, record_timings=False)
    reports = run_benchmark(cfg, 4, count=100, seed=777)
    assert len(reports) == 100
    for r in reports:
        assert r.dsop_cubes == r.one_paths
        assert r.sop_cubes <= r.dsop_cubes
        assert r.oracle_cubes is not None and r.oracle_cubes <= r.sop_cubes
        assert r.check() == []
    emit_report(reports, str(tmp_path / "bench.json"))
    # seeded rerun is byte-for-byte identical
    rerun = run_benchmark(PipelineConfig(oracle=True, record_timings=False), 4,
                          count=100, seed=777)
    emit_report(rerun, str(tmp_path / "bench2.json"))
    assert (tmp_path / "bench.json").read_bytes() == (tmp_path / "bench2.json").read_bytes()
    report(7, True)
