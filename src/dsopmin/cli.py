"""Command-line front end and benchmark harness.

Runs the truth-table -> entropy order -> BDD -> disjoint cubes ->
minimized SOP pipeline on a PLA file or a minterm list, optionally
cross-checks against the exact Quine-McCluskey cover, and emits
machine-readable JSON reports (plus an optional CSV table).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import bdd, minimizer, qm
from .bdd import VariableOrder
from .boolfn import (
    MAX_ONE_PATHS,
    MAX_TABLE_VARS,
    Cover,
    TruthTable,
    decode_cube,
    literal_count,
    pair_mask,
    truthtable_from_minterms,
)
from .minimizer import default_names, format_expression
from .ordering import entropy_levels

REPORT_SCHEMA = "dsopmin-report/1"

STAGES = ("order", "build", "dsop", "minimize", "oracle")

# a record's keys in column order; the last len(STAGES) are the stage times
RECORD_FIELDS = ("schema", "n", "order", "bdd_nodes", "one_paths", "dsop_cubes",
                 "sop_cubes", "sop_literals", "oracle_cubes", "oracle_literals",
                 *(f"time_{stage}_ms" for stage in STAGES))

ORDERINGS = ("entropy", "given", "sift")


class PlaError(ValueError):
    pass


def _directive_int(parts: List[str]) -> int:
    if len(parts) < 2:
        raise PlaError(f"{parts[0]} needs an integer argument")
    try:
        return int(parts[1])
    except ValueError:
        raise PlaError(f"{parts[0]} argument {parts[1]!r} is not an integer") from None


@dataclass
class PipelineConfig:
    ordering: str = "entropy"  # one of ORDERINGS
    oracle: bool = False
    record_timings: bool = True


@dataclass
class StatsReport:
    n: int
    order: Tuple[int, ...]
    bdd_nodes: int
    one_paths: int
    dsop_cubes: int
    sop_cubes: int
    sop_literals: int
    oracle_cubes: Optional[int] = None
    oracle_literals: Optional[int] = None
    timings_ms: Dict[str, float] = field(default_factory=dict)

    def check(self) -> List[str]:
        """Invariant violations, empty when the record is consistent."""
        problems = []
        if self.dsop_cubes != self.one_paths:
            problems.append(f"dsop_cubes {self.dsop_cubes} != one_paths {self.one_paths}")
        if self.sop_cubes > self.dsop_cubes:
            problems.append(f"sop_cubes {self.sop_cubes} > dsop_cubes {self.dsop_cubes}")
        if self.oracle_cubes is not None and self.oracle_cubes > self.sop_cubes:
            problems.append(f"oracle_cubes {self.oracle_cubes} > sop_cubes {self.sop_cubes}")
        return problems

    def to_record(self) -> Dict[str, object]:
        """The report keyed by RECORD_FIELDS, in that order."""
        values = dict(vars(self), schema=REPORT_SCHEMA, order=list(self.order))
        values.update(zip(RECORD_FIELDS[-len(STAGES):],
                          (self.timings_ms.get(stage, 0.0) for stage in STAGES)))
        return {key: values[key] for key in RECORD_FIELDS}


def parse_pla(text: str) -> Tuple[TruthTable, Optional[List[str]]]:
    """Parse the single-output PLA subset; listed cubes define the ON-set."""
    n: Optional[int] = None
    out_count: Optional[int] = None
    names: Optional[List[str]] = None
    cubes: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key == ".i":
                n = _directive_int(parts)
                if not 1 <= n <= MAX_TABLE_VARS:
                    raise PlaError(f".i {n} outside [1, {MAX_TABLE_VARS}]")
            elif key == ".o":
                out_count = _directive_int(parts)
                if out_count != 1:
                    raise PlaError("only single-output functions are supported (.o 1)")
            elif key == ".ilb":
                names = parts[1:]
            elif key in (".ob", ".p"):
                pass
            elif key == ".e":
                break
            else:
                raise PlaError(f"unsupported PLA directive {key}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PlaError(f"malformed cube line {line!r}")
        cubes.append((parts[0], parts[1]))

    if n is None:
        raise PlaError("missing .i directive")
    if out_count is None:
        raise PlaError("missing .o directive")
    if names is not None and len(names) != n:
        raise PlaError(".ilb name count does not match .i")

    bits = 0
    for in_part, out_part in cubes:
        if out_part == "-" or out_part == "~":
            raise PlaError("don't-care outputs not supported (completely specified only)")
        if out_part not in ("0", "1"):
            raise PlaError(f"malformed output field {out_part!r}")
        care, value = decode_cube(in_part, n)
        if out_part == "1":
            bits |= pair_mask(n, care, value)
    return TruthTable(n, bits), names


def parse_minterms(spec: str) -> TruthTable:
    """Parse the "N:i,i,..." shorthand; "N:" means the constant-0 function."""
    try:
        head, _, tail = spec.partition(":")
        n = int(head)
        minterms = [int(t) for t in tail.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"malformed minterm spec {spec!r}") from None
    return truthtable_from_minterms(n, minterms)


def run_pipeline(tt: TruthTable, cfg: PipelineConfig) -> Tuple[StatsReport, Dict[str, Cover]]:
    """Execute the configured pipeline; returns stats plus dsop/sop covers."""
    timings: Dict[str, float] = {}

    def clock(stage: str, start: float) -> None:
        if cfg.record_timings:
            timings[stage] = (time.perf_counter() - start) * 1000.0

    # in entropy mode the ordering's descent is the BDD's: its nodes are
    # made from the ordering's splits instead of cofactoring the table again
    if cfg.ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering mode {cfg.ordering!r}")
    t = time.perf_counter()
    levels = entropy_levels(tt) if cfg.ordering == "entropy" else None
    order = VariableOrder.identity(tt.n) if levels is None else levels.order
    clock("order", t)

    t = time.perf_counter()
    mgr = bdd.BddManager(tt.n, order)
    h = mgr.build(tt) if levels is None else mgr.build_levels(levels)
    # read before sifting, which costs most on large diagrams; sifting
    # never raises P1 (each variable ends at its best position, its start
    # among those scored), so the budget still bounds the DSOP
    p1 = bdd.one_path_count(h)
    if p1 > MAX_ONE_PATHS:
        raise ValueError(f"one-path count {p1} exceeds the budget of {MAX_ONE_PATHS}")
    if cfg.ordering == "sift":
        order = bdd.sift_paths(h.manager, h)
        p1 = bdd.one_path_count(h)
    nodes = bdd.node_count(h)
    clock("build", t)

    # (care, value) pairs from the walk to the SOP; Cubes only in the covers returned
    t = time.perf_counter()
    paths = bdd.one_paths(h)
    dsop = Cover.of_pairs(tt.n, paths)
    clock("dsop", t)

    t = time.perf_counter()
    pairs = minimizer.minimize(paths, tt.n, tt.bits)
    sop = Cover.of_pairs(tt.n, pairs)
    clock("minimize", t)

    oracle_cubes = oracle_literals = None
    if cfg.oracle:
        t = time.perf_counter()
        oracle = qm.exact_cover(tt)
        oracle_cubes = len(oracle.cubes)
        oracle_literals = literal_count(oracle)
        clock("oracle", t)

    report = StatsReport(
        n=tt.n,
        order=order.perm,
        bdd_nodes=nodes,
        one_paths=p1,
        dsop_cubes=len(dsop.cubes),
        sop_cubes=len(sop.cubes),
        sop_literals=sum(care.bit_count() for care, _ in pairs),
        oracle_cubes=oracle_cubes,
        oracle_literals=oracle_literals,
        timings_ms=timings,
    )
    return report, {"dsop": dsop, "sop": sop}


def emit_report(reports: Sequence[StatsReport], path: str) -> None:
    """JSON record array; byte-stable for identical report contents."""
    payload = [r.to_record() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_csv(reports: Sequence[StatsReport], path: str) -> None:
    """Delimited table for spreadsheet import, one row per run."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for r in reports:
            rec = r.to_record()
            rec["order"] = " ".join(str(v) for v in rec["order"])
            writer.writerow(rec)


def random_table(n: int, rng: random.Random) -> TruthTable:
    return TruthTable(n, rng.getrandbits(1 << n))


def run_benchmark(cfg: PipelineConfig, n: int, count: int, seed: int) -> List[StatsReport]:
    """Run count seeded random n-variable functions through the pipeline."""
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        tt = random_table(n, rng)
        report, _covers = run_pipeline(tt, cfg)
        reports.append(report)
    return reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsopmin",
        description="Two-level minimization via BDD one-path DSOP extraction",
    )
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--input", metavar="FILE.pla", help="single-output PLA input")
    src.add_argument("--minterms", metavar="N:LIST", help='minterm shorthand, e.g. "4:1,5,6,9"')
    src.add_argument("--benchmark", type=int, metavar="COUNT",
                     help="run COUNT seeded random functions instead of one input")
    parser.add_argument("--order", choices=ORDERINGS, default="entropy")
    parser.add_argument("--emit", default="sop", help="comma-separated subset of dsop,sop")
    parser.add_argument("--oracle", choices=["qm"], help="cross-check with the exact minimizer")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--csv", metavar="PATH", help="also write a CSV table")
    parser.add_argument("--names", help="comma-separated variable names")
    parser.add_argument("--seed", type=int, default=0, help="benchmark RNG seed")
    parser.add_argument("--bench-vars", type=int, default=4, help="benchmark variable count")
    parser.add_argument("--no-timing", action="store_true",
                        help="zero the timing fields (byte-stable reports)")
    return parser


def _run_one(args: argparse.Namespace, cfg: PipelineConfig, emit: Sequence[str]) -> StatsReport:
    """Read the one input, run it and print its covers and counts."""
    if args.input:
        with open(args.input) as fh:
            tt, names = parse_pla(fh.read())
    else:
        tt, names = parse_minterms(args.minterms), None
    if args.names:
        names = args.names.split(",")
    names = names or default_names(tt.n)
    if len(names) != tt.n:
        raise ValueError("variable name count does not match n")
    report, covers = run_pipeline(tt, cfg)
    if "dsop" in emit:
        print(f"dsop ({report.dsop_cubes} cubes): {format_expression(covers['dsop'], names)}")
    if "sop" in emit:
        print(f"sop ({report.sop_cubes} cubes, {report.sop_literals} literals): "
              f"{format_expression(covers['sop'], names)}")
    print(f"order: {' '.join(names[v] for v in report.order)}  nodes: {report.bdd_nodes}  "
          f"one-paths: {report.one_paths}")
    if report.oracle_cubes is not None:
        print(f"oracle: {report.oracle_cubes} cubes, {report.oracle_literals} literals")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.bench_vars <= MAX_TABLE_VARS:
        parser.error(f"--bench-vars must lie in [1, {MAX_TABLE_VARS}]")
    if args.benchmark is not None and args.benchmark < 0:
        parser.error("--benchmark COUNT must not be negative")

    emit = tuple(s for s in args.emit.split(",") if s)
    for s in emit:
        if s not in ("dsop", "sop"):
            parser.error(f"unknown emit kind {s!r}")

    if args.benchmark is None and not (args.input or args.minterms):
        parser.error("one of --input, --minterms, --benchmark is required")
    cfg = PipelineConfig(
        ordering=args.order,
        oracle=args.oracle == "qm",
        record_timings=not args.no_timing,
    )

    try:
        if args.benchmark is not None:
            reports = run_benchmark(cfg, args.bench_vars, args.benchmark, args.seed)
            print(f"benchmark: {len(reports)} runs, n={args.bench_vars}, seed={args.seed}")
        else:
            reports = [_run_one(args, cfg, emit)]
        if args.report:
            emit_report(reports, args.report)
        if args.csv:
            emit_csv(reports, args.csv)
    except (OSError, ValueError) as exc:
        print(f"dsopmin: error: {exc}", file=sys.stderr)
        return 2

    failures = [p for r in reports for p in r.check()]
    if failures:
        for p in failures:
            print(f"dsopmin: invariant violation: {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
