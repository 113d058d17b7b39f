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
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from . import bdd, minimizer, qm
from .boolfn import (
    MAX_ONE_PATHS,
    MAX_TABLE_VARS,
    Cover,
    TruthTable,
    decode_cube,
    decode_cubes,
    literal_count,
    truthtable_from_minterms,
    truthtable_from_pairs,
)
from .minimizer import default_names, format_expression
from .ordering import entropy_place

REPORT_SCHEMA = "dsopmin-report/1"

STAGES = ("order", "build", "dsop", "minimize", "oracle")

ORDERINGS = ("entropy", "given", "sift")

# The longest variable name accepted.  Names are checked for unique
# decodability, whose dangling suffixes grow with name length: with at
# most MAX_TABLE_VARS names of this length the check stays in milliseconds.
MAX_NAME_LENGTH = 64


class PlaError(ValueError):
    pass


def _decimal(text: str) -> int:
    """int(text) for ASCII digits only: int() also takes "1_0" as 10 and
    other scripts' digits, so a typo would name another number."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _decimal_option(text: str) -> int:
    """_decimal as an argparse type: the parser prints the text after the option."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}") from None


def _directive_int(parts: List[str]) -> int:
    if len(parts) < 2:
        raise PlaError(f"{parts[0]} needs an integer argument")
    try:
        return _decimal(parts[1])
    except ValueError:
        raise PlaError(f"{parts[0]} argument {parts[1]!r} is not an integer") from None


class PipelineConfig:
    __slots__ = ("ordering", "oracle")

    def __init__(self, ordering: str = "entropy", oracle: bool = False) -> None:
        self.ordering, self.oracle = ordering, oracle  # ordering is one of ORDERINGS


class StatsReport:
    # in RECORD_FIELDS' order, timings_ms last
    __slots__ = ("n", "order", "bdd_nodes", "one_paths", "dsop_cubes", "sop_cubes",
                 "sop_literals", "oracle_cubes", "oracle_literals", "timings_ms")

    def __init__(self, n: int, order: Tuple[int, ...], bdd_nodes: int, one_paths: int,
                 dsop_cubes: int, sop_cubes: int, sop_literals: int,
                 oracle_cubes: Optional[int] = None, oracle_literals: Optional[int] = None,
                 timings_ms: Optional[Dict[str, float]] = None) -> None:
        self.n, self.order, self.bdd_nodes, self.one_paths = n, order, bdd_nodes, one_paths
        self.dsop_cubes, self.sop_cubes, self.sop_literals = dsop_cubes, sop_cubes, sop_literals
        self.oracle_cubes, self.oracle_literals = oracle_cubes, oracle_literals
        self.timings_ms = {} if timings_ms is None else timings_ms

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
        record = {"schema": REPORT_SCHEMA}
        record.update((name, getattr(self, name)) for name in self.__slots__[:-1])
        record["order"] = list(self.order)
        record.update(zip(RECORD_FIELDS[-len(STAGES):],
                          (self.timings_ms.get(stage, 0.0) for stage in STAGES)))
        return record


# a record's keys in column order: the schema, StatsReport's counts, then
# timings_ms spread into one column per stage
RECORD_FIELDS = ("schema", *StatsReport.__slots__[:-1], *(f"time_{stage}_ms" for stage in STAGES))


def parse_pla(text: str) -> Tuple[TruthTable, Optional[List[str]]]:
    """Parse the single-output PLA subset; listed cubes define the ON-set.

    Each line is only split and its directive applied; the cube fields
    are checked in bulk after the last line, and only if a check fails
    are they walked in file order, so the first bad cube raises its error.
    """
    n: Optional[int] = None
    out_count: Optional[int] = None
    names: Optional[List[str]] = None
    cubes: List[str] = []  # each cube line's two fields, in file order
    headers: List[str] = []  # the .i, .o and .ilb lines read so far
    # the line list is a temporary of the loop, freed before the cubes are decoded
    for line in ([raw.partition("#")[0] for raw in text.splitlines()] if "#" in text
                 else text.splitlines()):
        parts = line.split()
        if not parts:
            continue
        key = parts[0]
        if key[0] == ".":
            if key in (".i", ".o", ".ilb"):  # each may appear once
                if key in headers:
                    raise PlaError(f"repeated {key} directive")
                headers.append(key)
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
            elif key == ".e":
                break
            elif key not in (".ob", ".p"):
                raise PlaError(f"unsupported PLA directive {key}")
            continue
        if len(parts) != 2:
            raise PlaError(f"malformed cube line {line.strip()!r}")
        cubes += parts

    if n is None:
        raise PlaError("missing .i directive")
    if out_count is None:
        raise PlaError("missing .o directive")
    if names is not None and len(names) != n:
        raise PlaError(".ilb name count does not match .i")

    ins, outs = cubes[::2], cubes[1::2]
    pairs = None if set(outs) - {"0", "1"} else decode_cubes(ins, n)
    if pairs is None:  # a check failed: the first bad cube in file order raises
        for in_part, out_part in zip(ins, outs):
            if out_part not in ("0", "1"):
                raise PlaError("don't-care outputs not supported (completely specified only)"
                               if out_part in ("-", "~") else f"malformed output field {out_part!r}")
            decode_cube(in_part, n)
    return truthtable_from_pairs(n, compress(pairs, map("1".__eq__, outs))), names


def parse_minterms(spec: str) -> TruthTable:
    """Parse the "N:i,i,..." shorthand; "N:" means the constant-0 function
    and an empty entry ("4:1,,2", "4:1,") is malformed."""
    try:
        head, _, tail = spec.partition(":")
        n = _decimal(head)
        minterms = [_decimal(t) for t in tail.split(",")] if tail.strip() else []
    except ValueError:
        raise ValueError(f"malformed minterm spec {spec!r}") from None
    return truthtable_from_minterms(n, minterms)


def run_pipeline(tt: TruthTable, cfg: PipelineConfig) -> Tuple[StatsReport, Dict[str, Cover]]:
    """Execute the configured pipeline; returns stats plus dsop/sop covers."""
    timings: Dict[str, float] = {}

    def clock(stage: str, start: float) -> None:
        timings[stage] = (time.perf_counter() - start) * 1000.0

    if cfg.ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering mode {cfg.ordering!r}")
    # first, so that qm.prime_implicants refuses a table over its limit
    # before any other stage runs
    oracle_cubes = oracle_literals = None
    if cfg.oracle:
        t = time.perf_counter()
        oracle = qm.exact_cover(tt)
        oracle_cubes = len(oracle.cubes)
        oracle_literals = literal_count(oracle)
        clock("oracle", t)

    # one descent orders the table and splits it, and the BDD's nodes are
    # made from its splits; given and sift descend in the input order
    t = time.perf_counter()
    rule = entropy_place if cfg.ordering == "entropy" else lambda level, remaining, tables, masks: 0
    levels = bdd.split_levels(tt, rule)
    clock("order", t)

    # P1 is read from the split, before any node is made or sifted;
    # sifting never raises P1 (each variable ends at its best position,
    # its start among those scored), so the budget still bounds the DSOP
    t = time.perf_counter()
    p1 = levels.one_paths()
    if p1 > MAX_ONE_PATHS:
        raise ValueError(f"one-path count {p1} exceeds the budget of {MAX_ONE_PATHS}")
    mgr = bdd.BddManager(tt.n, levels.order)
    h = mgr.build_levels(levels)
    del levels  # the splits are nodes now: free them before sifting and minimizing
    if cfg.ordering == "sift":
        p1 = bdd.sift_paths(mgr, h)
    nodes = mgr.live_size()
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

    report = StatsReport(
        n=tt.n,
        order=mgr.order.perm,
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


def run_benchmark(cfg: PipelineConfig, n: int, count: int, seed: int) -> List[StatsReport]:
    """Run count seeded random n-variable functions through the pipeline."""
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        report, _covers = run_pipeline(TruthTable(n, rng.getrandbits(1 << n)), cfg)
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
    src.add_argument("--benchmark", type=_decimal_option, metavar="COUNT",
                     help="run COUNT seeded random functions instead of one input")
    parser.add_argument("--order", choices=ORDERINGS, default="entropy")
    parser.add_argument("--emit", default="sop", help="comma-separated subset of dsop,sop")
    parser.add_argument("--oracle", choices=["qm"], help="cross-check with the exact minimizer")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--csv", metavar="PATH", help="also write a CSV table")
    parser.add_argument("--names", help="comma-separated variable names")
    parser.add_argument("--seed", type=_decimal_option, default=0, help="benchmark RNG seed")
    parser.add_argument("--bench-vars", type=_decimal_option, default=4,
                        help="benchmark variable count")
    parser.add_argument("--no-timing", action="store_true",
                        help="write the stage times as 0.0 (byte-stable reports)")
    return parser


def _uniquely_decodable(words: Sequence[str]) -> bool:
    """Whether every string of the words joined splits back into them one way.

    The Sardinas-Patterson test: a dangling suffix is what is left of one
    word past another that is its proper prefix, or, recursively, of a
    word past a dangling suffix or of a dangling suffix past a word; the
    words decode one way iff no dangling suffix is a word.  Each suffix is
    a suffix of a word, so the search ends.
    """
    code, seen = set(words), set()
    dangling = {w[len(u):] for u in code for w in code if w != u and w.startswith(u)}
    while dangling and not dangling & code:
        seen |= dangling
        dangling = ({w[len(s):] for s in dangling for w in code if w.startswith(s)}
                    | {s[len(w):] for s in dangling for w in code if s.startswith(w)}) - seen - {""}
    return not dangling


def _run_one(args: argparse.Namespace, cfg: PipelineConfig, emit: Sequence[str]) -> StatsReport:
    """Read the one input, run it and print its covers and counts."""
    if args.input:
        with open(args.input) as fh:
            tt, names = parse_pla(fh.read())
    else:
        tt, names = parse_minterms(args.minterms), None
    if args.names is not None:
        names = args.names.split(",")
    names = names or default_names(tt.n)
    if len(names) != tt.n:
        raise ValueError("variable name count does not match n")
    for i, name in enumerate(names):  # an expression must name each variable once
        if len(name) > MAX_NAME_LENGTH:
            raise ValueError(f"variable name of {len(name)} characters: "
                             f"at most {MAX_NAME_LENGTH} are accepted")
        if not name or name in names[:i]:
            raise ValueError(f"repeated variable name {name!r}" if name else "empty variable name")
        if name.split() != [name] or "'" in name or "+" in name:  # format_expression's separators
            raise ValueError(f"variable name {name!r} holds whitespace, ' or +")
        if name in ("0", "1"):
            raise ValueError(f"variable name {name!r} is the text of a constant")
    if not _uniquely_decodable(names + [name + "'" for name in names]):  # a cube joins its literals
        raise ValueError(f"variable names {','.join(names)} run together: "
                         "a cube's literals, printed side by side, could be read two ways")
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
    """Run the CLI; the exit status is 0 on success, 1 on an invariant
    violation, 2 on bad input or an unreadable or unwritable file, and 141
    (128 + SIGPIPE, what a shell shows for a program SIGPIPE ends) with no
    error line when stdout's reader closes it early, as ``| head`` does."""
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
    cfg = PipelineConfig(ordering=args.order, oracle=args.oracle == "qm")

    try:
        if args.benchmark is not None:
            reports = run_benchmark(cfg, args.bench_vars, args.benchmark, args.seed)
            print(f"benchmark: {len(reports)} runs, n={args.bench_vars}, seed={args.seed}")
        else:
            reports = [_run_one(args, cfg, emit)]
        if args.no_timing:
            for r in reports:
                r.timings_ms.clear()
        if args.report:
            emit_report(reports, args.report)
        if args.csv:
            emit_csv(reports, args.csv)
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:  # an OSError, but no bad input
        sys.stdout = None  # the unwritten rest is dropped: nothing left to flush at exit
        return 141
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
