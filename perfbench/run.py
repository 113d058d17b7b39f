#!/usr/bin/env python3
"""Seeded benchmark of the dsopmin pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process, one thread, closed loop: each
function starts when the previous one returns.  Every function goes
through ``cli.run_pipeline``, the call the CLI makes, and its covers
are checked by ``check.py``, which does not use dsopmin.  The run
repeats the workload's function set while another pass fits in
``--seconds`` (at least once).  Times are scaled to reference host
speed by ``hostspeed.py``; raw wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Either
way the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-function records and
spans go to ``.bench_out/`` in the checkout.  Exit status: 0 when every
output checks, 1 when a check fails or a function raises, 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
MODULES = ("cli", "boolfn", "ordering", "bdd", "minimizer", "qm")

END_TO_END_UNITS = {
    "batch_s": "s",
    "fn_s_p50": "s",
    "sop_cubes": "count",
    "sop_literals": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
STAGE_TIMES = (
    "cli.parse_pla",
    "ordering.entropy_order",
    "bdd.build_from_truthtable",
    "bdd.sift_paths",
    "bdd.enumerate_one_paths",
    "minimizer.simplify",
    "minimizer.expand",
    "minimizer.irredundant",
    "qm.prime_implicants",
    "qm.exact_cover",
)


class TimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit()


@contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    status: str  # ok | limit (oracle time limit, recorded) | error
    wall: float
    # Wall time at reference host speed; a limit hit is charged the limit.
    seconds: float
    dsop: List[str] = field(default_factory=list)
    sop: List[str] = field(default_factory=list)
    one_paths: int = 0
    sop_cubes: int = 0
    sop_literals: int = 0
    oracle_cubes: Optional[int] = None
    error: str = ""

    def digest(self, name: str) -> str:
        text = f"{name}\n{self.status}\ndsop {' '.join(self.dsop)}\nsop {' '.join(self.sop)}\n"
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    outcomes: List[Outcome]
    traced: bool = False
    counts: Dict[str, int] = field(default_factory=dict)
    self_times: Dict[str, float] = field(default_factory=dict)

    @property
    def batch_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def wall_s(self) -> float:
        return sum(o.wall for o in self.outcomes)


@dataclass
class Setup:
    seconds: float
    wall: float
    slowdown: float
    mods: Dict[str, object]
    tables: list


def setup(jobs: List[workloads.Job], tracer: Optional[spans.Tracer] = None) -> Setup:
    """Import dsopmin afresh from src/ and parse every job's PLA text."""
    before = hostspeed.sample()
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "dsopmin" or m.startswith("dsopmin.")]:
        del sys.modules[name]
    cli = importlib.import_module("dsopmin.cli")
    tables = []
    for job in jobs:
        with tracer.span("cli.parse_pla") if tracer else nullcontext():
            tables.append(cli.parse_pla(job.pla)[0])
    wall = time.perf_counter() - start
    slow = hostspeed.slowdown(before, hostspeed.sample())
    mods = {m: sys.modules[f"dsopmin.{m}"] for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "dsopmin":
        raise ImportError(f"dsopmin was imported from {mods['cli'].__file__}, not {SRC}")
    return Setup(wall / slow, wall, slow, mods, tables)


def run_pass(jobs, tables, mods, tracer: Optional[spans.Tracer] = None) -> Pass:
    cli = mods["cli"]
    traced = spans.TracedPipeline(mods, tracer) if tracer is not None else None
    fmt = mods["boolfn"].format_cube
    p = Pass([], traced=tracer is not None)
    self_times: Dict[str, float] = defaultdict(float)
    calibration = hostspeed.sample()
    with traced.instrumented() if traced else nullcontext():
        for job, tt in zip(jobs, tables):
            first_span = len(tracer.spans) if tracer is not None else 0
            res, status, err = None, "ok", ""
            t0 = time.perf_counter()
            try:
                with time_limit(job.limit_s):
                    if traced is None:
                        report, covers = cli.run_pipeline(
                            tt, cli.PipelineConfig(ordering=job.order, oracle=job.oracle))
                        res = (covers["dsop"], covers["sop"], report.one_paths,
                               report.sop_literals, report.oracle_cubes)
                    else:
                        with tracer.span("cli.run_pipeline"):
                            res = traced.run(tt, job.order, job.oracle)
            except TimeLimit:
                status = "limit" if job.limit_is_outcome else "error"
                err = f"no result within {job.limit_s} s"
                if traced is not None and job.limit_is_outcome:
                    traced.counts["qm.timeouts"] += 1
            except Exception:  # one function's failure is recorded; the run goes on
                status, err = "error", traceback.format_exc(limit=-4)
            wall = time.perf_counter() - t0

            after = hostspeed.sample()
            slow = hostspeed.slowdown(calibration, after)
            calibration = after
            if tracer is not None:
                for name, t in tracer.self_times(first_span).items():
                    self_times[name] += t / slow
            out = Outcome(status, wall, job.limit_s if status == "limit" else wall / slow,
                          error=err)
            if res is not None:
                dsop, sop, p1, literals, oracle_cubes = res
                out.dsop = [fmt(c) for c in dsop.cubes]
                out.sop = [fmt(c) for c in sop.cubes]
                out.one_paths, out.sop_cubes, out.sop_literals = p1, len(sop.cubes), literals
                out.oracle_cubes = oracle_cubes
            p.outcomes.append(out)
    if traced is not None:
        p.counts = traced.counts
        p.self_times = dict(self_times)
    return p


def measure(jobs, tables, mods, seconds: float, tracer: Optional[spans.Tracer]) -> List[Pass]:
    """Passes over the job list until the next one would overrun the window.

    With a tracer, each untraced pass is followed by a traced one.
    """
    deadline = time.perf_counter() + seconds
    passes: List[Pass] = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, tables, mods))
        if tracer is not None:
            passes.append(run_pass(jobs, tables, mods, tracer))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return passes


def judge(jobs, passes: List[Pass]) -> Tuple[List[str], int, int]:
    """(problems, failed runs, attempted runs); later passes must repeat the first."""
    problems: List[str] = []
    first = passes[0].outcomes
    bad = set()
    for job, out in zip(jobs, first):
        if out.status == "error":
            bad.add(job.name)
            problems.append(f"{job.name}: {out.error.strip()}")
        elif out.status == "ok":
            found = check.check_function(
                job.n, job.on, out.dsop, out.sop, out.one_paths, out.sop_cubes,
                out.sop_literals, job.known_cubes, out.oracle_cubes)
            if found:
                bad.add(job.name)
                problems += [f"{job.name}: {p}" for p in found]
    failed = len(bad)
    for i, p in enumerate(passes[1:], start=1):
        for job, out, ref in zip(jobs, p.outcomes, first):
            if out.digest(job.name) != ref.digest(job.name):
                failed += 1
                kind = "traced" if p.traced else "repeated"
                problems.append(f"{job.name}: {kind} pass {i} differs from pass 0: "
                                f"{out.status} {out.error.strip()}")
            elif job.name in bad:
                failed += 1
    return problems, failed, len(jobs) * len(passes)


def cover_digest(jobs, outcomes: List[Outcome]) -> str:
    h = hashlib.sha256()
    for job, out in zip(jobs, outcomes):
        h.update(out.digest(job.name).encode())
    return h.hexdigest()


def end_to_end(jobs, passes: List[Pass], setups: List[Setup], peak_rss_mb: float):
    first = passes[0].outcomes
    ok = [o for o in first if o.status == "ok"]
    solved = [o for o in ok if o.oracle_cubes is not None]
    metrics = {
        "batch_s": statistics.median(p.batch_s for p in passes),
        "fn_s_p50": statistics.median(o.seconds for p in passes for o in p.outcomes),
        "sop_cubes": sum(o.sop_cubes for o in ok),
        "sop_literals": sum(o.sop_literals for o in ok),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s.seconds for s in setups),
    }
    extra = {
        "oracle_gap_cubes": sum(o.sop_cubes - o.oracle_cubes for o in solved),
        "oracle_solved": len(solved),
        "batch_wall_s": statistics.median(p.wall_s for p in passes),
        "setup_wall_s": statistics.median(s.wall for s in setups),
        "host_slowdown": statistics.median(o.wall / o.seconds for p in passes
                                           for o in p.outcomes if o.status != "limit"),
    }
    return metrics, extra


def per_layer(passes: List[Pass], setup_tracer: spans.Tracer, setup_slowdown: float):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    names = set(STAGE_TIMES[1:]) | {n for p in traced for n in p.self_times}
    times = {n: statistics.median(p.self_times.get(n, 0.0) for p in traced) for n in names}
    times["cli.parse_pla"] = setup_tracer.self_times().get("cli.parse_pla", 0.0) / setup_slowdown
    metrics: Dict[str, float] = {f"{n}.s": times[n] for n in STAGE_TIMES}
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = sum(t for n, t in times.items() if n.split(".")[0] == mod)
    c = traced[0].counts
    metrics.update({
        "bdd.nodes": c["bdd.nodes"],
        "bdd.one_paths": c["bdd.one_paths"],
        "bdd.arena_nodes": c["bdd.arena_nodes"],
        "bdd.arena_live_ratio": c["bdd.nodes"] / max(c["bdd.arena_nodes"], 1),
        "minimizer.simplify.cubes_out": c["minimizer.simplify.cubes_out"],
        "minimizer.simplify.kept_ratio":
            c["minimizer.simplify.cubes_out"] / max(c["bdd.dsop_cubes"], 1),
        "minimizer.irredundant.dropped": c["minimizer.irredundant.dropped"],
        "qm.primes": c["qm.primes"],
        "qm.timeouts": c["qm.timeouts"],
        "trace.overhead_s": statistics.median(p.batch_s for p in traced)
                            - statistics.median(p.batch_s for p in untraced),
    })
    return metrics, times


UNITS_BY_SUFFIX = (("_ratio", "ratio"), (".s", "s"), ("_s", "s"))


def layer_unit(name: str) -> str:
    for suffix, unit in UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(args) -> int:
    name = args.workload
    jobs = workloads.make_jobs(name, args.seed)
    setup_tracer = spans.Tracer() if args.trace else None
    try:
        setups = [setup(jobs, setup_tracer) for _ in range(1 if args.trace else SETUP_REPEATS)]
    except ImportError as exc:
        print(f"perfbench: cannot import dsopmin from {SRC}: {exc}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = spans.Tracer() if args.trace else None
    passes = measure(jobs, setups[-1].tables, setups[-1].mods, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, failed, attempted = judge(jobs, passes)
    first = passes[0].outcomes
    digest = cover_digest(jobs, first)
    limit_hits = [j.name for j, o in zip(jobs, first) if o.status == "limit"]
    limit_runs = sum(o.status == "limit" for p in passes for o in p.outcomes)
    failed_share = (failed + limit_runs) / attempted

    print(f"workload {name}  seed {args.seed}  (held-out seed {workloads.HELD_OUT_SEEDS[name]})  "
          f"{len(jobs)} functions x {len(passes)} passes, 1 thread, closed loop")
    result = {"workload": name, "seed": args.seed, "trace": args.trace,
              "held_out_seed": workloads.HELD_OUT_SEEDS[name], "why": workloads.WHY[name],
              "cover_digest": digest, "limit_hits": limit_hits, "problems": problems}
    if args.trace:
        metrics, stage_times = per_layer(passes, setup_tracer, setups[0].slowdown)
        units = {m: layer_unit(m) for m in metrics}
        for m, v in metrics.items():
            print(f"  {m:32s} {v:<14.6g} {units[m]}")
        print("  wait_s                           none: one thread, no queues, so no layer waits")
        result["stage_self_s"] = stage_times
        traced_digest = cover_digest(jobs, next(p for p in passes if p.traced).outcomes)
        print(f"  cover digest {digest[:16]}  traced {traced_digest[:16]}  "
              f"({'match' if traced_digest == digest else 'MISMATCH'})")
        spans_path = OUT_DIR / f"{name}-seed{args.seed}-spans.json"
        write_json(spans_path, {"fields": ["id", "parent", "name", "start", "end"],
                                "setup": setup_tracer.spans, "passes": tracer.spans})
    else:
        metrics, extra = end_to_end(jobs, passes, setups, peak_rss_mb)
        units = dict(END_TO_END_UNITS)
        notes = {"batch_s": f"median of {len(passes)} passes; wall {extra['batch_wall_s']:.4g} s",
                 "fn_s_p50": f"median of {len(jobs) * len(passes)} function runs",
                 "setup_s": f"median of {len(setups)} set-ups; wall {extra['setup_wall_s']:.4g} s"}
        for m, v in metrics.items():
            note = f"  ({notes[m]})" if m in notes else ""
            print(f"  {m:18s} {v:<14.6g} {units[m]}{note}")
        print(f"  {'failed_share':18s} {failed_share:<14.6g} ratio  ({failed + limit_runs} of "
              f"{attempted} attempted: {limit_runs} hit the oracle time limit, "
              f"{failed} raised or failed a check)")
        print(f"  {'oracle_gap_cubes':18s} {extra['oracle_gap_cubes']:<14d} count  "
              f"(over {extra['oracle_solved']} functions the oracle solved)")
        print(f"  times are at reference host speed; this host ran "
              f"{extra['host_slowdown']:.3g}x slower than reference")
        print(f"  cover digest {digest}")
        result.update(extra)
    if limit_hits:
        print(f"  oracle time limit {workloads.ORACLE_LIMIT_S} s hit by: {' '.join(sorted(limit_hits))}")
    for p in problems:
        print(f"  FAIL {p}")

    result["metrics"] = metrics
    result["failed_share"] = failed_share
    result["functions"] = [
        {"name": j.name, "n": j.n, "order": j.order, "oracle": j.oracle, "status": o.status,
         "seconds": [p.outcomes[i].seconds for p in passes],
         "wall": [p.outcomes[i].wall for p in passes], "one_paths": o.one_paths,
         "sop_cubes": o.sop_cubes, "sop_literals": o.sop_literals, "oracle_cubes": o.oracle_cubes,
         "digest": o.digest(j.name)}
        for i, (j, o) in enumerate(zip(jobs, first))]
    write_json(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json", result)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in workloads.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1].strip())
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
