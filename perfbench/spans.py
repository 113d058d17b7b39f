"""Stage-by-stage tracing from outside the program.

``TracedPipeline.run`` calls the modules' public functions in the order
``cli.run_pipeline`` does, with a span around each call, so a traced
pass does the same work as an untraced one and must yield the same
covers.  ``qm.exact_cover`` reaches ``qm.prime_implicants`` through its
module, so while tracing that name is wrapped to record the inner call
as a child span.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

# Per-layer counts, summed over the jobs of a pass.
COUNTS = (
    "bdd.nodes",
    "bdd.one_paths",
    "bdd.arena_nodes",
    "bdd.dsop_cubes",
    "minimizer.simplify.cubes_out",
    "minimizer.expand.cubes_out",
    "minimizer.irredundant.dropped",
    "qm.primes",
    "qm.timeouts",
)


class Tracer:
    """Span recorder: each span is [id, parent id, name, start, end]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Self time per span name over spans[first:]: duration minus children."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for sid, parent, _name, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in spans:
            out[name] += (end - start) - child[sid]
        return dict(out)


def arena_size(manager) -> int:
    # BddManager has no public size accessor; its node table is the arena.
    return len(manager._nodes)


class TracedPipeline:
    """run_pipeline's stage sequence with a span per call and layer counts."""

    def __init__(self, mods: Dict[str, object], tracer: Tracer) -> None:
        self.mods = mods
        self.tracer = tracer
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)

    @contextmanager
    def instrumented(self) -> Iterator[None]:
        qm = self.mods["qm"]
        original = qm.prime_implicants

        def prime_implicants(tt):
            with self.tracer.span("qm.prime_implicants"):
                primes = original(tt)
            self.counts["qm.primes"] += len(primes)
            return primes

        qm.prime_implicants = prime_implicants
        try:
            yield
        finally:
            qm.prime_implicants = original

    def run(self, tt, ordering: str, oracle: bool):
        """Returns (dsop, sop, one_paths, sop_literals, oracle_cubes)."""
        m = self.mods
        bdd, minimizer, span = m["bdd"], m["minimizer"], self.tracer.span
        if ordering == "entropy":
            with span("ordering.entropy_order"):
                order = m["ordering"].entropy_order(tt)
        else:
            order = bdd.VariableOrder.identity(tt.n)
        with span("bdd.build_from_truthtable"):
            h = bdd.build_from_truthtable(tt, order)
        if ordering == "sift":
            with span("bdd.sift_paths"):
                bdd.sift_paths(h.manager, h)
        with span("bdd.node_count"):
            nodes = bdd.node_count(h)
        with span("bdd.enumerate_one_paths"):
            dsop = bdd.enumerate_one_paths(h)
        with span("bdd.one_path_count"):
            p1 = bdd.one_path_count(h)
        with span("minimizer.simplify"):
            simplified = minimizer.simplify(dsop)
        with span("minimizer.expand"):
            expanded = minimizer.expand(simplified, h)
        with span("minimizer.irredundant"):
            sop = minimizer.irredundant(expanded, h)

        c = self.counts
        c["bdd.nodes"] += nodes
        c["bdd.one_paths"] += p1
        c["bdd.arena_nodes"] += arena_size(h.manager)
        c["bdd.dsop_cubes"] += len(dsop.cubes)
        c["minimizer.simplify.cubes_out"] += len(simplified.cubes)
        c["minimizer.expand.cubes_out"] += len(expanded.cubes)
        c["minimizer.irredundant.dropped"] += len(expanded.cubes) - len(sop.cubes)

        oracle_cubes: Optional[int] = None
        if oracle:
            with span("qm.exact_cover"):
                cover = m["qm"].exact_cover(tt)
            with span("boolfn.literal_count"):
                m["boolfn"].literal_count(cover)
            oracle_cubes = len(cover.cubes)
        with span("boolfn.literal_count"):
            literals = m["boolfn"].literal_count(sop)
        return dsop, sop, p1, literals, oracle_cubes
