"""Workload specifications and their seed-determined inputs.

Every workload is a *fixed list of operations*: the graph and the op
list are functions of ``--seed`` (and the op count of ``--seconds``),
never of how fast the machine happens to be, so two runs of the same
command time the identical work.

Different seeds must also time *comparable* work, or the spread between
seeds swamps any regression bound. Two measured facts shaped the inputs:
a fresh ``power_law_cluster`` per seed moves the set-op volume of a
4-motif count by 5.5 % (quartile distance over ten seeds; hub sizes
differ), and a fresh sample of 300 labeled queries over Zipf-skewed
labels moves the total time of ``serve-cold`` by +-15 % and its median
by +-20 % (the cost of such a query is heavy-tailed in its label
frequencies). So the seed draws everything that does *not* change the
amount of work by much: a degree-preserving rewiring of one base graph
(same degree sequence, different edges, different answers), where the
labels fall, and the order of the ops. The base graph and the query
design are fixed parts of the benchmark, like the pattern set of
``mc4-count``; labels are uniform, so a query's cost follows its shape;
and the shape mix is two-thirds 3-vertex and tailed-triangle queries, so
the median op lies inside that dense cheap cluster (15-20 ms) instead of
in the gap below the 4-vertex ones (80-90 ms). Measured over six seeds
the median then moves +-1.5 % and the total +-2.4 %.

This module imports ``repro`` and is therefore only imported by code
that already checked the checkout carries ``src/repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.atlas import NAMED_PATTERNS, motif_patterns
from repro.core.canonical import pattern_id
from repro.core.pattern import Pattern
from repro.graph.datagraph import DataGraph
from repro.graph.generators import assign_labels, power_law_cluster, rewire

#: The seed the committed golden digests were recorded with.
DEFAULT_SEED = 1
#: The ``run_seconds`` of BENCHMARK.json: op counts are sized so the
#: timed window lasts about this long on the reference box.
DEFAULT_SECONDS = 18

IN_PROCESS = ("mc4-count", "enum-stream")
SERVED = ("serve-cold", "serve-hit")
WORKLOADS = IN_PROCESS + SERVED

#: Seed of the fixed parts: the base graph and the served query design.
BASE_SEED = 2023
#: Double-edge swaps attempted per edge when a seed rewires the base graph.
REWIRE_FRACTION = 0.25

#: Shape cycle of the served query design (all vertex-induced, randomly
#: labeled): six cheap shapes (triangle, wedge, tailed triangle) to three
#: dear ones (4-path, 4-star, 4-cycle) — see the module docstring.
QUERY_MIX = ("triangle", "3P", "TT", "4P", "3P", "TT", "4S", "3P", "C4")
SERVE_LABELS = 8
#: Distinct cold queries run during set-up (disjoint from the timed
#: list): four cycles of the mix, about 1.5 s.
COLD_WARMUP_QUERIES = 36
#: Size of the result-cache working set ``serve-hit`` cycles over.
HIT_SET_QUERIES = 16
#: Client threads (= connections in flight) of ``serve-hit``: nproc.
HIT_CONNECTIONS = 2


@dataclass(frozen=True)
class Spec:
    """Size of one workload: graph vertices and timed ops per second.

    ``ops_per_second`` is the reference box's throughput, used only to
    turn ``--seconds`` into an op *count*; the list itself is fixed.
    """

    vertices: int
    ops_per_second: float


#: Tuned on the reference box (2 cores, numpy 2.4, py 3.11).
SPECS = {
    "mc4-count": Spec(vertices=900, ops_per_second=0.67),
    "enum-stream": Spec(vertices=250, ops_per_second=0.67),
    "serve-cold": Spec(vertices=6000, ops_per_second=23.0),
    "serve-hit": Spec(vertices=6000, ops_per_second=1500.0),
}


def min_ops(workload: str) -> int:
    """The shortest op list that still makes sense for a workload."""
    return HIT_SET_QUERIES * HIT_CONNECTIONS if workload == "serve-hit" else 2


def op_count(workload: str, seconds: int, quick: bool = False) -> int:
    """Timed ops for ``--seconds`` (``--quick`` divides by ten)."""
    ops = SPECS[workload].ops_per_second * seconds
    if quick:
        ops /= 10
    return max(min_ops(workload), round(ops))


def quick_vertices(workload: str) -> int:
    """Graph size of ``--quick`` smoke runs: a third of the real one."""
    return SPECS[workload].vertices // 3


def build_graph(workload: str, seed: int, vertices: int | None = None) -> DataGraph:
    """The workload's data graph for ``seed``.

    In-process workloads mine an unlabeled power-law-cluster graph; the
    served ones a (uniformly) labeled one, because only labels give
    enough *distinct* queries for every op to miss every cache.
    """
    n = vertices if vertices is not None else SPECS[workload].vertices
    base = power_law_cluster(n, 6, 0.5, seed=BASE_SEED, name=workload)
    graph = rewire(base, swaps=int(REWIRE_FRACTION * base.num_edges), seed=seed)
    if workload in SERVED:
        graph = assign_labels(graph, SERVE_LABELS, skew=0.0, seed=seed)
    return graph


def op_patterns(workload: str) -> list[Pattern]:
    """The query set of one in-process op."""
    if workload == "mc4-count":
        return list(motif_patterns(4))
    if workload == "enum-stream":
        return [
            NAMED_PATTERNS["TT"].vertex_induced(),
            NAMED_PATTERNS["4P"].vertex_induced(),
        ]
    raise ValueError(f"{workload!r} is not an in-process workload")


def labeled_queries(count: int) -> list[Pattern]:
    """The first ``count`` queries of the fixed design: pairwise
    non-isomorphic labeled vertex-induced patterns.

    Sampled without replacement up to isomorphism (not just up to
    text): the daemon's per-graph measurement cache is keyed by the
    canonical pattern, so two isomorphic label assignments would make
    the second a 1 ms cache answer instead of a cold query.
    """
    rng = random.Random(BASE_SEED)
    seen: set[int] = set()
    queries: list[Pattern] = []
    while len(queries) < count:
        shape = NAMED_PATTERNS[QUERY_MIX[len(queries) % len(QUERY_MIX)]]
        labels = [rng.randrange(SERVE_LABELS) for _ in range(shape.n)]
        query = shape.vertex_induced().with_labels(labels)
        pid = pattern_id(query)
        if pid not in seen:
            seen.add(pid)
            queries.append(query)
    return queries


def served_queries(workload: str, seed: int, ops: int) -> tuple[list[Pattern], list[Pattern]]:
    """``(warm-up queries, timed op list)`` of a served workload.

    ``serve-cold``: one stream of distinct queries, the first
    ``COLD_WARMUP_QUERIES`` run during set-up and the rest timed, in an
    order the seed shuffles. ``serve-hit``: the 16-query hit set is
    warmed during set-up and the timed list cycles over it, each cycle
    in its own seeded order.
    """
    rng = random.Random(seed)
    if workload == "serve-cold":
        stream = labeled_queries(COLD_WARMUP_QUERIES + ops)
        timed = stream[COLD_WARMUP_QUERIES:]
        rng.shuffle(timed)
        return stream[:COLD_WARMUP_QUERIES], timed
    if workload == "serve-hit":
        hit_set = labeled_queries(HIT_SET_QUERIES)
        timed: list[Pattern] = []
        while len(timed) < ops:
            timed.extend(rng.sample(hit_set, len(hit_set)))
        return hit_set, timed[:ops]
    raise ValueError(f"{workload!r} is not a served workload")
