"""The one-door contract: ``MiningEngine._execute`` picks the kernel.

Engines compile plans; none of them decides — or ignores — which match
kernel a run uses. These tests pin what that buys:

* GraphPi's IEP is one execution — its compiled pair, the planner's
  priced ``Decompose`` split (prefix through the door, suffix as block
  arithmetic) — equal to the plain kernel and to brute force on every
  kernel, sharded, resumed or crashed, with integer shard partials, and
  no module outside ``repro/plan/`` owns inclusion–exclusion or the
  pair cut;
* a default-kernel run executes the same steps traced or untraced (no
  multi-pattern side door), while the per-root reference keeps
  AutoZero's merged schedules and SumPA's abstraction;
* no module outside ``engines/base.py``, ``engines/frontier.py`` and an
  engine's own ``_run_kernel`` names a kernel entry point;
* the two early-stop behaviours of the block ``explore`` loop;
* the block-delivery contract: every consumer of a block (``explore``,
  the sharded stream replay, the match-list fold) sees the per-root
  kernel's matches in its order, books exactly the calls that
  completed, and has no per-match Python loop of its own.
"""

from __future__ import annotations

import ast
import json
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import atlas
from repro.core.aggregation import CountAggregation, MatchListAggregation
from repro.engines import frontier
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import StopExploration
from repro.engines.bigjoin.engine import BigJoinEngine
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.recovery import RetryPolicy, checkpoint_key
from repro.engines.sumpa.engine import SumPAEngine
from repro.morph.session import MorphingSession
from repro.plan.rules import DecomposedCount
from repro.testing.faults import FaultPlan
from repro.testing.oracle import assert_matches_oracle

from .oracle import brute_force_count

#: The budget as shipped, read before ``--frontier-budget`` can pin it.
SHIPPED_BUDGET = frontier.FRONTIER_ELEMENT_BUDGET

ATLAS_3_TO_5 = [p for n in (3, 4, 5) for p in atlas.all_connected_patterns(n)]


class GraphPiWithoutIEP(GraphPiEngine):
    """Module-level so pool workers can unpickle it."""

    use_iep = False


@lru_cache(maxsize=None)
def _brute_force(graph) -> dict:
    return {p: brute_force_count(graph, p) for p in ATLAS_3_TO_5}


def _compiled(engine, graph, pattern):
    """GraphPi's compiled count pair for ``pattern``."""
    return engine.compile_aggregate(graph, pattern, CountAggregation())


class TestGraphPiIEPIsOneExecution:
    def test_atlas_has_all_29_patterns_and_iep_applies_to_some(self, tiny_graph):
        assert len(ATLAS_3_TO_5) == 29
        engine = GraphPiEngine()
        decomposed = {
            atlas.pattern_name(p)
            for p in ATLAS_3_TO_5
            if isinstance(_compiled(engine, tiny_graph, p)[1], DecomposedCount)
        }
        assert {"4S", "5S", "C4C", "4P"} <= decomposed
        assert "4CL" not in decomposed
        for p in ATLAS_3_TO_5:
            induced = p.vertex_induced()
            assert _compiled(engine, tiny_graph, induced)[0] is induced

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch_roots", [None, 0, 7])
    def test_iep_on_equals_off_equals_brute_force(
        self, tiny_graph, batch_roots, workers
    ):
        runs = {}
        for engine in (GraphPiEngine, GraphPiWithoutIEP):
            variant, _oracle = assert_matches_oracle(
                tiny_graph,
                ATLAS_3_TO_5,
                engine,
                oracle_kwargs={"strategy": "direct"},
                strategy="direct",  # the engine's compiled IEP, no planner step
                batch_roots=batch_roots,
                workers=workers,
            )
            runs[engine] = variant.results
        assert runs[GraphPiEngine] == runs[GraphPiWithoutIEP]
        assert runs[GraphPiEngine] == _brute_force(tiny_graph)

    @pytest.mark.parametrize("batch_roots", [None, 5])
    def test_root_window_partials_are_integers_that_add_up(
        self, small_graph, batch_roots
    ):
        """Shards fold the compiled pair: each partial is a whole sum of
        ordered suffix assignments, and ``|Aut|`` divides once, after
        the merge — including the star's ``4!``."""
        n = small_graph.num_vertices
        windows = [(0, 4), (4, 11), (11, n)]
        for pattern in (atlas.FOUR_STAR, atlas.FIVE_STAR, atlas.CHORDAL_FOUR_CYCLE):
            engine = GraphPiEngine()
            engine.batch_roots = batch_roots
            prefix, fold = _compiled(engine, small_graph, pattern)
            assert isinstance(fold, DecomposedCount)
            partials = [
                engine.aggregate_partial(small_graph, prefix, fold, root_window=w)[0]
                for w in windows
            ]
            assert all(type(sum_) is int for part in partials for sum_ in part)
            merged = fold.zero()
            for part in partials:
                merged = fold.merge(merged, part)
            assert fold.finalize(prefix, merged) == brute_force_count(
                small_graph, pattern
            )
            assert any(partials[:-1])  # a real split, not one loaded shard

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_resume_and_a_worker_crash_stay_exact(
        self, small_graph, tmp_path, workers
    ):
        """A resumed run re-reads the compiled pair's shards from the
        journal; a crashed worker's shard is retried; both exact."""
        patterns = [atlas.FOUR_STAR, atlas.FIVE_STAR, atlas.FOUR_PATH]
        want = {p: brute_force_count(small_graph, p) for p in patterns}
        path = tmp_path / "graphpi.ckpt.jsonl"
        options = dict(engine="graphpi", strategy="direct", workers=workers)
        first = repro.run(
            small_graph, patterns, options=repro.RunOptions(checkpoint=path, **options)
        )
        assert first.results == want
        engine = GraphPiEngine()
        compiled = {
            checkpoint_key(*_compiled(engine, small_graph, p)) for p in patterns
        }
        assert all("/decompose/" in key for key in compiled)
        journaled = {
            json.loads(line)["key"]
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "shard"
        }
        assert journaled == compiled
        tracer = repro.Tracer()
        resumed = repro.run(
            small_graph,
            patterns,
            options=repro.RunOptions(checkpoint=path, trace=tracer, **options),
        )
        assert resumed.results == want
        assert resumed.trace.find("shard.checkpoint")
        assert not resumed.trace.find("kernel.batched")  # every shard skipped
        crashed = repro.run(
            small_graph,
            patterns,
            options=repro.RunOptions(
                faults=FaultPlan.crashes([1]),
                retry=RetryPolicy(max_retries=2, sleep=lambda _s: None),
                trace=repro.Tracer(),
                **options,
            ),
        )
        assert crashed.results == want
        assert crashed.trace.find("shard.retry")

    def test_a_traced_count_names_its_decomposed_fold(self, small_graph):
        """The kernel span of a decomposed count carries the fold's
        ``decompose/…`` name; an undecomposed one carries none."""
        folds = {}
        for engine in (GraphPiEngine(), GraphPiWithoutIEP()):
            result = MorphingSession(
                engine, strategy="direct", tracer=repro.Tracer()
            ).run(small_graph, [atlas.FOUR_STAR])
            folds[engine.use_iep] = [
                span.attributes.get("fold")
                for span in result.trace.find("kernel.batched")
            ]
        _prefix, fold = _compiled(GraphPiEngine(), small_graph, atlas.FOUR_STAR)
        assert folds == {True: [fold.name], False: [None]}
        assert fold.name.startswith("decompose/")


#: Names only ``repro/plan/`` may use: the IEP block arithmetic, both
#: cut finders, and the cuts' constructors (matched as calls).
IEP_OWNED = {"block_distinct_counts", "find_decompositions", "find_pair_cuts"}
CUT_CLASSES = {"Decomposition", "PairCut"}


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _iep_references(tree: ast.AST) -> list[str]:
    """IEP and pair-cut internals a module names, and every cut it builds."""
    found = []
    for node in ast.walk(tree):
        called = _referenced_name(node.func) if isinstance(node, ast.Call) else None
        if called in CUT_CLASSES:
            found.append(f"{called}()")
        elif _referenced_name(node) in IEP_OWNED:
            found.append(_referenced_name(node))
    return found


class TestOnlyThePlannerOwnsIEP:
    def test_no_module_outside_plan_reaches_for_iep_internals(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative.startswith("plan/"):
                continue
            for name in _iep_references(ast.parse(path.read_text())):
                offenders.append(f"{relative}: {name}")
        assert offenders == []
        assert not (SRC / "engines" / "graphpi" / "iep.py").exists()

    def test_the_check_sees_planted_references(self):
        planted = ast.parse(
            "from repro.plan.iep import block_distinct_counts\n"
            "import repro.plan.rules as r\n"
            "d = r.find_decompositions(p)\n"
            "x = Decomposition(skeleton=p)\n"
            "def f(d: Decomposition): pass\n"
            "from repro.plan.rules import find_pair_cuts\n"
            "c = r.PairCut(p, q, 2, None, None, 'max')\n"
            "def g(c: PairCut): pass\n"
        )
        assert sorted(_iep_references(planted)) == [
            "Decomposition()",
            "PairCut()",
            "block_distinct_counts",
            "find_decompositions",
            "find_pair_cuts",
        ]


EDGE_INDUCED_4 = list(atlas.all_connected_patterns(4))


class TestSideDoorFollowsTheKernel:
    """``count_set``'s shared passes are per-root walks: per-root only."""

    @pytest.mark.parametrize("engine_cls", [SumPAEngine, AutoZeroEngine])
    def test_default_kernel_runs_the_same_steps_traced_or_not(
        self, small_graph, engine_cls
    ):
        untraced_engine, traced_engine = engine_cls(), engine_cls()
        untraced = MorphingSession(untraced_engine, strategy="direct").run(
            small_graph, EDGE_INDUCED_4
        )
        traced = MorphingSession(
            traced_engine, strategy="direct", tracer=repro.Tracer()
        ).run(small_graph, EDGE_INDUCED_4)
        assert untraced.results == traced.results
        assert untraced.stats.setops.batched == traced.stats.setops.batched > 0
        assert untraced.stats.setops.intersections == traced.stats.setops.intersections
        for name in ("kernel.abstraction", "kernel.merged", "kernel", "kernel.compiled"):
            assert not traced.trace.find(name)
        assert len(traced.trace.find("kernel.batched")) == len(EDGE_INDUCED_4)
        for engine in (untraced_engine, traced_engine):
            assert getattr(engine, "last_abstraction", None) is None
            assert getattr(engine, "last_sharing_ratio", 1.0) == 1.0

    def test_per_root_reference_keeps_both_side_doors(self, small_graph):
        sumpa, autozero = SumPAEngine(), AutoZeroEngine()
        for engine in (sumpa, autozero):
            result = MorphingSession(engine, strategy="direct", batch_roots=0).run(
                small_graph, EDGE_INDUCED_4
            )
            assert result.stats.setops.batched == 0
            assert result.results == {
                p: brute_force_count(small_graph, p) for p in EDGE_INDUCED_4
            }
        assert sumpa.last_abstraction is not None
        assert autozero.last_sharing_ratio < 1.0

    def test_bare_engine_count_set_follows_batch_roots(self, small_graph):
        shared, batched = SumPAEngine(), SumPAEngine()
        batched.batch_roots = 2048
        assert shared.multi_pattern and not batched.multi_pattern
        assert not PeregrineEngine().multi_pattern
        assert shared.count_set(small_graph, EDGE_INDUCED_4) == batched.count_set(
            small_graph, EDGE_INDUCED_4
        )
        assert batched.last_abstraction is None
        assert batched.stats.setops.batched > 0 == shared.stats.setops.batched


SRC = Path(repro.__file__).parent
KERNEL_ENTRY_POINTS = {"run_plan", "run_compiled", "run_plan_batched"}
#: Files that may name a kernel entry point anywhere / only inside
#: ``_run_kernel`` (plus the import that brings it in).
DOOR = {"engines/base.py", "engines/frontier.py", "engines/autozero/codegen.py"}
OWNERS = {"engines/autozero/engine.py"}


def _kernel_references(tree: ast.AST):
    """``(name, enclosing function or None, is an import)`` per code reference."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if name in KERNEL_ENTRY_POINTS:
            yield name, function, isinstance(node, ast.alias)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


class TestOnlyTheDoorNamesAKernel:
    def test_kernel_entry_points_are_referenced_behind_the_door_only(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative in DOOR:
                continue
            for name, function, is_import in _kernel_references(
                ast.parse(path.read_text())
            ):
                owned = relative in OWNERS and (
                    function == "_run_kernel" or (is_import and function is None)
                )
                if not owned:
                    offenders.append(f"{relative}: {name} in {function or '<module>'}")
        assert offenders == []

    def test_the_check_sees_a_planted_reference(self):
        planted = ast.parse(
            "def count(self):\n    from x import run_plan\n    return run_plan(g)\n"
        )
        assert [(n, f) for n, f, _ in _kernel_references(planted)] == [
            ("run_plan", "count"),
            ("run_plan", "count"),
        ]

    @pytest.mark.parametrize("package", ["graphpi", "sumpa"])
    def test_compilers_do_not_read_the_kernel_choice(self, package):
        for path in sorted((SRC / "engines" / package).glob("*.py")):
            reads = [
                node.lineno
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "batch_roots"
            ]
            assert reads == [], f"{path.name} reads batch_roots at lines {reads}"

    def test_per_match_output_protocol_is_gone(self):
        import inspect

        from repro.engines.base import MiningEngine

        assert "on_match" not in inspect.signature(MiningEngine._execute).parameters
        assert "on_match" not in inspect.signature(
            frontier.run_plan_batched
        ).parameters
        assert not hasattr(frontier, "_per_match")


class TestEarlyStopInTheBlockLoop:
    """What a consumer-raised ``StopExploration`` leaves in the books."""

    def _stream_until(self, graph, limit, **session_kwargs):
        seen = []

        def process(_query, match):
            if len(seen) == limit:
                raise StopExploration()
            seen.append(match)

        result = MorphingSession(
            PeregrineEngine(), enabled=False, **session_kwargs
        ).run_streaming(graph, [atlas.TRIANGLE], process)
        return result, seen

    @pytest.mark.parametrize("batch_roots", [None, 0, 7])
    def test_the_raising_call_is_not_counted(self, medium_graph, batch_roots):
        result, seen = self._stream_until(medium_graph, 5, batch_roots=batch_roots)
        assert len(seen) == 5
        assert result.results == {atlas.TRIANGLE: 5}
        assert result.stats.udf_calls == 5

    def test_materialized_is_block_granular(self, medium_graph):
        total = PeregrineEngine().count(medium_graph, atlas.TRIANGLE)
        # Shipped budget: the first block is handed over (and booked)
        # whole, though the consumer stops six rows in.
        with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", SHIPPED_BUDGET):
            result, _seen = self._stream_until(medium_graph, 5)
        assert 6 < result.stats.materialized <= total
        # Blocks of one row: booked up to and including the row that stopped.
        with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", 1):
            result, _seen = self._stream_until(medium_graph, 5)
        assert result.stats.materialized == 6


ENGINES = [PeregrineEngine, AutoZeroEngine, GraphPiEngine, BigJoinEngine, SumPAEngine]
#: ``enum-stream``'s query set: both vertex-induced, so GraphPi and
#: BigJoin deliver through the Filter UDF branch.
STREAM_QUERIES = [
    atlas.NAMED_PATTERNS["TT"].vertex_induced(),
    atlas.NAMED_PATTERNS["4P"].vertex_induced(),
]


def _odd_sum(match) -> bool:
    return sum(match) % 2 == 1


def _stream(graph, engine_cls, vertex_filter=None, **session_kwargs):
    """``(callback calls, result)`` of one ``run_streaming``."""
    calls = []
    result = MorphingSession(engine_cls(), **session_kwargs).run_streaming(
        graph,
        STREAM_QUERIES,
        lambda query, match: calls.append((query, match)),
        vertex_filter=vertex_filter,
    )
    return calls, result


@lru_cache(maxsize=None)
def _per_root_stream(graph, engine_cls, filtered: bool):
    with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", SHIPPED_BUDGET):
        return _stream(
            graph, engine_cls, _odd_sum if filtered else None, batch_roots=0
        )


class CountingMatchList(MatchListAggregation):
    """Counts the fold's block conversions and concatenations."""

    def __init__(self) -> None:
        self.blocks = self.combines = 0

    def from_block(self, graph, rows, stats):
        self.blocks += 1
        return super().from_block(graph, rows, stats)

    def combine(self, a, b):
        self.combines += 1
        return super().combine(a, b)


#: Files whose block consumers must not unpack a block match by match.
DELIVERY_FILES = ("engines/base.py", "morph/session.py")


def _per_match_unpacking(tree: ast.AST) -> list[int]:
    """Lines of ``map(tuple, ….tolist())`` calls and loops over ``rows.tolist()``."""

    def tolist_of(node, owner=None) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tolist"
            and (
                owner is None
                or isinstance(node.func.value, ast.Name)
                and node.func.value.id == owner
            )
        )

    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "map"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "tuple"
            and tolist_of(node.args[1])
        ):
            lines.append(node.lineno)
        elif isinstance(node, (ast.For, ast.comprehension)) and tolist_of(
            node.iter, "rows"
        ):
            lines.append(node.iter.lineno)
    return sorted(lines)


class TestBlockDelivery:
    """One delivery path from the kernel's blocks to every consumer."""

    @pytest.mark.parametrize("filtered", [False, True], ids=["all", "filtered"])
    @pytest.mark.parametrize("budget", [1, SHIPPED_BUDGET], ids=["budget1", "shipped"])
    @pytest.mark.parametrize("batch_roots", [None, 0, 7])
    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.name)
    def test_callback_sequence_is_the_per_root_sequence(
        self, small_graph, engine_cls, batch_roots, budget, filtered
    ):
        expected_calls, expected = _per_root_stream(small_graph, engine_cls, filtered)
        with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", budget):
            calls, result = _stream(
                small_graph,
                engine_cls,
                _odd_sum if filtered else None,
                batch_roots=batch_roots,
            )
        assert calls == expected_calls  # pattern, match and order
        assert result.results == expected.results
        assert sum(result.results.values()) == len(calls) > 0
        assert all(
            type(match) is tuple and all(type(v) is int for v in match)
            for _query, match in calls
        )

    @pytest.mark.parametrize("engine_cls", [PeregrineEngine, GraphPiEngine])
    def test_sharded_replay_is_the_serial_sequence(self, small_graph, engine_cls):
        for filtered in (False, True):
            expected_calls, expected = _per_root_stream(
                small_graph, engine_cls, filtered
            )
            calls, result = _stream(
                small_graph, engine_cls, _odd_sum if filtered else None, workers=2
            )
            assert calls == expected_calls
            assert result.results == expected.results

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        k=st.integers(min_value=0, max_value=10**6),
        error=st.sampled_from([StopExploration, ValueError]),
        engine_cls=st.sampled_from([PeregrineEngine, GraphPiEngine]),
        batch_roots=st.sampled_from([None, 0, 7]),
        workers=st.sampled_from([1, 2]),
    )
    def test_a_raising_call_books_exactly_the_calls_before_it(
        self, small_graph, k, error, engine_cls, batch_roots, workers
    ):
        """GraphPi takes the Filter-UDF branch; ``workers=2`` the replay."""
        query = STREAM_QUERIES[0]
        total = PeregrineEngine().count(small_graph, query)
        k %= total
        raised = error("stop here")
        seen = []

        def process(_query, match):
            if len(seen) == k:
                raise raised
            seen.append(match)

        engine = engine_cls()
        session = MorphingSession(
            engine,
            enabled=False,
            batch_roots=batch_roots,
            workers=workers,
            executor="serial" if workers > 1 else None,
        )
        if error is StopExploration:
            result = session.run_streaming(small_graph, [query], process)
            assert result.results == {query: k}
        else:
            with pytest.raises(ValueError) as info:
                session.run_streaming(small_graph, [query], process)
            assert info.value is raised
        assert len(seen) == k
        if workers == 1:
            assert engine.stats.udf_calls == k
        else:
            # The shards' match-list fold is what the engine booked; the
            # replay of the caller's stream is not an engine UDF.
            assert engine.stats.udf_calls == total

    @pytest.mark.parametrize("engine", ["peregrine", "graphpi"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_match_lists_equal_the_per_root_lists(self, small_graph, engine, workers):
        queries = [*STREAM_QUERIES, atlas.TRIANGLE]
        reference = repro.run(
            small_graph,
            queries,
            options=repro.RunOptions(
                engine=engine, aggregation="matches", batch_roots=0
            ),
        )
        variant = repro.run(
            small_graph,
            queries,
            options=repro.RunOptions(
                engine=engine, aggregation="matches", workers=workers
            ),
        )
        assert repr(variant.results) == repr(reference.results)
        assert all(len(matches) > 0 for matches in reference.results.values())

    @pytest.mark.parametrize("batch_roots", [None, 7, 2048])  # bare: None is per-root
    @pytest.mark.parametrize("engine_cls", [PeregrineEngine, GraphPiEngine])
    def test_the_fold_concatenates_once_per_block(
        self, medium_graph, engine_cls, batch_roots
    ):
        query = STREAM_QUERIES[0]
        engine = engine_cls()
        engine.batch_roots = batch_roots
        fold = CountingMatchList()
        with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", SHIPPED_BUDGET):
            matches = engine.aggregate(medium_graph, query, fold)
        assert len(matches) == PeregrineEngine().count(medium_graph, query)
        assert fold.combines == fold.blocks < len(matches)
        # Still booked as a per-match UDF: one call per folded match.
        assert engine.stats.udf_calls == len(matches)

    def test_delivery_files_unpack_no_block_match_by_match(self):
        for relative in DELIVERY_FILES:
            tree = ast.parse((SRC / relative).read_text())
            assert _per_match_unpacking(tree) == [], relative

    def test_the_unpacking_check_sees_planted_loops(self):
        planted = ast.parse(
            "def on_block(rows):\n"
            "    for match in map(tuple, rows.tolist()):\n"
            "        pass\n"
            "    for match in rows.tolist():\n"
            "        pass\n"
            "    return [m for m in rows.tolist()]\n"
        )
        assert _per_match_unpacking(planted) == [2, 4, 6]
