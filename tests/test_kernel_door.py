"""The one-door contract: ``MiningEngine._execute`` picks the kernel.

Engines compile plans; none of them decides — or ignores — which match
kernel a run uses. These tests pin what that buys:

* GraphPi's IEP is one execution (prefix through the door, suffix as
  block arithmetic), equal to the plain kernel and to brute force on
  every kernel, sharded or not, with integer shard partials;
* a default-kernel run executes the same steps traced or untraced (no
  multi-pattern side door), while the per-root reference keeps
  AutoZero's merged schedules and SumPA's abstraction;
* no module outside ``engines/base.py``, ``engines/frontier.py`` and an
  engine's own ``_run_kernel`` names a kernel entry point;
* the two early-stop behaviours of the block ``explore`` loop.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.core import atlas
from repro.engines import frontier
from repro.engines.autozero.engine import AutoZeroEngine
from repro.engines.base import StopExploration
from repro.engines.graphpi.engine import GraphPiEngine
from repro.engines.graphpi.iep import iep_suffix_length
from repro.engines.peregrine.engine import PeregrineEngine
from repro.engines.sumpa.engine import SumPAEngine
from repro.morph.session import MorphingSession
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


class TestGraphPiIEPIsOneExecution:
    def test_atlas_has_all_29_patterns_and_iep_applies_to_some(self, tiny_graph):
        assert len(ATLAS_3_TO_5) == 29
        engine = GraphPiEngine()
        with_suffix = [
            p
            for p in ATLAS_3_TO_5
            if iep_suffix_length(engine.make_plan(p, tiny_graph))
        ]
        assert len(with_suffix) >= 5
        assert "5S" in {atlas.pattern_name(p) for p in with_suffix}

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
                strategy="direct",  # the engine's IEP, not the planner's
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
        """The plan's own symmetry breaking stays on the prefix, so a
        shard's count is whole — including the ``// k!`` star suffix."""
        n = small_graph.num_vertices
        windows = [(0, 4), (4, 11), (11, n)]
        for pattern in (atlas.FOUR_STAR, atlas.FIVE_STAR, atlas.CHORDAL_FOUR_CYCLE):
            engine = GraphPiEngine()
            engine.batch_roots = batch_roots
            assert iep_suffix_length(engine.make_plan(pattern, small_graph))
            partials = [
                engine.count(small_graph, pattern, root_window=w) for w in windows
            ]
            assert all(type(part) is int for part in partials)
            assert sum(partials) == brute_force_count(small_graph, pattern)
            assert any(partials[:-1])  # a real split, not one loaded shard


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
