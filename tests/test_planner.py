"""Rewrite-planner tests: the differential matrix and the plan machinery.

The heart is the strategy differential — every rewrite strategy
(``direct``, ``morph``, ``decompose``, ``auto``) must return results
byte-identical to the serial no-morphing baseline across all five
engines and all four aggregations, and identical to the brute-force
oracle where the oracle is feasible. The rest pins the planner's
contracts: Decompose legality, truncation surfacing, the plan cache,
graph fingerprints, and the cost-model calibration fit.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import atlas
from repro.core.aggregation import (
    CountAggregation,
    ExistenceAggregation,
    MatchListAggregation,
    MNIAggregation,
)
from repro.core.costmodel import CostModel, GraphModel
from repro.core.equations import item_of
from repro.core.sdag import VERTEX_INDUCED
from repro.engines.base import EngineStats
from repro.morph.cache import PlanCache
from repro.morph.profiles import profile_for
from repro.morph.session import MorphingSession
from repro.plan import (
    Decompose,
    PlanTruncationWarning,
    STRATEGIES,
    decompose_count,
    find_decompositions,
    search_plan,
)
from repro.plan import search as search_mod

from repro.engines.recovery import RetryPolicy
from repro.graph.generators import power_law_cluster
from repro.testing.faults import FaultPlan
from repro.testing.oracle import assert_matches_oracle

from .oracle import brute_force_count, brute_force_match_tuples
from .strategies import data_graphs

ENGINES = sorted(repro.ENGINES)
AGGREGATIONS = {
    "count": CountAggregation,
    "existence": ExistenceAggregation,
    "mni": MNIAggregation,
    "matchlist": MatchListAggregation,
}
MATRIX_PATTERNS = list(atlas.motif_patterns(4)) + [atlas.FIVE_STAR]


def _cost_model(graph, engine="peregrine"):
    return CostModel(GraphModel.from_graph(graph), profile_for(engine))


class TestDifferentialMatrix:
    """Every strategy == serial baseline, across engines × aggregations."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("agg_name", sorted(AGGREGATIONS))
    def test_strategies_match_baseline(self, tiny_graph, engine, agg_name):
        agg = AGGREGATIONS[agg_name]()
        baseline = repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            engine,
            options=repro.RunOptions(aggregation=agg, morph=False),
        )
        for strategy in STRATEGIES:
            got = repro.run(
                tiny_graph,
                MATRIX_PATTERNS,
                engine,
                options=repro.RunOptions(aggregation=agg, strategy=strategy),
            )
            assert got.results == baseline.results, (engine, agg_name, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counts_match_oracle(self, small_graph, strategy):
        result = repro.run(
            small_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(strategy=strategy),
        )
        for pattern in MATRIX_PATTERNS:
            assert result.results[pattern] == brute_force_count(
                small_graph, pattern
            ), (strategy, pattern)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=data_graphs(min_n=6, max_n=12),
        strategy=st.sampled_from(STRATEGIES),
    )
    def test_random_graphs_match_oracle(self, graph, strategy):
        patterns = [atlas.FOUR_PATH, atlas.FIVE_STAR]
        result = repro.run(
            graph,
            patterns,
            options=repro.RunOptions(strategy=strategy),
        )
        for pattern in patterns:
            assert result.results[pattern] == brute_force_count(graph, pattern)

    def test_unknown_strategy_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="strategy"):
            repro.run(
                tiny_graph,
                [atlas.FOUR_PATH],
                options=repro.RunOptions(strategy="greedy"),
            )
        with pytest.raises(ValueError, match="strategy"):
            search_plan([atlas.FOUR_PATH], _cost_model(tiny_graph), strategy="x")


class TestDecomposeRule:
    def test_only_invertible_aggregations(self):
        rule = Decompose()
        item = item_of(atlas.FIVE_STAR)
        assert rule.applies(item, CountAggregation())
        for agg in (ExistenceAggregation(), MNIAggregation(), MatchListAggregation()):
            assert not rule.applies(item, agg)

    def test_only_edge_induced_items(self):
        rule = Decompose()
        v_item = (atlas.FIVE_STAR, VERTEX_INDUCED)
        assert not rule.applies(v_item, CountAggregation())

    def test_cliques_and_cycles_admit_no_split(self):
        assert find_decompositions(atlas.FOUR_CLIQUE) == ()
        # Both independent pairs of the 4-cycle leave a disconnected prefix.
        assert find_decompositions(atlas.FOUR_CYCLE) == ()

    def test_star_decompositions(self):
        decs = find_decompositions(atlas.FIVE_STAR)
        assert decs, "a star is the canonical decomposable pattern"
        assert {d.suffix_size for d in decs} == {2, 3, 4}
        for dec in decs:
            assert dec.prefix.is_connected
            assert dec.pattern_automorphisms == 24  # 4! leaf permutations

    def test_non_invertible_strategy_never_decomposes(self, tiny_graph):
        plan = search_plan(
            [atlas.FIVE_STAR],
            _cost_model(tiny_graph),
            MNIAggregation(),
            strategy="decompose",
        )
        assert plan.decompose_steps == ()

    @pytest.mark.parametrize(
        "pattern", [atlas.FOUR_PATH, atlas.FOUR_STAR, atlas.FIVE_STAR]
    )
    def test_every_decomposition_counts_exactly(self, tiny_graph, pattern):
        """Each legal split independently reproduces the oracle count."""
        expected = brute_force_count(tiny_graph, pattern)
        decs = find_decompositions(pattern)
        assert decs
        for dec in decs:
            stats = EngineStats()

            def stream(prefix, callback):
                for match in brute_force_match_tuples(tiny_graph, prefix):
                    callback(prefix, match)

            assert decompose_count(tiny_graph, dec, stream, stats) == expected


class TestAutoStrategy:
    def test_auto_reproduces_algorithm1_measured_set(self, small_graph):
        """The execution rule never changes *which* items are measured."""
        cm = _cost_model(small_graph)
        auto = search_plan(MATRIX_PATTERNS, cm, strategy="auto")
        morph = search_plan(MATRIX_PATTERNS, cm, strategy="morph")
        legacy = repro.select_alternative_patterns(MATRIX_PATTERNS, cm)
        assert auto.selection.measured == morph.selection.measured
        assert auto.selection.measured == legacy.measured
        assert auto.selection.morphed == legacy.morphed

    def test_auto_answers_five_star_by_decomposition(self, medium_graph):
        """Acceptance: a standing 5-vertex counting workload goes through
        a Decompose plan under ``auto``, with a differential proof."""
        auto = repro.run(
            medium_graph,
            [atlas.FIVE_STAR],
            options=repro.RunOptions(strategy="auto"),
        )
        steps = [
            s
            for s in auto.plan.decompose_steps
            if s.item[0] == item_of(atlas.FIVE_STAR)[0]
        ]
        assert steps, "auto should decompose the 5-star on a dense graph"
        assert steps[0].predicted_cost < steps[0].direct_cost
        direct = repro.run(
            medium_graph,
            [atlas.FIVE_STAR],
            options=repro.RunOptions(strategy="direct"),
        )
        assert auto.results == direct.results

    def test_plan_surfaces_on_result(self, tiny_graph):
        result = repro.run(tiny_graph, [atlas.FOUR_PATH])
        plan = result.plan
        assert plan is not None and plan.strategy == "auto"
        assert plan.measured == result.selection.measured
        for item in plan.measured:
            assert plan.step_for(item).item == item
        assert {c.query for c in plan.combine_steps} == {atlas.FOUR_PATH}
        assert "auto" in plan.describe()


DECOMPOSABLE = [
    atlas.FOUR_PATH,
    atlas.FOUR_STAR,
    atlas.TAILED_TRIANGLE,
    atlas.CHORDAL_FOUR_CYCLE,
    atlas.FIVE_STAR,
]
NOSLEEP = RetryPolicy(max_retries=3, sleep=lambda _seconds: None)


class TestDecomposeAxis:
    """``strategy="decompose"`` as an axis of the serial-oracle harness.

    The oracle rewrites nothing and runs the per-root kernel; the
    variant answers every item by a block fold — on the batched kernel,
    through the per-match adapter (``batch_roots=0``, BigJoin), and as
    integer shard partials (``workers=2``).
    """

    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch_roots", [None, 0, 7])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_decomposed_counts_match_oracle(
        self, tiny_graph, small_labeled_graph, engine, batch_roots, workers, labeled
    ):
        graph, patterns = tiny_graph, DECOMPOSABLE
        if labeled:
            graph = small_labeled_graph
            patterns = [
                atlas.FOUR_PATH.with_labels([0, 1, 1, 0]),
                atlas.FOUR_STAR.with_labels([1, 0, 0, 2]),
                atlas.TAILED_TRIANGLE.with_labels([0, 0, 1, 2]),
            ]
        variant, _oracle = assert_matches_oracle(
            graph,
            patterns,
            engine,
            oracle_kwargs={"strategy": "direct"},
            strategy="decompose",
            batch_roots=batch_roots,
            workers=workers,
        )
        assert len(variant.plan.decompose_steps) == len(patterns)

    def test_worker_crash_on_a_decomposed_shard_retries_to_the_exact_count(
        self, small_graph
    ):
        variant, _oracle = assert_matches_oracle(
            small_graph,
            atlas.FOUR_PATH,
            oracle_kwargs={"strategy": "direct"},
            strategy="decompose",
            workers=2,
            faults=FaultPlan.crashes([1]),  # os._exit in a pool worker
            retry=NOSLEEP,
            tracer=repro.Tracer(),
        )
        assert variant.trace.find("shard.retry")
        assert [step.rule for step in variant.plan.steps] == ["decompose"]
        assert variant.results[atlas.FOUR_PATH] == brute_force_count(
            small_graph, atlas.FOUR_PATH
        )

    def test_setop_volume_orders_auto_morph_direct(self):
        """No clocks: on the 4-motif workload ``auto`` scans no more set
        elements than ``morph``, which scans no more than ``direct`` —
        and ``auto`` gets there by decomposing every item that splits."""
        graph = power_law_cluster(900, 6, 0.5, seed=2023)
        runs = {
            strategy: repro.run(
                graph,
                list(atlas.motif_patterns(4)),
                options=repro.RunOptions(strategy=strategy),
            )
            for strategy in ("auto", "morph", "direct")
        }
        scanned = {
            strategy: run.stats.setops.elements_scanned
            for strategy, run in runs.items()
        }
        assert scanned["auto"] <= scanned["morph"] <= scanned["direct"], scanned
        assert runs["auto"].results == runs["direct"].results
        assert {
            atlas.pattern_name(step.item[0])
            for step in runs["auto"].plan.decompose_steps
        } >= {"4P", "4S", "C4C", "TT"}


class TestTruncationSurfacing:
    def test_caps_fire_loudly(self, small_graph, monkeypatch):
        monkeypatch.setattr(search_mod, "MAX_SUBSET_CHILDREN", 1)
        monkeypatch.setattr(search_mod, "MAX_ROUNDS", 1)
        cm = _cost_model(small_graph)
        with pytest.warns(PlanTruncationWarning):
            selection = search_mod.select_alternative_patterns(MATRIX_PATTERNS, cm)
        assert selection.truncated
        assert any(t.startswith("subset-children:") for t in selection.truncations)

    def test_untruncated_by_default(self, small_graph):
        selection = search_mod.select_alternative_patterns(
            MATRIX_PATTERNS, _cost_model(small_graph)
        )
        assert not selection.truncated
        assert selection.truncations == ()

    def test_session_emits_metric(self, tiny_graph, monkeypatch):
        monkeypatch.setattr(search_mod, "MAX_SUBSET_CHILDREN", 1)
        tracer = repro.Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlanTruncationWarning)
            result = repro.run(
                tiny_graph,
                MATRIX_PATTERNS,
                options=repro.RunOptions(trace=tracer),
            )
        assert result.trace.metrics.get("plan.truncated", 0) >= 1


class TestPlanCache:
    def test_hit_skips_search_and_counts(self, tiny_graph):
        cache = PlanCache()
        tracer = repro.Tracer()
        first = repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(plan_cache=cache, trace=tracer),
        )
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == 0
        assert tracer.metrics.snapshot()["plan.cache.miss"] == 1
        tracer2 = repro.Tracer()
        second = repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(plan_cache=cache, trace=tracer2),
        )
        assert cache.hits == 1 and len(cache) == 1
        assert tracer2.metrics.snapshot()["plan.cache.hit"] == 1
        assert second.results == first.results
        assert second.plan is first.plan

    def test_key_discriminates(self, tiny_graph, small_graph):
        cache = PlanCache()
        repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(plan_cache=cache),
        )
        repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(plan_cache=cache, strategy="direct"),
        )
        repro.run(
            tiny_graph,
            MATRIX_PATTERNS,
            engine="graphpi",
            options=repro.RunOptions(plan_cache=cache),
        )
        repro.run(
            small_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(plan_cache=cache),
        )
        repro.run(
            tiny_graph,
            MATRIX_PATTERNS[:-1],
            options=repro.RunOptions(plan_cache=cache),
        )
        assert len(cache) == 5
        assert cache.hits == 0

    def test_clear(self, tiny_graph):
        cache = PlanCache()
        repro.run(
            tiny_graph,
            [atlas.FOUR_PATH],
            options=repro.RunOptions(plan_cache=cache),
        )
        cache.clear()
        assert len(cache) == 0


class TestStreamingPlans:
    """Streaming plans through the same search as batched runs."""

    QUERIES = [atlas.FOUR_CYCLE, atlas.TAILED_TRIANGLE]

    def _stream(self, graph, **kwargs):
        seen: list = []
        result = MorphingSession(repro.PeregrineEngine(), **kwargs).run_streaming(
            graph, self.QUERIES, lambda q, m: seen.append((q, m))
        )
        return seen, result

    def test_direct_strategy_streams_the_baseline(self, small_graph):
        forced, morphed = self._stream(small_graph, margin=10.0)
        assert any(morphed.selection.morphed.values()), "margin=10 must morph"
        direct_seen, direct = self._stream(
            small_graph, margin=10.0, strategy="direct"
        )
        baseline_seen, _ = self._stream(small_graph, enabled=False)
        assert not any(direct.selection.morphed.values())
        assert direct_seen == baseline_seen
        assert direct.plan.strategy == "direct"
        assert direct.results == morphed.results  # same emitted counts
        assert len(forced) == len(baseline_seen)

    def test_streaming_consults_the_plan_cache(self, small_graph):
        cache = PlanCache()
        first_tracer, second_tracer = repro.Tracer(), repro.Tracer()
        _, first = self._stream(small_graph, plan_cache=cache, tracer=first_tracer)
        _, second = self._stream(small_graph, plan_cache=cache, tracer=second_tracer)
        assert first_tracer.metrics.snapshot()["plan.cache.miss"] == 1
        assert second_tracer.metrics.snapshot()["plan.cache.hit"] == 1
        assert second.plan is first.plan


class TestGraphFingerprint:
    def test_stable_across_instances(self, tiny_graph):
        from repro.graph.datagraph import DataGraph

        clone = DataGraph(8, sorted(tiny_graph.edges()), name="other-name")
        assert clone.fingerprint == tiny_graph.fingerprint

    def test_sensitive_to_structure_and_labels(self, tiny_graph):
        from repro.graph.datagraph import DataGraph

        edges = sorted(tiny_graph.edges())
        more = DataGraph(8, edges + [(0, 7)])
        assert more.fingerprint != tiny_graph.fingerprint
        labeled = DataGraph(8, edges, labels=[0] * 8)
        assert labeled.fingerprint != tiny_graph.fingerprint


def _load_calibrate():
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "tools"
        / "calibrate_costmodel.py"
    )
    spec = importlib.util.spec_from_file_location("calibrate_costmodel", path)
    module = importlib.util.module_from_spec(spec)
    # Register before exec: the tool's dataclass resolves annotations
    # through sys.modules[cls.__module__].
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestCalibrateTool:
    def _record(self, cost, seconds, **kw):
        from repro.observe import CostAuditRecord

        defaults = dict(
            item="X^E", pattern_id=1, variant="E", role="alternative"
        )
        defaults.update(kw)
        return CostAuditRecord(
            predicted_cost=cost, measured_seconds=seconds, **defaults
        )

    def test_fit_recovers_exact_proportionality(self):
        calib = _load_calibrate()
        audits = [self._record(c, 2e-6 * c) for c in (10.0, 55.0, 200.0, 900.0)]
        k, r2 = calib.fit_unit_seconds(audits)
        assert k == pytest.approx(2e-6)
        assert r2 == pytest.approx(1.0)

    def test_cached_and_summary_records_excluded(self):
        calib = _load_calibrate()
        audits = [
            self._record(10.0, 1.0),
            self._record(10.0, 99.0, cached=True),
            self._record(10.0, 99.0, role="selection", variant="*"),
            self._record(0.0, 1.0),
        ]
        assert calib.usable_audits(audits) == audits[:1]

    def test_degenerate_runs_flagged_not_fitted(self):
        calib = _load_calibrate()
        good = [self._record(c, 2e-6 * c) for c in (10.0, 50.0, 300.0)]
        tied = [self._record(10.0, s) for s in (1.0, 2.0, 3.0)]  # no rank info
        fits = calib.calibrate([("peregrine", good), ("peregrine", tied)])
        (fit,) = fits
        assert fit.records == len(good)
        assert fit.degenerate_runs == 1
        assert fit.unit_seconds == pytest.approx(2e-6)
        assert fit.rank_agreement == 1.0

    def test_end_to_end_on_stored_trace(self, small_graph, tmp_path, capsys):
        calib = _load_calibrate()
        trace_path = tmp_path / "run.jsonl"
        repro.run(
            small_graph,
            MATRIX_PATTERNS,
            options=repro.RunOptions(trace=str(trace_path)),
        )
        assert calib.main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "peregrine" in out

    @pytest.mark.parametrize("engine", sorted(repro.ENGINES))
    def test_refit_cannot_change_a_plan(
        self, engine, medium_graph, small_labeled_graph
    ):
        """``unit_seconds`` clocks a plan; it never picks one.

        The constants were refit when the batched kernel became the
        default (roughly 0.4x): the plans for the 4-motif set and for
        the served labeled shape mix are the same objects before and
        after, whatever the scale.
        """
        import dataclasses

        from repro.core.pattern import Pattern

        shapes = ("triangle", "3P", "TT", "4P", "4S", "C4")
        served = [
            Pattern(
                shape.n,
                shape.edges,
                labels=[(i + k) % 3 for i in range(shape.n)],
            ).vertex_induced()
            for k, shape in enumerate(atlas.NAMED_PATTERNS[s] for s in shapes)
        ]
        profile = profile_for(engine)
        for graph, queries in (
            (medium_graph, list(atlas.motif_patterns(4))),
            (small_labeled_graph, served),
        ):
            plans = [
                search_plan(
                    queries,
                    CostModel.for_graph(
                        graph,
                        dataclasses.replace(
                            profile, unit_seconds=profile.unit_seconds * scale
                        ),
                    ),
                )
                for scale in (1.0, 2.5, 1e3)
            ]
            assert plans[0] == plans[1] == plans[2]
            assert plans[0].steps == plans[1].steps == plans[2].steps


class TestCliStrategy:
    def test_count_accepts_strategy_flag(self, capsys, tmp_path, small_graph):
        from repro.cli import main
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.edges"
        save_edge_list(small_graph, path)
        expected = brute_force_count(small_graph, atlas.FIVE_STAR)
        for strategy in ("direct", "decompose"):
            assert (
                main(
                    [
                        "count",
                        "--graph-file",
                        str(path),
                        "--pattern",
                        "5S",
                        "--strategy",
                        strategy,
                    ]
                )
                == 0
            )
            assert str(expected) in capsys.readouterr().out


class TestPlanTracing:
    def test_spans_and_rule_attribution(self, small_graph):
        tracer = repro.Tracer()
        result = repro.run(
            small_graph,
            [atlas.FIVE_STAR],
            options=repro.RunOptions(strategy="decompose", trace=tracer),
        )
        trace = result.trace
        (search,) = trace.find("plan.search")
        assert search.attributes["strategy"] == "decompose"
        assert search.attributes["decompose_steps"] >= 1
        rules = {s.attributes.get("rule") for s in trace.find("match.item")}
        assert "decompose" in rules
        assert trace.find("plan.step"), "combine steps are traced"
        audits = [a for a in trace.audits if a.extra.get("rule") == "decompose"]
        assert audits, "decomposed items audit the executed step's cost"
