"""Contract tests for the ``repro`` public API surface.

Pins four things the facade redesign promised: ``__all__`` is the
importable truth (every name exists, is documented, and nothing public
is missing), ``repro.run`` round-trips every engine with results
identical to a hand-built session, the typed :class:`repro.RunOptions`
is validated on every construction path and JSON round-trips exactly,
and the calling conventions deprecated in 1.1/1.2 are gone (they raise
``TypeError`` like any other signature mismatch).
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.atlas import TRIANGLE, motif_patterns
from repro.engines.peregrine.engine import PeregrineEngine
from repro.morph.session import MorphingSession, compare_baseline_and_morphed


class TestAllList:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_all_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_public_symbol_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, (dict, list, tuple, str, int, float, frozenset)):
                continue  # data constants carry their docs in the module
            if not (getattr(obj, "__doc__", None) or "").strip():
                undocumented.append(name)
        assert not undocumented, f"public symbols lack docstrings: {undocumented}"

    def test_no_unexported_public_callables(self):
        """Anything defined under ``repro`` top-level must be in __all__."""
        public = {
            name
            for name, obj in vars(repro).items()
            if not name.startswith("_")
            and callable(obj)
            and getattr(obj, "__module__", "").startswith("repro")
        }
        missing = public - set(repro.__all__)
        assert not missing, f"public callables missing from __all__: {missing}"


class TestRunFacade:
    @pytest.mark.parametrize("engine_name", sorted(repro.ENGINES))
    def test_round_trips_every_engine(self, small_graph, engine_name):
        patterns = list(motif_patterns(3))
        by_name = repro.run(small_graph, patterns, engine_name)
        by_hand = MorphingSession(repro.ENGINES[engine_name]()).run(
            small_graph, patterns
        )
        assert by_name.results == by_hand.results

    def test_single_pattern_convenience(self, small_graph):
        result = repro.run(small_graph, TRIANGLE)
        assert list(result.results) == [TRIANGLE]

    def test_morph_false_matches_baseline_session(self, small_graph):
        patterns = list(motif_patterns(3))
        facade = repro.run(
            small_graph,
            patterns,
            options=repro.RunOptions(morph=False),
        )
        session = MorphingSession(PeregrineEngine(), enabled=False).run(
            small_graph, patterns
        )
        assert facade.results == session.results
        assert not facade.morphing_enabled

    def test_engine_instance_and_class_accepted(self, small_graph):
        engine = PeregrineEngine()
        assert repro.resolve_engine(engine) is engine
        assert isinstance(repro.resolve_engine(PeregrineEngine), PeregrineEngine)
        assert isinstance(repro.resolve_engine("PEREGRINE"), PeregrineEngine)

    def test_unknown_engine_rejected(self, small_graph):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.run(small_graph, [TRIANGLE], engine="nonesuch")
        with pytest.raises(TypeError):
            repro.resolve_engine(42)

    def test_trace_kwarg_writes_jsonl(self, small_graph, tmp_path):
        path = tmp_path / "run.jsonl"
        result = repro.run(
            small_graph,
            list(motif_patterns(3)),
            options=repro.RunOptions(trace=path),
        )
        assert result.trace is not None
        loaded = repro.load_trace(path)
        assert [s.name for s in loaded.spans] == [
            s.name for s in result.trace.spans
        ]

    def test_trace_tracer_instance(self, small_graph):
        tracer = repro.Tracer()
        result = repro.run(
            small_graph,
            [TRIANGLE],
            options=repro.RunOptions(trace=tracer),
        )
        assert result.trace is not None
        assert result.trace.spans == tracer.spans

    def test_config_is_keyword_only(self, small_graph):
        with pytest.raises(TypeError):
            repro.run(small_graph, [TRIANGLE], "peregrine", None, True)


class TestRemovedShims:
    """The 1.1/1.2 call-convention shims were cut in 2.0."""

    def test_positional_config_raises(self, small_graph):
        from repro.core.aggregation import CountAggregation

        with pytest.raises(TypeError, match="positional"):
            MorphingSession(PeregrineEngine(), None, False)
        with pytest.raises(TypeError, match="positional"):
            compare_baseline_and_morphed(
                PeregrineEngine, small_graph, [TRIANGLE], CountAggregation()
            )

    def test_loose_run_keywords_raise(self, small_graph):
        with pytest.raises(TypeError, match="workers"):
            repro.run(small_graph, [TRIANGLE], workers=1)
        with pytest.raises(TypeError, match="wokers"):
            repro.run(small_graph, [TRIANGLE], wokers=4)


class TestRunOptions:
    def test_defaults_round_trip(self):
        opts = repro.RunOptions()
        assert repro.RunOptions.from_dict(opts.to_dict()) == opts

    def test_wire_round_trip_through_json(self):
        opts = repro.RunOptions(
            engine="autozero",
            aggregation="mni",
            morph=False,
            strategy="direct",
            workers=3,
            margin=1.5,
            batch_roots=64,
            deadline_seconds=10.0,
            checkpoint="ckpt.jsonl",
            trace="out.jsonl",
            progress=True,
        )
        wire = json.loads(json.dumps(opts.to_dict()))
        assert repro.RunOptions.from_dict(wire) == opts

    def test_sparse_request_body_uses_defaults(self):
        opts = repro.RunOptions.from_dict({"workers": 4})
        assert opts.workers == 4
        assert opts.engine == "peregrine"
        assert opts.morph is True

    @pytest.mark.parametrize(
        "bad",
        [
            {"strategy": "greedy"},
            {"workers": 0},
            {"workers": "two"},
            {"margin": 0},
            {"margin": -1.0},
            {"batch_roots": -1},
            {"deadline_seconds": 0},
            {"aggregation": "median"},
            {"engine": ""},
            {"workers": True},
        ],
    )
    def test_validation_rejects_bad_values(self, bad):
        with pytest.raises((TypeError, ValueError)):
            repro.RunOptions(**bad)

    def test_validation_messages_preserved(self):
        with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
            repro.RunOptions(strategy="greedy")
        with pytest.raises(ValueError, match="batch_roots must be >= 0"):
            repro.RunOptions(batch_roots=-1)

    def test_replace_revalidates(self):
        opts = repro.RunOptions()
        assert opts.replace(workers=8).workers == 8
        with pytest.raises(ValueError):
            opts.replace(strategy="greedy")
        # frozen: the original is untouched by replace
        assert opts.workers == 1

    def test_local_only_objects_refuse_the_wire(self):
        cases = {
            "trace": repro.Tracer(),
            "cache": repro.MeasurementCache(),
            "plan_cache": repro.PlanCache(),
            "faults": repro.FaultPlan([]),
        }
        for field, live in cases.items():
            with pytest.raises(ValueError, match=field):
                repro.RunOptions(**{field: live}).to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="wokers"):
            repro.RunOptions.from_dict({"wokers": 4})

    def test_from_dict_refuses_a_retry_field(self):
        """A shard runs once: ``retry`` is an unknown field on the wire."""
        with pytest.raises(ValueError, match=r"unknown RunOptions field\(s\): retry"):
            repro.RunOptions.from_dict({"retry": "forever"})

    def test_aggregation_instance_serializes_as_name(self):
        opts = repro.RunOptions(aggregation=repro.MNIAggregation())
        assert opts.to_dict()["aggregation"] == "mni"

    def test_session_consumes_options_directly(self, small_graph):
        opts = repro.RunOptions(aggregation="count", morph=False, margin=0.9)
        session = MorphingSession(PeregrineEngine(), options=opts)
        assert session.options is opts
        assert session.enabled is False
        assert session.margin == 0.9

    def test_session_rejects_options_plus_keywords(self):
        with pytest.raises(TypeError, match="not both"):
            MorphingSession(
                PeregrineEngine(), options=repro.RunOptions(), workers=2
            )
