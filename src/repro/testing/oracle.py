"""Serial-oracle differential comparison, shared across the test suites.

Every differential suite in ``tests/`` pins the same contract — a run
under some variation (sharding, fault injection, tracing, batched
frontiers) must return results *byte-identical* to a plain serial run of
the same workload — and each had grown its own copy of the comparison.
This module is the single implementation:

* :func:`canonical` / :func:`results_equal` — byte-level equality of two
  result mappings with key insertion order canonicalized (engine-native
  batched paths and the per-query fault-tolerant conversion emit the
  same mapping in different orders).
* :func:`assert_matches_oracle` — run a workload twice, once plainly
  (the oracle) and once with the caller's session options, and assert
  the variant's results are byte-identical to the oracle's. The result
  sink is one more axis: ``sink="stream"`` runs the variant through
  ``run_streaming`` (Algorithm 3) and compares the emitted stream with
  the oracle's match-list store (Algorithm 2).

Lives under :mod:`repro.testing` rather than ``tests/`` so downstream
engine subclasses can reuse the same differential harness.
"""

from __future__ import annotations

import pickle
from typing import Any, Mapping

__all__ = ["assert_matches_oracle", "canonical", "results_equal"]


def canonical(results: Mapping[Any, Any]) -> bytes:
    """Canonical byte serialization of a result mapping.

    Keys are sorted by ``repr`` before pickling, so two mappings with
    the same entries in different insertion orders serialize alike;
    values must still match byte-for-byte (MNI tables, ordered match
    lists).
    """
    return pickle.dumps(sorted(results.items(), key=lambda kv: repr(kv[0])))


def results_equal(a: Mapping[Any, Any], b: Mapping[Any, Any]) -> bool:
    """Byte-identical result dictionaries, keyed canonically."""
    return canonical(a) == canonical(b)


def _describe_diff(variant: Mapping[Any, Any], oracle: Mapping[Any, Any]) -> str:
    lines = []
    for key in sorted(set(variant) | set(oracle), key=repr):
        got = variant.get(key, "<missing>")
        want = oracle.get(key, "<missing>")
        if pickle.dumps(got) != pickle.dumps(want):
            lines.append(f"  {key!r}: variant={got!r} oracle={want!r}")
    return "\n".join(lines) or "  (values equal; key objects differ)"


def assert_matches_oracle(
    graph,
    pattern,
    engine="peregrine",
    agg=None,
    *,
    sink: str = "store",
    vertex_filter=None,
    oracle_kwargs: Mapping[str, Any] | None = None,
    **run_kwargs,
):
    """Assert a session variant returns results byte-identical to the oracle.

    Runs ``pattern`` (a single :class:`~repro.core.pattern.Pattern` or a
    sequence) on ``graph`` twice through
    :class:`~repro.morph.session.MorphingSession`: once with only
    ``oracle_kwargs`` over ``batch_roots=0`` (a plain serial morphed run
    on the per-root reference kernel — the oracle; a variant on session
    defaults therefore never shares a match kernel with it) and once
    with ``run_kwargs`` (the variant under test: ``workers``,
    ``faults``, ``tracer``, ``batch_roots``, ...). The variant
    must complete (no :class:`~repro.morph.session.PartialRunResult`)
    and its results must satisfy :func:`results_equal` against the
    oracle's.

    ``engine`` is anything :func:`repro.resolve_engine` accepts — name,
    class, or instance (classes/names give each run a fresh engine).
    ``agg`` is an aggregation instance or class (instantiated fresh per
    run); ``None`` keeps the session default.

    ``sink="stream"`` makes the result sink the axis under test: the
    variant runs ``run_streaming`` (with ``vertex_filter``, if given)
    and the ``(query, match)`` pairs it emits must equal, as a sorted
    multiset, the oracle's :class:`MatchListAggregation` store filtered
    the same way (``agg`` is then ignored; give both runs the same
    morphing options so they execute the same plan and therefore pick
    the same automorphic representative of every occurrence).

    Returns ``(variant, oracle)`` so callers can assert further on
    either result (trace contents, stats, brute-force cross-checks).
    """
    from repro.api import resolve_engine
    from repro.core.aggregation import MatchListAggregation
    from repro.core.pattern import Pattern
    from repro.morph.session import MorphingSession, PartialRunResult

    if sink not in ("store", "stream"):
        raise ValueError(f"unknown sink {sink!r}; expected 'store' or 'stream'")
    patterns = [pattern] if isinstance(pattern, Pattern) else list(pattern)
    if sink == "stream":
        agg = MatchListAggregation

    def run_once(kwargs: Mapping[str, Any]):
        kwargs = dict(kwargs)
        if agg is not None:
            kwargs["aggregation"] = agg() if isinstance(agg, type) else agg
        session = MorphingSession(resolve_engine(engine), **kwargs)
        return session.run(graph, patterns)

    oracle = run_once({"batch_roots": 0, **(oracle_kwargs or {})})
    if sink == "stream":
        emitted: list = []
        variant = MorphingSession(resolve_engine(engine), **run_kwargs).run_streaming(
            graph, patterns, lambda q, m: emitted.append((q, m)), vertex_filter
        )
        expected = [
            (q, m)
            for q, matches in oracle.results.items()
            for m in matches
            if vertex_filter is None or vertex_filter(m)
        ]

        def order(pair):
            return repr(pair[0]), pair[1]

        assert sorted(emitted, key=order) == sorted(expected, key=order), (
            f"streamed matches ({len(emitted)}) differ from the oracle's "
            f"match-list store ({len(expected)})"
        )
        return variant, oracle
    variant = run_once(run_kwargs)
    assert not isinstance(variant, PartialRunResult), (
        f"variant run degraded to a partial result "
        f"(coverage {variant.coverage:.2f}) instead of completing"
    )
    assert results_equal(variant.results, oracle.results), (
        "variant results differ from the serial oracle:\n"
        + _describe_diff(variant.results, oracle.results)
    )
    return variant, oracle
