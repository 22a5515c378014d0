"""Command-line interface: mine graphs with Subgraph Morphing from a shell.

Usage examples::

    python -m repro.cli datasets
    python -m repro.cli motifs --graph mico --size 4
    python -m repro.cli count --graph mico --pattern 4CL --pattern TT-V
    python -m repro.cli count --graph-file my.edges --pattern C4 --engine graphpi
    python -m repro.cli fsm --graph mico --support 15 --max-edges 3
    python -m repro.cli equation TT C4-V
    python -m repro.cli cliques --graph orkut --max-size 8
    python -m repro.cli serve --graphs mico --port 7071
    python -m repro.cli submit --port 7071 --graph mico --pattern 4CL
    python -m repro.cli top 7071

Pattern names are the paper's (Figure 1 / Figure 11a): ``triangle``,
``4S``, ``TT``, ``C4``, ``C4C``, ``4CL``, ``4P``, ``p1``..``p10``; a
``-V`` suffix selects the vertex-induced variant. ``--no-morph`` runs
the baseline path.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.approximate import approximate_count
from repro.apps.clique_finding import clique_census
from repro.apps.fsm import mine_frequent_subgraphs
from repro.core.atlas import (
    EVALUATION_PATTERNS,
    NAMED_PATTERNS,
    motif_patterns,
    pattern_name,
)
from repro.core.equations import morph_equation
from repro.core.pattern import Pattern
from repro.api import ENGINES, run
from repro.graph import datasets
from repro.graph.io import load_edge_list
from repro.options import RunOptions


def resolve_pattern(name: str) -> Pattern:
    """Parse a pattern spec: a name like ``TT``/``C4-V``, or DSL text.

    Anything containing a comma, ``!``, brackets or multiple dashes is
    treated as a pattern expression (see :mod:`repro.core.parser`), e.g.
    ``"a-b,b-c,c-a"`` or ``"a-b-c-d-a [a:1]"``.
    """
    table = {**NAMED_PATTERNS, **EVALUATION_PATTERNS}
    base, _, suffix = name.partition("-")
    if base in table:
        pattern = table[base]
        if suffix == "V":
            return pattern.vertex_induced()
        if suffix in ("", "E"):
            return pattern
        raise SystemExit(f"unknown variant suffix {suffix!r} (use -V or -E)")
    if any(ch in name for ch in ",!([") or name.count("-") > 1:
        from repro.core.parser import PatternSyntaxError, parse_pattern

        try:
            return parse_pattern(name)
        except PatternSyntaxError as exc:
            raise SystemExit(f"bad pattern expression {name!r}: {exc}")
    raise SystemExit(
        f"unknown pattern {name!r}; choose from {', '.join(sorted(table))} "
        "or pass a pattern expression like 'a-b,b-c,c-a'"
    )


def resolve_graph(args):
    if args.graph_file:
        graph = load_edge_list(args.graph_file, args.label_file)
        if graph.num_dropped_self_loops or graph.num_duplicate_edges:
            print(
                f"# cleaned {graph.name}: dropped "
                f"{graph.num_dropped_self_loops} self-loops and "
                f"{graph.num_duplicate_edges} duplicate edges",
                file=sys.stderr,
            )
        return graph
    return datasets.load(args.graph)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", default="mico", help="dataset name/code")
    parser.add_argument("--graph-file", help="edge-list file (overrides --graph)")
    parser.add_argument("--label-file", help="vertex-label file for --graph-file")
    parser.add_argument(
        "--engine", choices=sorted(ENGINES), default="peregrine"
    )
    parser.add_argument(
        "--no-morph", action="store_true", help="run the baseline path"
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    """Only on subcommands whose pipeline honors shard parallelism."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard-parallel worker threads (1 = serial, the default)",
    )


def _add_strategy(parser: argparse.ArgumentParser) -> None:
    """Only on subcommands that run through ``repro.run``."""
    from repro.plan.search import STRATEGIES

    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="auto",
        help="rewrite strategy: auto (cost-driven rule competition, the "
        "default), morph (Algorithm 1 only), decompose (force IEP "
        "decomposition wherever legal), direct (no rewriting) — "
        "identical results either way",
    )


def _add_batch_roots(parser: argparse.ArgumentParser) -> None:
    """Only on subcommands that run through ``repro.run``."""
    parser.add_argument(
        "--batch-roots",
        type=int,
        default=None,
        metavar="N",
        help="root-chunk size of the vectorized frontier kernel (default: "
        "batched, 2048; 0 = per-root reference kernel; identical results)",
    )


def _add_fault_tolerance(parser: argparse.ArgumentParser) -> None:
    """Only on subcommands that run through ``repro.run``."""
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; on expiry outstanding shards are "
        "cancelled and completed-shard aggregates are reported with a "
        "coverage fraction (exit code 3)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="JSONL journal of completed shard results; re-running with "
        "the same path resumes, skipping finished shards",
    )


def _add_trace(parser: argparse.ArgumentParser) -> None:
    """Only on subcommands that run through ``repro.run``."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a structured run trace (JSONL) to PATH "
        "(convert with repro.observe.write_chrome_trace for flame graphs)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live per-item progress/ETA line on stderr (ETA seeded from "
        "the cost model's predictions, corrected by measured match times)",
    )


def cmd_datasets(_args) -> int:
    print(f"{'code':5s} {'name':11s} {'|V|':>7s} {'|E|':>8s} {'labels':>7s} {'maxdeg':>7s} {'avgdeg':>7s}")
    for row in datasets.summary_table():
        labels = row["labels"] if row["labels"] is not None else "-"
        print(
            f"{row['code']:5s} {row['name']:11s} {row['vertices']:>7d} "
            f"{row['edges']:>8d} {labels!s:>7s} {row['max_degree']:>7d} "
            f"{row['avg_degree']:>7.1f}"
        )
    return 0


def _run_options(args) -> RunOptions:
    """The :class:`repro.RunOptions` the ``repro.run`` flags describe."""
    return RunOptions(
        engine=args.engine,
        morph=not args.no_morph,
        strategy=args.strategy,
        workers=args.workers,
        trace=args.trace,
        progress=args.progress,
        batch_roots=args.batch_roots,
        deadline_seconds=args.deadline,
        checkpoint=args.checkpoint,
    )


def cmd_count(args) -> int:
    graph = resolve_graph(args)
    patterns = [resolve_pattern(p) for p in args.pattern]
    result = run(graph, patterns, options=_run_options(args))
    for p in patterns:
        if p in result.results:
            print(f"{pattern_name(p):10s} {result.results[p]}")
        else:
            print(f"{pattern_name(p):10s} <not derived before deadline>")
    _print_footer(result, trace_path=args.trace)
    return _exit_code(result)


def cmd_motifs(args) -> int:
    graph = resolve_graph(args)
    result = run(graph, list(motif_patterns(args.size)), options=_run_options(args))
    for p, c in sorted(result.results.items(), key=lambda kv: -kv[1]):
        print(f"{pattern_name(p):10s} {c}")
    _print_footer(result, trace_path=args.trace)
    return _exit_code(result)


def cmd_fsm(args) -> int:
    graph = resolve_graph(args)
    if not graph.is_labeled:
        raise SystemExit(f"{graph.name} is unlabeled; FSM needs labels")
    result = mine_frequent_subgraphs(
        graph,
        support_threshold=args.support,
        max_edges=args.max_edges,
        engine=ENGINES[args.engine](),
        morph=not args.no_morph,
        workers=args.workers,
    )
    for p, support in sorted(result.frequent.items(), key=lambda kv: -kv[1]):
        labels = "/".join(str(p.label(v)) for v in range(p.n))
        print(f"support={support:5d} {p.num_edges}e {p.n}v labels[{labels}]")
    print(f"# {len(result.frequent)} frequent patterns in {result.total_seconds:.2f}s")
    return 0


def cmd_cliques(args) -> int:
    graph = resolve_graph(args)
    census = clique_census(graph, args.max_size, engine=ENGINES[args.engine]())
    for size, count in census.items():
        print(f"{size}-clique  {count}")
    return 0


def cmd_equation(args) -> int:
    for name in args.patterns:
        print(morph_equation(resolve_pattern(name)))
    return 0


def cmd_orbits(args) -> int:
    from repro.apps.orbit_counting import orbit_signature

    graph = resolve_graph(args)
    signature = orbit_signature(graph, args.vertex, size=args.size)
    for name, count in signature.items():
        print(f"{name:16s} {count}")
    return 0


def cmd_approx(args) -> int:
    graph = resolve_graph(args)
    pattern = resolve_pattern(args.pattern)
    approx = approximate_count(
        graph,
        pattern,
        sample_prob=args.prob,
        trials=args.trials,
        engine=ENGINES[args.engine](),
    )
    lo, hi = approx.confidence_interval()
    print(
        f"estimate {approx.estimate:.1f} "
        f"(95% CI [{lo:.1f}, {hi:.1f}], {approx.trials} trials, p={approx.sample_prob})"
    )
    return 0


def cmd_serve(args) -> int:
    """Run the resident mining daemon until interrupted or shut down."""
    from repro.serve import AdmissionPolicy, GraphRegistry, MiningServer

    registry = GraphRegistry()
    for name in args.graphs or []:
        resident = registry.load(name)
        print(
            f"# resident: {resident.name} "
            f"({resident.graph.num_vertices} vertices)",
            file=sys.stderr,
        )
    chaos = None
    if args.chaos_seed is not None:
        from repro.testing.faults import QueryFaultPlan

        chaos = QueryFaultPlan.random(
            num_queries=args.chaos_queries,
            seed=args.chaos_seed,
            p_fault=args.chaos_p,
        )
        print(
            f"# CHAOS MODE: seeded fault plan over {args.chaos_queries} "
            f"query indices (seed {args.chaos_seed}, p={args.chaos_p})",
            file=sys.stderr,
        )
    server = MiningServer(
        registry=registry,
        policy=AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            max_per_client=args.max_per_client,
        ),
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        slow_factor=args.slow_factor,
        flight_capacity=args.flight_capacity,
        slo_p99=args.slo_p99,
        protect_priority=args.protect_priority,
        wall_budget_s=args.wall_budget,
        rss_budget_bytes=(
            int(args.rss_budget_mb * 1024 * 1024)
            if args.rss_budget_mb is not None
            else None
        ),
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        drain_deadline_s=args.drain_deadline,
        state_path=args.state,
        chaos=chaos,
    )
    _install_dump_handler(server, args.dump_dir)
    _install_drain_handler(server, args.dump_dir)
    host, port = server.start()
    if args.resume:
        try:
            resumed = server.resume_from(args.resume)
        except FileNotFoundError:
            print(f"# no service state at {args.resume}; starting cold",
                  file=sys.stderr)
        else:
            print(
                f"# resumed: {len(resumed['graphs'])} graphs, "
                f"{resumed['results']} cached results"
                + (f", {len(resumed['failed'])} graphs failed"
                   if resumed["failed"] else ""),
                file=sys.stderr,
            )
    print(f"# listening on {host}:{port} (Ctrl-C or the shutdown op stops)",
          file=sys.stderr)
    print(port, flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        if server.drain_state == "accepting":
            server.drain(args.dump_dir)
        server.close()
    return 0


def _install_dump_handler(server, dump_dir) -> None:
    """SIGUSR1 → dump the flight recorder (main thread only, best effort)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # signal handlers can only be installed from the main thread
    usr1 = getattr(signal, "SIGUSR1", None)
    if usr1 is None:
        return  # platform without SIGUSR1 (Windows)

    def _dump(_signum, _frame):
        directory, files = server.dump_flight(dump_dir)
        print(
            f"# flight recorder dumped: {len(files)} files in {directory}",
            file=sys.stderr,
        )

    signal.signal(usr1, _dump)


def _install_drain_handler(server, dump_dir) -> None:
    """SIGTERM → graceful drain (main thread only, best effort)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # signal handlers can only be installed from the main thread
    term = getattr(signal, "SIGTERM", None)
    if term is None:
        return

    def _drain(_signum, _frame):
        # The drain itself runs off the signal handler's stack so the
        # handler returns immediately; drain() closes the server, which
        # unblocks server.wait() in cmd_serve.
        print("# SIGTERM: draining (no new queries accepted)", file=sys.stderr)
        threading.Thread(
            target=server.drain, args=(dump_dir,), daemon=True
        ).start()

    signal.signal(term, _drain)


def cmd_top(args) -> int:
    """Live dashboard over a running ``repro serve`` daemon."""
    from repro.serve import TopDashboard, connect

    client = connect(port=args.port, host=args.host, client_id=args.client)
    dashboard = TopDashboard(client, interval=args.interval)
    iterations = 1 if args.once else args.iterations
    rendered = dashboard.run(iterations=iterations)
    return 0 if rendered else 1


def cmd_submit(args) -> int:
    """Submit one query to a running ``repro serve`` daemon."""
    from repro.serve import connect

    client = connect(
        port=args.port,
        host=args.host,
        client_id=args.client,
        timeout=args.timeout,
        retry=args.max_retries,
    )
    if args.stats:
        stats = client.stats()
        for name, value in sorted(stats["metrics"].items()):
            print(f"{name:40s} {value}")
        print(f"# queue depth {stats['scheduler']['depth']}, "
              f"result cache {stats['result_cache_entries']} entries, "
              f"graphs: {', '.join(stats['graphs']) or 'none'}",
              file=sys.stderr)
        return 0
    client.load(args.graph)
    patterns = [resolve_pattern(p) for p in args.pattern]
    options = RunOptions(
        engine=args.engine,
        aggregation=args.aggregation,
        morph=not args.no_morph,
        strategy=args.strategy,
        workers=args.workers,
    )
    result = client.run(
        args.graph,
        patterns,
        options=options,
        priority=args.priority,
        use_result_cache=not args.no_result_cache,
    )
    for p in patterns:
        print(f"{pattern_name(p):10s} {result.results[p]}")
    print(
        f"# {'cache hit' if result.cached else 'computed'}"
        + (f", match {result.seconds.get('match', 0.0):.3f}s" if result.seconds else ""),
        file=sys.stderr,
    )
    return 0


def _exit_code(result) -> int:
    """0 for a complete run, 3 for a deadline-degraded partial result."""
    from repro.morph.session import PartialRunResult

    return 3 if isinstance(result, PartialRunResult) else 0


def _print_footer(result, trace_path=None) -> None:
    from repro.morph.session import PartialRunResult

    mode = "morphed" if result.morphing_enabled else "baseline"
    extra = ""
    if result.morphing_enabled and result.selection:
        fired = sum(result.selection.morphed.values())
        extra = f", {fired} queries morphed, {len(result.measured)} patterns measured"
    print(
        f"# {mode}: {result.total_seconds:.2f}s, "
        f"{result.stats.setops.total_ops} set ops{extra}",
        file=sys.stderr,
    )
    if isinstance(result, PartialRunResult):
        print(
            f"# PARTIAL: deadline expired at "
            f"{result.completed_shards}/{result.total_shards} shards "
            f"(coverage {result.coverage:.0%}); "
            f"{len(result.unresolved)} quer"
            f"{'y' if len(result.unresolved) == 1 else 'ies'} not derived "
            "— pass --checkpoint to resume where this run stopped",
            file=sys.stderr,
        )
    if trace_path and result.trace is not None:
        stages = ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(result.trace.stage_seconds().items())
        )
        print(f"# trace: {trace_path} ({stages})", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic dataset suite")

    count = sub.add_parser("count", help="count pattern matches")
    _add_common(count)
    _add_workers(count)
    _add_strategy(count)
    _add_batch_roots(count)
    _add_trace(count)
    _add_fault_tolerance(count)
    count.add_argument(
        "--pattern", action="append", required=True, help="repeatable"
    )

    motifs = sub.add_parser("motifs", help="motif counting")
    _add_common(motifs)
    _add_workers(motifs)
    _add_strategy(motifs)
    _add_batch_roots(motifs)
    _add_trace(motifs)
    _add_fault_tolerance(motifs)
    motifs.add_argument("--size", type=int, default=4, choices=(3, 4, 5))

    fsm = sub.add_parser("fsm", help="frequent subgraph mining")
    _add_common(fsm)
    _add_workers(fsm)
    fsm.add_argument("--support", type=int, required=True)
    fsm.add_argument("--max-edges", type=int, default=3)

    cliques = sub.add_parser("cliques", help="clique census")
    _add_common(cliques)
    cliques.add_argument("--max-size", type=int, default=6)

    equation = sub.add_parser("equation", help="print morphing equations")
    equation.add_argument("patterns", nargs="+")

    orbits = sub.add_parser("orbits", help="graphlet orbit signature of a vertex")
    _add_common(orbits)
    orbits.add_argument("--vertex", type=int, required=True)
    orbits.add_argument("--size", type=int, default=3, choices=(3, 4))

    approx = sub.add_parser("approx", help="approximate pattern count")
    _add_common(approx)
    approx.add_argument("--pattern", required=True)
    approx.add_argument("--prob", type=float, default=0.5)
    approx.add_argument("--trials", type=int, default=5)

    serve = sub.add_parser(
        "serve",
        help="resident mining daemon: load graphs once, answer queries "
        "over a local socket",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one; the chosen port is printed "
        "on stdout)",
    )
    serve.add_argument(
        "--graphs", action="append", metavar="NAME",
        help="dataset name/code or edge-list path to preload (repeatable; "
        "clients can also load on demand)",
    )
    serve.add_argument(
        "--serve-workers", type=int, default=2, metavar="N",
        help="queries that may execute at once (default 2; 0 = no bound)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=64,
        help="admission control: reject new queries beyond this backlog",
    )
    serve.add_argument(
        "--max-per-client", type=int, default=4,
        help="admission control: max in-flight queries per client id",
    )
    serve.add_argument(
        "--slow-factor", type=float, default=8.0, metavar="K",
        help="flight recorder slow-query threshold: measured match time "
        "> K x plan-predicted time is retained as an anomaly (default 8)",
    )
    serve.add_argument(
        "--flight-capacity", type=int, default=64, metavar="N",
        help="flight recorder ring size: last N query traces kept "
        "(anomalies are retained separately; default 64)",
    )
    serve.add_argument(
        "--dump-dir", metavar="PATH",
        help="where SIGUSR1 dumps flight-recorder traces "
        "(default: a fresh temp directory per dump)",
    )
    serve.add_argument(
        "--slo-p99", type=float, default=None, metavar="SECONDS",
        help="load shedding: when the live p99 end-to-end latency exceeds "
        "this SLO, low-priority submissions are rejected with "
        "rejected:overload and a retry_after_s hint (default: off)",
    )
    serve.add_argument(
        "--protect-priority", type=int, default=1, metavar="P",
        help="load shedding never rejects queries at priority >= P "
        "(default 1: only priority-0 work is sheddable)",
    )
    serve.add_argument(
        "--wall-budget", type=float, default=None, metavar="SECONDS",
        help="per-query sentinel: cancel any query running longer than "
        "this, returning the usual partial/typed-error shape (default: off)",
    )
    serve.add_argument(
        "--rss-budget-mb", type=float, default=None, metavar="MB",
        help="per-query sentinel: cancel the running query when daemon RSS "
        "grows by more than this while it executes (default: off)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="open a (graph, engine) circuit breaker after N consecutive "
        "worker crashes or sentinel trips (default 3)",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=5.0, metavar="SECONDS",
        help="cool-down before an open breaker lets a half-open probe "
        "through (default 5)",
    )
    serve.add_argument(
        "--drain-deadline", type=float, default=5.0, metavar="SECONDS",
        help="graceful drain (SIGTERM / the drain op): how long to wait "
        "for in-flight queries before closing anyway (default 5)",
    )
    serve.add_argument(
        "--state", metavar="PATH",
        help="persist the registry manifest and result-cache journal here "
        "on drain, for --resume (default: no persistence)",
    )
    serve.add_argument(
        "--resume", metavar="PATH",
        help="warm-restart from a --state journal written by a previous "
        "incarnation's drain (missing file starts cold)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="TESTING ONLY: inject a seeded random fault plan "
        "(crash/hang/slow/corrupt/torn-socket) keyed by each request's "
        "chaos_index (default: off)",
    )
    serve.add_argument(
        "--chaos-p", type=float, default=0.3, metavar="P",
        help="chaos mode: per-query fault probability (default 0.3)",
    )
    serve.add_argument(
        "--chaos-queries", type=int, default=64, metavar="N",
        help="chaos mode: how many query indices the fault plan covers "
        "(default 64)",
    )

    top = sub.add_parser(
        "top",
        help="live dashboard for a running repro serve daemon: QPS, "
        "latency quantiles, queue depth, per-engine breakdowns, slow queries",
    )
    top.add_argument("port", type=int, help="the daemon's port")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll/redraw interval (each frame is one stats request)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scripting/CI)",
    )
    top.add_argument(
        "--client", default="top", help="client id shown to the daemon"
    )

    submit = sub.add_parser(
        "submit", help="submit one query to a running repro serve daemon"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument("--graph", default="mico", help="resident graph name")
    submit.add_argument(
        "--pattern", action="append", default=[], help="repeatable"
    )
    submit.add_argument(
        "--aggregation", choices=("count", "mni", "matches", "exists"),
        default=None,
    )
    submit.add_argument("--engine", choices=sorted(ENGINES), default="peregrine")
    submit.add_argument("--no-morph", action="store_true")
    submit.add_argument("--strategy", default="auto")
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher runs first)",
    )
    submit.add_argument(
        "--client", default="cli", help="client id for per-client limits"
    )
    submit.add_argument(
        "--no-result-cache", action="store_true",
        help="bypass the daemon's result cache (plan cache still applies)",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the daemon's metrics snapshot instead of running a query",
    )
    submit.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request socket timeout (default 60)",
    )
    submit.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry retryable rejections (overload, circuit-open, "
        "queue-full) and torn connections up to N times with seeded-"
        "jitter exponential backoff, honoring the daemon's retry_after_s "
        "hint (default: no retries)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "count": cmd_count,
        "motifs": cmd_motifs,
        "fsm": cmd_fsm,
        "cliques": cmd_cliques,
        "equation": cmd_equation,
        "orbits": cmd_orbits,
        "approx": cmd_approx,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "top": cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
