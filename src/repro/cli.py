"""Command-line interface: ``python -m repro.cli <command>``.

Commands operate on a JSON *exchange document* — a single file holding the
setting and the source instance (see :func:`load_document`)::

    {
      "setting":  { ... },   # repro.io.dependencies.setting_to_dict format
      "instance": { ... }    # repro.io.json_io.instance_to_dict format
    }

Available commands:

* ``demo``     — write the paper's running example as an exchange document
                 (a ready-made input for the other commands);
* ``genscale`` — stream a deterministic scale-workload tenant (the
                 ``medlit``/``social`` families of
                 :mod:`repro.scenarios.scale`) up to 10^6 nodes in
                 O(batch) memory, or materialise a small one as an
                 exchange document;
* ``chase``    — run the appropriate chase and print the resulting pattern
                 (or graph, in the single-symbol fragment);
* ``exists``   — decide existence of solutions; exit code 0/1/2 for
                 exists / not-exists / unknown;
* ``certain``  — compute the certain answers of an NRE query;
* ``render``   — emit Graphviz DOT for a graph JSON file;
* ``snapshot`` — ``save``/``load``/``info`` for graph
                 snapshots (version-stamped files, see
                 :mod:`repro.graph.snapshot`);
* ``serve``    — run the persistent JSON-lines service (worker pool +
                 result cache, see :mod:`repro.service`; pass
                 ``--snapshot-dir`` to persist per-tenant witness
                 snapshots across restarts);
* ``submit``   — send one request to a running service and print the
                 response (mirrors the direct commands' exit codes).

``exists`` and ``certain`` accept ``--stats`` to print the engine's
:class:`~repro.engine.query.EvalStats` counters after the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from repro.chase.egd_chase import chase_with_egds
from repro.chase.pattern_chase import chase_pattern
from repro.core.certain import certain_answers_nre
from repro.core.existence import decide_existence
from repro.core.search import CandidateSearchConfig
from repro.core.setting import DataExchangeSetting
from repro.engine.query import QueryEngine
from repro.graph.parser import parse_nre
from repro.io.dependencies import setting_to_dict
from repro.io.dot import graph_to_dot, pattern_to_dot
from repro.io.json_io import (
    document_from_dict,
    graph_from_dict,
    graph_to_dict,
    instance_to_dict,
    pattern_to_dict,
)
from repro.relational.instance import RelationalInstance


def load_document(path: str) -> tuple[DataExchangeSetting, RelationalInstance]:
    """Read an exchange document (setting + instance) from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return document_from_dict(json.load(handle))


def _read_document_dict(path: str) -> dict:
    """Read an exchange document as its raw wire dictionary."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios.flights import flights_instance, setting_omega

    document = {
        "setting": setting_to_dict(setting_omega()),
        "instance": instance_to_dict(flights_instance()),
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_genscale(args: argparse.Namespace) -> int:
    from repro.scenarios.scale import (
        GeneratorConfig,
        iter_fact_batches,
        scale_document,
    )

    config = GeneratorConfig(
        family=args.family,
        nodes=args.nodes,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    if args.format == "document":
        # Materialises the whole instance — meant for smoke-sized tenants
        # that feed the other commands; the jsonl format streams.
        text = json.dumps(scale_document(config), indent=2, sort_keys=True)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        return 0

    def stream(handle) -> int:
        header = {
            "family": config.family,
            "nodes": config.nodes,
            "seed": config.seed,
            "batch_size": config.batch_size,
            "format": "repro.genscale/v1",
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        total = 0
        for batch in iter_fact_batches(config):
            lines = [
                json.dumps([relation, list(values)], separators=(",", ":"))
                for relation, values in batch
            ]
            handle.write("\n".join(lines) + "\n")
            total += len(batch)
        handle.write(json.dumps({"facts": total}, sort_keys=True) + "\n")
        return total

    if args.output == "-":
        stream(sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            total = stream(handle)
        print(f"wrote {args.output} ({total} facts)")
    return 0


def _cmd_chase(args: argparse.Namespace) -> int:
    setting, instance = load_document(args.document)
    if setting.egds():
        result = chase_with_egds(
            setting.st_tgds, setting.egds(), instance, alphabet=setting.alphabet
        )
        if result.failed:
            left, right = result.failure_witness  # type: ignore[misc]
            print(f"chase FAILED: egd equates constants {left!r} and {right!r}")
            print("no solution exists")
            return 1
    else:
        result = chase_pattern(setting.st_tgds, instance, alphabet=setting.alphabet)
    pattern = result.expect_pattern()
    if args.json:
        print(json.dumps(pattern_to_dict(pattern), indent=2, sort_keys=True))
    else:
        print(pattern.pretty())
        print(
            f"-- {result.stats.st_applications} trigger(s), "
            f"{result.stats.null_merges} merge(s)"
        )
    return 0


def _maybe_print_stats(args: argparse.Namespace, engine) -> None:
    if getattr(args, "stats", False):
        print(f"stats: {engine.stats.summary()}")


def _cmd_exists(args: argparse.Namespace) -> int:
    setting, instance = load_document(args.document)
    config = CandidateSearchConfig(star_bound=args.star_bound)
    engine = QueryEngine()
    result = decide_existence(setting, instance, search_config=config, engine=engine)
    print(f"status: {result.status.value}")
    print(f"method: {result.method}")
    if result.detail:
        print(f"detail: {result.detail}")
    if result.witness is not None and args.witness:
        print(json.dumps(graph_to_dict(result.witness), indent=2, sort_keys=True))
    _maybe_print_stats(args, engine)
    return {"exists": 0, "not-exists": 1, "unknown": 2}[result.status.value]


def _cmd_certain(args: argparse.Namespace) -> int:
    setting, instance = load_document(args.document)
    query = parse_nre(args.query)
    config = CandidateSearchConfig(star_bound=args.star_bound)
    engine = QueryEngine()
    if args.pair:
        from repro.core.certain import find_counterexample_solution

        pair = tuple(args.pair)
        counterexample = find_counterexample_solution(
            setting, instance, query, pair, config=config, engine=engine
        )
        if counterexample is None:
            print(f"{pair} is a certain answer")
            _maybe_print_stats(args, engine)
            return 0
        print(f"{pair} is NOT certain; counterexample solution:")
        print(json.dumps(graph_to_dict(counterexample), indent=2, sort_keys=True))
        _maybe_print_stats(args, engine)
        return 1
    result = certain_answers_nre(setting, instance, query, config=config, engine=engine)
    if result.no_solution:
        print("no solution exists: every tuple is (vacuously) certain")
        _maybe_print_stats(args, engine)
        return 0
    print(f"method: {result.method}")
    for pair in sorted(result.answers, key=repr):
        print(f"  {pair[0]}  {pair[1]}")
    if not result.answers:
        print("  (no certain answers)")
    _maybe_print_stats(args, engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_limit=0 if args.no_cache else args.cache_limit,
        snapshot_dir=args.snapshot_dir,
        metrics_port=args.metrics_port,
    )
    return 0


def _parse_service_address(address: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``, defaulting to localhost)."""
    host, _, port_text = address.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"invalid service address {address!r} "
                         "(expected HOST:PORT or PORT)") from None
    return host, port


def _cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats <addr>``: a live telemetry snapshot, human-rendered."""
    from repro.service.client import ServiceClient, ServiceError

    host, port = _parse_service_address(args.address)
    try:
        with ServiceClient(host, port, timeout=args.timeout) as client:
            body = client.metrics()
    except (ServiceError, OSError) as error:
        print(f"service error: {error}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    metrics = body["metrics"]
    service = body["service"]
    print(f"telemetry: {'on' if body['enabled'] else 'off'}")
    print(
        f"service: requests={service['requests']} "
        f"connections={service['connections']} "
        f"active_jobs={len(service['active_jobs'])}"
    )
    cache = service.get("cache")
    if cache:
        print(
            f"cache: entries={cache['entries']}/{cache['limit']} "
            f"hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']}"
        )
    traces = body.get("traces", {})
    if traces:
        print(
            f"traces: recorded={traces['recorded']} "
            f"slow={traces['slow_recorded']}"
        )
    if metrics["counters"]:
        print("counters:")
        for name in sorted(metrics["counters"]):
            print(f"  {name} = {metrics['counters'][name]}")
    if metrics["gauges"]:
        print("gauges:")
        for name in sorted(metrics["gauges"]):
            print(f"  {name} = {metrics['gauges'][name]}")
    if metrics["histograms"]:
        print("histograms:")
        for name in sorted(metrics["histograms"]):
            snap = metrics["histograms"][name]
            mean_ms = (snap["sum"] / snap["count"] * 1000) if snap["count"] else 0.0
            print(
                f"  {name}: count={snap['count']} "
                f"mean={mean_ms:.3f}ms total={snap['sum']:.6f}s"
            )
    return 0


def _render_span(node: dict, depth: int = 0) -> list[str]:
    """Indent one span subtree into printable lines."""
    duration_ms = float(node.get("duration_s", 0.0)) * 1000
    attrs = node.get("attrs") or {}
    attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    line = f"{'  ' * depth}{node.get('name', '?')}  {duration_ms:.3f}ms"
    if attr_text:
        line += f"  [{attr_text}]"
    lines = [line]
    for child in node.get("children", ()):
        lines.extend(_render_span(child, depth + 1))
    if node.get("dropped_children"):
        lines.append(
            f"{'  ' * (depth + 1)}(+{node['dropped_children']} spans dropped)"
        )
    return lines


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <addr>``: recent (or slow) request traces, rendered."""
    from repro.service.client import ServiceClient, ServiceError

    host, port = _parse_service_address(args.address)
    try:
        with ServiceClient(host, port, timeout=args.timeout) as client:
            body = client.traces(limit=args.limit, slow=args.slow)
    except (ServiceError, OSError) as error:
        print(f"service error: {error}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    stats = body["stats"]
    ring = "slow-request ring" if args.slow else "recent ring"
    print(
        f"{ring}: showing {len(body['traces'])} of "
        f"{stats['slow_recorded'] if args.slow else stats['recorded']} recorded"
    )
    for trace in body["traces"]:
        print()
        print("\n".join(_render_span(trace)))
    if not body["traces"]:
        print("(no traces recorded — is REPRO_TELEMETRY off on the server?)")
    return 0


def _submit_status_code(op: str, params: dict, result: dict) -> int:
    """Mirror the direct commands' exit codes for service responses."""
    if op == "exists":
        return {"exists": 0, "not-exists": 1, "unknown": 2}[result["status"]]
    if op == "certain" and params.get("pair") is not None:
        return 0 if result["certain"] else 1
    if op == "chase":
        return 1 if result["failed"] else 0
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    op = args.request
    params: dict = {}
    if op in ("exists", "certain", "chase", "batch"):
        params["document"] = _read_document_dict(args.document)
    if op == "certain":
        params["query"] = args.query
        if args.pair:
            params["pair"] = list(args.pair)
    if op == "batch":
        op = "evaluate_batch"
        params["queries"] = list(args.queries)
    if op in ("exists", "certain", "evaluate_batch"):
        if args.star_bound is not None:
            params["star_bound"] = args.star_bound
    if op == "cancel":
        params["job"] = args.job
    if op == "traces":
        if args.limit is not None:
            params["limit"] = args.limit
        if args.slow:
            params["slow"] = True

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            envelope = client.request(
                op,
                params or None,
                deadline_s=args.deadline,
                no_cache=args.no_result_cache,
            )
        except (ServiceError, OSError) as error:
            print(f"service error: {error}", file=sys.stderr)
            return 3
    if not envelope.get("ok"):
        error = envelope.get("error", {})
        print(
            f"error[{error.get('code', '?')}]: {error.get('message', '')}",
            file=sys.stderr,
        )
        return 3
    print(json.dumps(envelope["result"], indent=2, sort_keys=True))
    if envelope.get("cached"):
        print("(served from the result cache)", file=sys.stderr)
    return _submit_status_code(op, params, envelope["result"])


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotError
    from repro.graph.snapshot import SNAPSHOT_FORMAT, load_snapshot, save_snapshot

    if args.action == "save":
        with open(args.graph, encoding="utf-8") as handle:
            graph = graph_from_dict(json.load(handle))
        save_snapshot(graph, args.snapshot)
        print(
            f"wrote {args.snapshot}: |V|={graph.node_count()} "
            f"|E|={graph.edge_count()} (snapshot format {SNAPSHOT_FORMAT})"
        )
        return 0
    try:
        graph = load_snapshot(args.snapshot)
    except SnapshotError as error:
        print(f"snapshot error: {error}", file=sys.stderr)
        return 2
    if args.action == "load":
        text = json.dumps(graph_to_dict(graph), indent=2, sort_keys=True)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        return 0
    # info
    token = graph.fingerprint()
    print(f"snapshot: {args.snapshot}")
    print(f"format: {SNAPSHOT_FORMAT}")
    print(f"nodes: {graph.node_count()}")
    print(f"edges: {graph.edge_count()}")
    print(f"alphabet: {sorted(map(str, graph.alphabet))}")
    print(f"fingerprintable: {token is not None}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    with open(args.graph, encoding="utf-8") as handle:
        data: dict[str, Any] = json.load(handle)
    if "edges" in data and data.get("edges") and len(data["edges"][0]) == 3 and (
        isinstance(data["edges"][0][1], dict)
    ):
        from repro.io.json_io import pattern_from_dict

        print(pattern_to_dot(pattern_from_dict(data), name=args.name))
    else:
        print(graph_to_dot(graph_from_dict(data), name=args.name))
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's evaluation counters after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Relational-to-graph data exchange with target constraints",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="write the paper's running example")
    demo.add_argument("-o", "--output", default="-", help="output path or - for stdout")
    demo.set_defaults(handler=_cmd_demo)

    genscale = commands.add_parser(
        "genscale",
        help="stream a deterministic scale-workload tenant (medlit/social)",
    )
    genscale.add_argument(
        "--family",
        choices=["medlit", "social"],
        required=True,
        help="workload family: medlit knowledge graph or social network",
    )
    genscale.add_argument(
        "--nodes", type=int, required=True, help="entity-universe size (≥ 1)"
    )
    genscale.add_argument(
        "--seed", type=int, default=7, help="generator seed (default 7)"
    )
    genscale.add_argument(
        "--batch-size",
        type=int,
        default=10_000,
        help="facts held in memory at a time while streaming (default 10000)",
    )
    genscale.add_argument(
        "--format",
        choices=["jsonl", "document"],
        default="jsonl",
        help="jsonl streams facts in O(batch) memory; document materialises "
        "a full exchange document for the other commands",
    )
    genscale.add_argument(
        "-o", "--output", default="-", help="output path or - for stdout"
    )
    genscale.set_defaults(handler=_cmd_genscale)

    chase = commands.add_parser("chase", help="chase an exchange document")
    chase.add_argument("document", help="exchange document (JSON)")
    chase.add_argument("--json", action="store_true", help="emit the pattern as JSON")
    chase.set_defaults(handler=_cmd_chase)

    exists = commands.add_parser("exists", help="decide existence of solutions")
    exists.add_argument("document")
    exists.add_argument("--star-bound", type=int, default=2)
    exists.add_argument("--witness", action="store_true", help="print the witness graph")
    _add_engine_arguments(exists)
    exists.set_defaults(handler=_cmd_exists)

    certain = commands.add_parser("certain", help="certain answers of an NRE query")
    certain.add_argument("document")
    certain.add_argument("query", help="NRE, e.g. 'f . f*[h] . f- . (f-)*'")
    certain.add_argument("--star-bound", type=int, default=2)
    certain.add_argument(
        "--pair",
        nargs=2,
        metavar=("U", "V"),
        help="decide one tuple instead of computing the whole set "
        "(exit 0 = certain, 1 = counterexample found)",
    )
    _add_engine_arguments(certain)
    certain.set_defaults(handler=_cmd_certain)

    render = commands.add_parser("render", help="render a graph JSON file as DOT")
    render.add_argument("graph", help="graph or pattern JSON file")
    render.add_argument("--name", default="G")
    render.set_defaults(handler=_cmd_render)

    snapshot = commands.add_parser(
        "snapshot",
        help="save/load graph snapshots (version-stamped files)",
    )
    snapshot_actions = snapshot.add_subparsers(dest="action", required=True)
    snap_save = snapshot_actions.add_parser(
        "save", help="write a graph JSON file as a snapshot"
    )
    snap_save.add_argument("graph", help="graph JSON file (graph_to_dict shape)")
    snap_save.add_argument("snapshot", help="output snapshot path")
    snap_load = snapshot_actions.add_parser(
        "load", help="load a snapshot back into graph JSON"
    )
    snap_load.add_argument("snapshot", help="snapshot file")
    snap_load.add_argument(
        "-o", "--output", default="-", help="output path or - for stdout"
    )
    snap_info = snapshot_actions.add_parser(
        "info", help="print a snapshot's counts and format facts"
    )
    snap_info.add_argument("snapshot", help="snapshot file")
    snapshot.set_defaults(handler=_cmd_snapshot)

    serve = commands.add_parser(
        "serve", help="run the persistent JSON-lines exchange service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = inline single-threaded lane)",
    )
    serve.add_argument(
        "--cache-limit",
        type=int,
        default=1024,
        help="result-cache entries kept by the server",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the server result cache"
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for frozen per-tenant witness snapshots: warm "
        "tenants skip re-chasing after a restart (sets REPRO_SNAPSHOT_DIR "
        "for the worker pool)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also bind a plain-HTTP /metrics + /healthz introspection "
        "listener on this port (0 = ephemeral; Prometheus text format)",
    )
    serve.set_defaults(handler=_cmd_serve)

    stats = commands.add_parser(
        "stats", help="live telemetry snapshot of a running service"
    )
    stats.add_argument("address", help="service address (HOST:PORT or PORT)")
    stats.add_argument("--json", action="store_true", help="dump raw JSON")
    stats.add_argument(
        "--timeout", type=float, default=30.0, help="client socket timeout"
    )
    stats.set_defaults(handler=_cmd_stats)

    trace = commands.add_parser(
        "trace", help="recent request traces of a running service"
    )
    trace.add_argument("address", help="service address (HOST:PORT or PORT)")
    trace.add_argument(
        "--limit", type=int, default=5, help="how many traces to fetch"
    )
    trace.add_argument(
        "--slow", action="store_true", help="read the slow-request ring"
    )
    trace.add_argument("--json", action="store_true", help="dump raw JSON")
    trace.add_argument(
        "--timeout", type=float, default=30.0, help="client socket timeout"
    )
    trace.set_defaults(handler=_cmd_trace)

    submit = commands.add_parser(
        "submit", help="send one request to a running service"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument(
        "--deadline", type=float, default=None, help="per-request budget in seconds"
    )
    submit.add_argument(
        "--timeout", type=float, default=120.0, help="client socket timeout"
    )
    submit.add_argument(
        "--no-result-cache",
        action="store_true",
        help="ask the server to bypass its result cache for this request",
    )
    requests = submit.add_subparsers(dest="request", required=True)

    def _compute_request(name: str, **kwargs) -> argparse.ArgumentParser:
        sub = requests.add_parser(name, **kwargs)
        sub.add_argument("document", help="exchange document (JSON)")
        return sub

    sub_exists = _compute_request("exists", help="decide existence via the service")
    sub_certain = _compute_request("certain", help="certain answers via the service")
    sub_certain.add_argument("query", help="NRE query")
    sub_certain.add_argument("--pair", nargs=2, metavar=("U", "V"))
    sub_batch = _compute_request(
        "batch", help="batched certain answers over one document"
    )
    sub_batch.add_argument("queries", nargs="+", help="NRE queries")
    _compute_request("chase", help="chase via the service")
    for sub in (sub_exists, sub_certain, sub_batch):
        sub.add_argument("--star-bound", type=int, default=None)
    requests.add_parser("ping", help="liveness probe")
    requests.add_parser("stats", help="server telemetry snapshot")
    requests.add_parser("metrics", help="server metrics-registry snapshot")
    sub_traces = requests.add_parser("traces", help="recent request traces")
    sub_traces.add_argument("--limit", type=int, default=None)
    sub_traces.add_argument("--slow", action="store_true")
    requests.add_parser("shutdown", help="stop the server")
    cancel = requests.add_parser("cancel", help="cancel an in-flight request id")
    cancel.add_argument("job", help="request id to cancel")
    submit.set_defaults(handler=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, as CLIs do.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
