"""``python -m repro.serving`` — serve, warm caches, and dump traces.

Subcommands:

* ``serve``      — boot the JSON-over-HTTP scheduling service, which
  schedules in-process; ``--max-queue-depth`` / ``--max-client-inflight``
  configure admission control (load shedding with HTTP 429; ``/alerts``
  reports the queue at >= 80% of its depth), ``--access-log`` writes
  structured JSON access logs, and ``--no-trace`` disables request
  tracing (``/v1/traces``).  The Prometheus-text ``/metrics`` endpoint is
  always served.
* ``trace-dump``  — fetch finished traces from a running server and emit
  them as Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``) or as JSONL, to ``--output`` or stdout.
* ``warm-cache`` — populate a persistent SQLite cache with the registry
  workloads so a later ``serve`` starts hot — including the response-level
  fast lane, so warmed requests are answered zero-parse straight from the
  cache bytes; ``--pipeline`` selects the
  registry-named normalization pipeline, ``--report-json`` dumps the
  session report (with per-pass timings), and ``--metrics-json`` dumps the
  metrics-registry snapshot for CI artifacts.

``serve`` and ``warm-cache`` take ``--db-path``: a tuning database as
:meth:`~repro.api.TuningDatabase.save` writes it, a JSON list of entries.
Any other file exits with status 2 and one line naming that format.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..api.session import Session
from ..api.types import ScheduleRequest
from ..scheduler.database import TuningDatabase
from ..workloads.registry import benchmark_names
from .http import ServingServer
from .service import ServiceConfig


def _session_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheduler", default="daisy",
                        help="default scheduler of the session (default: daisy)")
    parser.add_argument("--threads", type=int, default=4,
                        help="threads the scheduled code is optimized for")
    parser.add_argument("--size", default="large",
                        help="workload-registry size class (default: large)")
    parser.add_argument("--pipeline", default=None,
                        help="registry-named normalization pipeline "
                             "(a-priori, no-fission, no-stride, "
                             "no-scalar-expansion, identity; "
                             "default: a-priori)")
    parser.add_argument("--cache-path", default=None,
                        help="SQLite file backing the normalization cache "
                             "(default: in-memory)")
    parser.add_argument("--db-path", default=None,
                        help="tuning database to load: a JSON list of "
                             "entries, as TuningDatabase.save writes it")
    # main() loads --db-path into ``database`` before the command runs.
    parser.set_defaults(database=None)


def _build_session(args: argparse.Namespace) -> Session:
    return Session(threads=args.threads, scheduler=args.scheduler,
                   size=args.size, cache_path=args.cache_path,
                   pipeline=args.pipeline, database=args.database)


def _format_pass_timings(report) -> str:
    """Per-pass timing/change lines of a SessionReport (or its dict)."""
    passes = (report.get("normalization_passes") if isinstance(report, dict)
              else report.normalization_passes)
    if not passes:
        return "  (no normalization pipeline runs)"
    lines = []
    for name, entry in sorted(passes.items(),
                              key=lambda item: -item[1].get("wall_time_s", 0.0)):
        lines.append(f"  {name}: {entry.get('runs', 0):.0f} runs, "
                     f"{entry.get('changed', 0):.0f} changed, "
                     f"{entry.get('wall_time_s', 0.0) * 1e3:.2f} ms")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = ServiceConfig(max_queue_depth=args.max_queue_depth,
                               max_client_inflight=args.max_client_inflight)
    except ValueError as error:  # before the session is built
        print(f"serve: {error}", file=sys.stderr)
        return 2
    session = _build_session(args)
    try:
        access_log = None
        if args.access_log:
            access_log = (sys.stdout if args.access_log == "-"
                          else args.access_log)
        if not args.trace:
            session.tracer.enabled = False
        server = ServingServer(session, host=args.host, port=args.port,
                               config=config, access_log=access_log)
        server.start()
        print(f"serving on {server.address} "
              f"(scheduler={args.scheduler}, threads={args.threads}, "
              f"cache={'sqlite:' + args.cache_path if args.cache_path else 'memory'}, "
              f"database={len(session.database)} entries, "
              f"queue-depth={args.max_queue_depth}, "
              f"tracing={'on' if args.trace else 'off'})", flush=True)
        server.serve_forever()
    finally:
        # Reached on a clean shutdown *and* on boot failures (port in use):
        # flush buffered cache recency and close the backend connection.
        session.close()
    return 0


def _cmd_warm_cache(args: argparse.Namespace) -> int:
    session = _build_session(args)
    names = args.workloads or sorted(benchmark_names())
    requests = [ScheduleRequest(program=f"{name}:{variant}")
                for name in names for variant in args.variants]
    hits = sum(1 for request in requests
               if session.schedule(request).from_cache)
    # Second pass feeds the response-level fast lane: each repeat is now
    # fully cache-served, so its final encoded bytes are stored — a later
    # ``serve`` run on this cache file answers these requests zero-parse,
    # straight from SQLite to the socket.
    warmed_fast = 0
    for request in requests:
        session.store_response(request, session.schedule(request))
        if session.lookup_response(request) is not None:
            warmed_fast += 1
    report = session.report()
    print(f"warmed {len(requests)} schedules ({hits} already cached) "
          f"into {args.cache_path} "
          f"(pipeline={args.pipeline or 'a-priori'}, "
          f"fast lane ready for {warmed_fast} requests)")
    print(report.summary())
    print("per-pass timings:")
    print(_format_pass_timings(report))
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote report to {args.report_json}")
    if args.metrics_json:
        # The full instrument snapshot (counters, gauges, histogram
        # buckets), renderable via repro.observability.render_registry_dict.
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(session.metrics.to_dict(), handle, indent=2,
                      sort_keys=True)
        print(f"wrote metrics snapshot to {args.metrics_json}")
    session.close()
    return 0


def _cmd_trace_dump(args: argparse.Namespace) -> int:
    from ..observability import chrome_trace_document, traces_to_jsonl
    from .client import ServingClient, ServingError

    client = ServingClient(args.url)
    try:
        listing = client.traces(limit=args.limit)
        records = [client.trace(entry["trace_id"])
                   for entry in listing.get("traces", [])]
    except ServingError as error:
        print(f"trace-dump: {error}", file=sys.stderr)
        return 1
    if args.format == "chrome":
        text = json.dumps(chrome_trace_document(records), indent=2,
                          sort_keys=True)
    else:
        text = traces_to_jsonl(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {len(records)} trace(s) to {args.output} "
              f"({args.format})")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Scheduling service over the repro.api Session")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="boot the HTTP scheduling service")
    _session_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8422)
    serve.add_argument("--max-queue-depth", type=int, default=256,
                       help="shed load (HTTP 429) beyond this many queued "
                            "requests (0: unbounded)")
    serve.add_argument("--max-client-inflight", type=int, default=0,
                       help="per-client in-flight request limit "
                            "(0: unlimited)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="write a JSON-lines access log of schedule "
                            "traffic to PATH ('-' for stdout)")
    serve.add_argument("--no-trace", dest="trace", action="store_false",
                       default=True,
                       help="disable request tracing and the /v1/traces "
                            "endpoints (tracing is on by default)")
    serve.set_defaults(func=_cmd_serve)

    warm = commands.add_parser(
        "warm-cache", help="pre-schedule workloads into a persistent cache")
    _session_arguments(warm)
    warm.add_argument("--workloads", nargs="*", default=None,
                      help="registry names (default: every benchmark)")
    warm.add_argument("--variants", nargs="*", default=["a"],
                      help="variants to warm per workload (default: a)")
    warm.add_argument("--report-json", default=None,
                      help="dump the full session report (including per-pass "
                           "timings) to this JSON file")
    warm.add_argument("--metrics-json", default=None,
                      help="dump the session's metrics-registry snapshot "
                           "(cache/pass instruments) to this JSON file")
    warm.set_defaults(func=_cmd_warm_cache)

    dump = commands.add_parser(
        "trace-dump", help="export finished traces from a running server")
    dump.add_argument("--url", required=True,
                      help="base URL of the serving endpoint "
                           "(e.g. http://127.0.0.1:8422)")
    dump.add_argument("--format", choices=("chrome", "jsonl"),
                      default="chrome",
                      help="chrome: one trace-event JSON document "
                           "(Perfetto / chrome://tracing); jsonl: one "
                           "trace per line (default: chrome)")
    dump.add_argument("--limit", type=int, default=None,
                      help="dump at most N newest traces (default: all "
                           "buffered)")
    dump.add_argument("--output", default=None, metavar="PATH",
                      help="write here instead of stdout")
    dump.set_defaults(func=_cmd_trace_dump)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "warm-cache" and not args.cache_path:
        print("warm-cache requires --cache-path (a persistent backend to warm)",
              file=sys.stderr)
        return 2
    if getattr(args, "db_path", None):
        try:
            args.database = TuningDatabase.load(args.db_path)
        except (ValueError, TypeError, KeyError, AttributeError) as error:
            # A .sqlite file, a JSON object, or any other non-database:
            # no traceback, one line naming the format.
            print(f"--db-path {args.db_path}: expected a tuning database, a "
                  f"JSON list of entries as TuningDatabase.save writes it "
                  f"({type(error).__name__}: {error})", file=sys.stderr)
            return 2
    return args.func(args)
