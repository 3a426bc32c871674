"""Command-line interface: ``python -m repro "<query>" [options]``.

The interactive scenario the paper targets (IDE hints, smart-home commands)
needs exactly this loop: type English, get a codelet, in near real time.

Examples::

    python -m repro "delete every word that contains numbers"
    python -m repro --domain astmatcher 'find virtual methods'
    python -m repro --engine hisyn --timeout 20 "insert ':' at the start"
    python -m repro --explain "append ':' in every line containing numerals"
    python -m repro --list-domains

Batch mode reads one query per line from a file (or stdin with ``-``) and
runs them through :meth:`Synthesizer.synthesize_many`::

    python -m repro batch queries.txt --stats
    python -m repro batch queries.txt --workers 4 --cache-dir /var/cache
    cat queries.txt | python -m repro batch --json

``--workers N`` (N > 1) fans the batch out over N worker processes.

Cache mode manages the persistent on-disk PathCache snapshots that let a
cold process start warm (see docs/performance.md)::

    python -m repro cache warm --domain textediting --cache-dir /var/cache
    python -m repro cache warm --queries corpus-a.txt --queries corpus-b.txt
    python -m repro cache info
    python -m repro cache clear --domain textediting

Serve mode keeps warm domains resident behind an HTTP or stdio front end
(see docs/serving.md)::

    python -m repro serve --http 8080 --cache-dir /var/cache
    python -m repro serve --http 8080 --workers 4 --queue-depth 16
    python -m repro serve --stdio --domains textediting

Pack mode authors and inspects declarative domain packs — directories of
plain files that become registered domains (see docs/domain_packs.md)::

    python -m repro pack init mydomain
    python -m repro pack validate ./mydomain
    python -m repro pack list
    python -m repro pack info spreadsheet
    python -m repro domains
    python -m repro --pack-dir ./mydomain --domain mydomain "show messages"
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro import __version__, available_domains, load_domain
from repro.core.dggt import DggtConfig
from repro.errors import (
    CacheSnapshotError,
    PackError,
    ReproError,
    SynthesisTimeout,
)
from repro.grammar.path_cache import (
    SNAPSHOT_SUFFIX,
    default_cache_dir,
    snapshot_info,
)
from repro.synthesis.explain import explain_synthesis
from repro.synthesis.pipeline import Synthesizer


def _pack_dir_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--pack-dir`` flag: every entry point that loads
    domains accepts extra pack directories (docs/domain_packs.md)."""
    parser.add_argument(
        "--pack-dir",
        action="append",
        default=None,
        metavar="DIR",
        help="register domain pack(s) from DIR (repeatable; DIR is a "
        "pack or a folder of packs; also exported via REPRO_PACK_PATH "
        "so process-pool workers inherit them)",
    )


def _register_pack_dirs(args: argparse.Namespace) -> Optional[str]:
    """Register every ``--pack-dir`` from ``args``; returns an error
    message (caller prints it and exits 2) or None on success."""
    from repro.packs import add_pack_path

    for directory in getattr(args, "pack_dir", None) or ():
        try:
            add_pack_path(directory)
        except PackError as exc:
            return str(exc)
    return None


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NLU-driven natural language programming (DGGT, CGO 2022)",
    )
    parser.add_argument("query", nargs="?", help="the English query to synthesize")
    parser.add_argument(
        "--domain",
        default="textediting",
        help="target domain (default: textediting)",
    )
    parser.add_argument(
        "--engine",
        choices=("dggt", "hisyn"),
        default="dggt",
        help="synthesis engine (default: dggt)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="per-query budget in seconds (default: 20, as in the paper)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print every intermediate pipeline artifact (Fig. 3 walk-through)",
    )
    parser.add_argument(
        "--example",
        action="append",
        default=None,
        metavar="INPUT=OUTPUT",
        dest="examples",
        help="input→output example the synthesized codelet must reproduce "
        "(repeatable; \\n \\t \\= \\\\ escapes; execution-guided "
        "verification, docs/verification.md)",
    )
    parser.add_argument(
        "--candidates",
        "--top",
        type=int,
        default=None,
        metavar="K",
        dest="candidates",
        help="print up to K ranked candidate codelets (IDE mode, Sec. "
        "VII-B.4); with --example, verify them and print them in verified "
        "order (default with --example: 4 verified, the winner printed)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's instrumentation counters "
        "(implies per-stage timings)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print per-stage wall time for the six-step pipeline "
        "(docs/architecture.md)",
    )
    parser.add_argument(
        "--no-grammar-pruning", action="store_true",
        help="disable grammar-based pruning (ablation)",
    )
    parser.add_argument(
        "--no-size-pruning", action="store_true",
        help="disable size-based pruning (ablation)",
    )
    parser.add_argument(
        "--no-orphan-relocation", action="store_true",
        help="disable orphan node relocation (ablation)",
    )
    parser.add_argument(
        "--list-domains", action="store_true",
        help="list registered domains (built-in and pack-backed)",
    )
    _pack_dir_argument(parser)
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    return parser


def build_batch_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="synthesize a batch of queries over one shared warm cache",
    )
    parser.add_argument(
        "file",
        nargs="?",
        default="-",
        help="file with one query per line ('-' or omitted: stdin); "
        "blank lines and lines starting with '#' are skipped",
    )
    parser.add_argument(
        "--domain",
        default="textediting",
        help="target domain (default: textediting)",
    )
    parser.add_argument(
        "--engine",
        choices=("dggt", "hisyn"),
        default="dggt",
        help="synthesis engine (default: dggt)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="per-query budget in seconds (default: 20, as in the paper)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the batch (default: 1, sequential in "
        "this process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="preload persistent cache snapshots from DIR (with --workers "
        "N > 1 every worker preloads; see 'repro cache warm')",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print aggregate cache counters for the batch",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON array of per-query results instead of plain text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print per-stage wall time for every query; with --json "
        "each item carries a 'trace' payload (docs/architecture.md), in "
        "text mode a compact per-query stage line is printed to stderr",
    )
    parser.add_argument(
        "--candidates",
        type=int,
        default=None,
        metavar="K",
        help="attach a top-K candidate list to every result (JSON lines "
        "with an 'examples' key additionally verify against them)",
    )
    _pack_dir_argument(parser)
    return parser


def _read_queries(path: str) -> List[object]:
    """Batch entries: one query per line, or — for lines starting with
    ``{`` — a JSONL object with ``query`` and optional ``examples`` keys
    (the shape ``synthesize_many`` validates)."""
    if path == "-":
        lines = sys.stdin.readlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    queries: List[object] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            try:
                queries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"line {number}: bad JSON batch entry: {exc}"
                )
        else:
            queries.append(line)
    return queries


def _format_trace(trace) -> str:
    """One compact ``stage=elapsed`` line for a per-query Trace."""
    if trace is None:
        return "no trace"
    if trace.cache_hit:
        return "cache hit (no stages run)"
    parts = []
    for span in trace.spans:
        mark = "" if span.status == "ok" else f"[{span.status}]"
        parts.append(f"{span.stage}={span.elapsed_seconds * 1000:.2f}ms{mark}")
    return " ".join(parts) if parts else "no stages recorded"


def batch_main(argv: Optional[List[str]] = None) -> int:
    args = build_batch_arg_parser().parse_args(argv)
    if args.timeout < 0:
        print("error: --timeout must be non-negative", file=sys.stderr)
        return 2
    pack_error = _register_pack_dirs(args)
    if pack_error is not None:
        print(f"error: {pack_error}", file=sys.stderr)
        return 2
    try:
        domain = load_domain(args.domain)
        queries = _read_queries(args.file)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if not queries:
        print("error: no queries to synthesize", file=sys.stderr)
        return 2

    synth = Synthesizer(domain, engine=args.engine)
    started = time.monotonic()
    try:
        items = synth.synthesize_many(
            queries,
            timeout_seconds_each=args.timeout,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
            candidates=args.candidates,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started

    if args.json:
        # One schema for batch and serving payloads (docs/serving.md).
        payload = [item.to_json(include_trace=args.trace) for item in items]
        print(json.dumps(payload, indent=2))
    else:
        for item in items:
            if item.ok:
                print(f"{item.index + 1}. {item.outcome.codelet}")
            else:
                print(f"{item.index + 1}. [{item.status}] {item.error}")
            if args.trace:
                print(
                    f"#   trace {item.index + 1}: "
                    f"{_format_trace(item.trace)}",
                    file=sys.stderr,
                )

    n_ok = sum(1 for item in items if item.ok)
    rate = len(items) / elapsed if elapsed > 0 else float("inf")
    print(
        f"# {n_ok}/{len(items)} ok in {elapsed:.2f}s "
        f"({rate:.2f} queries/s, workers={args.workers})",
        file=sys.stderr,
    )
    if args.stats:
        from repro.synthesis.result import SynthesisStats

        # Per-item deltas, failed queries included, are exact serially
        # and in pool workers (each runs its queries one at a time
        # against its own cache).
        totals = {name: 0 for name in SynthesisStats.CACHE_FIELDS}
        for item in items:
            if item.cache_stats is not None:
                for name in totals:
                    totals[name] += getattr(item.cache_stats, name)
        for name, value in totals.items():
            print(f"# {name} = {value}", file=sys.stderr)
    return 0 if n_ok == len(items) else 1


def build_cache_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="manage persistent on-disk PathCache snapshots "
        "(warm servers from process start; see docs/performance.md)",
    )
    parser.add_argument(
        "action",
        choices=("warm", "clear", "info"),
        help="warm: run a query set and save a snapshot; "
        "clear: delete snapshots; info: describe snapshots",
    )
    parser.add_argument(
        "--domain",
        default=None,
        help="target domain (warm defaults to 'textediting'; "
        "clear/info default to every domain)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="snapshot directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-dggt)",
    )
    parser.add_argument(
        "--queries",
        action="append",
        default=None,
        metavar="FILE",
        help="warm: queries to replay, one per line ('-' for stdin; "
        "repeatable — files are concatenated and deduplicated; "
        "default: the domain's bundled evaluation suite)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="warm: cap the number of warm-up queries (default: all)",
    )
    parser.add_argument(
        "--engine",
        choices=("dggt", "hisyn"),
        default="dggt",
        help="warm: synthesis engine to warm with (default: dggt)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="warm: per-query budget in seconds (default: 5)",
    )
    _pack_dir_argument(parser)
    return parser


def _bundled_queries(domain_name: str) -> Optional[List[str]]:
    """The built-in evaluation suite for a domain, if it has one.

    Pack-backed domains bundle theirs as ``examples.jsonl``, so every
    pack with examples gets cache warming (and server smoke tests) for
    free — no Python edits.
    """
    if domain_name == "textediting":
        from repro.domains.textediting.queries import TEXTEDITING_QUERIES

        return [case.query for case in TEXTEDITING_QUERIES]
    if domain_name == "astmatcher":
        from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES

        return [case.query for case in ASTMATCHER_QUERIES]
    from repro.packs import load_pack, pack_factories

    factory = pack_factories().get(domain_name)
    if factory is not None:
        queries = [case.query for case in load_pack(factory.root).examples]
        if queries:
            return queries
    return None


def _snapshot_files(cache_dir, domain: Optional[str]) -> List:
    from pathlib import Path

    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    pattern = f"{domain}-*{SNAPSHOT_SUFFIX}" if domain else f"*{SNAPSHOT_SUFFIX}"
    return sorted(base.glob(pattern)) if base.is_dir() else []


def cache_main(argv: Optional[List[str]] = None) -> int:
    args = build_cache_arg_parser().parse_args(argv)
    pack_error = _register_pack_dirs(args)
    if pack_error is not None:
        print(f"error: {pack_error}", file=sys.stderr)
        return 2

    if args.action == "warm":
        domain_name = args.domain or "textediting"
        try:
            domain = load_domain(domain_name)
            if args.queries:
                # Concatenate every corpus file, drop duplicates but keep
                # first-seen order (snapshot warming at scale: several
                # mined corpora are the common case).
                seen = {}
                for source in args.queries:
                    for query in _read_queries(source):
                        seen.setdefault(query, None)
                queries = list(seen)
            else:
                queries = _bundled_queries(domain.name)
                if queries is None:
                    print(
                        f"error: domain {domain.name!r} has no bundled "
                        "query suite; pass --queries FILE",
                        file=sys.stderr,
                    )
                    return 2
            if args.limit > 0:
                queries = queries[: args.limit]
            synth = Synthesizer(domain, engine=args.engine)
            started = time.monotonic()
            items = synth.synthesize_many(
                queries, timeout_seconds_each=args.timeout
            )
            target = domain.save_cache(args.cache_dir)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.monotonic() - started
        n_ok = sum(1 for item in items if item.ok)
        entries = {
            layer: len(domain.path_cache.layer(layer))
            for layer in domain.path_cache.PERSISTED_LAYERS
        }
        print(f"warmed {domain.name} with {n_ok}/{len(items)} queries "
              f"in {elapsed:.2f}s")
        print(f"snapshot: {target} "
              f"({', '.join(f'{k}={v}' for k, v in entries.items())})")
        return 0

    if args.action == "clear":
        removed = 0
        for path in _snapshot_files(args.cache_dir, args.domain):
            try:
                path.unlink()
                removed += 1
                print(f"removed {path}")
            except OSError as exc:
                print(f"error: cannot remove {path}: {exc}", file=sys.stderr)
                return 2
        if not removed:
            print("no snapshots to remove")
        return 0

    # info
    files = _snapshot_files(args.cache_dir, args.domain)
    if not files:
        print("no snapshots found")
        return 0
    current_hashes = {}
    for name in available_domains():
        if args.domain and name != args.domain:
            continue
        try:
            current_hashes[name] = load_domain(name).grammar_hash()
        except ReproError:
            continue
    for path in files:
        try:
            info = snapshot_info(path)
        except CacheSnapshotError as exc:
            print(f"{path}: unreadable ({exc})")
            continue
        current = current_hashes.get(info["domain"])
        if current is None:
            freshness = "unknown domain"
        elif current == info["grammar_hash"]:
            freshness = "fresh"
        else:
            freshness = "STALE (grammar changed; re-run 'cache warm')"
        entries = ", ".join(
            f"{k}={v}" for k, v in sorted(info["entries"].items())
        )
        print(
            f"{info['file']}: domain={info['domain']} "
            f"hash={info['grammar_hash'][:16]} [{freshness}] "
            f"{info['bytes']} bytes, {entries}"
        )
    return 0


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="long-running synthesis server: warm multi-domain "
        "routing over HTTP or stdio JSON lines (see docs/serving.md)",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve HTTP on PORT (0 picks a free port, printed on stderr "
        "and written to --port-file)",
    )
    mode.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSON lines over stdin/stdout (language-server style)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="HTTP serving worker processes behind one port (pre-fork; "
        "default: 1 — serve in this process exactly as before). "
        "N > 1 shares snapshots across workers, restarts crashes, and "
        "fans out SIGHUP//admin/reload and graceful drain; see "
        "docs/serving.md",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="atomically write the bound HTTP port to PATH once "
        "listening (reliable alternative to parsing stderr)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="HTTP bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--domains",
        default=None,
        metavar="NAMES",
        help="comma-separated domains to keep resident "
        "(default: every registered domain); the first is the default "
        "for requests that name none",
    )
    parser.add_argument(
        "--engine",
        choices=("dggt", "hisyn"),
        default="dggt",
        help="default synthesis engine (default: dggt)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="preload persistent cache snapshots from DIR at startup "
        "(see 'repro cache warm'; default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-dggt)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="admission control: reject ('overloaded') beyond N "
        "concurrently executing requests (default: 8)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=0,
        metavar="N",
        help="bounded admission queue: requests beyond --max-inflight "
        "wait (up to their deadline) for a slot instead of being shed; "
        "'overloaded' only once N are already waiting (default: 0 — "
        "shed immediately, the pre-queueing behaviour)",
    )
    parser.add_argument(
        "--adaptive-queue",
        action="store_true",
        help="adaptive admission: resize the effective queue from the "
        "live EWMA service time (against --timeout) and let idle slot "
        "budgets flow to the hot domain (requires --queue-depth >= 1)",
    )
    parser.add_argument(
        "--domain-budget",
        action="append",
        default=None,
        metavar="NAME=K",
        help="cap one domain at K concurrently executing requests "
        "(repeatable); with --queue-depth > 0, unnamed domains default "
        "to a fair share of --max-inflight",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="default per-request budget in seconds when the request "
        "carries none (default: 20, as in the paper)",
    )
    parser.add_argument(
        "--max-timeout",
        type=float,
        default=120.0,
        help="hard ceiling a request's own timeout is clamped to "
        "(default: 120)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests (default: 30)",
    )
    _pack_dir_argument(parser)
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    from repro.server import ServerConfig, SynthesisService, run_http
    from repro.server.stdio import serve_stdio

    args = build_serve_arg_parser().parse_args(argv)
    pack_error = _register_pack_dirs(args)
    if pack_error is not None:
        print(f"error: {pack_error}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.stdio and args.workers > 1:
        print(
            "error: --workers applies to HTTP serving only "
            "(stdio is one process per editor session)",
            file=sys.stderr,
        )
        return 2
    if args.stdio and args.port_file:
        print(
            "error: --port-file applies to HTTP serving only",
            file=sys.stderr,
        )
        return 2
    domains = (
        tuple(n.strip() for n in args.domains.split(",") if n.strip())
        if args.domains
        else ()
    )
    domain_budgets = {}
    for spec in args.domain_budget or ():
        name, sep, slots = spec.partition("=")
        if not sep or not name.strip():
            print(
                f"error: --domain-budget expects NAME=K, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        try:
            domain_budgets[name.strip()] = int(slots)
        except ValueError:
            print(
                f"error: --domain-budget {spec!r}: K must be an integer",
                file=sys.stderr,
            )
            return 2
    try:
        config = ServerConfig(
            domains=domains,
            engine=args.engine,
            cache_dir=args.cache_dir,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            adaptive_queue=args.adaptive_queue,
            domain_budgets=domain_budgets,
            default_timeout=args.timeout,
            max_timeout=args.max_timeout,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workers > 1:
        # Pre-fork serving: the supervisor binds the port and builds the
        # (snapshot-warm) service itself, load-before-fork, so nothing
        # heavyweight may be constructed here.
        from repro.server.multiproc import run_supervisor

        def on_supervisor_ready(port: int) -> None:
            print(
                f"# listening on http://{args.host}:{port} "
                f"(workers={args.workers}; POST /synthesize /admin/reload, "
                "GET /healthz /stats /domains; SIGHUP reloads snapshots)",
                file=sys.stderr,
            )

        print(f"# serving with {args.workers} workers", file=sys.stderr)
        try:
            drained = run_supervisor(
                config,
                host=args.host,
                port=args.http,
                workers=args.workers,
                grace_seconds=args.grace,
                port_file=args.port_file,
                on_ready=on_supervisor_ready,
            )
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if drained:
            print("# all workers drained and exited", file=sys.stderr)
            return 0
        print("# shutdown grace expired with workers still busy",
              file=sys.stderr)
        return 1

    try:
        service = SynthesisService(config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    preloaded = [
        name
        for name, info in service.health()["domains"].items()
        if info["snapshot_loaded"]
    ]
    print(
        f"# serving {', '.join(service.domain_names())} (snapshots: "
        f"{', '.join(preloaded) if preloaded else 'none'})",
        file=sys.stderr,
    )

    if args.stdio:
        drained = serve_stdio(service, grace_seconds=args.grace)
        print("# stdio server drained and exited", file=sys.stderr)
        return 0 if drained else 1

    def on_ready(server) -> None:
        if args.port_file:
            from repro.server.multiproc import write_port_file

            write_port_file(args.port_file, server.port)
        print(
            f"# listening on http://{args.host}:{server.port} "
            "(POST /synthesize /admin/reload, GET /healthz /stats "
            "/domains; SIGHUP reloads snapshots)",
            file=sys.stderr,
        )

    try:
        drained = run_http(
            service,
            args.host,
            args.http,
            grace_seconds=args.grace,
            on_ready=on_ready,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.http}: {exc}",
              file=sys.stderr)
        return 2
    print("# http server drained and exited", file=sys.stderr)
    return 0 if drained else 1


def build_pack_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pack",
        description="author, validate and inspect declarative domain "
        "packs — plain-file domains (see docs/domain_packs.md)",
    )
    sub = parser.add_subparsers(dest="action", metavar="ACTION")
    sub.required = True

    validate = sub.add_parser(
        "validate",
        help="check pack directories; issues print as file:line: message",
        description="validate pack directories (or folders of packs): "
        "manifest schema, grammar, API document, literal slots, "
        "tunables, and every bundled example's ground truth",
    )
    validate.add_argument(
        "paths",
        nargs="+",
        metavar="DIR",
        help="a pack directory, or a folder whose children are packs",
    )

    list_parser = sub.add_parser(
        "list",
        help="list registered packs (builtin + REPRO_PACK_PATH)",
        description="list every registered pack with its version, "
        "description and source directory",
    )
    _pack_dir_argument(list_parser)

    info = sub.add_parser(
        "info",
        help="describe one pack in detail",
        description="full description of one pack: files, hashes, APIs, "
        "literal slots, lexicon size, bundled examples",
    )
    info.add_argument(
        "target",
        metavar="NAME_OR_DIR",
        help="a registered pack name or a pack directory",
    )

    init = sub.add_parser(
        "init",
        help="scaffold a new, working pack to edit",
        description="write a minimal complete pack (it validates and its "
        "examples synthesize as scaffolded) to DEST/NAME",
    )
    init.add_argument(
        "name",
        help="pack name, [a-z][a-z0-9_]* — becomes the domain name",
    )
    init.add_argument(
        "--dest",
        default=".",
        metavar="DIR",
        help="parent directory for the new pack (default: .)",
    )
    return parser


def _pack_validate(paths: List[str]) -> int:
    from repro.packs import discover_packs, validate_pack

    failures = 0
    for path in paths:
        roots = discover_packs(path)
        if not roots:
            print(f"{path}: no pack.toml found", file=sys.stderr)
            failures += 1
            continue
        for root in roots:
            spec, issues = validate_pack(root)
            if issues:
                failures += 1
                print(f"{root}: INVALID — {len(issues)} issue(s)")
                for issue in issues:
                    print(f"  {issue}")
            else:
                print(
                    f"{root}: ok — {spec.name} v{spec.version}, "
                    f"{len(spec.apis)} APIs, {len(spec.examples)} examples"
                )
    return 1 if failures else 0


def _pack_list(args) -> int:
    from repro.packs import MANIFEST_NAME, pack_factories, tomlmini

    error = _register_pack_dirs(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    factories = pack_factories()
    if not factories:
        print("no packs registered")
        return 0
    for name in sorted(factories):
        root = factories[name].root
        try:
            data, _ = tomlmini.parse(
                (root / MANIFEST_NAME).read_text(encoding="utf-8")
            )
            pack = data.get("pack") or {}
            version = pack.get("version", "?")
            description = pack.get("description", "")
        except (OSError, tomlmini.TomlError) as exc:
            print(f"{name}: UNREADABLE ({exc})")
            continue
        print(f"{name} v{version}: {description}")
        print(f"  source: {root}")
    return 0


def _pack_info(target: str) -> int:
    from pathlib import Path

    from repro.packs import is_pack_dir, pack_factories, validate_pack

    if is_pack_dir(Path(target)):
        root = Path(target)
    else:
        factory = pack_factories().get(target.lower())
        if factory is None:
            print(
                f"error: {target!r} is neither a pack directory nor a "
                f"registered pack (registered: {sorted(pack_factories())})",
                file=sys.stderr,
            )
            return 2
        root = factory.root
    spec, issues = validate_pack(root)
    if issues:
        print(f"{root}: INVALID — {len(issues)} issue(s)")
        for issue in issues:
            print(f"  {issue}")
        return 1
    domain = spec.build_domain()
    slots = ", ".join(
        f"{kind}=[{', '.join(names)}]"
        for kind, names in sorted(spec.literal_targets.items())
    )
    print(f"{spec.name} v{spec.version}: {spec.description}")
    print(f"  source:       {root}")
    print(f"  files:        {', '.join(spec.files)}")
    print(f"  content hash: {spec.content_hash}")
    print(f"  grammar hash: {domain.grammar_hash()}")
    print(f"  APIs:         {len(spec.apis)} "
          f"({', '.join(entry['name'] for entry in spec.apis)})")
    print(f"  literal slots: {slots if slots else 'none'}")
    print(f"  lexicon:      {len(spec.synonym_groups)} synonym group(s), "
          f"{len(spec.abbreviations)} abbreviation(s)")
    print(f"  examples:     {len(spec.examples)}")
    return 0


def _pack_init(name: str, dest: str) -> int:
    from repro.packs import scaffold_pack, validate_pack

    try:
        root = scaffold_pack(dest, name)
    except PackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec, issues = validate_pack(root)
    if issues:  # unreachable for the shipped scaffold; fail loudly anyway
        for issue in issues:
            print(f"  {issue}", file=sys.stderr)
        return 1
    print(f"scaffolded pack {spec.name!r} at {root}")
    for fname in spec.files:
        print(f"  {fname}")
    print("next steps: edit the files, then")
    print(f"  repro pack validate {root}")
    print(f"  repro --pack-dir {root} --domain {spec.name} "
          f'"show all messages"')
    return 0


def pack_main(argv: Optional[List[str]] = None) -> int:
    args = build_pack_arg_parser().parse_args(argv)
    if args.action == "validate":
        return _pack_validate(args.paths)
    if args.action == "list":
        return _pack_list(args)
    if args.action == "info":
        return _pack_info(args.target)
    return _pack_init(args.name, args.dest)


def build_domains_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro domains",
        description="list registered domains with provenance: API count, "
        "grammar hash, and pack name/version/source for pack-backed ones",
    )
    _pack_dir_argument(parser)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON object instead of plain text",
    )
    return parser


def _domain_listing() -> "dict":
    """name -> provenance entry for every registered domain (the same
    shape the server's ``GET /domains`` details use)."""
    listing = {}
    for name in available_domains():
        try:
            domain = load_domain(name)
        except ReproError as exc:
            listing[name] = {"error": str(exc)}
            continue
        entry = {
            "description": domain.description,
            "apis": len(domain.document),
            "grammar_hash": domain.grammar_hash(),
        }
        if domain.provenance:
            entry["pack"] = dict(domain.provenance)
        listing[name] = entry
    return listing


def _print_domain_listing(listing: "dict") -> None:
    for name, entry in listing.items():
        if "error" in entry:
            print(f"{name}: UNLOADABLE ({entry['error']})")
            continue
        print(f"{name}: {entry['apis']} APIs — {entry['description']}")
        line = f"  grammar {entry['grammar_hash'][:16]}"
        pack = entry.get("pack")
        if pack:
            line += (
                f", pack {pack.get('name')} v{pack.get('version')} "
                f"from {pack.get('source')}"
            )
        print(line)


def domains_main(argv: Optional[List[str]] = None) -> int:
    args = build_domains_arg_parser().parse_args(argv)
    error = _register_pack_dirs(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    listing = _domain_listing()
    if args.json:
        print(json.dumps(listing, indent=2))
    else:
        _print_domain_listing(listing)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "pack":
        return pack_main(argv[1:])
    if argv and argv[0] == "domains":
        return domains_main(argv[1:])
    args = build_arg_parser().parse_args(argv)
    pack_error = _register_pack_dirs(args)
    if pack_error is not None:
        print(f"error: {pack_error}", file=sys.stderr)
        return 2

    if args.list_domains:
        _print_domain_listing(_domain_listing())
        return 0

    if not args.query:
        print("error: a query is required (or use --list-domains)", file=sys.stderr)
        return 2

    if args.timeout < 0:
        print("error: --timeout must be non-negative", file=sys.stderr)
        return 2
    if args.candidates is not None and args.candidates < 1:
        print("error: --candidates/--top must be at least 1", file=sys.stderr)
        return 2

    try:
        domain = load_domain(args.domain)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    examples = None
    if args.examples:
        try:
            from repro.verify.examples import parse_example_arg

            examples = [parse_example_arg(raw) for raw in args.examples]
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    config = DggtConfig(
        grammar_pruning=not args.no_grammar_pruning,
        size_pruning=not args.no_size_pruning,
        orphan_relocation=not args.no_orphan_relocation,
    )
    synth = Synthesizer(domain, engine=args.engine, config=config)

    try:
        if args.explain:
            # One run: the walk-through, the codelet, the verdicts and
            # the stats below all come from the same outcome.
            text, out, error = explain_synthesis(
                synth, args.query, args.timeout, examples, args.candidates
            )
            print(text)
            if error is not None:
                raise error
        else:
            out = synth.synthesize(
                args.query,
                timeout_seconds=args.timeout,
                examples=examples,
                candidates=args.candidates,
            )
    except SynthesisTimeout as exc:
        stage = getattr(exc, "stage", None)
        where = f" (expired in stage {stage!r})" if stage else ""
        print(
            f"timeout: no result within {args.timeout:g}s{where} "
            "(the paper counts this as an error case)",
            file=sys.stderr,
        )
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.candidates is not None and args.candidates > 1:
        # The final list, verified order first when examples were given;
        # printed ranks are list positions (verdicts keep original ranks).
        for position, cand in enumerate(out.candidates, start=1):
            print(f"{position}. {cand.codelet}")
    else:
        print(out.codelet)
    print(
        f"# engine={out.engine} size={out.size} "
        f"time={out.elapsed_seconds * 1000:.1f}ms",
        file=sys.stderr,
    )
    if out.verification is not None:
        report = out.verification
        print(
            f"# verification: status={report.status} "
            f"winner_rank={report.winner_rank} "
            f"reranked={'yes' if report.reranked else 'no'}",
            file=sys.stderr,
        )
        for verdict in report.verdicts:
            detail = f" ({verdict.detail})" if verdict.detail else ""
            print(
                f"#   rank {verdict.rank}: {verdict.verdict} "
                f"{verdict.examples_passed}/{verdict.examples_total}"
                f"{detail}",
                file=sys.stderr,
            )
    if args.stats or args.trace:
        if out.trace.cache_hit:
            print("# stage trace: cache hit (no stages run)", file=sys.stderr)
        for span in out.trace.spans:
            print(
                f"# stage {span.stage} = "
                f"{span.elapsed_seconds * 1000:.2f}ms",
                file=sys.stderr,
            )
    if args.stats:
        for key, value in out.stats.as_dict().items():
            print(f"# {key} = {value}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
