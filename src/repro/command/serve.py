"""``repro serve``: the simulation service daemon (docs/SERVICE.md).

An async priority job queue and a persistent warm worker pool behind a
JSON HTTP API. SIGINT / SIGTERM shut it down gracefully, persisting
unfinished jobs for ``--resume``.
"""

from __future__ import annotations

import argparse
import signal
import threading
from pathlib import Path

from repro.command.jobargs import (
    RUNNER,
    add_flags,
    cache_from_args,
    policy_from_args,
)
from repro.core.runner import default_cache_dir
from repro.errors import ReproError


def register(subparsers) -> None:
    """Declare ``serve``."""
    parser = subparsers.add_parser(
        "serve",
        help="run the simulation service daemon (HTTP job queue; "
             "see docs/SERVICE.md)",
        description="Runner flags size the warm pool and place the "
                    "cache (in-flight dedup of identical specs applies "
                    "even with --no-cache); policy flags are stamped "
                    "onto every accepted job.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (default: 8765; 0 = ephemeral)",
    )
    add_flags(parser, RUNNER + ("ckpt_every", "ckpt_dir", "trace_dir"))
    parser.add_argument(
        "--state-dir", metavar="PATH", default=None,
        help="where the queue manifest and telemetry log live "
             "(default: <cache-dir>/serve)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="crash retries per job before quarantine (default: 2)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="re-enqueue jobs persisted by the last shutdown's queue "
             "manifest",
    )
    parser.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help="shutdown drain budget before in-flight work is killed "
             "and persisted (default: 30)",
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    """Serve until SIGINT / SIGTERM, then drain and persist the queue."""
    from repro.serve import ServiceDaemon

    policy = policy_from_args(args)
    cache = cache_from_args(args)
    state_dir = Path(
        args.state_dir
        or Path(args.cache_dir or default_cache_dir()) / "serve"
    ).expanduser()
    daemon = ServiceDaemon(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=cache,
        state_dir=state_dir,
        max_retries=args.max_retries,
        **policy,
    )
    try:
        daemon.start(resume=args.resume)
    except OSError as error:
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from None
    stop = threading.Event()

    def _handle_signal(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _handle_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    cache_text = "off" if cache is None else str(cache.root)
    print(
        f"repro serve listening on http://{args.host}:{daemon.port} "
        f"({daemon.runner.n_jobs} worker(s), cache {cache_text})",
        flush=True,
    )
    print(f"state dir {state_dir}", flush=True)
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("shutting down (draining queue)...", flush=True)
        daemon.shutdown(grace=args.grace)
        pending = len(daemon.queue.pending())
        if pending:
            print(
                f"{pending} unfinished job(s) persisted; restart with "
                "--resume to re-enqueue them",
                flush=True,
            )
        print("daemon stopped", flush=True)
    return 0
