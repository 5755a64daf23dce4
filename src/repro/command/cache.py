"""``repro cache stats``: what the shared result cache holds."""

from __future__ import annotations

import argparse
import json
import time

from repro.command.jobargs import add_flags
from repro.core.runner import ResultCache


def register(subparsers) -> None:
    """Declare ``cache`` and its one sub-verb."""
    parser = subparsers.add_parser("cache", help="result cache: stats")
    sub = parser.add_subparsers(dest="cache_command", required=True)
    stats = sub.add_parser(
        "stats",
        help="entry count, bytes and age of the on-disk store (or a "
             "daemon's live counters with --server)",
    )
    add_flags(stats, ("cache_dir",))
    stats.add_argument(
        "--server", default=None, metavar="URL",
        help="query a running repro serve daemon instead of local disk",
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    stats.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    """Print the store's disk footprint and session counters."""
    if args.server:
        from repro.serve import ServiceClient

        info = ServiceClient(args.server).cache()
    else:
        cache = ResultCache(args.cache_dir)
        info = {
            "enabled": True,
            "counters": cache.stats(),
            "disk": cache.disk_stats(),
        }
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    if not info.get("enabled", True):
        print("result cache is disabled on the daemon")
        return 0
    disk = info["disk"]
    print(f"result cache at {disk['root']}")
    print(f"  entries  {disk['entries']}")
    print(f"  bytes    {disk['bytes']}")
    if disk.get("oldest_mtime") and disk.get("newest_mtime"):
        age = time.time() - disk["oldest_mtime"]
        print(f"  oldest   {age / 3600:.1f}h ago")
    counters = {
        key: value
        for key, value in sorted(info.get("counters", {}).items())
        if value
    }
    if counters:
        text = ", ".join(
            f"{value} {key}" for key, value in counters.items()
        )
        print(f"  session counters: {text}")
    return 0
