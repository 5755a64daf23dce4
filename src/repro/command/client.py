"""``repro client``: talk to a running ``repro serve`` daemon.

``submit`` sends the job its flags describe — the same ``Job``, hence
the same content address, ``repro run`` would build from them, so a
result either door published is a cache hit at the other; ``status``,
``result``, ``cancel``, ``watch`` and ``queue`` follow one up.
Identical specs dedup server-side to a single simulation.
"""

from __future__ import annotations

import argparse
import sys

from repro.command.jobargs import MACHINE, add_flags, job_from_args
from repro.command.run import print_result_stats


def register(subparsers) -> None:
    """Declare ``client`` and its six sub-verbs."""
    parser = subparsers.add_parser(
        "client", help="talk to a running repro serve daemon"
    )
    parser.set_defaults(run=run)
    sub = parser.add_subparsers(dest="client_command", required=True)
    submit = sub.add_parser("submit", help="submit one job to the daemon")
    add_flags(submit, MACHINE + ("replay", "timeout_s"))
    submit.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="queue priority (lower runs sooner; default: 0)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print its result",
    )
    submit.set_defaults(verb=_submit)
    for name, verb, help_text in (
        ("status", _status, "print a job's lifecycle status"),
        ("result", _result, "fetch and print a finished job's statistics"),
        ("cancel", _cancel, "cancel a queued or running job"),
        ("watch", _watch, "follow a job's live event stream"),
    ):
        follow_up = sub.add_parser(name, help=help_text)
        follow_up.add_argument("job_id", help="content-addressed job id")
        follow_up.set_defaults(verb=verb)
    sub.add_parser(
        "queue", help="print the daemon's queue summary"
    ).set_defaults(verb=_queue)
    for verb_parser in sub.choices.values():
        verb_parser.add_argument(
            "--server", default="http://127.0.0.1:8765", metavar="URL",
            help="daemon base URL (default: http://127.0.0.1:8765)",
        )


def run(args: argparse.Namespace) -> int:
    """Connect to ``--server`` and hand the client to the sub-verb."""
    from repro.serve import ServiceClient

    return args.verb(ServiceClient(args.server), args)


def _submit(client, args: argparse.Namespace) -> int:
    job = job_from_args(args)
    # ServiceClient sends job_to_payload(job): the wire codec's own
    # rendering, which job_from_payload turns back into an equal Job.
    response = client.submit(job, priority=args.priority)
    note = " (deduped)" if response["reused"] else ""
    print(f"job {response['id']}")
    print(f"  state  {response['state']}{note}")
    if not args.wait:
        return 0
    status = client.wait(response["id"])
    print(f"  final  {status['state']} "
          f"after {status['attempts']} attempt(s)")
    if status["state"] not in ("done", "cached"):
        if status.get("error"):
            print(f"error: {status['error']}", file=sys.stderr)
        return 1
    print_result_stats(
        client.result(response["id"]),
        f"{job.workload} on {job.arch} ({job.cpu_model}, {job.scale}, "
        "via service)",
    )
    return 0


def _status(client, args: argparse.Namespace) -> int:
    status = client.status(args.job_id)
    for key in (
        "id", "label", "backend", "state", "priority",
        "attempts", "submits", "cached", "error",
        "cancel_requested",
    ):
        value = status.get(key)
        if value is not None and value != "":
            print(f"  {key:<17} {value}")
    return 0


def _result(client, args: argparse.Namespace) -> int:
    status = client.status(args.job_id)
    print_result_stats(
        client.result(args.job_id),
        f"{status['label']} [{status['state']}]",
    )
    return 0


def _cancel(client, args: argparse.Namespace) -> int:
    response = client.cancel(args.job_id)
    print(f"job {response['id'][:12]}: {response['state']}"
          + (" (cancel requested)"
             if response["cancel_requested"] else ""))
    return 0


def _watch(client, args: argparse.Namespace) -> int:
    final_state = None
    for event in client.watch(args.job_id):
        kind = event.get("kind", "?")
        if kind == "serve.state":
            final_state = event.get("state")
        fields = " ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("kind", "seq", "ts", "pid", "tag", "id")
        )
        print(f"{kind:<16} {fields}".rstrip(), flush=True)
    if final_state is None:
        print("stream ended before the job did", file=sys.stderr)
        return 1
    return 0 if final_state in ("done", "cached") else 1


def _queue(client, args: argparse.Namespace) -> int:
    document = client.queue()
    counts = ", ".join(
        f"{count} {state}"
        for state, count in document["counts"].items()
    ) or "empty"
    print(
        f"queue: {counts} "
        f"({document['workers']} worker(s), "
        f"{document['inflight']} in flight, "
        f"{document['executed']} executed, "
        f"accepting={str(document['accepting']).lower()})"
    )
    for job in document["jobs"]:
        print(
            f"  {job['id'][:12]} {job['state']:<11} "
            f"attempts={job['attempts']} {job['label']}"
        )
    return 0
