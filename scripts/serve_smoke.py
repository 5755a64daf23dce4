#!/usr/bin/env python3
"""End-to-end smoke test of the service lane (CI ``serve-smoke``).

Scenario (see docs/SERVICE.md):

1. Launch a real ``repro serve`` daemon as a subprocess — the same
   entry point an operator uses, signal handler and all.
2. Fire 4 concurrent clients over HTTP: two submit the *same* spec
   (must dedup to one simulation), one submits a distinct spec, one
   drives the replay backend.
3. Differential-check the served result against an in-process
   ``Job.run()`` of the identical spec — the service must be
   bit-identical to local execution.
4. Scrape ``/v1/metrics`` and assert the dedup is visible in the
   counters — and the wire path in its own: no more connections than
   clients plus this script's probes, no more status requests than one
   per elapsed long-poll hold — then SIGINT the daemon and require a
   clean rc=0 shutdown and a validatable telemetry event log.

Exit status 0 on success; any divergence prints the failure and
returns 1. Telemetry artifacts land in ``--state-dir`` (default
``serve-smoke-state/``) for CI upload.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, "src")

from repro.obs.bus import validate_events
from repro.serve import ServiceClient, ServiceError, job_from_payload
from repro.serve.client import HOLD_SHARE

SPECS = {
    "fft-a": {"workload": "fft", "arch": "shared-l2", "n_cpus": 4},
    # identical to fft-a on purpose: must dedup to ONE simulation
    "fft-b": {"workload": "fft", "arch": "shared-l2", "n_cpus": 4},
    "ear": {"workload": "ear", "arch": "cluster-l1"},
    "replay": {
        "workload": "eqntott", "arch": "shared-l2", "n_cpus": 4,
        "replay": True,
    },
}


def wait_for_health(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if client.health().get("ok"):
                return
        except ServiceError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never became healthy")
        time.sleep(0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--state-dir", default="serve-smoke-state",
        help="daemon state directory (telemetry artifacts land here)",
    )
    parser.add_argument(
        "--port", type=int, default=18765,
        help="port for the daemon under test",
    )
    args = parser.parse_args()

    state_dir = Path(args.state_dir)
    server = f"http://127.0.0.1:{args.port}"
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(args.port),
                "--cache-dir", f"{tmp}/cache",
                "--state-dir", str(state_dir),
                "--trace-dir", f"{tmp}/traces",
                "--jobs", "2",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        try:
            client = ServiceClient(server)
            wait_for_health(client)
            print(f"[daemon] healthy on {server}", flush=True)

            def drive(name_spec):
                name, spec = name_spec
                own = ServiceClient(server)
                job_id = own.submit(spec)["id"]
                started = time.monotonic()
                status = own.wait(job_id, timeout=300)
                waited = time.monotonic() - started
                print(f"[client] {name}: {status['state']} "
                      f"(attempts={status['attempts']})", flush=True)
                # a wait is one status request per hold it sat through
                holds = 1 + int(waited / (own.timeout * HOLD_SHARE))
                return name, job_id, status, own.result(job_id), holds

            with ThreadPoolExecutor(max_workers=4) as pool:
                driven = list(pool.map(drive, SPECS.items()))
            outcomes = {
                name: (job_id, status, result)
                for name, job_id, status, result, _ in driven
            }
            holds = sum(row[-1] for row in driven)

            for name, (_, status, _) in outcomes.items():
                if status["state"] not in ("done", "cached"):
                    failures.append(f"{name} ended {status['state']}")

            # dedup proof: the identical specs share one id, one record
            id_a = outcomes["fft-a"][0]
            id_b = outcomes["fft-b"][0]
            if id_a != id_b:
                failures.append("identical specs got different job ids")
            submits = client.status(id_a)["submits"]
            if submits < 2:
                failures.append(
                    f"dedup not recorded: submits={submits}, expected >=2"
                )
            queue = client.queue()
            if queue["executed"] != 3:
                failures.append(
                    f"expected exactly 3 simulations for 4 submissions, "
                    f"daemon executed {queue['executed']}"
                )

            # differential: service result == local in-process run
            local = job_from_payload(dict(SPECS["ear"])).run()
            served = outcomes["ear"][2]
            if served.stats.to_dict() != local.stats.to_dict():
                failures.append(
                    "service result diverges from local Job.run()"
                )
            else:
                print(f"[diff] ear: service == local "
                      f"({served.stats.cycles} cycles)", flush=True)

            metrics = client.metrics()
            for needle in (
                'repro_jobs_total{status="ok"} 3',
                "repro_service_executed_total 3",
            ):
                if needle not in metrics:
                    failures.append(f"metrics missing {needle!r}")

            # wire path: `client` is this script's one probe connection
            # (its refused attempts before the daemon was up never
            # reached it) and made the one plain status() call above
            def counter(name):
                match = re.search(
                    rf"^{re.escape(name)} (\d+)$", metrics, re.M
                )
                return int(match.group(1)) if match else -1

            connections = counter("repro_service_http_connections_total")
            if not 1 <= connections <= len(SPECS) + 1:
                failures.append(
                    f"{connections} connections opened by "
                    f"{len(SPECS)} clients + 1 probe"
                )
            polls = counter(
                'repro_service_http_requests_total{endpoint="status"}'
            )
            if not len(SPECS) <= polls - 1 <= holds:
                failures.append(
                    f"{polls - 1} status requests for {holds} "
                    "long-poll hold(s): wait() is polling"
                )
            else:
                print(f"[wire] {connections} connections, {polls - 1} "
                      f"status requests for {holds} hold(s)", flush=True)
        finally:
            daemon.send_signal(signal.SIGINT)
            try:
                rc = daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                rc = -9
        if rc != 0:
            failures.append(f"daemon exited rc={rc}, expected 0")
        else:
            print("[daemon] clean shutdown (rc=0)", flush=True)

    log = state_dir / "events.jsonl"
    if not log.is_file():
        failures.append(f"telemetry log missing: {log}")
    else:
        problems = validate_events(log)
        if problems:
            failures.append(f"telemetry log invalid: {problems[:3]}")
        else:
            print(f"[telemetry] {log} validates", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("serve smoke: dedup, differential, metrics, wire path, "
          "shutdown all ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
