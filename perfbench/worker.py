"""One workload in one fresh process: set up, issue requests in a closed loop, report.

``run.py`` starts this script once per set-up probe, measured run, traced
run and cold re-check, so in-process memo caches start cold every time, as
they do for a user's ``repro`` process.  The result goes to ``--out`` as
JSON; ``ready_ns`` (``time.monotonic_ns`` when the first request is about to
be issued) lets the parent time set-up from process launch.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument(
        "--seconds", type=float, help="issue whole rounds of requests until this much time has passed",
    )
    mode.add_argument("--requests", type=int, help="issue exactly this many requests")
    mode.add_argument(
        "--verify", type=int, metavar="COMPLETED",
        help="recompute cold a sample of the first COMPLETED requests",
    )
    parser.add_argument("--trace", type=Path, help="trace the requests; write the Chrome trace here")
    return parser.parse_args(argv)


def measure(workload, plan, first, *, seconds=None, requests=None, tracer=None) -> dict:
    """Issue requests one at a time until the request budget is spent, or until
    ``seconds`` have passed and a round of jobs is complete."""
    latencies_ms, digests, cells = [], [], []
    errors = 0
    job = first
    window_start = time.perf_counter()
    deadline = window_start + seconds if seconds is not None else None
    while True:
        if tracer is not None:
            tracer.request = job.index
            span = tracer.open("request", job.label)
        started = time.perf_counter_ns()
        try:
            output = workload.issue(job)
        except Exception:
            latencies_ms.append((time.perf_counter_ns() - started) / 1e6)
            if tracer is not None:
                tracer.close(span, error=True)
                tracer.request = None
            errors += 1
            digests.append(None)
            cells.append(0)
            print(f"request {job.index} ({job.label}) raised:", file=sys.stderr)
            traceback.print_exc()
        else:
            latencies_ms.append((time.perf_counter_ns() - started) / 1e6)
            if tracer is not None:
                tracer.close(span)
                tracer.request = None
            digest, n_cells = workload.outcome(job, output)
            digests.append(digest)
            cells.append(n_cells)
        workload.between()
        if requests is not None and len(latencies_ms) >= requests:
            break
        upcoming = next(plan)
        if deadline is not None and upcoming.round != job.round and time.perf_counter() >= deadline:
            break
        job = upcoming
    return {
        "latencies_ms": latencies_ms,
        "digests": digests,
        "cells": cells,
        "errors": errors,
        "window_s": time.perf_counter() - window_start,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_started = time.perf_counter()
    import repro.api  # noqa: F401  (the "import" layer: what every repro process pays)

    import_s = time.perf_counter() - import_started
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result: dict = {"import_s": import_s}
    if args.verify is not None:
        jobs = workload.jobs(workload.verify_indices(args.verify))
        result["cold"] = {str(job.index): workload.cold(job) for job in jobs}
        args.out.write_text(json.dumps(result))
        return 0

    workload.setup()
    plan = workload.plan()
    first = next(plan)
    result["ready_ns"] = time.monotonic_ns()
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result.update(
            measure(workload, plan, first, seconds=args.seconds, requests=args.requests,
                    tracer=tracer)
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["store_bytes"] = workload.store_bytes()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        args.trace.write_text(json.dumps(tracer.chrome_trace(), separators=(",", ":")))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
