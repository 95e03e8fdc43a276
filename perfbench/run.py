"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another.  Run from
the root of a source checkout.  Each workload runs in fresh worker
processes (``worker.py``):

1. ``SETUP_PROBES`` set-up-only processes, then the measured run; ``setup_s``
   is the median of their launch-to-first-request times;
2. the measured run issues whole rounds of requests until ``--seconds``
   have passed (closed loop, one client, serial executor, tracing off);
3. with ``--trace 1``, a traced run repeats the same requests with every
   layer boundary wrapped, and reports per-layer metrics, the tracing
   overhead, and the Chrome trace under ``.perfbench-run/``;
4. a cold re-check recomputes a sample of the requests in another process
   without the shared store and with cold memos.

Every request's output digest must equal the cold re-check, the traced run
and, for the seeds in ``references.json``, the shipped reference.  The last
line of standard output is one JSON object; the exit code is 1 when any
request failed or any digest differed, 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".perfbench-run"
REFERENCES = BENCH / "references.json"
SETUP_PROBES = 4
#: A run ends within this many seconds: a worker still running then is killed.
RUN_BUDGET_S = 170.0
#: BLAS thread pools pinned to one thread: one serial client on a shared machine.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from tracing import per_layer_metric_units  # noqa: E402

WORKLOAD_NAMES = ("paper_grid", "scale_fit", "constraint_stream")
END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "cells_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
#: Printed beside the bounded metrics; zero on some workloads, so not bounded.
REPORTED_UNITS = {"store_mib": "MiB", "error_rate": "ratio"}
RUN_LEVEL_UNITS = {"store.size_mib": "MiB", "trace.overhead_ratio": "ratio", "trace.spans": "count"}


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_units() -> dict[str, str]:
    return {**per_layer_metric_units(), **RUN_LEVEL_UNITS}


def tail(latencies: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 requests beyond it.

    In a run of fewer than 21 requests no percentile at or above the median
    has 10 requests beyond it; the slowest request (p100) stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine() -> dict:
    def package(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "scipy": package("scipy"),
        "blas_threads": THREAD_ENV,
    }


class Runner:
    """Starts the worker processes of one benchmark run and collects their results."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        self._count = 0

    def worker(self, *extra: str) -> dict:
        self._count += 1
        workdir = self.workdir / f"w{self._count}"
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        command = [
            sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--workdir", str(workdir), "--out", str(out), *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("run budget exhausted")
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker {extra} timed out") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker {extra} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result = json.loads(out.read_text())
        if "ready_ns" in result:
            result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
        return result

    def run(self) -> tuple[dict, list[str]]:
        """The measured (and, with ``--trace 1``, traced) run plus its checks."""
        args = self.args
        probes = [self.worker("--setup-only") for _ in range(SETUP_PROBES)]
        measured = self.worker("--seconds", repr(args.seconds))
        setups = [probe["setup_s"] for probe in probes] + [measured["setup_s"]]
        imports = [probe["import_s"] for probe in probes] + [measured["import_s"]]
        digests = measured["digests"]
        failed = {index for index, digest in enumerate(digests) if digest is None}
        notes = []

        references = json.loads(REFERENCES.read_text()).get(args.workload, {}).get(str(args.seed))
        if references is not None:
            checked = min(len(references), len(digests))
            wrong = {i for i in range(checked) if digests[i] != references[i]}
            failed |= wrong
            notes.append(f"references: {checked - len(wrong)}/{checked} match (seed {args.seed})")

        cold = self.worker("--verify", str(len(digests)))["cold"]
        wrong = {int(index) for index, digest in cold.items() if digests[int(index)] != digest}
        failed |= wrong
        notes.append(f"cold re-check: {len(cold) - len(wrong)}/{len(cold)} match")

        traced = None
        if args.trace:
            trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            traced = self.worker("--requests", str(len(digests)), "--trace", str(trace_path))
            wrong = {i for i, (a, b) in enumerate(zip(digests, traced["digests"])) if a != b}
            failed |= wrong
            notes.append(
                f"traced run: {len(digests) - len(wrong)}/{len(digests)} digests identical;"
                f" chrome trace in {trace_path.relative_to(ROOT)}"
            )
        result = {
            "measured": measured, "traced": traced, "setups": setups, "imports": imports,
            "failed": len(failed), "attempted": len(digests),
        }
        return result, notes


def end_to_end(result: dict) -> tuple[dict, dict]:
    measured = result["measured"]
    latencies = measured["latencies_ms"]
    tail_ms, percentile = tail(latencies)
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "request_p50_ms": statistics.median(latencies),
        "request_tail_ms": tail_ms,
        "cells_per_s": sum(measured["cells"]) / (sum(latencies) / 1000),
        "peak_rss_mib": measured["peak_rss_mib"],
    }
    reported = {
        "store_mib": measured["store_bytes"] / 2**20,
        "error_rate": result["failed"] / result["attempted"],
    }
    notes = {
        "request_tail_ms": f"p{percentile:.1f} of {len(latencies)} requests",
        "setup_s": f"median of {len(result['setups'])} set-ups",
    }
    return {**metrics, **reported}, notes


def per_layer(result: dict) -> dict:
    traced, measured = result["traced"], result["measured"]
    metrics = dict(traced["layers"])
    imports = result["imports"]
    metrics["import.calls"] = len(imports)
    metrics["import.busy_s"] = statistics.median(imports)
    metrics["import.self_s"] = statistics.median(imports)
    metrics["store.size_mib"] = measured["store_bytes"] / 2**20
    metrics["trace.overhead_ratio"] = traced["window_s"] / measured["window_s"] - 1
    metrics["trace.spans"] = traced["spans"]
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload, print its metrics and the result line; the exit code."""
    runner = Runner(args)
    try:
        result, notes = runner.run()
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    values, value_notes = end_to_end(result)
    units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    for name, value in values.items():
        print(f"  {name:<16} {value:>14.4f} {units[name]:<6} {value_notes.get(name, '')}")
    for note in notes:
        print(f"  check: {note}")
    if args.trace:
        layers = per_layer(result)
        table = RUN_DIR / f"layers-{args.workload}-seed{args.seed}.json"
        table.write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")
        print(f"  per-layer table in {table.relative_to(ROOT)}")
        chosen, chosen_units = layers, per_layer_units()
    else:
        chosen = {name: values[name] for name in END_TO_END_UNITS}
        chosen_units = END_TO_END_UNITS
    correct = result["failed"] == 0 and all(math.isfinite(value) for value in chosen.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": chosen[name], "unit": unit} for name, unit in chosen_units.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    return max(
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        for name in WORKLOAD_NAMES
    )


if __name__ == "__main__":
    sys.exit(main())
