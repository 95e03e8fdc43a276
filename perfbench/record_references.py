"""Record the per-request reference digests shipped in ``references.json``.

    python3 perfbench/record_references.py

Runs each workload for a fixed number of requests, for the default seed and
one held-out seed, each in a fresh worker process, and rewrites
``references.json``.  The counts cover more requests than a run issues on
the machine the benchmark was defined on; requests beyond them are checked
by the cold re-check only.  Re-record only when a change is meant to alter
outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, REFERENCES, ROOT, THREAD_ENV

SEEDS = (1, 2)
REQUESTS = {"paper_grid": 144, "scale_fit": 12, "constraint_stream": 1280}


def record(workload: str, seed: int, requests: int) -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-run") as workdir:
        out = Path(workdir) / "result.json"
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--workdir", workdir, "--out", str(out), "--requests", str(requests)],
            cwd=ROOT, check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV),
        )
        result = json.loads(out.read_text())
    if result["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {result['errors']} requests raised")
    return result["digests"]


def main() -> None:
    (ROOT / ".perfbench-run").mkdir(exist_ok=True)
    references = {
        workload: {str(seed): record(workload, seed, requests) for seed in SEEDS}
        for workload, requests in REQUESTS.items()
    }
    REFERENCES.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
