"""The benchmark's workloads: seeded, closed-loop request streams over the public API.

Every workload turns the benchmark seed into an endless, deterministic
stream of jobs (:meth:`Workload.plan`).  One client issues them one at a
time (:meth:`Workload.issue`, the timed call), on the serial executor, in a
fresh process.  The library only ever receives the generated inputs.

For every job the workload also knows

* the digest of a correct output (:meth:`Workload.outcome`), compared with
  the shipped references and with :meth:`Workload.cold`, the same job
  recomputed in another process with cold memo caches and no shared store;
* how many CVCP grid cells (parameter value x requested fold) the job
  asks for, computed from its inputs, so throughput does not depend on how
  the library counts its work.  CVCP caps the fold count when side
  information is scarce; such a grid still counts as requested.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

import repro.api as api
from repro.constraints.constraint import ConstraintSet
from repro.core.cvcp import CVCP
from repro.core.executor import ExecutionSpec
from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import make_blobs
from repro.experiments.config import (
    CONSTRAINT_FRACTIONS,
    LABEL_FRACTIONS,
    MINPTS_RANGE,
    QUICK_CONFIG,
)
from repro.experiments.online import (
    OnlineStep,
    StreamSpec,
    ordered_stream,
    stream_prefix_sizes,
    stream_step_key,
)
from repro.experiments.runner import algorithm_factory, make_side_information, parameter_values_for
from repro.utils.cache import clear_distance_cache
from repro.utils.rng import spawn_seeds

#: The paper-scale data sets (n = 125..336) the store-backed workloads cycle through.
PAPER_DATASETS = ("ALOI", "Iris", "Wine", "Ecoli")
SERIAL = ExecutionSpec(backend="serial")


def child_seed(*entropy: int) -> int:
    """A 31-bit seed derived from the benchmark seed and a position."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0] >> 1)


def selection_digest(value: int, scores, labels) -> str:
    """Digest of a selection: the chosen value, the CVCP scores and the partition.

    Scores enter as their shortest round-trip ``repr``, so a grid whose
    scores change is caught even when it still selects the same value.
    """
    digest = hashlib.sha256(f"{int(value)}:{[float(score) for score in scores]!r}:".encode())
    digest.update(np.asarray(labels, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tree_bytes(root: Path) -> int:
    """Bytes held by the regular files under ``root``."""
    if not root.is_dir():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


@dataclass
class Job:
    """One request: a label for the trace and what the workload needs to run it.

    Jobs come in rounds, each holding every kind of job a workload issues
    once; runs end on a round boundary so every run has the same job mix.
    """

    index: int
    round: int
    label: str
    inputs: dict[str, Any] = field(default_factory=dict)


class Workload:
    """A seeded request stream.

    Subclasses define :meth:`plan`, :meth:`issue`, :meth:`outcome`,
    :meth:`cold` and :meth:`verify_indices`.
    """

    name = ""
    #: Whether requests go through an artifact store.
    uses_store = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.store_root = self.workdir / "store"
        self.store = None

    def setup(self) -> None:
        """Create the (empty) store; the first job's inputs come from :meth:`plan`."""
        if self.uses_store:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store = api.open_store(self.store_root)

    def plan(self) -> Iterator[Job]:
        raise NotImplementedError

    def issue(self, job: Job) -> Any:
        """Run one request through the public API (the timed call)."""
        raise NotImplementedError

    def outcome(self, job: Job, output: Any) -> tuple[str, int]:
        """``(digest, grid cells)`` of a finished request (untimed)."""
        raise NotImplementedError

    def cold(self, job: Job) -> str:
        """Digest of ``job`` recomputed with cold memo caches and no shared store."""
        raise NotImplementedError

    def between(self) -> None:
        """Untimed client work between two requests."""

    def store_bytes(self) -> int:
        return tree_bytes(self.store_root) if self.uses_store else 0

    def verify_indices(self, completed: int) -> list[int]:
        """Requests of a run that are recomputed cold after it."""
        raise NotImplementedError

    def jobs(self, indices) -> list[Job]:
        """The jobs at the given stream positions."""
        wanted = set(indices)
        stream = itertools.islice(self.plan(), max(wanted, default=-1) + 1)
        return [job for job in stream if job.index in wanted]


class PaperGrid(Workload):
    """Comparison jobs (``api.run_pipeline``) at paper scale against one store.

    A round is the 48 jobs {fosc, mpck} x {labels, constraints} x
    {ALOI, Iris, Wine, Ecoli} x the paper's three amounts, in a seeded order,
    all with the round's seed (so jobs of one round share their data sets,
    and FOSC jobs share structure artifacts through the store).
    """

    name = "paper_grid"
    config = QUICK_CONFIG.with_overrides(minpts_range=MINPTS_RANGE, n_trials=1)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._cells: dict[tuple[str, str], int] = {}

    def _round(self, round_index: int) -> list[tuple[str, str, str, float]]:
        combos = [
            (algorithm, scenario, dataset, amount)
            for algorithm in ("fosc", "mpck")
            for scenario in ("labels", "constraints")
            for dataset in PAPER_DATASETS
            for amount in (LABEL_FRACTIONS if scenario == "labels" else CONSTRAINT_FRACTIONS)
        ]
        order = np.random.default_rng([self.seed, round_index]).permutation(len(combos))
        return [combos[position] for position in order]

    def spec(self, job: Job, store_root: Path) -> dict:
        inputs = job.inputs
        return {
            "experiment": {
                "name": job.label,
                "kind": "comparison",
                "algorithm": inputs["algorithm"],
                "scenario": inputs["scenario"],
                "amounts": [inputs["amount"]],
                "datasets": [inputs["dataset"]],
                "seed": inputs["seed"],
            },
            "parameters": {
                "n_trials": self.config.n_trials,
                "minpts_range": list(self.config.minpts_range),
            },
            "execution": {"backend": "serial"},
            "artifacts": {"root": str(store_root)},
        }

    def plan(self) -> Iterator[Job]:
        index = 0
        for round_index in itertools.count():
            seed = child_seed(self.seed, round_index)
            for algorithm, scenario, dataset, amount in self._round(round_index):
                label = f"r{round_index}-{algorithm}-{scenario}-{dataset}-{amount:g}"
                yield Job(index, round_index, label, {
                    "algorithm": algorithm, "scenario": scenario, "dataset": dataset,
                    "amount": amount, "seed": seed,
                })
                index += 1

    def issue(self, job: Job) -> Any:
        return api.run_pipeline(self.spec(job, self.store_root), store=self.store)

    def outcome(self, job: Job, output) -> tuple[str, int]:
        return self._summary_digest(output), self.cells(job)

    @staticmethod
    def _summary_digest(report) -> str:
        (summary,) = [path for path in report.report_paths if path.name == "summary.json"]
        return bytes_digest(summary.read_bytes())

    def cells(self, job: Job) -> int:
        """Grid cells of one comparison job: trials x values x folds."""
        algorithm, dataset = job.inputs["algorithm"], job.inputs["dataset"]
        if (algorithm, dataset) not in self._cells:
            values = parameter_values_for(algorithm, get_dataset(dataset), self.config)
            trials = self.config.n_trials * (
                self.config.n_aloi_datasets if dataset == "ALOI" else 1
            )
            self._cells[algorithm, dataset] = trials * len(values) * self.config.n_folds
        return self._cells[algorithm, dataset]

    def cold(self, job: Job) -> str:
        root = self.workdir / f"cold-{job.index}"
        shutil.rmtree(root, ignore_errors=True)
        clear_distance_cache()
        report = api.run_pipeline(self.spec(job, root), store=api.open_store(root))
        digest = self._summary_digest(report)
        shutil.rmtree(root, ignore_errors=True)
        return digest

    def verify_indices(self, completed: int) -> list[int]:
        """The first job of each (algorithm, scenario) pair in the first round."""
        firsts: dict[tuple[str, str], int] = {}
        for position, (algorithm, scenario, _, _) in enumerate(self._round(0)):
            firsts.setdefault((algorithm, scenario), position)
        return sorted(index for index in firsts.values() if index < completed)


class ScaleFit(Workload):
    """``api.fit("fosc", ...)`` on 5-class 4-d blobs at n=5000, blockwise tier, no store.

    Every request fits a fresh data set.  Between requests the client drops
    the per-process distance and structure memos, as a new ``repro`` process
    per fit would, so each fit pays its structure phase and the process holds
    one O(n^2) matrix at a time.
    """

    name = "scale_fit"
    uses_store = False
    n_per_class = 1000
    n_classes = 5
    amount = 0.02
    n_folds = 4
    execution = ExecutionSpec(backend="serial", distance_backend="blockwise")

    def plan(self) -> Iterator[Job]:
        for index in itertools.count():
            seed = child_seed(self.seed, index)
            dataset = make_blobs(
                [self.n_per_class] * self.n_classes, 4, random_state=seed, name=f"blobs-{index}"
            )
            yield Job(index, index, f"fit-{index}", {"dataset": dataset, "seed": seed})

    def issue(self, job: Job) -> Any:
        return api.fit(
            "fosc", job.inputs["dataset"], scenario="labels", amount=self.amount,
            n_folds=self.n_folds, seed=job.inputs["seed"], execution=self.execution,
        )

    def outcome(self, job: Job, output) -> tuple[str, int]:
        values = parameter_values_for("fosc", job.inputs["dataset"], QUICK_CONFIG)
        return self._digest(output), len(values) * self.n_folds

    @staticmethod
    def _digest(output) -> str:
        return selection_digest(output.parameter_value, [output.best_score], output.labels)

    def cold(self, job: Job) -> str:
        clear_distance_cache()
        return self._digest(self.issue(job))

    def between(self) -> None:
        clear_distance_cache()

    def verify_indices(self, completed: int) -> list[int]:
        return [completed - 1] if completed else []


class ConstraintStream(Workload):
    """Store-backed CVCP re-selection after each delta of an oracle constraint stream.

    A round replays one shuffled stream per paper data set, cut into
    ``n_deltas`` cumulative prefixes.  Each request is one ``CVCP.fit`` on the
    accumulated prefix through the store, followed by the step artifact and
    the compaction of its cells, as ``kind="online"`` pipelines do.
    """

    name = "constraint_stream"
    amount = CONSTRAINT_FRACTIONS[-1]
    stream = StreamSpec(n_deltas=8, order="shuffled")
    config = QUICK_CONFIG.with_overrides(minpts_range=MINPTS_RANGE)

    def plan(self) -> Iterator[Job]:
        index = 0
        for round_index in itertools.count():
            for position, name in enumerate(PAPER_DATASETS):
                seed = child_seed(self.seed, round_index, position)
                config = self.config.with_overrides(seed=seed)
                dataset = get_dataset(name, random_state=seed)
                rng = np.random.default_rng(seed)
                side = make_side_information(dataset, "constraints", self.amount, random_state=rng)
                arrivals = ordered_stream(side.constraints, self.stream.order, rng)
                estimator = algorithm_factory("fosc", config, random_state=rng)
                values = parameter_values_for("fosc", dataset, config)
                step_seeds = spawn_seeds(rng, self.stream.n_deltas)
                counts = stream_prefix_sizes(len(arrivals), self.stream.n_deltas)
                for step, (count, step_seed) in enumerate(zip(counts, step_seeds)):
                    key = stream_step_key(config, dataset, self.amount, self.stream, step, step_seed)
                    yield Job(index, round_index, f"r{round_index}-{name}-delta{step}", {
                        "dataset": dataset, "estimator": estimator, "values": values,
                        "prefix": arrivals[:count], "step": step, "step_seed": step_seed,
                        "key": key,
                    })
                    index += 1

    def _search(self, job: Job, store) -> CVCP:
        inputs = job.inputs
        search = CVCP(
            inputs["estimator"],
            inputs["values"],
            n_folds=self.config.n_folds,
            refit=True,
            random_state=inputs["step_seed"],
            execution=SERIAL,
            artifact_store=store,
            artifact_scope=inputs["key"] if store is not None else None,
        )
        return search.fit(inputs["dataset"].X, constraints=ConstraintSet(inputs["prefix"]))

    def issue(self, job: Job) -> Any:
        inputs = job.inputs
        # The resume probe a replay makes before every delta (always a miss here).
        self.store.get("online", inputs["key"])
        search = self._search(job, self.store)
        step = OnlineStep(
            step=inputs["step"],
            queries=len(inputs["prefix"]),
            value=int(search.cv_results_.best_value),
            fold_scores=[
                [float(score) for score in evaluation.fold_scores]
                for evaluation in search.cv_results_.evaluations
            ],
            labels=[int(label) for label in search.labels_],
        )
        self.store.put("online", inputs["key"], step.to_payload())
        for value_index in reversed(range(len(inputs["values"]))):
            for fold in reversed(range(self.config.n_folds)):
                self.store.delete(
                    "cell", dict(inputs["key"], phase="grid", value_index=value_index, fold=fold)
                )
        return step

    def outcome(self, job: Job, output) -> tuple[str, int]:
        cells = len(job.inputs["values"]) * self.config.n_folds
        return selection_digest(output.value, output.mean_scores, output.labels), cells

    def cold(self, job: Job) -> str:
        clear_distance_cache()
        search = self._search(job, None)
        results = search.cv_results_
        return selection_digest(results.best_value, results.mean_scores, search.labels_)

    def verify_indices(self, completed: int) -> list[int]:
        """The whole first stream (its cold first delta and warm re-selections)."""
        return list(range(min(completed, self.stream.n_deltas)))


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (PaperGrid, ScaleFit, ConstraintStream)
}
