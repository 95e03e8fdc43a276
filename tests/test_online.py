"""Delta-equivalence, resume and CLI tests for the online replay.

The incremental contract: every constraint delta's re-selection must be
bit-identical — selected parameter, per-cell fold scores, refit labels —
to a cold CVCP run on the same accumulated constraint set, on every
executor backend; the cached structures and the
artifact store may only remove redundant work, never change an answer.
A replay killed mid-stream (a real SIGKILL through a subprocess) must
resume into a byte-identical report.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.constraints.constraint import ConstraintSet
from repro.constraints.oracles import NoisyOracle, PerfectOracle
from repro.datasets.registry import get_dataset
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.online import (
    STREAM_ORDERS,
    OnlineStep,
    StreamSpec,
    cold_selection,
    ordered_stream,
    replay_constraint_stream,
    stream_prefix_sizes,
    stream_step_key,
)
from repro.experiments.runner import (
    algorithm_factory,
    make_side_information,
    parameter_values_for,
)
from repro.utils.cache import clear_distance_cache
from repro.utils.rng import check_random_state, spawn_seeds
from repro.utils.specs import SpecError

TINY = ExperimentConfig(
    n_trials=1,
    n_folds=3,
    minpts_range=(3, 6, 9),
    datasets=("Iris",),
    seed=20140324,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_distance_cache()
    yield
    clear_distance_cache()


@pytest.fixture(scope="module")
def iris():
    return get_dataset("Iris", random_state=20140324)


def reference_selections(dataset, amount, config, stream, seed):
    """Cold per-delta selections, mirroring the replay's rng discipline."""
    rng = check_random_state(seed)
    side = make_side_information(dataset, "constraints", amount, random_state=rng)
    arrivals = ordered_stream(side.constraints, stream.order, rng)
    algorithm_factory("fosc", config, random_state=rng)  # keep the seed stream aligned
    parameter_values_for("fosc", dataset, config)
    step_seeds = spawn_seeds(rng, stream.n_deltas)
    counts = stream_prefix_sizes(len(arrivals), stream.n_deltas)
    references = []
    for count, step_seed in zip(counts, step_seeds):
        clear_distance_cache()
        references.append(
            cold_selection(dataset, ConstraintSet(arrivals[:count]), step_seed, config=config)
        )
    return references


def assert_delta_equivalent(replay, references):
    assert len(replay.steps) == len(references)
    for step, (value, fold_scores, labels) in zip(replay.steps, references):
        assert step.value == value
        assert step.fold_scores == fold_scores
        assert step.labels == labels


class TestDeltaEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_deltas=st.integers(min_value=1, max_value=4),
        order=st.sampled_from(STREAM_ORDERS),
        backend=st.sampled_from(["serial", "thread"]),
    )
    def test_incremental_equals_cold_after_every_delta(
        self, iris, tmp_path_factory, seed, n_deltas, order, backend
    ):
        config = TINY.with_overrides(seed=seed).with_execution(backend=backend, n_jobs=2)
        stream = StreamSpec(n_deltas=n_deltas, order=order)
        store = ArtifactStore(
            tmp_path_factory.mktemp("online-store") / f"s{seed}-{n_deltas}-{order}-{backend}"
        )
        clear_distance_cache()
        replay = replay_constraint_stream(
            iris, 0.1, config=config, stream=stream, random_state=seed, store=store
        )
        references = reference_selections(iris, 0.1, config, stream, seed)
        assert_delta_equivalent(replay, references)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_executor_backend_is_equivalent(self, iris, tmp_path, backend):
        config = TINY.with_execution(backend=backend, n_jobs=2)
        stream = StreamSpec(n_deltas=3)
        store = ArtifactStore(tmp_path / "store")
        replay = replay_constraint_stream(
            iris, 0.1, config=config, stream=stream, random_state=TINY.seed, store=store
        )
        references = reference_selections(iris, 0.1, config, stream, TINY.seed)
        assert_delta_equivalent(replay, references)

    def test_store_does_not_change_the_replay(self, iris, tmp_path):
        stream = StreamSpec(n_deltas=3)
        bare = replay_constraint_stream(
            iris, 0.1, config=TINY, stream=stream, random_state=TINY.seed
        )
        clear_distance_cache()
        stored = replay_constraint_stream(
            iris,
            0.1,
            config=TINY,
            stream=stream,
            random_state=TINY.seed,
            store=ArtifactStore(tmp_path / "store"),
        )
        assert stored.as_summary() == bare.as_summary()


class TestResume:
    def test_resumed_replay_is_byte_identical_and_reads_only_online(self, iris, tmp_path):
        stream = StreamSpec(n_deltas=4)
        store = ArtifactStore(tmp_path / "store")
        fresh = replay_constraint_stream(
            iris, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        store.reset_stats()
        clear_distance_cache()
        resumed = replay_constraint_stream(
            iris, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        assert json.dumps(resumed.as_summary(), sort_keys=True) == json.dumps(
            fresh.as_summary(), sort_keys=True
        )
        by_kind = store.stats_by_kind()
        assert by_kind["online"]["hits"] == stream.n_deltas
        assert set(by_kind) == {"online"}

    def test_partial_store_resumes_the_remaining_deltas(self, iris, tmp_path):
        stream = StreamSpec(n_deltas=4)
        store = ArtifactStore(tmp_path / "store")
        fresh = replay_constraint_stream(
            iris, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        # Keep only the first two completed steps, as a mid-stream kill would.
        rng = check_random_state(TINY.seed)
        side = make_side_information(iris, "constraints", 0.1, random_state=rng)
        arrivals = ordered_stream(side.constraints, stream.order, rng)
        algorithm_factory("fosc", TINY, random_state=rng)
        parameter_values_for("fosc", iris, TINY)
        step_seeds = spawn_seeds(rng, stream.n_deltas)
        for step in (2, 3):
            assert store.delete(
                "online", stream_step_key(TINY, iris, 0.1, stream, step, step_seeds[step])
            )
        clear_distance_cache()
        resumed = replay_constraint_stream(
            iris, 0.1, config=TINY, stream=stream, random_state=TINY.seed, store=store
        )
        assert resumed.as_summary() == fresh.as_summary()

    def test_completed_steps_compact_their_grid_cells(self, iris, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        replay_constraint_stream(
            iris,
            0.1,
            config=TINY,
            stream=StreamSpec(n_deltas=2),
            random_state=TINY.seed,
            store=store,
        )
        assert store.count("cell") == 0
        assert store.count("online") == 2
        assert store.count("structure") == len(TINY.minpts_range)


class TestStructureSharing:
    def test_structures_are_shared_across_oracles(self, iris, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        stream = StreamSpec(n_deltas=2)
        replay_constraint_stream(
            iris,
            0.1,
            config=TINY,
            stream=stream,
            oracle=PerfectOracle(),
            random_state=TINY.seed,
            store=store,
        )
        assert store.stats_for("structure").misses == len(TINY.minpts_range)
        misses_before = store.stats_for("structure").misses
        replay_constraint_stream(
            iris,
            0.1,
            config=TINY,
            stream=stream,
            oracle=NoisyOracle(flip_probability=0.2),
            random_state=TINY.seed,
            store=store,
        )
        # The noisy stream re-selected from the very same structure
        # artifacts: new hits, not a single new build.
        assert store.stats_for("structure").misses == misses_before
        assert store.stats_for("structure").hits > 0
        assert store.count("structure") == len(TINY.minpts_range)
        # The online steps themselves are oracle-keyed and never collide.
        assert store.count("online") == 2 * stream.n_deltas


class TestStreamSpec:
    def test_round_trip(self):
        spec = StreamSpec(n_deltas=7, order="shuffled")
        assert StreamSpec.from_spec(spec.to_spec()) == spec

    def test_defaults(self):
        assert StreamSpec.from_spec({}) == StreamSpec()

    def test_with_overrides_ignores_none(self):
        spec = StreamSpec(n_deltas=5, order="shuffled")
        assert spec.with_overrides(n_deltas=None, order=None) == spec
        assert spec.with_overrides(n_deltas=9).n_deltas == 9

    def test_collects_every_problem(self):
        with pytest.raises(SpecError) as excinfo:
            StreamSpec.from_spec({"n_deltas": 0, "order": "random", "cadence": 3})
        message = str(excinfo.value)
        assert "stream.n_deltas" in message
        assert "stream.order" in message
        assert "stream.cadence" in message

    def test_rejects_boolean_deltas(self):
        with pytest.raises(SpecError, match="n_deltas"):
            StreamSpec.from_spec({"n_deltas": True})

    def test_rejects_non_mapping(self):
        with pytest.raises(SpecError, match="table/object"):
            StreamSpec.from_spec([1, 2])

    def test_prefix_sizes_cover_the_stream(self):
        sizes = stream_prefix_sizes(10, 4)
        assert sizes == [3, 5, 8, 10]
        assert stream_prefix_sizes(2, 5)[-1] == 2
        with pytest.raises(ValueError, match="n_deltas"):
            stream_prefix_sizes(10, 0)

    def test_step_payload_round_trip(self):
        step = OnlineStep(
            step=1, queries=5, value=6, fold_scores=[[0.5, 0.25], [1.0, 0.0]], labels=[0, 1, -1]
        )
        assert OnlineStep.from_payload(json.loads(json.dumps(step.to_payload()))) == step


ONLINE_TOML = """\
[experiment]
name = "online-cli"
kind = "online"
algorithm = "fosc"
amounts = [{amount}]
datasets = ["{dataset}"]
seed = 11

[parameters]
n_trials = 1
n_folds = 3
minpts_range = [3, 6, 9]

[stream]
n_deltas = {deltas}
order = "sorted"

[artifacts]
root = "{root}"
"""


TRIALS_TOML = """\
[experiment]
name = "trials-cli"
kind = "trials"
algorithm = "fosc"
scenario = "labels"
amounts = [0.1]
datasets = ["Iris"]
seed = 11

[parameters]
n_trials = 1
n_folds = 3
minpts_range = [3, 6, 9]

[artifacts]
root = "{root}"
"""


def write_online_config(
    tmp_path, *, root, deltas=3, dataset="Iris", amount=0.1, name="online.toml"
):
    path = tmp_path / name
    path.write_text(
        ONLINE_TOML.format(root=root, deltas=deltas, dataset=dataset, amount=amount),
        encoding="utf-8",
    )
    return path


def summary_bytes(root: Path) -> bytes:
    (summary,) = sorted(Path(root).glob("reports/*/summary.json"))
    return summary.read_bytes()


def report_bytes(root: Path) -> bytes:
    (report,) = sorted(Path(root).glob("reports/*/report.txt"))
    return report.read_bytes()


class TestOnlineCli:
    def test_run_writes_stability_curve_and_resumes(self, tmp_path, capsys):
        root = tmp_path / "store"
        config = write_online_config(tmp_path, root=root)
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "Online replay, Iris, 10% constraint stream (3 deltas, sorted order)" in out
        assert "agrees_with_final" in out

        summary = json.loads(summary_bytes(root))
        assert summary["kind"] == "online"
        assert summary["stream"] == {"n_deltas": 3, "order": "sorted"}
        (replay,) = summary["results"]["Iris"].values()
        assert len(replay["steps"]) == 3
        assert replay["final_value"] == replay["steps"][-1]["value"]
        assert 0.0 < replay["stability"] <= 1.0

        first = summary_bytes(root)
        assert main(["run", str(config), "--quiet"]) == 0
        assert summary_bytes(root) == first

    def test_stream_flags_override_the_config(self, tmp_path, capsys):
        root = tmp_path / "store"
        config = write_online_config(tmp_path, root=root)
        assert (
            main(
                [
                    "run",
                    str(config),
                    "--quiet",
                    "--stream-deltas",
                    "2",
                    "--stream-order",
                    "shuffled",
                ]
            )
            == 0
        )
        summary = json.loads(summary_bytes(root))
        assert summary["stream"] == {"n_deltas": 2, "order": "shuffled"}

    def test_stream_flags_rejected_for_other_kinds(self, tmp_path, capsys):
        config = tmp_path / "trials.toml"
        config.write_text(
            TRIALS_TOML.format(root=tmp_path / "store"),
            encoding="utf-8",
        )
        assert main(["run", str(config), "--stream-deltas", "2"]) == 2
        assert 'only apply to kind = "online"' in capsys.readouterr().err

    def test_invalid_stream_flag_value_is_exit_2(self, tmp_path, capsys):
        config = write_online_config(tmp_path, root=tmp_path / "store")
        assert main(["run", str(config), "--stream-deltas", "0"]) == 2
        assert "stream.n_deltas" in capsys.readouterr().err

    def test_validate_config_checks_the_stream_table(self, tmp_path, capsys):
        good = write_online_config(tmp_path, root=tmp_path / "store")
        assert main(["validate-config", str(good)]) == 0
        capsys.readouterr()

        bad = tmp_path / "bad.toml"
        bad.write_text(
            good.read_text(encoding="utf-8").replace("n_deltas = 3", "n_deltas = -1"),
            encoding="utf-8",
        )
        assert main(["validate-config", str(bad)]) == 2
        assert "stream.n_deltas" in capsys.readouterr().out

        wrong_kind = tmp_path / "wrong-kind.toml"
        wrong_kind.write_text(
            good.read_text(encoding="utf-8").replace('kind = "online"', 'kind = "trials"'),
            encoding="utf-8",
        )
        assert main(["validate-config", str(wrong_kind)]) == 2
        assert 'only kind="online"' in capsys.readouterr().out

        scenario = tmp_path / "scenario.toml"
        scenario.write_text(
            good.read_text(encoding="utf-8").replace(
                'algorithm = "fosc"', 'algorithm = "fosc"\nscenario = "constraints"'
            ),
            encoding="utf-8",
        )
        assert main(["validate-config", str(scenario)]) == 2
        assert "experiment.scenario" in capsys.readouterr().out

        mpck = tmp_path / "mpck.toml"
        mpck.write_text(
            good.read_text(encoding="utf-8").replace('algorithm = "fosc"', 'algorithm = "mpck"'),
            encoding="utf-8",
        )
        assert main(["validate-config", str(mpck)]) == 2
        assert "experiment.algorithm" in capsys.readouterr().out


def worker_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestKillResume:
    def test_sigkilled_replay_resumes_byte_identically(self, tmp_path):
        # The acceptance scenario: a replay is SIGKILLed mid-stream (no
        # cleanup runs), a rerun over the same store resumes from the
        # persisted steps, and the final report is byte-identical to an
        # uninterrupted run.  Ionosphere at 50% gives every delta enough
        # work that the kill lands while most of the stream is pending.
        deltas = 16
        root = tmp_path / "store"
        config = write_online_config(
            tmp_path, root=root, deltas=deltas, dataset="Ionosphere", amount=0.5
        )
        reference_root = tmp_path / "reference"
        reference = write_online_config(
            tmp_path,
            root=reference_root,
            deltas=deltas,
            dataset="Ionosphere",
            amount=0.5,
            name="reference.toml",
        )
        assert main(["run", str(reference), "--quiet"]) == 0

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(config), "--quiet"],
            env=worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        online_dir = root / "online"
        deadline = time.monotonic() + 120.0
        while not (online_dir.is_dir() and any(online_dir.glob("*/*.json"))):
            if victim.poll() is not None:
                pytest.fail("victim replay finished before it could be killed")
            if time.monotonic() > deadline:
                victim.kill()
                pytest.fail("victim replay persisted no online step within 120s")
            time.sleep(0.005)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        completed = len(list(online_dir.glob("*/*.json")))
        assert completed < deltas, "the kill landed after the whole stream completed"

        assert main(["run", str(config), "--quiet"]) == 0
        assert summary_bytes(root) == summary_bytes(reference_root)
        assert report_bytes(root) == report_bytes(reference_root)
