import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benchplan import evaluate
from benchplan.concepts import encode_values
from benchplan.evaluate import (
    EvalReport,
    TaskRecord,
    chance_baseline,
    evaluate_task,
    fsd,
    interpretability_report,
    run_experiment,
)
from benchplan.taskgen import Task, generate_task
from benchplan.workbench import ObjectState

states = st.builds(
    lambda x, y: ObjectState(0, x, y, 0, 0, 0),
    x=st.integers(0, 2), y=st.integers(0, 4))


def report(*records):
    """An EvalReport over TaskRecords given as (gt_len, top1_len, attempt flags)."""
    return EvalReport(level=1, planner="symbolic", split="test", records=tuple(
        TaskRecord(task_id=f"T{i}", gt_len=gt_len, attempt_success=tuple(flags),
                   top1_len=top1_len, fsd=0.0)
        for i, (gt_len, top1_len, flags) in enumerate(records)))


def attempts(*attempt_sets):
    """An EvalReport over one TaskRecord per attempt set (no attempt: no length)."""
    return report(*((1, 1 if flags else None, flags) for flags in attempt_sets))


class TestASE:
    def test_single_success(self):
        assert report((4, 5, [True])).ase == pytest.approx(0.8)

    def test_all_optimal(self):
        assert report((3, 3, [True]), (5, 5, [True])).ase == 1.0

    def test_no_successes_absent(self):
        assert report((3, 4, [False])).ase is None

    def test_failures_ignored(self):
        # only the first attempt counts: a later success is still a top-1 failure
        assert report((4, 5, [True]), (1, 9, [False, True])).ase == pytest.approx(0.8)

    def test_zero_length_convention(self):
        assert report((0, 0, [True])).ase == 1.0


class TestFSD:
    def test_identical(self):
        s = ObjectState(0, 1, 1, 0, 0, 0)
        assert fsd(s, s) == 0.0

    def test_straight_line(self):
        assert fsd(ObjectState(0, 0, 0, 0, 0, 0), ObjectState(0, 2, 0, 0, 0, 0)) == 2.0

    def test_grid_maximum(self):
        d = fsd(ObjectState(0, 0, 0, 0, 0, 0), ObjectState(0, 2, 4, 0, 0, 0))
        assert d == pytest.approx(math.sqrt(20))

    @given(a=states, b=states)
    def test_symmetry(self, a, b):
        assert fsd(a, b) == fsd(b, a)

    @given(a=states, b=states, c=states)
    def test_triangle_inequality(self, a, b, c):
        assert fsd(a, c) <= fsd(a, b) + fsd(b, c) + 1e-12


class TestASAcc:
    def test_all_first_succeed(self):
        r = attempts([True], [True, False])
        assert (r.asacc_top1, r.asacc_top5) == (100.0, 100.0)

    def test_third_attempt_only(self):
        r = attempts(*[[False, False, True, False, False]] * 4)
        assert (r.asacc_top1, r.asacc_top5) == (0.0, 100.0)

    def test_none_succeed(self):
        # an empty attempt set (no plan) counts as a failure
        r = attempts([False], [])
        assert (r.asacc_top1, r.asacc_top5) == (0.0, 0.0)
        assert r.n_tasks == 2

    def test_monotone_in_attempts(self):
        base = [[False, True], [False, False]]
        extended = [flags + [True] for flags in base]
        assert attempts(*extended).asacc_top5 >= attempts(*base).asacc_top5


class TestChance:
    def test_deterministic_under_seed(self):
        task = generate_task(1, np.random.default_rng(0))
        a = chance_baseline(task, np.random.default_rng(42))
        b = chance_baseline(task, np.random.default_rng(42))
        assert a == b

    def test_lengths_within_cap(self):
        task = generate_task(2, np.random.default_rng(1))
        for attempt in chance_baseline(task, np.random.default_rng(5), attempts=20):
            assert 1 <= len(attempt) <= task.env.max_len

    def test_lengths_within_l_max(self, level3_run):
        """The chance planner gets the planners' budget: at most l_max steps."""
        task = generate_task(2, np.random.default_rng(1))
        lengths = {len(attempt) for attempt in
                   chance_baseline(task, np.random.default_rng(5), attempts=50, l_max=2)}
        assert lengths == {1, 2}
        dataset, fitted = level3_run
        report = run_experiment(dataset, fitted, planner="chance", l_max=2)
        assert {r.top1_len for r in report.records} == {1, 2}


class TestRunExperiment:
    def test_level1_noiseless_near_perfect(self, level1_run):
        dataset, fitted = level1_run
        report = run_experiment(dataset, fitted, noise_sigma=0.0)
        assert report.asacc_top1 >= 99.0
        assert report.asacc_top5 >= report.asacc_top1
        assert report.ase == 1.0
        assert report.fsd_mean == 0.0
        assert report.n_tasks == len(dataset.subset("test"))

    def test_deterministic(self, level3_run):
        dataset, fitted = level3_run
        a = run_experiment(dataset, fitted, noise_sigma=0.05, seed=3)
        b = run_experiment(dataset, fitted, noise_sigma=0.05, seed=3)
        assert a == b

    def test_jobs_do_not_change_results(self, level1_run):
        dataset, fitted = level1_run
        serial = run_experiment(dataset, fitted, noise_sigma=0.0, jobs=1)
        parallel = run_experiment(dataset, fitted, noise_sigma=0.0, jobs=2)
        assert serial == parallel

    @pytest.fixture()
    def inline_pool(self, monkeypatch):
        """`run_experiment`'s pool, run here: what it was given, by name."""
        seen = {}

        class InlinePool:  # runs the worker initializer and the work items here
            def __init__(self, max_workers, initializer, initargs):
                seen.update(max_workers=max_workers, initargs=initargs)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                seen["items"] = list(items)
                return map(fn, seen["items"])

        monkeypatch.setattr(evaluate, "_shared", ())
        monkeypatch.setattr(evaluate, "ProcessPoolExecutor", InlinePool)
        return seen

    def test_pool_ships_the_fit_once_per_worker(self, level1_run, inline_pool):
        dataset, fitted = level1_run
        seen = inline_pool
        pooled = run_experiment(dataset, fitted, noise_sigma=0.0, jobs=2)
        assert seen["initargs"][0] is fitted
        items = seen["items"]
        assert [i for i, _ in items] == list(range(len(dataset.subset("test"))))
        assert all(isinstance(task, Task) for _, task in items)
        assert max(len(pickle.dumps(item)) for item in items) < 2_000  # the fit: ~100 KB
        assert pooled == run_experiment(dataset, fitted, noise_sigma=0.0, jobs=1)

    # a pool starts all of its workers at its first task: one per chunk of 8
    # tasks (`evaluate.CHUNK`), and none for a split of one chunk
    @pytest.mark.parametrize("n_test, workers", [(40, 5), (9, 2), (8, None)])
    def test_pool_starts_only_the_workers_its_tasks_use(self, level1_run, inline_pool,
                                                         n_test, workers):
        dataset, fitted = level1_run
        tasks = dataset.tasks  # the test tasks come last
        dataset = replace(dataset, tasks=tasks[:len(tasks) - len(dataset.subset("test")) + n_test])
        assert len(dataset.subset("test")) == n_test
        pooled = run_experiment(dataset, fitted, noise_sigma=0.0, jobs=500)
        assert inline_pool.get("max_workers") == workers
        assert pooled == run_experiment(dataset, fitted, noise_sigma=0.0, jobs=1)

    def test_successful_tasks_have_zero_fsd(self, level3_run):
        dataset, fitted = level3_run
        report = run_experiment(dataset, fitted, noise_sigma=0.0)
        for record in report.records:
            if record.top1_success:
                assert record.fsd == 0.0

    def test_chance_planner_is_weak(self, level1_run):
        dataset, fitted = level1_run
        report = run_experiment(dataset, fitted, planner="chance", seed=1)
        assert report.asacc_top1 <= 5.0
        assert report.fsd_mean >= 1.5

    def test_nan_sigma_is_refused_not_read_as_0(self, level1_run):
        dataset, fitted = level1_run
        refused = "^noise_sigma must be finite and >= 0, got nan$"
        with pytest.raises(ValueError, match=refused):
            encode_values([dataset.tasks[0].init.values()], fitted.codebook, math.nan,
                          np.random.default_rng(0))
        for planner in ("symbolic", "token"):
            with pytest.raises(ValueError, match=refused):
                run_experiment(dataset, fitted, planner=planner, noise_sigma=math.nan)

    def test_unknown_planner(self, level1_run):
        dataset, fitted = level1_run
        with pytest.raises(ValueError):
            run_experiment(dataset, fitted, planner="dijkstra")

    def test_evaluate_task_raises_on_unknown_planner(self, level1_run):
        """Only NoPlanFound and InvalidInit count as failed tasks; other errors surface."""
        dataset, fitted = level1_run
        task = dataset.subset("test")[0]
        with pytest.raises(ValueError, match="unknown planner"):
            evaluate_task(task, fitted, fitted.codebook, planner="symbolc",
                          noise_sigma=0.0, top_k=5, l_max=None,
                          rng=np.random.default_rng(0))

    def test_unseen_object_types_extend_codebook(self, level1_run):
        from benchplan.taskgen import make_unseen_object_split
        dataset, fitted = level1_run
        unseen = make_unseen_object_split(dataset, {8, 9, 10, 11})
        seen_report = run_experiment(dataset, fitted, noise_sigma=0.0)
        unseen_report = run_experiment(unseen, fitted, noise_sigma=0.0)
        # type plays no dynamic role: identical accuracy
        assert unseen_report.asacc_top1 == seen_report.asacc_top1
        assert unseen_report.asacc_top5 == seen_report.asacc_top5


class TestInterpretability:
    def test_dominant_concepts_match_semantics(self, level3_run):
        _, fitted = level3_run
        report = interpretability_report(fitted.maps, fitted.codebook, seed=0)
        expected = {"move_front": "pos_y", "move_back": "pos_y",
                    "move_left": "pos_x", "move_right": "pos_x",
                    "change_color": "color"}
        dominant = report.argmax_concepts()
        for action, concept in expected.items():
            assert dominant[action] == concept

    def test_position_changes_are_unit_steps(self, level3_run):
        _, fitted = level3_run
        report = interpretability_report(fitted.maps, fitted.codebook, seed=0)
        deltas = {"move_front": (0, 1), "move_back": (0, -1),
                  "move_left": (-1, 0), "move_right": (1, 0)}
        for action, expect in deltas.items():
            samples = report.position_changes[action]
            assert (samples == expect).all(axis=1).mean() >= 0.99
        assert (report.position_changes["change_color"] == (0, 0)).all()

    def test_text_tables_render(self, level3_run):
        _, fitted = level3_run
        report = interpretability_report(fitted.maps, fitted.codebook, seed=0)
        text = report.to_text()
        assert "move_front" in text and "rotation" in text
        tsv = report.position_tsv()
        assert tsv.startswith("action\tdx\tdy")
