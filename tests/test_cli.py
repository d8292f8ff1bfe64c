"""End-to-end CLI exercises in a temp directory; exit codes per the contract."""

import argparse
import os
import re
import warnings
from dataclasses import replace

import pytest

from _sealing import drop_center, drop_last_concept, edit_sealed, swap_concepts
from benchplan import cli
from benchplan.artifacts import load_dataset, save_dataset, save_fitted
from benchplan.cli import main
from benchplan.taskgen import generate_dataset


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


PLAN = ("plan", "--artifacts", "arts", "--level", 1,
        "--init", "0,0,0,0,2,1", "--goal", "0,1,0,0,2,1")
EVAL = ("eval", "--data", "data.txt", "--artifacts", "arts", "--jobs", 1)
FIT = ("fit", "--data", "data.txt", "--artifacts", "arts2", "--sigma", 0)
GEN = ("gen", "--level", 1, "--train", 10, "--val", 1, "--test", 2, "--out", "g.txt")
# datasets that some usage-error cases read, made with GEN and these options
THIN = {"notrain.txt": ("--train", 0), "fivetrain.txt": ("--train", 5),
        "noval.txt": ("--val", 0)}


def onto(prefix, place):
    """An edit that moves the first task's init or goal onto the task's dyer or
    its first obstacle."""
    def edit(text):
        record = re.search(r"^task_id=.*$", text, re.M)[0]
        x, y = re.search(rf" {place}=(\d),(\d)", record).groups()
        moved = re.sub(rf"{prefix}\.y=\d", f"{prefix}.y={y}",
                       re.sub(rf"{prefix}\.x=\d", f"{prefix}.x={x}", record))
        return text.replace(record, moved, 1)
    return edit


class TestGen:
    def test_writes_dataset(self, workdir, capsys):
        assert run("gen", "--level", 1, "--train", 20, "--val", 2, "--test", 5,
                   "--seed", 3, "--out", "data.txt") == 0
        assert "wrote 27 level-1 tasks" in capsys.readouterr().out
        assert os.path.exists("data.txt")

    def test_identical_reruns(self, workdir):
        run("gen", "--level", 2, "--train", 10, "--val", 1, "--test", 3,
            "--seed", 5, "--out", "a.txt")
        run("gen", "--level", 2, "--train", 10, "--val", 1, "--test", 3,
            "--seed", 5, "--out", "b.txt")
        with open("a.txt", "rb") as fa, open("b.txt", "rb") as fb:
            assert fa.read() == fb.read()

    def test_invalid_level_is_usage_error(self, workdir):
        assert run("gen", "--level", 5, "--out", "x.txt") == 1

    def test_unseen_task_variant(self, workdir, capsys):
        assert run("gen", "--level", 1, "--train", 12, "--val", 2, "--test", 4,
                   "--seed", 3, "--variant", "unseen_task", "--out", "ut.txt") == 0
        assert "variant unseen_task" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ["standard", "unseen_object", "unseen_task"])
    def test_codebook_seed_applies_to_every_variant(self, workdir, variant):
        assert run(*GEN, "--seed", 3, "--codebook-seed", 7, "--variant", variant) == 0
        dataset = load_dataset("g.txt")
        assert (dataset.seed, dataset.codebook_seed) == (3, 7)


class TestPipeline:
    @pytest.fixture()
    def fitted_dir(self, workdir):
        run("gen", "--level", 3, "--train", 150, "--val", 10, "--test", 25,
            "--seed", 5, "--out", "data.txt")
        assert run("fit", "--data", "data.txt", "--artifacts", "arts",
                   "--sigma", 0) == 0
        return workdir

    def test_fit_reports_purity(self, workdir, capsys):
        run("gen", "--level", 1, "--train", 40, "--val", 5, "--test", 10,
            "--seed", 2, "--out", "d1.txt")
        assert run("fit", "--data", "d1.txt", "--artifacts", "a1", "--sigma", 0) == 0
        out = capsys.readouterr().out
        assert "purity[color] = 1.0000" in out

    def test_eval_writes_reports(self, fitted_dir, capsys):
        assert run("eval", "--data", "data.txt", "--artifacts", "arts",
                   "--out", "reports", "--jobs", 1, "--compare") == 0
        out = capsys.readouterr().out
        assert "symbolic" in out and "chance" in out and "token" in out
        for name in ("eval_symbolic_summary.txt", "eval_symbolic_tasks.tsv",
                     "eval_chance_summary.txt", "eval_token_summary.txt"):
            assert os.path.exists(os.path.join("reports", name))

    def test_eval_threshold_gate(self, fitted_dir):
        # a one-step budget fails every longer task, so top-1 falls below 100%
        assert run("eval", "--data", "data.txt", "--artifacts", "arts",
                   "--jobs", 1, "--l-max", 1, "--min-top1", 100) == 3

    def test_eval_seed_mismatch(self, fitted_dir):
        run("gen", "--level", 3, "--train", 10, "--val", 2, "--test", 4,
            "--seed", 6, "--out", "other.txt")
        assert run("eval", "--data", "other.txt", "--artifacts", "arts",
                   "--jobs", 1) == 2

    def test_eval_missing_artifacts(self, workdir):
        run("gen", "--level", 1, "--train", 10, "--val", 2, "--test", 4,
            "--seed", 2, "--out", "d.txt")
        assert run("eval", "--data", "d.txt", "--artifacts", "nowhere") == 2

    def test_plan_by_task_id(self, fitted_dir, capsys):
        assert run("plan", "--artifacts", "arts", "--data", "data.txt",
                   "--task-id", "L3-00160") == 0
        out = capsys.readouterr().out
        assert "task L3-00160" in out
        assert "token rollout" in out

    def test_plan_by_task_id_on_unseen_object_task(self, workdir, capsys):
        run("gen", "--level", 1, "--train", 40, "--val", 5, "--test", 10,
            "--seed", 2, "--variant", "unseen_object", "--out", "uo.txt")
        assert run("fit", "--data", "uo.txt", "--artifacts", "uo", "--sigma", 0) == 0
        assert run("plan", "--artifacts", "uo", "--data", "uo.txt",
                   "--task-id", "L1-00050") == 0
        assert "task L1-00050" in capsys.readouterr().out

    def test_plan_adhoc_replays_successfully(self, fitted_dir, capsys):
        assert run("plan", "--artifacts", "arts", "--level", 1,
                   "--init", "0,0,0,0,2,1", "--goal", "0,2,1,0,2,1") == 0
        first = capsys.readouterr().out.splitlines()[1]
        assert "move_right" in first

    def test_plan_empty_for_identical_states(self, fitted_dir, capsys):
        assert run("plan", "--artifacts", "arts", "--level", 1,
                   "--init", "0,1,1,0,2,1", "--goal", "0,1,1,0,2,1") == 0
        assert "(empty plan)" in capsys.readouterr().out

    def test_plan_requires_spec(self, fitted_dir):
        assert run("plan", "--artifacts", "arts") == 1

    # a repeated option takes its last value, so each case overrides the defaults
    @pytest.mark.parametrize("argv", [
        PLAN + ("--init", "0,0,0,45,2,1"),
        PLAN + ("--level", 3),
        PLAN + ("--level", 2, "--obstacles", "0,0", "--init", "0,0,0,0,2,1"),
        PLAN + ("--init", "0,0"),
        PLAN + ("--init", "9,0,0,0,2,1"),
        PLAN + ("--level", 2, "--obstacles", "0"),
        PLAN + ("--level", 3, "--dyer", "1", "--dyer-color", 2),
        PLAN + ("--sigma", -1),
        ("fit", "--data", "data.txt", "--artifacts", "arts2", "--sigma", -1),
        ("eval", "--data", "data.txt", "--artifacts", "arts", "--jobs", 1,
         "--sigma", -1),
        PLAN + ("--topk", 0),
        EVAL + ("--topk", 0),
        EVAL + ("--l-max", -1),
        EVAL + ("--jobs", 0),
        FIT + ("--dim", 1),
        FIT + ("--thresh", 0),
        FIT + ("--thresh", 1),
        FIT + ("--restarts", 0),
        FIT + ("--min-sep", -1),
        FIT + ("--min-sep", 100),
        GEN + ("--train", 0, "--val", 0, "--test", 0),
        GEN + ("--train", -1),
        GEN + ("--variant", "unseen_object", "--unseen-types", 0),
        GEN + ("--seed", -1),
        GEN + ("--codebook-seed", -1),
        FIT + ("--seed", -1),
        PLAN + ("--seed", -1),
        EVAL + ("--seed", -1),
        ("report", "--artifacts", "arts", "--out", "rep", "--seed", -1),
        GEN + ("--level", 3, "--variant", "unseen_task"),
        FIT + ("--data", "notrain.txt"),
        FIT + ("--data", "fivetrain.txt"),
        EVAL + ("--data", "noval.txt", "--split", "val"),
        ("report", "--artifacts", "arts", "--out", "rep", "--samples", 0),
        ("report", "--artifacts", "arts", "--out", "rep", "--samples", -3),
        EVAL + ("--min-top1", "nan"),
        EVAL + ("--min-top1", 150),
        PLAN + ("--sigma", "inf"),
        FIT + ("--sigma", "inf"),
        EVAL + ("--sigma", "inf"),
        FIT + ("--min-sep", "inf"),
        EVAL + ("--sigma", "nan"),
        EVAL + ("--baseline-chance",),
    ], ids=["rotation", "level3-no-dyer", "init-on-obstacle", "short-state",
            "unknown-type", "one-int-obstacle", "one-int-dyer", "plan-negative-sigma",
            "fit-negative-sigma", "eval-negative-sigma", "plan-topk-0", "eval-topk-0",
            "eval-negative-l-max", "eval-jobs-0", "fit-dim-1", "fit-thresh-0",
            "fit-thresh-1", "fit-restarts-0", "fit-negative-min-sep",
            "fit-unachievable-min-sep", "gen-no-tasks", "gen-negative-train",
            "gen-unseen-types-0", "gen-negative-seed", "gen-negative-codebook-seed",
            "fit-negative-seed", "plan-negative-seed", "eval-negative-seed",
            "report-negative-seed", "gen-unseen-task-level-3", "fit-no-training-tasks",
            "fit-too-few-pairs", "eval-empty-split", "report-samples-0",
            "report-negative-samples", "eval-min-top1-nan", "eval-min-top1-150",
            "plan-inf-sigma", "fit-inf-sigma", "eval-inf-sigma", "fit-inf-min-sep",
            "eval-nan-sigma", "eval-baseline-chance"])
    def test_plan_bad_adhoc_input_is_one_line_usage_error(self, fitted_dir, capsys,
                                                          argv):
        for name, options in THIN.items():
            if name in argv:
                assert run(*GEN, *options, "--out", name) == 0
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_fit_without_any_training_action_is_one_line_error(self, workdir, capsys):
        # every training task already at its goal: no transition to count or map
        dataset = generate_dataset(1, (20, 2, 2), seed=3)
        save_dataset("empty.txt", replace(dataset, tasks=[
            replace(t, goal=t.init, gt_actions=()) if t.split == "train" else t
            for t in dataset.tasks]))
        assert run(*FIT, "--data", "empty.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: empty.txt: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("sigma", ["1e160", "1e308"])
    def test_fit_refuses_a_sigma_whose_token_distances_overflow(self, workdir, capsys, sigma):
        # squared token distances overflow a float from ~3e152 (at 1e308 the
        # tokens themselves do), so k-means could not draw its centers
        assert run("gen", "--level", 1, "--train", 40, "--val", 2, "--test", 4,
                   "--seed", 1, "--out", "data.txt") == 0
        assert run("fit", "--data", "data.txt", "--artifacts", "a", "--sigma", "1e150") == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the error line
            assert run("fit", "--data", "data.txt", "--artifacts", "a", "--sigma", sigma) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument --sigma: {float(sigma):g} is too large: ") \
            and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [PLAN, EVAL, EVAL[:-1] + (2,)],
                             ids=["plan", "eval", "eval-jobs-2"])
    def test_plan_and_eval_refuse_a_sigma_whose_token_distances_overflow(
            self, fitted_dir, capsys, argv):
        # at 1e160 every token would snap to symbol 0, the argmin of a row of inf
        assert run(*argv, "--sigma", "1e150") == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the error line
            assert run(*argv, "--sigma", "1e160") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --sigma: 1e+160 is too large: ") \
            and err.count("\n") == 1, err

    def test_eval_refuses_a_fit_sigma_whose_token_distances_overflow(self, fitted_dir, capsys):
        # eval's --sigma defaults to the fit's
        edit_sealed("arts/fit.txt", lambda text: text.replace(" noise_sigma=0.0 ",
                                                              " noise_sigma=1e160 ", 1))
        capsys.readouterr()
        assert run(*EVAL) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --sigma: 1e+160 is too large: ") \
            and err.count("\n") == 1, err

    def test_eval_refuses_a_fit_whose_concept_records_trade_places(self, workdir, capsys):
        # rotation (concept 3) and size (5) have 4 centers each, and a level-2 goal
        # fixes neither: read by position, a fit with their records swapped would
        # still evaluate at top-1 100%
        assert run("gen", "--level", 2, "--train", 200, "--val", 5, "--test", 20,
                   "--seed", 3, "--out", "data.txt") == 0
        assert run("fit", "--data", "data.txt", "--artifacts", "arts", "--sigma", 0) == 0
        edit_sealed("arts/fit.txt", swap_concepts(3, 5))
        capsys.readouterr()
        assert run(*EVAL) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arts/fit.txt: the record of concept 3 reads concept=5 ") \
            and err.count("\n") == 1, err

    # a cut stops at the seal; the other edits are re-sealed to reach the parser
    @pytest.mark.parametrize("name, edit, reseal", [
        ("arts/fit.txt", lambda text: "".join(text.splitlines(True)[:3]), False),
        ("data.txt", lambda text: "".join(text.splitlines(True)[:-50]), False),
        ("arts/fit.txt", lambda text: text.replace("\nA ", "\nA x,", 1), True),
        ("data.txt", lambda text: re.sub(r"init\.x=\d+", "init.x=", text, count=1),
         True),
        ("arts/fit.txt", lambda text: text.replace(" min_sep=1.0 ", " min_sep=100.0 ", 1),
         True),
        ("arts/fit.txt", lambda text: text.replace(" noise_sigma=0.0 ", " noise_sigma=-1.0 ", 1),
         True),
        ("arts/fit.txt", lambda text: text.replace(" noise_sigma=0.0 ", " noise_sigma=nan ", 1),
         True),
        ("arts/fit.txt", lambda text: text.replace(" noise_sigma=0.0 ", " noise_sigma=inf ", 1),
         True),
        ("arts/fit.txt", lambda text: re.sub(r"\nc [^,\n]+,", "\nc nan,", text, count=1), True),
        # a concept short of the codebook's centers, or a fit short of a concept
        ("arts/fit.txt", drop_center(1, 2), True),
        ("arts/fit.txt", drop_last_concept, True),
        # squared distances from the codebook's values to a center overflow a float
        ("arts/fit.txt", lambda text: re.sub(r"\nc [^,\n]+,", "\nc 1e200,", text, count=1), True),
        ("data.txt", onto("init", "dyer"), True),
        ("data.txt", onto("goal", "obstacles"), True),
        # a dataset header that disagrees with its tasks, or tasks that disagree
        ("data.txt", lambda text: text.replace(" level=3 ", " level=4 ", 1), True),
        ("data.txt", lambda text: text.replace(" test=25 ", " test=24 ", 1), True),
        ("data.txt", lambda text: text + text.splitlines(True)[-1], True),
        ("data.txt", lambda text: text.replace("split=test", "split=tset", 1), True),
        ("data.txt", lambda text: text.splitlines(True)[0], True),
    ], ids=["fit-cut-to-3-lines", "dataset-cut-by-50-lines", "maps-bad-float",
            "dataset-empty-field", "unachievable-min-sep-in-fit-header",
            "negative-sigma-in-fit-header", "nan-sigma-in-fit-header",
            "inf-sigma-in-fit-header", "nan-center", "missing-center", "missing-concept",
            "far-center", "init-on-dyer", "goal-on-obstacle",
            "header-level", "header-split-count", "duplicated-task", "unknown-split",
            "no-task"])
    def test_malformed_artifact_is_one_line_artifact_error(self, fitted_dir, capsys,
                                                           name, edit, reseal):
        if reseal:
            edit_sealed(name, edit)
        else:
            with open(name) as fh:
                text = fh.read()
            with open(name, "w") as fh:
                fh.write(edit(text))
        capsys.readouterr()
        assert run(*EVAL) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err

    # the first task's gt plan names an unknown action, or leaves the grid
    @pytest.mark.parametrize("edit", [
        lambda text: re.sub(r"gt_actions=\S+", "gt_actions=jump", text, count=1),
        lambda text: re.sub(r"gt_actions=(\S+)", r"gt_actions=\1" + ",move_left" * 3,
                            text, count=1),
    ], ids=["unknown-action", "off-grid"])
    def test_unreplayable_gt_plan_is_one_line_artifact_error(self, fitted_dir, capsys, edit):
        edit_sealed("data.txt", edit)
        capsys.readouterr()
        assert run(*FIT) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data.txt: ") and err.count("\n") == 1, err
        assert "task L3-00000: " in err

    @pytest.mark.parametrize("argv", [
        EVAL + ("--out", "f"),
        ("report", "--artifacts", "arts", "--out", "f"),
        GEN[:-1] + ("f/x.txt",),
        FIT[:4] + ("f",) + FIT[5:],
        ("eval", "--data", "arts", "--artifacts", "arts", "--jobs", 1),
    ], ids=["eval-out-file", "report-out-file", "gen-out-under-file",
            "fit-artifacts-file", "eval-data-directory"])
    def test_unusable_path_is_one_line_artifact_error(self, fitted_dir, capsys, argv):
        open("f", "w").close()
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_eval_unusable_out_fails_before_planning(self, fitted_dir, capsys,
                                                     monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("eval planned before it checked --out")

        monkeypatch.setattr(cli, "run_experiment", never)
        open("repfile", "w").close()
        capsys.readouterr()
        assert run(*EVAL, "--out", "repfile") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'repfile'" in err

    def test_plan_prints_planner_warnings(self, fitted_dir, capsys):
        # type and size differ, and no action changes them
        assert run("plan", "--artifacts", "arts", "--level", 3, "--dyer", "2,1",
                   "--dyer-color", 1, "--init", "0,0,0,0,2,1",
                   "--goal", "1,1,0,0,2,2") == 0
        out = capsys.readouterr().out
        assert "  warning: init/goal mismatch on unchangeable concept 0\n" in out
        assert "  warning: init/goal mismatch on unchangeable concept 5\n" in out

    def test_report_emits_tables(self, fitted_dir, capsys):
        assert run("report", "--artifacts", "arts", "--out", "rep") == 0
        out = capsys.readouterr().out
        assert "change_color   -> color" in out
        assert os.path.exists("rep/displacement.tsv")
        assert os.path.exists("rep/position_changes.tsv")

    def test_artifact_dir_env_var(self, fitted_dir, monkeypatch, capsys):
        monkeypatch.setenv("BENCHPLAN_ARTIFACTS", "arts")
        assert run("plan", "--level", 1,
                   "--init", "0,0,0,0,2,1", "--goal", "0,1,0,0,2,1") == 0


def test_plan_level3_goal_fixes_no_rotation(tmp_path, level3_run, capsys):
    # the fit of `gen --level 3 --train 300 --seed 7`; a level-3 goal fixes
    # position and color, so one step front reaches a goal turned a quarter
    save_fitted(tmp_path, level3_run[1])
    assert run("plan", "--artifacts", tmp_path, "--level", 3, "--dyer", "2,1",
               "--dyer-color", 1, "--init", "0,0,0,0,2,1", "--goal", "0,0,1,90,2,1") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "task adhoc (level 3, gt length 1)"
    assert out[1].startswith("  1. move_front  [score ")


def test_training_type_past_the_codebook_is_one_line_artifact_error(workdir, capsys):
    # a sealed dataset whose first training task holds type 9 of a codebook's 8
    dataset = generate_dataset(2, (40, 5, 5), seed=11)
    task = dataset.tasks[0]
    retyped = replace(task, init=replace(task.init, type_id=9))
    save_dataset("data.txt", replace(dataset, tasks=[retyped, *dataset.tasks[1:]]))
    assert run(*FIT) == 2
    assert capsys.readouterr().err == ("error: data.txt: task L2-00000: type value 9 "
                                       "outside codebook (cardinality 8)\n")


@pytest.mark.parametrize("value, message", [
    (0, "must be >= 1, got 0"),
    ("abc", "invalid int value: 'abc'"),
])
def test_option_error_names_the_bound_or_the_type(workdir, capsys, value, message):
    assert run(*PLAN, "--topk", value) == 1
    assert capsys.readouterr().err == f"error: argument --topk: {message}\n"


# test task L2-00062's gt plan loses its last step (it still replays) or takes
# four extra back-and-forth pairs; L2-00063's walks off the grid first
@pytest.mark.parametrize("edits, message", [
    ({"L2-00062": lambda gt: gt[:-1], "L2-00063": lambda gt: ("move_left",) * 3 + gt},
     "task L2-00062: gt plan does not reach its goal"),
    ({"L2-00062": lambda gt: gt + ("move_left", "move_right") * 4},
     "task L2-00062: gt plan longer than 9 steps"),
], ids=["misses-goal", "too-long"])
def test_gt_plan_off_its_goal_is_one_line_artifact_error(workdir, capsys, edits, message):
    dataset = generate_dataset(2, (60, 2, 6), seed=4)
    save_dataset("data.txt", dataset)
    assert run("fit", "--data", "data.txt", "--artifacts", "arts", "--sigma", 0) == 0
    save_dataset("data.txt", replace(dataset, tasks=[
        replace(t, gt_actions=edits[t.task_id](t.gt_actions)) if t.task_id in edits else t
        for t in dataset.tasks]))
    capsys.readouterr()
    assert run(*EVAL) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data.txt: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("argv", [
    ("eval", "--data", "uo.txt", "--artifacts", "uo", "--jobs", 1),
    ("plan", "--data", "uo.txt", "--artifacts", "uo", "--task-id", "L1-00062"),
], ids=["eval", "plan"])
def test_held_out_types_past_the_fit_are_one_line_artifact_error(workdir, capsys, argv):
    # 60 held-out types: more type centroids than a dim-2 fit can place
    assert run("gen", "--level", 1, "--train", 60, "--val", 2, "--test", 4, "--seed", 1,
               "--variant", "unseen_object", "--unseen-types", 60, "--out", "uo.txt") == 0
    assert run("fit", "--data", "uo.txt", "--artifacts", "uo", "--dim", 2,
               "--sigma", 0) == 0
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: uo.txt: ") and err.count("\n") == 1, err


class TestThinFit:
    """A level-3 fit on 40 training tasks, too few for most change_color maps."""

    @pytest.fixture()
    def fit_out(self, workdir, capsys):
        assert run("gen", "--level", 3, "--train", 40, "--val", 0, "--test", 20,
                   "--seed", 1, "--out", "data.txt") == 0
        assert run("fit", "--data", "data.txt", "--artifacts", "arts",
                   "--sigma", 0) == 0
        return capsys.readouterr().out

    def test_fit_names_keys_without_token_map(self, fit_out):
        assert ("  no token map (fewer than 8 pairs): change_color@0 (5), "
                "change_color@1 (2), change_color@2 (2), change_color@3 (5), "
                "change_color@4 (4)\n") in fit_out

    def test_plan_rollout_names_unmapped_key(self, fit_out, capsys):
        assert run("plan", "--artifacts", "arts", "--data", "data.txt",
                   "--task-id", "L3-00048") == 0
        out = capsys.readouterr().out
        assert "change_color@4" in out.splitlines()[1]
        assert out.endswith(
            "token rollout: step 2: no fitted map for 'change_color@4'\n")


# every subcommand's option strings with their defaults, BENCHPLAN_ARTIFACTS unset
PARSER_PIN = {
    "gen": {"--level": None, "--train": 800, "--val": 100, "--test": 100, "--seed": 0,
            "--codebook-seed": None, "--variant": "standard", "--unseen-types": 4,
            "--out": None},
    "fit": {"--data": None, "--artifacts": "artifacts", "--dim": 8, "--min-sep": 1.0,
            "--sigma": 0.1, "--thresh": 0.01, "--seed": 0, "--restarts": 10},
    "plan": {"--artifacts": "artifacts", "--data": None, "--task-id": None, "--level": 1,
             "--init": None, "--goal": None, "--obstacles": None, "--dyer": None,
             "--dyer-color": None, "--sigma": 0.0, "--topk": 5, "--l-max": None,
             "--seed": 0},
    "eval": {"--data": None, "--artifacts": "artifacts", "--out": "reports", "--split": "test",
             "--sigma": None, "--topk": 5, "--l-max": None, "--seed": 0,
             "--jobs": os.cpu_count() or 1, "--compare": False, "--min-top1": None},
    "report": {"--artifacts": "artifacts", "--out": "reports", "--samples": 200, "--seed": 0},
}


def test_parser_declares_pinned_options_and_defaults(monkeypatch):
    monkeypatch.delenv("BENCHPLAN_ARTIFACTS", raising=False)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: {opt: action.default for action in p._actions
                   for opt in action.option_strings if action.dest != "help"}
            for name, p in sub.choices.items()} == PARSER_PIN


class TestTopLevelUsage:
    def test_no_command(self, workdir):
        assert run() == 1

    def test_unknown_command(self, workdir):
        assert run("frobnicate") == 1
