import hashlib
import os
import re
import shutil

import numpy as np
import pytest

from _cli import run_cli
from _oracles import oracle_dataset_text, oracle_vec
from _sealing import drop_center, drop_last_concept, edit_sealed
from benchplan.artifacts import (
    FIT_FILE,
    MissingArtifact,
    SchemaMismatch,
    _vec,
    check_compatible,
    load_dataset,
    load_fitted,
    report_records_tsv,
    report_summary,
    save_dataset,
    save_fitted,
    save_report,
)
from benchplan.evaluate import run_experiment
from benchplan.fitting import FIT_SETTINGS, MAX_DIM, FitConfig, fit_pipeline
from benchplan.streams import SEED_BOUND
from benchplan.taskgen import (
    Dataset,
    Task,
    generate_dataset,
    make_unseen_object_split,
    make_unseen_task_split,
    oracle_shortest_plan,
)
from benchplan.workbench import N_TYPES, EnvConfig, ObjectState


def datasets_equal(a, b):
    return (a.level, a.seed, a.codebook_seed, a.split_sizes, a.variant,
            a.tasks) == (b.level, b.seed, b.codebook_seed, b.split_sizes,
                         b.variant, b.tasks)


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(3, (20, 3, 6), seed=13)
        path = tmp_path / "d.txt"
        save_dataset(path, ds)
        assert datasets_equal(load_dataset(path), ds)

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for ds in (generate_dataset(4, (15, 2, 4), seed=13),
                   make_unseen_object_split(generate_dataset(3, (15, 2, 4), seed=13), {N_TYPES}),
                   make_unseen_task_split(2, (15, 2, 4), seed=13)):
            save_dataset(a, ds)
            save_dataset(b, load_dataset(a))
            assert a.read_bytes() == b.read_bytes(), ds.variant

    def test_writer_equals_frozen_writer(self, tmp_path):
        # what the byte pins never reach: level 1 (no obstacle, no dyer), a
        # dyer at (0, 0) of color 0, an empty gt plan, and held-out types >= 8
        corner = EnvConfig(3, ((1, 1), (2, 4)), (0, 0), 0)
        init = ObjectState(2, 0, 1, 90, 3, 1)
        goal = ObjectState(2, 1, 0, 90, 0, 1)
        by_hand = Dataset(tasks=[
            Task(corner, init, init, (), "L3-00000", "train"),
            Task(corner, init, goal, oracle_shortest_plan(corner, init, goal), "L3-00001", "test"),
        ], seed=0, codebook_seed=7)
        unseen = make_unseen_object_split(generate_dataset(4, (6, 1, 6), seed=13),
                                          {N_TYPES, N_TYPES + 3, 40})
        path = tmp_path / "d.txt"
        for ds, shows in ((generate_dataset(1, (6, 1, 2), seed=13), "obstacles=- dyer=- "),
                          (by_hand, "dyer=0,0 dyer_color=0 "), (by_hand, "gt_actions=-\n"),
                          (unseen, "init.type=40 ")):
            save_dataset(path, ds)
            text = path.read_text()
            assert text[:text.rindex("sha256=")] == oracle_dataset_text(ds), ds.variant
            assert shows in text

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifact):
            load_dataset(tmp_path / "absent.txt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("#something-else v9 level=1\n")
        with pytest.raises(SchemaMismatch):
            load_dataset(path)

    def test_ends_in_seal_over_all_bytes_above(self, tmp_path):
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(2, (4, 1, 1), seed=13))
        body, _, seal = path.read_bytes().rpartition(b"sha256=")
        assert body.startswith(b"#workbench-dataset v2 ") and body.endswith(b"\n")
        assert seal == hashlib.sha256(body).hexdigest().encode() + b"\n"

    @pytest.mark.parametrize("level, field, value, error", [
        (2, "init.x", "", "invalid literal for int"),
        (2, "init.x", "9", r"position \(9,\d\) off the grid"),
        (2, "goal.rot", "45", "rotation 45 not a multiple of 90"),
        (2, "obstacles", "1", "a cell needs 2 comma-separated ints"),
        (2, "gt_actions", "jump", "unknown action in gt_actions=jump"),
        (2, "dyer", "1,1", "level 2 admits no dyer"),
        (4, "dyer", "-", "level 4 requires a dyer"),
        (4, "dyer", "3,0", r"dyer \(3, 0\) off the grid"),
        (4, "dyer_color", "-", "a dyer needs a color in 0..5"),
        (4, "dyer_color", "6", "a dyer needs a color in 0..5"),
        (3, "split", None, "missing field split"),
        (3, "goal.x", None, "missing field goal.x"),
        (3, "task_id", None, "missing field task_id"),
    ], ids=["empty", "off-grid", "bad-rotation", "one-int-cell", "unknown-action",
            "dyer-at-level-2", "no-dyer", "dyer-off-grid", "no-dyer-color", "dyer-color-6",
            "no-split", "no-goal-x", "no-task-id"])
    def test_malformed_task_is_schema_mismatch(self, tmp_path, level, field, value, error):
        # the refusal is one line that names the file and the task; a value of
        # None renames the field away, and a task with no id is named by its place
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(level, (4, 1, 1), seed=13))
        edit = ((rf"\b{re.escape(field)}=", f"{field}_=") if value is None
                else (rf"\b{re.escape(field)}=\S*", f"{field}={value}"))
        edit_sealed(path, lambda text: re.sub(*edit, text, count=1))
        task = "record 1" if field == "task_id" else f"L{level}-00000"
        with pytest.raises(SchemaMismatch, match=rf"d\.txt: task {task}: {error}") as caught:
            load_dataset(path)
        assert "\n" not in str(caught.value)

    def test_unsealed_edit_is_schema_mismatch(self, tmp_path):
        # a valid value that the parser would accept; only the seal rejects it
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(2, (4, 1, 1), seed=13))
        text = path.read_text()
        edited = re.sub(r"init\.x=(\d)", lambda m: f"init.x={1 - int(m[1]) % 2}",
                        text, count=1)
        assert edited != text
        path.write_text(edited)
        with pytest.raises(SchemaMismatch, match="d.txt: sha256"):
            load_dataset(path)

    def test_truncation_is_schema_mismatch(self, tmp_path):
        # every line-boundary cut, including the cuts between two tasks
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(2, (4, 1, 1), seed=13))
        lines = path.read_text().splitlines(keepends=True)
        for n in range(len(lines)):
            path.write_text("".join(lines[:n]))
            with pytest.raises(SchemaMismatch, match="d.txt"):
                load_dataset(path)


def test_vec_equals_frozen_writer():
    # signed zeros, the least subnormal, extremes, and whole numbers as floats
    rows = ([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308],
            [1.0, -3.0, 2.0 ** 53, 1e16, 123456789.0, 0.1, 1 / 3, 2.5e-8])
    for row in rows:
        assert _vec(np.array(row)) == oracle_vec(row) == oracle_vec(np.array(row))


class TestFittedArtifacts:
    def test_round_trip(self, tmp_path, level3_run):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        assert os.listdir(tmp_path) == [FIT_FILE]
        loaded = load_fitted(tmp_path)
        assert loaded.config == fitted.config
        assert loaded.codebook.seed == fitted.codebook.seed
        assert loaded.train_purity == fitted.train_purity
        for a, b in zip(loaded.symbolizer.centers, fitted.symbolizer.centers):
            assert np.array_equal(a, b)
        assert (loaded.symbolizer.inertia, loaded.symbolizer.iterations) == \
            (fitted.symbolizer.inertia, fitted.symbolizer.iterations)
        assert loaded.model.cardinalities == fitted.model.cardinalities
        assert loaded.model.action_keys == fitted.model.action_keys
        assert loaded.model.base_actions == fitted.model.base_actions
        for key in fitted.model.action_keys:
            for a, b in zip(loaded.model.counts[key], fitted.model.counts[key]):
                assert np.array_equal(a, b)
        for a, b in zip(loaded.model.occurrences, fitted.model.occurrences):
            assert np.array_equal(a, b)
        assert loaded.maps.action_keys == fitted.maps.action_keys
        for key in fitted.maps.action_keys:
            assert np.array_equal(loaded.maps.matrices[key],
                                  fitted.maps.matrices[key])
            assert np.array_equal(loaded.maps.offsets[key],
                                  fitted.maps.offsets[key])
        assert loaded.maps.residual_mse == fitted.maps.residual_mse
        assert loaded.value_maps == fitted.value_maps

    def test_writes_nothing_the_loader_derives(self, tmp_path, level3_run):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        text = (tmp_path / FIT_FILE).read_text()
        assert not re.search(r"\b(cardinalities|actions|base_actions|k|sym_seed|pairs)=",
                             text)
        assert not re.search(r"^m ", text, re.MULTILINE)

    def test_reads_v2_files_with_derived_fields(self, tmp_path, level1_run):
        # v2 files written before sym_seed= and pairs= were dropped still load,
        # to the fit they were written from
        _, fitted = level1_run
        save_fitted(tmp_path / "one", fitted)
        edit_sealed(tmp_path / "one" / FIT_FILE, lambda text: re.sub(
            r"^action=(\S+)",
            lambda m: f"action={m[1]} pairs={fitted.model.counts[m[1]][0].sum()}",
            text.replace("\npurity=", "\nsym_seed=0 purity=", 1), flags=re.MULTILINE))
        save_fitted(tmp_path / "two", load_fitted(tmp_path / "one"))
        save_fitted(tmp_path / "three", fitted)
        assert (tmp_path / "two" / FIT_FILE).read_bytes() == \
            (tmp_path / "three" / FIT_FILE).read_bytes()

    def test_missing_fit_file(self, tmp_path):
        with pytest.raises(MissingArtifact, match=FIT_FILE):
            load_fitted(tmp_path)

    def test_planning_behaviour_survives_round_trip(self, tmp_path, level3_run):
        dataset, fitted = level3_run
        save_fitted(tmp_path, fitted)
        loaded = load_fitted(tmp_path)
        assert run_experiment(dataset, loaded, noise_sigma=0.0) == \
            run_experiment(dataset, fitted, noise_sigma=0.0)

    def test_rewrite_is_byte_identical(self, tmp_path, level3_run):
        _, fitted = level3_run
        first, second = tmp_path / "one", tmp_path / "two"
        save_fitted(first, fitted)
        save_fitted(second, load_fitted(first))
        assert (first / FIT_FILE).read_bytes() == (second / FIT_FILE).read_bytes()

    def test_seed_disagreement_detected(self, tmp_path, level3_run):
        # a header edit breaks the seal
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        text = (tmp_path / FIT_FILE).read_text()
        assert "codebook_seed=7" in text
        (tmp_path / FIT_FILE).write_text(text.replace("codebook_seed=7",
                                                      "codebook_seed=8"))
        with pytest.raises(SchemaMismatch, match=f"{FIT_FILE}: sha256"):
            load_fitted(tmp_path)

    @pytest.mark.parametrize("pattern", [r"\nA -?\d\.(\d)", r"thresh=0\.0(\d)"],
                             ids=["A-float", "thresh"])
    def test_one_character_edit_breaks_the_seal(self, tmp_path, level1_run, pattern):
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        text = (tmp_path / FIT_FILE).read_text()
        at = re.search(pattern, text).start(1)
        flipped = str((int(text[at]) + 1) % 10)
        (tmp_path / FIT_FILE).write_text(text[:at] + flipped + text[at + 1:])
        with pytest.raises(SchemaMismatch, match=f"{FIT_FILE}: sha256"):
            load_fitted(tmp_path)

    @pytest.mark.parametrize("part", ["symbolizer", "model", "maps"],
                             ids=lambda part: f"{part}.txt")
    def test_truncation_is_schema_mismatch(self, tmp_path, level1_run, part):
        # every line-boundary cut that falls in one part of the fit file; the
        # three parts together cover every cut, including the cuts between two
        # map sections. The ids keep the names the parts had as files of their own
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        lines = (tmp_path / FIT_FILE).read_text().splitlines(keepends=True)
        model = lines.index("model=counts\n")
        maps = next(n for n, line in enumerate(lines) if line.startswith("action="))
        cuts = {"symbolizer": range(model), "model": range(model, maps),
                "maps": range(maps, len(lines))}[part]
        assert len(cuts) > 1
        for n in cuts:
            (tmp_path / FIT_FILE).write_text("".join(lines[:n]))
            with pytest.raises(SchemaMismatch, match=FIT_FILE):
                load_fitted(tmp_path)

    @pytest.mark.parametrize("old, new", [
        ("\nn ", "\nq "),
        ("\nA ", "\nA x,"),
        ("\nb ", "\nb 1.0,"),
        (" min_sep=1.0 ", " min_sep=100.0 "),
    ], ids=["unknown-tag", "bad-float", "long-b", "unachievable-min-sep"])
    def test_malformed_record_is_schema_mismatch(self, tmp_path, level1_run, old, new):
        # re-sealed, so that the edit reaches the parser
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        edit_sealed(tmp_path / FIT_FILE, lambda text: text.replace(old, new, 1))
        with pytest.raises(SchemaMismatch, match=FIT_FILE) as err:
            load_fitted(tmp_path)
        assert "sha256" not in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        (drop_center(1, 2), "concept 1 needs 3 rows of 8 values"),
        (drop_center(0, 0), "concept 0 needs 8 rows of 8 values"),
        (drop_last_concept, "concept 5 needs 4 rows of 8 values"),
        (lambda text: re.sub(r"^(purity=.*),[^,\n]*$", r"\1", text, count=1, flags=re.M),
         "purity needs 6 values, got 5"),
        # records in the wrong place (test_cli swaps two concepts' records): the
        # first map record ahead of the counts, a concept record after the maps
        (lambda text: re.sub(r"(model=counts\n(?:n .*\n)*)(action=.*\n(?:[Ab] .*\n)*)",
                             r"\2\1", text, count=1),
         r"the counts record reads action=move_\w+ mse=\S+"),
        (lambda text: text + re.search(r"^concept=5 .*\n(?:c .*\n)*", text, re.M)[0],
         r"a map record reads concept=5 inertia=\S+ iterations=1"),
    ], ids=["missing-center", "missing-first-center", "missing-concept", "short-purity",
            "map-before-counts", "concept-after-maps"])
    def test_concepts_follow_the_codebook(self, tmp_path, level1_run, edit, message):
        # each concept has a record, in its place, and as many centers as the
        # codebook has values
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        edit_sealed(tmp_path / FIT_FILE, edit)
        with pytest.raises(SchemaMismatch, match=f"{FIT_FILE}: {message}$"):
            load_fitted(tmp_path)

    # one count row of move_front on pos_x (3 symbols): source symbol -1, a
    # source symbol equal to the cardinality, concept 6, and a count of 0
    @pytest.mark.parametrize("row", [
        "n move_front 1 -1 0 {n}", "n move_front 1 3 0 {n}", "n move_front 6 0 0 {n}",
        "n move_front 1 0 0 0",
    ], ids=["symbol-minus-1", "symbol-cardinality", "concept-6", "count-0"])
    def test_count_row_out_of_range_is_schema_mismatch(self, tmp_path, level3_run, row):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        n = fitted.model.counts["move_front"][1][0, 0]
        assert n > 0
        edit_sealed(tmp_path / FIT_FILE, lambda text: text.replace(
            f"\nn move_front 1 0 0 {n}\n", "\n" + row.format(n=n) + "\n", 1))
        with pytest.raises(SchemaMismatch, match=f"{FIT_FILE}: count row"):
            load_fitted(tmp_path)

    def test_check_compatible(self, level3_run):
        dataset, fitted = level3_run
        check_compatible(dataset, fitted)
        other = generate_dataset(3, (5, 1, 2), seed=99)
        with pytest.raises(SchemaMismatch):
            check_compatible(other, fitted)


class TestReports:
    def test_summary_and_records(self, tmp_path, level1_run):
        dataset, fitted = level1_run
        report = run_experiment(dataset, fitted, noise_sigma=0.0)
        text = report_summary(report, {"seed": 0})
        assert "asacc_top1=100.0" in text
        tsv = report_records_tsv(report)
        assert len(tsv.splitlines()) == report.n_tasks + 1
        save_report(tmp_path, report, {"seed": 0})
        assert os.path.exists(tmp_path / "eval_symbolic_summary.txt")
        assert os.path.exists(tmp_path / "eval_symbolic_tasks.tsv")

    def test_absent_ase_serialized(self, level1_run):
        dataset, fitted = level1_run
        report = run_experiment(dataset, fitted, planner="chance", seed=5)
        if report.ase is None:
            assert "ase=absent" in report_summary(report, {})


# sha256 of fit.txt for (80, 5, 5)-task datasets at seed 11. Every fit digest in
# this file was re-derived when k-means came to seed by greedy k-means++ with 6
# restarts: the header's `restarts=` and some concepts' `iterations=` moved, and
# no center or count. A new digest here is a change to the fit's arithmetic or
# to its input and must be declared.
PINNED_FITS = {
    (3, 0.0): "9824457ad7ac825ddba5ba66cac7552d2e4e44606371466c4109b2e17bfee7c8",
    (3, 0.2): "3b53fae23bd9ac4c699c9103a342ad8e05addc84983c8b49f0219e4b42cd20f7",
    (4, 0.0): "929fd4d3203a7f8d8d5fa98457477cc6d51aad5f4e81b432631ac5624671fa9c",
    (4, 0.2): "689343a29ace4e9ba71db76f54bda465e5a92ff70dfe9faf4ed0dd9c968d39c0",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_FITS))
def test_fit_bytes_are_pinned(tmp_path, level, sigma):
    fitted = fit_pipeline(generate_dataset(level, (80, 5, 5), 11), FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_FITS[level, sigma]


# sha256 of fit.txt for the benchmark's own input, the level-4 800/100/100-task
# dataset at seed 11, re-derived as above
PINNED_BENCHMARK_FITS = {
    0.0: "7461b5143087df2c66fe7685e68cf88937b6849a9b37062bdd4f9d311310bfb5",
    0.2: "ee98b71e8c57cad8e88313eaf7000df1b12e2486079f57d4413423d299df3905",
}


@pytest.mark.parametrize("sigma", sorted(PINNED_BENCHMARK_FITS))
def test_benchmark_fit_bytes_are_pinned(tmp_path, sigma):
    fitted = fit_pipeline(generate_dataset(4, (800, 100, 100), 11), FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_BENCHMARK_FITS[sigma]


# sha256 of fit.txt for the desk datasets at levels 1-3 (level 4 is the
# benchmark's, above), seed 11, 800/100/100 tasks, re-derived as above
PINNED_DESK_FITS = {
    (1, 0.0): "f88df12310e3c3096deb60209f20e9debfe7c78731c259fba1d775e05a60f305",
    (1, 0.2): "114436c1adab3825d43d11d8eff60049ed2b5b20376f43522164baf065b5ad55",
    (2, 0.0): "44d25c388932c6adfa4f33dd979cc1608e42239702b9dd53ba65178a59f42cd8",
    (2, 0.2): "e07626d97f216f4e5d2c0c101781ad0015d0caf46a051b2e8819cc331402f205",
    (3, 0.0): "2020f41013bc8e535a30777fcaa6988fdc8d0eddf024eaa52b74003d066833d9",
    (3, 0.2): "77780e36394acb08fa219e5a23b62cd5adc66c59358cd5a33af5f8f6b52dfa33",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_DESK_FITS))
def test_desk_fit_bytes_are_pinned(tmp_path, level, sigma):
    fitted = fit_pipeline(generate_dataset(level, (800, 100, 100), 11),
                          FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_DESK_FITS[level, sigma]


@pytest.fixture(scope="module")
def sealed_files(tmp_path_factory):
    """A level-3 dataset of 44 tasks (dataset seed 1, codebook seed 1) written by
    `gen`, and its noiseless fit (fit seed 0) written by `fit`."""
    root = tmp_path_factory.mktemp("refusals")
    data, fit = root / "d.txt", root / "fit"
    assert run_cli(["gen", "--level", 3, "--train", 40, "--val", 1, "--test", 3, "--seed", 1,
                    "--out", data])[0] == 0
    assert run_cli(["fit", "--data", data, "--artifacts", fit, "--sigma", 0])[0] == 0
    return data, fit


def _sub(pattern, new):
    return lambda text: re.sub(pattern, new, text, count=1, flags=re.M)


# each edit of a dataset, read by `fit`, or of a fit, read by `eval`, and the
# refusal that names the field, key or record it read
@pytest.mark.parametrize("file, edit, message", [
    ("data", _sub(" seed=1 ", " "), "missing field seed"),
    ("data", _sub(" level=3 ", " "), "missing field level"),
    ("data", _sub(" test=3 ", " "), "missing field test"),
    ("data", _sub(" variant=standard", ""), "missing field variant"),
    ("data", _sub(" variant=standard", " variant=bogus"),
     "variant=bogus is not standard/unseen_object/unseen_task"),
    ("data", _sub(" split=", " stray split="),
     "'stray' is not key=value, in the line that starts task_id=L3-00000"),
    ("data", _sub(" seed=1 ", " seed=-1 "), f"seed must be in 0..{SEED_BOUND - 1}, got -1"),
    ("data", _sub(" codebook_seed=1 ", " codebook_seed=-1 "),
     f"codebook_seed must be in 0..{SEED_BOUND - 1}, got -1"),
    ("fit", _sub(" dim=8 ", " "), "missing field dim"),
    ("fit", _sub(" dim=8 ", f" dim={MAX_DIM + 1} "),
     f"dim must be in 2..{MAX_DIM}, got {MAX_DIM + 1}"),
    ("fit", _sub(" codebook_seed=1$", ""), "missing field codebook_seed"),
    ("fit", _sub(" fit_seed=0 ", " fit_seed=-1 "),
     f"fit_seed must be in 0..{SEED_BOUND - 1}, got -1"),
    ("fit", _sub(" fit_seed=0 ", f" fit_seed={SEED_BOUND} "),
     f"fit_seed must be in 0..{SEED_BOUND - 1}, got {SEED_BOUND}"),
    ("fit", _sub(" codebook_seed=1$", " codebook_seed=-1"),
     f"codebook_seed must be in 0..{SEED_BOUND - 1}, got -1"),
    ("fit", _sub(r"^purity=.*\n", ""), "missing field purity"),
    ("fit", _sub(r"^(purity=.*)$", r"\1 stray=1\nc 1.0,2.0"), "row 'c' under the purity record"),
    ("fit", _sub(r" inertia=\S+", ""), "missing field inertia"),
    ("fit", _sub(r" mse=\S+", ""), "missing field mse"),
    ("fit", _sub(r"^(c .*),[^,\n]*$", r"\1"), "concept 0 needs 8 values, got 7"),
    ("fit", _sub(r"^(A .*),[^,\n]*$", r"\1"), "action move_front needs 48 values, got 47"),
    ("fit", _sub("^c ", "c stray "),
     "concept 0 has a row of 3 words that starts c stray, not c <values>"),
    ("fit", _sub(r"^(n move_front 0 0 0) \d+$", r"\1"),
     "count row n move_front 0 0 0 is not n <key> <concept> <from> <to> <count>"),
    ("fit", lambda text: text.splitlines(True)[0], "0 records, short of the counts record"),
    ("fit", lambda text: text[:text.index("model=counts")], "7 records, short of the counts record"),
    ("fit", _sub("^n move_front ", "n move_jump "),
     "'move_jump' is not an action key, as `action_key` gives them"),
    ("fit", _sub("^n move_front ", "n change_color@x "),
     "'change_color@x' is not an action key, as `action_key` gives them"),
    ("fit", _sub("^action=move_front ", "action=move_front@3 "),
     "'move_front@3' is not an action key, as `action_key` gives them"),
    ("fit", _sub(" codebook_seed=1$", " codebook_seed=1 stray=1"),
     "the header has an unknown field stray"),
    ("fit", _sub(r"^(purity=.*)$", r"\1 stray=1"), "the purity record has an unknown field stray"),
    ("fit", _sub(r"^(concept=0 .*)$", r"\1 stray=1"),
     "the record of concept 0 has an unknown field stray"),
    ("fit", _sub(r"^(action=move_front .*)$", r"\1 stray=1"),
     "the record of action move_front has an unknown field stray"),
], ids=["header-no-seed", "header-no-level", "header-no-test", "header-no-variant",
        "header-unknown-variant", "task-stray-word", "negative-seed", "negative-codebook-seed",
        "fit-no-dim",
        "fit-dim-past-cap", "fit-no-codebook-seed", "fit-negative-fit-seed",
        "fit-fit-seed-past-bound", "fit-negative-codebook-seed", "no-purity",
        "rows-under-purity", "concept-no-inertia", "map-no-mse", "short-c-row", "short-A-row",
        "c-row-stray-word", "count-row-of-5", "no-records", "no-counts-record",
        "count-key-move_jump", "count-key-change_color@x", "map-key-move_front@3",
        "header-stray-field", "purity-stray-field", "concept-stray-field", "map-stray-field"])
def test_refusal_names_what_it_read(sealed_files, tmp_path, file, edit, message):
    data, fit = sealed_files
    if file == "data":
        path = tmp_path / "d.txt"
        shutil.copyfile(data, path)
        argv = ["fit", "--data", path, "--artifacts", tmp_path / "fit", "--sigma", 0]
    else:
        shutil.copytree(fit, tmp_path / "fit")
        path = tmp_path / "fit" / FIT_FILE
        argv = ["eval", "--data", data, "--artifacts", path.parent, "--out", tmp_path, "--jobs", 1]
    edit_sealed(path, edit)
    assert run_cli(argv) == (2, f"error: {path}: {message}\n")


# one value past each fit setting's bound, and the rule that refuses it
PAST_BOUND = {"dim": (MAX_DIM + 1, f"in 2..{MAX_DIM}"), "min_sep": (-1.0, "finite and >= 0"),
              "noise_sigma": (-0.5, "finite and >= 0"), "thresh": (1.0, "in (0, 1)"),
              "seed": (-1, f"in 0..{SEED_BOUND - 1}"), "restarts": (0, ">= 1")}


@pytest.mark.parametrize("name", FIT_SETTINGS)
def test_each_fit_setting_is_refused_alike_by_the_api_the_cli_and_the_fit_file(
        sealed_files, tmp_path, name):
    """`FitConfig`, `fit <option>` while parsing, and a resealed fit header
    refuse one value past the setting's bound by its one rule."""
    assert PAST_BOUND.keys() == FIT_SETTINGS.keys()
    (key, option, _), (value, rule) = FIT_SETTINGS[name], PAST_BOUND[name]
    with pytest.raises(ValueError, match=re.escape(f"{key} must be {rule}, got {value}")):
        FitConfig(**{name: value})

    data, fit = sealed_files
    assert run_cli(["fit", "--data", data, "--artifacts", tmp_path / "refit", option, value]) \
        == (1, f"error: argument {option}: must be {rule}, got {value}\n")
    assert not (tmp_path / "refit").exists()

    shutil.copytree(fit, tmp_path / "fit")
    path = tmp_path / "fit" / FIT_FILE
    edit_sealed(path, _sub(rf" {key}=\S+", f" {key}={value}"))
    with pytest.raises(SchemaMismatch) as refused:
        load_fitted(path.parent)
    assert str(refused.value) == f"{path}: {key} must be {rule}, got {value}"
