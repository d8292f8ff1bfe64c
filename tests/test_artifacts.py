import hashlib
import os
import re

import numpy as np
import pytest

from _sealing import drop_center, drop_last_concept, edit_sealed
from benchplan.artifacts import (
    FIT_FILE,
    MissingArtifact,
    SchemaMismatch,
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
from benchplan.fitting import FitConfig, fit_pipeline
from benchplan.taskgen import generate_dataset, make_unseen_object_split, make_unseen_task_split
from benchplan.workbench import N_TYPES


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

    @pytest.mark.parametrize("field, value", [
        ("init.x", ""), ("init.x", "9"), ("goal.rot", "45"), ("obstacles", "1"),
        ("gt_actions", "jump"),
    ], ids=["empty", "off-grid", "bad-rotation", "one-int-cell", "unknown-action"])
    def test_malformed_task_is_schema_mismatch(self, tmp_path, field, value):
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(2, (4, 1, 1), seed=13))
        edit_sealed(path, lambda text: re.sub(rf"{re.escape(field)}=\S*",
                                              f"{field}={value}", text, count=1))
        with pytest.raises(SchemaMismatch, match="d.txt"):
            load_dataset(path)

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


class TestFittedArtifacts:
    def test_round_trip(self, tmp_path, level3_run):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        assert os.listdir(tmp_path) == [FIT_FILE]
        loaded = load_fitted(tmp_path)
        assert loaded.config == fitted.config
        assert loaded.codebook_seed == fitted.codebook_seed
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


# sha256 of fit.txt for (80, 5, 5)-task datasets at seed 11, as written before
# k-means assigned points by matmul and fit_pipeline symbolized in one batch.
# A new digest here is a change to the fit's arithmetic and must be declared.
PINNED_FITS = {
    (3, 0.0): "fddfe8b74013ad174a902c232935dc397b3ca2fceb2a1d7b6e9b1f074c21ce82",
    (3, 0.2): "257efaf35d12f288d8ebd4cdd05c45282148e99fe13d93a803b85b1889ec214f",
    (4, 0.0): "c2e03893f98c84a141047c09a1b3045ee9d496d1883417c5ae9fb323d3f5cd7a",
    (4, 0.2): "7aa3ca8424fd31367a2c5191bb7c318b269271b232b7362e91605568f7d3f276",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_FITS))
def test_fit_bytes_are_pinned(tmp_path, level, sigma):
    fitted = fit_pipeline(generate_dataset(level, (80, 5, 5), 11), FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_FITS[level, sigma]


# sha256 of fit.txt for the benchmark's own input, the level-4 800/100/100-task
# dataset at seed 11, as written before the fit encoded each trajectory in one
# batch and k-means reused the last assignment of centers that did not move
PINNED_BENCHMARK_FITS = {
    0.0: "3e2482cc3b04b984a0b11bd71d3a0023e2eaf1b1b9b55d2c1f180f9053727958",
    0.2: "4e3387f97dd591f524c3194b17bce2ac5c88e801955dac82558c4aa8cf186f0e",
}


@pytest.mark.parametrize("sigma", sorted(PINNED_BENCHMARK_FITS))
def test_benchmark_fit_bytes_are_pinned(tmp_path, sigma):
    fitted = fit_pipeline(generate_dataset(4, (800, 100, 100), 11), FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_BENCHMARK_FITS[sigma]


# sha256 of fit.txt for the desk datasets at levels 1-3 (level 4 is the
# benchmark's, above), seed 11, 800/100/100 tasks, as written before the fit
# read the training split as one token stack with a key id per row
PINNED_DESK_FITS = {
    (1, 0.0): "ec4161001436c5f6e952216b232753f88ac8cc4ca4a760d5f698e1cfae57313f",
    (1, 0.2): "c492f5422bcb90afb78b08646bae5d371999e41872cb8d4d872c077d0cec7027",
    (2, 0.0): "11ad8a8bc540bfe767a5061633b89f090ef393b01731abfcb8d10dda1a37abc0",
    (2, 0.2): "f8425fc6cb14d43d1188f08b9f60086708bb4104fcb99327a2206b09afd9b620",
    (3, 0.0): "90b181d9b889ef0ab7da5f99cd0732e063dede08ec7294cf793642717dc6819d",
    (3, 0.2): "5a245c4d06741896971101f61df77334293a1396f91db696614e019e3897bab8",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_DESK_FITS))
def test_desk_fit_bytes_are_pinned(tmp_path, level, sigma):
    fitted = fit_pipeline(generate_dataset(level, (800, 100, 100), 11),
                          FitConfig(noise_sigma=sigma))
    save_fitted(tmp_path, fitted)
    digest = hashlib.sha256((tmp_path / FIT_FILE).read_bytes()).hexdigest()
    assert digest == PINNED_DESK_FITS[level, sigma]
