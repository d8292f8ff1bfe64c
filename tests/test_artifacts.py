import os
import re

import numpy as np
import pytest

from benchplan.artifacts import (
    MAPS_FILE,
    MODEL_FILE,
    SYMBOLIZER_FILE,
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
from benchplan.taskgen import generate_dataset


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
        ds = generate_dataset(4, (15, 2, 4), seed=13)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(a, ds)
        save_dataset(b, load_dataset(a))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifact):
            load_dataset(tmp_path / "absent.txt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("#something-else v9 level=1\n")
        with pytest.raises(SchemaMismatch):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("init.x", ""), ("init.x", "9"), ("goal.rot", "45"), ("obstacles", "1"),
    ], ids=["empty", "off-grid", "bad-rotation", "one-int-cell"])
    def test_malformed_task_is_schema_mismatch(self, tmp_path, field, value):
        path = tmp_path / "d.txt"
        save_dataset(path, generate_dataset(2, (4, 1, 1), seed=13))
        text = re.sub(rf"{re.escape(field)}=\S*", f"{field}={value}",
                      path.read_text(), count=1)
        path.write_text(text)
        with pytest.raises(SchemaMismatch, match="d.txt"):
            load_dataset(path)


class TestFittedArtifacts:
    def test_round_trip(self, tmp_path, level3_run):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        loaded = load_fitted(tmp_path)
        assert loaded.config == fitted.config
        assert loaded.codebook_seed == fitted.codebook_seed
        assert loaded.train_purity == fitted.train_purity
        for a, b in zip(loaded.symbolizer.centers, fitted.symbolizer.centers):
            assert np.array_equal(a, b)
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
        assert loaded.value_maps == fitted.value_maps

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
        for name in (SYMBOLIZER_FILE, MODEL_FILE, MAPS_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_disagreement_detected(self, tmp_path, level3_run):
        _, fitted = level3_run
        save_fitted(tmp_path, fitted)
        model = (tmp_path / MODEL_FILE).read_text()
        (tmp_path / MODEL_FILE).write_text(
            model.replace("codebook_seed=7", "codebook_seed=8"))
        with pytest.raises(SchemaMismatch):
            load_fitted(tmp_path)

    @pytest.mark.parametrize("name", [SYMBOLIZER_FILE, MODEL_FILE, MAPS_FILE])
    def test_truncation_is_schema_mismatch(self, tmp_path, level1_run, name):
        # every cut of the symbolizer or the model, and every cut of the maps
        # inside an action section; a cut between map sections reads as keys
        # the fit dropped, which the file cannot tell apart
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        cuts = range(len(lines))
        if name == MAPS_FILE:
            cuts = [n for n in cuts if n > 1 and not lines[n - 1].startswith("b ")]
        for n in cuts:
            (tmp_path / name).write_text("".join(lines[:n]))
            with pytest.raises(SchemaMismatch, match=name):
                load_fitted(tmp_path)

    @pytest.mark.parametrize("name, old, new", [
        (MODEL_FILE, "actions=", "actions=move_back,"),
        (MODEL_FILE, "base_actions=", "base_actions=move_back,"),
        (MODEL_FILE, "\nm 0 ", "\nm 1 "),
        (MODEL_FILE, "\nn ", "\nq "),
        (MAPS_FILE, "\nA ", "\nA x,"),
        (MAPS_FILE, "\nb ", "\nb 1.0,"),
        (MAPS_FILE, "restarts=10", "restarts=11"),
        (SYMBOLIZER_FILE, "k=", "k=1"),
    ], ids=["actions", "base-actions", "m-row", "unknown-tag", "bad-float",
            "long-b", "header", "symbol-count"])
    def test_malformed_record_is_schema_mismatch(self, tmp_path, level1_run,
                                                 name, old, new):
        _, fitted = level1_run
        save_fitted(tmp_path, fitted)
        text = (tmp_path / name).read_text()
        assert old in text
        (tmp_path / name).write_text(text.replace(old, new, 1))
        with pytest.raises(SchemaMismatch, match=name):
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
