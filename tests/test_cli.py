import csv
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from taskopt import cli
from taskopt.cli import _read_row_labels, _safe_name, _stats_payload, main
from taskopt.crossval import FoldResult, read_fold_results_csv
from taskopt.dataset import TaskManifest, load_sensor_samples
from taskopt.nn import FcnnModel

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def _small_synth(tmp_path, seed=11):
    """Generate a small dataset plus a fast-training config; return config path."""
    data_dir = tmp_path / "data"
    rc = main(["synth", "--out", str(data_dir), "--seed", str(seed),
               "--subjects", "4", "--tasks", "6", "--clusters", "3"])
    assert rc == 0
    config_path = data_dir / "config.json"
    raw = json.loads(config_path.read_text())
    raw["cluster"]["k_max"] = 6
    raw["cluster"]["restarts"] = 4
    raw["nn"].update({"hidden": [8, 8], "max_epochs": 4, "patience": 4,
                      "batch_size": 32})
    config_path.write_text(json.dumps(raw, indent=2) + "\n")
    return config_path, Path(raw["paths"]["out_dir"])


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checksums(out_dir, skip=("run_manifest.json",)):
    return {str(path.relative_to(out_dir)): _sha256(path)
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.name not in skip}


def _edit_config(config_path, section, **fields):
    raw = json.loads(config_path.read_text())
    raw[section].update(fields)
    config_path.write_text(json.dumps(raw, indent=2) + "\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config_path, out_dir = _small_synth(tmp_path)
    for command in ("ingest", "cluster", "select", "train", "report"):
        assert main([command, "--config", str(config_path)]) == 0, command
    return config_path, out_dir


class TestFullPipeline:
    def test_artifacts_exist(self, pipeline):
        _, out_dir = pipeline
        expected = [
            "feature_matrix.npy", "row_labels.csv", "ingest_report.json",
            "sensor_samples.npz", "sensor_trials.csv",
            "pca_model.json", "pca_selection.json", "pca_scores.csv",
            "pca_scatter.svg", "cluster_model.json", "silhouette_scan.csv",
            "task_weights.csv", "conditions.json", "fold_results.csv",
            "train_report.json", "summary.csv", "stats.json",
            "rmse_bars.svg", "rmse_bars.csv", "r2_bars.svg", "r2_bars.csv",
            "run_manifest.json",
        ]
        for name in expected:
            assert (out_dir / name).exists(), name
        assert list((out_dir / "checkpoints").glob("model_*.json"))
        assert list((out_dir / "histories").glob("history_*.csv"))
        assert list((out_dir / "traces").glob("trace_*.csv"))

    def test_conditions_structure(self, pipeline):
        _, out_dir = pipeline
        conditions = json.loads((out_dir / "conditions.json").read_text())
        assert set(conditions) == {"all", "optimized", "cyclic"}
        assert len(conditions["all"]["tasks"]) == 6
        assert set(conditions["optimized"]["tasks"]) <= \
            set(conditions["all"]["tasks"])

    def test_recovers_planted_k(self, pipeline, tmp_path_factory):
        _, out_dir = pipeline
        selection = json.loads((out_dir / "pca_selection.json").read_text())
        assert selection["best_k"] == 3

    def test_stats_payload(self, pipeline):
        _, out_dir = pipeline
        stats = json.loads((out_dir / "stats.json").read_text())
        assert "rmse" in stats and "r2" in stats
        assert stats["alpha"] == 0.05
        assert stats["rmse"]["anova"]["df_between"] == 2
        for pair in stats["rmse"]["pairwise"]:
            assert pair["significant"] == (pair["p_adj"] < 0.05)

    def test_run_manifest_provenance(self, pipeline):
        config_path, out_dir = pipeline
        raw = json.loads(config_path.read_text())
        commands = json.loads((out_dir / "run_manifest.json").read_text())["commands"]
        assert set(commands) == {"ingest", "cluster", "select", "train", "report"}
        written = {}
        for entry in commands.values():
            for artifact, digest in entry["artifacts"].items():
                assert _sha256(out_dir / artifact) == digest, artifact
                written[artifact] = digest
            assert entry["wall_s"] > 0 and entry["peak_rss_self_mb"] > 0
            assert entry["peak_rss_children_mb"] >= 0 and "timestamp" in entry
        for entry in commands.values():
            for name, digest in entry["inputs"].items():
                on_disk = written[name] if name in written else _sha256(Path(name))
                assert digest == on_disk, name
        paths = raw["paths"]
        sensor_table = {"sensor_samples.npz", "sensor_trials.csv"}
        assert set(commands["ingest"]["inputs"]) == {paths["profiles"], paths["sensors"],
                                                     paths["tasks"]}
        assert set(commands["cluster"]["inputs"]) == {"feature_matrix.npy",
                                                      "row_labels.csv"}
        assert set(commands["train"]["inputs"]) == {"conditions.json", *sensor_table}
        assert set(commands["report"]["inputs"]) == {"fold_results.csv", *sensor_table,
                                                     paths["tasks"]}
        assert commands["cluster"]["config"] == {
            "pca": raw["pca"], "cluster": raw["cluster"], "seed": raw["seed"]}
        assert commands["ingest"]["counts"] == {"rows": 72}
        assert commands["train"]["counts"]["folds"] == 12
        assert commands["report"]["counts"] == {"folds": 12}
        checkpoints = {p.relative_to(out_dir).as_posix()
                       for p in (out_dir / "checkpoints").iterdir()}
        assert checkpoints <= set(commands["train"]["artifacts"])


class TestStageDependencies:
    def test_cluster_before_ingest_names_ingest(self, tmp_path, caplog):
        config_path, _ = _small_synth(tmp_path)
        rc = main(["cluster", "--config", str(config_path)])
        assert rc == 1
        assert "taskopt ingest" in caplog.text

    def test_train_before_select_names_select(self, tmp_path, caplog):
        config_path, _ = _small_synth(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        rc = main(["train", "--config", str(config_path)])
        assert rc == 1
        assert "taskopt select" in caplog.text


class TestConfigValidation:
    def test_all_violations_listed(self, tmp_path, caplog):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({
            "paths": {"profiles": "p.csv", "sensors": "s.csv",
                      "tasks": "t.json", "out_dir": str(tmp_path / "out")},
            "pca": {"variance_threshold": 2.0},
            "cluster": {"k_min": 1, "k_max": 0},
            "study": {"conditions": ["all", "bogus"]},
            "nn": {"dropout_rate": 1.5},
        }))
        rc = main(["ingest", "--config", str(config_path)])
        assert rc == 1
        for fragment in ("variance_threshold", "k_min", "k_max", "bogus",
                         "dropout_rate"):
            assert fragment in caplog.text, fragment

    def test_unknown_fields_rejected(self, tmp_path, caplog):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"pca": {"standardise": True}}))
        rc = main(["ingest", "--config", str(config_path)])
        assert rc == 1
        assert "standardise" in caplog.text

    @pytest.mark.parametrize("field", ["seed", "input_dim", "output_dim"])
    def test_pipeline_set_nn_fields_rejected(self, tmp_path, caplog, field):
        config_path, _ = _small_synth(tmp_path)
        _edit_config(config_path, "nn", **{field: 2})
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"nn.{field}: unknown field" in caplog.text

    def test_missing_config_file(self, tmp_path):
        rc = main(["ingest", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 1


class TestIdempotency:
    def test_repeat_runs_byte_identical(self, tmp_path):
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select", "train", "report"):
            assert main([command, "--config", str(config_path)]) == 0
        first = _checksums(out_dir)
        for command in ("ingest", "cluster", "select", "train", "report"):
            assert main([command, "--config", str(config_path)]) == 0
        second = _checksums(out_dir)
        assert first == second

    def test_synth_rerun_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            assert main(["synth", "--out", str(out), "--seed", "3",
                         "--subjects", "3", "--tasks", "4",
                         "--clusters", "2"]) == 0
        for name in ("profiles.csv", "sensors.csv", "tasks.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


class TestMalformedCheckpoint:
    def test_report_rejects_checkpoint_without_output_bias(self, tmp_path,
                                                           caplog):
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        for path in (out_dir / "checkpoints").glob("model_optimized_*.json"):
            raw = json.loads(path.read_text())
            del raw["params"]["out.b"]
            path.write_text(json.dumps(raw))
        assert main(["report", "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert "out.b" in caplog.text
        assert "checkpoints" in caplog.text and "model_optimized_" in caplog.text

    def test_report_rejects_checkpoint_with_wrong_input_dim(self, tmp_path,
                                                             caplog):
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        paths = sorted((out_dir / "checkpoints").glob("model_optimized_*.json"))
        assert paths
        for path in paths:
            config = FcnnModel.load(path).config
            wrong = FcnnModel(dataclasses.replace(config, input_dim=13))
            path.write_text(json.dumps(wrong.to_dict()))
        assert main(["report", "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert "input_dim 13" in caplog.text
        assert "checkpoints" in caplog.text and "model_optimized_" in caplog.text


def _rewrite_sensors(config_path, keep):
    """Keep only the sensor data rows for which ``keep(row)`` is true."""
    path = Path(json.loads(config_path.read_text())["paths"]["sensors"])
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [row for row in rows if keep(row)])
    return path


class TestBadSensors:
    def _train_after(self, tmp_path, caplog, keep):
        """Re-ingest sensors that keep only ``keep``'s rows; ``train`` then refuses them."""
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0
        conditions = json.loads((out_dir / "conditions.json").read_text())
        _rewrite_sensors(config_path, lambda row: keep(row, conditions))
        # The profiles are unchanged, so cluster and select stay fresh.
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert str(out_dir / "sensor_samples.npz") in caplog.text
        assert not (out_dir / "fold_results.csv").exists()

    def test_train_rejects_sensors_of_one_subject(self, tmp_path, caplog):
        self._train_after(tmp_path, caplog, lambda row, _: row[0] == "s01")
        assert "for 1 kept subject(s)" in caplog.text

    def test_train_rejects_condition_without_sensor_rows(self, tmp_path, caplog):
        def keep(row, conditions):
            return row[1] not in conditions["optimized"]["tasks"]

        self._train_after(tmp_path, caplog, keep)
        assert "condition 'optimized'" in caplog.text

    def test_ingest_counts_rows_of_subjects_not_kept(self, tmp_path, caplog):
        caplog.set_level("INFO", logger="taskopt")
        config_path, out_dir = _small_synth(tmp_path)
        path = Path(json.loads(config_path.read_text())["paths"]["sensors"])
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        extra = [["s,99", *row[1:]] for row in rows if row[0] == "s01"]
        with path.open("a", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(extra)
        for command in ("ingest", "cluster", "select", "train"):
            assert main([command, "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "ingest_report.json").read_text())
        assert report["sensor_rows_dropped_subject"] == {"s,99": len(extra)}
        assert report["sensors"]["rows_read"] == len(rows) + len(extra)
        assert "sensor_rows_dropped_subject" not in \
            json.loads((out_dir / "train_report.json").read_text())
        assert f"{{'s,99': {len(extra)}}}" in caplog.text
        assert "s,99" not in cli._read_samples(out_dir).subject_set()


class TestBadIngestArtifacts:
    """A damaged matrix or label file is named, with exit 2, where a stage reads it."""

    def _damage_then(self, tmp_path, caplog, upstream, name, damage, command, code=2):
        config_path, out_dir = _small_synth(tmp_path)
        for stage in upstream:
            assert main([stage, "--config", str(config_path)]) == 0
        damage(out_dir / name)
        assert main([command, "--config", str(config_path)]) == code
        assert "unexpected failure" not in caplog.text
        assert str(out_dir / name) in caplog.text
        return out_dir

    def test_cluster_rejects_row_labels_cut_short(self, tmp_path, caplog):
        def cut(path):
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))

        out_dir = self._damage_then(tmp_path, caplog, ["ingest"], "row_labels.csv",
                                    cut, "cluster")
        assert "expected 72 rows of 3 cells" in caplog.text
        assert not (out_dir / "pca_scores.csv").exists()

    def test_select_rejects_header_only_row_labels(self, tmp_path, caplog):
        def header_only(path):
            path.write_text("subject,task,trial\n")

        out_dir = self._damage_then(tmp_path, caplog, ["ingest", "cluster"],
                                    "row_labels.csv", header_only, "select")
        assert "expected 72 rows of 3 cells" in caplog.text
        assert not (out_dir / "conditions.json").exists()

    @pytest.mark.parametrize("content, message", [
        ("text", "not a saved numpy array"),
        (np.zeros(72), "expected a 2-D float array, got 1-D float64"),
        (np.array([["a"] * 3] * 72), "expected a 2-D float array, got 2-D <U1"),
        ({"rows": np.zeros((72, 3))}, "expected a 2-D float array, got NpzFile"),
    ], ids=["text", "1-D", "strings", "npz"])
    def test_cluster_rejects_bad_matrix(self, tmp_path, caplog, content, message):
        def replace(path):
            if isinstance(content, str):
                path.write_text(content)
            elif isinstance(content, dict):
                with path.open("wb") as fh:
                    np.savez(fh, **content)
            else:
                np.save(path, content)

        self._damage_then(tmp_path, caplog, ["ingest"], "feature_matrix.npy",
                          replace, "cluster")
        assert message in caplog.text


    @pytest.mark.parametrize("name, content, message", [
        ("conditions.json", "{not json", "not a JSON file"),
        ("conditions.json", "[]", "expected {name:"),
        ("conditions.json", '{"all": {"tasks": "walk", "source": "x"}}',
         "expected {name:"),
        ("conditions.json", '{"all": {"tasks": [], "source": "x"}}',
         "no condition(s) ['optimized', 'cyclic']"),
    ], ids=["conditions-not-json", "conditions-list", "conditions-tasks-string",
            "conditions-missing"])
    def test_train_rejects_bad_upstream_json(self, tmp_path, caplog, name, content,
                                             message):
        out_dir = self._damage_then(tmp_path, caplog, ["ingest", "cluster", "select"],
                                    name, lambda path: path.write_text(content),
                                    "train")
        assert message in caplog.text
        assert not (out_dir / "fold_results.csv").exists()

    @staticmethod
    def _edit_archive(edit):
        def damage(path):
            with path.open("rb") as fh, np.load(fh) as archive:
                arrays = dict(archive)
            edit(arrays)
            with path.open("wb") as fh:
                np.savez(fh, **arrays)
        return damage

    @staticmethod
    def _write_npy(path):
        with path.open("wb") as fh:
            np.save(fh, np.zeros((4, 14)))

    @staticmethod
    def _cut_a_cell(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize("name, damage, message", [
        ("sensor_samples.npz", _write_npy, "not a sensor table (TypeError"),
        ("sensor_samples.npz", lambda path: path.write_text("x,y\n"),
         "not a sensor table (ValueError"),
        ("sensor_samples.npz", _edit_archive(lambda arrays: arrays.pop("codes")),
         "not a sensor table (KeyError"),
        ("sensor_samples.npz", _edit_archive(lambda arrays: arrays.update(
            x=arrays["x"][:, :13])), "expected float x (n, 14)"),
        ("sensor_samples.npz", _edit_archive(lambda arrays: arrays["codes"].__setitem__(
            -1, 10_000)), "below the 48 trial keys"),
        ("sensor_trials.csv", _cut_a_cell, "expected 48 rows of 3 cells"),
    ], ids=["npy-file", "text", "no-codes", "x-13-columns", "code-past-keys",
            "trials-2-cells"])
    def test_train_rejects_bad_sensor_table(self, tmp_path, caplog, name, damage, message):
        out_dir = self._damage_then(tmp_path, caplog, ["ingest", "cluster", "select"],
                                    name, damage, "train")
        assert message in caplog.text
        assert not (out_dir / "fold_results.csv").exists()

    def test_report_rejects_bad_sensor_table(self, tmp_path, caplog):
        damage = self._edit_archive(lambda arrays: arrays.update(x=arrays["x"][:, :13]))
        out_dir = self._damage_then(tmp_path, caplog,
                                    ["ingest", "cluster", "select", "train"],
                                    "sensor_samples.npz", damage, "report")
        assert "expected float x (n, 14)" in caplog.text
        assert not (out_dir / "summary.csv").exists()

    @pytest.mark.parametrize("content, message", [
        ("{not json", "not a cluster model (JSONDecodeError"),
        ("{}", "not a cluster model (KeyError('k')"),
        ('{"k": 2, "centroids": [[0.0], [1.0]], "assignments": "abc", "inertia": 1.0,'
         ' "silhouette": null, "inertia_history": []}', "not a cluster model (ValueError"),
        ('{"k": 2, "centroids": [[0.0], [1.0]], "assignments": "10", "inertia": 1.0,'
         ' "silhouette": null, "inertia_history": []}',
         "assignments is not a list of cluster ids"),
    ], ids=["not-json", "empty-object", "assignments-text", "assignments-number"])
    def test_select_rejects_bad_cluster_model(self, tmp_path, caplog, content, message):
        out_dir = self._damage_then(tmp_path, caplog, ["ingest", "cluster"],
                                    "cluster_model.json",
                                    lambda path: path.write_text(content), "select")
        assert message in caplog.text
        assert not (out_dir / "conditions.json").exists()

    @staticmethod
    def _edit_fold_results(edit):
        def damage(path):
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            edit(rows)
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        return damage

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [row.pop("r2") for row in rows], "not a fold result (KeyError('r2')"),
        (lambda rows: rows[1].update(n_train="abc"), "line 3: not a fold result (ValueError"),
    ], ids=["missing-column", "text-in-number-cell"])
    def test_report_rejects_bad_fold_results(self, tmp_path, caplog, edit, message):
        out_dir = self._damage_then(tmp_path, caplog,
                                    ["ingest", "cluster", "select", "train"],
                                    "fold_results.csv", self._edit_fold_results(edit),
                                    "report")
        assert message in caplog.text
        assert not (out_dir / "summary.csv").exists()

    def test_report_names_missing_checkpoint(self, tmp_path, caplog):
        out_dir = self._damage_then(tmp_path, caplog,
                                    ["ingest", "cluster", "select", "train"],
                                    "checkpoints", shutil.rmtree, "report", code=1)
        assert "missing artifact model_all_" in caplog.text
        assert "run `taskopt train` first" in caplog.text
        assert not (out_dir / "traces").exists()

    def test_select_names_tasks_missing_from_manifest(self, tmp_path, caplog):
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster"):
            assert main([command, "--config", str(config_path)]) == 0
        tasks_path = Path(json.loads(config_path.read_text())["paths"]["tasks"])
        raw = json.loads(tasks_path.read_text())
        raw["tasks"] = raw["tasks"][:3]
        tasks_path.write_text(json.dumps(raw))
        assert main(["select", "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert f"{out_dir / 'row_labels.csv'}: task(s) [" in caplog.text
        assert f"are not active tasks of {tasks_path}" in caplog.text


class TestNotUtf8Input:
    """A CSV input that is not UTF-8 is named with exit 2 by the stage that loads it."""

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("s01,", "s\xe901,", 1).encode("latin-1"),
        lambda text: text.encode("utf-16"),
    ], ids=["latin-1-id", "utf-16-bom"])
    @pytest.mark.parametrize("which, upstream, command", [
        ("profiles", [], "ingest"),
        ("sensors", [], "ingest"),
    ], ids=["profiles", "sensors"])
    def test_named_with_exit_2(self, tmp_path, caplog, which, upstream, command,
                               encode):
        config_path, _ = _small_synth(tmp_path)
        for stage in upstream:
            assert main([stage, "--config", str(config_path)]) == 0
        path = Path(json.loads(config_path.read_text())["paths"][which])
        path.write_bytes(encode(path.read_text(encoding="utf-8")))
        assert main([command, "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert f"{path}: not UTF-8 text" in caplog.text


class TestSingleCondition:
    def test_stats_note_for_single_condition(self, tmp_path, caplog):
        config_path, out_dir = _small_synth(tmp_path)
        raw = json.loads(config_path.read_text())
        raw["study"]["conditions"] = ["optimized"]
        config_path.write_text(json.dumps(raw, indent=2) + "\n")
        for command in ("ingest", "cluster", "select", "train", "report"):
            assert main([command, "--config", str(config_path)]) == 0
        stats = json.loads((out_dir / "stats.json").read_text())
        assert "note" in stats
        assert ">= 2 conditions" in stats["note"]


class TestSeedOverride:
    def test_seed_flag_recorded_and_applied(self, tmp_path, caplog):
        config_path, out_dir = _small_synth(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["cluster", "--config", str(config_path),
                     "--seed", "99"]) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["commands"]["cluster"]["config"]["seed"] == 99
        assert main(["select", "--config", str(config_path)]) == 1
        assert "stale: rerun `taskopt cluster` (seed changed since)" in caplog.text
        assert main(["select", "--config", str(config_path), "--seed", "99"]) == 0


class TestStaleUpstream:
    """A stage refuses upstream artifacts whose manifest records no longer match."""

    def _select_after(self, tmp_path, caplog, change, upstream=("ingest", "cluster"),
                      command="select"):
        config_path, out_dir = _small_synth(tmp_path)
        for stage in upstream:
            assert main([stage, "--config", str(config_path)]) == 0
        change(config_path)
        before = _checksums(out_dir, skip=())
        assert main([command, "--config", str(config_path)]) == 1
        assert _checksums(out_dir, skip=()) == before
        return caplog.text

    def test_reingest_with_new_target_length_names_cluster(self, tmp_path, caplog):
        def reingest(config_path):
            _edit_config(config_path, "dataset", target_length=50)
            assert main(["ingest", "--config", str(config_path)]) == 0

        text = self._select_after(tmp_path, caplog, reingest)
        assert "stale: rerun `taskopt cluster` (feature_matrix.npy changed since)" in text

    def test_changed_variance_threshold_names_cluster(self, tmp_path, caplog):
        text = self._select_after(
            tmp_path, caplog,
            lambda path: _edit_config(path, "pca", variance_threshold=0.9))
        assert "stale: rerun `taskopt cluster` (pca changed since)" in text

    def test_stage_two_steps_downstream_names_cluster(self, tmp_path, caplog):
        text = self._select_after(
            tmp_path, caplog,
            lambda path: _edit_config(path, "pca", variance_threshold=0.9),
            upstream=("ingest", "cluster", "select"), command="train")
        assert "stale: rerun `taskopt cluster` (pca changed since)" in text

    def test_changed_ingest_config_names_ingest(self, tmp_path, caplog):
        text = self._select_after(
            tmp_path, caplog,
            lambda path: _edit_config(path, "dataset", target_length=50))
        assert "stale: rerun `taskopt ingest` (dataset changed since)" in text

    def test_old_manifest_reads_as_stale(self, tmp_path, caplog):
        def old_schema(config_path):
            manifest = Path(json.loads(config_path.read_text())["paths"]["out_dir"]) \
                / "run_manifest.json"
            raw = json.loads(manifest.read_text())
            for entry in raw["commands"].values():
                entry["artifacts"] = sorted(entry["artifacts"])
                del entry["config"]
            manifest.write_text(json.dumps(raw))

        text = self._select_after(tmp_path, caplog, old_schema)
        assert "stale: rerun `taskopt ingest` (no record of it in " \
            "run_manifest.json)" in text

    def test_unchanged_rerun_is_not_stale(self, tmp_path):
        config_path, _ = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "ingest", "select", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0, command


class TestStagedCommit:
    """A stage's artifacts reach the output directory only when it succeeds."""

    @pytest.mark.parametrize("upstream", [["ingest"], ["ingest", "cluster"]],
                             ids=["first-run", "rerun"])
    def test_failed_cluster_leaves_no_new_artifact(self, tmp_path, monkeypatch,
                                                   caplog, upstream):
        config_path, out_dir = _small_synth(tmp_path)
        for command in upstream:
            assert main([command, "--config", str(config_path)]) == 0
        # The failing run would write other bytes than the first one did.
        _edit_config(config_path, "cluster", k_max=5)
        before = _checksums(out_dir, skip=())

        written = []

        def fail(path, *args, **kwargs):
            written.extend(p.name for p in path.parent.iterdir())
            raise OSError("disk full")

        monkeypatch.setattr(cli, "scatter_svg", fail)
        assert main(["cluster", "--config", str(config_path)]) == 2
        assert "disk full" in caplog.text
        assert "pca_model.json" in written and "cluster_model.json" in written
        assert _checksums(out_dir, skip=()) == before
        assert not (out_dir / ".tmp-cluster").exists()

    def test_leftover_temporary_directory_is_replaced(self, tmp_path):
        config_path, out_dir = _small_synth(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        leftover = out_dir / ".tmp-cluster" / "pca_model.json"
        leftover.parent.mkdir()
        leftover.write_text("half-written")
        assert main(["cluster", "--config", str(config_path)]) == 0
        assert not leftover.parent.exists()
        assert json.loads((out_dir / "pca_model.json").read_text())

    def test_rerun_deletes_files_the_stage_no_longer_writes(self, tmp_path):
        config_path, out_dir = _small_synth(tmp_path)
        _edit_config(config_path, "nn", max_epochs=1, patience=1)
        for command in ("ingest", "cluster", "select", "train", "report"):
            assert main([command, "--config", str(config_path)]) == 0
        stale_trace = out_dir / "traces" / "trace_gone.csv"
        stale_trace.write_text("time_s,truth\n")
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        manifest["commands"]["report"]["artifacts"]["traces/trace_gone.csv"] = "0"
        (out_dir / "run_manifest.json").write_text(json.dumps(manifest))
        assert list((out_dir / "checkpoints").glob("model_all_*"))

        _edit_config(config_path, "study", conditions=["optimized"])
        for command in ("train", "report"):
            assert main([command, "--config", str(config_path)]) == 0
        left = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
        assert not [name for name in left
                    if name.startswith(("checkpoints/model_all_", "histories/history_all_",
                                        "checkpoints/model_cyclic_",
                                        "histories/history_cyclic_"))]
        assert not stale_trace.exists()
        commands = json.loads((out_dir / "run_manifest.json").read_text())["commands"]
        listed = {name for entry in commands.values() for name in entry["artifacts"]}
        assert left - {"run_manifest.json"} == listed

    def test_damaged_entry_deletes_nothing(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "outside.txt").write_text("keep")
        (out / "kept.txt").write_text("keep")
        entry = {"artifacts": {"../outside.txt": "0", "kept.txt": "0", "gone.txt": "0"}}
        assert cli._stale_files(out, entry, {"kept.txt"}) == []
        assert cli._stale_files(out, {"artifacts": ["kept.txt"]}, set()) == []
        assert cli._stale_files(out, "damaged", set()) == []
        assert cli._stale_files(out, entry, set()) == [out / "kept.txt"]


class TestOddIds:
    def test_comma_in_subject_id_survives_cluster_and_select(self, tmp_path):
        config_path, out_dir = _small_synth(tmp_path)
        raw = json.loads(config_path.read_text())
        odd = "s01,x"
        for key in ("profiles", "sensors"):
            path = Path(raw["paths"][key])
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows[1:]:
                if row[0] == "s01":
                    row[0] = odd
            with path.open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        for command in ("ingest", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0, command
        with (out_dir / "pca_scores.csv").open(newline="") as fh:
            header, *scores = list(csv.reader(fh))
        labels = _read_row_labels(out_dir / "row_labels.csv", len(scores))
        assert {s for s, _, _ in labels} == {odd, "s02", "s03", "s04"}
        assert [tuple(row[:3]) for row in scores] == labels
        assert {len(row) for row in scores} == {len(header)}

    def test_odd_sensor_ids_survive_ingest_and_train(self, tmp_path):
        """Ids with a comma, a quote, a newline and a trailing NUL keep every character."""
        config_path, out_dir = _small_synth(tmp_path)
        _edit_config(config_path, "nn", max_epochs=1, patience=1)
        paths = json.loads(config_path.read_text())["paths"]
        odd = {"s01": 's,0"1', "s02": "s\n02", "s03": "s03\x00"}
        for key in ("profiles", "sensors"):
            path = Path(paths[key])
            with path.open(newline="") as fh:
                header, *rows = list(csv.reader(fh))
            rows = [[odd.get(row[0], row[0]), row[1], row[2] + "\x00", *row[3:]]
                    for row in rows]
            if key == "sensors":  # a subject without profiles is not kept
                rows += [["s05\x00", *row[1:]] for row in rows[:40]]
            with path.open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        for command in ("ingest", "cluster", "select", "train"):
            assert main([command, "--config", str(config_path)]) == 0, command

        manifest = TaskManifest.from_json(paths["tasks"])
        loaded, _ = load_sensor_samples(paths["sensors"], manifest)
        kept = {*odd.values(), "s04"}
        expected = loaded.subset(np.array([s in kept for s in loaded.subjects.tolist()]))
        table = cli._read_samples(out_dir)
        for name in ("x", "y", "times", "codes"):
            assert np.array_equal(getattr(table, name), getattr(expected, name)), name
            assert getattr(table, name).dtype == getattr(expected, name).dtype, name
        assert table.keys.dtype == object
        assert table.keys.tolist() == expected.keys.tolist()
        assert "s05\x00" in table.keys[:, 0].tolist()
        assert "s05\x00" not in table.subject_set()
        folds = read_fold_results_csv(out_dir / "fold_results.csv")
        assert {f.left_out for f in folds} == kept
        assert {f.n_test for f in folds} == {480}

        assert main(["report", "--config", str(config_path)]) == 0
        traces = list((out_dir / "traces").iterdir())
        assert traces and all(len(p.read_text().splitlines()) > 2 for p in traces)

    def test_safe_name_is_injective(self):
        ids = ["a b", "a_b", "a/b", "a%20b", "a.b", "A_b"]
        assert len({_safe_name(i) for i in ids}) == len(ids)
        assert _safe_name("task-01_s01") == "task-01_s01"


class TestStatsJson:
    def test_degenerate_statistics_written_as_null(self):
        # Every condition is constant across folds but the conditions differ,
        # so the ANOVA F and the paired t statistics are infinite.
        folds = [
            FoldResult(cond, subject, rmse=value, r2=1.0 - value, n_train=8,
                       n_val=2, n_test=4, seed=0)
            for cond, value in (("all", 0.25), ("optimized", 0.5), ("cyclic", 0.75))
            for subject in ("a", "b", "c")
        ]
        payload = _stats_payload(["all", "optimized", "cyclic"], folds)
        text = json.dumps(payload, allow_nan=False)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        parsed = json.loads(text, parse_constant=reject)
        assert parsed["rmse"]["anova"]["f"] is None
        assert parsed["rmse"]["anova"]["degenerate"] is True
        assert all(pair["t"] is None for pair in parsed["rmse"]["pairwise"])
