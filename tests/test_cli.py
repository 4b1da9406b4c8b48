import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from taskopt.cli import _read_row_labels, _safe_name, _stats_payload, main
from taskopt.config import RunConfig
from taskopt.crossval import FoldResult
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


def _checksums(out_dir):
    sums = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            sums[str(path.relative_to(out_dir))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return sums


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
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        commands = manifest["commands"]
        assert set(commands) >= {"ingest", "cluster", "select", "train",
                                 "report"}
        reference = hashlib.sha256(config_path.read_bytes()).hexdigest()
        for name in ("ingest", "cluster", "select", "train", "report"):
            assert commands[name]["config_hash"] == reference
            assert "timestamp" in commands[name]


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
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0
        conditions = json.loads((out_dir / "conditions.json").read_text())
        sensors = _rewrite_sensors(config_path, lambda row: keep(row, conditions))
        assert main(["train", "--config", str(config_path)]) == 2
        assert "unexpected failure" not in caplog.text
        assert str(sensors) in caplog.text
        assert not (out_dir / "fold_results.csv").exists()

    def test_train_rejects_sensors_of_one_subject(self, tmp_path, caplog):
        self._train_after(tmp_path, caplog, lambda row, _: row[0] == "s01")
        assert "for 1 kept subject(s)" in caplog.text

    def test_train_rejects_condition_without_sensor_rows(self, tmp_path, caplog):
        def keep(row, conditions):
            return row[1] not in conditions["optimized"]["tasks"]

        self._train_after(tmp_path, caplog, keep)
        assert "condition 'optimized'" in caplog.text

    def test_train_counts_rows_of_subjects_not_kept(self, tmp_path, caplog):
        caplog.set_level("INFO", logger="taskopt")
        config_path, out_dir = _small_synth(tmp_path)
        for command in ("ingest", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0
        path = Path(json.loads(config_path.read_text())["paths"]["sensors"])
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        extra = [["s,99", *row[1:]] for row in rows if row[0] == "s01"]
        with path.open("a", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(extra)
        assert main(["train", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["sensor_rows_dropped_subject"] == {"s,99": len(extra)}
        assert f"dropping {len(extra)} sensor row(s) of subject s,99" in caplog.text


class TestBadIngestArtifacts:
    """A damaged matrix or label file is named, with exit 2, where a stage reads it."""

    def _damage_then(self, tmp_path, caplog, upstream, name, damage, command):
        config_path, out_dir = _small_synth(tmp_path)
        for stage in upstream:
            assert main([stage, "--config", str(config_path)]) == 0
        damage(out_dir / name)
        assert main([command, "--config", str(config_path)]) == 2
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
        ("ingest_report.json", '{"profiles": {}}', "no exclusion.kept_subjects"),
        ("ingest_report.json", '{"exclusion": {"kept_subjects": "s01"}}',
         "not a list of ids"),
    ], ids=["conditions-not-json", "conditions-list", "conditions-tasks-string",
            "conditions-missing", "report-no-exclusion", "report-kept-string"])
    def test_train_rejects_bad_upstream_json(self, tmp_path, caplog, name, content,
                                             message):
        out_dir = self._damage_then(tmp_path, caplog, ["ingest", "cluster", "select"],
                                    name, lambda path: path.write_text(content),
                                    "train")
        assert message in caplog.text
        assert not (out_dir / "fold_results.csv").exists()


class TestNotUtf8Input:
    """A CSV input that is not UTF-8 is named with exit 2 by the stage that loads it."""

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("s01,", "s\xe901,", 1).encode("latin-1"),
        lambda text: text.encode("utf-16"),
    ], ids=["latin-1-id", "utf-16-bom"])
    @pytest.mark.parametrize("which, upstream, command", [
        ("profiles", [], "ingest"),
        ("sensors", ["ingest", "cluster", "select"], "train"),
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
    def test_seed_flag_recorded_and_applied(self, tmp_path):
        config_path, out_dir = _small_synth(tmp_path)
        assert main(["ingest", "--config", str(config_path),
                     "--seed", "99"]) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["commands"]["ingest"]["seed"] == 99


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
        payload = _stats_payload(RunConfig(), folds)
        text = json.dumps(payload, allow_nan=False)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        parsed = json.loads(text, parse_constant=reject)
        assert parsed["rmse"]["anova"]["f"] is None
        assert parsed["rmse"]["anova"]["degenerate"] is True
        assert all(pair["t"] is None for pair in parsed["rmse"]["pairwise"])
