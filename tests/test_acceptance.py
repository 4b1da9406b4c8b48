"""Acceptance gate: one test per exit criterion, each printing a
PASS/FAIL line. The end-to-end study runs the real pipeline on the
default synthetic dataset through the CLI.
"""

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    REFERENCE_REPRESENTATIVES,
    REFERENCE_TABLE,
    brute_force_min_inertia,
    jacobi_eigh,
)
from taskopt.cli import main
from taskopt.cluster import adjusted_rand_index, kmeans, silhouette_score
from taskopt.nn import FcnnConfig, FcnnModel, loss_and_gradients
from taskopt.pca import pca_fit, pca_transform
from taskopt.stats import one_way_anova, pairwise_bonferroni, regularized_incomplete_beta


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_eq1_score_oracle():
    with criterion("representativeness formula reproduces all 24 table scores"):
        for cluster, task, a_b, a_c, s_tot, w, expected in REFERENCE_TABLE:
            got = a_b * a_c * s_tot * w
            assert abs(got - expected) < 1e-3, (cluster, task, got, expected)


def test_representative_set_oracle():
    with criterion("per-cluster argmax yields the published 8-task set"):
        best = {}
        for cluster, task, *_, score in REFERENCE_TABLE:
            if cluster not in best or score > best[cluster][1]:
                best[cluster] = (task, score)
        selected = {task for task, _ in best.values()}
        assert selected == REFERENCE_REPRESENTATIVES


def test_pca_property_suite():
    with criterion("PCA orthonormality, ratio shape, round trip, eigen oracle"):
        rng = np.random.default_rng(0)
        for _ in range(5):
            rows = rng.normal(size=(5, 4))
            model = pca_fit(rows)
            p = model.n_components
            gram = model.components @ model.components.T
            assert np.max(np.abs(gram - np.eye(p))) < 1e-8
            ratios = model.explained_variance_ratio
            assert np.all(np.diff(ratios) <= 1e-15)
            assert ratios.sum() <= 1 + 1e-12

            scores = pca_transform(model, rows)
            standardized = (rows - model.mean) / model.scale
            assert np.max(np.abs(scores @ model.components - standardized)) < 1e-8

            cov = standardized.T @ standardized / (rows.shape[0] - 1)
            eigvals, _ = jacobi_eigh(cov)
            eigvals = np.clip(eigvals, 0.0, None)
            expected = (eigvals / eigvals.sum())[:p]
            rel = np.abs(ratios - expected) / np.maximum(np.abs(expected), 1e-12)
            assert np.max(rel) < 1e-8


def test_clustering_suite():
    with criterion("Lloyd monotonicity, blob ARI, brute-force inertia, silhouette"):
        rng = np.random.default_rng(1)
        # planted blobs at 10x separation recover the partition exactly
        std = 0.5
        centers = [np.zeros(2), np.array([10 * std * 10, 0.0]),
                   np.array([0.0, 10 * std * 10])]
        points = np.vstack([c + rng.normal(0, std, size=(12, 2)) for c in centers])
        planted = np.repeat([0, 1, 2], 12)
        model = kmeans(points, 3, seed=0)
        assert adjusted_rand_index(planted, model.assignments) == 1.0
        assert np.all(np.diff(model.inertia_history) <= 1e-9)

        # global optimum on 8 points, verified by enumeration
        small = np.vstack([rng.normal(0, 0.3, size=(4, 2)),
                           rng.normal(8, 0.3, size=(4, 2))])
        best = kmeans(small, 2, seed=0, restarts=10)
        assert best.inertia == pytest.approx(
            brute_force_min_inertia(small, 2), rel=1e-9
        )
        assert np.all(np.diff(best.inertia_history) <= 1e-9)

        score = silhouette_score(np.array([[0.0], [0.1], [10.0], [10.1]]),
                                 [0, 0, 1, 1])
        assert score == pytest.approx(0.990, abs=1e-3)


def test_fcnn_gradient_check():
    with criterion("analytic gradients match central differences < 1e-4"):
        from test_nn import finite_difference_gradients, max_relative_error

        config = FcnnConfig(input_dim=3, hidden=(4,), dropout_rate=0.2, seed=11)
        model = FcnnModel(config)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        masks = model.draw_dropout_masks(5, rng)
        _, analytic = loss_and_gradients(model, x, y, masks=masks)
        numeric = finite_difference_gradients(model, x, y, masks, h=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4


def test_statistics_suite():
    with criterion("ANOVA hand example, degenerate case, Bonferroni, beta identity"):
        result = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert result.f_stat == pytest.approx(1.5, abs=1e-12)
        assert (result.df_between, result.df_within) == (1, 4)

        identical = one_way_anova([[1, 2, 3]] * 3)
        assert identical.f_stat == 0.0 and identical.p_value == 1.0

        flat = one_way_anova([[2.0, 2.0], [2.0, 2.0]])
        assert flat.f_stat == 0.0 and flat.p_value == 1.0 and flat.degenerate

        results = pairwise_bonferroni(
            [("a", [1.0, 2.0, 3.0, 4.0]), ("b", [1.2, 1.9, 3.3, 3.8])], m=3,
        )
        for r in results:
            assert r.p_adjusted == min(1.0, 3 * r.p_raw)
            assert r.p_adjusted >= r.p_raw

        for a in (0.5, 1.0, 2.5, 7.0, 30.0):
            for b in (0.5, 1.0, 2.5, 7.0, 30.0):
                for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                    left = regularized_incomplete_beta(a, b, x)
                    right = regularized_incomplete_beta(b, a, 1.0 - x)
                    assert abs(left + right - 1.0) < 1e-10


@pytest.fixture(scope="module")
def synthetic_study(tmp_path_factory):
    """Full pipeline on the default synthetic spec, via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir)]) == 0
    config_path = data_dir / "config.json"
    out_dir = Path(json.loads(config_path.read_text())["paths"]["out_dir"])
    jobs = str(min(4, os.cpu_count() or 1))
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["cluster", "--config", str(config_path)]) == 0
    assert main(["select", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path), "--jobs", jobs]) == 0
    assert main(["report", "--config", str(config_path)]) == 0
    ground_truth = json.loads((data_dir / "ground_truth.json").read_text())
    return out_dir, ground_truth


def test_end_to_end_recovers_planted_k(synthetic_study):
    with criterion("end-to-end: silhouette scan recovers K* = 8"):
        out_dir, _ = synthetic_study
        selection = json.loads((out_dir / "pca_selection.json").read_text())
        assert selection["best_k"] == 8


def test_end_to_end_one_representative_per_cluster(synthetic_study):
    with criterion("end-to-end: one representative task per planted cluster"):
        out_dir, ground_truth = synthetic_study
        conditions = json.loads((out_dir / "conditions.json").read_text())
        optimized = conditions["optimized"]["tasks"]
        clusters = {ground_truth["task_clusters"][t] for t in optimized}
        assert len(optimized) == 8
        assert clusters == set(range(8))

        # recovered row partition agrees with the planted task map
        from taskopt.cli import _read_row_labels
        from taskopt.cluster import ClusterModel

        model = ClusterModel.from_json(out_dir / "cluster_model.json")
        labels = _read_row_labels(out_dir / "row_labels.csv")
        planted = [ground_truth["task_clusters"][t] for _, t, _ in labels]
        assert adjusted_rand_index(planted, model.assignments) >= 0.9


def test_end_to_end_rmse_ordering(synthetic_study):
    with criterion("end-to-end: optimized <= 0.95*cyclic and <= 1.15*all RMSE"):
        out_dir, _ = synthetic_study
        with (out_dir / "summary.csv").open() as fh:
            rows = {row["condition"]: row for row in csv.DictReader(fh)}
        rmse = {name: float(rows[name]["rmse_mean"]) for name in rows}
        assert set(rmse) == {"all", "optimized", "cyclic"}
        assert rmse["optimized"] <= 0.95 * rmse["cyclic"], rmse
        assert rmse["optimized"] <= 1.15 * rmse["all"], rmse


def test_real_dataset_mode():
    """Best-effort check against the restricted source dataset.

    Runs only when TASKOPT_DATASET_DIR points at a directory holding
    profiles.csv, sensors.csv, and tasks.json in the documented
    formats. Preprocessing details (interpolation length, scaling, task
    weights) are under-specified upstream, so the bands are wide.
    """
    dataset_dir = os.environ.get("TASKOPT_DATASET_DIR")
    if not dataset_dir:
        print("ACCEPTANCE SKIP: real-dataset mode (TASKOPT_DATASET_DIR not set)")
        pytest.skip("real dataset not provided")
    with criterion("dataset mode: K* = 8 +/- 1 and optimized RMSE 0.30 +/- 0.10"):
        dataset = Path(dataset_dir)
        out_dir = dataset / "run"
        config_path = dataset / "taskopt_config.json"
        config = {
            "paths": {
                "profiles": str(dataset / "profiles.csv"),
                "sensors": str(dataset / "sensors.csv"),
                "tasks": str(dataset / "tasks.json"),
                "out_dir": str(out_dir),
            },
            "seed": 7,
        }
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        jobs = str(min(4, os.cpu_count() or 1))
        for command in ("ingest", "cluster", "select"):
            assert main([command, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--jobs", jobs]) == 0
        assert main(["report", "--config", str(config_path)]) == 0

        selection = json.loads((out_dir / "pca_selection.json").read_text())
        assert abs(selection["best_k"] - 8) <= 1
        with (out_dir / "summary.csv").open() as fh:
            rows = {row["condition"]: row for row in csv.DictReader(fh)}
        optimized = float(rows["optimized"]["rmse_mean"])
        assert abs(optimized - 0.30) <= 0.10
