import dataclasses
import json

import numpy as np
import pytest

from taskopt.cluster import select_k
from taskopt.dataset import TaskManifest, load_profiles, load_sensor_samples
from taskopt.errors import TaskOptError
from taskopt.pca import pca_fit, pca_transform, select_components
from taskopt.synth import SynthSpec, generate

TINY = SynthSpec(
    n_subjects=4, n_tasks=6, n_clusters=3, profile_trials=2,
    cycle_length=30, sensor_trials=2, sensor_samples=10, seed=11,
)


class TestDeterminism:
    def test_same_spec_byte_identical_files(self, tmp_path):
        a = generate(TINY, tmp_path / "a")
        b = generate(TINY, tmp_path / "b")
        for name in ("profiles.csv", "sensors.csv", "tasks.json",
                     "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
        assert a.separation_ratio == b.separation_ratio

    def test_different_seed_different_data(self, tmp_path):
        generate(TINY, tmp_path / "a")
        other = dataclasses.replace(TINY, seed=12)
        generate(other, tmp_path / "b")
        assert (tmp_path / "a" / "profiles.csv").read_bytes() != \
            (tmp_path / "b" / "profiles.csv").read_bytes()


class TestStructure:
    def test_separation_enforced(self, tmp_path):
        result = generate(TINY, tmp_path / "d")
        assert result.separation_ratio >= TINY.min_separation

    def test_unreachable_separation_raises(self, tmp_path):
        impossible = dataclasses.replace(TINY, min_separation=1e9)
        with pytest.raises(TaskOptError, match="separation"):
            generate(impossible, tmp_path / "d")

    def test_every_cluster_owns_a_task(self, tmp_path):
        result = generate(TINY, tmp_path / "d")
        assert set(result.task_clusters.values()) == set(range(TINY.n_clusters))

    def test_zero_noise_rows_cluster_cleanly(self, tmp_path):
        spec = dataclasses.replace(
            TINY, profile_noise_std=0.0, subject_effect_std=0.0,
            task_offset_std=0.0,
        )
        result = generate(spec, tmp_path / "d")
        manifest = TaskManifest.from_json(result.tasks_path)
        matrix, _ = load_profiles(result.profiles_path, manifest,
                                  spec.cycle_length)
        clusters = np.array([result.task_clusters[t]
                             for _, t, _ in matrix.row_labels])
        centroids = {g: matrix.rows[clusters == g].mean(axis=0)
                     for g in set(clusters)}
        for i in range(matrix.n):
            own = np.linalg.norm(matrix.rows[i] - centroids[clusters[i]])
            others = min(np.linalg.norm(matrix.rows[i] - centroids[g])
                         for g in centroids if g != clusters[i])
            assert own < others

    def test_flat_structure_gives_low_silhouettes(self, tmp_path):
        # One latent cluster and no task/subject offsets: nothing but
        # noise for k-means to find.
        spec = dataclasses.replace(TINY, n_clusters=1, n_tasks=6,
                                   cyclic_clusters=1, task_offset_std=0.0,
                                   subject_effect_std=0.0)
        result = generate(spec, tmp_path / "d")
        manifest = TaskManifest.from_json(result.tasks_path)
        matrix, _ = load_profiles(result.profiles_path, manifest,
                                  spec.cycle_length)
        model = pca_fit(matrix.rows)
        p, _ = select_components(model, 0.70)
        scores = pca_transform(model, matrix.rows, p)
        scan = select_k(scores, range(2, 7), seed=1)
        assert max(s for _, s in scan.table) < 0.3

    def test_manifest_flags_and_weights(self):
        spec = SynthSpec()
        manifest = spec.manifest()
        assert len(manifest.active_ids()) == spec.n_tasks
        # tasks in the first three planted clusters are the cyclic ones
        for i, task in enumerate(spec.tasks()):
            assert manifest.is_cyclic(task) == (i % spec.n_clusters < 3)
        weights = manifest.weights()
        assert weights["task01"] == 1.0
        assert weights["task09"] == 0.9
        assert weights["task17"] == 0.8


class TestEmittedFiles:
    def test_loaders_accept_output(self, tmp_path):
        result = generate(TINY, tmp_path / "d")
        manifest = TaskManifest.from_json(result.tasks_path)
        matrix, pstats = load_profiles(result.profiles_path, manifest,
                                       TINY.cycle_length)
        table, sstats = load_sensor_samples(result.sensors_path, manifest)
        assert matrix.n == TINY.n_subjects * TINY.n_tasks * TINY.profile_trials
        n = TINY.n_subjects * TINY.n_tasks * TINY.sensor_trials * TINY.sensor_samples
        assert table.x.shape == (n, 14)
        keys = list(zip(table.subjects, table.tasks, table.trials))
        assert keys == sorted(keys)  # grouped by trial, trials in sorted order
        assert len(np.unique(table.codes)) == (TINY.n_subjects * TINY.n_tasks
                                               * TINY.sensor_trials)
        assert sstats.rows_read == n and sstats.rows_excluded_task == {}
        assert pstats.rows_excluded_task == {}
        assert matrix.d == 3 * TINY.cycle_length

    def test_ground_truth_contents(self, tmp_path):
        result = generate(TINY, tmp_path / "d")
        raw = json.loads(result.ground_truth_path.read_text())
        assert raw["task_clusters"] == {
            t: c for t, c in result.task_clusters.items()
        }
        assert raw["cyclic_clusters"] == list(range(TINY.cyclic_clusters))
        assert raw["separation_ratio"] >= TINY.min_separation

    def test_target_follows_fixed_map_of_inputs(self, tmp_path):
        from taskopt.synth import _moment_map

        spec = dataclasses.replace(TINY, target_noise_std=0.0)
        result = generate(spec, tmp_path / "d")
        manifest = TaskManifest.from_json(result.tasks_path)
        table, _ = load_sensor_samples(result.sensors_path, manifest)
        assert np.allclose(table.y, _moment_map(table.x), atol=1e-9)


class TestSpecValidation:
    def test_task_cluster_mismatch(self):
        with pytest.raises(ValueError, match="one task per cluster"):
            dataclasses.replace(TINY, n_tasks=2, n_clusters=3).validate()

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="target_noise_std"):
            dataclasses.replace(TINY, target_noise_std=-1.0).validate()

    def test_bad_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            dataclasses.replace(TINY, cycle_length=1).validate()
