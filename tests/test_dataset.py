import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_rows, sensor_row, write_profile_csv, write_sensor_csv
from taskopt.dataset import (
    SENSOR_COLUMNS,
    DataFormatError,
    TaskInfo,
    TaskManifest,
    build_feature_matrix,
    default_task_manifest,
    exclude_subjects,
    load_profiles,
    load_sensor_samples,
    resample_linear,
    unpack_row,
)


class TestResample:
    def test_constant_signal(self):
        out = resample_linear([1.0, 1.0, 1.0], 5)
        assert np.array_equal(out, np.ones(5))

    def test_linear_ramp(self):
        # Closed form: uniform grid over [0, 3] hits the half-integers.
        out = resample_linear([0.0, 1.0, 2.0, 3.0], 7)
        assert np.allclose(out, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-15)

    def test_identity_when_already_at_target(self):
        signal = np.array([3.0, -1.0, 4.0, 1.5])
        out = resample_linear(signal, 4)
        assert np.array_equal(out, signal)
        out[0] = 99.0
        assert signal[0] == 3.0  # returned a copy

    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=13)
        out = resample_linear(signal, 37)
        assert out[0] == signal[0]
        assert out[-1] == signal[-1]

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 40),
        n=st.integers(2, 40),
        slope=st.floats(-5, 5),
        intercept=st.floats(-5, 5),
    )
    def test_exact_on_affine_signals(self, m, n, slope, intercept):
        signal = slope * np.arange(m) + intercept
        out = resample_linear(signal, n)
        expected = slope * (np.arange(n) * (m - 1) / (n - 1)) + intercept
        assert np.allclose(out, expected, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            resample_linear([1.0], 5)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target_length"):
            resample_linear([1.0, 2.0], 1)


class TestLoadProfiles:
    def test_basic_load_and_resample(self, tmp_path, small_manifest):
        rows = profile_rows("s1", "walk", "t1", [0.0, 1.0, 2.0, 3.0])
        write_profile_csv(tmp_path / "p.csv", rows)
        profiles, stats = load_profiles(tmp_path / "p.csv", small_manifest, 7)
        assert len(profiles) == 1
        assert np.allclose(profiles[0].moment, [0, 0.5, 1, 1.5, 2, 2.5, 3])
        assert profiles[0].length == 7
        assert stats.rows_read == 4

    def test_missing_file(self, tmp_path, small_manifest):
        with pytest.raises(DataFormatError, match="not found"):
            load_profiles(tmp_path / "nope.csv", small_manifest, 10)

    def test_malformed_row_reports_line(self, tmp_path, small_manifest):
        rows = profile_rows("s1", "walk", "t1", [0.0, 1.0])
        rows.append(("s1", "walk", "t2", 0, "abc", 0.0, 0.0))
        write_profile_csv(tmp_path / "p.csv", rows)
        with pytest.raises(DataFormatError, match="line 4"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_wrong_arity_reports_line(self, tmp_path, small_manifest):
        path = tmp_path / "p.csv"
        write_profile_csv(path, profile_rows("s1", "walk", "t1", [0.0, 1.0]))
        with path.open("a") as fh:
            fh.write("s1,walk,t2,0,1.0\n")
        with pytest.raises(DataFormatError, match="line 4"):
            load_profiles(path, small_manifest, 5)

    def test_unknown_task(self, tmp_path, small_manifest):
        write_profile_csv(tmp_path / "p.csv",
                          profile_rows("s1", "moonwalk", "t1", [0.0, 1.0]))
        with pytest.raises(DataFormatError, match="unknown task id"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_non_finite_value(self, tmp_path, small_manifest):
        write_profile_csv(tmp_path / "p.csv",
                          profile_rows("s1", "walk", "t1", [0.0, "nan"]))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_single_sample_trial_rejected(self, tmp_path, small_manifest):
        write_profile_csv(tmp_path / "p.csv",
                          profile_rows("s1", "walk", "t1", [0.5]))
        with pytest.raises(DataFormatError, match="at least 2"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_duplicate_sample_index(self, tmp_path, small_manifest):
        rows = profile_rows("s1", "walk", "t1", [0.0, 1.0])
        rows.append(("s1", "walk", "t1", 1, 2.0, 0.0, 0.0))
        write_profile_csv(tmp_path / "p.csv", rows)
        with pytest.raises(DataFormatError, match="duplicate sample_index"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_non_contiguous_index(self, tmp_path, small_manifest):
        rows = [("s1", "walk", "t1", 0, 0.0, 0.0, 0.0),
                ("s1", "walk", "t1", 2, 1.0, 0.0, 0.0)]
        write_profile_csv(tmp_path / "p.csv", rows)
        with pytest.raises(DataFormatError, match="not contiguous"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    def test_excluded_task_dropped_and_counted(self, tmp_path, small_manifest):
        rows = profile_rows("s1", "walk", "t1", [0.0, 1.0])
        rows += profile_rows("s1", "wiggle", "t1", [0.0, 1.0, 2.0])
        write_profile_csv(tmp_path / "p.csv", rows)
        profiles, stats = load_profiles(tmp_path / "p.csv", small_manifest, 5)
        assert [p.task for p in profiles] == ["walk"]
        assert stats.rows_excluded_task == {"wiggle": 3}

    def test_deterministic_order(self, tmp_path, small_manifest):
        rows = profile_rows("s2", "walk", "t1", [1.0, 2.0])
        rows += profile_rows("s1", "jump", "t2", [1.0, 2.0])
        rows += profile_rows("s1", "jump", "t1", [1.0, 2.0])
        write_profile_csv(tmp_path / "p.csv", rows)
        profiles, _ = load_profiles(tmp_path / "p.csv", small_manifest, 4)
        assert [p.key for p in profiles] == [
            ("s1", "jump", "t1"), ("s1", "jump", "t2"), ("s2", "walk", "t1"),
        ]


class TestFeatureMatrix:
    def _profiles(self, small_manifest, tmp_path, n_tasks=2):
        rows = []
        for subject in ("s1", "s2"):
            for task in ("walk", "jump")[:n_tasks]:
                rows += profile_rows(subject, task, "t1",
                                     list(np.linspace(0, 1, 4)))
        write_profile_csv(tmp_path / "p.csv", rows)
        profiles, _ = load_profiles(tmp_path / "p.csv", small_manifest, 100)
        return profiles

    def test_shape(self, small_manifest, tmp_path):
        profiles = self._profiles(small_manifest, tmp_path, n_tasks=1)
        matrix = build_feature_matrix(profiles)
        assert matrix.rows.shape == (2, 300)
        assert matrix.row_labels == [("s1", "walk", "t1"), ("s2", "walk", "t1")]

    def test_concatenation_order(self):
        from taskopt.dataset import CycleProfile
        p = CycleProfile("s", "t", "1",
                         moment=np.array([1.0, 2.0]),
                         angle=np.array([3.0, 4.0]),
                         velocity=np.array([5.0, 6.0]))
        matrix = build_feature_matrix([p])
        assert np.array_equal(matrix.rows[0], [1, 2, 3, 4, 5, 6])

    def test_duplicate_triple_rejected(self):
        from taskopt.dataset import CycleProfile
        p = CycleProfile("s", "t", "1", np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            build_feature_matrix([p, p])

    def test_mismatched_lengths(self):
        from taskopt.dataset import CycleProfile
        p1 = CycleProfile("s", "t", "1", np.zeros(3), np.zeros(3), np.zeros(3))
        p2 = CycleProfile("s", "t", "2", np.zeros(4), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="mismatched"):
            build_feature_matrix([p1, p2])

    def test_empty(self):
        with pytest.raises(ValueError, match="zero profiles"):
            build_feature_matrix([])

    def test_row_unpack_round_trip(self, small_manifest, tmp_path):
        profiles = self._profiles(small_manifest, tmp_path)
        matrix = build_feature_matrix(profiles)
        for i in range(matrix.n):
            back = unpack_row(matrix, i)
            original = next(p for p in profiles if p.key == back.key)
            assert np.array_equal(back.moment, original.moment)
            assert np.array_equal(back.angle, original.angle)
            assert np.array_equal(back.velocity, original.velocity)

    def test_ingest_deterministic(self, small_manifest, tmp_path):
        rows = profile_rows("s1", "walk", "t1", [0.1, 0.7, 0.3])
        write_profile_csv(tmp_path / "a.csv", rows)
        write_profile_csv(tmp_path / "b.csv", rows)
        pa, _ = load_profiles(tmp_path / "a.csv", small_manifest, 50)
        pb, _ = load_profiles(tmp_path / "b.csv", small_manifest, 50)
        ma = build_feature_matrix(pa)
        mb = build_feature_matrix(pb)
        assert ma.rows.tobytes() == mb.rows.tobytes()
        assert ma.row_labels == mb.row_labels


class TestExcludeSubjects:
    def _make(self, small_manifest, counts):
        """counts: subject -> number of cyclic trials (plus one jump trial each)."""
        from taskopt.dataset import CycleProfile
        profiles = []
        for subject, n in counts.items():
            for i in range(n):
                profiles.append(CycleProfile(subject, "walk", f"t{i}",
                                             np.zeros(3), np.zeros(3), np.zeros(3)))
            profiles.append(CycleProfile(subject, "jump", "t0",
                                         np.zeros(3), np.zeros(3), np.zeros(3)))
        return profiles

    def test_subject_below_threshold_dropped(self, small_manifest):
        profiles = self._make(small_manifest, {"a": 0, "b": 2})
        kept, report = exclude_subjects(profiles, 1, small_manifest)
        assert {p.subject for p in kept} == {"b"}
        assert report.dropped == [("a", 0)]
        assert report.kept_subjects == ["b"]

    def test_all_meet_threshold(self, small_manifest):
        profiles = self._make(small_manifest, {"a": 2, "b": 2})
        kept, report = exclude_subjects(profiles, 2, small_manifest)
        assert kept == profiles
        assert report.dropped == []

    def test_zero_threshold_keeps_everyone(self, small_manifest):
        profiles = self._make(small_manifest, {"a": 0, "b": 0})
        kept, report = exclude_subjects(profiles, 0, small_manifest)
        assert kept == profiles

    def test_empty_result_flagged(self, small_manifest):
        profiles = self._make(small_manifest, {"a": 0})
        kept, report = exclude_subjects(profiles, 5, small_manifest)
        assert kept == []
        assert report.all_dropped


class TestLoadSensors:
    def test_basic(self, tmp_path, small_manifest):
        rows = [sensor_row("s1", "walk", "t1", 0.0, target=1.5),
                sensor_row("s1", "walk", "t1", 0.1, values=[0.2] * 14, target=1.6)]
        write_sensor_csv(tmp_path / "s.csv", rows)
        table, stats = load_sensor_samples(tmp_path / "s.csv", small_manifest)
        assert table.n == 2
        assert table.x.shape == (2, 14)
        assert table.x[1].tolist() == [0.2] * 14
        assert table.y.tolist() == [1.5, 1.6]
        assert table.times.tolist() == [0.0, 0.1]
        assert stats.n_items == 2

    def test_wrong_arity(self, tmp_path, small_manifest):
        path = tmp_path / "s.csv"
        write_sensor_csv(path, [sensor_row("s1", "walk", "t1", 0.0)])
        with path.open("a") as fh:
            fh.write("s1,walk,t1,0.2," + ",".join(["0.1"] * 13) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_sensor_samples(path, small_manifest)

    def test_non_monotonic_time(self, tmp_path, small_manifest):
        rows = [sensor_row("s1", "walk", "t1", 0.2),
                sensor_row("s1", "walk", "t1", 0.1)]
        write_sensor_csv(tmp_path / "s.csv", rows)
        with pytest.raises(DataFormatError, match="line 3: time_s not strictly increasing"):
            load_sensor_samples(tmp_path / "s.csv", small_manifest)

    def test_non_finite_value(self, tmp_path, small_manifest):
        rows = [sensor_row("s1", "walk", "t1", 0.0),
                sensor_row("s1", "walk", "t1", 0.1, values=[0.1] * 13 + ["inf"])]
        write_sensor_csv(tmp_path / "s.csv", rows)
        with pytest.raises(DataFormatError, match="line 3: non-finite value in column thigh_gz"):
            load_sensor_samples(tmp_path / "s.csv", small_manifest)

    @pytest.mark.parametrize("row, message", [
        (sensor_row("", "walk", "t1", 0.0), "line 2: empty subject/task/trial"),
        (sensor_row("s1", "fly", "t1", 0.0), "line 2: unknown task id 'fly'"),
    ])
    def test_bad_ids(self, tmp_path, small_manifest, row, message):
        write_sensor_csv(tmp_path / "s.csv", [row])
        with pytest.raises(DataFormatError, match=message):
            load_sensor_samples(tmp_path / "s.csv", small_manifest)

    def test_bad_header(self, tmp_path, small_manifest):
        path = tmp_path / "s.csv"
        path.write_text(",".join(SENSOR_COLUMNS[:-1]) + "\n")
        with pytest.raises(DataFormatError, match="line 1: bad header"):
            load_sensor_samples(path, small_manifest)

    def test_excluded_task_counted(self, tmp_path, small_manifest):
        rows = [sensor_row("s1", "walk", "t1", 0.0),
                sensor_row("s1", "wiggle", "t1", 0.0),
                sensor_row("s1", "wiggle", "t1", 0.1)]
        write_sensor_csv(tmp_path / "s.csv", rows)
        table, stats = load_sensor_samples(tmp_path / "s.csv", small_manifest)
        assert table.tasks.tolist() == ["walk"]
        assert stats.rows_read == 3
        assert stats.rows_excluded_task == {"wiggle": 2}
        assert stats.n_items == 1

    def test_grouped_sorted(self, tmp_path, small_manifest):
        # Interleaved trials: grouped by sorted key, file order kept within a trial.
        rows = [sensor_row("s2", "walk", "t1", 0.0, target=1.0),
                sensor_row("s1", "walk", "t1", 0.0, target=2.0),
                sensor_row("s2", "walk", "t1", 0.5, target=3.0),
                sensor_row("s1", "jump", "t1", 0.0, target=4.0),
                sensor_row("s1", "walk", "t1", 0.2, target=5.0)]
        write_sensor_csv(tmp_path / "s.csv", rows)
        table, _ = load_sensor_samples(tmp_path / "s.csv", small_manifest)
        keys = list(zip(table.subjects, table.tasks, table.trials))
        assert keys == [("s1", "jump", "t1"), ("s1", "walk", "t1"),
                        ("s1", "walk", "t1"), ("s2", "walk", "t1"),
                        ("s2", "walk", "t1")]
        assert table.y.tolist() == [4.0, 2.0, 5.0, 1.0, 3.0]
        assert table.times.tolist() == [0.0, 0.0, 0.2, 0.0, 0.5]

    def test_quoted_ids_kept_intact(self, tmp_path, small_manifest):
        odd = 's01,"x"'
        path = tmp_path / "s.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SENSOR_COLUMNS)
            writer.writerow(sensor_row(odd, "walk", "t,1", 0.0))
            writer.writerow(sensor_row("s02", "walk", "t1", 0.0))
        table, _ = load_sensor_samples(path, small_manifest)
        assert table.subjects.tolist() == [odd, "s02"]
        assert table.trials.tolist() == ["t,1", "t1"]
        assert table.x.shape == (2, 14)


class TestManifest:
    def test_round_trip(self, tmp_path, small_manifest):
        small_manifest.to_json(tmp_path / "tasks.json")
        back = TaskManifest.from_json(tmp_path / "tasks.json")
        assert back.ids() == small_manifest.ids()
        assert back.cyclic_ids() == small_manifest.cyclic_ids()
        assert back.weights() == small_manifest.weights()

    def test_invalid_w(self):
        with pytest.raises(DataFormatError, match="outside"):
            TaskManifest([TaskInfo("walk", True, 1.5)])

    def test_duplicate_id(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            TaskManifest([TaskInfo("walk", True, 1.0), TaskInfo("walk", False, 0.9)])

    def test_default_manifest_counts(self):
        manifest = default_task_manifest()
        assert len(manifest.active_ids()) == 20
        assert len(manifest.cyclic_ids()) == 8
        assert len(manifest.ids()) == 27
        assert "meander" in manifest.ids()
        assert "meander" not in manifest.active_ids()
