import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import profile_rows, sensor_row, write_profile_csv, write_sensor_csv
from oracles import load_profiles_rowwise, load_sensor_samples_rowwise
from taskopt import dataset
from taskopt.dataset import (
    PROFILE_COLUMNS,
    SENSOR_COLUMNS,
    DataFormatError,
    FeatureMatrix,
    TaskInfo,
    TaskManifest,
    default_task_manifest,
    exclude_subjects,
    load_profiles,
    load_sensor_samples,
    resample_linear,
)

LOADERS = {
    "profiles": (PROFILE_COLUMNS, lambda p, m: load_profiles(p, m, 5),
                 lambda p, m: load_profiles_rowwise(p, m, 5)),
    "sensors": (SENSOR_COLUMNS, load_sensor_samples, load_sensor_samples_rowwise),
}
# Each value replaces one number cell of one row.
NUMBER_TOKENS = {"underscore": "1_0", "full-width digit": "\uff11", "nan": "nan",
                 "inf": "inf", "padded": " 1.5 "}
CORRUPTIONS = [*NUMBER_TOKENS, "empty id", "unknown task", "extra column",
               "missing column", "repeat first index or time", "skip index or time",
               "whitespace line", "bare CR", None]


def _trial_rows(kind, key, samples):
    """Clean rows of one trial: its sample_index or time_s, then ``samples``."""
    return [[*key, str(i) if kind == "profiles" else repr(0.25 * i), *map(repr, numbers)]
            for i, numbers in enumerate(samples)]


def _interleave(rows_by_trial, labels):
    """Merge the trials' rows in the order of ``labels``, keeping each trial's order."""
    queues = [list(rows) for rows in rows_by_trial]
    return [queues[t].pop(0) for t in labels]


def _write_case(path, kind, rows, corruption, r, c, pos):
    """Write the header and ``rows``, with one ``corruption`` of row ``r``.

    ``c`` picks the cell a number token or empty id goes into, ``pos``
    where in the line a bare CR goes.
    """
    rows = [list(row) for row in rows]
    row = rows[r]
    if corruption in NUMBER_TOKENS:
        row[c] = NUMBER_TOKENS[corruption]
    elif corruption == "empty id":
        row[c % 3] = ""
    elif corruption == "unknown task":
        row[1] = "fly"
    elif corruption == "extra column":
        row.append("0")
    elif corruption == "missing column":
        row.pop()
    elif corruption == "repeat first index or time":
        row[3] = rows[0][3]
    elif corruption == "skip index or time":
        row[3] = "7"
    chunks = []
    for cells in [LOADERS[kind][0], *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cells)
        chunks.append(buf.getvalue())
    line = chunks[r + 1]
    if corruption == "whitespace line":
        chunks.insert(r + 1, "  \n")
    elif corruption == "bare CR":
        chunks[r + 1] = line[: pos % len(line)] + "\r" + line[pos % len(line):]
    path.write_text("".join(chunks), encoding="utf-8", newline="")


def _outcome(load, path, manifest):
    """What a loader gives, in a form ``==`` compares exactly."""
    try:
        result, stats = load(path, manifest)
    except DataFormatError as exc:
        return str(exc)
    if isinstance(result, FeatureMatrix):
        rows = result.rows
        return stats, (rows.dtype, rows.shape, rows.tobytes()), result.row_labels
    columns = (result.x, result.y, result.times, result.codes)
    return stats, [(a.dtype, a.shape, a.tobytes()) for a in columns], \
        result.keys.tolist()


def _assert_same(kind, path, manifest):
    _, fast, checked = LOADERS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(fast, path, manifest) == _outcome(checked, path, manifest)


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
        matrix, stats = load_profiles(tmp_path / "p.csv", small_manifest, 7)
        assert matrix.rows.shape == (1, 21)
        assert np.allclose(matrix.rows[0, :7], [0, 0.5, 1, 1.5, 2, 2.5, 3])
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
        matrix, stats = load_profiles(tmp_path / "p.csv", small_manifest, 5)
        assert [task for _, task, _ in matrix.row_labels] == ["walk"]
        assert stats.rows_excluded_task == {"wiggle": 3}

    def test_deterministic_order(self, tmp_path, small_manifest):
        rows = profile_rows("s2", "walk", "t1", [1.0, 2.0])
        rows += profile_rows("s1", "jump", "t2", [1.0, 2.0])
        rows += profile_rows("s1", "jump", "t1", [1.0, 2.0])
        write_profile_csv(tmp_path / "p.csv", rows)
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 4)
        assert matrix.row_labels == [
            ("s1", "jump", "t1"), ("s1", "jump", "t2"), ("s2", "walk", "t1"),
        ]


class TestFeatureMatrix:
    def test_shape(self, small_manifest, tmp_path):
        rows = []
        for subject in ("s1", "s2"):
            rows += profile_rows(subject, "walk", "t1", list(np.linspace(0, 1, 4)))
        write_profile_csv(tmp_path / "p.csv", rows)
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 100)
        assert matrix.rows.shape == (2, 300)
        assert matrix.row_labels == [("s1", "walk", "t1"), ("s2", "walk", "t1")]

    def test_concatenation_order(self, small_manifest, tmp_path):
        # At its native length a trial is copied: moment, then angle, then velocity.
        write_profile_csv(tmp_path / "p.csv", profile_rows(
            "s", "walk", "1", [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 2)
        assert np.array_equal(matrix.rows[0], [1, 2, 3, 4, 5, 6])

    def test_duplicate_triple_rejected(self, small_manifest, tmp_path):
        # A trial written twice repeats its sample indices; a trial whose
        # rows are split up by another trial's still gives one row.
        walk = profile_rows("s", "walk", "1", [0.0, 1.0])
        write_profile_csv(tmp_path / "p.csv", walk + walk)
        with pytest.raises(DataFormatError, match="line 4: duplicate sample_index 0"):
            load_profiles(tmp_path / "p.csv", small_manifest, 3)
        jump = profile_rows("s", "jump", "1", [0.0, 1.0])
        write_profile_csv(tmp_path / "p.csv", [walk[0], *jump, walk[1]])
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 3)
        assert matrix.row_labels == [("s", "jump", "1"), ("s", "walk", "1")]

    def test_mismatched_lengths(self, small_manifest, tmp_path):
        # Trials of different native lengths all become rows of 3 x target_length.
        rows = profile_rows("s", "walk", "1", [0.0, 1.0, 4.0])
        rows += profile_rows("s", "walk", "2", [0.0, 1.0, 2.0, 3.0, 5.0, 8.0])
        write_profile_csv(tmp_path / "p.csv", rows)
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 5)
        assert matrix.rows.shape == (2, 15)
        assert np.array_equal(matrix.rows[0, :5], resample_linear([0.0, 1.0, 4.0], 5))
        assert np.array_equal(matrix.rows[1, :5],
                              resample_linear([0.0, 1.0, 2.0, 3.0, 5.0, 8.0], 5))

    def test_empty(self, small_manifest, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(",".join(PROFILE_COLUMNS) + "\n")
        matrix, stats = load_profiles(path, small_manifest, 4)
        assert matrix.rows.shape == (0, 12) and matrix.row_labels == []
        assert stats.n_items == 0
        kept, report = exclude_subjects(matrix, 1, small_manifest)
        assert kept.n == 0 and report.all_dropped

    def test_row_unpack_round_trip(self, small_manifest, tmp_path):
        # Each row splits back into its trial's resampled moment, angle and velocity.
        rng = np.random.default_rng(0)
        signals, rows = {}, []
        for n, key in enumerate([("s1", "walk", "t1"), ("s1", "jump", "t1"),
                                 ("s2", "walk", "t1")], start=3):
            signals[key] = rng.normal(size=(3, n))
            rows += profile_rows(*key, *signals[key])
        write_profile_csv(tmp_path / "p.csv", rows)
        matrix, _ = load_profiles(tmp_path / "p.csv", small_manifest, 7)
        assert sorted(signals) == matrix.row_labels
        for key, row in zip(matrix.row_labels, matrix.rows):
            for back, signal in zip(row.reshape(3, 7), signals[key]):
                assert np.array_equal(back, resample_linear(signal, 7))

    def test_ingest_deterministic(self, small_manifest, tmp_path):
        rows = profile_rows("s1", "walk", "t1", [0.1, 0.7, 0.3])
        write_profile_csv(tmp_path / "a.csv", rows)
        write_profile_csv(tmp_path / "b.csv", rows)
        ma, _ = load_profiles(tmp_path / "a.csv", small_manifest, 50)
        mb, _ = load_profiles(tmp_path / "b.csv", small_manifest, 50)
        assert ma.rows.tobytes() == mb.rows.tobytes()
        assert ma.row_labels == mb.row_labels


class TestExcludeSubjects:
    def _make(self, counts):
        """counts: subject -> number of cyclic trials (plus one jump trial each)."""
        labels = []
        for subject, n in counts.items():
            labels += [(subject, "walk", f"t{i}") for i in range(n)]
            labels.append((subject, "jump", "t0"))
        rows = np.arange(3.0 * len(labels)).reshape(-1, 3)
        return FeatureMatrix(rows=rows, row_labels=labels)

    def test_subject_below_threshold_dropped(self, small_manifest):
        matrix = self._make({"a": 0, "b": 2})
        kept, report = exclude_subjects(matrix, 1, small_manifest)
        assert kept.row_labels == matrix.row_labels[1:]
        assert np.array_equal(kept.rows, matrix.rows[1:])
        assert report.dropped == [("a", 0)]
        assert report.kept_subjects == ["b"]

    def test_all_meet_threshold(self, small_manifest):
        matrix = self._make({"a": 2, "b": 2})
        kept, report = exclude_subjects(matrix, 2, small_manifest)
        assert kept.row_labels == matrix.row_labels
        assert np.array_equal(kept.rows, matrix.rows)
        assert report.dropped == []

    def test_zero_threshold_keeps_everyone(self, small_manifest):
        matrix = self._make({"a": 0, "b": 0})
        kept, report = exclude_subjects(matrix, 0, small_manifest)
        assert kept.row_labels == matrix.row_labels
        assert np.array_equal(kept.rows, matrix.rows)

    def test_empty_result_flagged(self, small_manifest):
        matrix = self._make({"a": 0})
        kept, report = exclude_subjects(matrix, 5, small_manifest)
        assert kept.row_labels == [] and kept.rows.shape == (0, 3)
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


class TestFastPath:
    """The one-pass loaders equal the row-by-row ones, errors included."""

    TRIALS = [("s,1", "walk", 't"1'), ("s#2", "jump", "t\n2"), ("s3", "wiggle", "t1")]
    LABELS = [0, 1, 0, 2, 1, 0, 2, 1, 2]  # row 4 is the second sample of trial 1

    def _rows(self, kind):
        width = 3 if kind == "profiles" else 15
        values = [[[0.5 * t + i / 7 + j for j in range(width)] for i in range(3)]
                  for t in range(3)]
        by_trial = [_trial_rows(kind, key, v) for key, v in zip(self.TRIALS, values)]
        return _interleave(by_trial, self.LABELS)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("corruption, expected", [
        ("underscore", "line 6: malformed"), ("full-width digit", "line 6: malformed"),
        ("padded", None),
        ("nan", "line 6: non-finite value"), ("inf", "line 6: non-finite value"),
        ("empty id", "line 6: empty subject/task/trial"),
        ("unknown task", "line 6: unknown task id 'fly'"),
        ("extra column", "line 6: expected"), ("missing column", "line 6: expected"),
        ("repeat first index or time", "line 6: (duplicate sample_index|time_s not)"),
        ("skip index or time", "not contiguous|line 9: time_s not"),
        ("whitespace line", "line 6: expected .* got 1"),
        ("bare CR", "line 6: expected .* got 1"),
        (None, None),
    ])
    def test_explicit_cases(self, tmp_path, small_manifest, kind, corruption, expected):
        path = tmp_path / "in.csv"
        _write_case(path, kind, self._rows(kind), corruption, 4, 5, 1)
        _assert_same(kind, path, small_manifest)
        _, load, _ = LOADERS[kind]
        if expected is None:
            load(path, small_manifest)
        else:
            with pytest.raises(DataFormatError, match=expected):
                load(path, small_manifest)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_cells_checked_in_column_order(self, tmp_path, small_manifest, kind):
        # A non-finite cell before a malformed one is the error named.
        header = LOADERS[kind][0]
        rows = _trial_rows(kind, ("s1", "walk", "t1"), [[0.5] * (len(header) - 4)] * 2)
        rows[1][4], rows[1][5] = "inf", "x"
        path = tmp_path / "in.csv"
        _write_case(path, kind, rows, None, 0, 0, 0)
        _assert_same(kind, path, small_manifest)
        with pytest.raises(DataFormatError,
                           match=f"line 3: non-finite value in column {header[4]}"):
            LOADERS[kind][1](path, small_manifest)

    def test_bad_trials_checked_in_sorted_order(self, tmp_path, small_manifest):
        # s2's one sample comes first in the file, but s1's gap sorts first.
        rows = profile_rows("s2", "walk", "t1", [0.0])
        rows += [("s1", "walk", "t1", 0, 0.0, 0.0, 0.0), ("s1", "walk", "t1", 2, 1.0, 0.0, 0.0)]
        write_profile_csv(tmp_path / "p.csv", rows)
        _assert_same("profiles", tmp_path / "p.csv", small_manifest)
        with pytest.raises(DataFormatError, match="'s1', 'walk', 't1'.*not contiguous"):
            load_profiles(tmp_path / "p.csv", small_manifest, 5)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_clean_file_needs_no_fallback(self, tmp_path, small_manifest, monkeypatch,
                                          kind):
        path = tmp_path / "in.csv"
        _write_case(path, kind, self._rows(kind), None, 0, 0, 0)
        _, load, checked = LOADERS[kind]
        expected = _outcome(checked, path, small_manifest)

        def fail(*args):
            raise AssertionError("called the bad-row locator")

        monkeypatch.setattr(dataset, "_raise_first_bad_row", fail)
        assert _outcome(load, path, small_manifest) == expected

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_refused_file_without_bad_row_never_loads_empty(
            self, tmp_path, small_manifest, monkeypatch, kind):
        # Should numpy and csv.reader ever disagree on a file, it is an error.
        path = tmp_path / "in.csv"
        _write_case(path, kind, self._rows(kind), None, 0, 0, 0)

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(dataset.np, "loadtxt", refuse)
        with pytest.raises(DataFormatError, match="no row breaks a rule"):
            LOADERS[kind][1](path, small_manifest)

    @pytest.mark.parametrize("load", [load_sensor_samples,
                                      load_sensor_samples_rowwise])
    def test_codes_rank_sorted_keys(self, tmp_path, small_manifest, load):
        rows = self._rows("sensors")
        path = tmp_path / "in.csv"
        _write_case(path, "sensors", rows, None, 0, 0, 0)
        table, _ = load(path, small_manifest)
        keys = sorted({tuple(r[:3]) for r in rows if r[1] != "wiggle"})
        assert table.keys.tolist() == [list(k) for k in keys]
        key_of = {float(r[-1]): tuple(r[:3]) for r in rows}  # distinct targets
        assert table.codes.dtype == np.int32
        assert table.codes.tolist() == [keys.index(key_of[y]) for y in table.y.tolist()]

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_header_only_file_loads_without_warning(self, tmp_path, small_manifest, kind):
        path = tmp_path / "in.csv"
        path.write_text(",".join(LOADERS[kind][0]) + "\n\n")
        _assert_same(kind, path, small_manifest)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, stats = LOADERS[kind][1](path, small_manifest)
        assert caught == []
        assert result.n == 0
        assert stats.rows_read == 0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_matches_checked_loader_property(self, tmp_path, small_manifest, kind, data):
        ids = st.sampled_from(["s1", "s,2", 's"3', "s#4", "s\n5", " s6 "])
        trials = data.draw(st.lists(
            st.tuples(ids, st.sampled_from(["walk", "jump", "wiggle"]),
                      st.sampled_from(["t1", "t#2"])),
            min_size=1, max_size=4, unique=True))
        width = 3 if kind == "profiles" else 15
        number = st.floats(allow_nan=False, allow_infinity=False)
        values = [data.draw(st.lists(st.lists(number, min_size=width, max_size=width),
                                     min_size=2, max_size=4)) for _ in trials]
        by_trial = [_trial_rows(kind, key, v) for key, v in zip(trials, values)]
        labels = data.draw(st.permutations(
            [t for t, v in enumerate(values) for _ in v]))
        rows = _interleave(by_trial, labels)
        corruption = data.draw(st.sampled_from(CORRUPTIONS))
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(3, len(rows[0]) - 1))
        pos = data.draw(st.integers(0, 200))
        path = tmp_path / "in.csv"
        _write_case(path, kind, rows, corruption, r, c, pos)
        _assert_same(kind, path, small_manifest)


class TestNumberGrammar:
    """The bad-row locator reads numbers as ``np.loadtxt`` does."""

    # Unicode whitespace, a control character Python strips, and
    # non-ASCII digits (Arabic-Indic one, full-width one).
    ODD = ["\u00a0", "\u2009", "\u3000", "\x1c", "\x85", "\v", "\f", "\t", " ",
           "\u0661", "\uff11"]
    TOKENS = (st.text(st.sampled_from([*"0123456789+-.eE_infatyINFATY", *ODD]), max_size=10)
              | st.integers(-2**66, 2**66).map(str))

    @staticmethod
    def _numpy_reads(token, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                np.loadtxt(["s,t,r," + token], dtype=[("ids", "O", (3,)), ("x", dtype)],
                           delimiter=",", quotechar='"', comments=None, ndmin=1)
            except (ValueError, Warning):
                return False
        return True

    @settings(max_examples=600, deadline=None)
    @given(token=TOKENS)
    def test_accepts_exactly_what_loadtxt_accepts(self, token):
        for dtype, parse in (("f8", float), ("i8", int)):
            accepted = dataset._parse_number(token, parse) is not None
            assert accepted == self._numpy_reads(token, dtype), (token, dtype)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_underscore_number_is_malformed(self, tmp_path, small_manifest, kind):
        # Python's float() reads "1_0" as 10; numpy, and so the loaders, refuse it.
        header, load, _ = LOADERS[kind]
        rows = _trial_rows(kind, ("s1", "walk", "t1"), [[0.5] * (len(header) - 4)] * 2)
        rows[1][5] = "1_0"
        path = tmp_path / "in.csv"
        _write_case(path, kind, rows, None, 0, 0, 0)
        with pytest.raises(DataFormatError,
                           match=f"line 3: malformed value '1_0' in column {header[5]}"):
            load(path, small_manifest)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_malformed_number_in_excluded_row(self, tmp_path, small_manifest, kind):
        # Excluded rows are read too, so their numbers must parse; they
        # need not be finite or ordered.
        header, load, _ = LOADERS[kind]
        width = len(header) - 4
        rows = _trial_rows(kind, ("s1", "walk", "t1"), [[0.5] * width] * 2)
        rows += _trial_rows(kind, ("s1", "wiggle", "t1"), [[float("nan")] * width] * 2)
        rows[3][3] = rows[2][3]  # a repeated index or time
        path = tmp_path / "in.csv"
        _write_case(path, kind, rows, None, 0, 0, 0)
        load(path, small_manifest)
        rows[3][4] = "abc"
        _write_case(path, kind, rows, None, 0, 0, 0)
        with pytest.raises(DataFormatError,
                           match=f"line 5: malformed value 'abc' in column {header[4]}"):
            load(path, small_manifest)


class TestManifest:
    def test_round_trip(self, tmp_path, small_manifest):
        small_manifest.to_json(tmp_path / "tasks.json")
        back = TaskManifest.from_json(tmp_path / "tasks.json")
        assert len(back) == len(small_manifest)
        assert back.active_ids() == small_manifest.active_ids()
        assert "wiggle" in back and back["wiggle"] == small_manifest["wiggle"]
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
        assert len(manifest) == 27
        assert "meander" in manifest
        assert "meander" not in manifest.active_ids()
