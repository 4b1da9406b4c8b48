"""Ingestion and validation of cycle-profile and sensor CSV files.

Three inputs feed the pipeline: a long-format profiles CSV holding
cycle-averaged hip moment/angle/velocity vectors, a sensor CSV holding
per-sample wearable signals plus the target moment, and a JSON task
manifest declaring each task's id, cyclic flag, collection-difficulty
weight ``w``, and whether it is excluded from the study.

All loaders are strict: malformed rows are reported with their line
number, unknown task ids are errors, and non-finite values are rejected
rather than imputed.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError

PROFILE_COLUMNS = [
    "subject",
    "task",
    "trial",
    "sample_index",
    "hip_moment_nm_per_kg",
    "hip_angle_rad",
    "hip_velocity_rad_s",
]

SENSOR_COLUMNS = [
    "subject",
    "task",
    "trial",
    "time_s",
    "hip_angle_rad",
    "hip_velocity_rad_s",
    "pelvis_ax",
    "pelvis_ay",
    "pelvis_az",
    "pelvis_gx",
    "pelvis_gy",
    "pelvis_gz",
    "thigh_ax",
    "thigh_ay",
    "thigh_az",
    "thigh_gx",
    "thigh_gy",
    "thigh_gz",
    "hip_moment_nm_per_kg",
]

SENSOR_INPUT_DIM = 14


@dataclass(frozen=True)
class TaskInfo:
    """One manifest entry."""

    id: str
    cyclic: bool
    w: float
    excluded: bool = False


class TaskManifest:
    """Validated collection of :class:`TaskInfo` entries keyed by task id."""

    def __init__(self, tasks: Iterable[TaskInfo]):
        entries: dict[str, TaskInfo] = {}
        problems: list[str] = []
        for t in tasks:
            if not t.id:
                problems.append("task with empty id")
                continue
            if t.id in entries:
                problems.append(f"duplicate task id {t.id!r}")
            if not (0.0 < t.w <= 1.0):
                problems.append(f"task {t.id!r}: w={t.w} outside (0, 1]")
            entries[t.id] = t
        if not entries:
            problems.append("manifest contains no tasks")
        if problems:
            raise DataFormatError("invalid task manifest: " + "; ".join(problems))
        self._tasks = entries

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __getitem__(self, task_id: str) -> TaskInfo:
        return self._tasks[task_id]

    def __len__(self) -> int:
        return len(self._tasks)

    def active(self) -> list[TaskInfo]:
        """Tasks not marked excluded."""
        return [t for t in self._tasks.values() if not t.excluded]

    def active_ids(self) -> list[str]:
        return [t.id for t in self.active()]

    def cyclic_ids(self) -> list[str]:
        return [t.id for t in self.active() if t.cyclic]

    def is_cyclic(self, task_id: str) -> bool:
        return self._tasks[task_id].cyclic

    def weights(self) -> dict[str, float]:
        return {t.id: t.w for t in self.active()}

    @classmethod
    def from_json(cls, path: str | Path) -> "TaskManifest":
        path = Path(path)
        if not path.exists():
            raise DataFormatError(f"task manifest not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("tasks"), list):
            raise DataFormatError(f"{path}: expected an object with a 'tasks' list")
        infos = []
        for i, entry in enumerate(raw["tasks"]):
            if not isinstance(entry, dict):
                raise DataFormatError(f"{path}: tasks[{i}] is not an object")
            try:
                infos.append(
                    TaskInfo(
                        id=str(entry["id"]),
                        cyclic=bool(entry["cyclic"]),
                        w=float(entry["w"]),
                        excluded=bool(entry.get("excluded", False)),
                    )
                )
            except KeyError as exc:
                raise DataFormatError(
                    f"{path}: tasks[{i}] missing required field {exc}"
                ) from exc
        return cls(infos)

    def to_json(self, path: str | Path) -> None:
        payload = {
            "tasks": [
                {"id": t.id, "cyclic": t.cyclic, "w": t.w, "excluded": t.excluded}
                for t in self._tasks.values()
            ]
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )


def default_task_manifest() -> TaskManifest:
    """Manifest for the public 27-task treadmill/overground dataset.

    Seven non-cyclic tasks with atypical movement profiles are marked
    excluded; the remaining 20 split into 8 cyclic and 12 non-cyclic.
    Weights follow the usual collection-difficulty tiers: 1.0 for
    walking and stair tasks, 0.9 for other common movements, 0.8 for
    the harder-to-collect ones.
    """
    walk_tier = [("normal_walk", True), ("incline_walk", True),
                 ("decline_walk", True), ("stairs_up", True), ("stairs_down", True)]
    mid_tier = [("dynamic_walk", True), ("walk_backward", True), ("tire_run", True),
                ("lunges", False), ("jump", False), ("sit_to_stand", False),
                ("step_ups", False), ("squats", False)]
    hard_tier = [("lift_weight", False), ("ball_toss", False), ("cutting", False),
                 ("curb_up", False), ("curb_down", False), ("turn_and_step", False),
                 ("side_step", False)]
    excluded = ["meander", "poses", "push", "obstacle_walk", "start_stop",
                "tug_of_war", "twister"]
    infos = [TaskInfo(tid, cyc, 1.0) for tid, cyc in walk_tier]
    infos += [TaskInfo(tid, cyc, 0.9) for tid, cyc in mid_tier]
    infos += [TaskInfo(tid, cyc, 0.8) for tid, cyc in hard_tier]
    infos += [TaskInfo(tid, False, 0.8, excluded=True) for tid in excluded]
    return TaskManifest(infos)


@dataclass
class FeatureMatrix:
    """Rows of concatenated moment|angle|velocity vectors with labels."""

    rows: np.ndarray
    row_labels: list[tuple[str, str, str]]

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass
class SampleTable:
    """Wearable-sensor rows as columns, one entry per timestamped sample.

    Each row holds the 14 network inputs (angle, velocity, pelvis and
    thigh accel/gyro), the target moment, and its trial's code: the
    row's index into ``keys``, the sorted, distinct (subject, task,
    trial) triples. So codes order rows as their keys do, and a
    per-trial test becomes a per-row mask by indexing it with ``codes``.
    Subsets share ``keys``, which may then hold trials with no rows.
    """

    x: np.ndarray  # (n, SENSOR_INPUT_DIM)
    y: np.ndarray  # (n,)
    times: np.ndarray  # (n,)
    codes: np.ndarray  # (n,) int32
    keys: np.ndarray  # (n_trials, 3) object: sorted (subject, task, trial)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def subjects(self) -> np.ndarray:
        return self.keys[self.codes, 0]

    @property
    def tasks(self) -> np.ndarray:
        return self.keys[self.codes, 1]

    @property
    def trials(self) -> np.ndarray:
        return self.keys[self.codes, 2]

    def subset(self, mask: np.ndarray) -> "SampleTable":
        return SampleTable(x=self.x[mask], y=self.y[mask], times=self.times[mask],
                           codes=self.codes[mask], keys=self.keys)

    def isin(self, column: str, ids) -> np.ndarray:
        """Mask of the rows whose ``column`` id is in ``ids``.

        ``column`` is "subject", "task" or "trial". One test per trial,
        then one gather per row.
        """
        in_ids = np.isin(self.keys[:, ("subject", "task", "trial").index(column)],
                         list(ids))
        return in_ids[self.codes]

    def subject_set(self) -> set[str]:
        return set(self.keys[np.unique(self.codes), 0].tolist())


def _sample_table(x: np.ndarray, y: np.ndarray, times: np.ndarray,
                  keys: list[tuple[str, str, str]], per_trial: np.ndarray) -> SampleTable:
    """A table of rows grouped by trial in the order of the sorted ``keys``."""
    codes = np.repeat(np.arange(len(keys), dtype=np.int32), per_trial)
    return SampleTable(x=x, y=y, times=times, codes=codes,
                       keys=np.array(keys, dtype=object).reshape(-1, 3))


@dataclass
class IngestStats:
    """Bookkeeping produced by a loader run."""

    rows_read: int = 0
    rows_excluded_task: Counter = field(default_factory=Counter)
    n_items: int = 0

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_excluded_task": dict(sorted(self.rows_excluded_task.items())),
            "n_items": self.n_items,
        }


@dataclass
class SubjectExclusionReport:
    """Who was dropped by the minimum-cyclic-trials rule, and why."""

    min_cyclic_trials: int
    dropped: list[tuple[str, int]]  # (subject, cyclic trial count)
    kept_subjects: list[str]

    @property
    def all_dropped(self) -> bool:
        return not self.kept_subjects

    def to_dict(self) -> dict:
        return {
            "min_cyclic_trials": self.min_cyclic_trials,
            "dropped": [
                {"subject": s, "cyclic_trials": n, "reason": "fewer than threshold cyclic-task trials"}
                for s, n in self.dropped
            ],
            "kept_subjects": self.kept_subjects,
            "all_dropped": self.all_dropped,
        }


def resample_linear(values: Sequence[float] | np.ndarray, target_length: int) -> np.ndarray:
    """Piecewise-linear resampling onto a uniform grid including both endpoints.

    Exact on affine signals; a signal already at ``target_length`` is
    returned unchanged (as a copy).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D signal")
    if v.size < 2:
        raise ValueError(f"signal too short to resample (length {v.size} < 2)")
    if target_length < 2:
        raise ValueError(f"target_length must be >= 2, got {target_length}")
    if v.size == target_length:
        return v.copy()
    grid = np.arange(target_length) * ((v.size - 1) / (target_length - 1))
    return np.interp(grid, np.arange(v.size), v)


def _open_csv(path: str | Path, expected_header: list[str]):
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"file not found: {path}")
    fh = path.open("r", encoding="utf-8", newline="")
    reader = _utf8_rows(path, csv.reader(fh))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected header row")
        if header != expected_header:
            raise DataFormatError(
                f"{path}: line 1: bad header {header!r}, expected {expected_header!r}")
    except DataFormatError:
        fh.close()
        raise
    return fh, reader


def _utf8_rows(path: Path, reader):
    """The rows of ``reader``; text that is not UTF-8 is a DataFormatError."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason}: "
                              f"{exc.object[exc.start:exc.end]!r})") from exc


def _parse_number(token: str, parse: type) -> float | int | None:
    """``token`` as ``np.loadtxt`` reads it into a float64 or an int64, or None.

    ``parse`` is ``float`` or ``int``. Python's parser on the stripped
    token, less what numpy refuses: non-ASCII characters (full-width
    digits), ``_`` separators, and integers outside int64.
    """
    t = token.strip()
    if not t.isascii() or "_" in t:
        return None
    try:
        value = parse(t)
    except ValueError:
        return None
    return value if parse is float or -2**63 <= value < 2**63 else None


def _raise_first_bad_row(path: str | Path, header: list[str],
                         manifest: TaskManifest) -> None:
    """Raise the :class:`DataFormatError` that names the first bad row of a CSV.

    The loaders call this when the one-pass read or its array checks
    fail. It walks the rows with ``csv.reader``, numbered from line 2
    (blank rows count, and an id holding a newline does not add one),
    and checks each in turn: width, ids, each number in column order
    (numpy's grammar, and finite in rows of kept tasks), then a
    repeated ``sample_index`` or a ``time_s`` that does not increase
    within its trial. Then each profile trial, in sorted order, needs
    two or more samples indexed from 0 without a gap. Returns only for
    a file without data rows.
    """
    path = Path(path)
    fh, reader = _open_csv(path, header)
    profiles = header == PROFILE_COLUMNS
    seen: dict = {}  # per kept trial: its sample indices, or its last time
    has_rows = False
    with fh:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            has_rows = True
            at = f"{path}: line {lineno}"
            if len(row) != len(header):
                raise DataFormatError(
                    f"{at}: expected {len(header)} columns, got {len(row)}")
            key = tuple(row[:3])
            if not all(key):
                raise DataFormatError(f"{at}: empty subject/task/trial identifier")
            if key[1] not in manifest:
                raise DataFormatError(
                    f"{at}: unknown task id {key[1]!r} (not in manifest)")
            kept = not manifest[key[1]].excluded
            for column, token in zip(header[3:], row[3:]):
                is_index = column == "sample_index"
                value = _parse_number(token, int if is_index else float)
                if value is None:
                    raise DataFormatError(f"{at}: malformed " + (
                        f"sample_index {token!r}" if is_index
                        else f"value {token!r} in column {column}"))
                if kept and not math.isfinite(value):
                    raise DataFormatError(f"{at}: non-finite value in column {column}")
            if not kept:
                continue
            start = _parse_number(row[3], int if profiles else float)  # index or time
            if profiles:
                indices = seen.setdefault(key, set())
                if start in indices:
                    raise DataFormatError(
                        f"{at}: duplicate sample_index {start} for trial {key!r}")
                indices.add(start)
            elif start <= seen.get(key, -math.inf):
                raise DataFormatError(
                    f"{at}: time_s not strictly increasing within trial {key!r}")
            else:
                seen[key] = start
    for key in sorted(seen) if profiles else ():
        n = len(seen[key])
        if n < 2:
            raise DataFormatError(
                f"{path}: trial {key!r} has {n} sample(s); need at least 2")
        if seen[key] != set(range(n)):
            raise DataFormatError(
                f"{path}: trial {key!r}: sample_index not contiguous from 0")
    if has_rows:
        raise DataFormatError(
            f"{path}: numpy could not read the file as CSV, yet no row breaks a rule")


def _read_trials(
    path: str | Path, header: list[str], fields: list[tuple], manifest: TaskManifest,
) -> tuple[np.ndarray, list[tuple[str, str, str]], np.ndarray, Counter]:
    """All data rows of a CSV in one ``np.loadtxt`` pass, ranked by trial.

    Returns the records, each with the three identifier strings in field
    ``ids`` and the numbers in ``fields``, then what :func:`_group_trials`
    returns. If numpy refuses a row or an id is bad,
    :func:`_raise_first_bad_row` names it; a file without data rows
    gives no records.
    """
    dtype = [("ids", "O", (3,)), *fields]
    fh, _ = _open_csv(path, header)
    with fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a file without data rows
        try:
            # The structured dtype rejects rows of the wrong width, and
            # comments=None keeps ids that hold '#'.
            records = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                 comments=None, ndmin=1)
        except (ValueError, Warning):
            records = None
    if records is None:
        _raise_first_bad_row(path, header, manifest)
        records = np.zeros(0, dtype=dtype)
    grouped = _group_trials(records["ids"], manifest)
    if grouped is None:
        _raise_first_bad_row(path, header, manifest)
    return records, *grouped


def _group_trials(
    ids: np.ndarray, manifest: TaskManifest,
) -> tuple[list[tuple[str, str, str]], np.ndarray, Counter] | None:
    """Each row's rank among the sorted trials of kept tasks.

    Returns the sorted kept trial keys, the per-row ranks (``len(keys)``
    for rows of excluded tasks, so they sort last) and the excluded rows
    per task; or None if an id is empty or a task is not in the manifest.
    Python runs once per run of rows with equal ids, not once per row.
    """
    n = ids.shape[0]  # may be 0: then there is no run
    starts = np.flatnonzero(np.r_[n > 0, (ids[1:] != ids[:-1]).any(axis=1)])
    lengths = np.diff(np.r_[starts, n])
    trial_of: dict[tuple[str, str, str], int] = {}
    run_trial = np.array([trial_of.setdefault(tuple(key), len(trial_of))
                          for key in ids[starts].tolist()], dtype=np.int64)
    rows = np.bincount(run_trial, weights=lengths)
    excluded: Counter = Counter()
    for (subject, task, trial), count in zip(trial_of, rows.tolist()):
        if not subject or not task or not trial or task not in manifest:
            return None
        if manifest[task].excluded:
            excluded[task] += int(count)
    keys = sorted(k for k in trial_of if not manifest[k[1]].excluded)
    rank_of = {k: r for r, k in enumerate(keys)}
    trial_rank = np.array([rank_of.get(k, len(keys)) for k in trial_of],
                          dtype=np.int64)
    return keys, np.repeat(trial_rank[run_trial], lengths), excluded


def load_profiles(
    path: str | Path,
    manifest: TaskManifest,
    target_length: int = 100,
) -> tuple[FeatureMatrix, IngestStats]:
    """Load and validate cycle profiles into the n x 3L feature matrix.

    Rows of excluded tasks are dropped (counted in the returned stats).
    Each kept trial gives one row, in (subject, task, trial) order: its
    moment, angle and velocity, each resampled to ``target_length``
    samples with :func:`resample_linear`. The file is parsed in one
    ``np.loadtxt`` pass and checked with array operations; if either
    fails, the error names the first bad row.
    """
    if target_length < 2:
        raise ValueError(f"target_length must be >= 2, got {target_length}")
    records, keys, rank, excluded = _read_trials(
        path, PROFILE_COLUMNS, [("i", "i8"), ("v", "f8", (3,))], manifest)
    n_kept = rank.size - sum(excluded.values())
    order = np.lexsort((records["i"], rank))[:n_kept]
    idx, values = records["i"][order], records["v"][order]
    del records  # frees the per-row id strings
    counts = np.bincount(rank[order], minlength=len(keys))
    first = np.cumsum(counts) - counts
    # Sorted by (trial, sample_index), each trial's indices must read
    # 0, 1, ..., n-1: no duplicate and no gap.
    if (counts.min(initial=2) < 2 or not np.isfinite(values).all()
            or not np.array_equal(idx, np.arange(n_kept) - np.repeat(first, counts))):
        _raise_first_bad_row(path, PROFILE_COLUMNS, manifest)
    rows = np.empty((len(keys), 3 * target_length))
    for row, a, c in zip(rows, first.tolist(), counts.tolist()):
        row[:] = np.concatenate([resample_linear(v, target_length) for v in values[a : a + c].T])
    matrix = FeatureMatrix(rows=rows, row_labels=keys)
    return matrix, IngestStats(rows_read=rank.size, rows_excluded_task=excluded,
                               n_items=len(keys))


def exclude_subjects(
    matrix: FeatureMatrix,
    min_cyclic_trials: int,
    manifest: TaskManifest,
) -> tuple[FeatureMatrix, SubjectExclusionReport]:
    """Drop the rows of subjects with fewer than ``min_cyclic_trials`` cyclic-task trials."""
    subjects = sorted({s for s, _, _ in matrix.row_labels})
    cyclic_counts = Counter(s for s, task, _ in matrix.row_labels
                            if manifest.is_cyclic(task))
    dropped = [(s, cyclic_counts[s]) for s in subjects
               if cyclic_counts[s] < min_cyclic_trials]
    dropped_set = {s for s, _ in dropped}
    keep = [s not in dropped_set for s, _, _ in matrix.row_labels]
    kept = FeatureMatrix(rows=matrix.rows[np.array(keep, dtype=bool)],
                         row_labels=[key for key, k in zip(matrix.row_labels, keep) if k])
    report = SubjectExclusionReport(
        min_cyclic_trials=min_cyclic_trials,
        dropped=dropped,
        kept_subjects=[s for s in subjects if s not in dropped_set],
    )
    return kept, report


def load_sensor_samples(
    path: str | Path,
    manifest: TaskManifest,
) -> tuple[SampleTable, IngestStats]:
    """Load and validate wearable-sensor samples into a :class:`SampleTable`.

    Rows are grouped by (subject, task, trial) in sorted order and keep
    their file order within a trial; time must be strictly increasing
    within each trial. Excluded-task rows are dropped and counted. The
    file is parsed in one ``np.loadtxt`` pass and checked with array
    operations; if either fails, the error names the first bad row.
    """
    records, keys, rank, excluded = _read_trials(
        path, SENSOR_COLUMNS, [("v", "f8", (len(SENSOR_COLUMNS) - 3,))], manifest)
    order = np.argsort(rank, kind="stable")[: rank.size - sum(excluded.values())]
    flat = records["v"]
    x, y, times = (flat[order, 1 : 1 + SENSOR_INPUT_DIM], flat[order, -1],
                   flat[order, 0])
    del records, flat  # frees the per-row id strings
    row_rank = rank[order]
    in_trial = row_rank[1:] == row_rank[:-1]
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(times).all()
            and (times[1:] > times[:-1])[in_trial].all()):
        _raise_first_bad_row(path, SENSOR_COLUMNS, manifest)
    table = _sample_table(x, y, times, keys, np.bincount(row_rank, minlength=len(keys)))
    return table, IngestStats(rows_read=rank.size, rows_excluded_task=excluded,
                              n_items=table.n)
