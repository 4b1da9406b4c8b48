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
from array import array
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

    def ids(self) -> list[str]:
        return list(self._tasks)

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
class CycleProfile:
    """Cycle-averaged moment/angle/velocity triplet for one trial.

    All three vectors share the same length after resampling.
    """

    subject: str
    task: str
    trial: str
    moment: np.ndarray
    angle: np.ndarray
    velocity: np.ndarray

    @property
    def length(self) -> int:
        return int(self.moment.shape[0])

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.task, self.trial)


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
    thigh accel/gyro), the target moment, and its trial's identifiers.
    """

    x: np.ndarray  # (n, SENSOR_INPUT_DIM)
    y: np.ndarray  # (n,)
    subjects: np.ndarray
    tasks: np.ndarray
    trials: np.ndarray
    times: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, mask: np.ndarray) -> "SampleTable":
        return SampleTable(
            x=self.x[mask], y=self.y[mask], subjects=self.subjects[mask],
            tasks=self.tasks[mask], trials=self.trials[mask], times=self.times[mask],
        )

    def trial_keys(self) -> list[tuple[str, str, str]]:
        return sorted({
            (str(s), str(t), str(tr))
            for s, t, tr in zip(self.subjects, self.tasks, self.trials)
        })

    def subject_set(self) -> set[str]:
        return {str(s) for s in self.subjects}


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
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        fh.close()
        raise DataFormatError(f"{path}: empty file, expected header row")
    if header != expected_header:
        fh.close()
        raise DataFormatError(
            f"{path}: line 1: bad header {header!r}, expected {expected_header!r}"
        )
    return fh, reader


def _parse_float(token: str, path: Path, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(
            f"{path}: line {lineno}: malformed value {token!r} in column {column}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: line {lineno}: non-finite value in column {column}"
        )
    return value


def _check_ids(subject: str, task: str, trial: str, manifest: TaskManifest,
               path: Path, lineno: int) -> None:
    if not subject or not task or not trial:
        raise DataFormatError(
            f"{path}: line {lineno}: empty subject/task/trial identifier"
        )
    if task not in manifest:
        raise DataFormatError(
            f"{path}: line {lineno}: unknown task id {task!r} (not in manifest)"
        )


def load_profiles(
    path: str | Path,
    manifest: TaskManifest,
    target_length: int = 100,
) -> tuple[list[CycleProfile], IngestStats]:
    """Load, validate, and resample cycle profiles from a long-format CSV.

    Rows of excluded tasks are dropped (counted in the returned stats);
    every remaining trial is resampled to ``target_length`` samples.
    Profiles come back sorted by (subject, task, trial).
    """
    if target_length < 2:
        raise ValueError(f"target_length must be >= 2, got {target_length}")
    path = Path(path)
    fh, reader = _open_csv(path, PROFILE_COLUMNS)
    stats = IngestStats()
    trials: dict[tuple[str, str, str], dict[int, tuple[float, float, float]]] = {}
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(PROFILE_COLUMNS):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(PROFILE_COLUMNS)} columns, got {len(row)}"
                )
            subject, task, trial = row[0], row[1], row[2]
            _check_ids(subject, task, trial, manifest, path, lineno)
            stats.rows_read += 1
            if manifest[task].excluded:
                stats.rows_excluded_task[task] += 1
                continue
            try:
                idx = int(row[3])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: malformed sample_index {row[3]!r}"
                ) from None
            values = tuple(
                _parse_float(row[i], path, lineno, PROFILE_COLUMNS[i])
                for i in range(4, 7)
            )
            samples = trials.setdefault((subject, task, trial), {})
            if idx in samples:
                raise DataFormatError(
                    f"{path}: line {lineno}: duplicate sample_index {idx} "
                    f"for trial {(subject, task, trial)!r}"
                )
            samples[idx] = values
    finally:
        fh.close()

    profiles: list[CycleProfile] = []
    for key in sorted(trials):
        samples = trials[key]
        n = len(samples)
        if n < 2:
            raise DataFormatError(
                f"{path}: trial {key!r} has {n} sample(s); need at least 2"
            )
        if set(samples) != set(range(n)):
            raise DataFormatError(
                f"{path}: trial {key!r}: sample_index not contiguous from 0"
            )
        ordered = np.array([samples[i] for i in range(n)], dtype=float)
        profiles.append(
            CycleProfile(
                subject=key[0],
                task=key[1],
                trial=key[2],
                moment=resample_linear(ordered[:, 0], target_length),
                angle=resample_linear(ordered[:, 1], target_length),
                velocity=resample_linear(ordered[:, 2], target_length),
            )
        )
    stats.n_items = len(profiles)
    return profiles, stats


def exclude_subjects(
    profiles: Sequence[CycleProfile],
    min_cyclic_trials: int,
    manifest: TaskManifest,
) -> tuple[list[CycleProfile], SubjectExclusionReport]:
    """Drop subjects with fewer than ``min_cyclic_trials`` cyclic-task trials."""
    cyclic_counts: Counter = Counter()
    subjects = sorted({p.subject for p in profiles})
    for p in profiles:
        if manifest.is_cyclic(p.task):
            cyclic_counts[p.subject] += 1
    dropped = [(s, cyclic_counts[s]) for s in subjects
               if cyclic_counts[s] < min_cyclic_trials]
    dropped_set = {s for s, _ in dropped}
    kept = [p for p in profiles if p.subject not in dropped_set]
    report = SubjectExclusionReport(
        min_cyclic_trials=min_cyclic_trials,
        dropped=dropped,
        kept_subjects=[s for s in subjects if s not in dropped_set],
    )
    return kept, report


def build_feature_matrix(profiles: Sequence[CycleProfile]) -> FeatureMatrix:
    """Stack profiles into the n x 3L analysis matrix.

    Row order is sorted by (subject, task, trial); each row is the
    moment vector followed by angle and velocity.
    """
    if not profiles:
        raise ValueError("cannot build a feature matrix from zero profiles")
    lengths = {p.length for p in profiles}
    if len(lengths) != 1:
        raise ValueError(f"profiles have mismatched lengths: {sorted(lengths)}")
    keys = [p.key for p in profiles]
    if len(set(keys)) != len(keys):
        seen = Counter(keys)
        dup = next(k for k, c in seen.items() if c > 1)
        raise ValueError(f"duplicate (subject, task, trial) triple: {dup!r}")
    ordered = sorted(profiles, key=lambda p: p.key)
    rows = np.stack(
        [np.concatenate([p.moment, p.angle, p.velocity]) for p in ordered]
    )
    return FeatureMatrix(rows=rows, row_labels=[p.key for p in ordered])


def unpack_row(matrix: FeatureMatrix, i: int) -> CycleProfile:
    """Inverse of the row construction in :func:`build_feature_matrix`."""
    d = matrix.d
    if d % 3 != 0:
        raise ValueError(f"row width {d} is not divisible by 3")
    length = d // 3
    subject, task, trial = matrix.row_labels[i]
    row = matrix.rows[i]
    return CycleProfile(
        subject=subject,
        task=task,
        trial=trial,
        moment=row[:length].copy(),
        angle=row[length : 2 * length].copy(),
        velocity=row[2 * length :].copy(),
    )


def load_sensor_samples(
    path: str | Path,
    manifest: TaskManifest,
) -> tuple[SampleTable, IngestStats]:
    """Load and validate wearable-sensor samples into a :class:`SampleTable`.

    Rows are grouped by (subject, task, trial) in sorted order and keep
    their file order within a trial; time must be strictly increasing
    within each trial. Excluded-task rows are dropped and counted.
    """
    path = Path(path)
    fh, reader = _open_csv(path, SENSOR_COLUMNS)
    stats = IngestStats()
    values = array("d")  # per row: time, the inputs, the target
    row_trial = array("q")  # per row: index into trial_ids
    trial_ids: dict[tuple[str, str, str], int] = {}
    last_time: list[float] = []
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SENSOR_COLUMNS):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(SENSOR_COLUMNS)} columns, got {len(row)}"
                )
            subject, task, trial = row[0], row[1], row[2]
            _check_ids(subject, task, trial, manifest, path, lineno)
            stats.rows_read += 1
            if manifest[task].excluded:
                stats.rows_excluded_task[task] += 1
                continue
            floats = [_parse_float(row[i], path, lineno, SENSOR_COLUMNS[i])
                      for i in range(3, len(SENSOR_COLUMNS))]
            key = (subject, task, trial)
            t = trial_ids.get(key)
            if t is None:
                t = trial_ids[key] = len(last_time)
                last_time.append(-math.inf)
            if floats[0] <= last_time[t]:
                raise DataFormatError(
                    f"{path}: line {lineno}: time_s not strictly increasing "
                    f"within trial {key!r}"
                )
            last_time[t] = floats[0]
            values.extend(floats)
            row_trial.append(t)
    finally:
        fh.close()

    keys = sorted(trial_ids)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[[trial_ids[k] for k in keys]] = np.arange(len(keys))
    row_rank = rank[np.asarray(row_trial)]
    order = np.argsort(row_rank, kind="stable")
    per_trial = np.bincount(row_rank, minlength=len(keys))
    flat = np.asarray(values).reshape(-1, len(SENSOR_COLUMNS) - 3)

    def ids(i: int) -> np.ndarray:
        return np.repeat(np.array([k[i] for k in keys], dtype=object), per_trial)

    table = SampleTable(
        x=flat[order, 1 : 1 + SENSOR_INPUT_DIM], y=flat[order, -1],
        subjects=ids(0), tasks=ids(1), trials=ids(2), times=flat[order, 0],
    )
    stats.n_items = table.n
    return table, stats
