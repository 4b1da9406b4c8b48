import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from taskopt.dataset import SampleTable, TaskInfo, TaskManifest


@pytest.fixture
def small_manifest():
    return TaskManifest([
        TaskInfo("walk", cyclic=True, w=1.0),
        TaskInfo("stairs", cyclic=True, w=1.0),
        TaskInfo("jump", cyclic=False, w=0.9),
        TaskInfo("toss", cyclic=False, w=0.8),
        TaskInfo("wiggle", cyclic=False, w=0.8, excluded=True),
    ])


def write_profile_csv(path, rows):
    """rows: iterable of (subject, task, trial, idx, m, a, v)."""
    lines = ["subject,task,trial,sample_index,hip_moment_nm_per_kg,"
             "hip_angle_rad,hip_velocity_rad_s"]
    lines += [",".join(str(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def profile_rows(subject, task, trial, moments, angles=None, velocities=None):
    angles = angles if angles is not None else [0.0] * len(moments)
    velocities = velocities if velocities is not None else [0.0] * len(moments)
    return [
        (subject, task, trial, i, m, a, v)
        for i, (m, a, v) in enumerate(zip(moments, angles, velocities))
    ]


def write_sensor_csv(path, rows):
    """rows: iterable of (subject, task, trial, time, fourteen values..., target)."""
    header = ("subject,task,trial,time_s,hip_angle_rad,hip_velocity_rad_s,"
              "pelvis_ax,pelvis_ay,pelvis_az,pelvis_gx,pelvis_gy,pelvis_gz,"
              "thigh_ax,thigh_ay,thigh_az,thigh_gx,thigh_gy,thigh_gz,"
              "hip_moment_nm_per_kg")
    lines = [header]
    lines += [",".join(str(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sensor_row(subject, task, trial, time, values=None, target=0.5):
    values = values if values is not None else [0.1] * 14
    return (subject, task, trial, time, *values, target)


def table_from_ids(x, y, times, subjects, tasks, trials):
    """A SampleTable from per-row id columns, rows in any order."""
    row_keys = list(zip(subjects, tasks, trials))
    keys = sorted(set(row_keys))
    code_of = {key: code for code, key in enumerate(keys)}
    return SampleTable(
        x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
        times=np.asarray(times, dtype=float),
        codes=np.array([code_of[key] for key in row_keys], dtype=np.int32),
        keys=np.array(keys, dtype=object).reshape(-1, 3),
    )
