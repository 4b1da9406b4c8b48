"""Representativeness scoring of tasks within clusters and condition assembly.

For every (cluster, task) pair the score multiplies four factors: the
task's share of the cluster's rows (A/B), the share of the task's rows
landing in that cluster (A/C), the fraction of subjects contributing
the task inside the cluster (S/S_total), and a collection-difficulty
weight w from the manifest. The per-cluster argmax forms the optimized
task set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import TaskManifest
from .errors import DataFormatError


@dataclass(frozen=True)
class TaskWeightRow:
    """Counts and score for one (cluster, task) pair.

    The stored score is exactly ``(a/b) * (a/c) * (s/s_total) * w`` so
    it can be recomputed bit-for-bit from the counts.
    """

    cluster: int
    task: str
    a: int  # rows of this task in this cluster
    b: int  # rows in this cluster
    c: int  # rows of this task across all clusters
    s: int  # unique subjects contributing this task in this cluster
    s_total: int
    w: float
    r: float

    @property
    def a_over_b(self) -> float:
        return self.a / self.b

    @property
    def a_over_c(self) -> float:
        return self.a / self.c

    @property
    def s_over_total(self) -> float:
        return self.s / self.s_total


def representativeness(a: int, b: int, c: int, s: int, s_total: int, w: float) -> float:
    """The four-factor score; see the module docstring."""
    return (a / b) * (a / c) * (s / s_total) * w


def task_weight_analysis(
    assignments: Sequence[int] | np.ndarray,
    row_labels: Sequence[tuple[str, str, str]],
    weights: Mapping[str, float],
    s_total: int | None = None,
) -> list[TaskWeightRow]:
    """Score every (cluster, task) pair with at least one row.

    ``s_total`` defaults to the number of unique subjects among the row
    labels. Rows come back sorted by cluster, then score descending,
    then task id.
    """
    labels = list(row_labels)
    assign = np.asarray(assignments, dtype=int)
    if assign.shape[0] != len(labels):
        raise ValueError("assignments and row_labels differ in length")
    if s_total is None:
        s_total = len({subject for subject, _, _ in labels})
    if s_total < 1:
        raise ValueError(f"s_total must be >= 1, got {s_total}")
    present_tasks = {task for _, task, _ in labels}
    missing = sorted(present_tasks - set(weights))
    if missing:
        raise ValueError(f"no weight defined for task(s): {missing}")

    cluster_rows: dict[int, int] = {}
    task_rows: dict[str, int] = {}
    pair_rows: dict[tuple[int, str], int] = {}
    pair_subjects: dict[tuple[int, str], set[str]] = {}
    for cluster, (subject, task, _) in zip(assign, labels):
        cluster = int(cluster)
        cluster_rows[cluster] = cluster_rows.get(cluster, 0) + 1
        task_rows[task] = task_rows.get(task, 0) + 1
        pair_rows[(cluster, task)] = pair_rows.get((cluster, task), 0) + 1
        pair_subjects.setdefault((cluster, task), set()).add(subject)

    rows = [
        TaskWeightRow(
            cluster=cluster,
            task=task,
            a=a,
            b=cluster_rows[cluster],
            c=task_rows[task],
            s=len(pair_subjects[(cluster, task)]),
            s_total=s_total,
            w=weights[task],
            r=representativeness(
                a, cluster_rows[cluster], task_rows[task],
                len(pair_subjects[(cluster, task)]), s_total, weights[task],
            ),
        )
        for (cluster, task), a in pair_rows.items()
    ]
    rows.sort(key=lambda row: (row.cluster, -row.r, row.task))
    return rows


def select_representatives(rows: Sequence[TaskWeightRow]) -> dict[int, str]:
    """Pick the top-scoring task of each cluster.

    Score ties go to the lexicographically smaller task id. The same
    task may win more than one cluster; deduplication happens when the
    optimized condition set is assembled.
    """
    if not rows:
        raise ValueError("no task-weight rows to select from")
    best: dict[int, TaskWeightRow] = {}
    for row in rows:
        cur = best.get(row.cluster)
        if cur is None or row.r > cur.r or (row.r == cur.r and row.task < cur.task):
            best[row.cluster] = row
    return {cluster: best[cluster].task for cluster in sorted(best)}


@dataclass(frozen=True)
class TaskSet:
    """A named training condition with its provenance."""

    name: str
    tasks: tuple[str, ...]
    source: str


def make_conditions(
    manifest: TaskManifest,
    representatives: Mapping[int, str],
) -> dict[str, TaskSet]:
    """Assemble the three training conditions from a representative map."""
    if not representatives:
        raise ValueError("representatives map is empty")
    all_tasks = tuple(sorted(manifest.active_ids()))
    cyclic = tuple(sorted(manifest.cyclic_ids()))
    optimized = tuple(sorted(set(representatives.values())))
    stray = [t for t in optimized if t not in all_tasks]
    if stray:
        raise ValueError(f"representatives not in the active manifest: {stray}")
    return {
        "all": TaskSet("all", all_tasks, "every non-excluded manifest task"),
        "optimized": TaskSet(
            "optimized",
            optimized,
            "per-cluster representativeness winners "
            + json.dumps({str(k): v for k, v in sorted(representatives.items())}),
        ),
        "cyclic": TaskSet("cyclic", cyclic, "every task flagged cyclic"),
    }


def write_conditions_json(conditions: Mapping[str, TaskSet], path: str | Path) -> None:
    payload = {
        name: {"tasks": list(ts.tasks), "source": ts.source}
        for name, ts in conditions.items()
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_conditions_json(path: str | Path) -> dict[str, TaskSet]:
    """The conditions ``write_conditions_json`` wrote; DataFormatError if it
    is not JSON or not ``{name: {"tasks": [task, ...], "source": text}}``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(raw, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("source"), str)
            and isinstance(entry.get("tasks"), list)
            and all(isinstance(task, str) for task in entry["tasks"])
            for entry in raw.values()):
        raise DataFormatError(f'{path}: expected {{name: {{"tasks": [task, ...], '
                              f'"source": text}}}}')
    return {
        name: TaskSet(name, tuple(entry["tasks"]), entry["source"])
        for name, entry in raw.items()
    }
