"""Leave-one-subject-out study over named training conditions.

Each fold holds out one subject entirely; the remaining pool is
filtered to the condition's task set, split 80/20 at trial granularity,
and used to train a regression network. Testing always uses the
left-out subject's full task set so conditions stay comparable.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import SampleTable
from .errors import InsufficientTrialsError
from .nn import FcnnConfig, FcnnModel, TrainHistory, train
from .taskselect import TaskSet


@dataclass(frozen=True)
class Metrics:
    rmse: float
    r2: float | None  # None when the truth vector is constant


def metrics(pred: Sequence[float], truth: Sequence[float]) -> Metrics:
    """RMSE and coefficient of determination against a truth vector."""
    p = np.asarray(pred, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty prediction vector")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    rmse = float(np.sqrt(np.mean((p - t) ** 2)))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return Metrics(rmse=rmse, r2=None)
    ss_res = float(np.sum((t - p) ** 2))
    return Metrics(rmse=rmse, r2=1.0 - ss_res / ss_tot)


@dataclass
class LosoFold:
    left_out: str
    train_pool: SampleTable
    test: SampleTable


def loso_folds(
    samples: SampleTable, subjects: Sequence[str] | None = None
) -> list[LosoFold]:
    """One fold per subject, each testing on that subject alone."""
    found = sorted(samples.subject_set())
    if subjects is None:
        subjects = found
    else:
        subjects = sorted(subjects)
        missing = [s for s in subjects if s not in found]
        if missing:
            raise ValueError(f"subjects with no samples: {missing}")
    if len(subjects) < 2:
        raise ValueError(f"leave-one-subject-out needs >= 2 subjects, got {len(subjects)}")
    folds = []
    for subject in subjects:
        test_mask = samples.subjects == subject
        fold = LosoFold(
            left_out=subject,
            train_pool=samples.subset(~test_mask),
            test=samples.subset(test_mask),
        )
        if fold.train_pool.subject_set() & {subject}:
            raise RuntimeError(f"subject {subject!r} leaked into its own train pool")
        folds.append(fold)
    return folds


def split_train_val(
    pool: SampleTable, fraction: float = 0.8, seed: int = 0
) -> tuple[SampleTable, SampleTable]:
    """Seeded train/validation split at trial granularity.

    All samples of a trial land on the same side. Train size is
    floor(fraction * n_trials); the validation side is never empty.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    keys = pool.trial_keys()
    n_trials = len(keys)
    if n_trials < 2:
        raise InsufficientTrialsError(
            f"need at least 2 trials to split, got {n_trials}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_trials)
    n_train = int(math.floor(fraction * n_trials))
    n_train = min(max(n_train, 1), n_trials - 1)
    train_keys = {keys[i] for i in order[:n_train]}
    row_keys = list(zip(pool.subjects, pool.tasks, pool.trials))
    mask = np.array([k in train_keys for k in row_keys])
    return pool.subset(mask), pool.subset(~mask)


@dataclass(frozen=True)
class FoldResult:
    condition: str
    left_out: str
    rmse: float
    r2: float | None
    n_train: int
    n_val: int
    n_test: int
    seed: int


@dataclass(frozen=True)
class ConditionSummary:
    condition: str
    n_folds: int
    rmse_mean: float
    rmse_std: float
    r2_mean: float
    r2_std: float


@dataclass
class StudyResult:
    folds: list[FoldResult]
    summaries: dict[str, ConditionSummary]
    histories: dict[tuple[str, str], TrainHistory]
    checkpoints: dict[tuple[str, str], dict]
    skipped: list[tuple[str, str, str]]  # (condition, subject, reason)


Trainer = Callable[
    [tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], FcnnConfig],
    tuple[object, TrainHistory | None],
]


def fcnn_trainer(train_xy, val_xy, config: FcnnConfig):
    """Default trainer: a freshly initialized network fitted with Adam."""
    model = FcnnModel(config)
    model, history = train(model, train_xy, val_xy, config)
    return model, history


def _run_one(
    condition: str,
    task_set: tuple[str, ...],
    fold: LosoFold,
    fold_seed: int,
    nn_config: FcnnConfig,
    val_fraction: float,
    trainer: Trainer,
):
    allowed = set(task_set)
    pool_mask = np.array([t in allowed for t in fold.train_pool.tasks])
    pool = fold.train_pool.subset(pool_mask)
    if pool.n == 0:
        raise ValueError(
            f"condition {condition!r}: no training samples left after task filtering"
        )
    train_tab, val_tab = split_train_val(pool, fraction=val_fraction, seed=fold_seed)
    if fold.left_out in (train_tab.subject_set() | val_tab.subject_set()):
        raise RuntimeError(f"subject {fold.left_out!r} leaked into training data")
    used_tasks = {str(t) for t in train_tab.tasks} | {str(t) for t in val_tab.tasks}
    if used_tasks - allowed:
        raise RuntimeError(
            f"tasks outside condition {condition!r}: {sorted(used_tasks - allowed)}"
        )

    config = replace(nn_config, seed=fold_seed)
    model, history = trainer((train_tab.x, train_tab.y), (val_tab.x, val_tab.y),
                             config)
    pred = np.asarray(model.predict(fold.test.x)).reshape(-1)
    m = metrics(pred, fold.test.y)
    result = FoldResult(
        condition=condition,
        left_out=fold.left_out,
        rmse=m.rmse,
        r2=m.r2,
        n_train=train_tab.n,
        n_val=val_tab.n,
        n_test=fold.test.n,
        seed=fold_seed,
    )
    checkpoint = model.to_dict() if isinstance(model, FcnnModel) else None
    return result, history, checkpoint


def _run_one_payload(payload):
    try:
        return "ok", _run_one(*payload)
    except InsufficientTrialsError as exc:
        return "skipped", str(exc)


def run_study(
    samples: SampleTable,
    conditions: Mapping[str, TaskSet],
    nn_config: FcnnConfig,
    seed: int = 0,
    val_fraction: float = 0.8,
    jobs: int = 1,
    trainer: Trainer = fcnn_trainer,
) -> StudyResult:
    """Train and evaluate every condition under leave-one-subject-out CV.

    Per-fold seeds are ``seed ^ fold_index`` so folds are reproducible
    in any execution order; results are collected in (condition,
    subject) order regardless of scheduling. Folds whose pool cannot be
    split (fewer than 2 trials) are skipped and reported.
    """
    if not conditions:
        raise ValueError("no conditions to run")
    folds = loso_folds(samples)

    jobs_list = []
    meta = []
    skipped: list[tuple[str, str, str]] = []
    for name, task_set in conditions.items():
        for fold_index, fold in enumerate(folds):
            fold_seed = seed ^ fold_index
            jobs_list.append((name, tuple(task_set.tasks), fold, fold_seed,
                              nn_config, val_fraction, trainer))
            meta.append((name, fold.left_out))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_run_one_payload, jobs_list))
    else:
        outputs = [_run_one_payload(payload) for payload in jobs_list]

    fold_results: list[FoldResult] = []
    histories: dict[tuple[str, str], TrainHistory] = {}
    checkpoints: dict[tuple[str, str], dict] = {}
    for (name, left_out), (status, out) in zip(meta, outputs):
        if status == "skipped":
            skipped.append((name, left_out, out))
            continue
        result, history, checkpoint = out
        fold_results.append(result)
        if history is not None:
            histories[(name, left_out)] = history
        if checkpoint is not None:
            checkpoints[(name, left_out)] = checkpoint

    summaries = {
        name: summarize_condition(name, fold_results)
        for name in conditions
        if any(f.condition == name for f in fold_results)
    }
    return StudyResult(
        folds=fold_results,
        summaries=summaries,
        histories=histories,
        checkpoints=checkpoints,
        skipped=skipped,
    )


def summarize_condition(name: str, folds: Sequence[FoldResult]) -> ConditionSummary:
    rmses = np.array([f.rmse for f in folds if f.condition == name])
    r2s = np.array([f.r2 for f in folds if f.condition == name and f.r2 is not None])
    if rmses.size == 0:
        raise ValueError(f"no folds for condition {name!r}")

    def _std(v: np.ndarray) -> float:
        return float(v.std(ddof=1)) if v.size > 1 else 0.0

    return ConditionSummary(
        condition=name,
        n_folds=int(rmses.size),
        rmse_mean=float(rmses.mean()),
        rmse_std=_std(rmses),
        r2_mean=float(r2s.mean()) if r2s.size else float("nan"),
        r2_std=_std(r2s),
    )


def aligned_fold_metric(
    folds: Sequence[FoldResult],
    condition_names: Sequence[str],
    metric: str = "rmse",
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Per-condition metric vectors aligned on the subjects every condition has.

    Needed for paired tests: fold i of every vector refers to the same
    left-out subject.
    """
    by_cond: dict[str, dict[str, float]] = {name: {} for name in condition_names}
    for f in folds:
        if f.condition in by_cond:
            value = getattr(f, metric)
            if value is not None:
                by_cond[f.condition][f.left_out] = value
    common = sorted(set.intersection(*(set(d) for d in by_cond.values())))
    vectors = {
        name: np.array([by_cond[name][s] for s in common])
        for name in condition_names
    }
    return common, vectors


def write_fold_results_csv(folds: Sequence[FoldResult], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["condition", "left_out_subject", "rmse_nm_per_kg", "r2",
                         "n_train", "n_val", "n_test", "seed"])
        for f in folds:
            writer.writerow([
                f.condition, f.left_out, repr(f.rmse),
                "" if f.r2 is None else repr(f.r2),
                f.n_train, f.n_val, f.n_test, f.seed,
            ])


def read_fold_results_csv(path: str | Path) -> list[FoldResult]:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        folds = []
        for row in reader:
            folds.append(FoldResult(
                condition=row["condition"],
                left_out=row["left_out_subject"],
                rmse=float(row["rmse_nm_per_kg"]),
                r2=float(row["r2"]) if row["r2"] else None,
                n_train=int(row["n_train"]),
                n_val=int(row["n_val"]),
                n_test=int(row["n_test"]),
                seed=int(row["seed"]),
            ))
    return folds


def write_summary_csv(
    summaries: Mapping[str, ConditionSummary], path: str | Path
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["condition", "n_folds", "rmse_mean", "rmse_std",
                         "r2_mean", "r2_std"])
        for name in summaries:
            s = summaries[name]
            writer.writerow([s.condition, s.n_folds, repr(s.rmse_mean),
                             repr(s.rmse_std), repr(s.r2_mean), repr(s.r2_std)])
