"""Leave-one-subject-out study over named training conditions.

Each fold holds out one subject entirely; the remaining pool is
filtered to the condition's task set, split 80/20 at trial granularity,
and used to train a regression network. Testing always uses the
left-out subject's full task set so conditions stay comparable.
"""

from __future__ import annotations

import csv
import logging
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import SampleTable
from .errors import InsufficientTrialsError
from .nn import FcnnConfig, FcnnModel, TrainHistory, train
from .taskselect import TaskSet

log = logging.getLogger("taskopt")


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


def _fold_subjects(
    samples: SampleTable, subjects: Sequence[str] | None = None
) -> list[str]:
    """The subjects left out in turn, sorted; at least two, each with samples."""
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
    return subjects


def loso_folds(
    samples: SampleTable, subjects: Sequence[str] | None = None
) -> list[LosoFold]:
    """One fold per subject, each testing on that subject alone."""
    folds = []
    for subject in _fold_subjects(samples, subjects):
        test_mask = samples.isin("subject", [subject])
        fold = LosoFold(
            left_out=subject,
            train_pool=samples.subset(~test_mask),
            test=samples.subset(test_mask),
        )
        if subject in fold.train_pool.subject_set():
            raise RuntimeError(f"subject {subject!r} leaked into its own train pool")
        folds.append(fold)
    return folds


def split_train_val(
    pool: SampleTable, fraction: float = 0.8, seed: int = 0
) -> tuple[SampleTable, SampleTable]:
    """Seeded train/validation split at trial granularity.

    All samples of a trial land on the same side. Train size is
    floor(fraction * n_trials); the validation side is never empty.
    The permutation indexes the pool's trials in sorted key order.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    trials = np.unique(pool.codes)  # codes rank the keys, so this is key order
    n_trials = trials.size
    if n_trials < 2:
        raise InsufficientTrialsError(
            f"need at least 2 trials to split, got {n_trials}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_trials)
    n_train = int(math.floor(fraction * n_trials))
    n_train = min(max(n_train, 1), n_trials - 1)
    mask = np.isin(pool.codes, trials[order[:n_train]])
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


# One (condition, left-out subject) fold: the condition's name and tasks,
# the left-out subject's index into the sorted subjects, the fold seed,
# the network config, the train fraction and the trainer.
FoldJob = tuple[str, tuple[str, ...], int, int, FcnnConfig, float, Trainer]


def _run_fold(samples: SampleTable, subjects: Sequence[str], job: FoldJob):
    """Train and test one fold, masked out of the whole study table.

    Returns ("ok", (result, history, checkpoint)), or ("skipped", reason)
    when the fold's training pool has fewer than 2 trials.
    """
    condition, task_set, index, fold_seed, nn_config, val_fraction, trainer = job
    left_out = subjects[index]
    held_out = samples.isin("subject", [left_out])
    test = samples.subset(held_out)
    pool = samples.subset(samples.isin("task", task_set) & ~held_out)
    if pool.n == 0:
        raise ValueError(
            f"condition {condition!r}: no training samples left after task filtering"
        )
    try:
        train_tab, val_tab = split_train_val(pool, fraction=val_fraction,
                                             seed=fold_seed)
    except InsufficientTrialsError as exc:
        return "skipped", str(exc)
    del pool  # the split copied its rows: free them before training
    for side in (train_tab, val_tab):
        if side.isin("subject", [left_out]).any():
            raise RuntimeError(f"subject {left_out!r} leaked into training data")
        if not side.isin("task", task_set).all():
            outside = sorted(set(side.tasks) - set(task_set))
            raise RuntimeError(f"tasks outside condition {condition!r}: {outside}")

    config = replace(nn_config, seed=fold_seed)
    model, history = trainer((train_tab.x, train_tab.y), (val_tab.x, val_tab.y),
                             config)
    pred = np.asarray(model.predict(test.x)).reshape(-1)
    m = metrics(pred, test.y)
    result = FoldResult(
        condition=condition,
        left_out=left_out,
        rmse=m.rmse,
        r2=m.r2,
        n_train=train_tab.n,
        n_val=val_tab.n,
        n_test=test.n,
        seed=fold_seed,
    )
    checkpoint = model.to_dict() if isinstance(model, FcnnModel) else None
    return "ok", (result, history, checkpoint)


# The study table and its subjects in a pool worker, set once by _init_worker.
_worker_study: tuple[SampleTable, list[str]] | None = None


def _init_worker(samples: SampleTable, subjects: list[str]) -> None:
    global _worker_study
    _worker_study = samples, subjects


def _run_fold_in_worker(job: FoldJob):
    return _run_fold(*_worker_study, job)


# Spawned workers read these when numpy loads, so each runs its BLAS on one
# thread: jobs workers then use jobs cores, rather than contending for them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_in_children():
    """Set the BLAS thread variables to 1 for the block; restore them after.

    This process's BLAS has long read its environment, so only children
    started inside the block are pinned.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _completed(samples: SampleTable, subjects: list[str], fold_jobs: list[FoldJob],
               jobs: int):
    """Yields (job index, output) of every fold job as it finishes.

    With ``jobs > 1`` the jobs run on a pool of spawned workers, each of
    which receives the table once; otherwise here, one at a time.
    """
    if jobs <= 1:
        for i, job in enumerate(fold_jobs):
            yield i, _run_fold(samples, subjects, job)
        return
    # Spawn starts workers on demand while jobs are submitted, and
    # replaces a dead one later, so the variables stay set throughout.
    with _one_blas_thread_in_children(), ProcessPoolExecutor(
            max_workers=min(jobs, len(fold_jobs)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker, initargs=(samples, subjects)) as pool:
        futures = {pool.submit(_run_fold_in_worker, job): i
                   for i, job in enumerate(fold_jobs)}
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            for future in futures:  # after a failure, run no more jobs
                future.cancel()


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
    subject) order regardless of scheduling. Jobs start in that order
    too, so the first condition's folds start first. Folds whose pool
    cannot be split (fewer than 2 trials) are skipped and reported.
    Each finished fold is logged with its position, RMSE and elapsed
    time.

    With ``jobs > 1`` the folds run in spawned worker processes, so a
    script that calls this needs an ``if __name__ == "__main__":`` guard.
    """
    if not conditions:
        raise ValueError("no conditions to run")
    subjects = _fold_subjects(samples)
    fold_jobs = [
        (name, tuple(task_set.tasks), fold_index, seed ^ fold_index, nn_config,
         val_fraction, trainer)
        for name, task_set in conditions.items()
        for fold_index in range(len(subjects))
    ]

    outputs: list = [None] * len(fold_jobs)
    start = time.perf_counter()
    for done, (i, output) in enumerate(
            _completed(samples, subjects, fold_jobs, jobs), start=1):
        outputs[i] = output
        status, out = output
        log.info("fold %d/%d %s %s %s elapsed=%.1fs", done, len(fold_jobs),
                 fold_jobs[i][0], subjects[fold_jobs[i][2]],
                 f"rmse={out[0].rmse:.4g}" if status == "ok" else "skipped",
                 time.perf_counter() - start)

    fold_results: list[FoldResult] = []
    histories: dict[tuple[str, str], TrainHistory] = {}
    checkpoints: dict[tuple[str, str], dict] = {}
    skipped: list[tuple[str, str, str]] = []
    for job, (status, out) in zip(fold_jobs, outputs):
        name, left_out = job[0], subjects[job[2]]
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
