"""Spans around calls into taskopt's public functions, for the traced run.

Nothing in taskopt changes. The wrappers replace the names that
``taskopt.cli`` and ``taskopt.cluster`` look up at call time (one of
them, ``cluster._lloyd``, is private), and the study gets a timing
trainer through ``run_study``'s public ``trainer`` argument. Spans
stay in memory. A fold's span is recorded in whichever process trains
the fold and travels back to the parent on the fold's training
history, which the pool already returns.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields

from taskopt import cli, cluster, crossval, nn
from taskopt.nn import FcnnModel, TrainHistory


class Tracer:
    """In-memory spans (name, pid, start, end) and counters of one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.study: dict = {}

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "pid": os.getpid(), "start": time.perf_counter()}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()


@dataclass
class TimedHistory(TrainHistory):
    """A fold's training history plus the span of its training call."""

    fold_span: dict | None = None


def train_counting_steps(model: FcnnModel, train_xy, val_xy, config):
    """``nn.train`` on ``model``; returns (model, history, steps taken).

    ``train`` draws dropout masks once per step, so the steps are the
    calls to this model's ``draw_dropout_masks``.
    """
    steps = 0
    draw = model.draw_dropout_masks

    def counted(*args, **kwargs):
        nonlocal steps
        steps += 1
        return draw(*args, **kwargs)

    model.draw_dropout_masks = counted
    try:
        trained, history = nn.train(model, train_xy, val_xy, config)
    finally:
        del model.draw_dropout_masks
    return trained, history, steps


def fold_trainer(train_xy, val_xy, config):
    """The default trainer, timed; picklable so pool workers can run it.

    Builds and trains the network as ``crossval.fcnn_trainer`` does, so
    the fold results are the same.
    """
    start = time.perf_counter()
    model, history, steps = train_counting_steps(
        FcnnModel(config), train_xy, val_xy, config)
    end = time.perf_counter()
    span = {
        "name": "crossval.fold_train",
        "pid": os.getpid(),
        "start": start,
        "end": end,
        "epochs": len(history.records),
        "steps": steps,
    }
    kept = {f.name: getattr(history, f.name) for f in fields(TrainHistory)}
    return model, TimedHistory(**kept, fold_span=span)


def _wrap(tracer: Tracer, module, name: str, span_name: str, after=None):
    original = getattr(module, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    setattr(module, name, wrapper)
    return module, name, original


def _run_study_with_timing(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(samples, conditions, nn_config, *args, **kwargs):
        kwargs.setdefault("trainer", fold_trainer)
        with tracer.span("crossval.run_study"):
            study = original(samples, conditions, nn_config, *args, **kwargs)
        for history in study.histories.values():
            if isinstance(history, TimedHistory) and history.fold_span:
                tracer.spans.append(history.fold_span)
        # Kept for payload_mb(), which runs after the stage's span ends.
        tracer.study = {
            "samples": samples,
            "conditions": conditions,
            "nn_config": nn_config,
            "seed": kwargs.get("seed", 0),
            "val_fraction": kwargs.get("val_fraction", 0.8),
        }
        return study

    return wrapper


def payload_mb(tracer: Tracer) -> float:
    """Pickled size of the first (condition, fold) job of the last study.

    Measures what ``run_study`` ships to a pool worker for one job, with
    the same argument tuple it builds.
    """
    study = tracer.study
    if not study:
        return 0.0
    fold = crossval.loso_folds(study["samples"])[0]
    name, task_set = next(iter(study["conditions"].items()))
    job = (name, tuple(task_set.tasks), fold, study["seed"], study["nn_config"],
           study["val_fraction"], fold_trainer)
    return len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6


@contextmanager
def installed(tracer: Tracer):
    """Wrap taskopt's public functions for the duration of the block."""

    def count_sensor_rows(result):
        tracer.counters["dataset.sensor_loads"] += 1
        tracer.counters["dataset.sensor_rows"] += result[1].rows_read

    def count_components(result):
        tracer.counters["pca.n_components"] = result[0]

    def count_lloyd(result):
        tracer.counters["cluster.kmeans_fits"] += 1
        tracer.counters["cluster.lloyd_iters"] += len(result[3])

    patches = [
        _wrap(tracer, cli, "load_profiles", "dataset.load_profiles"),
        _wrap(tracer, cli, "load_sensor_samples", "dataset.load_sensor_samples",
              count_sensor_rows),
        _wrap(tracer, cli, "pca_fit", "pca.fit"),
        _wrap(tracer, cli, "select_components", "pca.select_components",
              count_components),
        _wrap(tracer, cli, "select_k", "cluster.select_k"),
        # The one private name: no public function shows the restarts
        # that ran. kmeans calls it once per restart.
        _wrap(tracer, cluster, "_lloyd", "cluster.lloyd", count_lloyd),
        _wrap(tracer, cluster, "silhouette_score", "cluster.silhouette"),
    ]
    patches.append((cli, "run_study", cli.run_study))
    cli.run_study = _run_study_with_timing(tracer, cli.run_study)
    try:
        yield tracer
    finally:
        for module, name, original in reversed(patches):
            setattr(module, name, original)
