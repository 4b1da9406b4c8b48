"""Warmed-up microbenchmark of taskopt.nn's public functions on a 64x14 batch.

Gives the per-call cost of the pieces of one training step and of
inference. Each figure is the median over several timed blocks of many
calls, after a warm-up block.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from taskopt.nn import FcnnConfig, FcnnModel, loss_and_gradients

from tracing import train_counting_steps

BATCH = 64
BLOCKS = 15
PREDICT_ROWS = 4096
STEP_BATCHES = 40  # per epoch in the whole-step measurement
STEP_EPOCHS = 1


def _per_call_us(calls: dict[str, tuple]) -> dict[str, float]:
    """Median per-call microseconds of each ``name: (fn, calls per block)``.

    Blocks of the different functions take turns, so a slow spell on a
    shared machine hits them all alike rather than one of them.
    """
    samples: dict[str, list[float]] = {name: [] for name in calls}
    for fn, _ in calls.values():
        fn()  # warm-up: first-call allocations and caches
    for _ in range(BLOCKS):
        for name, (fn, n) in calls.items():
            start = time.perf_counter()
            for _ in range(n):
                fn()
            samples[name].append((time.perf_counter() - start) / n)
    return {name: statistics.median(v) * 1e6 for name, v in samples.items()}


def nn_metrics(seed: int) -> dict[str, float]:
    """``nn.*_us`` figures; inputs are drawn from ``seed``."""
    rng = np.random.default_rng([seed, 99])
    config = FcnnConfig(seed=seed)
    model = FcnnModel(config)
    x = rng.normal(size=(BATCH, config.input_dim))
    y = rng.normal(size=BATCH)
    masks = model.draw_dropout_masks(BATCH, rng)
    mask_rng = np.random.default_rng([seed, 100])
    x_predict = rng.normal(size=(PREDICT_ROWS, config.input_dim))

    # A whole step, as train() takes it: masks, forward/backward, running
    # statistics, Adam, plus its share of the end-of-epoch validation pass
    # on one batch. One epoch of STEP_BATCHES steps per fit.
    rows = BATCH * STEP_BATCHES
    x_train = rng.normal(size=(rows, config.input_dim))
    y_train = rng.normal(size=rows)
    step_config = replace(config, max_epochs=STEP_EPOCHS, patience=STEP_EPOCHS)
    steps = []

    def fit():
        steps.append(train_counting_steps(
            FcnnModel(step_config), (x_train, y_train), (x, y), step_config)[2])

    us = _per_call_us({
        "loss_grad": (lambda: loss_and_gradients(model, x, y, masks=masks), 40),
        "masks": (lambda: model.draw_dropout_masks(BATCH, mask_rng), 400),
        "predict": (lambda: model.predict(x_predict), 2),
        "fit": (fit, 1),
    })
    step_us = us["fit"] / steps[-1]
    return {
        "nn.step_us": step_us,
        "nn.loss_grad_us": us["loss_grad"],
        "nn.masks_us": us["masks"],
        "nn.update_us": step_us - us["loss_grad"] - us["masks"],
        "nn.predict_us_per_krow": us["predict"] / (PREDICT_ROWS / 1000.0),
    }
