"""Independent oracles used by the tests.

These deliberately avoid the library code paths they check: the
eigensolver is a hand-rolled cyclic Jacobi sweep, the k-means oracle
enumerates every possible assignment, the CSV loaders read one row
at a time and resample one trial at a time, and the network trainer
takes one unfused, freshly allocated step at a time.
"""

import itertools
import math
from array import array
from pathlib import Path

import numpy as np

from taskopt.dataset import (
    PROFILE_COLUMNS,
    SENSOR_COLUMNS,
    SENSOR_INPUT_DIM,
    DataFormatError,
    FeatureMatrix,
    IngestStats,
    _open_csv,
    _sample_table,
    resample_linear,
)
from taskopt.nn import EpochRecord, TrainHistory, _views, mse


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=100):
    """Eigenvalues/vectors of a symmetric matrix via cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def brute_force_min_inertia(points, k):
    """Global minimum k-means inertia by enumerating every assignment."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) < k:
            continue
        inertia = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assign[i] == c]]
            inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, inertia)
    return best


def silhouette_by_hand(points, labels):
    """Direct per-point evaluation of the silhouette definition."""
    points = np.asarray(points, dtype=float)
    labels = list(labels)
    n = len(labels)
    values = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own])
        b = min(
            np.mean([np.linalg.norm(points[i] - points[j])
                     for j in range(n) if labels[j] == other])
            for other in set(labels) if other != labels[i]
        )
        values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(values))


# Published cluster/task share table used as a frozen reference: columns
# are (cluster, task, a_over_b, a_over_c, s_over_total, w, score). The
# factor columns are rounded to three decimals, so score checks use an
# absolute tolerance of 1e-3.
REFERENCE_TABLE = [
    (1, "Lunges", 0.172, 0.470, 1.000, 0.9, 0.07280),
    (1, "Dynamic Walk", 0.128, 0.523, 1.000, 0.9, 0.06011),
    (1, "Tire Run", 0.122, 1.000, 1.000, 0.9, 0.11000),
    (2, "Lift Weight", 0.406, 0.977, 1.000, 0.8, 0.31715),
    (2, "Lunges", 0.165, 0.530, 1.000, 0.9, 0.07880),
    (2, "Ball Toss", 0.151, 0.941, 1.000, 0.8, 0.11365),
    (3, "Stairs Up", 0.438, 0.914, 0.909, 1.0, 0.36387),
    (3, "Normal Walk", 0.298, 0.493, 1.000, 1.0, 0.14672),
    (3, "Incline Walk", 0.182, 1.000, 1.000, 1.0, 0.18182),
    (4, "Jump", 0.906, 0.755, 1.000, 0.9, 0.61547),
    (4, "Curb Down", 0.047, 0.167, 0.273, 0.8, 0.00171),
    (4, "Dynamic Walk", 0.024, 0.045, 0.182, 0.9, 0.00018),
    (5, "Normal Walk", 0.531, 0.233, 0.727, 1.0, 0.08998),
    (5, "Dynamic Walk", 0.406, 0.295, 0.818, 0.9, 0.08838),
    (5, "Stairs Down", 0.031, 0.017, 0.091, 1.0, 0.00005),
    (6, "Stairs Down", 0.528, 0.950, 0.909, 1.0, 0.45581),
    (6, "Walk Backward", 0.287, 0.939, 1.000, 0.9, 0.24268),
    (6, "Dynamic Walk", 0.056, 0.136, 0.364, 0.9, 0.00248),
    (7, "Cutting", 0.686, 0.795, 1.000, 0.8, 0.43672),
    (7, "Curb Down", 0.137, 0.292, 0.455, 0.8, 0.01456),
    (7, "Curb Up", 0.137, 0.292, 0.545, 0.8, 0.01747),
    (8, "Sit to Stand", 0.393, 0.500, 1.000, 0.9, 0.17679),
    (8, "Jump", 0.167, 0.137, 0.727, 0.9, 0.01497),
    (8, "Turn and Step", 0.143, 0.600, 1.000, 0.8, 0.06857),
]

REFERENCE_REPRESENTATIVES = {
    "Tire Run", "Lift Weight", "Stairs Up", "Jump", "Normal Walk",
    "Stairs Down", "Cutting", "Sit to Stand",
}


def _parse_number(token, parse, path, lineno, what):
    """``parse(token)`` in numpy's number grammar: no non-ASCII, no ``_``, int64."""
    t = token.strip()
    try:
        if not t.isascii() or "_" in t:
            raise ValueError(token)
        value = parse(t)
        if parse is int and not -2**63 <= value < 2**63:
            raise ValueError(token)
    except ValueError:
        raise DataFormatError(f"{path}: line {lineno}: malformed {what}") from None
    return value


def _parse_float(token, path, lineno, column, finite):
    value = _parse_number(token, float, path, lineno,
                          f"value {token!r} in column {column}")
    if finite and not math.isfinite(value):
        raise DataFormatError(
            f"{path}: line {lineno}: non-finite value in column {column}"
        )
    return value


def _check_ids(subject, task, trial, manifest, path, lineno):
    if not subject or not task or not trial:
        raise DataFormatError(
            f"{path}: line {lineno}: empty subject/task/trial identifier"
        )
    if task not in manifest:
        raise DataFormatError(
            f"{path}: line {lineno}: unknown task id {task!r} (not in manifest)"
        )


def load_profiles_rowwise(path, manifest, target_length):
    """Row-by-row ``load_profiles``: one row, then one trial, at a time."""
    path = Path(path)
    fh, reader = _open_csv(path, PROFILE_COLUMNS)
    stats = IngestStats()
    trials = {}
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
            kept = not manifest[task].excluded
            idx = _parse_number(row[3], int, path, lineno, f"sample_index {row[3]!r}")
            values = tuple(
                _parse_float(row[i], path, lineno, PROFILE_COLUMNS[i], kept)
                for i in range(4, 7)
            )
            if not kept:
                stats.rows_excluded_task[task] += 1
                continue
            samples = trials.setdefault((subject, task, trial), {})
            if idx in samples:
                raise DataFormatError(
                    f"{path}: line {lineno}: duplicate sample_index {idx} "
                    f"for trial {(subject, task, trial)!r}"
                )
            samples[idx] = values
    finally:
        fh.close()

    rows = []
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
        rows.append(np.concatenate([resample_linear(ordered[:, c], target_length)
                                    for c in range(3)]))
    stats.n_items = len(rows)
    matrix = FeatureMatrix(
        rows=np.array(rows).reshape(len(rows), 3 * target_length),
        row_labels=sorted(trials),
    )
    return matrix, stats


def load_sensor_samples_rowwise(path, manifest):
    """Row-by-row ``load_sensor_samples``."""
    path = Path(path)
    fh, reader = _open_csv(path, SENSOR_COLUMNS)
    stats = IngestStats()
    values = array("d")  # per row: time, the inputs, the target
    row_trial = array("q")  # per row: index into trial_ids
    trial_ids = {}
    last_time = []
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
            kept = not manifest[task].excluded
            floats = [_parse_float(row[i], path, lineno, SENSOR_COLUMNS[i], kept)
                      for i in range(3, len(SENSOR_COLUMNS))]
            if not kept:
                stats.rows_excluded_task[task] += 1
                continue
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
    flat = np.asarray(values).reshape(-1, len(SENSOR_COLUMNS) - 3)
    table = _sample_table(flat[order, 1 : 1 + SENSOR_INPUT_DIM], flat[order, -1],
                          flat[order, 0], keys,
                          np.bincount(row_rank, minlength=len(keys)))
    stats.n_items = table.n
    return table, stats


# ------------------------------------------------------------ network training
#
# The unfused training step that ``taskopt.nn`` once ran: every step
# normalises its batch, rebuilds the named views, and keeps ReLU and
# dropout as separate operations. ``nn.train`` and ``FcnnModel.predict``
# must match these bit for bit. The constants are written out here, not
# imported, so that a changed constant in ``nn`` fails the match.

BN_EPS, BN_MOMENTUM = 1e-5, 0.1
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def forward_train_unfused(model, x, masks):
    """Training-mode forward: the prediction and the cache for the backward pass."""
    if x.shape[0] < 2:
        raise ValueError("training-mode forward needs a batch of at least 2")
    keep = 1.0 - model.config.dropout_rate
    stats = np.empty_like(model.state)
    batch_stats = _views(stats, model._state_shapes)
    a = (x - model.input_mean) / model.input_std
    cache = {"layers": [], "stats": stats}
    for i in range(model.n_hidden):
        z = a @ model.params[f"h{i}.W"] + model.params[f"h{i}.b"]
        mu = np.mean(z, axis=0, out=batch_stats[f"h{i}.running_mean"])
        zc = z - mu
        var = np.mean(zc * zc, axis=0, out=batch_stats[f"h{i}.running_var"])
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        zhat = zc * invstd
        bn_out = model.params[f"h{i}.gamma"] * zhat + model.params[f"h{i}.beta"]
        r = np.maximum(bn_out, 0.0)
        if model.config.dropout_rate > 0.0:
            mask = masks[i]
            out = r * mask / keep
        else:
            mask = None
            out = r
        cache["layers"].append({
            "a_in": a, "invstd": invstd, "zhat": zhat, "bn_out": bn_out,
            "mask": mask,
        })
        a = out
    cache["a_last"] = a
    pred = a @ model.params["out.W"] + model.params["out.b"]
    return pred, cache


def loss_grads_unfused(model, x, y, masks):
    """Batch MSE, the flat gradient vector and the forward cache."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    b = x.shape[0]
    pred, cache = forward_train_unfused(model, x, masks)
    diff = pred - y
    loss = float(np.mean(diff**2))

    grad = np.empty_like(model.flat)
    grads = _views(grad, model._shapes)
    dpred = 2.0 * diff / diff.size
    np.matmul(cache["a_last"].T, dpred, out=grads["out.W"])
    dpred.sum(axis=0, out=grads["out.b"])
    da = dpred @ model.params["out.W"].T

    keep = 1.0 - model.config.dropout_rate
    for i in reversed(range(model.n_hidden)):
        layer = cache["layers"][i]
        if layer["mask"] is not None:
            dr = da * layer["mask"] / keep
        else:
            dr = da
        dbn = dr * (layer["bn_out"] > 0.0)
        zhat = layer["zhat"]
        (dbn * zhat).sum(axis=0, out=grads[f"h{i}.gamma"])
        dbn.sum(axis=0, out=grads[f"h{i}.beta"])
        dzhat = dbn * model.params[f"h{i}.gamma"]
        dz = (layer["invstd"] / b) * (
            b * dzhat - dzhat.sum(axis=0) - zhat * (dzhat * zhat).sum(axis=0)
        )
        np.matmul(layer["a_in"].T, dz, out=grads[f"h{i}.W"])
        dz.sum(axis=0, out=grads[f"h{i}.b"])
        da = dz @ model.params[f"h{i}.W"].T
    return loss, grad, cache


def forward_eval_unfused(model, x):
    """Eval-mode forward with a new array for every intermediate."""
    a = (x - model.input_mean) / model.input_std
    for i in range(model.n_hidden):
        z = a @ model.params[f"h{i}.W"] + model.params[f"h{i}.b"]
        zhat = (z - model.buffers[f"h{i}.running_mean"]) / np.sqrt(
            model.buffers[f"h{i}.running_var"] + BN_EPS
        )
        a = np.maximum(model.params[f"h{i}.gamma"] * zhat
                       + model.params[f"h{i}.beta"], 0.0)
    return a @ model.params["out.W"] + model.params["out.b"]


def predict_unfused(model, x, chunk=4096):
    x = np.asarray(x, dtype=float)
    return np.concatenate([forward_eval_unfused(model, x[i : i + chunk])
                           for i in range(0, x.shape[0], chunk)])


def make_batches(order, batch_size):
    """Index arrays of the epoch's batches; a trailing singleton joins the last."""
    batches = [order[i : i + batch_size] for i in range(0, order.size, batch_size)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train_unfused(model, train_data, val_data, config=None):
    """``nn.train`` one gathered batch and one unfused step at a time."""
    config = config or model.config
    x_train = np.asarray(train_data[0], dtype=float)
    y_train = np.asarray(train_data[1], dtype=float).reshape(-1)
    x_val = np.asarray(val_data[0], dtype=float)
    y_val = np.asarray(val_data[1], dtype=float).reshape(-1)
    n = x_train.shape[0]
    std = x_train.std(axis=0)
    std[std == 0.0] = 1.0
    model.input_mean = x_train.mean(axis=0)
    model.input_std = std

    rng = np.random.default_rng([config.seed, 1])
    flat, state = model.flat, model.state
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    history = TrainHistory()
    best = (flat.copy(), state.copy())
    epochs_since_best = 0
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for batch_idx in make_batches(order, config.batch_size):
            xb = x_train[batch_idx]
            yb = y_train[batch_idx]
            masks = model.draw_dropout_masks(xb.shape[0], rng)
            loss, g, cache = loss_grads_unfused(model, xb, yb, masks)
            state *= 1.0 - BN_MOMENTUM
            state += BN_MOMENTUM * cache["stats"]
            epoch_losses.append(loss)

            step += 1
            bias1 = 1.0 - BETA1**step
            bias2 = 1.0 - BETA2**step
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g**2
            flat -= config.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)

        val_mse = mse(predict_unfused(model, x_val), y_val)
        history.records.append(
            EpochRecord(epoch, float(np.mean(epoch_losses)), val_mse)
        )
        if val_mse < history.best_val_mse:
            history.best_val_mse = val_mse
            history.best_epoch = epoch
            best = (flat.copy(), state.copy())
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                history.stopped_early = True
                break

    flat[:], state[:] = best
    return model, history
