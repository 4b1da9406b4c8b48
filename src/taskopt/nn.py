"""Fully connected regression network trained with Adam on mean squared error.

Each hidden layer is linear -> batch norm -> ReLU -> inverted dropout;
the output layer is linear. Forward, backward (including the batch-norm
batch-statistics terms), and the optimizer are implemented directly on
numpy arrays, which keeps training bit-reproducible for a given seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import DataFormatError, TrainingDivergedError

_PREDICT_CHUNK = 4096  # rows per eval-mode forward pass


@dataclass(frozen=True)
class FcnnConfig:
    """Architecture and training hyperparameters."""

    input_dim: int = 14
    hidden: tuple[int, ...] = (50, 50, 50)
    output_dim: int = 1
    dropout_rate: float = 0.2
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    normalize_inputs: bool = True

    def validate(self) -> None:
        problems = []
        if self.input_dim < 1:
            problems.append(f"input_dim={self.input_dim} must be positive")
        if self.output_dim < 1:
            problems.append(f"output_dim={self.output_dim} must be positive")
        if any(h < 1 for h in self.hidden):
            problems.append(f"hidden={self.hidden} must be positive sizes")
        if not (0.0 <= self.dropout_rate < 1.0):
            problems.append(f"dropout_rate={self.dropout_rate} must be in [0, 1)")
        if self.learning_rate <= 0.0:
            problems.append("learning_rate must be positive")
        if self.batch_size < 2:
            problems.append("batch_size must be >= 2 (batch norm needs variance)")
        if self.max_epochs < 1:
            problems.append("max_epochs must be >= 1")
        if not (1 <= self.patience <= self.max_epochs):
            problems.append("patience must be in [1, max_epochs]")
        if problems:
            raise ValueError("invalid network config: " + "; ".join(problems))


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mse: float = math.inf
    stopped_early: bool = False

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,train_mse,val_mse"]
        lines += [f"{r.epoch},{r.train_mse!r},{r.val_mse!r}" for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class FcnnModel:
    """Network parameters plus batch-norm running statistics.

    All parameters live in one flat vector ``flat`` and the running
    mean/variance of every hidden layer in one vector ``state``.
    ``params`` (keys like ``"h0.W"``, ``"out.b"``) and ``buffers`` are
    read-only mappings of named views into them, so a parameter is
    changed by writing into its view (``params["out.b"][:] = 0``).
    ``input_mean``/``input_std`` hold the z-scoring of raw inputs fitted
    on the training fold.
    """

    def __init__(self, config: FcnnConfig):
        config.validate()
        self.config = config
        self.input_mean = np.zeros(config.input_dim)
        self.input_std = np.ones(config.input_dim)

        dims = [config.input_dim, *config.hidden, config.output_dim]
        names = [f"h{i}" for i in range(len(config.hidden))] + ["out"]
        self._shapes, self._state_shapes = {}, {}  # name -> shape, in vector order
        for name, fan_in, fan_out in zip(names, dims, dims[1:]):
            self._shapes |= {f"{name}.W": (fan_in, fan_out), f"{name}.b": (fan_out,)}
            if name != "out":
                self._shapes |= {f"{name}.gamma": (fan_out,), f"{name}.beta": (fan_out,)}
                self._state_shapes |= {f"{name}.running_mean": (fan_out,),
                                       f"{name}.running_var": (fan_out,)}
        self.flat = np.ones(sum(map(math.prod, self._shapes.values())))
        self.state = np.ones(sum(map(math.prod, self._state_shapes.values())))
        self.params = MappingProxyType(_views(self.flat, self._shapes))
        self.buffers = MappingProxyType(_views(self.state, self._state_shapes))

        # gamma and running_var keep their 1; the draw order is fixed
        # (h0.W, h0.b, h1.W, ..., out.b) so a seed gives the same network.
        rng = np.random.default_rng([config.seed, 0])
        for name, fan_in in zip(names, dims):
            bound = 1.0 / math.sqrt(fan_in)
            for key in (f"{name}.W", f"{name}.b"):
                self.params[key][...] = rng.uniform(-bound, bound,
                                                    size=self._shapes[key])
            if name != "out":
                self.params[f"{name}.beta"][:] = 0.0
                self.buffers[f"{name}.running_mean"][:] = 0.0

    def __reduce__(self):
        # Rebuild through the checkpoint format so that the copy's
        # ``params`` are views into its own ``flat`` again.
        return FcnnModel.from_dict, (self.to_dict(),)

    @property
    def n_hidden(self) -> int:
        return len(self.config.hidden)

    # ---------------------------------------------------------------- forward

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.input_mean) / self.input_std

    def _forward_eval(self, x: np.ndarray) -> np.ndarray:
        a = self._normalize(x)
        eps = self.config.bn_eps
        for i in range(self.n_hidden):
            z = a @ self.params[f"h{i}.W"] + self.params[f"h{i}.b"]
            zhat = (z - self.buffers[f"h{i}.running_mean"]) / np.sqrt(
                self.buffers[f"h{i}.running_var"] + eps
            )
            a = np.maximum(self.params[f"h{i}.gamma"] * zhat
                           + self.params[f"h{i}.beta"], 0.0)
        return a @ self.params["out.W"] + self.params["out.b"]

    def _forward_train(
        self, x: np.ndarray, masks: Sequence[np.ndarray] | None
    ) -> tuple[np.ndarray, dict]:
        """Training-mode forward returning the cache the backward pass needs.

        Does not touch the running statistics: the batch mean and
        variance go into ``cache["stats"]``, laid out like ``state``, and
        the training loop folds them in so that gradient evaluation stays
        pure.
        """
        if x.shape[0] < 2:
            raise ValueError("training-mode forward needs a batch of at least 2")
        eps = self.config.bn_eps
        keep = 1.0 - self.config.dropout_rate
        stats = np.empty_like(self.state)
        batch_stats = _views(stats, self._state_shapes)
        a = self._normalize(x)
        cache: dict = {"layers": [], "stats": stats}
        for i in range(self.n_hidden):
            z = a @ self.params[f"h{i}.W"] + self.params[f"h{i}.b"]
            mu = np.mean(z, axis=0, out=batch_stats[f"h{i}.running_mean"])
            zc = z - mu
            var = np.mean(zc * zc, axis=0, out=batch_stats[f"h{i}.running_var"])
            invstd = 1.0 / np.sqrt(var + eps)
            zhat = zc * invstd
            bn_out = self.params[f"h{i}.gamma"] * zhat + self.params[f"h{i}.beta"]
            r = np.maximum(bn_out, 0.0)
            if self.config.dropout_rate > 0.0:
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
        pred = a @ self.params["out.W"] + self.params["out.b"]
        return pred, cache

    def draw_dropout_masks(self, batch_size: int,
                           rng: np.random.Generator) -> list[np.ndarray] | None:
        if self.config.dropout_rate == 0.0:
            return None
        keep = 1.0 - self.config.dropout_rate
        return [rng.random((batch_size, h)) < keep for h in self.config.hidden]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode predictions, chunked to bound memory.

        A pure function of the input: it draws no random numbers and
        leaves the running statistics alone.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(f"expected batch of shape (b, {self.config.input_dim})")
        if x.shape[0] == 0:
            raise ValueError("empty batch")
        pred = np.concatenate([self._forward_eval(x[i : i + _PREDICT_CHUNK])
                               for i in range(0, x.shape[0], _PREDICT_CHUNK)])
        if not np.all(np.isfinite(pred)):
            raise TrainingDivergedError("non-finite activations in forward pass")
        return pred

    # ------------------------------------------------------------- state I/O

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config) | {"hidden": list(self.config.hidden)},
            "params": {k: v.tolist() for k, v in sorted(self.params.items())},
            "buffers": {k: v.tolist() for k, v in sorted(self.buffers.items())},
            "input_mean": self.input_mean.tolist(),
            "input_std": self.input_std.tolist(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FcnnModel":
        """Rebuild a model from ``to_dict`` output.

        Every parameter and buffer of the config must be present with its
        exact shape, and nothing else; otherwise DataFormatError.
        """
        try:
            cfg_raw = dict(raw["config"])
            cfg_raw["hidden"] = tuple(cfg_raw["hidden"])
            model = cls(FcnnConfig(**cfg_raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad network config: {exc!r}") from exc
        for section, views in (("params", model.params), ("buffers", model.buffers)):
            given = raw.get(section)
            if not isinstance(given, dict):
                raise DataFormatError(f"{section} is not an object")
            if given.keys() != views.keys():
                raise DataFormatError(
                    f"{section}: missing {sorted(views.keys() - given.keys())}, "
                    f"unexpected {sorted(given.keys() - views.keys())}")
            for k, view in views.items():
                view[...] = _exact_array(given[k], view.shape, f"{section}[{k!r}]")
        dim = (model.config.input_dim,)
        model.input_mean = _exact_array(raw.get("input_mean"), dim, "input_mean")
        model.input_std = _exact_array(raw.get("input_std"), dim, "input_std")
        return model

    @classmethod
    def load(cls, path: str | Path) -> "FcnnModel":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (json.JSONDecodeError, DataFormatError) as exc:
            raise DataFormatError(f"{path}: not a valid checkpoint: {exc}") from exc


def _views(vec: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``vec``, one per name, reshaped to its shape."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vec[offset : offset + size].reshape(shape)
        offset += size
    return views


def _exact_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise DataFormatError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float).reshape(-1)
    target = np.asarray(target, dtype=float).reshape(-1)
    return float(np.mean((pred - target) ** 2))


def loss_and_gradients(
    model: FcnnModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: Sequence[np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch MSE and its exact gradients w.r.t. every parameter.

    The gradients are named views into one vector laid out like
    ``model.flat``. With dropout active the masks must be passed, so the
    same loss surface can be re-evaluated (finite-difference checks).
    Running statistics are not modified.
    """
    loss, grad, _ = _loss_grads_cache(model, x, y, masks)
    return loss, _views(grad, model._shapes)


def _loss_grads_cache(
    model: FcnnModel,
    x: np.ndarray,
    y: np.ndarray,
    masks: Sequence[np.ndarray] | None,
) -> tuple[float, np.ndarray, dict]:
    """Loss, the flat gradient vector and the forward cache."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, model.config.output_dim)
    b = x.shape[0]
    if model.config.dropout_rate > 0.0 and masks is None:
        raise ValueError("dropout is active: pass the dropout masks")

    pred, cache = model._forward_train(x, masks)
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
        # Batch-norm backward including the batch-statistics terms.
        dz = (layer["invstd"] / b) * (
            b * dzhat - dzhat.sum(axis=0) - zhat * (dzhat * zhat).sum(axis=0)
        )
        np.matmul(layer["a_in"].T, dz, out=grads[f"h{i}.W"])
        dz.sum(axis=0, out=grads[f"h{i}.b"])
        da = dz @ model.params[f"h{i}.W"].T
    return loss, grad, cache


def _make_batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, order.size, batch_size)]
    # A trailing singleton cannot feed batch norm; fold it into the
    # previous batch.
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(
    model: FcnnModel,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    config: FcnnConfig | None = None,
) -> tuple[FcnnModel, TrainHistory]:
    """Mini-batch Adam on MSE with early stopping on validation loss.

    Epoch order is shuffled with a seeded generator; after each epoch
    the validation MSE is computed in eval mode. The best-validation
    weights (and running statistics) are restored before returning.
    """
    config = config or model.config
    config.validate()
    x_train = np.asarray(train_data[0], dtype=float)
    y_train = np.asarray(train_data[1], dtype=float).reshape(-1)
    x_val = np.asarray(val_data[0], dtype=float)
    y_val = np.asarray(val_data[1], dtype=float).reshape(-1)
    n = x_train.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 training samples, got {n}")
    if x_val.shape[0] == 0:
        raise ValueError("validation set is empty")

    if config.normalize_inputs:
        std = x_train.std(axis=0)
        std[std == 0.0] = 1.0
        model.input_mean = x_train.mean(axis=0)
        model.input_std = std

    rng = np.random.default_rng([config.seed, 1])
    flat, state = model.flat, model.state
    m = np.zeros_like(flat)  # Adam moments (Kingma & Ba 2015)
    v = np.zeros_like(flat)
    momentum = model.config.bn_momentum
    history = TrainHistory()
    best = (flat.copy(), state.copy())
    epochs_since_best = 0
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for batch_idx in _make_batches(order, config.batch_size):
            xb = x_train[batch_idx]
            yb = y_train[batch_idx]
            masks = model.draw_dropout_masks(xb.shape[0], rng)
            loss, g, cache = _loss_grads_cache(model, xb, yb, masks)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}"
                )
            state *= 1.0 - momentum
            state += momentum * cache["stats"]
            epoch_losses.append(loss)

            step += 1
            bias1 = 1.0 - config.beta1**step
            bias2 = 1.0 - config.beta2**step
            m *= config.beta1
            m += (1.0 - config.beta1) * g
            v *= config.beta2
            v += (1.0 - config.beta2) * g**2
            flat -= config.learning_rate * (m / bias1) / (np.sqrt(v / bias2)
                                                          + config.adam_eps)

        val_mse = mse(model.predict(x_val), y_val)
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
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
