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

        dims = [config.input_dim, *config.hidden, 1]
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
            z = a @ self.params[f"h{i}.W"]
            z += self.params[f"h{i}.b"]
            z -= self.buffers[f"h{i}.running_mean"]
            z /= np.sqrt(self.buffers[f"h{i}.running_var"] + eps)
            z *= self.params[f"h{i}.gamma"]
            z += self.params[f"h{i}.beta"]
            a = np.maximum(z, 0.0, out=z)
        return a @ self.params["out.W"] + self.params["out.b"]

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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    if model.config.dropout_rate > 0.0 and masks is None:
        raise ValueError("dropout is active: pass the dropout masks")
    if x.shape[0] < 2:
        raise ValueError("training-mode forward needs a batch of at least 2")
    backprop = _Backprop(model)
    return backprop(model._normalize(x), y, masks), backprop.grads


class _Backprop:
    """Training-mode forward and backward pass of one model, with per-layer
    views of the parameters, the gradient ``grad`` (laid out like ``flat``)
    and the batch statistics ``stats`` (laid out like ``state``) built once.
    A call on a normalised batch overwrites ``grad`` and ``stats`` and
    returns the batch MSE. ReLU and dropout are one 0/1 factor ``act =
    (bn > 0) & mask``: forward is ``bn * act / keep``, backward ``da * act / keep``.
    """

    def __init__(self, model: FcnnModel):
        self.grad, self.stats = np.empty_like(model.flat), np.empty_like(model.state)
        self.grads = g = _views(self.grad, model._shapes)
        p, s = model.params, _views(self.stats, model._state_shapes)
        names = [(p, "W"), (p, "b"), (p, "gamma"), (p, "beta"), (s, "running_mean"),
                 (s, "running_var"), (g, "W"), (g, "b"), (g, "gamma"), (g, "beta")]
        self.layers = [[views[f"h{i}.{name}"] for views, name in names]
                       for i in range(model.n_hidden)]
        self.out = (p["out.W"], p["out.b"], g["out.W"], g["out.b"])
        self.eps, rate = model.config.bn_eps, model.config.dropout_rate
        self.keep = 1.0 - rate if rate > 0.0 else None

    def forward(self, a: np.ndarray, masks: Sequence[np.ndarray] | None):
        """The last hidden activations, and ``(a_in, zhat, invstd, act)`` per layer."""
        b, cache = a.shape[0], []
        for i, (W, bias, gamma, beta, mu, var, *_) in enumerate(self.layers):
            z = a @ W
            z += bias
            np.add.reduce(z, axis=0, out=mu)  # np.mean, bit for bit
            mu /= b
            z -= mu
            out = z * z
            np.add.reduce(out, axis=0, out=var)
            var /= b
            invstd = var + self.eps
            np.divide(1.0, np.sqrt(invstd, out=invstd), out=invstd)
            z *= invstd  # zhat
            np.multiply(z, gamma, out=out)
            out += beta
            act = ((out > 0.0) & masks[i] if self.keep else out > 0.0).astype(float)
            out *= act
            if self.keep:
                out /= self.keep
            cache.append((a, z, invstd, act))
            a = out
        return a, cache

    def __call__(self, a: np.ndarray, y: np.ndarray,
                 masks: Sequence[np.ndarray] | None) -> float:
        b = a.shape[0]
        a_last, cache = self.forward(a, masks)
        W_next, bias, gW, gb = self.out
        d = a_last @ W_next
        d += bias
        d -= y
        loss = float(np.add.reduce(d * d, axis=None) / d.size)  # np.mean(d**2)
        d *= 2.0
        d /= d.size  # d loss / d prediction
        np.matmul(a_last.T, d, out=gW)
        np.add.reduce(d, axis=0, out=gb)
        for (a_in, zhat, invstd, act), (W, _, gamma, *_, gW, gb, ggamma, gbeta) \
                in zip(reversed(cache), reversed(self.layers)):
            d = d @ W_next.T
            d *= act
            if self.keep:
                d /= self.keep  # d loss / d batch-norm output
            tmp = d * zhat
            np.add.reduce(tmp, axis=0, out=ggamma)
            np.add.reduce(d, axis=0, out=gbeta)
            d *= gamma  # dzhat; next, with the batch-statistics terms:
            # dz = invstd / b * (b * dzhat - sum(dzhat) - zhat * sum(dzhat * zhat))
            d_sum = np.add.reduce(d, axis=0)
            np.multiply(d, zhat, out=tmp)
            np.multiply(zhat, np.add.reduce(tmp, axis=0), out=tmp)
            d *= b
            d -= d_sum
            d -= tmp
            d *= invstd / b
            np.matmul(a_in.T, d, out=gW)
            np.add.reduce(d, axis=0, out=gb)
            W_next = W
        return loss


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    """(start, stop) of an epoch's batches, n >= 2. None starts at row n - 1:
    a trailing singleton cannot feed batch norm, so it joins the one before."""
    starts = list(range(0, n - 1, batch_size))
    return list(zip(starts, starts[1:] + [n]))


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
    Each epoch gathers the shuffled rows into one buffer and normalises
    them there, so a batch is a slice of it.
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
    flat, state, backprop = model.flat, model.state, _Backprop(model)
    grad, stats = backprop.grad, backprop.stats
    x_epoch = np.empty(x_train.shape)  # C order, as a gathered batch is
    # Adam (Kingma & Ba 2015): moments m, v and two work vectors.
    m, v, u, w = (np.zeros_like(flat) for _ in range(4))
    beta1, beta2, lr = config.beta1, config.beta2, config.learning_rate
    momentum = model.config.bn_momentum
    history = TrainHistory()
    best = (flat.copy(), state.copy())
    epochs_since_best = step = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        np.take(x_train, order, axis=0, out=x_epoch, mode="clip")  # no temporary
        x_epoch -= model.input_mean  # model._normalize, in place
        x_epoch /= model.input_std
        y_epoch, epoch_losses = y_train[order], []
        for start, stop in _batch_bounds(n, config.batch_size):
            masks = model.draw_dropout_masks(stop - start, rng)
            loss = backprop(x_epoch[start:stop], y_epoch[start:stop].reshape(-1, 1), masks)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            stats *= momentum
            state *= 1.0 - momentum
            state += stats
            epoch_losses.append(loss)

            # flat -= lr * (m / bias1) / (sqrt(v / bias2) + eps), op for op.
            step += 1
            m *= beta1
            m += np.multiply(grad, 1.0 - beta1, out=u)
            v *= beta2
            v += np.multiply(np.square(grad, out=u), 1.0 - beta2, out=u)
            np.multiply(np.divide(m, 1.0 - beta1**step, out=u), lr, out=u)
            np.sqrt(np.divide(v, 1.0 - beta2**step, out=w), out=w)
            w += config.adam_eps
            flat -= np.divide(u, w, out=u)

        val_mse = mse(model.predict(x_val), y_val)
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        history.records.append(EpochRecord(epoch, float(np.mean(epoch_losses)), val_mse))
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
