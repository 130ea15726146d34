"""Multi-class linear SVM, one-vs-rest, trained by seeded subgradient descent.

Each class gets a binary L2-regularized hinge-loss classifier against the
rest. All binary problems share the per-epoch shuffled example order, so the
joint vectorized update below is exactly the per-class sequential training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import binfile

MODEL_MAGIC = b"BVWM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    c_reg: float = 1.0
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.c_reg <= 0:
            raise ValueError("c_reg must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class LinearModel:
    weights: np.ndarray  # (C, k) float64
    biases: np.ndarray  # (C,) float64
    labels: list[str]  # sorted, C >= 2

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("model needs at least 2 classes")
        if self.weights.shape != (len(self.labels), self.weights.shape[1]):
            raise ValueError("weights must be (C, k)")
        if self.biases.shape != (len(self.labels),):
            raise ValueError("biases must be (C,)")


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D (n, k) feature matrix")
    return x


def train_ovr(
    x: np.ndarray,
    labels: Sequence[str],
    cfg: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train one binary hinge classifier per class (that class vs the rest).

    Stochastic subgradient descent with step 1/(lambda*t) where
    lambda = 1/(c_reg*n) and t counts updates across epochs; the example
    order is reshuffled each epoch from the seeded generator. Deterministic:
    the same data and config always give the same model.
    """
    x = _as_matrix(x)
    n, k = x.shape
    if n == 0:
        raise ValueError("empty training set")
    if len(labels) != n:
        raise ValueError(f"{n} vectors but {len(labels)} labels")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 distinct classes to train")
    class_idx = {c: i for i, c in enumerate(classes)}
    y = np.array([class_idx[l] for l in labels], dtype=np.intp)
    n_cls = len(classes)

    # +1 for the row's own class, -1 for everyone else, per binary problem
    signs = np.full((n, n_cls), -1.0)
    signs[np.arange(n), y] = 1.0

    lam = 1.0 / (cfg.c_reg * n)
    w = np.zeros((n_cls, k), dtype=np.float64)
    b = np.zeros(n_cls, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi = x[i]
            ysign = signs[i]
            margin = ysign * (w @ xi + b)
            w *= 1.0 - eta * lam
            violated = margin < 1.0
            if violated.any():
                step = eta * ysign[violated]
                w[violated] += step[:, np.newaxis] * xi
                b[violated] += step
    return LinearModel(weights=w, biases=b, labels=classes)


def decision_scores(model: LinearModel, x: np.ndarray) -> np.ndarray:
    x = _as_matrix(x)
    if x.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match model dim {model.weights.shape[1]}"
        )
    return x @ model.weights.T + model.biases


def accuracy(model: LinearModel, x: np.ndarray, labels: Sequence[str]) -> float:
    """Fraction of predictions matching the true labels. A row predicts the
    label of its highest-scoring class; ties go to the lowest class index."""
    x = _as_matrix(x)
    if x.shape[0] == 0 or len(labels) == 0:
        raise ValueError("empty evaluation set")
    if x.shape[0] != len(labels):
        raise ValueError("vectors and labels must have equal length")
    pred_idx = np.argmax(decision_scores(model, x), axis=1)
    hits = sum(model.labels[p] == l for p, l in zip(pred_idx, labels))
    return hits / len(labels)


def save_model(model: LinearModel, path: str | Path) -> None:
    """Binary model file: header with the label table, then per class the
    k weights followed by the bias, all little-endian float64."""
    n_cls, k = model.weights.shape
    rows = np.hstack([model.weights, model.biases[:, np.newaxis]])
    binfile.write(path, MODEL_MAGIC, MODEL_VERSION, struct.pack("<2I", n_cls, k),
                  *map(binfile.pack_str, model.labels),
                  np.ascontiguousarray(rows, dtype="<f8"))


def load_model(path: str | Path) -> LinearModel:
    reader = binfile.Reader(path, MODEL_MAGIC, MODEL_VERSION, "linear model")
    n_cls, k = reader.fields("<2I")
    labels = [reader.string() for _ in range(n_cls)]
    rows = reader.array("<f8", n_cls * (k + 1)).reshape(n_cls, k + 1)
    return LinearModel(weights=rows[:, :k].copy(), biases=rows[:, k].copy(), labels=labels)
