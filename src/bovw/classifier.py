"""Multi-class linear SVM, one-vs-rest, trained by seeded subgradient descent.

Each class gets a binary L2-regularized hinge-loss classifier against the
rest. All binary problems share the per-epoch shuffled example order, so the
joint update below is exactly the per-class sequential training.

Training keeps the weights as W = a*V, a scalar scale times a matrix (the
Pegasos scale factor, Shalev-Shwartz, Singer & Srebro 2007), so the shrink
of W per update is one float product. From the same paper's kernel form, it
keeps V's score on every training row, s[j, l] = V_j . x_l, and V itself as
coefficients over the training rows: an update reads its margins from s and
steps the violated rows of s by a row of the Gram matrix x @ x.T, so no
update touches a k-long vector. It follows the textbook per-update formula's
branches and biases, and its weights to rounding, unless a textbook margin
lies within rounding of 1 (see train_ovr).
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
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
        if not (math.isfinite(self.c_reg) and self.c_reg > 0):
            raise ValueError("c_reg must be positive and finite")
        if not isinstance(self.epochs, numbers.Integral):
            raise ValueError("epochs must be an integer")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class LinearModel:
    weights: np.ndarray  # (C, k) float64
    biases: np.ndarray  # (C,) float64
    labels: list[str]  # strictly ascending, C >= 2

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("model needs at least 2 classes")
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError("labels must be strictly ascending")
        if self.weights.ndim != 2 or self.weights.shape[0] != len(self.labels):
            raise ValueError("weights must be (C, k)")
        if self.biases.shape != (len(self.labels),):
            raise ValueError("biases must be (C,)")


@functools.cache
def _pin_blas() -> bool:
    """Pin the OpenBLAS bundled with numpy to one thread for the rest of the
    process, and shut its server threads down where the library has
    ``blas_thread_shutdown_`` (which OpenBLAS also registers with
    ``pthread_atfork``): an idle server spins on a core for a while, a core
    that image threads or training's Python loop need, and one-thread calls
    start no server again. Image threads (``harness``) and ``train_ovr`` call it.
    Whether it could pin: False where numpy ships no such library (another
    BLAS or platform). The count and the threads are the process's."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            shutdown()
        return True
    return False


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D (n, k) feature matrix")
    return x


def svm_lambda(c_reg: float, n: int) -> float:
    """The regularization weight lambda = 1/(c_reg*n) for n training vectors;
    ValueError when it is 0 or inf (c_reg * n overflowed, or is subnormal)."""
    lam = 1.0 / (c_reg * n)
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda = 1/(c_reg*n) must be positive and finite, got {lam!r} "
                         f"for c_reg={c_reg!r} and n={n}")
    return lam


def train_ovr(
    x: np.ndarray,
    labels: Sequence[str],
    cfg: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train one binary hinge classifier per class (that class vs the rest).

    Stochastic subgradient descent with step eta = 1/(lambda*t) where
    lambda = 1/(c_reg*n) and t counts updates across epochs; the example
    order is reshuffled each epoch from the seeded generator. Deterministic:
    the same data and config always give the same model.

    The textbook update, per example x_i with class signs y (+1 own, -1 rest):

        margin = y * (W @ x_i + b); W *= 1 - eta*lam
        for violated j (margin_j < 1): W_j += (eta*y_j) * x_i; b_j += eta*y_j

    runs on W = a*V with V_j = sum_l coef[j, l] * x_l. The Gram matrix
    G = x @ x.T is formed once, and s[j, l] = V_j . x_l is kept for every
    class and training row. The margins are a_old*s[j, i] + b_j, with the
    scale from before the shrink; the shrink is a *= 1 - eta*lam; a violated
    row j steps s_j by +-(eta/a)*G[i] (from one buffer) and coef[j, i] by
    +-eta/a; and W = (coef @ x) * a once at the end. So an update costs a
    C-long column read plus an n-long step per violated class, not a (C, k)
    matrix-vector product plus k-long steps. s is V @ x.T summed in another
    order, so the margins differ from the textbook's only by rounding, and
    the two loops take the same branches and build the same biases unless a
    textbook margin lies within rounding of 1, which structured data (small
    integer features, one image per class) can reach. On the tests' inputs
    the biases match tests/oracles.py byte for byte, the weights to 1e-12
    relative.

    Memory is O(n**2) in the n training rows: G is n x n float64, so 0.15 MB
    for the sweep's 136 rows and 73 MB for Caltech-101's 3,030 (30 per class),
    besides the (C, n) scores and coefficients. The Gram product is BLAS's,
    so BLAS is first pinned to one thread for the rest of the process
    (``_pin_blas``): the updates are a Python loop, and an idle OpenBLAS
    server thread would spin beside it.

    The scale never reaches 0, so it needs no renormalization. At update 1
    the shrink 1 - fl(1/lam)*lam mostly rounds to 0 while W is all zeros,
    and a stays 1; otherwise it is exact (Sterbenz), so |a| >= 2**-53. Then
    1 - eta_t*lam is 1 - 1/t up to rounding: a shrinks like 1/t, and the
    steps eta/a stay of one size.
    """
    x = _as_matrix(x)
    n = len(x)
    if n == 0:
        raise ValueError("empty training set")
    if len(labels) != n:
        raise ValueError(f"{n} vectors but {len(labels)} labels")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 distinct classes to train")
    class_idx = {c: i for i, c in enumerate(classes)}
    own_class = [class_idx[l] for l in labels]

    lam = svm_lambda(cfg.c_reg, n)
    _pin_blas()
    gram = x @ x.T
    s = np.zeros((len(classes), n), dtype=np.float64)  # s[j, l] = V_j . x_l
    s_rows = list(s)  # row views, updated in place
    coef = [[0.0] * n for _ in classes]  # V_j = sum_l coef[j][l] * x_l
    b = [0.0] * len(classes)
    step = np.empty(n, dtype=np.float64)
    a = 1.0  # W = a * V
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        eta = 1.0 / (lam * np.arange(epoch * n + 1, (epoch + 1) * n + 1))
        shrink = 1.0 - eta * lam
        for i, eta_t, shrink_t in zip(order.tolist(), eta.tolist(), shrink.tolist()):
            a_old = a
            if shrink_t:  # 0 only at the first update, while W is all zeros
                a *= shrink_t
            own = own_class[i]
            c = eta_t / a
            stepped = False
            for j, r_j in enumerate(s[:, i].tolist()):
                m = a_old * r_j + b[j]
                if j == own:
                    if m < 1.0:
                        if not stepped:
                            np.multiply(gram[i], c, out=step)
                            stepped = True
                        s_rows[j] += step
                        coef[j][i] += c
                        b[j] += eta_t
                elif -m < 1.0:
                    if not stepped:
                        np.multiply(gram[i], c, out=step)
                        stepped = True
                    s_rows[j] -= step
                    coef[j][i] -= c
                    b[j] -= eta_t
    v = (np.array(coef) @ x) * a
    return LinearModel(weights=v, biases=np.array(b), labels=classes)


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
    return reader.make(LinearModel, weights=rows[:, :k].copy(), biases=rows[:, k].copy(),
                       labels=labels)
