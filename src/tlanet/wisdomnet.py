"""Softmax classification head that refuses to guess below a confidence threshold.

The head is a plain linear-softmax classifier trained by full-batch
gradient descent. Training runs in plain numpy with no tape: the gradient
of the mean cross-entropy of a softmax is closed-form, and the loop does
the tape's floating-point operations in the tape's order, so for fewer
than 8 classes the trained head is bitwise the one the autodiff ops give.
At decision time the maximum class probability is
compared against a threshold: below it, the distinguished ``REJECTED``
value is returned instead of a class index. The head attaches to any
model's feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import PROB_FLOOR
from .tensor import ShapeError, Tensor


class _RejectedType:
    """Singleton marker for predictions the head declines to make."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Rejected"


REJECTED = _RejectedType()

# A Classification is either an int class index or REJECTED.
Classification = "int | _RejectedType"


def is_rejected(c) -> bool:
    return c is REJECTED


@dataclass
class WisdomNetHead:
    weights: Tensor  # (classes, features)
    bias: Tensor  # (classes,)
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(f"weights {self.weights.shape} vs bias {self.bias.shape}")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """Row-wise class probabilities for (n, features) or a single feature vector."""
        x = np.asarray(features, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.feature_dim:
            raise ShapeError(f"feature width {x.shape[1]} does not match head "
                             f"expecting {self.feature_dim}")
        z = x @ self.weights.array.T + self.bias.array
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs[0] if single else probs


def wisdomnet_train(data, labels, num_classes: int, epochs: int, learning_rate: float,
                    seed: int = 0, threshold: float = 0.5,
                    head: WisdomNetHead | None = None) -> WisdomNetHead:
    """Train the linear-softmax head by full-batch gradient descent.

    Passing an existing ``head`` continues training it in place. The
    threshold plays no role during training. With ``p`` the softmax and
    ``p_t`` its target entry, the gradient of the loss with respect to the
    logits is ``p * (onehot * gp - gp * p_t)``, where ``gp = -1 / (n * p_t)``
    above ``PROB_FLOOR`` and 0 at or below it, as ``clip_log`` has it.
    """
    x = np.asarray(data, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training data must be a non-empty (examples, features) array")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels {y.shape} do not match {x.shape[0]} examples")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"label outside [0, {num_classes})")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    if head is None:
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(x.shape[1])
        head = WisdomNetHead(
            Tensor(rng.uniform(-bound, bound, (num_classes, x.shape[1])),
                   requires_grad=True, name="head.w"),
            Tensor(rng.uniform(-bound, bound, num_classes), requires_grad=True, name="head.b"),
            threshold,
        )
    if x.shape[1] != head.feature_dim:
        raise ShapeError(f"feature width {x.shape[1]} does not match head "
                         f"expecting {head.feature_dim}")
    x = np.ascontiguousarray(x)
    n, k = x.shape[0], head.num_classes
    w, b = head.weights.array, head.bias.values
    picked = y * n + np.arange(n)  # each example's target entry in a flat (classes, n) array
    loss_scale = -1.0 / n
    p = np.empty((k, n))
    gz = np.empty((n, k))
    for _ in range(epochs):
        # class-major, so the softmax's reductions over classes are element-wise
        p[...] = (x @ w.T).T
        p += b[:, None]
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        p_t = p.reshape(-1).take(picked)
        gp = np.where(p_t > PROB_FLOOR, loss_scale / np.maximum(p_t, PROB_FLOOR), 0.0)
        s = gp * p_t
        g = p * np.subtract(0.0, s)
        g.reshape(-1)[picked] = p_t * (gp - s)
        # the (n, k) layout gives the BLAS product and the bias sum the tape's rounding
        gz[...] = g.T
        w -= learning_rate * (gz.T @ x)
        b -= learning_rate * gz.sum(axis=0)
    return head


def wisdomnet_classify(head: WisdomNetHead, x, theta: float | None = None):
    """Argmax of the head's softmax, or REJECTED when max probability < theta.

    Ties go to the lowest class index. ``theta`` defaults to the head's
    stored threshold; at theta=0 nothing is ever rejected.
    """
    theta = head.threshold if theta is None else float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {theta}")
    probs = head.probabilities(x)
    if probs.ndim != 1:
        raise ShapeError("wisdomnet_classify takes a single feature vector")
    if float(probs.max()) < theta:
        return REJECTED
    return int(np.argmax(probs))


def classify_batch(head: WisdomNetHead, features, theta: float | None = None) -> list:
    theta = head.threshold if theta is None else float(theta)
    probs = head.probabilities(np.atleast_2d(np.asarray(features, dtype=np.float64)))
    picks = probs.argmax(axis=1)
    maxes = probs.max(axis=1)
    return [REJECTED if m < theta else int(k) for k, m in zip(picks, maxes)]


def threshold_sweep(head: WisdomNetHead, features, labels, thetas) -> list[tuple[float, float, float]]:
    """(theta, coverage, accuracy-on-accepted) per grid point.

    Coverage is monotone non-increasing along an ascending grid; accuracy
    over an empty accepted set is reported as 0.
    """
    grid = [float(t) for t in thetas]
    if not grid:
        raise ValueError("threshold sweep needs a non-empty grid")
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise ValueError("sweep thresholds must lie in [0, 1]")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    probs = head.probabilities(x)
    maxes = probs.max(axis=1)
    picks = probs.argmax(axis=1)
    points = []
    for theta in grid:
        accepted = maxes >= theta
        total = int(accepted.size)
        kept = int(accepted.sum())
        coverage = kept / total if total else 0.0
        accuracy = float((picks[accepted] == y[accepted]).mean()) if kept else 0.0
        points.append((theta, coverage, accuracy))
    return points


def fit_rejection_head(features, labels, num_classes: int, epochs: int = 200,
                       learning_rate: float = 0.1, seed: int = 0,
                       threshold: float = 0.5) -> WisdomNetHead:
    """Base training followed by a pass that leans on the head's own mistakes.

    After the first phase, every example the head misclassifies (at
    threshold 0) is appended once more and training continues, giving
    hard examples double weight.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    head = wisdomnet_train(x, y, num_classes, epochs, learning_rate, seed, threshold)
    wrong = head.probabilities(x).argmax(axis=1) != y
    if wrong.any():
        x2 = np.concatenate([x, x[wrong]], axis=0)
        y2 = np.concatenate([y, y[wrong]], axis=0)
        wisdomnet_train(x2, y2, num_classes, epochs, learning_rate, head=head)
    return head
