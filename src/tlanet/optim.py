"""Losses and optimizers: categorical cross-entropy, a reconstruction loss, Adam, a linear-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

PROB_FLOOR = 1e-12


class TrainingDivergence(RuntimeError):
    """A loss or gradient stopped being finite; carries the step it happened at."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


def cce_rows(probs: Tensor, targets) -> Tensor:
    """Mean categorical cross-entropy over the rows of a (batch, classes) tensor."""
    picked = T.take_per_row(probs, targets)
    return T.scale(T.total_sum(T.clip_log(picked, PROB_FLOOR)), -1.0 / probs.shape[0])


def _as_matrix(seq) -> Tensor:
    if isinstance(seq, Tensor):
        return seq
    rows = [T.reshape(v, (1, v.shape[0])) if len(v.shape) == 1 else v for v in seq]
    return T.concat(rows, axis=0)


def reconstruction_loss(inputs, outputs) -> Tensor:
    """Sum over steps and dimensions of squared differences between two sequences.

    Accepts rank-2 tensors or lists of step vectors; shapes must agree
    exactly. Zero iff the sequences are identical, and symmetric.
    """
    i_mat, o_mat = _as_matrix(inputs), _as_matrix(outputs)
    if i_mat.shape != o_mat.shape:
        raise ShapeError(f"reconstruction: input {i_mat.shape} vs output {o_mat.shape}")
    diff = T.sub(i_mat, o_mat)
    return T.total_sum(T.mul(diff, diff))


@dataclass
class LinearDecaySchedule:
    """Learning rate that moves affinely from ``start`` to ``end`` over ``total_steps``."""

    start: float
    end: float
    total_steps: int

    def rate(self, step: int) -> float:
        if not 0 <= step <= self.total_steps:
            raise ValueError(f"step {step} outside schedule of {self.total_steps} steps")
        if step == self.total_steps:  # keep the endpoints exact
            return self.end
        frac = step / self.total_steps
        return self.start + (self.end - self.start) * frac


@dataclass
class Adam:
    """Bias-corrected Adam on a fixed list of parameter tensors."""

    params: list[Tensor]
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.m:
            self.m = [np.zeros_like(p.values) for p in self.params]
        if not self.v:
            self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                name = p.name or f"parameter #{i}"
                raise TrainingDivergence(f"non-finite gradient in {name}", step=self.t)
            # in place, with the rounding of lr * m_hat / (sqrt(v_hat) + eps)
            m, v = self.m[i], self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = m / b1t
            update *= self.learning_rate
            denom = v / b2t
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p.values -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing; order matches ``params``.

        These are the live buffers, which the next ``step`` overwrites.
        """
        out: dict[str, np.ndarray] = {}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"adam.m.{i}"] = m
            out[f"adam.v.{i}"] = v
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        # copies: ``step`` updates the moments in place
        self.t = int(t)
        for i in range(len(self.params)):
            self.m[i] = arrays[f"adam.m.{i}"].copy()
            self.v[i] = arrays[f"adam.v.{i}"].copy()
