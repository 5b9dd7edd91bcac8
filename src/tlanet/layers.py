"""Recurrent and dense building blocks on top of the tensor core.

Sequences are time-major lists of rank-2 tensors, one ``(rows, width)``
tensor per step, where ``rows`` is 1 for a single example or the batch
size. Rank-1 vectors are accepted at the public entry points and promoted
through a recorded reshape so gradients still flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

GATES = ("input", "forget", "output", "candidate")


def _init_matrix(rng: np.random.Generator, rows: int, cols: int, fan_in: int, name: str) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, (rows, cols)), requires_grad=True, name=name)


def _as_rows(x: Tensor) -> tuple[Tensor, bool]:
    if len(x.shape) == 1:
        return T.reshape(x, (1, x.shape[0])), True
    if len(x.shape) == 2:
        return x, False
    raise ShapeError(f"expected a vector or matrix, got shape {x.shape}")


@dataclass
class LSTMCellParams:
    """The four-gate LSTM cell: input, forget, output gates plus tanh candidate."""

    input_size: int
    hidden_size: int
    w: dict[str, Tensor]  # gate -> (hidden, input) matrix
    u: dict[str, Tensor]  # gate -> (hidden, hidden) matrix
    b: dict[str, Tensor]  # gate -> (hidden,) bias

    def __post_init__(self):
        for gate in GATES:
            if self.w[gate].shape != (self.hidden_size, self.input_size):
                raise ShapeError(f"{gate} gate weight has shape {self.w[gate].shape}, "
                                 f"expected {(self.hidden_size, self.input_size)}")
            if self.u[gate].shape != (self.hidden_size, self.hidden_size):
                raise ShapeError(f"{gate} gate recurrent weight has shape {self.u[gate].shape}")
            if self.b[gate].shape != (self.hidden_size,):
                raise ShapeError(f"{gate} gate bias has shape {self.b[gate].shape}")

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator,
             forget_bias: float = 1.0, prefix: str = "lstm") -> "LSTMCellParams":
        w, u, b = {}, {}, {}
        for gate in GATES:
            w[gate] = _init_matrix(rng, hidden_size, input_size, input_size, f"{prefix}.w_{gate}")
            u[gate] = _init_matrix(rng, hidden_size, hidden_size, hidden_size, f"{prefix}.u_{gate}")
            bias = np.zeros(hidden_size)
            if gate == "forget":
                bias += forget_bias
            b[gate] = Tensor(bias, requires_grad=True, name=f"{prefix}.b_{gate}")
        return cls(input_size, hidden_size, w, u, b)

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LSTMCellParams":
        w = {g: Tensor.zeros((hidden_size, input_size), requires_grad=True) for g in GATES}
        u = {g: Tensor.zeros((hidden_size, hidden_size), requires_grad=True) for g in GATES}
        b = {g: Tensor.zeros((hidden_size,), requires_grad=True) for g in GATES}
        return cls(input_size, hidden_size, w, u, b)

    def tensors(self):
        for gate in GATES:
            yield self.w[gate]
            yield self.u[gate]
            yield self.b[gate]


@dataclass
class LSTMState:
    """Hidden and cell vectors, one row per example."""

    h: Tensor
    c: Tensor

    def __post_init__(self):
        if self.h.shape != self.c.shape:
            raise ShapeError(f"state shapes differ: h {self.h.shape} vs c {self.c.shape}")

    @classmethod
    def zeros(cls, rows: int, hidden_size: int) -> "LSTMState":
        return cls(Tensor.zeros((rows, hidden_size)), Tensor.zeros((rows, hidden_size)))


def lstm_cell_step(p: LSTMCellParams, x: Tensor, state: LSTMState) -> LSTMState:
    """One recurrence step: gates regulate what enters and leaves the cell."""
    x, _ = _as_rows(x)
    if x.shape[1] != p.input_size:
        raise ShapeError(f"input gate expects width {p.input_size}, got input of shape {x.shape}")
    if state.h.shape[1] != p.hidden_size:
        raise ShapeError(f"forget gate expects hidden width {p.hidden_size}, "
                         f"got state of shape {state.h.shape}")

    def gate(name, fn):
        z = T.add_bias(T.add(T.linear(x, p.w[name]), T.linear(state.h, p.u[name])), p.b[name])
        return fn(z)

    i = gate("input", T.sigmoid)
    f = gate("forget", T.sigmoid)
    o = gate("output", T.sigmoid)
    g = gate("candidate", T.tanh)
    c_new = T.add(T.mul(f, state.c), T.mul(i, g))
    h_new = T.mul(o, T.tanh(c_new))
    return LSTMState(h_new, c_new)


@dataclass
class StackedLSTMParams:
    """A pile of LSTM cells; layer k+1 consumes layer k's hidden sequence."""

    cells: list[LSTMCellParams]
    dropout: float = 0.0

    def __post_init__(self):
        for lower, upper in zip(self.cells, self.cells[1:]):
            if upper.input_size != lower.hidden_size:
                raise ShapeError(f"layer input width {upper.input_size} does not match "
                                 f"previous hidden width {lower.hidden_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    @property
    def input_size(self) -> int:
        return self.cells[0].input_size

    @classmethod
    def init(cls, input_size: int, hidden_size: int, num_layers: int,
             dropout: float, rng: np.random.Generator, prefix: str = "stack") -> "StackedLSTMParams":
        cells = []
        for k in range(num_layers):
            in_size = input_size if k == 0 else hidden_size
            cells.append(LSTMCellParams.init(in_size, hidden_size, rng, prefix=f"{prefix}.l{k}"))
        return cls(cells, dropout)

    def tensors(self):
        for cell in self.cells:
            yield from cell.tensors()


def lstm_forward(p: StackedLSTMParams, seq: list[Tensor], training: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[list[Tensor], list[LSTMState]]:
    """Unroll the stack over a sequence.

    Returns the top layer's hidden sequence and the final state of every
    layer. Inverted dropout is applied between layers (not after the last)
    and only when ``training`` is true, so inference ignores ``rng``.
    """
    if not seq:
        raise ValueError("lstm_forward needs a non-empty sequence")
    seq = [_as_rows(x)[0] for x in seq]
    rows = seq[0].shape[0]
    use_dropout = training and p.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("training with dropout requires an rng")
    finals: list[LSTMState] = []
    layer_in = seq
    for depth, cell in enumerate(p.cells):
        state = LSTMState.zeros(rows, cell.hidden_size)
        outputs = []
        for x in layer_in:
            state = lstm_cell_step(cell, x, state)
            outputs.append(state.h)
        finals.append(state)
        if use_dropout and depth < len(p.cells) - 1:
            outputs = [T.dropout(h, p.dropout, rng) for h in outputs]
        layer_in = outputs
    return layer_in, finals


def repeat_sequence(v: Tensor, times: int) -> list[Tensor]:
    """The same rows tensor at every one of ``times`` steps (a repeat vector).

    Reusing one tensor per step is equivalent to tiling plus a summed
    backward rule, because the tape accumulates the adjoints of each use.
    """
    if times < 1:
        raise ValueError(f"repeat_sequence needs times >= 1, got {times}")
    v, _ = _as_rows(v)
    return [v] * times


@dataclass
class DenseParams:
    weights: Tensor  # (out, in)
    bias: Tensor  # (out,)

    @classmethod
    def init(cls, input_size: int, output_size: int, rng: np.random.Generator,
             prefix: str = "dense") -> "DenseParams":
        return cls(
            _init_matrix(rng, output_size, input_size, input_size, f"{prefix}.w"),
            Tensor(np.zeros(output_size), requires_grad=True, name=f"{prefix}.b"),
        )

    def tensors(self):
        yield self.weights
        yield self.bias


def dense_forward(weights: Tensor, bias: Tensor, x: Tensor, act: str = "linear") -> Tensor:
    """``act(W x + b)`` with ``act`` one of linear, tanh, sigmoid, relu, softmax."""
    rows, was_vector = _as_rows(x)
    z = T.add_bias(T.linear(rows, weights), bias)
    if act == "linear":
        out = z
    elif act == "softmax":
        out = T.softmax_rows(z)
    else:
        out = T.activation(z, act)
    return T.reshape(out, (out.shape[1],)) if was_vector else out


@dataclass
class EmbeddingTable:
    """Token-id to vector table; the padding row is pinned at zero."""

    table: Tensor  # (vocab, dim)
    padding_idx: int = 0

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.table.shape[1]

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int, rng: np.random.Generator,
             padding_idx: int = 0, name: str = "embedding") -> "EmbeddingTable":
        bound = 1.0 / np.sqrt(embed_dim)
        values = rng.uniform(-bound, bound, (vocab_size, embed_dim))
        values[padding_idx] = 0.0
        return cls(Tensor(values, requires_grad=True, name=name), padding_idx)


def embedding_lookup(t: EmbeddingTable, ids) -> Tensor:
    """Gather embedding rows for a 1-D id sequence; pad rows stay zero and untrained."""
    return T.lookup_rows(t.table, ids, padding_idx=t.padding_idx)
