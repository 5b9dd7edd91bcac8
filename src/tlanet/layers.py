"""Recurrent and dense building blocks on top of the tensor core.

A sequence is one time-major tensor of shape (steps, batch, width); a
repeat vector is a (batch, width) tensor that an LSTM stack reads at
every step. ``lstm_forward`` runs K stacks of the same shape side by side,
one ``lstm_layer`` op per depth for all of them. Row-wise heads (dense
layers, the meta-learner) run once over a sequence flattened to
(steps * batch, width) rows. Rank-1 vectors are
accepted by ``dense_forward`` and promoted through a recorded reshape so
gradients still flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

GATES = ("input", "forget", "output", "candidate")


def _uniform(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, (rows, cols))


def _init_matrix(rng: np.random.Generator, rows: int, cols: int, fan_in: int, name: str) -> Tensor:
    return Tensor(_uniform(rng, rows, cols, fan_in), requires_grad=True, name=name)


def _as_rows(x: Tensor) -> tuple[Tensor, bool]:
    if len(x.shape) == 1:
        return T.reshape(x, (1, x.shape[0])), True
    if len(x.shape) == 2:
        return x, False
    raise ShapeError(f"expected a vector or matrix, got shape {x.shape}")


@dataclass
class LSTMCellParams:
    """One LSTM layer's packed gates: rows of ``w``, ``u`` and ``b`` are the
    input, forget, output and candidate gates, ``hidden_size`` rows each."""

    w: Tensor  # (4 * hidden, input) input weights
    u: Tensor  # (4 * hidden, hidden) recurrent weights
    b: Tensor  # (4 * hidden,) bias

    def __post_init__(self):
        rows = self.w.shape[0] if len(self.w.shape) == 2 else 0
        hidden = rows // 4
        if len(self.w.shape) != 2 or rows != 4 * hidden or hidden == 0:
            raise ShapeError(f"gate weights have shape {self.w.shape}, expected (4 * hidden, input)")
        if self.u.shape != (rows, hidden):
            raise ShapeError(f"recurrent gate weights have shape {self.u.shape}, expected {(rows, hidden)}")
        if self.b.shape != (rows,):
            raise ShapeError(f"gate bias has shape {self.b.shape}, expected {(rows,)}")

    @property
    def input_size(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.u.shape[1]

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator,
             forget_bias: float = 1.0, prefix: str = "lstm") -> "LSTMCellParams":
        # per gate, draw the input then the recurrent uniforms, the order
        # in which per-gate parameters were always drawn, so a seed keeps
        # building the same model
        ws, us = [], []
        for _ in GATES:
            ws.append(_uniform(rng, hidden_size, input_size, input_size))
            us.append(_uniform(rng, hidden_size, hidden_size, hidden_size))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = forget_bias
        return cls(Tensor(np.concatenate(ws), requires_grad=True, name=f"{prefix}.w_gates"),
                   Tensor(np.concatenate(us), requires_grad=True, name=f"{prefix}.u_gates"),
                   Tensor(bias, requires_grad=True, name=f"{prefix}.b_gates"))

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LSTMCellParams":
        return cls(Tensor.zeros((4 * hidden_size, input_size), requires_grad=True),
                   Tensor.zeros((4 * hidden_size, hidden_size), requires_grad=True),
                   Tensor.zeros((4 * hidden_size,), requires_grad=True))

    def tensors(self):
        yield self.w
        yield self.u
        yield self.b


@dataclass
class StackedLSTMParams:
    """A pile of LSTM layers; layer k+1 consumes layer k's hidden sequence."""

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


# Branches run side by side in one op while a step's recurrent weights and
# gate blocks for all of them, 4H * (H + batch) values a branch, stay within
# this many values. Beyond it one op per branch is faster, as the per-call
# cost is no longer the larger part, and holds one branch's input projection
# at a time. Measured with one BLAS thread on an AVX-512 Xeon, three
# branches side by side take, against three single-branch ops, 0.46x the
# time at hidden 16 and batch 1, 0.75x at batch 32 and 1.05x at batch 256;
# at hidden 128 and batch 1 they take 1.05x.
SIDE_BY_SIDE_VALUES = 16384


def _branch_groups(branches: int, hidden: int, batch: int) -> list[range]:
    size = max(1, SIDE_BY_SIDE_VALUES // (4 * hidden * (hidden + batch)))
    return [range(lo, min(lo + size, branches)) for lo in range(0, branches, size)]


def lstm_forward(stacks: list[StackedLSTMParams], x: Tensor | list[Tensor], training: bool = False,
                 rng: np.random.Generator | None = None, *, steps: int | None = None,
                 last_only: bool = False, draws: np.ndarray | None = None,
                 lengths: np.ndarray | None = None) -> list[Tensor]:
    """Run K stacks of the same shape side by side over one input or one input each.

    ``x`` is a (steps, batch, in) sequence or a (batch, in) repeat vector
    read at each of ``steps`` steps, shared by every stack, or a list of K
    such inputs, one per stack. Returns each stack's top-layer hidden
    sequence (steps, batch, hidden), or its last hidden state
    (batch, hidden) when ``last_only``. The stacks run depth by depth:
    each depth is one ``lstm_layer`` op over all K stacks, or over groups of
    them when the layers are wide or the batch large (``SIDE_BY_SIDE_VALUES``).
    ``lengths`` packs the batch for every layer (see ``T.lstm_layer``): each
    row runs only its own steps, and the last hidden state is the state at
    its own length.

    Inverted dropout is applied between layers (not after the last), and
    only when ``training`` is true, so inference ignores ``rng``. Its masks
    come from ``draws``, uniform draws of shape (K, layers - 1, steps,
    batch, hidden), or else from one such block drawn from ``rng``: stack
    by stack, so in the order in which running the stacks one after
    another would draw them.
    """
    depths = {len(p.cells) for p in stacks}
    rates = {p.dropout for p in stacks}
    if len(depths) != 1 or len(rates) != 1:
        raise ShapeError(f"stacks run side by side need one depth and dropout rate, got depths "
                         f"{sorted(depths)} and rates {sorted(rates)}")
    top, rate = depths.pop() - 1, rates.pop()
    x0 = x if isinstance(x, Tensor) else x[0]
    batch = x0.shape[-2]
    use_dropout = training and rate > 0.0
    if use_dropout and draws is None:
        if rng is None:
            raise ValueError("training with dropout requires an rng")
        draws = rng.random((len(stacks), top, steps if len(x0.shape) == 2 else x0.shape[0],
                            batch, stacks[0].hidden_size))
    for depth in range(top + 1):
        cells = [p.cells[depth] for p in stacks]
        outs = []
        for group in _branch_groups(len(cells), cells[0].hidden_size, batch):
            outs += T.lstm_layer(x if isinstance(x, Tensor) else [x[k] for k in group],
                                 [cells[k].w for k in group], [cells[k].u for k in group],
                                 [cells[k].b for k in group], steps=steps if depth == 0 else None,
                                 last_only=last_only and depth == top, lengths=lengths)
        x = outs
        if use_dropout and depth < top:
            x = [T.dropout(xk, rate, draws[k, depth]) for k, xk in enumerate(x)]
    return x


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
    """Gather embedding rows for an id array of any rank; pad rows stay zero and untrained.

    A (steps, batch) id matrix gives the (steps, batch, dim) sequence.
    """
    return T.lookup_rows(t.table, ids, padding_idx=t.padding_idx)
