"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Everything is 64-bit. A ``Tensor`` stores a flat value buffer plus a flat
gradient buffer of the same length; ``shape`` describes how the buffer is
viewed by the ops. The gradient buffer is allocated lazily, on its first
read or write, and ``Tape.backward`` writes gradients into leaf tensors
only (those no record on that tape produced), so op outputs never carry
one. Ops record themselves on the innermost active ``Tape`` (entered with
``with Tape() as tape:``); outside a tape they just compute, which is the
inference path.

The only broadcasts are ``add_bias`` (a bias row added to every row of a
matrix), ``weighted_sum`` (one attention weight per row scaling that row
of a part) and ``lstm_layer``'s repeat vector (one input read at every
step). Every other op requires exact shape agreement, which keeps each
backward rule small enough to audit by eye. ``lstm_layer`` is the one
composite op: K LSTM layers of the same shape run side by side over a
sequence, each step on the rows still inside their sequence (every row
when none ends early), with their backpropagation through time written
out by hand and checked by ``tla gradcheck``. It is also the one op with
several outputs, one per branch, recorded as a single tape record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "GraphError",
    "ScalarRecurrence",
    "add",
    "sub",
    "mul",
    "scale",
    "add_bias",
    "linear",
    "activation",
    "tanh",
    "softmax_rows",
    "concat",
    "weighted_sum",
    "reshape",
    "total_sum",
    "take_per_row",
    "clip_log",
    "lookup_rows",
    "take_rows",
    "dropout",
    "lstm_layer",
    "recurrence_trajectory",
    "recurrence_regime",
]


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class GraphError(RuntimeError):
    """The tape or a tensor was used outside its contract."""


def _as_shape(shape) -> tuple[int, ...]:
    return tuple(int(d) for d in shape)


class Tensor:
    """A dense float64 array with an accumulated gradient buffer.

    ``values`` and ``grad`` are flat 1-D arrays of identical length
    ``prod(shape)``. ``grad`` reads as zeros until ``Tape.backward`` adds
    into it; it is allocated on first access and dropped by ``zero_grad``.
    """

    __slots__ = ("shape", "values", "_grad", "requires_grad", "name")

    def __init__(self, values, shape=None, *, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(values, dtype=np.float64)
        if shape is None:
            shape = arr.shape
        shape = _as_shape(shape)
        flat = np.array(arr, dtype=np.float64).reshape(-1)
        if int(np.prod(shape, dtype=np.int64)) != flat.size:
            raise ShapeError(f"shape {shape} does not match {flat.size} values")
        self.shape = shape
        self.values = flat
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @classmethod
    def zeros(cls, shape, *, requires_grad: bool = False, name: str | None = None) -> "Tensor":
        return cls(np.zeros(shape), requires_grad=requires_grad, name=name)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @property
    def array(self) -> np.ndarray:
        """The values viewed at ``self.shape`` (a view, not a copy)."""
        return self.values.reshape(self.shape)

    @property
    def grad_array(self) -> np.ndarray:
        return self.grad.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0])

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"<Tensor shape={self.shape}{label} requires_grad={self.requires_grad}>"


def constant(values, shape=None) -> Tensor:
    return Tensor(values, shape, requires_grad=False)


@dataclass
class _Record:
    out: Tensor | tuple[Tensor, ...]  # a tuple for an op with several outputs
    inputs: tuple[Tensor, ...]
    # callable: shaped output adjoint -> tuple of shaped input adjoints; an op
    # with several outputs gets a list of their adjoints, None where none arrived
    rule: object


_TLS = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered log of primitive ops; replayed in reverse to accumulate grads.

    Records are appended in creation order, so walking them backwards is a
    valid reverse-topological traversal. A tape and the tensors produced on
    it belong to a single thread.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - would indicate misuse across threads
            raise GraphError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], rule) -> None:
        self._records.append(_Record(out, inputs, rule))

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/d(tensor) into ``grad`` for every leaf tensor reachable from ``loss``.

        A leaf is a tensor that no record on this tape produced: a
        parameter, a constant, or an output of another tape. Op outputs'
        adjoints live only for the walk, so their ``grad`` stays unallocated.
        Gradients add across calls: running backward twice doubles them.
        """
        if loss.values.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        adjoints: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones(loss.shape))}
        for rec in reversed(self._records):
            if type(rec.out) is tuple:
                gs = [adjoints.pop(id(o), (None, None))[1] for o in rec.out]
                if all(g is None for g in gs):
                    continue
                grads = rec.rule(gs)
            else:
                entry = adjoints.pop(id(rec.out), None)
                if entry is None:
                    continue
                grads = rec.rule(entry[1])
            for tin, g in zip(rec.inputs, grads):
                if g is None:
                    continue
                prev = adjoints.get(id(tin))
                adjoints[id(tin)] = (tin, g if prev is None else prev[1] + g)
        for leaf, g in adjoints.values():
            leaf.grad[:] += g.reshape(-1)


def _recording_tape(inputs: tuple[Tensor, ...]) -> "Tape | None":
    """The tape an op on ``inputs`` records on, or None when nothing will differentiate it."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        return tape
    return None


def _output(values: np.ndarray, shape, requires_grad: bool) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.shape = shape
    out.values = values.reshape(-1)
    out._grad = None
    out.name = None
    out.requires_grad = requires_grad
    return out


def _emit(values: np.ndarray, shape, inputs: tuple[Tensor, ...], rule) -> Tensor:
    """Wrap an op's freshly computed array; the output takes ownership, so no copy."""
    tape = _recording_tape(inputs)
    out = _output(values, shape, tape is not None)
    if tape is not None:
        tape._record(out, inputs, rule)
    return out


def _emit_many(values: list[np.ndarray], inputs: tuple[Tensor, ...], rule,
               tape: "Tape | None") -> list[Tensor]:
    """``_emit`` for an op with several outputs, each a contiguous array, recorded as one record."""
    outs = [_output(v, v.shape, tape is not None) for v in values]
    if tape is not None:
        tape._record(tuple(outs), inputs, rule)
    return outs


def _operands(inputs: tuple[Tensor, ...]) -> list[np.ndarray]:
    """The input arrays an op computes from and its backward rule reads.

    Under a recording tape they are copies, so an input changed in place
    between forward and backward cannot reach the gradients; otherwise
    they are views, and inference copies nothing.
    """
    if _recording_tape(inputs) is None:
        return [t.array for t in inputs]
    return [t.array.copy() for t in inputs]


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _emit(a.array + b.array, a.shape, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _emit(a.array - b.array, a.shape, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = _operands((a, b))
    return _emit(av * bv, a.shape, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(a.array * c, a.shape, (a,), lambda g: (g * c,))


def add_bias(m: Tensor, bias: Tensor) -> Tensor:
    """Add a bias row to every row of a rank-2 tensor (the one allowed broadcast)."""
    if len(m.shape) != 2 or len(bias.shape) != 1 or m.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias: matrix {m.shape} incompatible with bias {bias.shape}")
    return _emit(m.array + bias.array, m.shape, (m, bias), lambda g: (g, g.sum(axis=0)))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for ``x`` of shape (rows, fan_in) and ``w`` of shape (fan_out, fan_in)."""
    if len(x.shape) != 2 or len(w.shape) != 2:
        raise ShapeError(f"linear needs rank-2 operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: input width {x.shape} does not match weight {w.shape}")
    xv, wv = _operands((x, w))
    out = xv @ wv.T

    def rule(g):
        return g @ wv, g.T @ xv

    return _emit(out, out.shape, (x, w), rule)


_ACTIVATIONS = ("tanh", "relu")


def activation(x: Tensor, kind: str) -> Tensor:
    if kind not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}, expected one of {_ACTIVATIONS}")
    xv = x.array
    if kind == "tanh":
        y = np.tanh(xv)
        rule = lambda g, y=y: (g * (1.0 - y * y),)
    else:
        y = np.maximum(xv, 0.0)
        mask = (xv > 0.0).astype(np.float64)
        rule = lambda g, mask=mask: (g * mask,)
    return _emit(y, x.shape, (x,), rule)


def tanh(x: Tensor) -> Tensor:
    return activation(x, "tanh")


def _stable_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise stable softmax of a rank-2 tensor."""
    if len(x.shape) != 2 or x.shape[1] < 1:
        raise ShapeError(f"softmax_rows needs a rank-2 tensor with columns, got {x.shape}")
    y = _stable_softmax(x.array)

    def rule(g, y=y):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _emit(y, x.shape, (x,), rule)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero parts")
    rank = len(parts[0].shape)
    if not 0 <= axis < rank:
        raise ShapeError(f"concat axis {axis} out of range for rank {rank}")
    for p in parts:
        if len(p.shape) != rank:
            raise ShapeError(f"concat: ranks differ ({[q.shape for q in parts]})")
        for d in range(rank):
            if d != axis and p.shape[d] != parts[0].shape[d]:
                raise ShapeError(f"concat: ragged shapes {[q.shape for q in parts]} on axis {d}")
    out = np.concatenate([p.array for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def rule(g, axis=axis, bounds=bounds):
        return tuple(np.split(g, bounds, axis=axis))

    return _emit(out, out.shape, tuple(parts), rule)


def weighted_sum(attn: Tensor, parts: list[Tensor]) -> Tensor:
    """``sum_k attn[:, k:k+1] * parts[k]``: each row mixes the parts by its own weights.

    ``attn`` is (rows, K) and every part is (rows, width); backward gives
    each weight column the row-wise dot of the adjoint with its part.
    """
    if len(attn.shape) != 2 or attn.shape[1] != len(parts):
        raise ShapeError(f"weighted_sum: attention {attn.shape} does not weight {len(parts)} parts")
    for p in parts:
        if len(p.shape) != 2 or p.shape[0] != attn.shape[0] or p.shape != parts[0].shape:
            raise ShapeError(f"weighted_sum: parts {[q.shape for q in parts]} "
                             f"do not fit attention {attn.shape}")
    av, *pv = _operands((attn, *parts))
    out = av[:, 0:1] * pv[0]
    for k in range(1, len(pv)):
        out += av[:, k:k + 1] * pv[k]

    def rule(g):
        g_attn = np.stack([(g * v).sum(axis=1) for v in pv], axis=1)
        return (g_attn, *(av[:, k:k + 1] * g for k in range(len(pv))))

    return _emit(out, out.shape, (attn, *parts), rule)


def reshape(x: Tensor, shape) -> Tensor:
    shape = _as_shape(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    return _emit(x.values.reshape(shape).copy(), shape, (x,), lambda g, s=x.shape: (g.reshape(s),))


def total_sum(x: Tensor) -> Tensor:
    """Sum of all entries; the scalar reduction every loss bottoms out in."""
    return _emit(np.asarray(x.values.sum()), (), (x,), lambda g, s=x.shape: (np.full(s, float(g)),))


def take_per_row(x: Tensor, indices) -> Tensor:
    """``out[r] = x[r, indices[r]]`` for a rank-2 tensor; scatters on backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(x.shape) != 2 or idx.shape != (x.shape[0],):
        raise ShapeError(f"take_per_row: indices {idx.shape} do not fit {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise IndexError(f"take_per_row: index out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])
    out = x.array[rows, idx]

    def rule(g, shape=x.shape, rows=rows, idx=idx):
        gx = np.zeros(shape)
        gx[rows, idx] = g
        return (gx,)

    return _emit(out, (x.shape[0],), (x,), rule)


def clip_log(x: Tensor, floor: float = 1e-12) -> Tensor:
    """``log(max(x, floor))``; gradient is 1/x above the floor, 0 at or below it."""
    (xv,) = _operands((x,))
    clipped = np.maximum(xv, floor)
    out = np.log(clipped)

    def rule(g, xv=xv, clipped=clipped, floor=floor):
        return (np.where(xv > floor, g / clipped, 0.0),)

    return _emit(out, x.shape, (x,), rule)


def take_rows(x: Tensor, rows) -> Tensor:
    """``x[rows]`` for a rank-2 tensor and distinct row indices; backward puts each row's adjoint back.

    With every index at most once, the backward pass assigns instead of
    accumulating, which ``lookup_rows``'s repeated ids need.
    """
    idx = np.asarray(rows, dtype=np.int64)
    if len(x.shape) != 2 or idx.ndim != 1:
        raise ShapeError(f"take_rows: rows of rank {idx.ndim} from a tensor of shape {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]
                     or np.bincount(idx, minlength=x.shape[0]).max() > 1):
        raise IndexError(f"take_rows: row indices must be distinct and below {x.shape[0]}")

    def rule(g, shape=x.shape, idx=idx):
        gx = np.zeros(shape)
        gx[idx] = g
        return (gx,)

    return _emit(x.array[idx], (idx.size, x.shape[1]), (x,), rule)


def lookup_rows(table: Tensor, ids, padding_idx: int | None = None) -> Tensor:
    """Gather rows ``table[ids]`` for an id array of any rank; backward scatter-adds into exactly those rows.

    The output has shape ``ids.shape + (width,)``. A ``padding_idx`` row
    never receives gradient, so it stays pinned.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if len(table.shape) != 2 or idx.ndim < 1:
        raise ShapeError(f"lookup_rows: table {table.shape} with ids of rank {idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        bad = int(idx[(idx < 0) | (idx >= table.shape[0])][0])
        raise IndexError(f"token id {bad} outside table with {table.shape[0]} rows")
    out = table.array[idx]

    def rule(g, shape=table.shape, idx=idx.reshape(-1), pad=padding_idx):
        # one flat bincount sums each (row, column)'s adjoints in the order
        # np.add.at would, at a fraction of its per-element cost
        width = shape[1]
        flat = (idx[:, None] * width + np.arange(width)).ravel()
        gt = np.bincount(flat, weights=g.ravel(), minlength=shape[0] * width).reshape(shape)
        if pad is not None:
            gt[pad] = 0.0
        return (gt,)

    return _emit(out, out.shape, (table,), rule)


def dropout(x: Tensor, rate: float, draws: np.ndarray) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate).

    ``draws`` holds one uniform [0, 1) draw per element of ``x``, made by
    the caller; an element survives where its draw is below ``1 - rate``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if draws.shape != x.shape:
        raise ShapeError(f"dropout: draws {draws.shape} do not fit {x.shape}")
    keep = 1.0 - rate
    mask = (draws < keep) / keep
    return _emit(x.array * mask, x.shape, (x,), lambda g, mask=mask: (g * mask,))


# Backpropagation through time forms its per-step factors for blocks of
# steps with at most this many values each (64 KiB), so that no temporary
# grows with the sequence, the batch or the branches: larger ones are paged
# in afresh on every call.
BPTT_BLOCK_VALUES = 8192


def lstm_layer(x: Tensor | list[Tensor], w: list[Tensor], u: list[Tensor], b: list[Tensor],
               steps: int | None = None, last_only: bool = False,
               lengths: np.ndarray | None = None) -> list[Tensor]:
    """K LSTM layers of the same shape run side by side over packed sequences, recorded as a single op.

    Branch ``k`` has its own packed gates: ``w[k]`` (4H, in), ``u[k]``
    (4H, H) and ``b[k]`` (4H,) hold the input, forget, output and
    candidate gates in that order, the row layout of torch.nn.LSTM's
    ``weight_ih``/``weight_hh``. ``x`` is one input that every branch
    reads, or a list of K inputs, one per branch. An input is a time-major
    sequence (steps, batch, in), or a (batch, in) repeat vector that every
    one of ``steps`` steps reads. The state starts at zero. Returns the K
    branches' hidden sequences (steps, batch, H), or only their last hidden
    states (batch, H) when ``last_only``. A single layer is the case K = 1.

    ``lengths`` packs the batch, with the semantics of torch's
    ``pack_padded_sequence``: row ``r`` is a sequence of ``lengths[r]``
    steps, the rows are ordered longest first and the longest runs all
    ``steps``. Step ``t`` updates only the first ``m`` rows, those whose
    sequence is longer than ``t``; without ``lengths``, or when every row
    runs all steps, ``m`` is the batch at every step. A row that has ended
    keeps its ``h`` and ``c``, because nothing writes them: ``last_only``
    gives each row's state at its own last step, and a hidden sequence is
    zero past a row's length. No work is done on the steps past a row's
    length.

    Inside, the layer is feature-major and gate-major, and consecutive
    steps on the same ``m`` rows form a run. A step's gates for all
    branches are one contiguous (4, K, H, m) block ``z``: the sigmoid of
    the input, forget and output gates runs in place on ``z[:3]``, the
    candidate's tanh on ``z[3]``, and the cells are (K, H, m). A step reads the cell of the step before in
    place; a run on fewer rows than the one before starts from a compact
    copy of its rows' cells. The recurrent products ``u[k] @ h[k]`` are the
    slices of one K-batched matmul, where ``h[k]`` is the (H, m) transpose
    view of a hidden state stored batch-major, the layout the op returns;
    with one branch the product is written straight into ``z``. A
    sequence's input projection is ``x_rows @ w[k].T`` per branch, read
    through its transpose at each step; a repeat vector's is ``w[k] @ x.T``.
    Every step forms its gates as ``(u·h + x·w) + b``. With these operand
    layouts OpenBLAS runs every branch's products as a single-branch call
    does and as the batch-major layer (``h @ u.T`` on (batch, H) states)
    did, so outputs and gradients are bitwise the same at every batch up to
    192 and every multiple of 8 (OpenBLAS 0.3.31 on an AVX-512 Xeon); at
    other batch sizes, and on fewer rows than the batch, some products take
    another kernel and agree to a few ulps.

    Backward is backpropagation through time over each run's activated
    gates and cells, kept only when a tape records the call; ``tanh`` of
    each cell is recomputed from the kept cell, which gives the same bits.
    The factors that do not depend on the adjoint are formed for blocks of
    a run's steps (``BPTT_BLOCK_VALUES``), which does not change a bit.
    Each step's gate adjoints are formed in one (K, 4, H, m) block and
    copied into each branch's batch-major rows, which give the next ``dh``
    and, after the loop, the weight gradients summed over steps and batch
    rows in batch-major order; the rows of ended sequences are zero there.
    ``dh`` and ``dc`` widen with zeros where a run on more rows comes
    before. A row's output adjoint enters at the steps it covers: every
    step of its sequence, or its own last step with ``last_only``. A shared
    input appears once per branch among the record's inputs, last branch
    first, so the tape sums its gradient as it summed K single-branch ops
    recorded in branch order. The rule reads ``w`` and ``u`` by reference,
    which holds because parameters change only after backward.
    """
    branches = len(w)
    if branches == 0 or len(u) != branches or len(b) != branches:
        raise ShapeError(f"lstm_layer: {len(w)}, {len(u)} and {len(b)} branches of gate weights")
    xs = [x] * branches if isinstance(x, Tensor) else list(x)
    if len(xs) != branches:
        raise ShapeError(f"lstm_layer: {len(xs)} inputs for {branches} branches")
    w0, u0, b0 = w[0], u[0], b[0]
    if len(w0.shape) != 2 or len(u0.shape) != 2 or w0.shape[0] % 4 or w0.shape[0] == 0:
        raise ShapeError(f"lstm_layer: gate weights {w0.shape} and {u0.shape} must be (4H, in) and (4H, H)")
    hidden = w0.shape[0] // 4
    if u0.shape != (4 * hidden, hidden):
        raise ShapeError(f"lstm_layer: recurrent gate weights {u0.shape} do not fit "
                         f"{hidden} hidden units, expected {(4 * hidden, hidden)}")
    if b0.shape != (4 * hidden,):
        raise ShapeError(f"lstm_layer: gate bias {b0.shape} does not match gate weights {w0.shape}")
    for k in range(1, branches):
        if (w[k].shape, u[k].shape, b[k].shape) != (w0.shape, u0.shape, b0.shape):
            raise ShapeError(f"lstm_layer: the shape of branch {k}'s gates, {w[k].shape}, "
                             f"{u[k].shape}, {b[k].shape}, does not match branch 0's {w0.shape}, "
                             f"{u0.shape}, {b0.shape}")
        if xs[k].shape != xs[0].shape:
            raise ShapeError(f"lstm_layer: branch {k}'s input {xs[k].shape} differs from "
                             f"branch 0's {xs[0].shape}")
    x_shape = xs[0].shape
    repeat = len(x_shape) == 2
    if repeat:
        if steps is None or steps < 1:
            raise ValueError(f"lstm_layer on a repeat vector needs steps >= 1, got {steps}")
    elif len(x_shape) != 3 or steps not in (None, x_shape[0]):
        raise ShapeError(f"lstm_layer: input {x_shape} is neither (steps, batch, in) "
                         f"nor a (batch, in) repeat vector with steps given")
    else:
        steps = x_shape[0]
        if steps == 0:
            raise ValueError("lstm_layer needs a non-empty sequence")
    if x_shape[-1] != w0.shape[1]:
        raise ShapeError(f"lstm_layer: input width {x_shape[-1]} does not match gate weights {w0.shape}")

    n = branches
    batch, width = x_shape[-2], x_shape[-1]
    h4 = 4 * hidden
    runs = [(0, steps, batch)]  # (first step, end step, rows): steps that run on the same rows
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ShapeError(f"lstm_layer: {lengths.shape} lengths for a batch of {batch}")
        if batch:
            if lengths[0] != steps or lengths[-1] < 1 or (lengths[1:] > lengths[:-1]).any():
                raise ValueError(f"lstm_layer: lengths must run from {steps} steps down to at "
                                 f"least 1, longest first, got {lengths.tolist()}")
            ends = sorted(set(lengths.tolist()))  # a set: np.unique imports numpy.ma, about 1 MB
            rows = np.searchsorted(-lengths, [-e for e in ends], side="right")  # rows that reach e
            runs = list(zip([0, *ends[:-1]], ends, rows.tolist()))
    xvs = [t.array for t in xs]
    wvs = [t.array for t in w]
    uv = u0.array[None] if n == 1 else np.array([t.array for t in u])  # (K, 4H, H)
    if repeat:  # (K, 4H, batch), read gate-major
        xw = np.empty((n, h4, batch))
        for k in range(n):
            np.matmul(wvs[k], xvs[k].T, out=xw[k])
        xw_gm = xw.reshape(n, 4, hidden, batch).transpose(1, 0, 2, 3)
    else:  # (K, steps * batch, 4H), read gate-major per step
        xw = np.empty((n, steps * batch, h4))
        for k in range(n):
            np.matmul(xvs[k].reshape(steps * batch, width), wvs[k].T, out=xw[k])
        xw_gm = xw.reshape(n, steps, batch, 4, hidden).transpose(1, 3, 0, 4, 2)
    # a tile adds in one contiguous pass, a column does not
    bias = np.empty((4, n, hidden, batch))
    if n == 1:
        bias[...] = b0.array.reshape(4, 1, hidden, 1)
    else:
        bias[...] = np.array([t.array for t in b]).reshape(n, 4, hidden, 1).transpose(1, 0, 2, 3)
    inputs = (*reversed(xs), *(t for k in range(n) for t in (w[k], u[k], b[k])))
    tape = _recording_tape(inputs)
    keep = tape is not None
    seq = keep or not last_only  # every step's state is kept
    if seq:
        hs = np.zeros((n, steps + 1, batch, hidden))  # hs[k, t] is branch k's state before step t
        hs_t = hs.transpose(0, 1, 3, 2)
        h_in = hs_t[:, 0]
    else:  # one state, written in place, so a row that has ended keeps its last
        h = np.zeros((n, batch, hidden))
        h_in = h.transpose(0, 2, 1)  # the (K, H, batch) view the products read and the steps write
    c = np.zeros((n, hidden, batch))
    kept = []  # under a tape, each run's activated gates and cells
    for t0, t1, m in runs:
        if keep:
            zs = np.empty((t1 - t0, 4, n, hidden, m))  # activated i, f, o, candidate
            cs = np.empty((t1 - t0 + 1, n, hidden, m))  # cs[j] is the cell before step t0 + j
            kept.append((t0, t1, m, zs, cs))
        else:  # every step reuses one gate block and updates one cell in place
            zs = (np.empty((4, n, hidden, m)),) * (t1 - t0)
            cs = (np.empty((n, hidden, m)),) * (t1 - t0 + 1)
        np.copyto(cs[0], c[..., :m])  # the rows from m on have ended: their cells stay behind
        h_in = h_in[..., :m]
        if seq:
            hs_m = hs_t[..., :m]
        xw_m, bias_m = xw_gm[..., :m], bias[..., :m]
        tc = np.empty((n, hidden, m))  # tanh of the cell, recomputed by the backward pass
        if n > 1:  # the recurrent products u[k] @ h[k], branch-major
            rec = np.empty((n, h4, m))
            rec_gm = rec.reshape(n, 4, hidden, m).transpose(1, 0, 2, 3)
        for j in range(t1 - t0):
            z = zs[j]
            xw_t = xw_m if repeat else xw_m[t0 + j]
            if n == 1:  # one branch's gate-major block is its product's layout: add in place
                np.matmul(uv, h_in, out=z.reshape(1, h4, m))
                z += xw_t
            else:
                np.matmul(uv, h_in, out=rec)
                np.add(rec_gm, xw_t, out=z)
            z += bias_m
            sig = z[:3]  # sigmoid as 1 / (1 + exp(-v)), in place
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            np.tanh(z[3], out=z[3])
            c = cs[j + 1]
            np.multiply(z[1], cs[j], out=c)
            c += z[0] * z[3]
            np.tanh(c, out=tc)
            if seq:
                h_in = hs_m[:, t0 + j + 1]
            np.multiply(z[2], tc, out=h_in)
    if last_only and keep:  # each row's state at its own last step
        h = hs[:, steps] if lengths is None else hs[:, lengths, np.arange(batch)]
    outs = [h[k] for k in range(n)] if last_only else [hs[k, 1:] for k in range(n)]

    def rule(gs):
        g = np.zeros((n, *outs[0].shape))  # a branch no loss reads has a zero adjoint
        for k, gk in enumerate(gs):
            if gk is not None:
                g[k] = gk
        g_t = g.transpose(0, 2, 1) if last_only else g.transpose(0, 1, 3, 2)
        dz = np.empty((n, steps, batch, h4))  # all gate adjoints, batch-major per branch
        ut = uv.transpose(0, 2, 1)
        dh = dc = np.zeros((n, hidden, 0))
        for t0, t1, m, zs, cs in reversed(kept):
            dz[:, t0:t1, m:] = 0.0  # the rows that have ended
            dz_m = dz[:, :, :m]
            dz_mt, g_m = dz_m.transpose(0, 1, 3, 2), g_t[..., :m]
            # dh and dc widen with zeros to this run's rows; the new ones end at step t1 - 1
            ended = dh.shape[-1]
            wide = np.zeros((2, n, hidden, m))
            wide[0, ..., :ended], wide[1, ..., :ended] = dh, dc
            dh, dc = wide
            if last_only:
                dh[..., ended:] += g_m[..., ended:]
            d = np.empty((n, 4, hidden, m))  # one step's gate adjoints, branch-major
            d_rows = d.reshape(n, h4, m).transpose(0, 2, 1)
            dc_gates = dc[:, None]
            # the factors that do not depend on the adjoint, a block of steps at a
            # time: d_o = dh * k_o, dc += dh * k_c and (d_i, d_f, d_cand) = dc * k_gates
            block = max(1, BPTT_BLOCK_VALUES // (n * hidden * m))
            k_gates = np.empty((min(block, t1 - t0), n, 4, hidden, m))
            k_gates[:, :, 2] = 0.0
            for hi in range(t1 - t0, 0, -block):
                lo = max(0, hi - block)
                i, f, o, cand = (zs[lo:hi, q] for q in range(4))
                tcs = np.tanh(cs[lo + 1:hi + 1])  # recomputed, not kept: the same bits from the same cells
                k_o = tcs * o * (1.0 - o)
                k_c = o * (1.0 - tcs * tcs)
                kg = k_gates[:hi - lo]
                np.multiply(cand * i, 1.0 - i, out=kg[:, :, 0])
                np.multiply(cs[lo:hi] * f, 1.0 - f, out=kg[:, :, 1])
                np.multiply(i, 1.0 - cand * cand, out=kg[:, :, 3])
                for j in range(hi - lo - 1, -1, -1):
                    t = t0 + lo + j
                    if not last_only:
                        dh += g_m[:, t]
                    dc += dh * k_c[j]
                    np.multiply(dc_gates, kg[j], out=d)
                    np.multiply(dh, k_o[j], out=d[:, 2])
                    dc *= f[j]
                    np.copyto(dz_m[:, t], d_rows)
                    np.matmul(ut, dz_mt[:, t], out=dh)
        dxs, params = [], []
        for k in range(n):
            rows = dz[k].reshape(steps * batch, h4)
            du = rows.T @ hs[k, :steps].reshape(steps * batch, hidden)
            db = rows.sum(axis=0)
            if repeat:
                dz_x = dz[k].sum(axis=0)
                dw = dz_x.T @ xvs[k]
            else:
                dz_x = rows
                dw = rows.T @ xvs[k].reshape(steps * batch, width)
            dxs.append((dz_x @ wvs[k]).reshape(x_shape) if xs[k].requires_grad else None)
            params += (dw, du, db)
        return (*reversed(dxs), *params)

    return _emit_many(outs, inputs, rule, tape)


# ---------------------------------------------------------------------------
# the scalar recurrence x_n = W^n x_0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarRecurrence:
    """A single scalar weight applied repeatedly to an initial value."""

    weight: float
    x0: float
    steps: int

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


def recurrence_trajectory(r: ScalarRecurrence) -> list[float]:
    """Values x_0 .. x_n produced by repeatedly multiplying by the weight."""
    xs = [float(r.x0)]
    for _ in range(r.steps):
        xs.append(xs[-1] * r.weight)
    return xs


def recurrence_regime(weight: float) -> str:
    """'explodes' for |W|>1, 'vanishes' for |W|<1, 'neutral' at |W|=1."""
    mag = abs(weight)
    if mag > 1.0:
        return "explodes"
    if mag < 1.0:
        return "vanishes"
    return "neutral"
