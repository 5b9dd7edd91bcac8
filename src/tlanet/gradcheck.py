"""Finite-difference verification of every backward rule in the library.

A check builds a scalar loss twice: once on a tape for analytic gradients,
and once per perturbed parameter entry for central differences. The error
metric is ``|analytic - numeric| / max(1, |analytic|, |numeric|)`` taken
entrywise, which behaves like relative error for large gradients and like
absolute error near zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tolerance


@dataclass
class CheckReport:
    results: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def worst(self) -> CheckResult | None:
        failing = [r for r in self.results if not r.passed]
        pool = failing or self.results
        return max(pool, key=lambda r: r.max_err / r.tolerance) if pool else None

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            out.append(f"{status:4s} {r.name:<44s} max_err={r.max_err:.3e} tol={r.tolerance:.0e}")
        return out


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(loss_fn, params: list[T.Tensor], h: float = FD_STEP) -> float:
    """Max normalized error between tape gradients and central differences.

    ``loss_fn`` must rebuild the loss from the current parameter values on
    every call (it is invoked 2 * sum(p.size) + 1 times).
    """
    for p in params:
        p.zero_grad()
    with T.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    worst = 0.0
    for p in params:
        analytic = p.grad.copy()
        numeric = np.zeros_like(analytic)
        for i in range(p.values.size):
            orig = p.values[i]
            p.values[i] = orig + h
            up = loss_fn().item()
            p.values[i] = orig - h
            down = loss_fn().item()
            p.values[i] = orig
            numeric[i] = (up - down) / (2.0 * h)
        worst = max(worst, _rel_err(analytic, numeric))
        p.zero_grad()
    return worst


def run_checks(checks: list[tuple[str, object, float]]) -> CheckReport:
    """Run ``(name, thunk, tolerance)`` triples; each thunk returns a max error."""
    report = CheckReport()
    start = time.perf_counter()
    for name, thunk, tol in checks:
        report.results.append(CheckResult(name, float(thunk()), tol))
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# built-in suites, used by the CLI gradcheck command
# ---------------------------------------------------------------------------

OP_TOLERANCE = 1e-6
LAYER_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


def _rand(rng, shape):
    return T.Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


def ops_suite(seed: int = 0) -> list[tuple[str, object, float]]:
    rng = np.random.default_rng(seed)
    checks = []

    def fd(name, builder):
        def thunk():
            params, fn = builder()
            return check_gradients(fn, params)

        checks.append((name, thunk, OP_TOLERANCE))

    fd("op.add", lambda: _binary(rng, T.add))
    fd("op.sub", lambda: _binary(rng, T.sub))
    fd("op.mul", lambda: _binary(rng, T.mul))
    fd("op.scale", lambda: _unary(rng, lambda x: T.scale(x, -1.7)))
    fd("op.add_bias", lambda: _bias(rng))
    fd("op.linear", lambda: _linear(rng))
    fd("op.tanh", lambda: _unary(rng, T.tanh))
    fd("op.sigmoid", lambda: _unary(rng, T.sigmoid))
    fd("op.relu", lambda: _unary(rng, T.relu, offset=0.3))
    fd("op.softmax_rows", lambda: _softmax_rows(rng))
    fd("op.concat", lambda: _concat(rng))
    fd("op.weighted_sum", lambda: _weighted_sum(rng))
    fd("op.reshape", lambda: _unary(rng, lambda x: T.reshape(x, (x.size,))))
    fd("op.total_sum", lambda: _unary(rng, T.total_sum))
    fd("op.take_per_row", lambda: _take_per_row(rng))
    fd("op.clip_log", lambda: _clip_log(rng))
    fd("op.lookup_rows", lambda: _lookup(rng))
    fd("op.dropout", lambda: _dropout(rng))
    fd("op.lstm_layer", lambda: _lstm_layers(rng, layers=1))
    fd("op.lstm_layer[2 layers]", lambda: _lstm_layers(rng, layers=2, last_only=True))
    fd("op.lstm_layer[repeat vector]", lambda: _lstm_layers(rng, layers=1, repeat=True))
    # one row sends the layer's (4H, H) @ (H, 1) products through BLAS's vector kernels
    fd("op.lstm_layer[batch 1]", lambda: _lstm_layers(rng, layers=1, batch=1))
    fd("op.lstm_layer[3 branches]", lambda: _lstm_branches(rng, repeat=False))
    fd("op.lstm_layer[3 branches, repeat vector]", lambda: _lstm_branches(rng, repeat=True))
    fd("op.lstm_layer[mixed lengths]", lambda: _lstm_layers(rng, layers=2, batch=4, mixed=True))
    fd("op.lstm_layer[3 branches, repeat vector, mixed lengths]",
       lambda: _lstm_branches(rng, repeat=True, mixed=True))
    fd("op.take_rows", lambda: _take_rows(rng))
    return checks


def _unary(rng, op, offset=0.0):
    x = T.Tensor(rng.uniform(-2, 2, (3, 4)) + offset, requires_grad=True)
    return [x], lambda: T.total_sum(T.mul(op(x), op(x)))


def _binary(rng, op):
    a, b = _rand(rng, (3, 4)), _rand(rng, (3, 4))
    return [a, b], lambda: T.total_sum(T.mul(op(a, b), op(a, b)))


def _bias(rng):
    m, b = _rand(rng, (4, 3)), _rand(rng, (3,))
    return [m, b], lambda: T.total_sum(T.tanh(T.add_bias(m, b)))


def _linear(rng):
    x, w = _rand(rng, (3, 4)), _rand(rng, (2, 4))
    return [x, w], lambda: T.total_sum(T.tanh(T.linear(x, w)))


def _softmax_rows(rng):
    x = _rand(rng, (3, 4))
    c = T.constant(rng.uniform(-1, 1, (3, 4)))
    return [x], lambda: T.total_sum(T.mul(T.softmax_rows(x), c))


def _concat(rng):
    a, b = _rand(rng, (2, 3)), _rand(rng, (2, 2))
    return [a, b], lambda: T.total_sum(T.tanh(T.concat([a, b], axis=1)))


def _weighted_sum(rng):
    # unequal attention rows, so a weight applied to the wrong row shows
    attn = _rand(rng, (3, 3))
    parts = [_rand(rng, (3, 4)) for _ in range(3)]
    return [attn, *parts], lambda: T.total_sum(T.tanh(T.weighted_sum(attn, parts)))


def _take_per_row(rng):
    x = _rand(rng, (4, 3))
    idx = rng.integers(0, 3, 4)
    return [x], lambda: T.total_sum(T.tanh(T.take_per_row(x, idx)))


def _clip_log(rng):
    x = T.Tensor(rng.uniform(0.2, 2.0, (3, 4)), requires_grad=True)
    return [x], lambda: T.total_sum(T.clip_log(x))


def _lookup(rng):
    table = _rand(rng, (6, 3))
    ids = np.array([1, 2, 2, 5])
    return [table], lambda: T.total_sum(T.tanh(T.lookup_rows(table, ids, padding_idx=0)))


def _take_rows(rng):
    x = _rand(rng, (4, 3))
    return [x], lambda: T.total_sum(T.tanh(T.take_rows(x, [2, 0, 3])))


def _dropout(rng):
    x = _rand(rng, (3, 4))
    seed = int(rng.integers(2**31))
    draws = np.random.default_rng(seed).random(x.shape)  # every rebuild of the loss uses the same mask
    return [x], lambda: T.total_sum(T.tanh(T.dropout(x, 0.5, draws)))


def _lstm_layers(rng, layers: int, repeat: bool = False, last_only: bool = False, batch: int = 2,
                 mixed: bool = False):
    """A stack of ``lstm_layer`` ops over a (4, batch, 3) sequence or a (batch, 3) repeat vector.

    The loss weights every hidden state it reads differently (every step's,
    or the top layer's last one when ``last_only``), and the input is a
    parameter too, so the check covers the gradients of all four operands.
    ``mixed`` packs the rows at lengths 4, 3, 1, 1, ... .
    """
    steps, width, hidden = 4, 3, 3
    x = T.Tensor(rng.uniform(-1, 1, (batch, width) if repeat else (steps, batch, width)),
                 requires_grad=True)
    params = [x]
    for k in range(layers):
        fan_in = width if k == 0 else hidden
        params += [T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                   for shape in ((4 * hidden, fan_in), (4 * hidden, hidden), (4 * hidden,))]
    c = T.constant(rng.uniform(-1, 1, (batch, hidden) if last_only else (steps, batch, hidden)))
    lengths = np.array([4, 3] + [1] * (batch - 2)) if mixed else None

    def loss_fn():
        h = x
        for k in range(layers):
            w, u, b = params[1 + 3 * k:4 + 3 * k]
            [h] = T.lstm_layer(h, [w], [u], [b], steps=steps if k == 0 else None,
                               last_only=last_only and k == layers - 1, lengths=lengths)
        return T.total_sum(T.mul(h, c))

    return params, loss_fn


def _lstm_branches(rng, repeat: bool, branches: int = 3, mixed: bool = False):
    """Two ``lstm_layer`` ops of three branches each, as TLA-Net's stages run them.

    Layer 0 reads one shared input, which is a parameter: a (4, 2, 3)
    sequence whose hidden sequences layer 1 reads per branch, keeping the
    last states; or a (2, 3) repeat vector of which it keeps the last
    states, which layer 1 reads per branch as repeat vectors over 4 steps.
    The loss weights each branch's outputs differently. ``mixed`` packs
    three rows at lengths 4, 2 and 1.
    """
    steps, batch, width, hidden = 4, 3 if mixed else 2, 3, 3
    lengths = np.array([4, 2, 1]) if mixed else None
    x = T.Tensor(rng.uniform(-1, 1, (batch, width) if repeat else (steps, batch, width)),
                 requires_grad=True)
    layers = []
    for fan_in in (width, hidden):
        layers.append([[T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                        for shape in ((4 * hidden, fan_in), (4 * hidden, hidden), (4 * hidden,))]
                       for _ in range(branches)])
    out_shape = (steps, batch, hidden) if repeat else (batch, hidden)
    cs = [T.constant(rng.uniform(-1, 1, out_shape)) for _ in range(branches)]

    def loss_fn():
        h = x
        for k, layer in enumerate(layers):
            w, u, b = ([p[j] for p in layer] for j in range(3))
            h = T.lstm_layer(h, w, u, b, steps=steps, last_only=(k == 0) == repeat, lengths=lengths)
        loss = T.total_sum(T.mul(h[0], cs[0]))
        for hk, c in zip(h[1:], cs[1:]):
            loss = T.add(loss, T.total_sum(T.mul(hk, c)))
        return loss

    return [x] + [t for layer in layers for p in layer for t in p], loss_fn


def layers_suite(seed: int = 0) -> list[tuple[str, object, float]]:
    from . import layers as L

    rng = np.random.default_rng(seed)
    checks = []

    def stack_check():
        p = L.StackedLSTMParams.init(input_size=3, hidden_size=3, num_layers=2, dropout=0.0, rng=rng)
        xs = T.constant(rng.uniform(-1, 1, (4, 2, 3)))

        def loss_fn():
            [h] = L.lstm_forward([p], xs, training=False, last_only=True)
            return T.total_sum(h)

        return check_gradients(loss_fn, list(p.tensors()))

    checks.append(("layer.stacked_lstm", stack_check, LAYER_TOLERANCE))

    def dense_check():
        p = L.DenseParams.init(3, 4, rng=rng)
        x = T.constant(rng.uniform(-1, 1, (2, 3)))

        def loss_fn():
            return T.total_sum(L.dense_forward(p.weights, p.bias, x, "tanh"))

        return check_gradients(loss_fn, [p.weights, p.bias])

    checks.append(("layer.dense", dense_check, OP_TOLERANCE))

    def embed_check():
        table = L.EmbeddingTable.init(vocab_size=7, embed_dim=3, rng=rng)
        ids = np.array([2, 3, 3, 6])
        c = T.constant(rng.uniform(-1, 1, (4, 3)))

        def loss_fn():
            return T.total_sum(T.mul(L.embedding_lookup(table, ids), c))

        return check_gradients(loss_fn, [table.table])

    checks.append(("layer.embedding", embed_check, OP_TOLERANCE))
    return checks


def models_suite(seed: int = 0) -> list[tuple[str, object, float]]:
    from . import models as M

    rng = np.random.default_rng(seed)
    cfg = M.ClassifierConfig(
        vocab_size=8, embed_dim=3, hidden_size=2, num_layers=1,
        dropout=0.0, num_classes=3, max_len=3, seed=seed, head_hidden=3,
    )
    tokens = np.array([[2, 4, 7]])
    target = np.array([1])
    checks = []

    def model_check(model, tokens=tokens, target=target):
        def loss_fn():
            out = model.forward_batch(tokens, training=False)
            loss = model.training_loss(out, target)
            return loss

        return check_gradients(loss_fn, list(model.tensors()))

    for name, factory in (
        ("model.lstm", lambda: M.LstmClassifier(cfg)),
        ("model.bilstm", lambda: M.BiLstmClassifier(cfg)),
        ("model.lstm_ae", lambda: M.LstmAutoencoder(cfg)),
        ("model.tla_net", lambda: M.TlaNet(cfg)),
    ):
        model = factory()
        checks.append((name, (lambda m=model: model_check(m)), MODEL_TOLERANCE))
    # comments of three lengths, the longest not first: packed, then put back in order
    mixed = M.TlaNet(cfg)
    checks.append(("model.tla_net[mixed lengths]",
                   lambda: model_check(mixed, np.array([[5, 3, 0], [2, 4, 7], [6, 0, 0]]),
                                       np.array([0, 1, 2])), MODEL_TOLERANCE))
    return checks


SUITES = {"ops": ops_suite, "layers": layers_suite, "models": models_suite}


def suite_for_scope(scope: str, seed: int = 0) -> list[tuple[str, object, float]]:
    if scope == "all":
        return ops_suite(seed) + layers_suite(seed) + models_suite(seed)
    if scope not in SUITES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; pick from ops, layers, models, all")
    return SUITES[scope](seed)
