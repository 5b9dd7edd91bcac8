"""Tensor core: primitive ops, tape semantics, and the scalar recurrence."""

import inspect
import math

import numpy as np
import pytest

from tlanet import tensor as T
from tlanet.gradcheck import check_gradients, ops_suite


class TestTensorBasics:
    def test_flat_storage_invariant(self):
        t = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.values.shape == (4,)
        assert t.grad.shape == (4,)
        assert np.all(t.grad == 0.0)

    def test_shape_value_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.Tensor([1.0, 2.0, 3.0], shape=(2, 2))

    def test_zero_grad(self):
        t = T.Tensor([1.0, 2.0], requires_grad=True)
        t.grad[:] = 5.0
        t.zero_grad()
        assert np.all(t.grad == 0.0)


class TestMatmul:
    """The matrix product, through ``linear`` (``x @ w.T``)."""

    def test_identity(self):
        m = T.Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = T.Tensor(np.eye(2))
        assert np.array_equal(T.linear(m, eye).array, m.array)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = T.Tensor([[1.0, 1.0]])
        assert np.array_equal(T.linear(a, w).array, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        w = T.Tensor(np.zeros((2, 4)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
            T.linear(a, w)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        w = T.Tensor(rng.uniform(-2, 2, (2, 4)), requires_grad=True)
        err = check_gradients(lambda: T.total_sum(T.linear(x, w)), [x, w])
        assert err <= 1e-6


class TestActivations:
    def test_fixed_points(self):
        x = T.Tensor([0.0, -3.0])
        assert T.tanh(x).array[0] == 0.0
        assert T.sigmoid(x).array[0] == 0.5
        assert T.relu(x).array[1] == 0.0

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-20, 20, 200)
        total = T.sigmoid(T.Tensor(xs)).array + T.sigmoid(T.Tensor(-xs)).array
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            T.activation(T.Tensor([1.0]), "gelu")

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.uniform(-2, 2, (3, 4)) + 0.1, requires_grad=True)
        err = check_gradients(lambda: T.total_sum(T.activation(x, kind)), [x])
        assert err <= 1e-6


def softmax_row(values):
    """``softmax_rows`` of a one-row batch, returned as a flat array."""
    return T.softmax_rows(T.Tensor([values])).array[0]


class TestSoftmax:
    def test_uniform(self):
        out = softmax_row([0.0, 0.0, 0.0])
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-5, 5, 6)
            c = rng.uniform(-100, 100)
            a = softmax_row(x)
            b = softmax_row(x + c)
            assert np.allclose(a, b, atol=1e-12)

    def test_sum_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-50, 50, rng.integers(1, 9))
            out = softmax_row(x)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert (out > 0).all()

    def test_extreme_logit_is_stable(self):
        out = softmax_row([100.0, 0.0, 0.0])
        assert out[0] >= 1.0 - 1e-40

    def test_empty_rejected(self):
        with pytest.raises(T.ShapeError):
            T.softmax_rows(T.Tensor(np.zeros((1, 0))))


class TestConcat:
    def test_single_part_identity(self):
        v = T.Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(T.concat([v], axis=0).array, v.array)

    def test_two_vectors(self):
        out = T.concat([T.Tensor([1.0]), T.Tensor([2.0])], axis=0)
        assert np.array_equal(out.array, [1.0, 2.0])

    def test_ragged_rejected(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((3, 3)))
        with pytest.raises(T.ShapeError, match="ragged"):
            T.concat([a, b], axis=1)

    def test_gradient_routes_to_parts(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.concat([a, b], axis=0))
        tape.backward(loss)
        assert np.array_equal(a.grad, [1.0, 1.0])
        assert np.array_equal(b.grad, [1.0])


class TestWeightedSum:
    def test_hand_value(self):
        attn = T.Tensor([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0]])
        parts = [T.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                 T.Tensor([[5.0, 6.0], [7.0, 8.0]]),
                 T.Tensor([[2.0, 2.0], [9.0, 9.0]])]
        out = T.weighted_sum(attn, parts)
        assert np.array_equal(out.array, [[2.0, 3.0], [14.0, 16.0]])

    def test_matches_tiled_products(self):
        rng = np.random.default_rng(5)
        attn = rng.uniform(0, 1, (4, 3))
        parts = [rng.uniform(-1, 1, (4, 5)) for _ in range(3)]
        out = T.weighted_sum(T.Tensor(attn), [T.Tensor(p) for p in parts])
        expected = sum(np.tile(attn[:, k:k + 1], (1, 5)) * parts[k] for k in range(3))
        assert np.array_equal(out.array, expected)

    def test_shape_errors(self):
        part = T.Tensor(np.zeros((2, 4)))
        with pytest.raises(T.ShapeError, match="does not weight"):
            T.weighted_sum(T.Tensor(np.zeros((2, 3))), [part, part])
        with pytest.raises(T.ShapeError, match="do not fit"):
            T.weighted_sum(T.Tensor(np.zeros((3, 2))), [part, part])
        with pytest.raises(T.ShapeError, match="do not fit"):
            T.weighted_sum(T.Tensor(np.zeros((2, 2))), [part, T.Tensor(np.zeros((2, 3)))])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        attn = T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        parts = [T.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True) for _ in range(3)]
        err = check_gradients(lambda: T.total_sum(T.tanh(T.weighted_sum(attn, parts))),
                              [attn, *parts])
        assert err <= 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        w = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(w)
        tape.backward(loss)
        assert np.all(w.grad == 1.0)

    def test_zero_scale_gives_zeros(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.scale(x, 0.0))
        tape.backward(loss)
        assert np.all(x.grad == 0.0)

    def test_additive_accumulation(self):
        x = T.Tensor([1.5, -0.5], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * first)

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(T.GraphError, match="scalar"):
            tape.backward(y)

    def test_functional_spelling(self):
        x = T.Tensor([2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.mul(x, x))
        T.backward(loss, tape)
        assert np.allclose(x.grad, [4.0])

    def test_no_recording_outside_tape(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert not y.requires_grad

    def test_grads_land_on_leaves_only(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
            loss = T.total_sum(y)
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert np.all(y.grad == 0.0)

    def test_op_output_owns_a_fresh_buffer(self):
        x = T.Tensor([[1.0, 2.0]])
        y = T.reshape(x, (2,))
        y.values[:] = 0.0
        assert np.array_equal(x.array, [[1.0, 2.0]])

    def test_shared_input_used_twice(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.add(T.mul(x, x), T.mul(x, x)))
        tape.backward(loss)
        assert np.allclose(x.grad, [12.0])


class TestMiscOps:
    # a (batch, in) input to lstm_layer is a repeat vector read at every step
    def test_repeat_vector(self):
        rng = np.random.default_rng(3)
        w, u, b = (T.Tensor(rng.uniform(-1, 1, shape)) for shape in ((8, 2), (8, 2), (8,)))
        v = T.Tensor([[1.0, 2.0]])
        [out] = T.lstm_layer(v, [w], [u], [b], steps=3)
        [tiled] = T.lstm_layer(T.Tensor([[[1.0, 2.0]]] * 3), [w], [u], [b])
        assert out.shape == (3, 1, 2)
        assert np.array_equal(out.array, tiled.array)
        [single] = T.lstm_layer(v, [w], [u], [b], steps=1)
        assert np.array_equal(single.array, out.array[:1])

    def test_repeat_vector_rejects_zero(self):
        w, u, b = T.Tensor.zeros((4, 1)), T.Tensor.zeros((4, 1)), T.Tensor.zeros((4,))
        with pytest.raises(ValueError):
            T.lstm_layer(T.Tensor([[1.0]]), [w], [u], [b], steps=0)
        with pytest.raises(ValueError):
            T.lstm_layer(T.Tensor([[1.0]]), [w], [u], [b])

    def test_repeat_vector_gradient_sums(self):
        # no recurrent weights and a closed forget gate make every step the
        # same function of the input, so 4 steps give 4 times one step's adjoint
        w = T.Tensor(np.linspace(-1.0, 1.0, 16).reshape(8, 2), requires_grad=True)
        w.values[4:8] = 0.0  # forget-gate rows
        u, b = T.Tensor.zeros((8, 2)), T.Tensor.zeros((8,))
        b.values[2:4] = -50.0

        def input_grad(steps):
            v = T.Tensor([[1.0, 2.0]], requires_grad=True)
            with T.Tape() as tape:
                [h] = T.lstm_layer(v, [w], [u], [b], steps=steps)
                loss = T.total_sum(h)
            tape.backward(loss)
            return v.grad.copy()

        one = input_grad(1)
        assert np.abs(one).min() > 0.0
        assert np.allclose(input_grad(4), 4.0 * one, rtol=1e-14, atol=0.0)

    def test_lookup_duplicate_accumulates(self):
        table = T.Tensor(np.ones((5, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.lookup_rows(table, [2, 2, 2, 4], padding_idx=0))
        tape.backward(loss)
        grads = table.grad_array
        assert np.array_equal(grads[2], [3.0, 3.0])
        assert np.array_equal(grads[4], [1.0, 1.0])
        assert np.all(grads[[0, 1, 3]] == 0.0)

    def test_lookup_padding_receives_no_gradient(self):
        table = T.Tensor(np.ones((4, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(T.lookup_rows(table, [0, 0, 1], padding_idx=0))
        tape.backward(loss)
        assert np.all(table.grad_array[0] == 0.0)
        assert np.all(table.grad_array[1] == 1.0)

    def test_lookup_out_of_range_names_id(self):
        table = T.Tensor(np.ones((4, 2)))
        with pytest.raises(IndexError, match="7"):
            T.lookup_rows(table, [1, 7])

    def test_clip_log_floor(self):
        out = T.clip_log(T.Tensor([0.0]))
        assert math.isclose(out.array[0], math.log(1e-12))

    def test_dropout_inference_rate_zero_is_identity(self):
        x = T.Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0).random(x.shape)) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(np.ones(100))
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            total += T.dropout(x, 0.2, rng.random(x.shape)).array.mean()
        assert abs(total / trials - 1.0) <= 0.02


class TestOperandCopies:
    """``linear``, ``mul``, ``weighted_sum`` and ``clip_log`` copy their operands only under a tape."""

    OPS = {
        "linear": (T.linear, ((3, 4), (2, 4))),
        "mul": (T.mul, ((3, 4), (3, 4))),
        "weighted_sum": (lambda a, p, q: T.weighted_sum(a, [p, q]), ((3, 2), (3, 4), (3, 4))),
        "clip_log": (T.clip_log, ((3, 4),)),
    }

    def run(self, name, taped, mutate=False):
        op, shapes = self.OPS[name]
        rng = np.random.default_rng(21)
        ins = [T.Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True) for shape in shapes]
        if not taped:
            return op(*ins).array.copy(), None
        with T.Tape() as tape:
            out = op(*ins)
            loss = T.total_sum(T.tanh(out))
        if mutate:
            for t in ins:
                t.values[:] = -3.0
        tape.backward(loss)
        return out.array.copy(), [t.grad.copy() for t in ins]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_untaped_call_gives_the_same_bits(self, name):
        assert np.array_equal(self.run(name, taped=False)[0], self.run(name, taped=True)[0])

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_taped_gradients_ignore_inputs_changed_after_forward(self, name):
        _, grads = self.run(name, taped=True)
        _, mutated = self.run(name, taped=True, mutate=True)
        for g, m in zip(grads, mutated):
            assert np.abs(g).max() > 0.0
            assert np.array_equal(g, m)


def batch_major_lstm(x, w, u, b, steps, last_only, g=None):
    """The batch-major LSTM layer that ``T.lstm_layer`` replaced, as a plain-numpy reference.

    States are (batch, H) and gates (batch, 4H) with strided gate columns;
    each step adds ``h @ u.T``. Returns the output and, given the output
    adjoint ``g``, the gradients of ``x``, ``w``, ``u`` and ``b``.
    """
    repeat = x.ndim == 2
    batch, width = x.shape[-2], x.shape[-1]
    hidden = u.shape[1]
    h2, h3 = 2 * hidden, 3 * hidden
    if repeat:
        xw = x @ w.T
    else:
        xw = (x.reshape(steps * batch, width) @ w.T).reshape(steps, batch, 4 * hidden)
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1, batch, hidden))
    tcs = np.empty((steps, batch, hidden))
    gates = np.empty((steps, batch, 4 * hidden))
    for t in range(steps):
        z = gates[t]
        np.matmul(hs[t], u.T, out=z)
        z += xw if repeat else xw[t]
        z += b
        sig = z[:, :h3]
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        np.tanh(z[:, h3:], out=z[:, h3:])
        np.multiply(z[:, hidden:h2], cs[t], out=cs[t + 1])
        cs[t + 1] += z[:, :hidden] * z[:, h3:]
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(z[:, h2:h3], tcs[t], out=hs[t + 1])
    out = hs[steps] if last_only else hs[1:]
    if g is None:
        return out, None

    i, f, o, cand = (gates[:, :, k * hidden:(k + 1) * hidden] for k in range(4))
    k_o = tcs * o * (1.0 - o)
    k_c = o * (1.0 - tcs * tcs)
    k_gates = np.empty((steps, batch, 4, hidden))
    k_gates[:, :, 0] = cand * i * (1.0 - i)
    k_gates[:, :, 1] = cs[:steps] * f * (1.0 - f)
    k_gates[:, :, 2] = 0.0
    k_gates[:, :, 3] = i * (1.0 - cand * cand)
    dz = np.empty((steps, batch, 4 * hidden))
    dh = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        if not last_only:
            dh = dh + g[t]
        elif t == steps - 1:
            dh = dh + g
        dc += dh * k_c[t]
        d = dz[t].reshape(batch, 4, hidden)
        np.multiply(dc[:, None, :], k_gates[t], out=d)
        np.multiply(dh, k_o[t], out=d[:, 2])
        dc *= f[t]
        dh = dz[t] @ u
    rows = dz.reshape(steps * batch, 4 * hidden)
    du = rows.T @ hs[:steps].reshape(steps * batch, hidden)
    db = rows.sum(axis=0)
    if repeat:
        dz_x = dz.sum(axis=0)
        dw = dz_x.T @ x
    else:
        dz_x = rows
        dw = rows.T @ x.reshape(steps * batch, width)
    return out, ((dz_x @ w).reshape(x.shape), dw, du, db)


class TestLstmLayerMatchesBatchMajor:
    """The feature-major kernel against the batch-major reference, outputs and all four gradients."""

    @pytest.mark.parametrize("hidden", [3, 16])
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("batch", [1, 2, 32])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("last_only", [False, True])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_same_result(self, repeat, last_only, taped, batch, steps, hidden):
        rng = np.random.default_rng(1000 * batch + 10 * steps + hidden)
        width = 5
        arrays = [rng.uniform(-1, 1, shape) for shape in (
            (batch, width) if repeat else (steps, batch, width),
            (4 * hidden, width), (4 * hidden, hidden), (4 * hidden,))]
        g = rng.uniform(-1, 1, (batch, hidden) if last_only else (steps, batch, hidden))
        ref_out, ref_grads = batch_major_lstm(*arrays, steps, last_only, g if taped else None)

        x, w, u, b = (T.Tensor(a, requires_grad=True) for a in arrays)
        if taped:
            with T.Tape() as tape:
                [out] = T.lstm_layer(x, [w], [u], [b], steps=steps, last_only=last_only)
                loss = T.total_sum(T.mul(out, T.constant(g)))
            tape.backward(loss)
            got = [out.array] + [t.grad_array for t in (x, w, u, b)]
            want = [ref_out, *ref_grads]
        else:
            got = [T.lstm_layer(x, [w], [u], [b], steps=steps, last_only=last_only)[0].array]
            want = [ref_out]
        for a, e in zip(got, want):
            assert a.shape == e.shape
            if batch >= 2:
                assert np.array_equal(a, e)
            else:  # one row runs the products through BLAS's vector kernels
                assert np.abs(a - e).max() <= 1e-15


class TestLstmLayerBranches:
    """K branches in one ``lstm_layer`` op against K runs of the batch-major reference."""

    STEPS, WIDTH, HIDDEN = 5, 16, 16

    def branch_inputs(self, rng, repeat, shared, last_only, batch, branches):
        x_shape = (batch, self.WIDTH) if repeat else (self.STEPS, batch, self.WIDTH)
        xs = [rng.uniform(-1, 1, x_shape) for _ in range(1 if shared else branches)]
        params = [[rng.uniform(-1, 1, shape) for shape in (
            (4 * self.HIDDEN, self.WIDTH), (4 * self.HIDDEN, self.HIDDEN), (4 * self.HIDDEN,))]
            for _ in range(branches)]
        out_shape = (batch, self.HIDDEN) if last_only else (self.STEPS, batch, self.HIDDEN)
        gs = [rng.uniform(-1, 1, out_shape) for _ in range(branches)]
        return xs, params, gs

    def run_op(self, xs, params, gs, last_only, second_reader=None):
        """One taped op over all branches; the loss weights branch k's output by ``gs[k]``.

        ``second_reader`` adds ``sum(x * second_reader)`` of the shared input,
        recorded after the op as TLA-Net's reconstruction reads the embedding.
        """
        x_t = [T.Tensor(a, requires_grad=True) for a in xs]
        w, u, b = ([T.Tensor(p[j], requires_grad=True) for p in params] for j in range(3))
        x_in = x_t[0] if len(x_t) == 1 else x_t
        untaped = T.lstm_layer(x_in, w, u, b, steps=self.STEPS, last_only=last_only)
        with T.Tape() as tape:
            outs = T.lstm_layer(x_in, w, u, b, steps=self.STEPS, last_only=last_only)
            loss = T.total_sum(T.mul(outs[0], T.constant(gs[0])))
            for out, g in zip(outs[1:], gs[1:]):
                loss = T.add(loss, T.total_sum(T.mul(out, T.constant(g))))
            if second_reader is not None:
                loss = T.add(loss, T.total_sum(T.mul(x_t[0], T.constant(second_reader))))
        tape.backward(loss)
        return untaped, outs, x_t, w, u, b

    @pytest.mark.parametrize("branches", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 32, 184, 256])
    @pytest.mark.parametrize("last_only", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_same_bits_as_separate_branches(self, repeat, shared, last_only, batch, branches):
        rng = np.random.default_rng(batch + 7 * branches)
        xs, params, gs = self.branch_inputs(rng, repeat, shared, last_only, batch, branches)
        refs = [batch_major_lstm(xs[0 if shared else k], *params[k], self.STEPS, last_only, gs[k])
                for k in range(branches)]
        untaped, outs, x_t, w, u, b = self.run_op(xs, params, gs, last_only)
        for k, (ref_out, (dx, dw, du, db)) in enumerate(refs):
            assert np.array_equal(untaped[k].array, ref_out)
            assert np.array_equal(outs[k].array, ref_out)
            for got, want in ((w[k], dw), (u[k], du), (b[k], db)):
                assert np.array_equal(got.grad_array, want)
            if not shared:
                assert np.array_equal(x_t[k].grad_array, dx)
        if shared:  # summed as the tape summed K single-branch ops recorded in branch order
            want = refs[-1][1][0]
            for _, (dx, _, _, _) in reversed(refs[:-1]):
                want = want + dx
            assert np.array_equal(x_t[0].grad_array, want)

    def test_shared_input_read_again_sums_in_branch_order(self):
        # the parent's order for TLA-Net's embedding: ((g_recon + dx2) + dx1) + dx0
        rng = np.random.default_rng(5)
        xs, params, gs = self.branch_inputs(rng, False, True, True, 32, 3)
        second = rng.uniform(-1, 1, xs[0].shape)
        *_, x_t, _, _, _ = self.run_op(xs, params, gs, True, second_reader=second)

        x = T.Tensor(xs[0], requires_grad=True)
        with T.Tape() as tape:
            loss = None
            for p, g in zip(params, gs):
                w, u, b = ([T.Tensor(a, requires_grad=True)] for a in p)
                [out] = T.lstm_layer(x, w, u, b, last_only=True)
                term = T.total_sum(T.mul(out, T.constant(g)))
                loss = term if loss is None else T.add(loss, term)
            loss = T.add(loss, T.total_sum(T.mul(x, T.constant(second))))
        tape.backward(loss)
        assert np.array_equal(x_t[0].grad_array, x.grad_array)
        dxs = [batch_major_lstm(xs[0], *p, self.STEPS, True, g)[1][0] for p, g in zip(params, gs)]
        assert np.array_equal(x.grad_array, ((second + dxs[2]) + dxs[1]) + dxs[0])

    def test_branch_shapes_must_agree(self):
        rng = np.random.default_rng(6)
        xs, params, _ = self.branch_inputs(rng, False, False, True, 2, 2)
        w, u, b = ([T.Tensor(p[j]) for p in params] for j in range(3))
        with pytest.raises(T.ShapeError, match="3 inputs for 2 branches"):
            T.lstm_layer([T.Tensor(a) for a in xs * 2][:3], w, u, b)
        with pytest.raises(T.ShapeError, match="branch 1's gates"):
            T.lstm_layer(T.Tensor(xs[0]), w, [u[0], T.Tensor(np.zeros((8, 2)))], b)
        with pytest.raises(T.ShapeError, match="branch 1's input"):
            T.lstm_layer([T.Tensor(xs[0]), T.Tensor(xs[1][:, :1])], w, u, b)


class TestLstmLayerPacked:
    """``lengths``: a packed batch against each row run alone over its own steps."""

    WIDTH, HIDDEN = 5, 4

    def run(self, xs, params, steps, last_only, lengths, gs):
        """One taped op; the loss weights branch k's output by ``gs[k]``. Returns outputs and gradients."""
        x_t = [T.Tensor(a, requires_grad=True) for a in xs]
        w, u, b = ([T.Tensor(p[j], requires_grad=True) for p in params] for j in range(3))
        x_in = x_t[0] if len(x_t) == 1 else x_t
        untaped = T.lstm_layer(x_in, w, u, b, steps=steps, last_only=last_only, lengths=lengths)
        with T.Tape() as tape:
            outs = T.lstm_layer(x_in, w, u, b, steps=steps, last_only=last_only, lengths=lengths)
            loss = T.total_sum(T.mul(outs[0], T.constant(gs[0])))
            for out, g in zip(outs[1:], gs[1:]):
                loss = T.add(loss, T.total_sum(T.mul(out, T.constant(g))))
        tape.backward(loss)
        for a, o in zip(untaped, outs):
            assert np.array_equal(a.array, o.array)
        return ([o.array for o in outs], [t.grad_array for t in x_t],
                [[t.grad_array for t in ts] for ts in zip(w, u, b)])

    def inputs(self, rng, repeat, branches, lengths, last_only):
        steps, batch = lengths[0], len(lengths)
        x_shape = (batch, self.WIDTH) if repeat else (steps, batch, self.WIDTH)
        xs = [rng.uniform(-1, 1, x_shape) for _ in range(branches)]
        params = [[rng.uniform(-1, 1, shape) for shape in (
            (4 * self.HIDDEN, self.WIDTH), (4 * self.HIDDEN, self.HIDDEN), (4 * self.HIDDEN,))]
            for _ in range(branches)]
        out_shape = (batch, self.HIDDEN) if last_only else (steps, batch, self.HIDDEN)
        gs = [rng.uniform(-1, 1, out_shape) for _ in range(branches)]
        return xs, params, gs

    @pytest.mark.parametrize("lengths", [[6, 4, 4, 1], [5, 5, 2], [3, 1], [7, 6, 5, 4, 3, 2, 1, 1]])
    @pytest.mark.parametrize("branches", [1, 3])
    @pytest.mark.parametrize("last_only", [False, True])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_each_row_runs_only_its_own_steps(self, repeat, last_only, branches, lengths):
        rng = np.random.default_rng(sum(lengths) + 10 * branches)
        steps = lengths[0]
        xs, params, gs = self.inputs(rng, repeat, branches, lengths, last_only)
        outs, dxs, dparams = self.run(xs, params, steps, last_only, np.array(lengths), gs)
        want_params = [[np.zeros_like(a) for a in p] for p in params]
        for r, n in enumerate(lengths):
            # row r alone, over its own n steps; the loss reads only those steps
            row_x = [x[r:r + 1] if repeat else x[:n, r:r + 1] for x in xs]
            row_g = [g[r:r + 1] if last_only else g[:n, r:r + 1] for g in gs]
            r_outs, r_dxs, r_params = self.run(row_x, params, n, last_only, None, row_g)
            for k in range(branches):
                got = outs[k][r] if last_only else outs[k][:n, r]
                assert np.abs(got - r_outs[k].reshape(got.shape)).max() <= 1e-14
                if not last_only:  # zero past the row's length
                    assert np.all(outs[k][n:, r] == 0.0)
                got_dx = dxs[k][r] if repeat else dxs[k][:n, r]
                assert np.abs(got_dx - r_dxs[k].reshape(got_dx.shape)).max() <= 1e-13
                if not repeat:  # the pad steps of the input get no gradient
                    assert np.all(dxs[k][n:, r] == 0.0)
                for acc, gr in zip(want_params[k], r_params[k]):
                    acc += gr
        for got, want in zip(dparams, want_params):
            for a, e in zip(got, want):
                assert np.abs(a - e).max() <= 1e-12

    def test_pad_adjoints_and_pad_inputs_are_ignored(self):
        # what a row holds or receives past its length does not reach anything
        rng = np.random.default_rng(31)
        lengths = np.array([5, 3, 2])
        xs, params, gs = self.inputs(rng, False, 1, list(lengths), False)
        base = self.run(xs, params, 5, False, lengths, gs)
        noisy_x, noisy_g = xs[0].copy(), gs[0].copy()
        for r, n in enumerate(lengths):
            noisy_x[n:, r] = rng.uniform(-9, 9, noisy_x[n:, r].shape)
            noisy_g[n:, r] = rng.uniform(-9, 9, noisy_g[n:, r].shape)
        noisy = self.run([noisy_x], params, 5, False, lengths, [noisy_g])
        assert all(np.array_equal(a, e) for a, e in zip(noisy[0] + noisy[2][0], base[0] + base[2][0]))

    @pytest.mark.parametrize("last_only", [False, True])
    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("branches", [1, 3])
    def test_full_lengths_are_bitwise_the_unpacked_layer(self, repeat, last_only, branches,
                                                         monkeypatch):
        monkeypatch.setattr(self, "HIDDEN", 16)  # a width the reference matches bitwise
        rng = np.random.default_rng(40 + branches)
        lengths = [6] * 32
        xs, params, gs = self.inputs(rng, repeat, branches, lengths, last_only)
        packed = self.run(xs, params, 6, last_only, np.array(lengths), gs)
        plain = self.run(xs, params, 6, last_only, None, gs)
        for a, e in zip(packed[0] + packed[1], plain[0] + plain[1]):
            assert np.array_equal(a, e)
        for a, e in zip(sum(packed[2], []), sum(plain[2], [])):
            assert np.array_equal(a, e)
        # and the unpacked layer is the batch-major reference
        for k in range(branches):
            ref_out, ref_grads = batch_major_lstm(xs[k], *params[k], 6, last_only, gs[k])
            assert np.array_equal(plain[0][k], ref_out)
            for a, e in zip([plain[1][k]] + plain[2][k], ref_grads):
                assert np.array_equal(a, e)

    def test_lengths_must_be_sorted_and_cover_the_steps(self):
        w, u, b = T.Tensor.zeros((8, 3)), T.Tensor.zeros((8, 2)), T.Tensor.zeros((8,))
        x = T.Tensor(np.zeros((4, 3, 3)))
        for bad in ([3, 4, 2], [3, 2, 1], [4, 2, 0]):
            with pytest.raises(ValueError, match="longest first"):
                T.lstm_layer(x, [w], [u], [b], lengths=np.array(bad))
        with pytest.raises(T.ShapeError, match="lengths"):
            T.lstm_layer(x, [w], [u], [b], lengths=np.array([4, 4]))


class TestGradcheckCoverage:
    # public names of the tensor module that are not differentiable ops;
    # activation is the dispatcher behind tanh, sigmoid and relu, which are
    # each checked under their own name
    NOT_OPS = {"backward", "scalar_recurrence", "recurrence_trajectory", "recurrence_regime",
               "activation"}

    def test_every_differentiable_op_has_a_check(self):
        ops = {name for name in T.__all__
               if inspect.isfunction(getattr(T, name)) and name not in self.NOT_OPS}
        checked = {name.removeprefix("op.") for name, _, _ in ops_suite()}
        assert ops - checked == set()


class TestScalarRecurrence:
    def test_identity_weight(self):
        assert T.scalar_recurrence(T.ScalarRecurrence(1.0, 7.0, 100)) == 7.0

    def test_growth_exact(self):
        assert T.scalar_recurrence(T.ScalarRecurrence(2.0, 1.0, 10)) == 1024.0

    def test_decay_exact(self):
        assert T.scalar_recurrence(T.ScalarRecurrence(0.5, 1.0, 10)) == 0.0009765625

    def test_trajectory_matches_closed_form(self):
        traj = T.recurrence_trajectory(T.ScalarRecurrence(2.0, 3.0, 8))
        assert traj == [3.0 * 2.0 ** i for i in range(9)]

    def test_dichotomy_at_long_horizon(self):
        grow = T.scalar_recurrence(T.ScalarRecurrence(2.0, 1.0, 200))
        decay = T.scalar_recurrence(T.ScalarRecurrence(0.5, 1.0, 200))
        assert abs(grow) > 1e12
        assert abs(decay) < 1e-12

    def test_regime_labels(self):
        assert T.recurrence_regime(2.0) == "explodes"
        assert T.recurrence_regime(0.5) == "vanishes"
        assert T.recurrence_regime(1.0) == "neutral"
        assert T.recurrence_regime(-2.0) == "explodes"

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            T.ScalarRecurrence(1.0, 1.0, -1)
