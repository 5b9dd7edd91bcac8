"""Layer blocks: the packed LSTM layer and stacks, the two BiLSTM directions, dense, embedding."""

import math
import tracemalloc

import numpy as np
import pytest

from tlanet import layers as L
from tlanet import models as M
from tlanet import tensor as T
from tlanet.gradcheck import check_gradients


def zero_cell(input_size=2, hidden_size=2):
    return L.LSTMCellParams.zeros(input_size, hidden_size)


def run_cell(p, x, **kwargs):
    [h] = T.lstm_layer(x, [p.w], [p.u], [p.b], **kwargs)
    return h


def run_stack(stack, x, **kwargs):
    [h] = L.lstm_forward([stack], x, **kwargs)
    return h


class TestLSTMCell:
    def test_zero_parameters_give_zero_state(self):
        p = zero_cell()
        h = run_cell(p, T.Tensor([[[1.0, -1.0]], [[0.5, 2.0]]]))
        assert h.shape == (2, 1, 2)
        assert np.all(h.array == 0.0)

    def test_forget_bias_hand_case(self):
        # zero weights except forget bias +10 and an input-gate row that
        # writes 1 into the cell at step 1 (i = sigmoid(large), g = tanh(large)):
        # step 2 then carries that cell through f = sigmoid(10) with i*g = 0
        p = zero_cell(input_size=1, hidden_size=1)
        gates = dict(zip(L.GATES, range(4)))
        p.b.values[gates["forget"]] = 10.0
        p.w.values[gates["input"]] = 40.0
        p.w.values[gates["candidate"]] = 40.0
        h = run_cell(p, T.Tensor([[[1.0]], [[0.0]]]))
        f = 1.0 / (1.0 + math.exp(-10.0))
        c1 = 1.0
        assert math.isclose(h.array[0, 0, 0], 0.5 * math.tanh(c1), rel_tol=1e-12)
        expected_c = f * c1
        expected_h = 0.5 * math.tanh(expected_c)
        assert math.isclose(h.array[1, 0, 0], expected_h, rel_tol=1e-12)
        assert math.isclose(expected_c, 0.99995, abs_tol=1e-4)
        assert math.isclose(h.array[1, 0, 0], 0.38077, abs_tol=1e-4)

    def test_gradients_all_parameters(self):
        rng = np.random.default_rng(5)
        p = L.LSTMCellParams.init(3, 4, rng)
        xs = T.constant(rng.uniform(-1, 1, (4, 1, 3)))

        def loss_fn():
            return T.total_sum(run_cell(p, xs, last_only=True))

        assert check_gradients(loss_fn, list(p.tensors())) <= 1e-4

    def test_dimension_error_names_gate(self):
        p = zero_cell(input_size=2, hidden_size=3)
        with pytest.raises(T.ShapeError, match="input width 3"):
            run_cell(p, T.Tensor([[[1.0, 2.0, 3.0]]]))
        with pytest.raises(T.ShapeError, match="recurrent gate weights"):
            T.lstm_layer(T.Tensor([[[1.0, 2.0]]]), [p.w], [T.Tensor.zeros((12, 2))], [p.b])
        with pytest.raises(T.ShapeError, match="recurrent gate weights"):
            L.LSTMCellParams(p.w, T.Tensor.zeros((12, 2)), p.b)

    def test_packed_rows_follow_gate_order(self):
        # a forget bias of 1 lands in rows [H, 2H) of b, as torch.nn.LSTM packs it
        p = L.LSTMCellParams.init(2, 3, np.random.default_rng(4))
        assert p.w.shape == (12, 2) and p.u.shape == (12, 3) and p.b.shape == (12,)
        assert np.array_equal(p.b.array, [0.0] * 3 + [1.0] * 3 + [0.0] * 6)

    def test_forward_outside_a_tape_keeps_no_cache(self):
        # a repeat vector read over many steps needs only (batch, 4H) of
        # work space untaped; the per-step caches of one taped call are
        # many times that
        rng = np.random.default_rng(6)
        p = L.LSTMCellParams.init(8, 16, rng)
        x = T.Tensor(rng.uniform(-1, 1, (4, 8)))
        steps = 400
        one_sequence = steps * 4 * 16 * 8  # bytes of a (steps, batch, hidden) array

        def peak(taped):
            tracemalloc.start()
            try:
                if taped:
                    with T.Tape():
                        out = run_cell(p, x, steps=steps, last_only=True)
                else:
                    out = run_cell(p, x, steps=steps, last_only=True)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        untaped, a = peak(False)
        taped, b = peak(True)
        assert np.array_equal(a.array, b.array)
        assert untaped < one_sequence / 4
        assert taped > 5 * one_sequence


class TestStackedLSTM:
    def test_zero_params_zero_hiddens(self):
        stack = L.StackedLSTMParams(
            [zero_cell(2, 3), zero_cell(3, 3)], dropout=0.0)
        seq = T.Tensor(np.tile([0.4, -0.2], (4, 1, 1)))
        out = run_stack(stack, seq)
        assert out.shape == (4, 1, 3)
        assert np.all(out.array == 0.0)
        assert run_stack(stack, seq, last_only=True).shape == (1, 3)

    def test_inference_ignores_rng(self):
        rng = np.random.default_rng(6)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=2, dropout=0.5, rng=rng)
        seq = T.Tensor(rng.uniform(-1, 1, (3, 1, 2)))
        a = run_stack(stack, seq, training=False, rng=np.random.default_rng(1))
        b = run_stack(stack, seq, training=False, rng=np.random.default_rng(999))
        assert np.array_equal(a.array, b.array)

    def test_reference_width_three_layers_128_cells(self):
        rng = np.random.default_rng(7)
        stack = L.StackedLSTMParams.init(8, 128, num_layers=3, dropout=0.2, rng=rng)
        seq = T.Tensor(rng.uniform(-1, 1, (20, 1, 8)))
        out = run_stack(stack, seq)
        assert out.shape == (20, 1, 128)
        assert len(stack.cells) == 3

    def test_training_dropout_needs_rng(self):
        rng = np.random.default_rng(8)
        stack = L.StackedLSTMParams.init(2, 2, num_layers=2, dropout=0.2, rng=rng)
        seq = T.Tensor([[[1.0, 1.0]]])
        with pytest.raises(ValueError, match="rng"):
            run_stack(stack, seq, training=True, rng=None)

    def test_training_is_seed_deterministic(self):
        init_rng = np.random.default_rng(9)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=2, dropout=0.3, rng=init_rng)
        seq = T.Tensor(np.tile([0.5, -0.5], (3, 1, 1)))
        a = run_stack(stack, seq, training=True, rng=np.random.default_rng(42))
        b = run_stack(stack, seq, training=True, rng=np.random.default_rng(42))
        assert np.array_equal(a.array, b.array)

    def test_empty_sequence_rejected(self):
        stack = L.StackedLSTMParams([zero_cell()], dropout=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            run_stack(stack, T.Tensor(np.zeros((0, 1, 2))))

    def test_layer_width_chain_validated(self):
        with pytest.raises(T.ShapeError):
            L.StackedLSTMParams([zero_cell(2, 3), zero_cell(2, 3)], dropout=0.0)

    def test_one_tape_record_per_layer(self):
        rng = np.random.default_rng(19)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=3, dropout=0.0, rng=rng)
        for seq, steps in ((T.Tensor(rng.uniform(-1, 1, (7, 2, 2))), None),
                           (T.Tensor(rng.uniform(-1, 1, (2, 2))), 7)):
            with T.Tape() as tape:
                run_stack(stack, seq, steps=steps, last_only=True)
            assert len(tape) == 3

    @pytest.mark.parametrize("batch,ops_per_depth", [(2, 1), (200, 3)])
    def test_stacks_side_by_side_match_separate_runs(self, monkeypatch, batch, ops_per_depth):
        # three stacks over one shared sequence, trained with dropout: the
        # same outputs, gradients and dropout draws as one stack after another;
        # a large batch runs one op per stack
        rng = np.random.default_rng(20)
        stacks = [L.StackedLSTMParams.init(3, 16, num_layers=2, dropout=0.3, rng=rng)
                  for _ in range(3)]
        x = T.Tensor(rng.uniform(-1, 1, (4, batch, 3)), requires_grad=True)
        layer, calls = T.lstm_layer, []

        def counted(*args, **kwargs):
            calls.append(None)
            return layer(*args, **kwargs)

        monkeypatch.setattr(T, "lstm_layer", counted)

        def run(side_by_side):
            calls.clear()
            draws = np.random.default_rng(7)
            with T.Tape() as tape:
                if side_by_side:
                    outs = L.lstm_forward(stacks, x, training=True, rng=draws, last_only=True)
                else:
                    outs = [run_stack(p, x, training=True, rng=draws, last_only=True) for p in stacks]
                loss = T.total_sum(T.concat(outs, axis=1))
            ops = len(calls)
            tape.backward(loss)
            grads = [t.grad.copy() for p in stacks for t in p.tensors()] + [x.grad.copy()]
            for t in [x, *(t for p in stacks for t in p.tensors())]:
                t.zero_grad()
            return [o.array.copy() for o in outs], grads, ops

        outs, grads, ops = run(True)
        ref_outs, ref_grads, ref_ops = run(False)
        assert (ops, ref_ops) == (2 * ops_per_depth, 6)
        for a, b in zip(outs + grads, ref_outs + ref_grads):
            assert np.array_equal(a, b)

    def test_matches_step_by_step_reference(self):
        # the gate equations evaluated one step at a time in plain numpy
        rng = np.random.default_rng(16)
        p = L.LSTMCellParams.init(3, 4, rng)
        xs = rng.uniform(-1, 1, (5, 2, 3))
        w, u, b = p.w.array, p.u.array, p.b.array
        h, c = np.zeros((2, 4)), np.zeros((2, 4))
        expected = []
        for x in xs:
            z = x @ w.T + h @ u.T + b
            i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * 4:(k + 1) * 4])) for k in range(3))
            c = f * c + i * np.tanh(z[:, 12:])
            h = o * np.tanh(c)
            expected.append(h)
        out = run_stack(L.StackedLSTMParams([p]), T.Tensor(xs))
        assert np.allclose(out.array, expected, rtol=0.0, atol=1e-14)


def bilstm_model(hidden_size, seed=10):
    cfg = M.ClassifierConfig(vocab_size=10, embed_dim=4, hidden_size=hidden_size, num_layers=1,
                             dropout=0.0, num_classes=3, max_len=5, seed=seed)
    return M.BiLstmClassifier(cfg)


class TestBiLSTM:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(10)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=1, dropout=0.0, rng=rng)
        mid = [[0.3, 0.7]]
        edge = [[-0.5, 0.2]]
        seq = T.Tensor([edge, mid, edge])
        fwd_seq = run_stack(stack, seq)
        bwd_seq = run_stack(stack, T.Tensor(seq.array[::-1]))
        assert np.allclose(fwd_seq.array, bwd_seq.array, atol=1e-15)

    def test_zero_params_width(self):
        model = bilstm_model(hidden_size=3)
        for stack in (model.fwd, model.bwd):
            for t in stack.tensors():
                t.values[:] = 0.0
        features = model.forward_batch(np.array([[2, 3, 4, 5]])).features
        assert features.shape == (1, 6)
        assert np.all(features.array == 0.0)

    def test_step_pairing_reverses_backward_direction(self):
        model = bilstm_model(hidden_size=2, seed=11)
        ids = np.array([[2, 7, 3]])
        features = model.forward_batch(ids).features
        reversed_seq = T.Tensor(model._embed(ids).array[::-1])
        bwd_final = run_stack(model.bwd, reversed_seq, last_only=True)
        assert np.array_equal(features.array[:, 2:], bwd_final.array)

    def test_hidden_size_mismatch(self):
        model = bilstm_model(hidden_size=3)
        model.bwd = L.StackedLSTMParams([zero_cell(4, 4)], dropout=0.0)
        with pytest.raises(T.ShapeError, match="does not match"):
            model.forward_batch(np.array([[2, 3]]))

    def test_gradients_both_directions(self):
        model = bilstm_model(hidden_size=2, seed=12)
        tokens = np.array([[2, 4, 6]])

        def loss_fn():
            return T.total_sum(T.tanh(model.forward_batch(tokens).features))

        err = check_gradients(loss_fn, list(model.fwd.tensors()) + list(model.bwd.tensors()))
        assert err <= 1e-4


class TestDense:
    def test_identity_linear(self):
        w = T.Tensor(np.eye(3))
        b = T.Tensor(np.zeros(3))
        x = T.Tensor([0.1, -0.7, 2.0])
        out = L.dense_forward(w, b, x, "linear")
        assert out.shape == (3,)
        assert np.allclose(out.array, x.array)

    def test_softmax_head_sums_to_one(self):
        rng = np.random.default_rng(13)
        w = T.Tensor(rng.uniform(-1, 1, (3, 5)))
        b = T.Tensor(rng.uniform(-1, 1, 3))
        out = L.dense_forward(w, b, T.Tensor(rng.uniform(-1, 1, 5)), "softmax")
        assert abs(out.array.sum() - 1.0) <= 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(14)
        p = L.DenseParams.init(4, 3, rng)
        x = T.constant(rng.uniform(-1, 1, (2, 4)))
        err = check_gradients(
            lambda: T.total_sum(L.dense_forward(p.weights, p.bias, x, "tanh")),
            [p.weights, p.bias])
        assert err <= 1e-6


class TestEmbedding:
    def make_table(self):
        rng = np.random.default_rng(15)
        return L.EmbeddingTable.init(vocab_size=6, embed_dim=3, rng=rng)

    def test_padding_row_zero(self):
        table = self.make_table()
        out = L.embedding_lookup(table, [0, 0, 0])
        assert np.all(out.array == 0.0)

    def test_backward_ones_on_looked_up_rows(self):
        table = self.make_table()
        with T.Tape() as tape:
            loss = T.total_sum(L.embedding_lookup(table, [2, 4]))
        tape.backward(loss)
        grads = table.table.grad_array
        assert np.all(grads[2] == 1.0)
        assert np.all(grads[4] == 1.0)
        assert np.all(grads[[0, 1, 3, 5]] == 0.0)

    def test_duplicate_id_scatter_accumulates(self):
        table = self.make_table()
        with T.Tape() as tape:
            loss = T.total_sum(L.embedding_lookup(table, [3, 3, 3]))
        tape.backward(loss)
        assert np.all(table.table.grad_array[3] == 3.0)

    def test_out_of_range_reports_id(self):
        table = self.make_table()
        with pytest.raises(IndexError, match="9"):
            L.embedding_lookup(table, [1, 9])


class TestRepeatSequence:
    """A (batch, in) input to ``lstm_layer`` is a repeat vector: every step reads it."""

    def make(self, seed=17):
        rng = np.random.default_rng(seed)
        return L.LSTMCellParams.init(2, 3, rng), rng

    def test_rows_identical_to_input(self):
        p, _ = self.make()
        v = T.Tensor([[1.5, -2.5]])
        tiled = T.Tensor(np.tile(v.array, (4, 1, 1)))
        assert np.array_equal(run_cell(p, v, steps=4).array, run_cell(p, tiled).array)

    def test_gradient_equivalent_to_tiling(self):
        p, rng = self.make(18)
        v = T.Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        tiled = T.Tensor(np.tile(v.array, (3, 1, 1)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.total_sum(run_cell(p, v, steps=3))
        tape.backward(loss)
        grad_w = p.w.grad.copy()
        p.w.zero_grad()
        with T.Tape() as tape:
            loss = T.total_sum(run_cell(p, tiled))
        tape.backward(loss)
        assert np.allclose(v.grad_array, tiled.grad_array.sum(axis=0), atol=1e-14)
        assert np.allclose(grad_w, p.w.grad, atol=1e-14)
