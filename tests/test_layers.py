"""Layer blocks: LSTM cell and stacks, the two BiLSTM directions, dense, embedding."""

import math

import numpy as np
import pytest

from tlanet import layers as L
from tlanet import models as M
from tlanet import tensor as T
from tlanet.gradcheck import check_gradients


def zero_cell(input_size=2, hidden_size=2):
    return L.LSTMCellParams.zeros(input_size, hidden_size)


class TestLSTMCell:
    def test_zero_parameters_give_zero_state(self):
        p = zero_cell()
        state = L.lstm_cell_step(p, T.Tensor([[1.0, -1.0]]), L.LSTMState.zeros(1, 2))
        assert np.all(state.h.array == 0.0)
        assert np.all(state.c.array == 0.0)

    def test_forget_bias_hand_case(self):
        # zero weights except forget bias +10, previous cell [1]: the gate
        # equations collapse to i=o=0.5, f=sigmoid(10), g=0
        p = zero_cell(input_size=1, hidden_size=1)
        p.b["forget"].values[:] = 10.0
        prev = L.LSTMState(T.Tensor([[0.0]]), T.Tensor([[1.0]]))
        state = L.lstm_cell_step(p, T.Tensor([[0.3]]), prev)
        f = 1.0 / (1.0 + math.exp(-10.0))
        expected_c = f * 1.0
        expected_h = 0.5 * math.tanh(expected_c)
        assert math.isclose(state.c.item(), expected_c, rel_tol=1e-12)
        assert math.isclose(state.h.item(), expected_h, rel_tol=1e-12)
        assert math.isclose(state.c.item(), 0.99995, abs_tol=1e-4)
        assert math.isclose(state.h.item(), 0.38077, abs_tol=1e-4)

    def test_gradients_all_parameters(self):
        rng = np.random.default_rng(5)
        p = L.LSTMCellParams.init(3, 4, rng)
        xs = [T.constant(rng.uniform(-1, 1, (1, 3))) for _ in range(4)]

        def loss_fn():
            state = L.LSTMState.zeros(1, 4)
            for x in xs:
                state = L.lstm_cell_step(p, x, state)
            return T.total_sum(state.h)

        assert check_gradients(loss_fn, list(p.tensors())) <= 1e-4

    def test_dimension_error_names_gate(self):
        p = zero_cell(input_size=2, hidden_size=3)
        with pytest.raises(T.ShapeError, match="input gate"):
            L.lstm_cell_step(p, T.Tensor([[1.0, 2.0, 3.0]]), L.LSTMState.zeros(1, 3))
        with pytest.raises(T.ShapeError, match="forget gate"):
            L.lstm_cell_step(p, T.Tensor([[1.0, 2.0]]), L.LSTMState.zeros(1, 2))


class TestStackedLSTM:
    def test_zero_params_zero_hiddens(self):
        stack = L.StackedLSTMParams(
            [zero_cell(2, 3), zero_cell(3, 3)], dropout=0.0)
        seq = [T.Tensor([[0.4, -0.2]]) for _ in range(4)]
        out, finals = L.lstm_forward(stack, seq)
        assert len(out) == 4
        assert all(np.all(h.array == 0.0) for h in out)
        assert len(finals) == 2

    def test_inference_ignores_rng(self):
        rng = np.random.default_rng(6)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=2, dropout=0.5, rng=rng)
        seq = [T.Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(3)]
        a, _ = L.lstm_forward(stack, seq, training=False, rng=np.random.default_rng(1))
        b, _ = L.lstm_forward(stack, seq, training=False, rng=np.random.default_rng(999))
        for x, y in zip(a, b):
            assert np.array_equal(x.array, y.array)

    def test_reference_width_three_layers_128_cells(self):
        rng = np.random.default_rng(7)
        stack = L.StackedLSTMParams.init(8, 128, num_layers=3, dropout=0.2, rng=rng)
        seq = [T.Tensor(rng.uniform(-1, 1, (1, 8))) for _ in range(20)]
        out, finals = L.lstm_forward(stack, seq)
        assert len(out) == 20
        assert all(h.shape == (1, 128) for h in out)
        assert len(finals) == 3

    def test_training_dropout_needs_rng(self):
        rng = np.random.default_rng(8)
        stack = L.StackedLSTMParams.init(2, 2, num_layers=2, dropout=0.2, rng=rng)
        seq = [T.Tensor([[1.0, 1.0]])]
        with pytest.raises(ValueError, match="rng"):
            L.lstm_forward(stack, seq, training=True, rng=None)

    def test_training_is_seed_deterministic(self):
        init_rng = np.random.default_rng(9)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=2, dropout=0.3, rng=init_rng)
        seq = [T.Tensor([[0.5, -0.5]]) for _ in range(3)]
        a, _ = L.lstm_forward(stack, seq, training=True, rng=np.random.default_rng(42))
        b, _ = L.lstm_forward(stack, seq, training=True, rng=np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x.array, y.array)

    def test_empty_sequence_rejected(self):
        stack = L.StackedLSTMParams([zero_cell()], dropout=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            L.lstm_forward(stack, [])

    def test_layer_width_chain_validated(self):
        with pytest.raises(T.ShapeError):
            L.StackedLSTMParams([zero_cell(2, 3), zero_cell(2, 3)], dropout=0.0)


def bilstm_model(hidden_size, seed=10):
    cfg = M.ClassifierConfig(vocab_size=10, embed_dim=4, hidden_size=hidden_size, num_layers=1,
                             dropout=0.0, num_classes=3, max_len=5, seed=seed)
    return M.BiLstmClassifier(cfg)


class TestBiLSTM:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(10)
        stack = L.StackedLSTMParams.init(2, 3, num_layers=1, dropout=0.0, rng=rng)
        mid = T.Tensor([[0.3, 0.7]])
        edge = T.Tensor([[-0.5, 0.2]])
        seq = [edge, mid, edge]
        fwd_seq, _ = L.lstm_forward(stack, seq)
        bwd_seq, _ = L.lstm_forward(stack, list(reversed(seq)))
        for f, b in zip(fwd_seq, bwd_seq):
            assert np.allclose(f.array, b.array, atol=1e-15)

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
        seq = model._embed_steps(ids)
        _, bwd_finals = L.lstm_forward(model.bwd, list(reversed(seq)))
        assert np.array_equal(features.array[:, 2:], bwd_finals[-1].h.array)

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
    def test_rows_identical_to_input(self):
        v = T.Tensor([[1.5, -2.5]])
        seq = L.repeat_sequence(v, 4)
        assert len(seq) == 4
        for step in seq:
            assert np.array_equal(step.array, v.array)

    def test_gradient_equivalent_to_tiling(self):
        v = T.Tensor([2.0, 3.0], requires_grad=True)
        with T.Tape() as tape:
            seq = L.repeat_sequence(v, 3)
            total = seq[0]
            for s in seq[1:]:
                total = T.add(total, s)
            loss = T.total_sum(total)
        tape.backward(loss)
        assert np.array_equal(v.grad, [3.0, 3.0])
