"""Losses and optimizers: cross-entropies, reconstruction loss, Adam, the decay schedule."""

import math

import numpy as np
import pytest

from tlanet import models as M
from tlanet import optim
from tlanet import tensor as T
from tlanet import text as TXT
from tlanet.gradcheck import check_gradients
from tlanet.synthetic import synthetic_examples


def cce_one(probs, target):
    """``cce_rows`` of a one-row batch."""
    return optim.cce_rows(T.Tensor([probs]), [target])


class TestCCE:
    def test_confident_correct_is_zero(self):
        loss = cce_one([1.0, 0.0, 0.0], 0)
        assert loss.item() == 0.0

    def test_uniform_three_way(self):
        loss = cce_one([1 / 3, 1 / 3, 1 / 3], 1)
        assert math.isclose(loss.item(), math.log(3.0), rel_tol=1e-12)

    def test_zero_probability_clipped(self):
        loss = cce_one([0.0, 1.0], 0)
        assert math.isclose(loss.item(), -math.log(1e-12), rel_tol=1e-12)
        assert math.isclose(loss.item(), 27.631, rel_tol=1e-4)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cce_one([0.5, 0.5], 3)

    def test_nonnegative_and_zero_iff_confident(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.uniform(0.01, 1.0, 4)
            probs = raw / raw.sum()
            target = int(rng.integers(4))
            loss = cce_one(probs, target).item()
            assert loss >= 0.0
            assert (loss == 0.0) == (probs[target] == 1.0)

    def test_batch_mean_matches_singles(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.05, 1.0, (4, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 3, 4)
        batch = optim.cce_rows(T.Tensor(probs), targets).item()
        singles = [cce_one(row, t).item() for row, t in zip(probs, targets)]
        assert math.isclose(batch, np.mean(singles), rel_tol=1e-12)


class TestReconstructionLoss:
    def test_identity_is_zero(self):
        seq = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert optim.reconstruction_loss(seq, seq).item() == 0.0

    def test_hand_value(self):
        i = T.Tensor([[1.0, 2.0], [3.0, 0.0]])
        o = T.Tensor([[0.0, 0.0], [0.0, 0.0]])
        assert optim.reconstruction_loss(i, o).item() == 14.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = T.Tensor(rng.uniform(-2, 2, (3, 4)))
        b = T.Tensor(rng.uniform(-2, 2, (3, 4)))
        assert math.isclose(optim.reconstruction_loss(a, b).item(),
                            optim.reconstruction_loss(b, a).item(), rel_tol=1e-15)

    def test_accepts_step_lists(self):
        i = [T.Tensor([1.0, 2.0]), T.Tensor([3.0, 0.0])]
        o = [T.Tensor([0.0, 0.0]), T.Tensor([0.0, 0.0])]
        assert optim.reconstruction_loss(i, o).item() == 14.0

    def test_analytic_gradient_is_2_diff(self):
        rng = np.random.default_rng(3)
        i = T.Tensor(rng.uniform(-2, 2, (3, 2)))
        o = T.Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = optim.reconstruction_loss(i, o)
        tape.backward(loss)
        assert np.allclose(o.grad_array, 2.0 * (o.array - i.array), atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        i = T.Tensor(rng.uniform(-2, 2, (3, 2)))
        o = T.Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
        err = check_gradients(lambda: optim.reconstruction_loss(i, o), [o])
        assert err <= 1e-8

    def test_length_mismatch(self):
        with pytest.raises(T.ShapeError):
            optim.reconstruction_loss(T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((3, 2))))


class TestBCE:
    def test_matching_hard_labels(self):
        probs = T.Tensor([1.0, 0.0, 1.0])
        assert optim.bce(probs, [1.0, 0.0, 1.0]).item() <= 1e-10

    def test_uninformative_half(self):
        probs = T.Tensor([0.5, 0.5, 0.5, 0.5])
        assert math.isclose(optim.bce(probs, [1, 0, 1, 0]).item(), math.log(2.0), rel_tol=1e-12)

    def test_hand_value(self):
        assert math.isclose(optim.bce(T.Tensor([0.9]), [1.0]).item(),
                            -math.log(0.9), rel_tol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            optim.bce(T.Tensor([0.5, 0.5]), [1.0])


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = T.Tensor([1.0, -2.0], requires_grad=True, name="p")
        adam = optim.Adam([p], learning_rate=0.1)
        before = p.values.copy()
        adam.step()
        assert np.array_equal(p.values, before)
        assert adam.t == 1

    def test_first_step_magnitude_near_lr(self):
        for g in (0.001, 0.5, 40.0):
            p = T.Tensor([0.0], requires_grad=True)
            p.grad[:] = g
            adam = optim.Adam([p], learning_rate=0.01)
            adam.step()
            assert abs(abs(p.values[0]) - 0.01) <= 0.01 * 1e-4

    def test_two_step_hand_trace(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g1, g2 = 0.3, -0.2
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        p = T.Tensor([1.0], requires_grad=True)
        adam = optim.Adam([p], learning_rate=lr)
        p.grad[:] = g1
        adam.step()
        p.zero_grad()
        p.grad[:] = g2
        adam.step()
        assert math.isclose(p.values[0], theta, rel_tol=1e-14)
        assert adam.t == 2

    def test_non_finite_gradient_names_parameter(self):
        p = T.Tensor([1.0], requires_grad=True, name="embedding")
        p.grad[:] = np.nan
        adam = optim.Adam([p])
        with pytest.raises(optim.TrainingDivergence, match="embedding"):
            adam.step()

    def test_quadratic_descent_monotone_after_warmup(self):
        target = np.array([0.3, -1.2, 2.0])
        p = T.Tensor(np.zeros(3), requires_grad=True)
        adam = optim.Adam([p], learning_rate=0.001)
        objective = []
        for _ in range(50):
            diff = p.values - target
            objective.append(float((diff ** 2).sum()))
            p.zero_grad()
            p.grad[:] = 2.0 * diff
            adam.step()
        diffs = np.diff(objective[3:])
        assert (diffs < 0).all()

    def test_state_round_trip(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        adam = optim.Adam([p], learning_rate=0.01)
        p.grad[:] = 0.5
        adam.step()
        arrays = {k: v.copy() for k, v in adam.state_arrays().items()}
        clone = optim.Adam([p], learning_rate=0.01)
        clone.load_state_arrays(arrays, adam.t)
        assert clone.t == adam.t
        assert np.array_equal(clone.m[0], adam.m[0])
        assert np.array_equal(clone.v[0], adam.v[0])


class _AllocatingAdam(optim.Adam):
    """Adam written with one new array per expression, as the step was before it
    updated its moments in place; the reference for the in-place step."""

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class TestAdamInPlace:
    def test_step_keeps_its_moment_buffers(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        adam = optim.Adam([p], learning_rate=0.01)
        m, v = adam.m[0], adam.v[0]
        for g in (0.5, -0.25):
            p.grad[:] = g
            adam.step()
        assert adam.m[0] is m and adam.v[0] is v

    def test_tla_net_fit_trace_bitwise_equal_to_allocating_step(self):
        # acceptance config: embed 16, hidden 16, 1 layer, max_len 12, batch 32, 20 epochs
        exs = synthetic_examples("train")
        vocab = TXT.build_vocab((TXT.tokenize(e.text) for e in exs), 200, 1)
        tokens, labels = TXT.encode_dataset(vocab, exs, 12)
        cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=16, hidden_size=16,
                                 num_layers=1, dropout=0.1, max_len=12, seed=3, head_hidden=16)
        runs = []
        for adam_class in (optim.Adam, _AllocatingAdam):
            model = M.build_model("tla-net", cfg)
            adam = adam_class([t for _, t in model.named_tensors()], learning_rate=0.003)
            trace = M.fit(model, adam, tokens, labels, epochs=20, batch_size=32, seed=3)
            runs.append((trace, [t.values for _, t in model.named_tensors()], adam))
        (trace, params, adam), (ref_trace, ref_params, ref_adam) = runs
        assert trace == ref_trace
        assert all(a.tobytes() == b.tobytes() for a, b in zip(params, ref_params))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(adam.m + adam.v, ref_adam.m + ref_adam.v))

    def test_loaded_state_is_copied(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        arrays = {"adam.m.0": np.array([0.1, 0.2]), "adam.v.0": np.array([0.01, 0.04])}
        saved = {k: v.copy() for k, v in arrays.items()}
        adam = optim.Adam([p], learning_rate=0.01)
        adam.load_state_arrays(arrays, 3)
        p.grad[:] = 0.5
        adam.step()
        assert all(np.array_equal(arrays[k], saved[k]) for k in arrays)


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        sched = optim.LinearDecaySchedule(0.025, 0.001, 1000)
        assert sched.rate(0) == 0.025
        assert sched.rate(1000) == 0.001
        assert math.isclose(sched.rate(500), 0.013, rel_tol=1e-12)

    def test_step_out_of_range(self):
        sched = optim.LinearDecaySchedule(0.025, 0.001, 10)
        with pytest.raises(ValueError):
            sched.rate(11)
