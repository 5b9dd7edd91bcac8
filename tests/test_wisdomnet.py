"""The threshold-rejection head: training loop, decision rule, sweeps."""

import numpy as np
import pytest

from tlanet import checkpoint as CK
from tlanet import config as C
from tlanet import experiment as E
from tlanet import optim
from tlanet import tensor as T
from tlanet import wisdomnet as W


def head_reproducing(probs, threshold=0.5):
    """Identity-weight head whose softmax output equals ``probs`` for x=log(probs)."""
    n = len(probs)
    return W.WisdomNetHead(T.Tensor(np.eye(n)), T.Tensor(np.zeros(n)), threshold)


def random_head(rng, classes=3, dim=4):
    return W.WisdomNetHead(
        T.Tensor(rng.uniform(-2, 2, (classes, dim))),
        T.Tensor(rng.uniform(-1, 1, classes)),
    )


def tape_train(data, labels, num_classes, epochs, learning_rate, seed=0, threshold=0.5,
               head=None):
    """The head's gradient descent through the autodiff tape: the numpy loop's reference."""
    x = np.asarray(data, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if head is None:
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(x.shape[1])
        head = W.WisdomNetHead(
            T.Tensor(rng.uniform(-bound, bound, (num_classes, x.shape[1])), requires_grad=True),
            T.Tensor(rng.uniform(-bound, bound, num_classes), requires_grad=True),
            threshold,
        )
    features = T.constant(x)
    for _ in range(epochs):
        head.weights.zero_grad()
        head.bias.zero_grad()
        with T.Tape() as tape:
            logits = T.add_bias(T.linear(features, head.weights), head.bias)
            loss = optim.cce_rows(T.softmax_rows(logits), y)
        tape.backward(loss)
        head.weights.values -= learning_rate * head.weights.grad
        head.bias.values -= learning_rate * head.bias.grad
    return head


def tape_fit(features, labels, num_classes, epochs, learning_rate, seed=0):
    """``fit_rejection_head`` on ``tape_train``, picking its mistakes with ``classify_batch``."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    head = tape_train(x, y, num_classes, epochs, learning_rate, seed)
    wrong = np.array(W.classify_batch(head, x, theta=0.0)) != y
    assert wrong.any()  # the second phase runs
    tape_train(np.concatenate([x, x[wrong]]), np.concatenate([y, y[wrong]]), num_classes,
               epochs, learning_rate, head=head)
    return head


def noisy_features(seed, classes, n=150, dim=6):
    """Class-shifted Gaussian features with a fifth of the labels redrawn: no linear head fits all."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n)
    x = rng.normal(size=(n, dim)) + rng.normal(scale=2.0, size=(classes, dim))[y]
    flip = rng.random(n) < 0.2
    y[flip] = rng.integers(0, classes, int(flip.sum()))
    return x, y


def same_head(a, b):
    return (a.weights.values.tobytes() == b.weights.values.tobytes()
            and a.bias.values.tobytes() == b.bias.values.tobytes())


def classify_one(head, x, theta):
    """``classify_batch``'s decision for one feature vector, passed as a one-row batch."""
    [decision] = W.classify_batch(head, np.asarray(x, dtype=np.float64)[None, :], theta)
    return decision


class TestClassify:
    def test_confident_example_accepted(self):
        head = head_reproducing([0.9, 0.05, 0.05])
        x = np.log([0.9, 0.05, 0.05])
        assert classify_one(head, x, 0.5) == 0

    def test_uncertain_example_rejected(self):
        head = head_reproducing([0.4, 0.3, 0.3])
        x = np.log([0.4, 0.3, 0.3])
        decision = classify_one(head, x, 0.5)
        assert W.is_rejected(decision)

    def test_theta_zero_never_rejects(self):
        rng = np.random.default_rng(0)
        head = random_head(rng)
        for _ in range(100):
            decision = classify_one(head, rng.uniform(-5, 5, 4), 0.0)
            assert not W.is_rejected(decision)

    def test_rejection_monotone_in_theta(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            head = random_head(rng)
            x = rng.uniform(-3, 3, 4)
            thetas = np.sort(rng.uniform(0, 1, 5))
            rejected = [W.is_rejected(classify_one(head, x, t)) for t in thetas]
            # once rejected, stays rejected for every larger threshold
            assert rejected == sorted(rejected)

    def test_theta_below_uniform_never_rejects(self):
        rng = np.random.default_rng(2)
        head = random_head(rng, classes=4)
        for _ in range(50):
            decision = classify_one(head, rng.uniform(-5, 5, 4), 0.25)
            assert not W.is_rejected(decision)

    def test_tie_breaks_to_lowest_index(self):
        head = W.WisdomNetHead(T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros(3)))
        assert classify_one(head, [1.0, 1.0], 0.0) == 0

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(3)
        head = random_head(rng)
        shifted = W.WisdomNetHead(
            T.Tensor(head.weights.array.copy()),
            T.Tensor(head.bias.array + 123.45),
        )
        for _ in range(50):
            x = rng.uniform(-3, 3, 4)
            assert classify_one(head, x, 0.0) == classify_one(shifted, x, 0.0)

    def test_feature_width_checked(self):
        head = random_head(np.random.default_rng(4))
        with pytest.raises(T.ShapeError, match="feature width"):
            classify_one(head, [1.0, 2.0], 0.5)

    def test_invalid_threshold(self):
        head = random_head(np.random.default_rng(5))
        for theta in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match="threshold"):
                classify_one(head, np.zeros(4), theta)


class TestTraining:
    def separable(self, rng, n=40):
        a = rng.normal([2.0, 0.0], 0.3, (n, 2))
        b = rng.normal([-2.0, 0.0], 0.3, (n, 2))
        x = np.concatenate([a, b])
        y = np.array([0] * n + [1] * n)
        return x, y

    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(6)
        x, y = self.separable(rng)
        head = W.wisdomnet_train(x, y, num_classes=2, epochs=200, learning_rate=0.5, seed=0)
        preds = W.classify_batch(head, x, theta=0.0)
        assert np.mean([p == g for p, g in zip(preds, y)]) == 1.0

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            W.wisdomnet_train(np.zeros((4, 2)), [0, 0, 1, 1], 2, epochs=0, learning_rate=0.1)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            W.wisdomnet_train(np.zeros((0, 2)), [], 2, epochs=1, learning_rate=0.1)

    def test_loss_trend_downward(self):
        rng = np.random.default_rng(7)
        x, y = self.separable(rng, n=30)

        def loss_of(head):
            probs = head.probabilities(x)
            return -np.log(np.maximum(probs[np.arange(len(y)), y], 1e-12)).mean()

        head = W.wisdomnet_train(x, y, 2, epochs=1, learning_rate=0.05, seed=1)
        losses = [loss_of(head)]
        for _ in range(6):
            head = W.wisdomnet_train(x, y, 2, epochs=10, learning_rate=0.05, head=head)
            losses.append(loss_of(head))
        assert losses[-1] < losses[0]
        assert sum(b < a for a, b in zip(losses, losses[1:])) >= 5

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            W.wisdomnet_train(np.zeros((2, 2)), [0, 5], 2, epochs=1, learning_rate=0.1)

    def test_fit_rejection_head_emphasizes_mistakes(self):
        rng = np.random.default_rng(8)
        x, y = self.separable(rng, n=25)
        # a few flipped labels guarantee misclassifications for phase two
        y = y.copy()
        y[:3] = 1
        head = W.fit_rejection_head(x, y, 2, epochs=50, learning_rate=0.2, seed=2)
        preds = W.classify_batch(head, x, theta=0.0)
        acc = np.mean([p == g for p, g in zip(preds, y)])
        assert acc >= 0.9


class TestTapeFree:
    @pytest.mark.parametrize("classes", [2, 3, 5])
    def test_bitwise_equal_to_tape_loop_and_continues_in_place(self, classes):
        x, y = noisy_features(classes, classes)
        head = W.wisdomnet_train(x, y, classes, epochs=60, learning_rate=0.3, seed=classes)
        reference = tape_train(x, y, classes, epochs=60, learning_rate=0.3, seed=classes)
        assert same_head(head, reference)
        again = W.wisdomnet_train(x[::2], y[::2], classes, epochs=40, learning_rate=0.2,
                                  head=head)
        tape_train(x[::2], y[::2], classes, epochs=40, learning_rate=0.2, head=reference)
        assert again is head
        assert same_head(head, reference)

    @pytest.mark.parametrize("classes", [2, 3, 5])
    def test_fit_rejection_head_bitwise_equal_through_both_phases(self, classes):
        x, y = noisy_features(10 + classes, classes)
        head = W.fit_rejection_head(x, y, classes, epochs=80, learning_rate=0.1, seed=4)
        assert same_head(head, tape_fit(x, y, classes, epochs=80, learning_rate=0.1, seed=4))

    def test_nine_classes_within_1e_15(self):
        # from 8 classes numpy sums a row pairwise, the class-major sum in order
        x, y = noisy_features(20, 9)
        head = W.fit_rejection_head(x, y, 9, epochs=80, learning_rate=0.1, seed=1)
        reference = tape_fit(x, y, 9, epochs=80, learning_rate=0.1, seed=1)
        assert np.max(np.abs(head.weights.values - reference.weights.values)) <= 1e-15
        assert np.max(np.abs(head.bias.values - reference.bias.values)) <= 1e-15

    def test_records_nothing_on_an_open_tape(self, monkeypatch):
        def no_tensor_ops(*args, **kwargs):
            raise AssertionError("the head's training ran a tensor op")

        monkeypatch.setattr(T, "_emit", no_tensor_ops)
        x, y = noisy_features(30, 3)
        with T.Tape() as tape:
            W.fit_rejection_head(x, y, 3, epochs=5, learning_rate=0.1)
        assert len(tape) == 0

    def test_feature_width_checked_on_continuation(self):
        x, y = noisy_features(31, 3)
        head = W.wisdomnet_train(x, y, 3, epochs=1, learning_rate=0.1)
        with pytest.raises(T.ShapeError, match="feature width"):
            W.wisdomnet_train(x[:, :4], y, 3, epochs=1, learning_rate=0.1, head=head)

    @pytest.mark.parametrize("model", ["tla-net", "word2vec-features"])
    def test_checkpoint_byte_identical_to_tape_trained_head(self, tmp_path, monkeypatch, model):
        def run(out):
            cfg = C.config_from_dict({
                "schema_version": 1,
                "model": model,
                "datasets": {"english": {"train": "builtin:synthetic-train"}},
                "classifier": {"max_vocab": 200, "embed_dim": 4, "hidden_size": 4,
                               "num_layers": 1, "dropout": 0.0, "max_len": 12,
                               "head_hidden": 4},
                "optimizer": {"learning_rate": 0.003, "batch_size": 32, "epochs": 1},
                "word2vec": {"embed_dim": 4, "window": 2, "negatives": 2, "epochs": 1,
                             "batch_size": 64},
                "rejection_head": {"epochs": 100, "learning_rate": 0.1},
                "seed": 3,
                "out_dir": str(tmp_path / out),
            })
            E.run_train(cfg)
            return (tmp_path / out / E.CHECKPOINT_FILE).read_bytes()

        ours = run("numpy")
        monkeypatch.setattr(W, "wisdomnet_train", tape_train)
        assert ours == run("tape")
        assert CK.load_checkpoint(tmp_path / "numpy" / E.CHECKPOINT_FILE).head is not None


class TestSweep:
    def test_theta_zero_full_coverage(self):
        rng = np.random.default_rng(9)
        head = random_head(rng)
        feats = rng.uniform(-2, 2, (50, 4))
        labels = rng.integers(0, 3, 50)
        points = W.threshold_sweep(head, feats, labels, [0.0, 0.3, 0.6, 0.9])
        assert points[0][1] == 1.0

    def test_coverage_non_increasing(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            head = random_head(rng)
            feats = rng.uniform(-2, 2, (40, 4))
            labels = rng.integers(0, 3, 40)
            grid = np.linspace(0, 1, 11)
            coverages = [c for _, c, _ in W.threshold_sweep(head, feats, labels, grid)]
            assert all(a >= b for a, b in zip(coverages, coverages[1:]))

    def test_theta_one_rejects_non_degenerate(self):
        rng = np.random.default_rng(11)
        head = random_head(rng)
        feats = rng.uniform(-2, 2, (30, 4))
        labels = rng.integers(0, 3, 30)
        (_, coverage, accuracy), = W.threshold_sweep(head, feats, labels, [1.0])
        assert coverage == 0.0
        assert accuracy == 0.0

    def test_empty_grid_rejected(self):
        head = random_head(np.random.default_rng(12))
        with pytest.raises(ValueError, match="grid"):
            W.threshold_sweep(head, np.zeros((2, 4)), [0, 1], [])
