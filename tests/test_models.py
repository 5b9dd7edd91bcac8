"""Model-level behavior: the classifiers, the meta-learner, and the training loop."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from tlanet import layers as L
from tlanet import models as M
from tlanet import optim
from tlanet import tensor as T
from tlanet import text as TXT
from tlanet.gradcheck import check_gradients
from tlanet.synthetic import synthetic_examples

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def small_config(**overrides):
    base = dict(vocab_size=10, embed_dim=4, hidden_size=4, num_layers=1, dropout=0.0,
                num_classes=3, max_len=5, seed=3, head_hidden=4)
    base.update(overrides)
    return M.ClassifierConfig(**base)


def predict_probs(model, ids):
    """Class probabilities of one example, through the batched path."""
    probs, _, _ = model.predict_batch([ids])
    return probs[0]


def zero_tensors(tensors):
    for t in tensors:
        t.values[:] = 0.0


class TestLstmClassifier:
    def test_zero_trunk_gives_softmax_of_bias(self):
        model = M.LstmClassifier(small_config())
        zero_tensors(model.trunk.tensors())
        model.head.bias.values[:] = [1.0, 0.0, -1.0]
        a = predict_probs(model, [2, 3, 4])
        b = predict_probs(model, [5, 6, 7, 8])
        expected = np.exp(np.array([1.0, 0.0, -1.0]) - 1.0)
        expected /= expected.sum()
        assert np.allclose(a, expected, atol=1e-12)
        assert np.allclose(a, b, atol=1e-15)

    def test_output_is_three_way_distribution(self):
        model = M.LstmClassifier(small_config())
        probs, _, recon = model.predict_batch([[2, 5, 7]])
        assert probs.shape == (1, 3)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert recon is None

    def test_empty_input_rejected(self):
        model = M.LstmClassifier(small_config())
        with pytest.raises(ValueError):
            model.predict_batch([[]])

    def test_end_to_end_gradient(self):
        model = M.LstmClassifier(small_config())
        tokens = np.array([[2, 4, 6, 8]])

        def loss_fn():
            out = model.forward_batch(tokens)
            return model.training_loss(out, [1])

        assert check_gradients(loss_fn, [t for _, t in model.named_tensors()]) <= 1e-4


class TestBiLstmClassifier:
    def test_zero_params_uniform_from_bias(self):
        model = M.BiLstmClassifier(small_config())
        zero_tensors(model.fwd.tensors())
        zero_tensors(model.bwd.tensors())
        assert np.allclose(predict_probs(model, [2, 3]), 1.0 / 3.0, atol=1e-12)

    def test_reversed_input_with_swapped_directions(self):
        # swapping the direction stacks and the matching halves of the head
        # weights must leave the class probabilities bit-identical
        model = M.BiLstmClassifier(small_config(seed=11))
        tokens = [2, 7, 3, 9, 4]
        baseline = predict_probs(model, tokens)

        model.fwd, model.bwd = model.bwd, model.fwd
        w = model.head.weights.array
        h = model.cfg.hidden_size
        swapped = np.concatenate([w[:, h:], w[:, :h]], axis=1)
        model.head.weights.values[:] = swapped.reshape(-1)
        mirrored = predict_probs(model, list(reversed(tokens)))
        assert np.array_equal(baseline, mirrored)

    def test_gradient(self):
        model = M.BiLstmClassifier(small_config(hidden_size=3))
        tokens = np.array([[2, 4, 6]])

        def loss_fn():
            return model.training_loss(model.forward_batch(tokens), [0])

        assert check_gradients(loss_fn, [t for _, t in model.named_tensors()]) <= 1e-4


class TestLstmAutoencoder:
    def test_output_shapes_and_distribution(self):
        model = M.LstmAutoencoder(small_config())
        out = model.forward_batch(np.array([[2, 3, 4, 5]]))
        assert out.reconstruction.shape == (4, 4)  # one row per step
        assert abs(out.probs.array.sum() - 1.0) <= 1e-9
        assert out.recon_loss is not None

    def test_overfit_single_sample_reconstruction(self):
        model = M.LstmAutoencoder(small_config(hidden_size=8, seed=5))
        tokens = np.array([[2, 5, 7]])
        adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=0.01)
        final = None
        for step in range(400):
            _, final = M.train_step(model, adam, tokens, [1], recon_weight=1.0,
                                    step_index=step)
        assert final <= 1e-3


class TestMetaLearner:
    def test_identical_inputs_convex_combination_is_input(self):
        rng = np.random.default_rng(21)
        params = M.MetaLearnerParams.init(4, rng)
        x = T.Tensor(rng.uniform(-1, 1, (2, 4)))
        fusion = M.meta_learner_combine(params, [x, x, x])
        assert np.allclose(fusion.convex.array, x.array, atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        rng = np.random.default_rng(22)
        params = M.MetaLearnerParams.init(3, rng)
        inputs = [T.Tensor(rng.uniform(-2, 2, (4, 3))) for _ in range(3)]
        fusion = M.meta_learner_combine(params, inputs)
        sums = fusion.attention.array.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert (fusion.attention.array >= 0.0).all()

    def test_zero_scoring_vector_gives_uniform_weights(self):
        rng = np.random.default_rng(23)
        params = M.MetaLearnerParams.init(3, rng)
        params.score.values[:] = 0.0
        inputs = [T.Tensor(rng.uniform(-2, 2, (2, 3))) for _ in range(3)]
        fusion = M.meta_learner_combine(params, inputs)
        assert np.allclose(fusion.attention.array, 1.0 / 3.0, atol=1e-15)

    def test_wrong_arity_and_width(self):
        rng = np.random.default_rng(24)
        params = M.MetaLearnerParams.init(3, rng)
        x = T.Tensor(np.zeros((1, 3)))
        with pytest.raises(T.ShapeError, match="exactly 3"):
            M.meta_learner_combine(params, [x, x])
        y = T.Tensor(np.zeros((1, 4)))
        with pytest.raises(T.ShapeError, match="widths"):
            M.meta_learner_combine(params, [x, x, y])


class TestTlaNet:
    def test_shapes_and_normalization(self):
        model = M.TlaNet(small_config())
        out = model.forward_batch(np.array([[2, 3, 4]]))
        assert abs(out.probs.array.sum() - 1.0) <= 1e-9
        assert out.reconstruction.shape == (3, 4)
        assert out.features.shape == (1, 4)

    def test_identical_encoders_fuse_to_single_encoding(self):
        model = M.TlaNet(small_config(seed=8))
        for k in (1, 2):
            for src, dst in ((model.enc_stage1[0], model.enc_stage1[k]),
                             (model.enc_stage2[0], model.enc_stage2[k])):
                for a, b in zip(src.tensors(), dst.tensors()):
                    b.values[:] = a.values
        ids = np.array([[2, 5, 7]])
        seq = model._embed(ids)
        encodings = model._encode(seq, False, None)
        for e in encodings[1:]:
            assert np.allclose(e.array, encodings[0].array, atol=1e-15)
        fusion = M.meta_learner_combine(model.enc_meta, encodings)
        assert np.allclose(fusion.convex.array, encodings[0].array, atol=1e-12)

    def test_batch_rows_independent(self):
        # the whole-sequence heads flatten (steps, batch) into rows; a row
        # read under the wrong example or step would make examples interact
        model = M.TlaNet(small_config(seed=12))
        tokens = np.array([[2, 3, 4, 0], [5, 6, 7, 8], [9, 1, 0, 0]])
        probs, feats, recon = model.predict_batch(tokens, reconstruct=True)
        for r, row in enumerate(tokens):
            p1, f1, rec1 = model.predict_batch(row[None, :], reconstruct=True)
            assert np.allclose(probs[r], p1[0], rtol=0.0, atol=1e-14)
            assert np.allclose(feats[r], f1[0], rtol=0.0, atol=1e-14)
            assert np.allclose(recon[r], rec1[0], rtol=0.0, atol=1e-14)

    def test_step_tape_records(self):
        # one record per depth of each of the four stages (three branches
        # each), one meta-learner call per fusion, one reconstruction head over
        # all steps: the count does not grow with steps
        def records(num_layers, steps):
            model = M.TlaNet(small_config(num_layers=num_layers, dropout=0.2, max_len=steps))
            tokens = np.arange(2 * steps).reshape(2, steps) % 10
            with T.Tape() as tape:
                out = model.forward_batch(tokens, training=True, rng=np.random.default_rng(0))
                model.losses(out, [0, 1])
            return len(tape)

        assert records(1, 12) == records(1, 3) <= 150
        # each extra layer per stack adds one op per stage and the dropout
        # before it on each of the twelve stacks
        assert records(2, 12) == records(1, 12) + 4 + 12

    def test_full_network_gradient(self):
        cfg = small_config(embed_dim=3, hidden_size=2, head_hidden=3, vocab_size=8)
        model = M.TlaNet(cfg)
        tokens = np.array([[2, 4, 7]])

        def loss_fn():
            return model.training_loss(model.forward_batch(tokens), [1])

        assert check_gradients(loss_fn, [t for _, t in model.named_tensors()]) <= 1e-3


class TestInferenceStopsAtClassifier:
    KINDS = ("lstm", "bilstm", "lstm-ae", "tla-net")

    @pytest.mark.parametrize("kind,bare,full", [("lstm-ae", 1, 2), ("tla-net", 2, 4)])
    def test_decoders_run_only_for_the_reconstruction(self, monkeypatch, kind, bare, full):
        model = M.build_model(kind, small_config())
        layer = T.lstm_layer
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return layer(*args, **kwargs)

        monkeypatch.setattr(T, "lstm_layer", counted)
        tokens = np.array([[2, 3, 4], [5, 6, 7]])
        model.predict_batch(tokens)
        assert len(calls) == bare
        calls.clear()
        model.predict_batch(tokens, reconstruct=True)
        assert len(calls) == full

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_with_and_without_reconstruction(self, kind):
        model = M.build_model(kind, small_config(seed=21, dropout=0.3))
        tokens = np.random.default_rng(4).integers(0, 10, (7, 5))
        probs, feats, recon = model.predict_batch(tokens, chunk=3)
        probs_r, feats_r, recon_r = model.predict_batch(tokens, chunk=3, reconstruct=True)
        assert recon is None
        assert np.array_equal(probs, probs_r)
        assert np.array_equal(feats, feats_r)
        if kind in ("lstm", "bilstm"):
            assert recon_r is None
        else:
            assert recon_r.shape == (7,) and (recon_r > 0.0).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_pass_needs_the_reconstruction(self, kind):
        model = M.build_model(kind, small_config())
        with pytest.raises(ValueError, match="reconstruct=True"):
            model.forward_batch(np.array([[2, 3]]), training=True,
                                rng=np.random.default_rng(0), reconstruct=False)


class TestTraining:
    def corpus(self):
        exs = synthetic_examples("train")
        vocab = TXT.build_vocab((TXT.tokenize(e.text) for e in exs), 200, 1)
        return TXT.encode_dataset(vocab, exs, 12) + (vocab,)

    def test_lambda_zero_reports_recon_without_training_it(self):
        tokens = np.array([[2, 3, 4], [5, 6, 7]])
        labels = [0, 1]
        model = M.TlaNet(small_config())
        adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=0.001)
        cl, rl = M.train_step(model, adam, tokens, labels, recon_weight=0.0)
        assert rl > 0.0
        assert np.isfinite(cl)

    def test_loss_decreases_on_fixed_batch(self):
        tokens, labels, _ = self.corpus()
        sel = np.arange(0, 60, 3)
        model = M.TlaNet(small_config(vocab_size=80, embed_dim=8, hidden_size=8,
                                      max_len=12, head_hidden=8, seed=1))
        adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=0.003)
        losses = []
        for step in range(50):
            cl, rl = M.train_step(model, adam, tokens[sel], labels[sel],
                                  recon_weight=0.5, step_index=step)
            losses.append(cl + 0.5 * rl)
        assert losses[-1] < losses[0]

    def test_identical_seeds_identical_traces(self):
        tokens, labels, _ = self.corpus()

        def run():
            model = M.TlaNet(small_config(vocab_size=80, embed_dim=6, hidden_size=6,
                                          max_len=12, head_hidden=6, seed=2, dropout=0.1))
            adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=0.003)
            trace = M.fit(model, adam, tokens, labels, epochs=3, batch_size=16,
                          recon_weight=0.5, seed=9)
            return trace, [t.values.copy() for _, t in model.named_tensors()]

        trace_a, params_a = run()
        trace_b, params_b = run()
        assert trace_a == trace_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_divergence_reports_step(self):
        model = M.LstmClassifier(small_config())
        model.embedding.table.values[:] = np.nan
        adam = optim.Adam([t for _, t in model.named_tensors()])
        with pytest.raises(optim.TrainingDivergence, match="step 17"):
            M.train_step(model, adam, np.array([[2, 3]]), [0], step_index=17)

    def test_probabilities_valid_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for kind in ("lstm", "bilstm", "lstm-ae", "tla-net"):
            model = M.build_model(kind, small_config())
            for _ in range(5):
                length = int(rng.integers(1, 6))
                ids = rng.integers(0, 10, length)
                probs = predict_probs(model, ids)
                assert (probs >= 0.0).all()
                assert abs(probs.sum() - 1.0) <= 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            M.build_model("transformer", small_config())

    def test_predict_with_rejection_attaches_decision(self):
        from tlanet import wisdomnet as W
        model = M.LstmClassifier(small_config())
        rng = np.random.default_rng(41)
        head = W.WisdomNetHead(
            T.Tensor(rng.uniform(-1, 1, (3, model.feature_dim))),
            T.Tensor(np.zeros(3)))
        _, feats, _ = model.predict_batch([[2, 3, 4]])
        [accepted] = W.classify_batch(head, feats, theta=0.0)
        assert accepted in (0, 1, 2)
        [refused] = W.classify_batch(head, feats, theta=1.0)
        assert W.is_rejected(refused)


KINDS = ("lstm", "bilstm", "lstm-ae", "tla-net")


class TestPaddingInvariance:
    """Each comment runs only its real steps: the pads after it change nothing."""

    def comments(self):
        exs = synthetic_examples("test")
        vocab = TXT.build_vocab((TXT.tokenize(e.text) for e in synthetic_examples("train")), 200, 1)
        return [vocab.encode(TXT.tokenize(e.text)) for e in exs], vocab.size

    @pytest.mark.parametrize("kind", KINDS)
    def test_unpadded_padded_to_12_and_to_40_agree(self, kind):
        id_lists, vocab_size = self.comments()
        model = M.build_model(kind, small_config(vocab_size=vocab_size, num_layers=2, max_len=40,
                                                 seed=4))
        alone = [model.predict_batch([ids], reconstruct=True) for ids in id_lists]
        for width in (12, 40):
            batch = model.predict_batch(TXT.pad_id_lists(id_lists, width), chunk=8,
                                        reconstruct=True)
            for got, want in zip(batch, zip(*alone)):
                if got is None:
                    assert want[0] is None
                    continue
                assert np.abs(got - np.concatenate(want)).max() <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_loss_and_gradients_ignore_pads(self, kind):
        id_lists, vocab_size = self.comments()
        id_lists, labels = id_lists[:6], np.array([0, 1, 2, 0, 1, 2])
        model = M.build_model(kind, small_config(vocab_size=vocab_size, dropout=0.0, seed=5))
        params = [t for _, t in model.named_tensors()]

        def loss_and_grads(width):
            for t in params:
                t.zero_grad()
            with T.Tape() as tape:
                out = model.forward_batch(TXT.pad_id_lists(id_lists, width), training=True)
                total = model.losses(out, labels)[0]
            tape.backward(total)
            return total.item(), [t.grad.copy() for t in params]

        loss12, grads12 = loss_and_grads(12)
        loss40, grads40 = loss_and_grads(40)
        assert loss12 == loss40
        for a, b in zip(grads12, grads40):
            assert np.array_equal(a, b)

    def test_bilstm_reads_each_comment_reversed_within_its_length(self):
        model = M.BiLstmClassifier(small_config(seed=11))
        ids = np.array([[2, 7, 3, 0, 0], [4, 5, 6, 8, 9]])
        features = model.forward_batch(ids).features.array
        for r, n in enumerate((3, 5)):
            reversed_seq = model._embed(ids[r:r + 1, n - 1::-1])
            [bwd] = L.lstm_forward([model.bwd], reversed_seq, last_only=True)
            assert np.abs(features[r, 4:] - bwd.array[0]).max() <= 1e-15

    def test_rows_return_in_the_callers_order(self):
        model = M.TlaNet(small_config(seed=12))
        tokens = np.array([[2, 0, 0, 0], [5, 6, 7, 8], [9, 1, 0, 0], [3, 4, 5, 0]])
        probs, feats, recon = model.predict_batch(tokens, chunk=3, reconstruct=True)
        out = model.forward_batch(tokens)
        assert np.abs(out.probs.array - probs).max() <= 1e-15
        assert np.abs(out.recon_per_example - recon).max() <= 1e-15
        for r in range(4):
            p1, f1, rec1 = model.predict_batch(tokens[r:r + 1], reconstruct=True)
            assert np.abs(probs[r] - p1[0]).max() <= 1e-14
            assert np.abs(feats[r] - f1[0]).max() <= 1e-14
            assert np.abs(recon[r] - rec1[0]).max() <= 1e-14


class TestZeroLengthComments:
    """A comment with no real token reads one pad step (length 1)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_and_fit(self, kind):
        model = M.build_model(kind, small_config(num_layers=2, dropout=0.2))
        tokens = np.array([[0, 0, 0, 0], [2, 3, 0, 0], [0, 0, 0, 0]])
        probs, feats, recon = model.predict_batch(tokens, reconstruct=True)
        one_pad, _, one_recon = model.predict_batch([[0]], reconstruct=True)
        assert np.isfinite(probs).all() and np.isfinite(feats).all()
        assert np.array_equal(probs[0], probs[2])
        assert np.abs(probs[0] - one_pad[0]).max() <= 1e-15
        if recon is not None:
            assert np.abs(recon[0] - one_recon[0]).max() <= 1e-15
        adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=0.01)
        trace = M.fit(model, adam, tokens, [0, 1, 2], epochs=2, batch_size=2, seed=3)
        assert np.isfinite(trace).all()

    def test_lengths(self):
        ids = np.array([[0, 0, 0], [4, 0, 0], [4, 0, 5], [1, 2, 3]])
        assert M.sequence_lengths(ids).tolist() == [1, 1, 3, 3]


def full_length_arrays(kind):
    """One model's outputs and gradients on comments with no pads.

    A training pass with dropout (its loss, probabilities, features,
    per-example reconstruction error and every parameter gradient) and a
    chunked ``predict_batch`` with the reconstruction.
    """
    cfg = M.ClassifierConfig(vocab_size=10, embed_dim=3, hidden_size=4, num_layers=2,
                             dropout=0.25, num_classes=3, max_len=6, seed=3, head_hidden=4)
    model = M.build_model(kind, cfg)
    tokens = np.random.default_rng(7).integers(1, 10, (5, 6))
    labels = np.array([0, 1, 2, 1, 0])
    with T.Tape() as tape:
        out = model.forward_batch(tokens, training=True, rng=np.random.default_rng(9))
        total, _, _ = model.losses(out, labels)
    tape.backward(total)
    arrays = {"loss": total.array, "probs": out.probs.array, "features": out.features.array}
    if out.recon_per_example is not None:
        arrays["recon_per_example"] = out.recon_per_example
    for name, t in model.named_tensors():
        arrays[f"grad.{name}"] = t.grad_array
    probs, feats, recon = model.predict_batch(tokens, chunk=3, reconstruct=True)
    arrays["predict.probs"], arrays["predict.features"] = probs, feats
    if recon is not None:
        arrays["predict.recon_per_example"] = recon
    return {f"{kind}.{k}": np.array(v) for k, v in arrays.items()}


class TestFullLengthBitwise:
    """On comments with no pads, packing changes nothing: outputs and gradients are bitwise
    those of the unpacked implementation (commit 826dd58), recorded as SHA-256 digests of
    ``full_length_arrays`` in ``fixtures/full_length_parent.json``."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_as_the_unpacked_models(self, kind):
        want = json.loads((FIXTURES / "full_length_parent.json").read_text())
        got = {key: hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()
               + f":{list(a.shape)}" for key, a in full_length_arrays(kind).items()}
        assert sorted(got) == sorted(k for k in want if k.startswith(kind + "."))
        assert [key for key in sorted(got) if got[key] != want[key]] == []
