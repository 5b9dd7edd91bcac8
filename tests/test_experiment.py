"""Training orchestration: one tokenizer pass per example, and the pooled
word2vec feature matrix."""

import numpy as np
import pytest

from tlanet import checkpoint as CK
from tlanet import config as C
from tlanet import experiment as E
from tlanet import models as M
from tlanet import text as TXT
from tlanet import word2vec as W2V
from tlanet import wisdomnet as W
from tlanet.synthetic import builtin_dataset_path


def train_config(tmp_path, model):
    return C.config_from_dict({
        "schema_version": 1,
        "model": model,
        "language": "english",
        "datasets": {"english": {"train": "builtin:synthetic-train"}},
        "classifier": {"max_vocab": 200, "min_freq": 1, "embed_dim": 4, "hidden_size": 4,
                       "num_layers": 1, "dropout": 0.0, "num_classes": 3, "max_len": 12,
                       "head_hidden": 4},
        "optimizer": {"learning_rate": 0.003, "batch_size": 32, "epochs": 1},
        "word2vec": {"embed_dim": 4, "window": 2, "negatives": 2, "epochs": 1,
                     "batch_size": 64},
        "rejection_head": {"epochs": 5, "learning_rate": 0.1},
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
    })


def spy(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def examples():
    return TXT.load_trac2(builtin_dataset_path("synthetic-train")).examples


class TestTokenizeOnce:
    @pytest.mark.parametrize("model", ["word2vec-features", "lstm"])
    def test_one_tokenize_call_per_example(self, tmp_path, monkeypatch, model):
        calls = spy(monkeypatch, TXT, "tokenize")
        E.run_train(train_config(tmp_path, model))
        assert len(calls) == len(examples())

    @pytest.mark.parametrize("model", ["word2vec-features", "lstm"])
    def test_vocab_ids_and_labels_as_build_vocab_and_encode_dataset(self, tmp_path,
                                                                    monkeypatch, model):
        exs = examples()
        vocab = TXT.build_vocab((TXT.tokenize(ex.text) for ex in exs), 200, 1)
        tokens, labels = TXT.encode_dataset(vocab, exs, 12)
        heads = spy(monkeypatch, W, "fit_rejection_head")
        fits = spy(monkeypatch, M, "fit")
        features = spy(monkeypatch, E, "_w2v_feature_matrix")
        trains = spy(monkeypatch, W2V, "word2vec_train")
        E.run_train(train_config(tmp_path, model))

        assert np.array_equal(heads[0][0][1], labels)
        if model == "lstm":
            seen_tokens, seen_labels = fits[0][0][2], fits[0][0][3]
            assert np.array_equal(seen_labels, labels)
        else:
            seen_tokens = features[0][0][1]
            sentences = [ids for ids in (vocab.encode(TXT.tokenize(ex.text)) for ex in exs)
                         if len(ids) >= 2]
            assert trains[0][0][1] == sentences
        assert seen_tokens.dtype == tokens.dtype and np.array_equal(seen_tokens, tokens)
        saved = CK.load_checkpoint(tmp_path / "run" / E.CHECKPOINT_FILE)
        assert saved.vocab.id_to_token == vocab.id_to_token
        assert saved.vocab.counts == vocab.counts


class TestFeatureMatrix:
    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_bitwise_equal_to_stacked_word2vec_features(self, dim):
        rng = np.random.default_rng(dim)
        vocab = 40
        counts = np.ones(vocab)
        model = W2V.Word2VecModel.init(vocab, dim, counts, negatives=2, seed=dim)
        # magnitudes spread over six decades make any change of summation order show
        model.w_in[1:] *= 10.0 ** rng.uniform(-3, 3, (vocab - 1, 1))
        tokens = rng.integers(0, vocab, (300, 12))  # unsorted, with repeats
        tokens[rng.random(tokens.shape) < 0.3] = model.padding_idx
        tokens[:4] = model.padding_idx  # all-pad rows
        tokens[4, :] = 7  # one id, twelve times
        got = E._w2v_feature_matrix(model, tokens)
        expected = np.stack([W2V.word2vec_features(model, row) for row in tokens])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_padding_id_other_than_zero(self):
        model = W2V.Word2VecModel.init(10, 3, np.ones(10), negatives=2, seed=1, padding_idx=4)
        model.w_in[0] = [1.0, -2.0, 0.5]
        tokens = np.array([[4, 0, 9, 4], [4, 4, 4, 4], [0, 1, 2, 3]])
        got = E._w2v_feature_matrix(model, tokens)
        expected = np.stack([W2V.word2vec_features(model, row) for row in tokens])
        assert got.tobytes() == expected.tobytes()
