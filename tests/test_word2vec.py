"""Skip-gram embeddings: pair objective, sampling, pooled features."""

import math

import numpy as np
import pytest

from tlanet import word2vec as W2V


def tiny_model(vocab=12, dim=4, k=3, seed=0):
    counts = np.zeros(vocab)
    counts[2:] = 10.0
    return W2V.Word2VecModel.init(vocab, dim, counts, negatives=k, seed=seed)


class TestPairLoss:
    def test_zero_vectors_give_1_plus_k_ln2(self):
        model = tiny_model(k=5)
        model.w_in[2] = 0.0  # w_out starts at zero already
        loss = W2V.pair_loss(model, 2, 3, [4, 5, 6, 7, 8])
        assert abs(loss - 6.0 * math.log(2.0)) <= 1e-12

    def test_loss_decreases_with_alignment(self):
        model = tiny_model()
        model.w_in[2] = [1.0, 0.0, 0.0, 0.0]
        model.w_out[3] = [1.0, 0.0, 0.0, 0.0]
        aligned = W2V.pair_loss(model, 2, 3, [4, 5, 6])
        model.w_out[3] = [-1.0, 0.0, 0.0, 0.0]
        opposed = W2V.pair_loss(model, 2, 3, [4, 5, 6])
        assert aligned < opposed


class TestInit:
    def test_vocab_too_small_for_negatives(self):
        with pytest.raises(ValueError, match="too small"):
            tiny_model(vocab=4, k=5)

    def test_sampling_is_unigram_three_quarters(self):
        counts = np.array([0.0, 0.0, 16.0, 81.0])
        model = W2V.Word2VecModel.init(4, 2, counts, negatives=2, seed=0)
        expected = np.array([0.0, 0.0, 8.0, 27.0])
        assert np.allclose(model.sampling, expected / expected.sum(), atol=1e-15)

    def test_padding_row_zero(self):
        model = tiny_model()
        assert np.all(model.w_in[0] == 0.0)


class TestPairs:
    def test_window_enumeration(self):
        pairs = W2V.skipgram_pairs([[5, 6, 7]], window=1)
        expected = {(5, 6), (6, 5), (6, 7), (7, 6)}
        assert set(map(tuple, pairs)) == expected

    @staticmethod
    def nested_loop_pairs(sentences, window):
        pairs = []
        for sent in sentences:
            n = len(sent)
            for i, center in enumerate(sent):
                for j in range(max(0, i - window), min(n, i + window + 1)):
                    if j != i:
                        pairs.append((center, sent[j]))
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_matches_nested_loop_in_order(self, window):
        rng = np.random.default_rng(window)
        # lengths 0-9 include sentences shorter than the window on both sides
        sentences = [[int(t) for t in rng.integers(1, 50, rng.integers(0, 10))]
                     for _ in range(200)]
        got = W2V.skipgram_pairs(sentences, window)
        expected = self.nested_loop_pairs(sentences, window)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_no_sentences_and_empty_sentences(self):
        assert W2V.skipgram_pairs([], 2).shape == (0, 2)
        assert W2V.skipgram_pairs([[], [4], []], 2).shape == (0, 2)

    def test_empty_corpus_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="pairs"):
            W2V.word2vec_train(model, [[3]], epochs=1)


def add_at_update(model, centers, contexts, negs, lr):
    """The batch update with one ``np.add.at`` per scatter: the reference for the
    ``np.bincount`` scatters, which sum repeated rows in another order."""
    v = model.w_in[centers]
    u_pos = model.w_out[contexts]
    u_neg = model.w_out[negs]
    s_pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", v, u_pos)))
    s_neg = 1.0 / (1.0 + np.exp(-np.einsum("bkd,bd->bk", u_neg, v)))
    g_pos = s_pos - 1.0
    grad_v = g_pos[:, None] * u_pos + np.einsum("bk,bkd->bd", s_neg, u_neg)
    grad_u_pos = g_pos[:, None] * v
    grad_u_neg = s_neg[:, :, None] * v[:, None, :]
    np.add.at(model.w_in, centers, -lr * grad_v)
    np.add.at(model.w_out, contexts, -lr * grad_u_pos)
    np.add.at(model.w_out, negs.reshape(-1), -lr * grad_u_neg.reshape(-1, model.embed_dim))
    model.w_in[model.padding_idx] = 0.0
    model.w_out[model.padding_idx] = 0.0


class TestScatter:
    def test_bincount_scatter_matches_add_at(self):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(9, 5))
        rows = np.array([0, 3, 3, 8, 0, 3, 1, 8, 8, 8])  # repeats, and 0 is the padding row
        values = rng.normal(size=(rows.size, 5))
        expected = table.copy()
        np.add.at(expected, rows, values)
        W2V._scatter_add(table, rows, values)
        assert np.max(np.abs(table - expected)) <= 1e-12

    def test_batch_update_matches_add_at_reference(self):
        rng = np.random.default_rng(9)
        model = tiny_model(vocab=12, dim=4, k=3, seed=2)
        model.w_out[1:] = rng.normal(scale=0.3, size=(11, 4))
        reference = tiny_model(vocab=12, dim=4, k=3, seed=2)
        reference.w_out[:] = model.w_out
        for _ in range(20):
            centers = rng.integers(0, 12, 16)  # repeats and padding ids
            contexts = rng.integers(0, 12, 16)
            negs = rng.integers(0, 12, (16, 3))
            W2V._batch_update(model, centers, contexts, negs, 0.05)
            add_at_update(reference, centers, contexts, negs, 0.05)
        assert np.max(np.abs(model.w_in - reference.w_in)) <= 1e-12
        assert np.max(np.abs(model.w_out - reference.w_out)) <= 1e-12
        assert not model.w_in[0].any() and not model.w_out[0].any()


class TestTraining:
    def corpus(self, rng):
        sentences = []
        for _ in range(80):
            sentences.append(list(rng.choice(range(2, 7), 6)))
            sentences.append(list(rng.choice(range(7, 12), 6)))
        return sentences

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        sentences = self.corpus(rng)

        def run():
            model = tiny_model(seed=4)
            W2V.word2vec_train(model, sentences, epochs=2, batch_size=32, seed=4)
            return model.w_in.copy()

        assert np.array_equal(run(), run())

    def test_cosine_self_is_one(self):
        rng = np.random.default_rng(2)
        model = tiny_model(seed=5)
        W2V.word2vec_train(model, self.corpus(rng), epochs=2, batch_size=32, seed=5)
        for idx in (2, 5, 9):
            assert math.isclose(W2V.cosine(model.w_in[idx], model.w_in[idx]), 1.0,
                                rel_tol=1e-12)

    def test_loss_trace_improves(self):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=6)
        trace = W2V.word2vec_train(model, self.corpus(rng), epochs=4, batch_size=64, seed=6)
        assert trace[-1] < trace[0]


class TestFeatures:
    def test_single_token_is_its_embedding(self):
        model = tiny_model()
        model.w_in[3] = [1.0, 2.0, 3.0, 4.0]
        assert np.array_equal(W2V.word2vec_features(model, [3]), [1.0, 2.0, 3.0, 4.0])

    def test_permutation_invariant(self):
        model = tiny_model(seed=7)
        ids = [2, 5, 9, 11, 5]
        a = W2V.word2vec_features(model, ids)
        b = W2V.word2vec_features(model, list(reversed(ids)))
        assert np.array_equal(a, b)

    def test_mean_of_two_known_vectors(self):
        model = tiny_model()
        model.w_in[4] = [2.0, 0.0, 0.0, 0.0]
        model.w_in[5] = [0.0, 4.0, 0.0, 0.0]
        assert np.array_equal(W2V.word2vec_features(model, [4, 5]),
                              [1.0, 2.0, 0.0, 0.0])

    def test_padding_excluded_and_all_padding_zero(self):
        model = tiny_model()
        model.w_in[6] = [1.0, 1.0, 1.0, 1.0]
        assert np.array_equal(W2V.word2vec_features(model, [0, 6, 0]),
                              [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(W2V.word2vec_features(model, [0, 0]), np.zeros(4))

    def test_cosine_zero_vector_defined(self):
        assert W2V.cosine(np.zeros(3), [1.0, 0.0, 0.0]) == 0.0
