"""Skip-gram word embeddings trained with negative sampling.

Gradients here are the analytic ones for the pair objective
``-log sigma(u.v) - sum_j log sigma(-u_j.v)``, applied with plain SGD on a
linearly decaying rate. Negatives are drawn from the unigram
distribution raised to 0.75.

Everything runs in numpy without a per-pair Python loop. The pair builder
concatenates the sentences into one id array and reads each position's
window as a fixed set of offsets, keeping those that stay inside the
position's sentence; the pairs come out in the order of a loop over
sentences, centres and context positions. A batch update scatters its
gradient rows with ``np.bincount`` over flat ``row * dim + col`` indices:
one scatter into the input embeddings for the centres, one into the
output embeddings for the contexts and negatives together. Rows that
repeat in a batch have their gradients summed before they are applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .optim import LinearDecaySchedule


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class Word2VecModel:
    embed_dim: int
    negatives: int
    w_in: np.ndarray  # (vocab, dim) input embeddings; these are "the" vectors
    w_out: np.ndarray  # (vocab, dim) output embeddings
    sampling: np.ndarray  # unigram^0.75 probabilities over the vocab
    padding_idx: int = 0

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int, counts, negatives: int = 5,
             seed: int = 0, padding_idx: int = 0) -> "Word2VecModel":
        if vocab_size < negatives + 1:
            raise ValueError(f"vocab of {vocab_size} too small for {negatives} negative samples")
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (vocab_size,):
            raise ValueError(f"counts shape {counts.shape} does not match vocab {vocab_size}")
        weights = np.power(np.maximum(counts, 0.0), 0.75)
        if weights.sum() <= 0:
            raise ValueError("sampling table needs at least one positive count")
        rng = np.random.default_rng(seed)
        half = 0.5 / embed_dim
        w_in = rng.uniform(-half, half, (vocab_size, embed_dim))
        w_in[padding_idx] = 0.0
        return cls(embed_dim, negatives, w_in, np.zeros((vocab_size, embed_dim)),
                   weights / weights.sum(), padding_idx)

    @property
    def vocab_size(self) -> int:
        return self.w_in.shape[0]


def pair_loss(model: Word2VecModel, center: int, context: int, negatives) -> float:
    """The skip-gram objective for one (center, context) pair and given negatives."""
    v = model.w_in[center]
    pos = float(_sigmoid(model.w_out[context] @ v))
    loss = -np.log(max(pos, 1e-300))
    for j in negatives:
        loss -= np.log(max(float(_sigmoid(-(model.w_out[j] @ v))), 1e-300))
    return float(loss)


def skipgram_pairs(sentences, window: int) -> np.ndarray:
    """(center, context) id pairs for every position and offset within the window.

    ``sentences`` is a sequence of id sequences. Pairs are ordered by
    sentence, then centre position, then context position.
    """
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64,
                      count=int(lengths.sum()))
    ends = np.repeat(np.cumsum(lengths), lengths)  # one past each position's sentence
    starts = ends - np.repeat(lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    context = np.arange(ids.size)[:, None] + offsets  # (positions, 2 * window)
    keep = (context >= starts[:, None]) & (context < ends[:, None])
    centers = np.broadcast_to(ids[:, None], context.shape)[keep]
    return np.stack([centers, ids[context[keep]]], axis=1)


def word2vec_train(model: Word2VecModel, sentences, epochs: int = 5, batch_size: int = 128,
                   lr_start: float = 0.025, lr_end: float = 0.001, window: int = 5,
                   seed: int = 0) -> list[float]:
    """Train in place; returns the mean pair loss per epoch.

    The learning rate decays linearly from ``lr_start`` to ``lr_end`` over
    every batch of the whole run.
    """
    pairs = skipgram_pairs(sentences, window)
    if pairs.shape[0] == 0:
        raise ValueError("no skip-gram pairs; corpus sentences are too short")
    batches_per_epoch = (pairs.shape[0] + batch_size - 1) // batch_size
    schedule = LinearDecaySchedule(lr_start, lr_end, max(1, epochs * batches_per_epoch - 1))
    trace = []
    step = 0
    for epoch in range(epochs):
        rng = np.random.default_rng((seed, epoch))
        order = rng.permutation(pairs.shape[0])
        loss_sum = 0.0
        for lo in range(0, order.size, batch_size):
            sel = pairs[order[lo:lo + batch_size]]
            centers, contexts = sel[:, 0], sel[:, 1]
            negs = rng.choice(model.vocab_size, size=(sel.shape[0], model.negatives),
                              p=model.sampling)
            lr = schedule.rate(min(step, schedule.total_steps))
            loss_sum += _batch_update(model, centers, contexts, negs, lr) * sel.shape[0]
            step += 1
        trace.append(loss_sum / pairs.shape[0])
    return trace


def _batch_update(model: Word2VecModel, centers, contexts, negs, lr: float) -> float:
    v = model.w_in[centers]  # (b, d)
    u_pos = model.w_out[contexts]
    u_neg = model.w_out[negs]  # (b, k, d)

    pos_logit = np.einsum("bd,bd->b", v, u_pos)
    neg_logit = np.einsum("bkd,bd->bk", u_neg, v)
    s_pos = _sigmoid(pos_logit)
    s_neg = _sigmoid(neg_logit)

    g_pos = s_pos - 1.0  # d(loss)/d(pos_logit)
    g_neg = s_neg  # d(loss)/d(neg_logit)

    grad_v = g_pos[:, None] * u_pos + np.einsum("bk,bkd->bd", g_neg, u_neg)
    grad_u_pos = g_pos[:, None] * v
    grad_u_neg = g_neg[:, :, None] * v[:, None, :]

    _scatter_add(model.w_in, centers, -lr * grad_v)
    _scatter_add(model.w_out, np.concatenate([contexts, negs.reshape(-1)]),
                 -lr * np.concatenate([grad_u_pos, grad_u_neg.reshape(-1, model.embed_dim)]))
    model.w_in[model.padding_idx] = 0.0
    model.w_out[model.padding_idx] = 0.0

    loss = -np.log(np.maximum(s_pos, 1e-300)).sum()
    loss -= np.log(np.maximum(1.0 - s_neg, 1e-300)).sum()
    return float(loss / centers.size)


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``table[rows[i]] += values[i]`` for every i, with repeated rows summed first."""
    vocab, dim = table.shape
    flat = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=vocab * dim)
    table += sums.reshape(vocab, dim)


def word2vec_features(model: Word2VecModel, token_ids) -> np.ndarray:
    """Mean input embedding over non-padding tokens; all-padding input gives zeros.

    Ids are sorted before pooling so the floating-point sum is identical for
    any permutation of the same tokens.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    ids = np.sort(ids[ids != model.padding_idx])
    if ids.size == 0:
        return np.zeros(model.embed_dim)
    return model.w_in[ids].mean(axis=0)


def cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))
