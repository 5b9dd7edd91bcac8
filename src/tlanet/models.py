"""The sequence classifiers: LSTM, BiLSTM, LSTM-autoencoder, and TLA-Net.

TLA-Net runs three stacked LSTM encoders in parallel (each one a stage-1
stack, a repeat vector, and a stage-2 stack), fuses their final states
through an attention meta-learner, mirrors the structure through three
parallel decoders, fuses those stepwise, and reconstructs the embedded
input. Classification reads the fused representation through a small
fully connected network; a rejection head attaches to its penultimate
activations. The decoders serve the training objective and the
reconstruction error, so inference stops at the classifier unless the
reconstruction is asked for.

Token ids arrive batch-first, as an (examples, steps) integer matrix whose
pads (``PAD_ID``) sit on the right. Each comment runs only its real steps,
as torch's ``pack_padded_sequence`` has it: a forward pass orders its rows
longest first, trims them to the longest, and every LSTM layer updates at
step ``t`` only the rows still inside their comment, so a comment's final
state, its decoding and its reconstruction error do not depend on how many
pads follow it. The rows return in the caller's order. Inside, a sequence
is one time-major (steps, examples, width) tensor, each LSTM layer is one
op over the whole sequence, and the row-wise heads (the decoder
meta-learner, the reconstruction layer and its loss) run once over the real
steps' rows, time-major. TLA-Net's
three branches run side by side: each of its four stages (encoder stage 1
and 2, decoder stage 1 and 2) is one op per layer for all three, so a
training pass of a one-layer TLA-Net makes 4 LSTM ops and inference 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import layers as L
from . import optim
from . import tensor as T
from .tensor import ShapeError, Tensor
from .text import PAD_ID

MODEL_KINDS = ("lstm", "bilstm", "lstm-ae", "word2vec-features", "tla-net")

# Classifier options that were removed, each with the value whose behaviour
# is the one left: a stored config that holds that value still loads.
REMOVED_OPTIONS = {"class_tap": "fused", "recon_mode": "mse", "encoder_views": "shared"}


@dataclass
class ClassifierConfig:
    vocab_size: int
    embed_dim: int = 32
    hidden_size: int = 128
    num_layers: int = 3
    dropout: float = 0.2
    num_classes: int = 3
    max_len: int = 128
    seed: int = 0
    head_hidden: int = 32

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.hidden_size < 1 or self.embed_dim < 1 or self.num_layers < 1:
            raise ValueError("hidden_size, embed_dim and num_layers must be >= 1")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class BatchOutput:
    """Graph-side results of one batched forward pass.

    The reconstruction fields stay None for the kinds without a decoder and
    for a pass run with ``reconstruct=False``.
    """

    probs: Tensor  # (batch, classes)
    features: Tensor  # (batch, feature_dim); what a rejection head would read
    recon_loss: Tensor | None = None  # batch-mean reconstruction loss
    recon_per_example: np.ndarray | None = None  # summed over each example's real steps
    # one row per real step, time-major over the rows ordered longest first
    reconstruction: Tensor | None = None


class MetaFusion(NamedTuple):
    fused: Tensor  # (batch, width) combined representation
    attention: Tensor  # (batch, 3) softmax weights
    convex: Tensor  # (batch, width) attention-weighted sum alone


@dataclass
class MetaLearnerParams:
    """Attention scores plus one simple recurrent pass over the scored inputs."""

    score: Tensor  # (1, width) scoring vector
    w_in: Tensor  # (width, width)
    w_rec: Tensor  # (width, width)
    bias: Tensor  # (width,)

    @classmethod
    def init(cls, width: int, rng: np.random.Generator, prefix: str = "meta") -> "MetaLearnerParams":
        bound = 1.0 / np.sqrt(width)
        return cls(
            Tensor(rng.uniform(-bound, bound, (1, width)), requires_grad=True, name=f"{prefix}.score"),
            Tensor(rng.uniform(-bound, bound, (width, width)), requires_grad=True, name=f"{prefix}.w_in"),
            Tensor(rng.uniform(-bound, bound, (width, width)), requires_grad=True, name=f"{prefix}.w_rec"),
            Tensor(np.zeros(width), requires_grad=True, name=f"{prefix}.b"),
        )

    def tensors(self):
        yield self.score
        yield self.w_in
        yield self.w_rec
        yield self.bias


def meta_learner_combine(m: MetaLearnerParams, inputs: list[Tensor]) -> MetaFusion:
    """Fuse exactly three equal-width encodings into one.

    Attention scores are softmaxed into a convex combination; a simple
    recurrent combiner then walks the three inputs in order, seeded by the
    weighted sum, and its final state is the fused output.
    """
    if len(inputs) != 3:
        raise ShapeError(f"meta learner fuses exactly 3 encodings, got {len(inputs)}")
    width = inputs[0].shape[1]
    for e in inputs:
        if len(e.shape) != 2 or e.shape[1] != width:
            raise ShapeError(f"meta learner widths differ: {[x.shape for x in inputs]}")
    scores = T.concat([T.linear(e, m.score) for e in inputs], axis=1)
    attn = T.softmax_rows(scores)
    convex = T.weighted_sum(attn, inputs)
    h = convex
    for e in inputs:
        h = T.tanh(T.add_bias(T.add(T.linear(e, m.w_in), T.linear(h, m.w_rec)), m.bias))
    return MetaFusion(h, attn, convex)


def _check_tokens(tokens) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0 or ids.shape[0] == 0:
        raise ValueError(f"token batch must be a non-empty (examples, steps) matrix, got {ids.shape}")
    return ids


def _check_pass(tokens, training: bool, reconstruct: bool) -> "_Packed":
    if training and not reconstruct:
        raise ValueError("a training pass needs the reconstruction: training=True "
                         "requires reconstruct=True")
    return _Packed(_check_tokens(tokens))


def sequence_lengths(ids: np.ndarray) -> np.ndarray:
    """Each row's length in steps: up to and including its last id that is not ``PAD_ID``.

    A comment with no real token, such as an empty one, has length 1: it
    reads one pad step, whose embedding is zero, and that step is the one
    its reconstruction error covers.
    """
    real = np.asarray(ids) != PAD_ID
    return np.where(real.any(axis=1), real.shape[1] - real[:, ::-1].argmax(axis=1), 1)


class _Packed:
    """A batch as the LSTM layers read it: rows ordered longest first, trimmed to the longest.

    ``lengths`` is None when every row runs all ``steps``; then every
    step of the layers runs on the whole batch.
    """

    def __init__(self, ids: np.ndarray):
        lengths = sequence_lengths(ids)
        self.order = None  # the caller's row of each row here, when they differ
        if (lengths[1:] > lengths[:-1]).any():
            self.order = np.argsort(-lengths, kind="stable")
            ids, lengths = ids[self.order], lengths[self.order]
        self.steps = int(lengths[0])
        self.ids = ids[:, :self.steps]
        self.lengths = None if lengths[-1] == self.steps else lengths
        # where the real steps sit among the (steps * batch) time-major rows
        self.real_rows = None if self.lengths is None else \
            np.flatnonzero(np.arange(self.steps)[:, None] < self.lengths)

    def reversed_ids(self) -> np.ndarray:
        """Each row's ids reversed within its own length, pads still on the right."""
        if self.lengths is None:
            return self.ids[:, ::-1]
        t = np.arange(self.steps)
        last = self.lengths[:, None] - 1
        return np.take_along_axis(self.ids, np.where(t <= last, last - t, t), axis=1)

    def restore(self, x: Tensor) -> Tensor:
        """The rows of a (batch, width) tensor in the caller's order."""
        return x if self.order is None else T.take_rows(x, np.argsort(self.order))


def _in_caller_order(a: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Rows that were taken in ``order`` (row i is the caller's row ``order[i]``), put back."""
    if order is None:
        return a
    out = np.empty_like(a)
    out[order] = a
    return out


class _SequenceModel:
    """Shared plumbing: embedding, batched prediction, parameter listing."""

    kind: str = ""

    def __init__(self, cfg: ClassifierConfig):
        self.cfg = cfg
        self._rng = np.random.default_rng(cfg.seed)
        self.embedding = L.EmbeddingTable.init(cfg.vocab_size, cfg.embed_dim, self._rng)

    # subclasses implement forward_batch() and tensors()

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [(t.name, t) for t in self.tensors()]

    @property
    def feature_dim(self) -> int:
        raise NotImplementedError

    def _embed(self, ids: np.ndarray) -> Tensor:
        """The (steps, batch, embed) sequence of a (batch, steps) id matrix."""
        return L.embedding_lookup(self.embedding, ids.T)

    def _real_step_rows(self, seq: Tensor, packed: _Packed) -> Tensor:
        """The (steps * batch, width) rows of a time-major sequence that are real steps."""
        steps, batch, width = seq.shape
        rows = T.reshape(seq, (steps * batch, width))
        return rows if packed.real_rows is None else T.take_rows(rows, packed.real_rows)

    def _classify(self, features: Tensor) -> tuple[Tensor, Tensor]:
        """Class probabilities, and the features the rejection head reads."""
        return L.dense_forward(self.head.weights, self.head.bias, features, "softmax"), features

    def _reconstruct(self, rows: Tensor, embedded: Tensor,
                     packed: _Packed) -> tuple[Tensor, Tensor, np.ndarray]:
        """Reconstruct every real embedded step from its (hidden,) row, time-major.

        Returns the reconstruction rows, the batch-mean squared error and its
        per-example values, each summed over the example's real steps only.
        """
        recon = L.dense_forward(self.recon.weights, self.recon.bias, rows)
        loss, sq = optim.reconstruction_loss(self._real_step_rows(embedded, packed), recon)
        steps, batch = embedded.shape[0], embedded.shape[1]
        real = packed.real_rows
        if real is None:
            per = sq.reshape(steps, batch, -1).sum(axis=(0, 2))
        else:
            per = np.bincount(real % batch, weights=sq.sum(axis=1), minlength=batch)
        return recon, T.scale(loss, 1.0 / batch), per

    def losses(self, out: BatchOutput, targets, recon_weight: float = 0.5):
        """(total, classification, reconstruction) scalar tensors for a batch."""
        targets = np.asarray(targets, dtype=np.int64)
        class_loss = optim.cce_rows(out.probs, targets)
        if out.recon_loss is None:
            return class_loss, class_loss, None
        total = T.add(class_loss, T.scale(out.recon_loss, float(recon_weight)))
        return total, class_loss, out.recon_loss

    def predict_batch(self, tokens, chunk: int = 256, reconstruct: bool = False):
        """Inference over many examples: (probs, features, recon-per-example) arrays.

        Inference stops at the classifier unless the reconstruction is asked
        for: by default no decoder runs and the third element is None. With
        ``reconstruct=True`` the decoders run too and it holds each example's
        reconstruction error (still None for the kinds without a decoder).
        The probabilities and features are the same bits either way.

        The rows are ordered by length, longest first, before they are cut
        into chunks, so each chunk runs only as many steps as its longest
        comment; the results come back in the caller's order.
        """
        ids = _check_tokens(tokens)
        order = np.argsort(-sequence_lengths(ids), kind="stable")
        probs, feats, recons = [], [], []
        for lo in range(0, ids.shape[0], chunk):
            out = self.forward_batch(ids[order[lo:lo + chunk]], training=False,
                                     reconstruct=reconstruct)
            probs.append(out.probs.array)
            feats.append(out.features.array)
            recons.append(out.recon_per_example)
        return (
            _in_caller_order(np.concatenate(probs, axis=0), order),
            _in_caller_order(np.concatenate(feats, axis=0), order),
            None if recons[0] is None else _in_caller_order(np.concatenate(recons), order),
        )


class LstmClassifier(_SequenceModel):
    """Stacked LSTM; the last step's hidden state feeds a softmax head."""

    kind = "lstm"

    def __init__(self, cfg: ClassifierConfig):
        super().__init__(cfg)
        self.trunk = L.StackedLSTMParams.init(
            cfg.embed_dim, cfg.hidden_size, cfg.num_layers, cfg.dropout, self._rng, prefix="trunk")
        self.head = L.DenseParams.init(cfg.hidden_size, cfg.num_classes, self._rng, prefix="head")

    @property
    def feature_dim(self) -> int:
        return self.cfg.hidden_size

    def tensors(self):
        yield self.embedding.table
        yield from self.trunk.tensors()
        yield from self.head.tensors()

    def forward_batch(self, tokens, training: bool = False,
                      rng: np.random.Generator | None = None,
                      reconstruct: bool = True) -> BatchOutput:
        p = _check_pass(tokens, training, reconstruct)
        [features] = L.lstm_forward([self.trunk], self._embed(p.ids), training, rng, last_only=True,
                                    lengths=p.lengths)
        return BatchOutput(*self._classify(p.restore(features)))


class BiLstmClassifier(_SequenceModel):
    """Forward and backward stacks concatenated per step; last step classifies."""

    kind = "bilstm"

    def __init__(self, cfg: ClassifierConfig):
        super().__init__(cfg)
        self.fwd = L.StackedLSTMParams.init(
            cfg.embed_dim, cfg.hidden_size, cfg.num_layers, cfg.dropout, self._rng, prefix="fwd")
        self.bwd = L.StackedLSTMParams.init(
            cfg.embed_dim, cfg.hidden_size, cfg.num_layers, cfg.dropout, self._rng, prefix="bwd")
        self.head = L.DenseParams.init(2 * cfg.hidden_size, cfg.num_classes, self._rng, prefix="head")

    @property
    def feature_dim(self) -> int:
        return 2 * self.cfg.hidden_size

    def tensors(self):
        yield self.embedding.table
        yield from self.fwd.tensors()
        yield from self.bwd.tensors()
        yield from self.head.tensors()

    def forward_batch(self, tokens, training: bool = False,
                      rng: np.random.Generator | None = None,
                      reconstruct: bool = True) -> BatchOutput:
        p = _check_pass(tokens, training, reconstruct)
        # classify from the final state of each direction: both have read
        # the whole comment; the backward one reads it reversed. The two run
        # side by side, drawing their dropout masks forward stack first.
        fwd, bwd = L.lstm_forward([self.fwd, self.bwd],
                                  [self._embed(p.ids), self._embed(p.reversed_ids())],
                                  training, rng, last_only=True, lengths=p.lengths)
        return BatchOutput(*self._classify(p.restore(T.concat([fwd, bwd], axis=1))))


class LstmAutoencoder(_SequenceModel):
    """Encode, repeat the final state, decode, reconstruct each embedded step."""

    kind = "lstm-ae"

    def __init__(self, cfg: ClassifierConfig):
        super().__init__(cfg)
        self.encoder = L.StackedLSTMParams.init(
            cfg.embed_dim, cfg.hidden_size, cfg.num_layers, cfg.dropout, self._rng, prefix="enc")
        self.decoder = L.StackedLSTMParams.init(
            cfg.hidden_size, cfg.hidden_size, cfg.num_layers, cfg.dropout, self._rng, prefix="dec")
        self.recon = L.DenseParams.init(cfg.hidden_size, cfg.embed_dim, self._rng, prefix="recon")
        self.head = L.DenseParams.init(cfg.hidden_size, cfg.num_classes, self._rng, prefix="head")

    @property
    def feature_dim(self) -> int:
        return self.cfg.hidden_size

    def tensors(self):
        yield self.embedding.table
        yield from self.encoder.tensors()
        yield from self.decoder.tensors()
        yield from self.recon.tensors()
        yield from self.head.tensors()

    def forward_batch(self, tokens, training: bool = False,
                      rng: np.random.Generator | None = None,
                      reconstruct: bool = True) -> BatchOutput:
        p = _check_pass(tokens, training, reconstruct)
        seq = self._embed(p.ids)
        [encoded] = L.lstm_forward([self.encoder], seq, training, rng, last_only=True,
                                   lengths=p.lengths)
        if not reconstruct:
            return BatchOutput(*self._classify(p.restore(encoded)))
        [decoded] = L.lstm_forward([self.decoder], encoded, training, rng, steps=p.steps,
                                   lengths=p.lengths)
        recon, recon_loss, per = self._reconstruct(self._real_step_rows(decoded, p), seq, p)
        return BatchOutput(*self._classify(p.restore(encoded)), recon_loss,
                           _in_caller_order(per, p.order), recon)


class TlaNet(_SequenceModel):
    """Three parallel two-stage encoders, meta-learner fusion, mirrored decoders,
    reconstruction, and a classification network whose penultimate layer feeds
    the rejection head."""

    kind = "tla-net"

    def __init__(self, cfg: ClassifierConfig):
        super().__init__(cfg)
        h = cfg.hidden_size
        self.enc_stage1 = []
        self.enc_stage2 = []
        self.dec_stage1 = []
        self.dec_stage2 = []
        for k in range(3):
            self.enc_stage1.append(L.StackedLSTMParams.init(
                cfg.embed_dim, h, cfg.num_layers, cfg.dropout, self._rng, prefix=f"enc{k}.s1"))
            self.enc_stage2.append(L.StackedLSTMParams.init(
                h, h, cfg.num_layers, cfg.dropout, self._rng, prefix=f"enc{k}.s2"))
        self.enc_meta = MetaLearnerParams.init(h, self._rng, prefix="enc_meta")
        for k in range(3):
            self.dec_stage1.append(L.StackedLSTMParams.init(
                h, h, cfg.num_layers, cfg.dropout, self._rng, prefix=f"dec{k}.s1"))
            self.dec_stage2.append(L.StackedLSTMParams.init(
                h, h, cfg.num_layers, cfg.dropout, self._rng, prefix=f"dec{k}.s2"))
        self.dec_meta = MetaLearnerParams.init(h, self._rng, prefix="dec_meta")
        self.recon = L.DenseParams.init(h, cfg.embed_dim, self._rng, prefix="recon")
        self.class_hidden = L.DenseParams.init(h, cfg.head_hidden, self._rng, prefix="class.hidden")
        self.class_out = L.DenseParams.init(cfg.head_hidden, cfg.num_classes, self._rng,
                                            prefix="class.out")

    @property
    def feature_dim(self) -> int:
        return self.cfg.head_hidden

    def tensors(self):
        yield self.embedding.table
        for stack in (*self.enc_stage1, *self.enc_stage2):
            yield from stack.tensors()
        yield from self.enc_meta.tensors()
        for stack in (*self.dec_stage1, *self.dec_stage2):
            yield from stack.tensors()
        yield from self.dec_meta.tensors()
        yield from self.recon.tensors()
        yield from self.class_hidden.tensors()
        yield from self.class_out.tensors()

    def _dropout_draws(self, training, rng, steps: int, batch: int):
        """The uniform draws behind the dropout masks of both stages of three
        branches, (3, layers - 1, steps, batch, hidden) per stage, or None.

        They are drawn as one block, branch by branch and stage 1 before
        stage 2: the order in which running each branch's stages one after
        the other draws them.
        """
        cfg = self.cfg
        if not training or cfg.dropout == 0.0 or cfg.num_layers == 1 or rng is None:
            return None, None
        u = rng.random((3, 2, cfg.num_layers - 1, steps, batch, cfg.hidden_size))
        return u[:, 0], u[:, 1]

    def _encode(self, seq: Tensor, training, rng, lengths: np.ndarray | None = None) -> list[Tensor]:
        """The three encodings: every stage 1 reads the sequence, and each stage 2
        reads its own stage 1's final state at every step of the row's length."""
        steps = seq.shape[0]
        draws1, draws2 = self._dropout_draws(training, rng, steps, seq.shape[1])
        s1 = L.lstm_forward(self.enc_stage1, seq, training, rng, last_only=True, draws=draws1,
                            lengths=lengths)
        return L.lstm_forward(self.enc_stage2, s1, training, rng, steps=steps, last_only=True,
                              draws=draws2, lengths=lengths)

    def _decode(self, fused: Tensor, packed: _Packed, training, rng) -> list[Tensor]:
        """Both stages of the three decoders read a repeat vector for each row's
        length; returns each stage 2's rows of the real steps."""
        steps = packed.steps
        draws1, draws2 = self._dropout_draws(training, rng, steps, fused.shape[0])
        d1 = L.lstm_forward(self.dec_stage1, fused, training, rng, steps=steps, last_only=True,
                            draws=draws1, lengths=packed.lengths)
        d2 = L.lstm_forward(self.dec_stage2, d1, training, rng, steps=steps, draws=draws2,
                            lengths=packed.lengths)
        return [self._real_step_rows(d, packed) for d in d2]

    def _classify(self, fused: Tensor) -> tuple[Tensor, Tensor]:
        """Class probabilities, and the penultimate activations the rejection head reads."""
        hidden_act = L.dense_forward(self.class_hidden.weights, self.class_hidden.bias,
                                     fused, "relu")
        probs = L.dense_forward(self.class_out.weights, self.class_out.bias, hidden_act, "softmax")
        return probs, hidden_act

    def forward_batch(self, tokens, training: bool = False,
                      rng: np.random.Generator | None = None,
                      reconstruct: bool = True) -> BatchOutput:
        p = _check_pass(tokens, training, reconstruct)
        seq = self._embed(p.ids)

        fusion = meta_learner_combine(self.enc_meta, self._encode(seq, training, rng, p.lengths))
        if not reconstruct:
            return BatchOutput(*self._classify(p.restore(fusion.fused)))

        decoded = self._decode(fusion.fused, p, training, rng)
        fused_rows = meta_learner_combine(self.dec_meta, decoded).fused
        recon, recon_loss, per = self._reconstruct(fused_rows, seq, p)
        # the head is recorded after the decoders, which fixes the order in
        # which the tape sums fusion.fused's adjoints
        return BatchOutput(*self._classify(p.restore(fusion.fused)), recon_loss,
                           _in_caller_order(per, p.order), recon)


def build_model(kind: str, cfg: ClassifierConfig) -> _SequenceModel:
    table = {
        "lstm": LstmClassifier,
        "bilstm": BiLstmClassifier,
        "lstm-ae": LstmAutoencoder,
        "tla-net": TlaNet,
    }
    if kind not in table:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(table)}")
    return table[kind](cfg)


def train_step(model: _SequenceModel, optimizer, tokens, labels,
               recon_weight: float = 0.5, rng: np.random.Generator | None = None,
               step_index: int = 0) -> tuple[float, float]:
    """One optimizer update on a batch; returns (classification, reconstruction) losses."""
    optimizer.zero_grad()
    with T.Tape() as tape:
        out = model.forward_batch(tokens, training=True, rng=rng)
        total, class_loss, recon = model.losses(out, labels, recon_weight)
    total_val = total.item()
    if not np.isfinite(total_val):
        raise optim.TrainingDivergence("training loss is not finite", step=step_index)
    tape.backward(total)
    optimizer.step()
    return class_loss.item(), recon.item() if recon is not None else 0.0


# fit sorts each pool of this many batches by length before cutting them
SORT_POOL_BATCHES = 4


def fit(model: _SequenceModel, optimizer, tokens, labels, epochs: int, batch_size: int,
        recon_weight: float = 0.5, seed: int = 0, start_epoch: int = 0,
        on_epoch=None) -> list[list[float]]:
    """Epoch loop over shuffled, length-bucketed batches; returns [classification,
    reconstruction] per epoch.

    Each epoch permutes the examples, splits the permutation into pools of
    ``SORT_POOL_BATCHES`` batches, sorts each pool stably by comment
    length, longest first, and cuts the batches in that order. A batch runs
    as many steps as its longest comment (``forward_batch``), so comments
    of like length share batches and run few pad steps; a corpus whose
    comments all have one length keeps the permutation's batches. The
    permutation and dropout draw from a generator derived from (seed,
    epoch), so a resumed run replays exactly the same stream as an
    uninterrupted one.
    """
    ids = _check_tokens(tokens)
    y = np.asarray(labels, dtype=np.int64)
    lengths = sequence_lengths(ids)
    pool = SORT_POOL_BATCHES * batch_size
    trace: list[list[float]] = []
    step = start_epoch * max(1, (ids.shape[0] + batch_size - 1) // batch_size)
    for epoch in range(start_epoch, start_epoch + epochs):
        rng = np.random.default_rng((seed, epoch))
        order = rng.permutation(ids.shape[0])
        for lo in range(0, order.size, pool):
            part = order[lo:lo + pool]
            part[:] = part[np.argsort(-lengths[part], kind="stable")]
        class_sum = recon_sum = 0.0
        for lo in range(0, order.size, batch_size):
            sel = order[lo:lo + batch_size]
            step += 1
            cl, rl = train_step(model, optimizer, ids[sel], y[sel], recon_weight, rng, step)
            class_sum += cl * sel.size
            recon_sum += rl * sel.size
        trace.append([class_sum / order.size, recon_sum / order.size])
        if on_epoch is not None:
            on_epoch(epoch, trace[-1])
    return trace
