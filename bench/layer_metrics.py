"""Per-layer metrics of a traced run, derived from its spans.

A step is one ``models.train_step`` span; a request is one
``bench.classify`` span; a round is one traced round of the workload. A
metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable

LAYERS = ("tensor", "layers", "models", "optim", "wisdomnet", "text", "checkpoint",
          "augment", "word2vec", "experiment")

# (name, unit); each is measured in the traced run only.
METRICS = [
    ("tensor.records_per_step", "count"),
    ("tensor.backward_ms_per_step", "ms"),
    ("tensor.tape_peak_mb", "MB"),
    ("tensor.op_calls_per_classify", "count"),
    ("layers.lstm_forward_ms_per_step", "ms"),
    ("layers.dense_forward_ms_per_step", "ms"),
    ("layers.embedding_lookup_ms_per_step", "ms"),
    ("layers.lstm_forward_ms_per_classify", "ms"),
    ("models.train_step_ms", "ms"),
    ("models.forward_ms_per_step", "ms"),
    ("models.meta_learner_calls_per_step", "count"),
    ("models.meta_learner_ms_per_step", "ms"),
    ("models.predict_batch_ms_per_1k", "ms"),
    ("optim.adam_step_ms", "ms"),
    ("wisdomnet.fit_head_s", "s"),
    ("wisdomnet.classify_batch_ms", "ms"),
    ("text.tokenize_calls_per_example", "count"),
    ("text.tokenize_s", "s"),
    ("text.encode_dataset_s", "s"),
    ("text.load_trac2_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.mb", "MB"),
    ("augment.noise_augment_s", "s"),
    ("augment.translate_augment_s", "s"),
    ("augment.build_semi_noisy_s", "s"),
    ("word2vec.train_s", "s"),
    ("word2vec.skipgram_pairs_s", "s"),
    ("word2vec.features_s", "s"),
    ("word2vec.pairs_per_s", "pairs/s"),
    ("experiment.run_train_self_s", "s"),
    ("experiment.run_evaluate_self_s", "s"),
    ("experiment.run_augment_self_s", "s"),
] + [(f"{layer}.self_s_per_round", "s") for layer in LAYERS]


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def derive(table: SpanTable, rounds: int, job_examples: int, extras: dict[str, float],
           w2v_pairs: int = 0) -> dict[str, float]:
    """Every metric of ``METRICS`` from the spans of ``rounds`` traced rounds.

    ``w2v_pairs`` is the number of skip-gram pairs one ``word2vec_train``
    call trains on (pairs per epoch times epochs).
    """
    step = table.mask(kind="models.train_step")
    request = table.mask(kind="bench.classify")
    job = table.mask(kind="bench.job")
    steps = int(table.mask(names=["models.train_step"]).sum())
    requests = int(table.mask(names=["bench.classify"]).sum())

    def spans(**kw) -> np.ndarray:
        return table.mask(**kw)

    def total(mask, of=None) -> float:
        return float((table.duration if of is None else of)[mask].sum())

    def mean(mask) -> float:
        return float(table.duration[mask].mean()) if mask.any() else 0.0

    backward = spans(names=["tensor.Tape.backward"]) & step
    predict = spans(names=["models._SequenceModel.predict_batch"]) & ~request
    meta = spans(names=["models.meta_learner_combine"]) & step
    w2v_train = spans(names=["word2vec.word2vec_train"])

    m = {
        "tensor.records_per_step": _ratio(np.nansum(table.size[backward]), steps),
        "tensor.backward_ms_per_step": 1000 * _ratio(total(backward), steps),
        "tensor.op_calls_per_classify": _ratio((spans(module="tensor") & table.entry & request).sum(),
                                                requests),
        "layers.lstm_forward_ms_per_step":
            1000 * _ratio(total(spans(names=["layers.lstm_forward"]) & step), steps),
        "layers.dense_forward_ms_per_step":
            1000 * _ratio(total(spans(names=["layers.dense_forward"]) & step), steps),
        "layers.embedding_lookup_ms_per_step":
            1000 * _ratio(total(spans(names=["layers.embedding_lookup"]) & step), steps),
        "layers.lstm_forward_ms_per_classify":
            1000 * _ratio(total(spans(names=["layers.lstm_forward"]) & request), requests),
        "models.train_step_ms": 1000 * mean(spans(names=["models.train_step"])),
        "models.forward_ms_per_step":
            1000 * _ratio(total(spans(prefix="models.", suffix=".forward_batch") & step), steps),
        "models.meta_learner_calls_per_step": _ratio(meta.sum(), steps),
        "models.meta_learner_ms_per_step": 1000 * _ratio(total(meta), steps),
        "models.predict_batch_ms_per_1k":
            1e6 * _ratio(total(predict), np.nansum(table.size[predict])),
        "optim.adam_step_ms": 1000 * mean(spans(names=["optim.Adam.step"])),
        "wisdomnet.fit_head_s": mean(spans(names=["wisdomnet.fit_rejection_head"])),
        "wisdomnet.classify_batch_ms":
            1000 * mean(spans(names=["wisdomnet.classify_batch"]) & ~request),
        "text.tokenize_calls_per_example":
            _ratio((spans(names=["text.tokenize"]) & job).sum(), rounds * job_examples),
        "text.tokenize_s": _ratio(total(spans(names=["text.tokenize"])), rounds),
        "text.encode_dataset_s": _ratio(total(spans(names=["text.encode_dataset"])), rounds),
        "text.load_trac2_s": _ratio(total(spans(names=["text.load_trac2"])), rounds),
        "checkpoint.save_s": mean(spans(names=["checkpoint.save_checkpoint"])),
        "checkpoint.load_s": mean(spans(names=["checkpoint.load_checkpoint"])),
        "augment.noise_augment_s": _ratio(total(spans(names=["augment.noise_augment"])), rounds),
        "augment.translate_augment_s":
            _ratio(total(spans(names=["augment.translate_augment"])), rounds),
        "augment.build_semi_noisy_s":
            _ratio(total(spans(names=["augment.build_semi_noisy"])), rounds),
        "word2vec.train_s": _ratio(total(w2v_train), rounds),
        "word2vec.skipgram_pairs_s":
            _ratio(total(spans(names=["word2vec.skipgram_pairs"])), rounds),
        "word2vec.features_s": _ratio(total(spans(names=["word2vec.word2vec_features"])), rounds),
        "word2vec.pairs_per_s": _ratio(w2v_pairs * w2v_train.sum(), total(w2v_train)),
    }
    for entry in ("run_train", "run_evaluate", "run_augment"):
        mask = spans(names=[f"experiment.{entry}"])
        m[f"experiment.{entry}_self_s"] = _ratio(total(mask, table.self_time), mask.sum())
    for layer in LAYERS:
        m[f"{layer}.self_s_per_round"] = _ratio(total(spans(module=layer), table.self_time), rounds)
    m.update(extras)
    return {name: float(m[name]) for name, _ in METRICS}


def module_self_times(table: SpanTable, rounds: int) -> dict[str, float]:
    """Self seconds per round of every traced module, the benchmark's own spans included."""
    return {module: _ratio(float(table.self_time[table.mask(module=module)].sum()), rounds)
            for module in sorted(set(table.module))}
