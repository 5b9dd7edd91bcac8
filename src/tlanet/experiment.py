"""Orchestration behind the CLI: training runs, evaluation, and corpus building.

Every run is deterministic given (config, seed, inputs): parameter init,
batch shuffling, dropout, and augmentation all draw from generators
derived from the config seed. Output files are written to a temp path and
renamed, so a failed command never leaves partial artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from . import augment as A
from . import checkpoint as ckpt
from . import metrics as MET
from . import models as M
from . import optim
from . import text as TXT
from . import wisdomnet as W
from . import word2vec as W2V
from .config import ConfigError, ExperimentConfig, resolve_dataset_path

CHECKPOINT_FILE = "checkpoint.tlac"
MANIFEST_FILE = "manifest.json"
TRACE_FILE = "loss_trace.json"


def _atomic_text(path, content: str) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)
    os.replace(tmp, str(path))


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _classifier_config(cfg: ExperimentConfig, vocab_size: int) -> M.ClassifierConfig:
    c = cfg.classifier
    return M.ClassifierConfig(
        vocab_size=vocab_size, embed_dim=c.embed_dim, hidden_size=c.hidden_size,
        num_layers=c.num_layers, dropout=c.dropout, num_classes=c.num_classes,
        max_len=c.max_len, seed=cfg.seed, head_hidden=c.head_hidden,
    )


def _w2v_feature_matrix(model: W2V.Word2VecModel, tokens: np.ndarray) -> np.ndarray:
    """``word2vec_features`` of every row.

    Each row's non-padding ids are summed in ascending order, one column at a
    time, then divided by their count: the additions of ``word2vec_features``'s
    mean, in its order, so the rows are bitwise equal to it for embed_dim >= 2
    (at embed_dim 1 numpy's mean sums pairwise, and the last bits can differ).
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    pad = tokens == model.padding_idx
    # padding sorts after every real id, so row r's ids fill its first counts[r] columns
    ids = np.sort(np.where(pad, model.vocab_size, tokens), axis=1)
    counts = tokens.shape[1] - pad.sum(axis=1)
    ids[ids == model.vocab_size] = model.padding_idx
    total = model.w_in[ids[:, 0]]
    total[counts == 0] = 0.0
    for j in range(1, tokens.shape[1]):
        np.add(total, model.w_in[ids[:, j]], out=total, where=(j < counts)[:, None])
    return np.divide(total, counts[:, None], out=total, where=counts[:, None] > 0)


def _features_and_probs(bundle: ckpt.CheckpointBundle, tokens: np.ndarray):
    if bundle.kind == "word2vec-features":
        feats = _w2v_feature_matrix(bundle.model, tokens)
        probs = bundle.head.probabilities(feats)
        return feats, probs, None
    # report.json carries the mean reconstruction error, so the decoders run here
    probs, feats, recon = bundle.model.predict_batch(tokens, reconstruct=True)
    return feats, probs, recon


def _reconstruction_error_per_class(recon: np.ndarray | None, tokens: np.ndarray,
                                    labels: np.ndarray, num_classes: int) -> dict | None:
    """Each class's reconstruction error per real step, by label: the summed
    errors of its examples over the summed lengths; None for a class with no
    example, and no table for a model without a decoder."""
    if recon is None:
        return None
    steps = M.sequence_lengths(tokens)
    table = {}
    for c, name in enumerate(TXT.LABELS[:num_classes]):
        mine = labels == c
        table[name] = float(recon[mine].sum() / steps[mine].sum()) if mine.any() else None
    return table


def _report_for(head: W.WisdomNetHead, feats: np.ndarray, labels: np.ndarray,
                num_classes: int, theta: float, scheme: str = "weighted") -> MET.EvalReport:
    decisions = W.classify_batch(head, feats, theta=theta)
    cm = MET.confusion(decisions, labels, num_classes)
    return MET.aggregate(cm, scheme, class_names=TXT.LABELS[:num_classes])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def run_train(cfg: ExperimentConfig, resume: str | None = None) -> dict:
    started = time.perf_counter()
    cfg.validate_train_inputs()
    train_path = cfg.train_path()
    split = TXT.load_trac2(train_path, language=cfg.language)
    if not split.examples:
        raise ConfigError(f"datasets.{cfg.language}.train", f"no examples in {train_path}")
    token_lists = [TXT.tokenize(ex.text) for ex in split.examples]

    bundle = None
    start_epoch = 0
    if resume is not None:
        bundle = ckpt.load_checkpoint(resume)
        if bundle.kind != cfg.model:
            raise ckpt.ArtifactMismatch(
                f"resume checkpoint holds a {bundle.kind!r} model, config wants {cfg.model!r}")
        if cfg.model == "word2vec-features":
            raise ConfigError("model", "resume is not supported for word2vec-features; retrain")
        vocab = bundle.vocab
        start_epoch = int(bundle.meta["extras"].get("epochs_trained", 0))
        max_len = bundle.config.max_len  # the model was built for this length
    else:
        vocab = TXT.build_vocab(token_lists, cfg.classifier.max_vocab, cfg.classifier.min_freq)
        max_len = cfg.classifier.max_len
    labels = TXT.label_indices(split.examples)

    extras: dict = {}
    extra_arrays: list[tuple[str, np.ndarray]] = []
    if cfg.model == "word2vec-features":
        w = cfg.word2vec
        if vocab.size < w.negatives + 1:
            raise ConfigError("word2vec.negatives",
                              f"vocabulary of {vocab.size} is smaller than negatives+1")
        # one encoding per example: word2vec trains on whole sentences, and the
        # pooled features read the first max_len ids
        id_lists = [vocab.encode(tokens) for tokens in token_lists]
        tokens = TXT.pad_id_lists(id_lists, max_len)
        counts = np.array([vocab.count_of(i) for i in range(vocab.size)], dtype=np.float64)
        model = W2V.Word2VecModel.init(vocab.size, w.embed_dim, counts,
                                       negatives=w.negatives, seed=cfg.seed)
        sentences = [ids for ids in id_lists if len(ids) >= 2]
        if not sentences:
            raise ConfigError(f"datasets.{cfg.language}.train",
                              "corpus has no sentences with at least 2 tokens")
        losses = W2V.word2vec_train(model, sentences, epochs=w.epochs, batch_size=w.batch_size,
                                    lr_start=w.lr_start, lr_end=w.lr_end, window=w.window,
                                    seed=cfg.seed)
        trace = [[loss, 0.0] for loss in losses]
        feats = _w2v_feature_matrix(model, tokens)
        epochs_trained = w.epochs
    else:
        tokens = TXT.encode_token_lists(vocab, token_lists, max_len)
        model = bundle.model if bundle is not None else \
            M.build_model(cfg.model, _classifier_config(cfg, vocab.size))
        params = [t for _, t in model.named_tensors()]
        adam = optim.Adam(params, learning_rate=cfg.optimizer.learning_rate)
        if bundle is not None and "adam.m.0" in bundle.arrays:
            # checkpoints without optimizer state resume with fresh moments
            adam.load_state_arrays(bundle.arrays, bundle.meta["extras"].get("adam_t", 0))
        remaining = max(0, cfg.optimizer.epochs - start_epoch)
        trace = M.fit(model, adam, tokens, labels, epochs=remaining,
                      batch_size=cfg.optimizer.batch_size, recon_weight=cfg.recon_weight,
                      seed=cfg.seed, start_epoch=start_epoch)
        epochs_trained = start_epoch + remaining
        extras["adam_t"] = adam.t
        extra_arrays.extend(adam.state_arrays().items())
        _, feats, _ = model.predict_batch(tokens)

    head = W.fit_rejection_head(feats, labels, cfg.classifier.num_classes,
                                epochs=cfg.head.epochs, learning_rate=cfg.head.learning_rate,
                                seed=cfg.seed, threshold=cfg.threshold)
    train_report = _report_for(head, feats, labels, cfg.classifier.num_classes, theta=0.0)

    os.makedirs(cfg.out_dir, exist_ok=True)
    extras["epochs_trained"] = epochs_trained
    checkpoint_path = os.path.join(cfg.out_dir, CHECKPOINT_FILE)
    # on resume the checkpoint keeps describing the model it actually holds
    model_config = bundle.config if bundle is not None else _classifier_config(cfg, vocab.size)
    ckpt.save_checkpoint(checkpoint_path, cfg.model, model_config,
                         vocab, model, head, extras=extras, extra_arrays=extra_arrays)

    snapshot = cfg.snapshot()
    manifest = {
        "schema_version": 1,
        "command": "train",
        "model": cfg.model,
        "config": snapshot,
        "seed": cfg.seed,
        "inputs": {
            "train_dataset": {"path": str(train_path), "sha256": _sha256_file(train_path)},
            "config_sha256": hashlib.sha256(
                json.dumps(snapshot, sort_keys=True).encode()).hexdigest(),
        },
        "epochs_trained": epochs_trained,
        "trace": trace,
        "train_report": train_report.to_dict(),
        "train_accuracy": train_report.accuracy,
        "checkpoint": CHECKPOINT_FILE,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _atomic_text(os.path.join(cfg.out_dir, TRACE_FILE),
                 json.dumps({"trace": trace}, indent=2) + "\n")
    _atomic_text(os.path.join(cfg.out_dir, MANIFEST_FILE),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _load_eval_dataset(path, bundle: ckpt.CheckpointBundle, language: str):
    path = resolve_dataset_path(str(path), "--dataset")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == ckpt.DATASET_MAGIC:
        cache = ckpt.load_dataset_cache(path)
        if cache.vocab_hash != bundle.vocab_hash:
            raise ckpt.ArtifactMismatch(
                f"dataset cache {path} was encoded with vocabulary {cache.vocab_hash[:12]}..., "
                f"checkpoint expects {bundle.vocab_hash[:12]}...")
        return cache.tokens, cache.labels, cache.language
    split = TXT.load_trac2(path, language=language)
    tokens, labels = TXT.encode_dataset(bundle.vocab, split.examples, bundle.config.max_len)
    return tokens, labels, language


def run_evaluate(checkpoint_path, dataset_path, out_dir, theta: float | None = None,
                 language: str = "english", sweep: bool = False,
                 scheme: str = "weighted") -> dict:
    bundle = ckpt.load_checkpoint(checkpoint_path)
    if bundle.head is None:
        raise ckpt.ArtifactMismatch(f"{checkpoint_path} has no rejection head to classify with")
    tokens, labels, language = _load_eval_dataset(dataset_path, bundle, language)
    theta = bundle.head.threshold if theta is None else float(theta)
    feats, probs, recon = _features_and_probs(bundle, tokens)
    report = _report_for(bundle.head, feats, labels, bundle.config.num_classes, theta, scheme)

    os.makedirs(out_dir, exist_ok=True)
    table = {(bundle.kind, language): report}
    _atomic_text(os.path.join(out_dir, "report.txt"), MET.emit_results_table(table, "text"))
    _atomic_text(os.path.join(out_dir, "report.csv"), MET.emit_results_table(table, "csv"))
    payload = {
        "model": bundle.kind,
        "language": language,
        "theta": theta,
        "dataset": str(dataset_path),
        "report": report.to_dict(),
        "mean_reconstruction_loss": float(np.mean(recon)) if recon is not None else None,
        "reconstruction_error_per_class": _reconstruction_error_per_class(
            recon, tokens, labels, bundle.config.num_classes),
    }
    if sweep:
        grid = [round(0.05 * i, 2) for i in range(21)]
        points = W.threshold_sweep(bundle.head, feats, labels, grid)
        payload["threshold_sweep"] = [
            {"theta": t, "coverage": c, "accuracy": a} for t, c, a in points]
        lines = ["theta,coverage,accuracy"]
        lines += [f"{t},{repr(c)},{repr(a)}" for t, c, a in points]
        _atomic_text(os.path.join(out_dir, "threshold_sweep.csv"), "\n".join(lines) + "\n")
    _atomic_text(os.path.join(out_dir, "report.json"),
                 json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _build_translator(cfg: ExperimentConfig):
    t = cfg.augmentation.translator
    if t.kind == "mock":
        if t.mapping_path:
            return A.OfflineMockTranslator.from_json(t.mapping_path)
        return A.OfflineMockTranslator()
    if not t.url:
        raise ConfigError("augmentation.translator.url",
                          "required for the http translator (or set TLA_TRANSLATE_URL)")
    return A.HttpTranslator(t.url, api_key=t.api_key, max_retries=t.max_retries)


def _noise_pool(raw_train: dict[str, TXT.DatasetSplit], targets: A.AugmentationTargets,
                cfg: ExperimentConfig) -> list[TXT.LabeledExample]:
    pool: list[TXT.LabeledExample] = []
    for li, lang in enumerate(sorted(raw_train)):
        split = raw_train[lang]
        per_class = targets.added.get(lang, {})
        for ci, label in enumerate(TXT.LABELS):
            need = per_class.get(label, 0)
            if need <= 0:
                continue
            source = [ex for ex in split.examples if ex.label == label]
            if not source:
                raise A.AugmentationError(
                    f"cannot augment {lang}/{label}: no raw examples of that class")
            made = 0
            rounds = 0
            while made < need:
                spec = A.NoiseSpec(cfg.augmentation.noise_probability,
                                   cfg.augmentation.noise_operations,
                                   seed=_derived_seed(cfg.seed, li, ci, rounds))
                pool.extend(A.noise_augment(source, spec, suffix=f"#n{rounds}"))
                made += len(source)
                rounds += 1
    return pool


def run_augment(cfg: ExperimentConfig, jobs: int = 1) -> dict:
    cfg.validate_augment_inputs()
    raw_train, raw_test = {}, {}
    for lang, per_split in cfg.augmentation.raw.items():
        raw_train[lang] = TXT.load_trac2(
            resolve_dataset_path(per_split["train"], f"augmentation.raw.{lang}.train"), language=lang)
        raw_test[lang] = TXT.load_trac2(
            resolve_dataset_path(per_split["test"], f"augmentation.raw.{lang}.test"), language=lang)

    os.makedirs(cfg.out_dir, exist_ok=True)
    report = A.ReconciliationReport()
    written: list[str] = []

    if "semi-noisy" in cfg.augmentation.build:
        reference = A.AugmentationTargets.reference()
        targets = A.AugmentationTargets(
            {lang: reference.added.get(lang, {label: 0 for label in TXT.LABELS})
             for lang in raw_train})
        pool = _noise_pool(raw_train, targets, cfg)
        combined = A.build_semi_noisy(raw_train, pool, targets)
        A.reconcile_semi_noisy(combined, targets, report)
        for lang in sorted(combined):
            train_file = os.path.join(cfg.out_dir, f"semi_noisy_{lang}_train.csv")
            test_file = os.path.join(cfg.out_dir, f"semi_noisy_{lang}_test.csv")
            TXT.write_corpus(train_file, combined[lang].examples)
            TXT.write_corpus(test_file, raw_test[lang].examples)
            written.extend([train_file, test_file])

    if "fully-translated" in cfg.augmentation.build:
        for needed in ("bangla", "hindi"):
            if needed not in raw_train:
                raise ConfigError(f"augmentation.raw.{needed}",
                                  "required to build the fully translated corpus")
        client = _build_translator(cfg)
        translated = A.build_fully_translated(
            raw_train["bangla"], raw_test["bangla"],
            raw_train["hindi"], raw_test["hindi"], client, jobs=jobs)
        A.reconcile_translated(translated, report)
        out_file = os.path.join(cfg.out_dir, "fully_translated_english_train.csv")
        TXT.write_corpus(out_file, translated.examples)
        written.append(out_file)

    _atomic_text(os.path.join(cfg.out_dir, "reconciliation.json"),
                 json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    _atomic_text(os.path.join(cfg.out_dir, "reconciliation.txt"), report.render_text() + "\n")
    return {"written": written, "reconciliation": report.to_dict(),
            "discrepancies": len(report.discrepancies)}
