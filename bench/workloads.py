"""The four workloads: what each sets up, runs in one round, serves and checks.

A round is the workload's job (one call of a tlanet entry point) followed
by a closed loop in which one client classifies comments one at a time
with the checkpoint the job wrote or read; ``corpus`` makes two calls and
sends requests after each. Rounds repeat until the run's measuring time
is spent; every round performs the same operations.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
import tracemalloc

import numpy as np

import checks
import gen
from tlanet import checkpoint as CK
from tlanet import config as C
from tlanet import experiment as E
from tlanet import models as M
from tlanet import tensor as T
from tlanet import text as TXT
from tlanet import wisdomnet as W
from tlanet import word2vec as W2V


def read_rows(path: str) -> list[tuple]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(row) for row in reader]


class Probe:
    """Times the calls of one module function while the job runs and keeps their arguments."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.calls: list[tuple[float, tuple, dict]] = []

    def __enter__(self):
        self.inner = getattr(self.module, self.attr)
        inner, calls = self.inner, self.calls

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            calls.append((time.perf_counter() - t0, args, kwargs))
            return out

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.inner)
        return False


class Workload:
    """Shared round structure; subclasses define the job and the serving model."""

    name = ""
    requests_per_round = 20

    def __init__(self, seed: int, work: str, tiny: bool):
        self.seed, self.work, self.tiny = seed, work, tiny
        if tiny:
            self.requests_per_round = 4
        self.job_s: list[float] = []  # wall time of each job call
        self.rates: list[float] = []  # examples per second, per train step or per job call
        self.classify_ms: list[float] = []
        self.requests: list[dict] = []  # the last round's one-comment results
        self.texts: list[str] = []  # the comments requests send, in turn
        self.job_examples = 0  # examples one job call processes
        self.rounds = 0
        self.sent = 0  # requests sent so far
        self.ops_done = 0  # operations completed in the current round

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # -- per-workload hooks -------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> None:
        raise NotImplementedError

    def checkpoint_path(self) -> str:
        raise NotImplementedError

    def checks(self) -> dict[str, list[str]]:
        raise NotImplementedError

    # -- serving -------------------------------------------------------------

    def classify_one(self, bundle, text: str) -> dict:
        """Raw text to the head's decision for one comment."""
        ids = np.asarray([TXT.encode_and_pad(bundle.vocab, TXT.tokenize(text),
                                             bundle.config.max_len)], dtype=np.int64)
        if bundle.kind == "word2vec-features":
            feats = W2V.word2vec_features(bundle.model, ids[0])[None, :]
            model_probs = None
        else:
            model_probs, feats, _ = bundle.model.predict_batch(ids)
        decision = W.classify_batch(bundle.head, feats)[0]
        return {"ids": ids[0], "feats": feats[0], "model_probs": model_probs, "decision": decision}

    def serve(self, tracer, count: int) -> None:
        """``count`` one-comment requests against the checkpoint as it is now."""
        bundle = CK.load_checkpoint(self.checkpoint_path())
        self.requests = []
        for _ in range(count):
            text = self.texts[self.sent % len(self.texts)]
            self.sent += 1
            t0 = time.perf_counter()
            if tracer is None:
                out = self.classify_one(bundle, text)
            else:
                with tracer.span("bench.classify", new_trace=True):
                    out = self.classify_one(bundle, text)
            self.classify_ms.append(1000.0 * (time.perf_counter() - t0))
            self.requests.append(out)
            self.ops_done += 1

    @staticmethod
    def call(tracer, span: str, fn) -> None:
        """Run one job call, in a span of its own trace when the round is traced."""
        if tracer is None:
            fn()
        else:
            with tracer.span(span, new_trace=True):
                fn()

    def run_round(self, tracer) -> None:
        self.ops_done = 0
        self.call(tracer, "bench.job", self.job)
        self.serve(tracer, self.requests_per_round)
        self.rounds += 1

    @property
    def ops_per_round(self) -> int:
        return 1 + self.requests_per_round

    def named_metrics(self, values: dict[str, float]) -> list[tuple[str, float, str]]:
        """The end-to-end readings under the names the workload's job gives them."""
        return []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values measured outside the spans (0 where the layer is not run)."""
        return {"tensor.tape_peak_mb": 0.0,
                "checkpoint.mb": os.path.getsize(self.checkpoint_path()) / 1e6}


def _load_texts(path: str) -> list[str]:
    return [text for _, text, _ in read_rows(path)]


def _heldout_probs(bundle, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Head probabilities recomputed in numpy for every comment of a CSV."""
    split = TXT.load_trac2(path)
    tokens, labels = TXT.encode_dataset(bundle.vocab, split.examples, bundle.config.max_len)
    _, feats, _ = bundle.model.predict_batch(tokens)
    return checks.softmax_rows(feats, bundle.head.weights.array, bundle.head.bias.array), labels


class _TrainWorkload(Workload):
    """``run_train`` of one tape-trained model kind, repeated from the same config."""

    heldout_check = False

    def corpus(self) -> dict:
        raise NotImplementedError

    def model_config(self, train: str, out: str, epochs: int = 1) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        rows = self.corpus()
        gen.write_csv(self.path("train.csv"), rows["train"])
        gen.write_csv(self.path("test.csv"), rows["test"])
        gen.write_json(self.path("config.json"),
                       self.model_config(self.path("train.csv"), self.path("run")))
        if self.heldout_check:
            # The timed job trains too briefly to learn every class, so the
            # held-out check trains a model of its own, untimed, on a longer split.
            gen.write_csv(self.path("fit.csv"), rows["fit"])
            gen.write_json(self.path("fit.json"), self.model_config(
                self.path("fit.csv"), self.path("fit"), epochs=1 if self.tiny else 3))
        self.texts = _load_texts(self.path("test.csv"))

    def checkpoint_path(self) -> str:
        return self.path("run", E.CHECKPOINT_FILE)

    def job(self) -> None:
        cfg = C.load_config(self.path("config.json"))
        with Probe(M, "fit") as fit, Probe(M, "train_step") as steps:
            t0 = time.perf_counter()
            E.run_train(cfg)
            self.job_s.append(time.perf_counter() - t0)
        self.ops_done += 1
        # one rate per train step: the fastest of many short steps is steadier
        # than one long fit on a machine whose speed drifts
        self.rates.extend(len(args[2]) / seconds for seconds, args, _ in steps.calls)
        _, args, kwargs = fit.calls[-1]
        self.model = args[0]
        self.job_examples = args[2].shape[0]
        self.train_tokens, self.train_labels = args[2], args[3]
        self.batch_size = kwargs["batch_size"]
        self.recon_weight = kwargs["recon_weight"]

    def named_metrics(self, values):
        return [("train_s", values["job_s"], "s"),
                ("train_examples_per_s", values["examples_per_s"], "examples/s")]

    def _batch(self):
        n = min(self.batch_size, self.train_tokens.shape[0])
        return self.train_tokens[:n], self.train_labels[:n]

    def _total_loss(self, tokens, labels):
        """Training-mode loss on one batch, with dropout masks fixed by a re-seeded generator."""
        out = self.model.forward_batch(tokens, training=True,
                                       rng=np.random.default_rng([self.seed, 99]))
        return self.model.losses(out, labels, self.recon_weight)[0]

    def directional_derivative(self) -> tuple[float, float]:
        """<grad, d> from the tape and from central differences, on one batch.

        ``d`` has seeded random magnitudes and the signs of the tape's
        gradient, so the slope along it is far from zero and a wrong sign or
        scale in the gradient of any parameter shows as a mismatch. The
        embedding's pinned padding row gets no gradient, so ``d`` is zero
        there.
        """
        tokens, labels = self._batch()
        params = [t for _, t in self.model.named_tensors()]
        for p in params:
            p.zero_grad()
        with T.Tape() as tape:
            total = self._total_loss(tokens, labels)
        tape.backward(total)
        rng = np.random.default_rng([self.seed, 98])
        direction = [np.abs(rng.standard_normal(p.values.shape)) * np.sign(p.grad)
                     for p in params]
        analytic = float(sum(np.dot(p.grad, d) for p, d in zip(params, direction)))
        saved = [p.values.copy() for p in params]

        def slope(h: float) -> float:
            for p, s, d in zip(params, saved, direction):
                p.values[:] = s + h * d
            plus = self._total_loss(tokens, labels).item()
            for p, s, d in zip(params, saved, direction):
                p.values[:] = s - h * d
            minus = self._total_loss(tokens, labels).item()
            return (plus - minus) / (2.0 * h)

        try:
            # Richardson extrapolation cancels the h^2 error of the central difference
            numeric = (4.0 * slope(checks.FD_EPS / 2) - slope(checks.FD_EPS)) / 3.0
        finally:
            for p, s in zip(params, saved):
                p.values[:] = s
            for p in params:
                p.zero_grad()
        return analytic, numeric

    def checks(self) -> dict[str, list[str]]:
        bundle = CK.load_checkpoint(self.checkpoint_path())
        out = {
            "checkpoint_reload": checks.bitwise_equal(
                "reloaded predict_batch probabilities",
                self.model.predict_batch(self.train_tokens)[0],
                bundle.model.predict_batch(self.train_tokens)[0]),
            "gradient_direction": checks.grad_direction_agrees(*self.directional_derivative()),
        }
        if self.heldout_check:
            E.run_train(C.load_config(self.path("fit.json")))
            fitted = CK.load_checkpoint(self.path("fit", E.CHECKPOINT_FILE))
            out["heldout_accuracy"] = checks.heldout_accuracy(
                *_heldout_probs(fitted, self.path("test.csv")))
        return out

    def tape_peak_mb(self) -> float:
        """tracemalloc peak from the start of a forward pass to the end of its backward."""
        tokens, labels = self._batch()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with T.Tape() as tape:
                total = self._total_loss(tokens, labels)
            tape.backward(total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for _, p in self.model.named_tensors():
            p.zero_grad()
        return peak / 1e6

    def layer_extras(self) -> dict[str, float]:
        extras = super().layer_extras()
        extras["tensor.tape_peak_mb"] = self.tape_peak_mb()
        return extras


class TrainTla(_TrainWorkload):
    """TLA-Net at the acceptance config on a few hundred separable comments."""

    name = "train-tla"
    heldout_check = True
    requests_per_round = 10

    def corpus(self) -> dict:
        sizes = ({"train": 48, "test": 60, "fit": 48} if self.tiny
                 else {"train": 160, "test": 300, "fit": 288})
        return gen.comment_corpora(self.seed, sizes, gen.uniform_lengths(7, 12), 12)

    def model_config(self, train: str, out: str, epochs: int = 1) -> dict:
        return gen.classifier_config(
            "tla-net", train, out, self.seed, embed_dim=16, hidden_size=16, num_layers=1,
            max_len=12, epochs=epochs, learning_rate=0.01)


class TrainWide(_TrainWorkload):
    """The LSTM autoencoder at the documented default widths on long-tailed comment lengths."""

    name = "train-wide"
    requests_per_round = 12

    def corpus(self) -> dict:
        sizes = {"train": 32, "test": 40} if self.tiny else {"train": 96, "test": 200}
        return gen.comment_corpora(self.seed, sizes, gen.lognormal_lengths(8, 0.6, 2, 48), 32)

    def model_config(self, train: str, out: str, epochs: int = 1) -> dict:
        return gen.classifier_config(
            "lstm-ae", train, out, self.seed, embed_dim=32, hidden_size=128, num_layers=3,
            max_len=32, epochs=epochs, learning_rate=0.003, dropout=0.2)


class Evaluate(Workload):
    """Bulk ``run_evaluate`` with the sweep, then one-comment requests, on a TLA-Net checkpoint."""

    name = "evaluate"
    requests_per_round = 15

    def setup(self) -> None:
        sizes = {"train": 48, "test": 120} if self.tiny else {"train": 288, "test": 3000}
        rows = gen.comment_corpora(self.seed, sizes, gen.uniform_lengths(4, 12), 12)
        gen.write_csv(self.path("train.csv"), rows["train"])
        gen.write_csv(self.path("test.csv"), rows["test"])
        gen.write_json(self.path("config.json"), gen.classifier_config(
            "tla-net", self.path("train.csv"), self.path("model"), self.seed, embed_dim=16,
            hidden_size=16, num_layers=1, max_len=12, epochs=1 if self.tiny else 4,
            learning_rate=0.01))
        E.run_train(C.load_config(self.path("config.json")))
        self.texts = _load_texts(self.path("test.csv"))
        self.job_examples = len(rows["test"])

    def checkpoint_path(self) -> str:
        return self.path("model", E.CHECKPOINT_FILE)

    def job(self) -> None:
        t0 = time.perf_counter()
        self.payload = E.run_evaluate(self.checkpoint_path(), self.path("test.csv"),
                                      self.path("eval"), sweep=True)
        seconds = time.perf_counter() - t0
        self.ops_done += 1
        self.job_s.append(seconds)
        self.rates.append(self.job_examples / seconds)

    def named_metrics(self, values):
        return [("eval_examples_per_s", values["examples_per_s"], "examples/s")]

    def checks(self) -> dict[str, list[str]]:
        bundle = CK.load_checkpoint(self.checkpoint_path())
        probs, labels = _heldout_probs(bundle, self.path("test.csv"))
        out = {
            "heldout_accuracy": checks.heldout_accuracy(probs, labels),
            "report_recount": checks.report_matches(
                self.payload["report"], probs, labels, self.payload["theta"]),
            "sweep_monotone": checks.sweep_monotone(self.payload["threshold_sweep"]),
        }
        # every request comment is a test comment; find its batched row by token ids
        ids = np.stack([r["ids"] for r in self.requests])
        tokens, _ = TXT.encode_dataset(bundle.vocab, TXT.load_trac2(self.path("test.csv")).examples,
                                       bundle.config.max_len)
        row_of = {row.tobytes(): i for i, row in enumerate(tokens)}
        rows = np.array([row_of[r.tobytes()] for r in ids])
        single = checks.softmax_rows(np.stack([r["feats"] for r in self.requests]),
                                     bundle.head.weights.array, bundle.head.bias.array)
        theta = bundle.head.threshold
        out["single_vs_batch"] = checks.single_matches_batch(
            single, probs[rows],
            [-1 if W.is_rejected(r["decision"]) else r["decision"] for r in self.requests],
            list(checks.decisions(probs[rows], theta)))
        # the model's own probabilities must agree as well
        out["single_vs_batch"] += checks.single_matches_batch(
            np.stack([r["model_probs"][0] for r in self.requests]),
            bundle.model.predict_batch(tokens[rows])[0], [], [])
        return out


class Corpus(Workload):
    """``run_train`` of word2vec features on the semi-noisy English corpus, then
    ``run_augment`` at the published split sizes, which rebuilds the corpora."""

    name = "corpus"
    # a request takes tens of microseconds: enough of them that each of a
    # round's two closed loops lasts tens of milliseconds, not a few
    requests_per_round = 2000

    def setup(self) -> None:
        files = gen.corpus_files(self.seed, self.work, scale=0.02 if self.tiny else 1.0)
        self.raw = files["raw"]
        raw_paths = {lang: {"train": files["paths"][(lang, "training")],
                            "test": files["paths"][(lang, "testing")]}
                     for lang in ("english", "hindi", "bangla")}
        gen.write_json(self.path("augment.json"), {
            "schema_version": 1, "model": "word2vec-features", "datasets": {},
            "augmentation": {"raw": raw_paths,
                             "translator": {"kind": "mock", "mapping_path": files["token_map"]}},
            "seed": self.seed, "out_dir": self.path("corpora"),
        })
        w2v = gen.classifier_config(
            "word2vec-features", self.path("corpora", "semi_noisy_english_train.csv"),
            self.path("w2v"), self.seed, embed_dim=16, hidden_size=16, num_layers=1,
            max_len=16, epochs=1, learning_rate=0.01)
        w2v["word2vec"] = {"embed_dim": 16, "window": 2, "negatives": 5, "epochs": 2,
                           "batch_size": 256}
        gen.write_json(self.path("w2v.json"), w2v)
        self.texts = [text for _, text, _ in self.raw[("english", "testing")]]
        self.written_rows = 0
        self.w2v_seconds: list[float] = []
        self.augment()  # the first round trains on these corpora
        self.rates.clear()

    def checkpoint_path(self) -> str:
        return self.path("w2v", E.CHECKPOINT_FILE)

    @property
    def ops_per_round(self) -> int:
        return 3 + self.requests_per_round

    def run_round(self, tracer) -> None:
        # requests go out after the training and after the augmentation, so a
        # round samples the machine twice; run_augment, four times shorter
        # than run_train, runs twice for as many rate samples
        self.ops_done = 0
        half = self.requests_per_round // 2
        self.call(tracer, "bench.job", self.train)
        self.serve(tracer, half)
        for _ in range(2):
            self.call(tracer, "bench.augment", self.augment)
        self.serve(tracer, self.requests_per_round - half)
        self.rounds += 1

    def augment(self) -> None:
        cfg = C.load_config(self.path("augment.json"))
        t0 = time.perf_counter()
        result = E.run_augment(cfg, jobs=2)
        seconds = time.perf_counter() - t0
        self.ops_done += 1
        if not self.written_rows:
            self.written_rows = sum(len(read_rows(p)) for p in result["written"])
        self.rates.append(self.written_rows / seconds)

    def train(self) -> None:
        """``run_train`` on the corpora the last ``run_augment`` wrote."""
        cfg = C.load_config(self.path("w2v.json"))
        with Probe(W2V, "word2vec_train") as w2v:
            t0 = time.perf_counter()
            self.manifest = E.run_train(cfg)
            self.job_s.append(time.perf_counter() - t0)
        self.ops_done += 1
        seconds, args, kwargs = w2v.calls[-1]
        self.w2v_seconds.append(seconds)
        self.w2v_call = (args[1], kwargs["window"], kwargs["epochs"])
        if not self.job_examples:
            self.job_examples = len(read_rows(cfg.train_path()))

    def w2v_pairs(self) -> int:
        """Skip-gram pairs one ``word2vec_train`` call trains on, over all its epochs."""
        sentences, window, epochs = self.w2v_call
        total = 0
        for sent in sentences:
            n = len(sent)
            for i in range(n):
                total += min(n, i + window + 1) - max(0, i - window) - 1
        return total * epochs

    def named_metrics(self, values):
        return [("train_s", values["job_s"], "s"),
                ("augment_examples_per_s", values["examples_per_s"], "examples/s"),
                ("w2v_pairs_per_s", self.w2v_pairs() / statistics.median(self.w2v_seconds),
                 "pairs/s")]

    def checks(self) -> dict[str, list[str]]:
        corpora = self.path("corpora")
        raw_train = {lang: self.raw[(lang, "training")] for lang in ("english", "hindi", "bangla")}
        combined = {lang: read_rows(os.path.join(corpora, f"semi_noisy_{lang}_train.csv"))
                    for lang in raw_train}
        raw_by_id = {row[0]: (row[1], row[2], lang)
                     for lang, rows in raw_train.items() for row in rows}
        noised = [row for rows in combined.values() for row in rows if row[4] == "noise"]
        bundle = CK.load_checkpoint(self.checkpoint_path())
        return {
            "semi_noisy_counts": checks.semi_noisy_counts(raw_train, combined),
            "noise_provenance": checks.noise_provenance(raw_by_id, noised),
            "translated_counts": checks.translated_counts(
                self.raw, read_rows(os.path.join(corpora, "fully_translated_english_train.csv"))),
            "word2vec_health": checks.word2vec_healthy(
                [loss for loss, _ in self.manifest["trace"]], bundle.model.w_in,
                bundle.model.w_out, bundle.model.padding_idx),
        }


WORKLOADS = {w.name: w for w in (TrainTla, TrainWide, Evaluate, Corpus)}
