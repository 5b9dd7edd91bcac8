"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Expensive training runs are shared through
module-scoped fixtures.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from tlanet import augment as A
from tlanet import config as CFG
from tlanet import experiment as EXP
from tlanet import gradcheck as GC
from tlanet import metrics as MET
from tlanet import models as M
from tlanet import optim
from tlanet import tensor as T
from tlanet import text as TXT
from tlanet import wisdomnet as W
from tlanet import word2vec as W2V
from tlanet.synthetic import synthetic_examples

SEEDS = (1, 2, 3, 4, 5)
EPOCHS = 80
LEARNING_RATE = 0.003
BATCH = 32
RECON_WEIGHT = 0.5


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def encoded_corpus():
    exs = synthetic_examples("train")
    vocab = TXT.build_vocab((TXT.tokenize(e.text) for e in exs), 200, 1)
    tokens, labels = TXT.encode_dataset(vocab, exs, 12)
    return vocab, tokens, labels


def train_once(kind, seed, vocab, tokens, labels):
    cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=16, hidden_size=16,
                             num_layers=1, dropout=0.1, num_classes=3, max_len=12,
                             seed=seed, head_hidden=16)
    model = M.build_model(kind, cfg)
    adam = optim.Adam([t for _, t in model.named_tensors()], learning_rate=LEARNING_RATE)
    trace = M.fit(model, adam, tokens, labels, epochs=EPOCHS, batch_size=BATCH,
                  recon_weight=RECON_WEIGHT, seed=seed)
    _, feats, _ = model.predict_batch(tokens)
    head = W.fit_rejection_head(feats, labels, 3, epochs=200, learning_rate=0.1, seed=seed)
    preds = W.classify_batch(head, feats, theta=0.0)
    accuracy = float(np.mean([p == g for p, g in zip(preds, labels)]))
    combined = [c + RECON_WEIGHT * r for c, r in trace]
    return accuracy, combined


@pytest.fixture(scope="module")
def tla_runs(encoded_corpus):
    vocab, tokens, labels = encoded_corpus
    start = time.perf_counter()
    runs = [train_once("tla-net", seed, vocab, tokens, labels) for seed in SEEDS]
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def ae_runs(encoded_corpus):
    vocab, tokens, labels = encoded_corpus
    return [train_once("lstm-ae", seed, vocab, tokens, labels) for seed in SEEDS]


class TestCriterion1Gradients:
    def test_every_backward_rule_within_tolerance(self):
        start = time.perf_counter()
        report = GC.run_checks(GC.suite_for_scope("all"))
        elapsed = time.perf_counter() - start
        for line in report.lines():
            print(line)
        assert report.passed, "\n".join(report.lines())
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
        names = {r.name for r in report.results}
        assert {"model.lstm", "model.bilstm", "model.lstm_ae", "model.tla_net"} <= names
        announce(1, f"all {len(report.results)} gradient checks pass in {elapsed:.1f}s")

    def test_ops_scope_fast(self):
        start = time.perf_counter()
        report = GC.run_checks(GC.suite_for_scope("ops"))
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 10.0
        announce(1, f"ops scope alone finishes in {elapsed:.2f}s")


class TestCriterion2DeskScaleTrainability:
    def test_median_accuracy_and_loss(self, tla_runs):
        runs, elapsed = tla_runs
        accuracies = [acc for acc, _ in runs]
        finals = [combined[-1] for _, combined in runs]
        assert EPOCHS <= 200
        med_acc = statistics.median(accuracies)
        med_final = statistics.median(finals)
        assert med_acc >= 0.95, f"median accuracy {med_acc}"
        assert med_final <= 0.05, f"median combined loss {med_final}"
        assert elapsed < 120.0, f"five seeds took {elapsed:.1f}s"
        announce(2, f"median accuracy {med_acc:.3f}, median combined loss "
                    f"{med_final:.4f} over {len(SEEDS)} seeds in {elapsed:.1f}s")


class TestCriterion3RelativeOrdering:
    def test_tla_at_least_ae_minus_margin(self, tla_runs, ae_runs):
        tla_acc = statistics.median([acc for acc, _ in tla_runs[0]])
        ae_acc = statistics.median([acc for acc, _ in ae_runs])
        assert tla_acc >= ae_acc - 0.02, f"tla {tla_acc} vs ae {ae_acc}"
        announce(3, f"median train accuracy tla-net {tla_acc:.3f} vs lstm-ae {ae_acc:.3f}")


class TestCriterion4RejectionSemantics:
    def test_worked_examples_bit_exact(self):
        head = W.WisdomNetHead(T.Tensor(np.eye(3)), T.Tensor(np.zeros(3)), 0.5)
        confident = np.log([0.9, 0.05, 0.05])
        assert W.classify_batch(head, [confident], 0.5) == [0]
        uncertain = np.log([0.4, 0.3, 0.3])
        [decision] = W.classify_batch(head, [uncertain], 0.5)
        assert W.is_rejected(decision)

    def test_theta_zero_is_plain_argmax_everywhere(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            head = W.WisdomNetHead(
                T.Tensor(rng.uniform(-3, 3, (3, 5))), T.Tensor(rng.uniform(-1, 1, 3)))
            x = rng.uniform(-4, 4, 5)
            [decision] = W.classify_batch(head, [x], 0.0)
            assert decision == int(np.argmax(head.probabilities([x])[0]))

    def test_sweep_coverage_monotone(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(50):
            head = W.WisdomNetHead(
                T.Tensor(rng.uniform(-2, 2, (3, 4))), T.Tensor(rng.uniform(-1, 1, 3)))
            feats = rng.uniform(-3, 3, (40, 4))
            labels = rng.integers(0, 3, 40)
            cov = [c for _, c, _ in W.threshold_sweep(head, feats, labels, grid)]
            assert all(a >= b for a, b in zip(cov, cov[1:]))
        announce(4, "threshold semantics: worked examples, argmax at zero, "
                    "monotone coverage")


class TestCriterion5MetricOracle:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            matrix = rng.integers(0, 25, (3, 3))
            rejected = int(rng.integers(0, 8))
            cm = MET.ConfusionMatrix(matrix, rejected, int(matrix.sum()) + rejected)
            report = MET.aggregate(cm, scheme="macro")
            accepted = matrix.sum()
            for cls in range(3):
                tp = int(matrix[cls, cls])
                fp = int(matrix[:, cls].sum()) - tp
                fn = int(matrix[cls, :].sum()) - tp
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                assert report.per_class[cls]["precision"] == p
                assert report.per_class[cls]["recall"] == r
                assert report.per_class[cls]["f1"] == f
            if accepted:
                assert report.accuracy == np.trace(matrix) / accepted

    def test_f1_fixed_point(self):
        rng = np.random.default_rng(51)
        for x in rng.uniform(0, 1, 100):
            assert math.isclose(MET.f1(x, x), x, rel_tol=1e-12)

    def test_rejected_excluded_from_f1(self):
        matrix = np.array([[12, 3, 1], [2, 9, 2], [1, 1, 15]])
        plain = MET.ConfusionMatrix(matrix, 0, int(matrix.sum()))
        with_rejects = MET.ConfusionMatrix(matrix, 25, int(matrix.sum()) + 25)
        a = MET.aggregate(plain, scheme="weighted")
        b = MET.aggregate(with_rejects, scheme="weighted")
        assert a.f1 == b.f1
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert b.coverage < 1.0
        announce(5, "per-class metrics match the brute-force oracle on 1000 "
                    "matrices; rejections never touch F1")


class TestCriterion6ReconstructionLoss:
    def test_identity_and_hand_value(self):
        seq = T.Tensor([[0.5, -1.0], [2.0, 0.25]])
        assert abs(optim.reconstruction_loss(seq, seq)[0].item()) <= 1e-12
        i = T.Tensor([[1.0, 2.0], [3.0, 0.0]])
        o = T.Tensor(np.zeros((2, 2)))
        assert abs(optim.reconstruction_loss(i, o)[0].item() - 14.0) <= 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(60)
        i = T.Tensor(rng.uniform(-2, 2, (4, 3)))
        o = T.Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        with T.Tape() as tape:
            loss, _ = optim.reconstruction_loss(i, o)
        tape.backward(loss)
        assert np.allclose(o.grad_array, 2.0 * (o.array - i.array), atol=1e-15)
        err = GC.check_gradients(lambda: optim.reconstruction_loss(i, o)[0], [o])
        assert err <= 1e-8
        announce(6, "reconstruction loss exact on worked values; gradient "
                    "2(O-I) confirmed by finite differences")

    @pytest.mark.parametrize("kind", ["lstm-ae", "tla-net"])
    def test_is_the_loss_forward_batch_trains_on(self, monkeypatch, kind):
        # full-length comments: the reconstruction rows are every embedded step, time-major
        tokens = np.array([[2, 5, 3, 4], [6, 2, 7, 5], [3, 3, 4, 6]])
        cfg = M.ClassifierConfig(vocab_size=8, embed_dim=3, hidden_size=4, num_layers=1,
                                 dropout=0.0, max_len=4, seed=6, head_hidden=3)
        model = M.build_model(kind, cfg)
        calls = []
        loss_fn = optim.reconstruction_loss

        def spy(inputs, outputs):
            calls.append((inputs.array.copy(), outputs.array.copy()))
            return loss_fn(inputs, outputs)

        monkeypatch.setattr(optim, "reconstruction_loss", spy)
        out = model.forward_batch(tokens, training=True)
        [(inputs, outputs)] = calls
        assert np.array_equal(inputs, model.embedding.table.array[tokens.T.reshape(-1)])
        assert np.array_equal(outputs, out.reconstruction.array)
        total, sq = loss_fn(T.Tensor(inputs), T.Tensor(outputs))
        assert out.recon_loss.item() == total.item() * (1.0 / tokens.shape[0])
        assert np.array_equal(out.recon_per_example,
                              sq.reshape(tokens.shape[1], tokens.shape[0], -1).sum(axis=(0, 2)))
        announce(6, f"{kind}'s forward_batch trains on this reconstruction loss")


def write_counts_csv(path, counts, prefix):
    rows = ["id,text,label"]
    for label, n in counts.items():
        for i in range(n):
            rows.append(f"{prefix}-{label}-{i},{prefix} sample text {label.lower()} {i},{label}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def raw_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    paths = {}
    for (lang, split), counts in A.RAW_COUNTS.items():
        path = root / f"{lang}_{split}.csv"
        write_counts_csv(path, counts, f"{lang[:2]}{split[:2]}")
        paths[(lang, split)] = path
    return paths


class TestCriterion7CorpusReconstruction:
    def test_loader_reproduces_every_published_count(self, raw_files):
        for (lang, split), path in raw_files.items():
            loaded = TXT.load_trac2(path, language=lang)
            assert loaded.tally() == A.RAW_COUNTS[(lang, split)]
            assert len(loaded) == sum(A.RAW_COUNTS[(lang, split)].values())

    def test_augment_command_hits_training_totals(self, raw_files, tmp_path):
        cfg = CFG.config_from_dict({
            "schema_version": 1,
            "model": "tla-net",
            "datasets": {},
            "augmentation": {
                "raw": {lang: {"train": str(raw_files[(lang, "training")]),
                               "test": str(raw_files[(lang, "testing")])}
                        for lang in ("english", "hindi", "bangla")},
                "build": ["semi-noisy", "fully-translated"],
                "translator": {"kind": "mock"},
            },
            "seed": 7,
            "out_dir": str(tmp_path / "aug"),
        })
        result = EXP.run_augment(cfg)
        for lang, expected in A.SEMI_NOISY_TRAIN_COUNTS.items():
            split = TXT.load_trac2(tmp_path / "aug" / f"semi_noisy_{lang}_train.csv")
            assert split.tally() == expected, lang
            test_split = TXT.load_trac2(tmp_path / "aug" / f"semi_noisy_{lang}_test.csv")
            assert test_split.tally() == A.RAW_COUNTS[(lang, "testing")]
            assert all(e.provenance == "raw" for e in test_split.examples)

        report = json.loads((tmp_path / "aug" / "reconciliation.json").read_text())
        rows = {(r["corpus"], r["language"], r["label"]): r for r in report["rows"]}
        cag = rows[("semi-noisy", "english", "CAG")]
        assert cag["achieved"] == 2546 and "2093" in cag["note"]
        nag = rows[("fully-translated", "english", "NAG")]
        assert nag["achieved"] == 4323 and nag["delta"] == -50 and "4373" in nag["note"]
        translated = TXT.load_trac2(tmp_path / "aug" / "fully_translated_english_train.csv")
        assert translated.tally()["OAG"] == 2156
        assert translated.tally()["CAG"] == 2185

        # a rerun with the same seed writes byte-identical corpora
        cfg.out_dir = str(tmp_path / "aug2")
        EXP.run_augment(cfg)
        for name in ("semi_noisy_english_train.csv", "semi_noisy_hindi_train.csv",
                     "semi_noisy_bangla_train.csv", "fully_translated_english_train.csv"):
            assert ((tmp_path / "aug" / name).read_bytes()
                    == (tmp_path / "aug2" / name).read_bytes()), name
        announce(7, "published corpus counts reproduced exactly; both documented "
                    "discrepancies flagged; rerun is byte-identical")


class TestCriterion8Word2Vec:
    def test_two_topic_separation_at_reference_schedule(self):
        rng = np.random.default_rng(80)
        topic_a = list(range(2, 12))
        topic_b = list(range(12, 22))
        sentences = []
        for _ in range(150):
            sentences.append(list(rng.choice(topic_a, 8)))
            sentences.append(list(rng.choice(topic_b, 8)))
        counts = np.zeros(22)
        for s in sentences:
            for tok in s:
                counts[tok] += 1
        model = W2V.Word2VecModel.init(22, 16, counts, negatives=5, seed=3)
        W2V.word2vec_train(model, sentences, epochs=5, batch_size=128,
                           lr_start=0.025, lr_end=0.001, window=5, seed=3)

        def mean_cos(group_a, group_b, same):
            vals = []
            for i, a in enumerate(group_a):
                for j, b in enumerate(group_b):
                    if same and j <= i:
                        continue
                    vals.append(W2V.cosine(model.w_in[a], model.w_in[b]))
            return float(np.mean(vals))

        intra = 0.5 * (mean_cos(topic_a, topic_a, True) + mean_cos(topic_b, topic_b, True))
        inter = mean_cos(topic_a, topic_b, False)
        assert intra - inter >= 0.2, f"gap {intra - inter:.3f}"
        announce(8, f"two-topic embedding gap {intra - inter:.3f} (intra "
                    f"{intra:.3f}, inter {inter:.3f}) after 5 epochs at 0.025->0.001")

    def test_zero_vector_pair_loss_exact(self):
        counts = np.zeros(12)
        counts[2:] = 5.0
        model = W2V.Word2VecModel.init(12, 4, counts, negatives=5, seed=0)
        model.w_in[2] = 0.0
        loss = W2V.pair_loss(model, 2, 3, [4, 5, 6, 7, 8])
        assert abs(loss - 6.0 * math.log(2.0)) <= 1e-12


class TestCriterion9Determinism:
    def test_train_command_byte_identical(self, tmp_path):
        raw = {
            "schema_version": 1,
            "model": "tla-net",
            "language": "english",
            "datasets": {"english": {"train": "builtin:synthetic-train"}},
            "classifier": {"max_vocab": 200, "embed_dim": 8, "hidden_size": 8,
                           "num_layers": 1, "dropout": 0.1, "num_classes": 3,
                           "max_len": 12, "head_hidden": 8, "min_freq": 1},
            "optimizer": {"learning_rate": 0.003, "batch_size": 32, "epochs": 3},
            "rejection_head": {"epochs": 100, "learning_rate": 0.1},
            "recon_weight": 0.5,
            "threshold": 0.5,
            "seed": 7,
            "out_dir": str(tmp_path / "a"),
        }
        cfg_a = CFG.config_from_dict(raw)
        EXP.run_train(cfg_a)
        raw["out_dir"] = str(tmp_path / "b")
        cfg_b = CFG.config_from_dict(raw)
        EXP.run_train(cfg_b)
        trace_a = (tmp_path / "a" / "loss_trace.json").read_bytes()
        trace_b = (tmp_path / "b" / "loss_trace.json").read_bytes()
        ckpt_a = (tmp_path / "a" / "checkpoint.tlac").read_bytes()
        ckpt_b = (tmp_path / "b" / "checkpoint.tlac").read_bytes()
        assert trace_a == trace_b
        assert ckpt_a == ckpt_b
        announce(9, "identical config and seed give byte-identical loss traces "
                    "and checkpoints")


class TestCriterion10ScalarRecurrence:
    def test_trajectories_exact_and_labeled(self):
        cases = {2.0: ("explodes", [1.0 * 2.0 ** i for i in range(11)]),
                 0.5: ("vanishes", [1.0 * 0.5 ** i for i in range(11)]),
                 1.0: ("neutral", [1.0] * 11)}
        for weight, (label, closed_form) in cases.items():
            rec = T.ScalarRecurrence(weight, 1.0, 10)
            assert T.recurrence_trajectory(rec) == closed_form
            assert T.recurrence_regime(weight) == label
        assert abs(T.recurrence_trajectory(T.ScalarRecurrence(2.0, 1.0, 200))[-1]) > 1e12
        assert abs(T.recurrence_trajectory(T.ScalarRecurrence(0.5, 1.0, 200))[-1]) < 1e-12
        announce(10, "scalar recurrence matches the closed form exactly and the "
                     "explode/vanish/neutral labels follow the weight")
