"""Each correctness check of the benchmark passes on right inputs and fails on a wrong one."""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import gen  # noqa: E402
from tlanet import models as M  # noqa: E402
from workloads import _TrainWorkload  # noqa: E402


def _small_model_workload(kind: str) -> _TrainWorkload:
    """A train workload holding a small untrained model and one batch, as after a round."""
    cfg = M.ClassifierConfig(vocab_size=30, embed_dim=4, hidden_size=5, num_layers=2,
                             dropout=0.2, max_len=6, seed=3, head_hidden=4)
    w = _TrainWorkload(seed=5, work="", tiny=True)
    w.model = M.build_model(kind, cfg)
    rng = np.random.default_rng(0)
    w.train_tokens = rng.integers(0, 30, (8, 6))
    w.train_labels = rng.integers(0, 3, 8)
    w.batch_size, w.recon_weight = 8, 0.5
    return w


@pytest.mark.parametrize("kind", ["lstm-ae", "tla-net"])
def test_gradient_direction_on_a_real_model_and_with_its_sign_flipped(kind):
    analytic, numeric = _small_model_workload(kind).directional_derivative()
    assert checks.grad_direction_agrees(analytic, numeric) == []
    assert checks.grad_direction_agrees(-analytic, numeric)


def test_gradient_direction_rejects_scale_error_and_non_finite():
    assert checks.grad_direction_agrees(0.5, 0.5 * (1 + 1e-9)) == []
    assert checks.grad_direction_agrees(0.5 * 1.001, 0.5)
    assert checks.grad_direction_agrees(float("nan"), 0.5)
    assert checks.grad_direction_agrees(1e-9, 1e-9)


def test_directional_derivative_leaves_weights_unchanged():
    w = _small_model_workload("lstm-ae")
    before = [t.values.copy() for _, t in w.model.named_tensors()]
    w.directional_derivative()
    after = [t.values for _, t in w.model.named_tensors()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_bitwise_equal_catches_one_ulp():
    a = np.random.default_rng(1).random((4, 3))
    b = a.copy()
    assert checks.bitwise_equal("p", a, b) == []
    b[2, 1] = np.nextafter(b[2, 1], 2.0)
    assert checks.bitwise_equal("p", a, b)


def _head_case():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((60, 5))
    weights, bias = rng.standard_normal((3, 5)), rng.standard_normal(3)
    probs = checks.softmax_rows(feats, weights, bias)
    labels = rng.integers(0, 3, 60)
    return probs, labels


def _report(probs, labels, theta):
    d = checks.decisions(probs, theta)
    acc = d >= 0
    return {
        "accuracy": float((d[acc] == labels[acc]).mean()),
        "coverage": float(acc.mean()),
        "rejected_count": int((~acc).sum()),
        "total_count": int(d.size),
        "per_class": [{"support": int(((labels == c) & acc).sum())} for c in range(3)],
    }


def test_report_recount_passes_and_catches_a_perturbed_probability_and_a_count():
    probs, labels = _head_case()
    report = _report(probs, labels, 0.5)
    assert checks.report_matches(report, probs, labels, 0.5) == []
    # one probability moved across the threshold changes the recount
    k = int(np.argmax(probs.max(axis=1) >= 0.5))
    moved = probs.copy()
    moved[k] = [0.34, 0.33, 0.33]
    assert checks.report_matches(report, moved, labels, 0.5)
    off = dict(report, per_class=[dict(c) for c in report["per_class"]])
    off["per_class"][1]["support"] += 1
    assert checks.report_matches(off, probs, labels, 0.5)


def test_single_vs_batch_catches_one_perturbed_probability():
    probs, _ = _head_case()
    d = list(checks.decisions(probs, 0.5))
    assert checks.single_matches_batch(probs, probs.copy(), d, d) == []
    wrong = probs.copy()
    wrong[7, 0] += 1e-7
    assert checks.single_matches_batch(wrong, probs, d, d)
    flipped = d.copy()
    flipped[3] = (flipped[3] + 1) % 3
    assert checks.single_matches_batch(probs, probs, flipped, d)


def test_heldout_accuracy_bound():
    labels = np.arange(90) % 3
    perfect = np.eye(3)[labels]
    assert checks.heldout_accuracy(perfect, labels) == []
    assert checks.heldout_accuracy(np.roll(perfect, 1, axis=1), labels)


def test_sweep_must_start_at_full_coverage_and_never_rise():
    good = [{"theta": 0.05 * i, "coverage": max(0.0, 1.0 - 0.1 * i)} for i in range(21)]
    assert checks.sweep_monotone(good) == []
    rising = [dict(p) for p in good]
    rising[5]["coverage"] = rising[4]["coverage"] + 0.01
    assert checks.sweep_monotone(rising)
    assert checks.sweep_monotone(good[1:])


@pytest.fixture(scope="module")
def raw():
    return gen.raw_corpora(seed=4, scale=0.01)


def _combined(raw):
    out = {}
    for lang in ("english", "hindi", "bangla"):
        rows = [r + (lang, "raw") for r in raw[(lang, "training")]]
        for label in gen.LABELS:
            need = gen.SEMI_NOISY_TRAIN_COUNTS[lang][label] - gen.RAW_COUNTS[(lang, "training")][label]
            source = [r for r in raw[(lang, "training")] if r[2] == label]
            rows += [(f"{source[i % len(source)][0]}#n{i}", source[i % len(source)][1], label, lang,
                      "noise") for i in range(need)]
        out[lang] = rows
    return out


def test_semi_noisy_counts_catch_off_by_one(raw):
    raw_train = {lang: raw[(lang, "training")] for lang in ("english", "hindi", "bangla")}
    combined = _combined(raw)
    assert checks.semi_noisy_counts(raw_train, combined) == []
    combined["hindi"] = combined["hindi"][:-1]
    assert checks.semi_noisy_counts(raw_train, combined)


def test_noise_provenance_catches_a_foreign_token_and_a_relabel(raw):
    raw_by_id = {r[0]: (r[1], r[2], lang) for (lang, split), rows in raw.items()
                 if split == "training" for r in rows}
    noised = [r for rows in _combined(raw).values() for r in rows if r[4] == "noise"]
    assert checks.noise_provenance(raw_by_id, noised) == []
    ex_id, text, label, lang, prov = noised[10]
    foreign = noised[:10] + [(ex_id, text + " intruder", label, lang, prov)] + noised[11:]
    assert checks.noise_provenance(raw_by_id, foreign)
    other = next(lbl for lbl in gen.LABELS if lbl != label)
    relabeled = noised[:10] + [(ex_id, text, other, lang, prov)] + noised[11:]
    assert checks.noise_provenance(raw_by_id, relabeled)


def test_translated_counts_catch_off_by_one(raw):
    rows = [r for label, sources in gen.TRANSLATED_SOURCES.items()
            for src in sources for r in raw[src] if r[2] == label]
    assert checks.translated_counts(raw, rows) == []
    assert checks.translated_counts(raw, rows + rows[:1])


def test_word2vec_health():
    w = np.vstack([np.zeros(4), np.ones((5, 4))])
    assert checks.word2vec_healthy([3.0, 2.5], w, w) == []
    assert checks.word2vec_healthy([3.0, 3.1], w, w)
    assert checks.word2vec_healthy([3.0, float("inf")], w, w)
    bad = w.copy()
    bad[0, 2] = 1e-3
    assert checks.word2vec_healthy([3.0, 2.5], bad, w)


def test_inputs_depend_only_on_the_seed():
    a = gen.comment_corpora(9, {"train": 30, "test": 30}, gen.uniform_lengths(7, 12), 12)
    b = gen.comment_corpora(9, {"train": 30, "test": 30}, gen.uniform_lengths(7, 12), 12)
    c = gen.comment_corpora(10, {"train": 30, "test": 30}, gen.uniform_lengths(7, 12), 12)
    assert a == b and a != c
    texts = [t for rows in a.values() for _, t, _ in rows]
    assert len(set(texts)) == len(texts)
