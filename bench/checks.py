"""Correctness checks on tlanet's outputs, each against an independent computation.

Every check is a plain function of arrays, dicts and rows that returns a
list of failure messages (empty when the check passes), so the
benchmark's own tests can feed it a deliberately wrong input.
"""

from __future__ import annotations

import math

import numpy as np

import gen

# Step of the central differences and the agreement required with the
# tape's directional derivative. The direction has one entry per
# parameter, so its step moves the wide model by about 1e-4 in norm; along
# such directions the plain central difference was seen off by 2e-5 of
# the slope (its h^2 term), so the check extrapolates from steps h and h/2,
# which leaves an error near 1e-10 while a sign or scale error in a
# backward rule on the path of the direction lands far outside the
# tolerance.
FD_EPS = 1e-7
FD_RTOL = 1e-5
FD_ATOL = 1e-8
# A directional derivative this small cannot tell a sign error from noise.
FD_MIN_SLOPE = 1e-3

# Held-out theta-0 accuracy a trained model must reach; chance is 1/3. On
# these inputs an untrained TLA-Net with a fitted head scores exactly 1/3,
# a run that learns all three classes about 0.95 or more, and one that
# leaves a class half learned was seen as low as 0.54 (ten seeds of each
# workload, 3 or 4 epochs).
HELDOUT_MIN_ACCURACY = 0.45

SINGLE_VS_BATCH_ATOL = 1e-9


def grad_direction_agrees(analytic: float, numeric: float) -> list[str]:
    """The tape's <grad, d> must match the central difference along d."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return [f"directional derivative not finite: tape {analytic}, difference {numeric}"]
    if abs(numeric) < FD_MIN_SLOPE:
        return [f"directional derivative {numeric:.3e} too small to check"]
    if abs(analytic - numeric) > FD_RTOL * abs(numeric) + FD_ATOL:
        return [f"tape gives <grad, d> = {analytic:.10e}, central difference {numeric:.10e}"]
    return []


def bitwise_equal(name: str, expected: np.ndarray, actual: np.ndarray) -> list[str]:
    if expected.shape != actual.shape:
        return [f"{name}: shape {actual.shape} != {expected.shape}"]
    if not np.array_equal(expected, actual):
        worst = float(np.max(np.abs(expected - actual)))
        return [f"{name}: arrays differ (largest difference {worst:.3e})"]
    return []


def softmax_rows(features: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The rejection head's class probabilities, recomputed here in numpy."""
    z = features @ weights.T + bias
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def decisions(probs: np.ndarray, theta: float) -> np.ndarray:
    """Argmax per row, or -1 where the largest probability is below ``theta``."""
    picks = probs.argmax(axis=1)
    return np.where(probs.max(axis=1) < theta, -1, picks)


def heldout_accuracy(probs: np.ndarray, labels: np.ndarray) -> list[str]:
    acc = float((decisions(probs, 0.0) == labels).mean())
    if acc < HELDOUT_MIN_ACCURACY:
        return [f"held-out theta-0 accuracy {acc:.3f} below {HELDOUT_MIN_ACCURACY}"]
    return []


def report_matches(report: dict, probs: np.ndarray, labels: np.ndarray, theta: float,
                   num_classes: int = 3) -> list[str]:
    """Accuracy, coverage and per-class counts of ``report.json`` against a recount."""
    d = decisions(probs, theta)
    accepted = d >= 0
    fails = []
    n_acc = int(accepted.sum())
    accuracy = float((d[accepted] == labels[accepted]).sum()) / n_acc if n_acc else 0.0
    coverage = n_acc / d.size if d.size else 0.0
    if report["total_count"] != d.size:
        fails.append(f"report total {report['total_count']} != {d.size}")
    if report["rejected_count"] != d.size - n_acc:
        fails.append(f"report rejected {report['rejected_count']} != {d.size - n_acc}")
    if abs(report["accuracy"] - accuracy) > 1e-12:
        fails.append(f"report accuracy {report['accuracy']} != {accuracy}")
    if abs(report["coverage"] - coverage) > 1e-12:
        fails.append(f"report coverage {report['coverage']} != {coverage}")
    for c in range(num_classes):
        support = int(((labels == c) & accepted).sum())
        got = report["per_class"][c]["support"]
        if got != support:
            fails.append(f"report support of class {c} is {got}, recount {support}")
    return fails


def single_matches_batch(single_probs: np.ndarray, batch_probs: np.ndarray,
                         single_decisions, batch_decisions) -> list[str]:
    """Each one-comment request must agree with the batched pass on the same comment."""
    fails = []
    worst = float(np.max(np.abs(single_probs - batch_probs))) if single_probs.size else 0.0
    if not worst <= SINGLE_VS_BATCH_ATOL:
        fails.append(f"single and batched probabilities differ by {worst:.3e}")
    bad = sum(1 for a, b in zip(single_decisions, batch_decisions) if a != b)
    if bad or len(single_decisions) != len(batch_decisions):
        fails.append(f"{bad} of {len(single_decisions)} single decisions differ from batched")
    return fails


def sweep_monotone(points: list[dict]) -> list[str]:
    """Coverage is 1 at theta 0 and never rises along an ascending grid."""
    fails = []
    thetas = [p["theta"] for p in points]
    coverage = [p["coverage"] for p in points]
    if not points or thetas[0] != 0.0 or coverage[0] != 1.0:
        fails.append(f"sweep does not start at theta 0 with coverage 1: {points[:1]}")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        fails.append("sweep grid is not ascending")
    if any(b > a for a, b in zip(coverage, coverage[1:])):
        fails.append(f"sweep coverage rises somewhere along {coverage}")
    return fails


def _tally(rows) -> dict[str, int]:
    out = {label: 0 for label in gen.LABELS}
    for row in rows:
        out[row[2]] += 1
    return out


def semi_noisy_counts(raw_train: dict[str, list], combined: dict[str, list]) -> list[str]:
    """Per language and class: raw count plus the published delta."""
    fails = []
    for lang, rows in raw_train.items():
        raw = _tally(rows)
        got = _tally(combined[lang])
        for label in gen.LABELS:
            delta = (gen.SEMI_NOISY_TRAIN_COUNTS[lang][label]
                     - gen.RAW_COUNTS[(lang, "training")][label])
            if got[label] != raw[label] + delta:
                fails.append(f"semi-noisy {lang}/{label}: {got[label]} rows, "
                             f"expected {raw[label]} raw + {delta} added")
    return fails


def noise_provenance(raw_by_id: dict[str, tuple], noised: list[tuple]) -> list[str]:
    """Noised rows ``(id, text, label, language, provenance)`` keep their source's
    label and language and use only tokens of the source text."""
    fails = []
    for row in noised:
        ex_id, text, label, language = row[:4]
        source = raw_by_id.get(ex_id.split("#", 1)[0])
        if source is None:
            fails.append(f"noised {ex_id} has no source row")
            continue
        src_text, src_label, src_lang = source
        if label != src_label or language != src_lang:
            fails.append(f"noised {ex_id} is {language}/{label}, source {src_lang}/{src_label}")
        foreign = set(text.split()) - set(src_text.split())
        if foreign:
            fails.append(f"noised {ex_id} adds tokens {sorted(foreign)[:3]}")
        if len(fails) > 20:
            break
    return fails


def translated_counts(raw: dict[tuple[str, str], list], translated: list) -> list[str]:
    """Translated rows per class equal the count enumerated from the source files."""
    got = _tally(translated)
    fails = []
    for label, sources in gen.TRANSLATED_SOURCES.items():
        want = sum(_tally(raw[src])[label] for src in sources)
        if got[label] != want:
            fails.append(f"translated {label}: {got[label]} rows, sources hold {want}")
    return fails


def word2vec_healthy(losses: list[float], w_in: np.ndarray, w_out: np.ndarray,
                     pad: int = 0) -> list[str]:
    fails = []
    if not losses or not all(math.isfinite(x) for x in losses):
        fails.append(f"word2vec epoch losses not all finite: {losses}")
    elif not losses[-1] < losses[0]:
        fails.append(f"word2vec loss did not fall: first {losses[0]}, last {losses[-1]}")
    if np.any(w_in[pad] != 0.0) or np.any(w_out[pad] != 0.0):
        fails.append("word2vec padding row is not zero")
    return fails
