"""Seeded input generators: comment corpora, raw multilingual splits, token maps, configs.

Every input the benchmark hands to tlanet is made here from the run's
seed, so the same seed always gives byte-identical files. Each class owns
marker tokens that appear in no other class, so every corpus is
separable and a model that trains can be checked against a held-out
file.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

LABELS = ("NAG", "OAG", "CAG")

# The paper's published label counts of the raw TRAC-2 style splits, kept
# here independently of tlanet so the corpus checks do not trust the code
# they check.
RAW_COUNTS = {
    ("english", "training"): {"NAG": 3375, "OAG": 453, "CAG": 435},
    ("english", "testing"): {"NAG": 836, "OAG": 117, "CAG": 113},
    ("hindi", "training"): {"NAG": 2245, "OAG": 829, "CAG": 910},
    ("hindi", "testing"): {"NAG": 578, "OAG": 211, "CAG": 208},
    ("bangla", "training"): {"NAG": 2078, "OAG": 898, "CAG": 850},
    ("bangla", "testing"): {"NAG": 522, "OAG": 218, "CAG": 217},
}

# Published training totals after noise augmentation.
SEMI_NOISY_TRAIN_COUNTS = {
    "english": {"NAG": 3375, "OAG": 2251, "CAG": 2546},
    "hindi": {"NAG": 2245, "OAG": 3497, "CAG": 1810},
    "bangla": {"NAG": 2078, "OAG": 1959, "CAG": 1966},
}

# Which raw splits the fully-translated corpus draws each class from.
TRANSLATED_SOURCES = {
    "NAG": (("hindi", "training"), ("bangla", "training")),
    "OAG": (("hindi", "training"), ("hindi", "testing"),
            ("bangla", "training"), ("bangla", "testing")),
    "CAG": (("hindi", "training"), ("hindi", "testing"),
            ("bangla", "training"), ("bangla", "testing")),
}

# Letters the pseudo-words of each language are spelled with.
_ALPHABETS = {
    "english": [chr(c) for c in range(ord("a"), ord("z") + 1)],
    "hindi": [chr(c) for c in range(0x0915, 0x0939 + 1)],
    "bangla": [chr(c) for c in range(0x0995, 0x09B9 + 1) if c not in (0x09A9, 0x09B1, 0x09B3, 0x09B4, 0x09B5)],
}

MARKERS_PER_CLASS = 4
MARKERS_PER_COMMENT = 4
FILLER_WORDS = 60


class Lexicon:
    """Marker words per class plus a shared, Zipf-weighted filler vocabulary."""

    def __init__(self, rng: np.random.Generator, language: str):
        alphabet = _ALPHABETS[language]
        need = len(LABELS) * MARKERS_PER_CLASS + FILLER_WORDS
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < need:
            n = int(rng.integers(3, 8))
            word = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.markers = {label: words[k * MARKERS_PER_CLASS:(k + 1) * MARKERS_PER_CLASS]
                        for k, label in enumerate(LABELS)}
        self.fillers = words[len(LABELS) * MARKERS_PER_CLASS:]
        weights = 1.0 / np.arange(1, len(self.fillers) + 1)
        self.filler_p = weights / weights.sum()

    def comment(self, rng: np.random.Generator, label: str, length: int, marker_span: int) -> str:
        """``length`` tokens with class markers at ``MARKERS_PER_COMMENT`` places
        among the first ``marker_span``."""
        tokens = [self.fillers[int(i)] for i in rng.choice(len(self.fillers), length, p=self.filler_p)]
        span = min(length, marker_span)
        for pos in rng.choice(span, min(span, MARKERS_PER_COMMENT), replace=False):
            tokens[int(pos)] = self.markers[label][int(rng.integers(0, MARKERS_PER_CLASS))]
        return " ".join(tokens)


def uniform_lengths(lo: int, hi: int):
    """Lengths drawn uniformly from ``lo..hi`` inclusive."""
    return lambda rng: int(rng.integers(lo, hi + 1))


def lognormal_lengths(median: float, sigma: float, lo: int, hi: int):
    """Right-skewed lengths with the given median, clipped to ``lo..hi``."""
    return lambda rng: int(np.clip(round(rng.lognormal(np.log(median), sigma)), lo, hi))


def comment_corpora(seed: int, sizes: dict[str, int], lengths, marker_span: int,
                    language: str = "english") -> dict[str, list[tuple[str, str, str]]]:
    """Disjoint, class-balanced splits of ``(id, text, label)`` rows, one per entry of ``sizes``.

    Texts are unique across all splits, so a held-out split never repeats
    a training comment.
    """
    rng = np.random.default_rng([seed, 1])
    lex = Lexicon(rng, language)
    seen: set[str] = set()
    out = {}
    for split, total in sizes.items():
        rows = []
        for i in range(total):
            label = LABELS[i % len(LABELS)]
            while True:
                text = lex.comment(rng, label, lengths(rng), marker_span)
                if text not in seen:
                    break
            seen.add(text)
            rows.append((f"{split}-{i:05d}", text, label))
        out[split] = rows
    return out


def raw_corpora(seed: int, scale: float = 1.0) -> dict[tuple[str, str], list[tuple[str, str, str]]]:
    """Raw English, Hindi and Bangla splits at the published class counts (times ``scale``)."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for language in ("english", "hindi", "bangla"):
        lex = Lexicon(rng, language)
        for split in ("training", "testing"):
            rows = []
            for label in LABELS:
                count = max(1, round(RAW_COUNTS[(language, split)][label] * scale))
                for i in range(count):
                    text = lex.comment(rng, label, int(rng.integers(4, 15)), 14)
                    rows.append((f"{language[:2]}-{split[:2]}-{label.lower()}-{i:05d}", text, label))
            order = rng.permutation(len(rows))
            out[(language, split)] = [rows[int(i)] for i in order]
    return out


def token_map(seed: int, raw: dict[tuple[str, str], list[tuple[str, str, str]]]) -> dict:
    """Mock-translator table mapping every Hindi and Bangla token to an English pseudo-word."""
    rng = np.random.default_rng([seed, 3])
    mapping = {}
    for language in ("hindi", "bangla"):
        vocab = sorted({tok for split in ("training", "testing")
                        for _, text, _ in raw[(language, split)] for tok in text.split()})
        english = Lexicon(rng, "english")
        pool = english.fillers + [w for label in LABELS for w in english.markers[label]]
        picks = rng.integers(0, len(pool), len(vocab))
        mapping[f"{language}->english"] = {tok: pool[int(k)] for tok, k in zip(vocab, picks)}
    return mapping


def write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        writer.writerows(rows)


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def classifier_config(model: str, train_path: str, out_dir: str, seed: int, *,
                      embed_dim: int, hidden_size: int, num_layers: int, max_len: int,
                      epochs: int, learning_rate: float, dropout: float = 0.1,
                      head_hidden: int = 16, batch_size: int = 32) -> dict:
    """A schema-1 experiment config for ``tla train``."""
    return {
        "schema_version": 1,
        "model": model,
        "language": "english",
        "datasets": {"english": {"train": train_path}},
        "classifier": {
            "max_vocab": 2000, "min_freq": 1, "embed_dim": embed_dim,
            "hidden_size": hidden_size, "num_layers": num_layers, "dropout": dropout,
            "num_classes": 3, "max_len": max_len, "head_hidden": head_hidden,
        },
        "optimizer": {"learning_rate": learning_rate, "batch_size": batch_size, "epochs": epochs},
        "rejection_head": {"epochs": 200, "learning_rate": 0.1},
        "recon_weight": 0.5,
        "threshold": 0.5,
        "seed": seed,
        "out_dir": out_dir,
    }


def corpus_files(seed: int, work: str, scale: float = 1.0) -> dict:
    """Write the raw splits and the token map under ``work``; return their paths and rows."""
    raw = raw_corpora(seed, scale)
    paths = {}
    for (language, split), rows in raw.items():
        path = os.path.join(work, f"raw_{language}_{split}.csv")
        write_csv(path, rows)
        paths[(language, split)] = path
    map_path = os.path.join(work, "token_map.json")
    write_json(map_path, token_map(seed, raw))
    return {"raw": raw, "paths": paths, "token_map": map_path}
