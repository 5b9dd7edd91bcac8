"""Corpus builders: noise augmentation, translation, and the combined variants.

Two derived corpora are built from the raw per-language splits. The
"semi-noisy" variant tops up the minority classes of each training split
with augmented samples until the training totals match the published
reference statistics; test splits are never touched. The "fully
translated" variant is an English training corpus produced entirely by
translating the Bangla and Hindi material.

The reference statistics themselves contain two internal inconsistencies
(the English CAG added-count and the translated NAG total). Builders
never hide these: every run emits a reconciliation report that states
achieved counts next to the reference ones and flags the gaps.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .text import LABELS, DatasetSplit, LabeledExample

# Published label distributions for the raw splits, keyed (language, split).
RAW_COUNTS = {
    ("english", "training"): {"NAG": 3375, "OAG": 453, "CAG": 435},
    ("english", "testing"): {"NAG": 836, "OAG": 117, "CAG": 113},
    ("hindi", "training"): {"NAG": 2245, "OAG": 829, "CAG": 910},
    ("hindi", "testing"): {"NAG": 578, "OAG": 211, "CAG": 208},
    ("bangla", "training"): {"NAG": 2078, "OAG": 898, "CAG": 850},
    ("bangla", "testing"): {"NAG": 522, "OAG": 218, "CAG": 217},
}

# Published training totals after augmentation (test splits stay raw).
SEMI_NOISY_TRAIN_COUNTS = {
    "english": {"NAG": 3375, "OAG": 2251, "CAG": 2546},
    "hindi": {"NAG": 2245, "OAG": 3497, "CAG": 1810},
    "bangla": {"NAG": 2078, "OAG": 1959, "CAG": 1966},
}

# Added-sample counts as documented in prose; English CAG disagrees with the
# table-implied delta (2546 - 435 = 2111) by 18 samples.
DOCUMENTED_ADDED = {
    "english": {"OAG": 1798, "CAG": 2093},
    "hindi": {"OAG": 2668, "CAG": 900},
    "bangla": {"OAG": 1061, "CAG": 1116},
}

# Published totals for the fully machine-translated English training corpus.
TRANSLATED_TRAIN_COUNTS = {"NAG": 4373, "OAG": 2156, "CAG": 2185}

# Which source splits feed each translated class: NAG takes only the two
# training splits; OAG and CAG take training and testing from both languages.
TRANSLATED_SOURCES = {
    "NAG": (("hindi", "training"), ("bangla", "training")),
    "OAG": (("hindi", "training"), ("hindi", "testing"),
            ("bangla", "training"), ("bangla", "testing")),
    "CAG": (("hindi", "training"), ("hindi", "testing"),
            ("bangla", "training"), ("bangla", "testing")),
}


def translated_enumeration_totals() -> dict[str, int]:
    """Per-class totals implied by the source enumeration (NAG disagrees
    with the published total by 50)."""
    return {
        label: sum(RAW_COUNTS[src][label] for src in sources)
        for label, sources in TRANSLATED_SOURCES.items()
    }


class AugmentationError(RuntimeError):
    def __init__(self, message: str, failed_ids: list[str] | None = None,
                 shortfalls: dict | None = None):
        super().__init__(message)
        self.failed_ids = failed_ids or []
        self.shortfalls = shortfalls or {}


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

NOISE_OPERATIONS = ("swap-adjacent", "delete", "duplicate")


@dataclass(frozen=True)
class NoiseSpec:
    probability: float = 0.1
    operations: tuple[str, ...] = NOISE_OPERATIONS
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"noise probability must be in [0, 1], got {self.probability}")
        bad = [op for op in self.operations if op not in NOISE_OPERATIONS]
        if bad or not self.operations:
            raise ValueError(f"noise operations must be a non-empty subset of {NOISE_OPERATIONS}")


def noise_tokens(tokens: list[str], spec: NoiseSpec,
                 rng: np.random.Generator) -> tuple[list[str], int]:
    """Apply per-token edits; returns the new tokens and how many were hit."""
    out: list[str] = []
    hits = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if rng.random() < spec.probability:
            hits += 1
            op = spec.operations[int(rng.integers(len(spec.operations)))]
            if op == "delete":
                i += 1
                continue
            if op == "duplicate":
                out.extend((tok, tok))
                i += 1
                continue
            if op == "swap-adjacent" and i + 1 < len(tokens):
                out.extend((tokens[i + 1], tok))
                i += 2
                continue
        out.append(tok)
        i += 1
    return out, hits


def noise_augment(examples: list[LabeledExample], spec: NoiseSpec,
                  suffix: str = "#noise") -> list[LabeledExample]:
    """One noised copy per example; labels kept, provenance set to ``noise``."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for ex in examples:
        tokens, _ = noise_tokens(ex.text.split(), spec, rng)
        out.append(LabeledExample(
            id=f"{ex.id}{suffix}",
            text=" ".join(tokens) if tokens else ex.text,
            label=ex.label,
            language=ex.language,
            provenance="noise",
        ))
    return out


# ---------------------------------------------------------------------------
# translation clients
# ---------------------------------------------------------------------------


class OfflineMockTranslator:
    """Deterministic token-map translator for hermetic runs.

    ``mapping`` is keyed ``"src->dst"`` and maps whole tokens; unknown
    tokens pass through unchanged, so the identity mock is just ``{}``.
    """

    def __init__(self, mapping: dict[str, dict[str, str]] | None = None):
        self.mapping = mapping or {}

    @classmethod
    def from_json(cls, path) -> "OfflineMockTranslator":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def translate(self, text: str, src: str, dst: str) -> str:
        table = self.mapping.get(f"{src}->{dst}", {})
        tokens = [table.get(tok, tok) for tok in text.split()]
        result = " ".join(t for t in tokens if t)
        return result if result.strip() else text


class HttpTranslator:
    """Generic REST translation client with retries and bounded concurrency.

    POSTs ``{"q": text, "source": src, "target": dst}`` as JSON and expects
    ``{"translatedText": ...}`` back. The API key, when set, travels in an
    ``X-API-Key`` header.
    """

    def __init__(self, url: str, api_key: str | None = None, timeout: float = 10.0,
                 max_retries: int = 3, backoff: float = 0.25, max_concurrency: int = 4):
        if not url:
            raise ValueError("HttpTranslator needs an endpoint url")
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._gate = threading.Semaphore(max_concurrency)

    def translate(self, text: str, src: str, dst: str) -> str:
        payload = json.dumps({"q": text, "source": src, "target": dst}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["X-API-Key"] = self.api_key
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._gate:
                    req = urllib.request.Request(self.url, data=payload, headers=headers)
                    with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                        body = json.loads(resp.read().decode("utf-8"))
                return str(body["translatedText"])
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last_error = exc
        raise AugmentationError(f"translation failed after {self.max_retries + 1} attempts: "
                                f"{last_error}")


def translate_augment(examples: list[LabeledExample], client, src: str, dst: str,
                      jobs: int = 1) -> list[LabeledExample]:
    """Translate every example or fail loudly; never drops inputs silently.

    Transport failures are collected and raised together with every
    undelivered id. An empty translation for non-empty text is a client
    contract violation and is reported the same way. With ``jobs > 1``,
    each of ``jobs`` threads translates a strided share of the examples,
    so at most ``jobs`` requests are in flight; the output order is the
    input order either way.
    """

    def one(ex: LabeledExample) -> LabeledExample:
        translated = client.translate(ex.text, src, dst)
        if ex.text.strip() and not str(translated).strip():
            raise AugmentationError(f"empty translation for example {ex.id}")
        return LabeledExample(
            id=f"{ex.id}#tr-{dst}",
            text=str(translated),
            label=ex.label,
            language=dst,
            provenance="translated",
        )

    results: list[LabeledExample | None] = [None] * len(examples)
    workers = max(1, min(jobs, len(examples)))

    def share(k: int) -> None:
        # a failed example keeps its None and is reported below
        for i in range(k, len(examples), workers):
            try:
                results[i] = one(examples[i])
            except Exception:
                pass

    if workers == 1:
        share(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(share, range(workers)))
    failures = [ex.id for ex, r in zip(examples, results) if r is None]
    if failures:
        raise AugmentationError(
            f"{len(failures)} of {len(examples)} translations failed; undelivered ids: "
            f"{', '.join(sorted(failures))}",
            failed_ids=sorted(failures),
        )
    return results


# ---------------------------------------------------------------------------
# corpus builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentationTargets:
    """How many augmented samples to add per (language, class) to training sets."""

    added: dict[str, dict[str, int]]

    def __post_init__(self):
        for lang, per_class in self.added.items():
            for label, n in per_class.items():
                if label not in LABELS:
                    raise ValueError(f"unknown label {label!r} in targets for {lang}")
                if n < 0:
                    raise ValueError(f"negative target for {lang}/{label}")

    @classmethod
    def reference(cls) -> "AugmentationTargets":
        """Deltas implied by the published before/after training tables."""
        added = {}
        for lang, after in SEMI_NOISY_TRAIN_COUNTS.items():
            before = RAW_COUNTS[(lang, "training")]
            added[lang] = {label: after[label] - before[label] for label in LABELS}
        return cls(added)


def build_semi_noisy(raw_train: dict[str, DatasetSplit], pool: list[LabeledExample],
                     targets: AugmentationTargets) -> dict[str, DatasetSplit]:
    """Combine raw training splits with pool samples until targets are met.

    The pool is consumed in order per (language, label); a shortfall in any
    bucket fails the whole build with per-class detail.
    """
    buckets: dict[tuple[str, str], list[LabeledExample]] = {}
    for ex in pool:
        buckets.setdefault((ex.language, ex.label), []).append(ex)
    shortfalls = {}
    for lang, per_class in targets.added.items():
        for label, need in per_class.items():
            have = len(buckets.get((lang, label), []))
            if have < need:
                shortfalls[(lang, label)] = {"needed": need, "available": have}
    if shortfalls:
        detail = "; ".join(f"{lang}/{label}: need {d['needed']}, have {d['available']}"
                           for (lang, label), d in sorted(shortfalls.items()))
        raise AugmentationError(f"augmentation pool shortfall: {detail}", shortfalls=shortfalls)
    combined = {}
    for lang, split in raw_train.items():
        extra = []
        for label in LABELS:
            need = targets.added.get(lang, {}).get(label, 0)
            if need:
                extra.extend(buckets[(lang, label)][:need])
        combined[lang] = DatasetSplit(f"{lang}:semi-noisy-train", list(split.examples) + extra)
    return combined


def build_fully_translated(bangla_train: DatasetSplit, bangla_test: DatasetSplit,
                           hindi_train: DatasetSplit, hindi_test: DatasetSplit,
                           client, jobs: int = 1) -> DatasetSplit:
    """English training corpus made entirely of translated Bangla/Hindi samples."""
    splits = {
        ("bangla", "training"): bangla_train,
        ("bangla", "testing"): bangla_test,
        ("hindi", "training"): hindi_train,
        ("hindi", "testing"): hindi_test,
    }
    out: list[LabeledExample] = []
    for label, sources in TRANSLATED_SOURCES.items():
        for key in sources:
            src_lang = key[0]
            wanted = [ex for ex in splits[key].examples if ex.label == label]
            out.extend(translate_augment(wanted, client, src_lang, "english", jobs=jobs))
    return DatasetSplit("english:fully-translated-train", out)


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------


@dataclass
class ReconciliationReport:
    """Achieved vs reference counts, with discrepancies called out, never hidden."""

    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, corpus: str, language: str, label: str,
                achieved: int, reference: int, note: str = "") -> None:
        self.rows.append({
            "corpus": corpus, "language": language, "label": label,
            "achieved": achieved, "reference": reference,
            "delta": achieved - reference, "note": note,
        })

    @property
    def discrepancies(self) -> list[dict]:
        return [r for r in self.rows if r["delta"] != 0 or r["note"]]

    def to_dict(self) -> dict:
        return {"rows": self.rows, "notes": self.notes}

    def render_text(self) -> str:
        lines = [f"{'corpus':<16} {'language':<9} {'label':<5} "
                 f"{'achieved':>9} {'reference':>9} {'delta':>6}  note"]
        for r in self.rows:
            lines.append(f"{r['corpus']:<16} {r['language']:<9} {r['label']:<5} "
                         f"{r['achieved']:>9} {r['reference']:>9} {r['delta']:>6}  {r['note']}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def reconcile_semi_noisy(combined: dict[str, DatasetSplit],
                         targets: AugmentationTargets,
                         report: ReconciliationReport | None = None) -> ReconciliationReport:
    report = report or ReconciliationReport()
    for lang in sorted(combined):
        tally = combined[lang].tally()
        for label in LABELS:
            reference = SEMI_NOISY_TRAIN_COUNTS.get(lang, {}).get(label, tally[label])
            note = ""
            documented = DOCUMENTED_ADDED.get(lang, {}).get(label)
            targeted = targets.added.get(lang, {}).get(label, 0)
            if documented is not None and documented != targeted:
                note = (f"documented added-count {documented} differs from the "
                        f"table-implied delta {targeted} by {targeted - documented}")
            report.add_row("semi-noisy", lang, label, tally[label], reference, note)
    return report


def reconcile_translated(split: DatasetSplit,
                         report: ReconciliationReport | None = None) -> ReconciliationReport:
    report = report or ReconciliationReport()
    tally = split.tally()
    implied = translated_enumeration_totals()
    for label in LABELS:
        reference = TRANSLATED_TRAIN_COUNTS[label]
        note = ""
        if implied[label] != reference:
            note = (f"source enumeration yields {implied[label]}, published total is "
                    f"{reference} (gap {reference - implied[label]})")
        report.add_row("fully-translated", "english", label, tally[label], reference, note)
    return report
