"""Tokenization, vocabulary, label coding, padding, and CSV corpus ingestion.

The tokenizer rules are deliberately frozen: lowercase, drop every Unicode
punctuation character, split on whitespace. They are Unicode-transparent,
so Bangla and Hindi text passes through with only its punctuation removed.

Corpus files are UTF-8 CSV with header columns ``id,text,label`` and
optional ``language`` and ``provenance`` columns (written by the
augmentation commands). Labels are the three aggression classes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

LABELS = ("NAG", "OAG", "CAG")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}
LANGUAGES = ("english", "bangla", "hindi")
PROVENANCES = ("raw", "noise", "translated")

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class DataFormatError(ValueError):
    """A corpus file or row violates the expected schema."""


@dataclass(frozen=True)
class LabeledExample:
    id: str
    text: str
    label: str
    language: str = "english"
    provenance: str = "raw"

    def __post_init__(self):
        if self.label not in LABELS:
            raise DataFormatError(f"label {self.label!r} not one of {LABELS} (example {self.id})")
        if self.provenance not in PROVENANCES:
            raise DataFormatError(f"provenance {self.provenance!r} not one of {PROVENANCES}")

    @property
    def label_index(self) -> int:
        return LABEL_TO_INDEX[self.label]


@dataclass
class DatasetSplit:
    name: str
    examples: list[LabeledExample]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.counts:
            self.counts = self.tally()
        self.verify_counts()

    def tally(self) -> dict[str, int]:
        c = Counter(ex.label for ex in self.examples)
        return {label: c.get(label, 0) for label in LABELS}

    def verify_counts(self) -> None:
        actual = self.tally()
        if actual != self.counts:
            raise DataFormatError(f"{self.name}: stored counts {self.counts} "
                                  f"do not match recomputed {actual}")

    @property
    def total(self) -> int:
        return len(self.examples)

    def __len__(self) -> int:
        return len(self.examples)


class _PunctuationTable(dict):
    """``str.translate`` table that deletes Unicode punctuation (categories P*).

    Each code point is looked up in ``unicodedata`` the first time it is
    seen and remembered; every other code point maps to itself.
    """

    def __missing__(self, code: int):
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_PUNCTUATION = _PunctuationTable()


def tokenize(text: str) -> list[str]:
    """Lowercase, delete every Unicode punctuation character, split on whitespace.

    Punctuation is deleted in one ``str.translate`` pass through a table of
    code points filled in as they are first seen.
    """
    return text.lower().translate(_PUNCTUATION).split()


@dataclass
class Vocabulary:
    """Token ids with PAD=0 and UNK=1 reserved; dense ids in [0, size)."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    counts: dict[str, int]
    max_size: int
    min_freq: int

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        """Each token's id, UNK for a token outside the vocabulary."""
        return list(map(self.token_to_id.get, tokens, repeat(UNK_ID, len(tokens))))

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[int(i)] for i in ids]

    def count_of(self, token_id: int) -> int:
        return self.counts.get(self.id_to_token[token_id], 0)

    def content_hash(self) -> str:
        payload = "\x00".join(self.id_to_token) + f"\x01{self.max_size}\x01{self.min_freq}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_vocab(token_lists, max_size: int, min_freq: int = 1) -> Vocabulary:
    """Frequency-ranked vocabulary (ties broken lexicographically), reserved ids first."""
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2 to fit PAD and UNK, got {max_size}")
    counter: Counter = Counter()
    for tokens in token_lists:
        counter.update(tokens)
    eligible = [(tok, n) for tok, n in counter.items() if n >= min_freq]
    eligible.sort(key=lambda kv: (-kv[1], kv[0]))
    kept = eligible[: max_size - 2]
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + [tok for tok, _ in kept]
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id, id_to_token, dict(counter), max_size, min_freq)


def pad_ids(ids: list[int], max_len: int) -> list[int]:
    """Truncate to the first ``max_len`` ids, right-pad with PAD."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = ids[:max_len]
    return ids + [PAD_ID] * (max_len - len(ids))


def encode_and_pad(vocab: Vocabulary, tokens: list[str], max_len: int) -> list[int]:
    """Encode, truncate to the first ``max_len`` tokens, right-pad with PAD."""
    return pad_ids(vocab.encode(tokens[:max_len]), max_len)


def pad_id_lists(id_lists, max_len: int) -> np.ndarray:
    """(examples, max_len) matrix of id lists, each passed through ``pad_ids``, read once in order.

    The kept ids fill a preallocated PAD matrix in one pass, row after row,
    from a flat run of them and the row lengths.
    """
    kept = [ids[:max_len] for ids in id_lists]
    if not kept:
        return np.asarray([], dtype=np.int64)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    lengths = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
    out = np.full((len(kept), max_len), PAD_ID, dtype=np.int64)
    out[np.arange(max_len) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(kept), dtype=np.int64, count=int(lengths.sum()))
    return out


def encode_token_lists(vocab: Vocabulary, token_lists, max_len: int) -> np.ndarray:
    """(examples, max_len) id matrix of already tokenized examples, read once in order."""
    return pad_id_lists((vocab.encode(tokens[:max_len]) for tokens in token_lists), max_len)


def label_indices(examples: list[LabeledExample]) -> np.ndarray:
    """Class index of every example."""
    return np.asarray([ex.label_index for ex in examples], dtype=np.int64)


def encode_dataset(vocab: Vocabulary, examples: list[LabeledExample],
                   max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, labels) id matrices for a list of examples."""
    rows = encode_token_lists(vocab, (tokenize(ex.text) for ex in examples), max_len)
    return rows, label_indices(examples)


REQUIRED_COLUMNS = ("id", "text", "label")
OPTIONAL_COLUMNS = ("language", "provenance")


def load_trac2(path, language: str = "english", name: str | None = None) -> DatasetSplit:
    """Parse a corpus CSV into a verified split.

    Raises ``FileNotFoundError`` for a missing file, ``DataFormatError``
    with the line number for malformed rows, and rejects unknown labels.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_trac2(fh, language, name or str(path))


def _parse_trac2(fh, language: str, name: str) -> DatasetSplit:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{name}: empty file, expected a header row") from None
    header = [h.strip().lower() for h in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataFormatError(f"{name}: missing required column {col!r} in header {header}")
    index = {col: header.index(col) for col in header}
    width = len(header)
    examples = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise DataFormatError(f"{name}, line {lineno}: expected {width} fields, got {len(row)}")
        label = row[index["label"]].strip()
        if label not in LABELS:
            raise DataFormatError(f"{name}, line {lineno}: label {label!r} not one of {LABELS}")
        examples.append(LabeledExample(
            id=row[index["id"]].strip(),
            text=row[index["text"]],
            label=label,
            language=row[index["language"]].strip() if "language" in index else language,
            provenance=row[index["provenance"]].strip() if "provenance" in index else "raw",
        ))
    return DatasetSplit(name, examples)


def write_corpus(path, examples: list[LabeledExample], with_provenance: bool = True) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if with_provenance:
            writer.writerow(["id", "text", "label", "language", "provenance"])
            for ex in examples:
                writer.writerow([ex.id, ex.text, ex.label, ex.language, ex.provenance])
        else:
            writer.writerow(["id", "text", "label"])
            for ex in examples:
                writer.writerow([ex.id, ex.text, ex.label])


def stratified_split(split: DatasetSplit, train_fraction: float = 0.7,
                     seed: int = 0) -> tuple[DatasetSplit, DatasetSplit]:
    """Per-class shuffle and cut; proportions hold within one example per class."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_label: dict[str, list[LabeledExample]] = {label: [] for label in LABELS}
    for ex in split.examples:
        by_label[ex.label].append(ex)
    rng = np.random.default_rng(seed)
    train, val = [], []
    for label in LABELS:
        group = by_label[label]
        if not group:
            continue
        if len(group) < 2:
            raise ValueError(f"class {label} has {len(group)} example(s); need at least 2 to split")
        order = rng.permutation(len(group))
        cut = int(math.floor(train_fraction * len(group) + 0.5))
        cut = min(max(cut, 1), len(group) - 1)
        train.extend(group[i] for i in order[:cut])
        val.extend(group[i] for i in order[cut:])
    return (DatasetSplit(f"{split.name}:train", train),
            DatasetSplit(f"{split.name}:val", val))
