"""Experiment configuration: a JSON file with a schema version and strict validation.

Every validation failure names the offending field with a dotted path, so
the CLI can fail fast with an actionable message and exit code 2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .models import MODEL_KINDS, REMOVED_OPTIONS
from .synthetic import builtin_dataset_path
from .text import LABELS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"config field {field_path!r}: {message}")
        self.field_path = field_path


def resolve_dataset_path(path: str, field_path: str) -> str:
    """Pass real paths through; map ``builtin:<name>`` to the bundled files.

    An unknown builtin name is a ``ConfigError`` on ``field_path``.
    """
    if not path.startswith("builtin:"):
        return path
    try:
        return builtin_dataset_path(path.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(field_path, str(exc)) from None


def _require(mapping: dict, key: str, kind, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}{key}", "is required")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass
class ClassifierSection:
    max_vocab: int = 2000
    min_freq: int = 1
    embed_dim: int = 32
    hidden_size: int = 128
    num_layers: int = 3
    dropout: float = 0.2
    num_classes: int = 3
    max_len: int = 128
    head_hidden: int = 32


@dataclass
class OptimizerSection:
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs: int = 50


@dataclass
class HeadSection:
    epochs: int = 200
    learning_rate: float = 0.1


@dataclass
class Word2VecSection:
    embed_dim: int = 32
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    batch_size: int = 128
    lr_start: float = 0.025
    lr_end: float = 0.001


@dataclass
class TranslatorSection:
    kind: str = "mock"  # or "http"
    mapping_path: str | None = None
    url: str | None = None
    api_key: str | None = None
    max_retries: int = 3


@dataclass
class AugmentationSection:
    raw: dict = field(default_factory=dict)  # language -> {"train": path, "test": path}
    build: tuple[str, ...] = ("semi-noisy", "fully-translated")
    noise_probability: float = 0.1
    noise_operations: tuple[str, ...] = ("swap-adjacent", "delete", "duplicate")
    translator: TranslatorSection = field(default_factory=TranslatorSection)


@dataclass
class ExperimentConfig:
    model: str
    datasets: dict  # language -> {"train": path, "test": path}
    language: str = "english"
    classifier: ClassifierSection = field(default_factory=ClassifierSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    head: HeadSection = field(default_factory=HeadSection)
    word2vec: Word2VecSection = field(default_factory=Word2VecSection)
    augmentation: AugmentationSection = field(default_factory=AugmentationSection)
    recon_weight: float = 0.5
    threshold: float = 0.5
    seed: int = 0
    out_dir: str = "runs/default"

    def train_path(self) -> str:
        per_lang = self.datasets.get(self.language)
        if not per_lang or "train" not in per_lang:
            raise ConfigError(f"datasets.{self.language}.train", "is required to train")
        return resolve_dataset_path(per_lang["train"], f"datasets.{self.language}.train")

    def validate_train_inputs(self) -> None:
        path = self.train_path()
        if not os.path.exists(path):
            raise ConfigError(f"datasets.{self.language}.train", f"path does not exist: {path}")

    def validate_augment_inputs(self) -> None:
        if not self.augmentation.raw:
            raise ConfigError("augmentation.raw", "is required to augment")
        for lang, per_split in self.augmentation.raw.items():
            for split in ("train", "test"):
                if split not in per_split:
                    raise ConfigError(f"augmentation.raw.{lang}.{split}", "is required")
                path = resolve_dataset_path(per_split[split], f"augmentation.raw.{lang}.{split}")
                if not os.path.exists(path):
                    raise ConfigError(f"augmentation.raw.{lang}.{split}",
                                      f"path does not exist: {path}")
        for item in self.augmentation.build:
            if item not in ("semi-noisy", "fully-translated"):
                raise ConfigError("augmentation.build", f"unknown corpus kind {item!r}")

    def snapshot(self) -> dict:
        """JSON-serializable copy of the whole config for manifests."""

        def unfold(obj):
            if hasattr(obj, "__dataclass_fields__"):
                return {k: unfold(getattr(obj, k)) for k in obj.__dataclass_fields__}
            if isinstance(obj, dict):
                return {k: unfold(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [unfold(v) for v in obj]
            return obj

        snap = unfold(self)
        snap["schema_version"] = SCHEMA_VERSION
        return snap


def _positive(value, path, strict=True):
    if value is None:
        return value
    if strict and value <= 0 or value < 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return value


def _num_classes(value):
    # every corpus row carries one of the fixed labels, so the class count is theirs
    if value != len(LABELS):
        raise ConfigError("classifier.num_classes",
                          f"must be {len(LABELS)}, one per label ({', '.join(LABELS)}), got {value}")
    return value


def _rate(value, path, lo=0.0, hi=1.0):
    if not lo <= value <= hi:
        raise ConfigError(path, f"must be in [{lo}, {hi}], got {value}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    version = _require(raw, "schema_version", int, "", required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    model = _require(raw, "model", str, "", required=True)
    if model not in MODEL_KINDS:
        raise ConfigError("model", f"unknown kind {model!r}; expected one of {MODEL_KINDS}")
    datasets = _require(raw, "datasets", dict, "", default={})
    for lang, per_split in datasets.items():
        if not isinstance(per_split, dict):
            raise ConfigError(f"datasets.{lang}", "expected an object of split paths")

    c = raw.get("classifier", {})
    for key, kept in REMOVED_OPTIONS.items():
        if key in c:
            # unknown keys are otherwise ignored, which would quietly change what this one meant
            raise ConfigError(f"classifier.{key}", f"was removed; every model now behaves as {kept!r} did")
    cls = ClassifierSection(
        max_vocab=_positive(_require(c, "max_vocab", int, "classifier.", 2000), "classifier.max_vocab"),
        min_freq=_positive(_require(c, "min_freq", int, "classifier.", 1), "classifier.min_freq"),
        embed_dim=_positive(_require(c, "embed_dim", int, "classifier.", 32), "classifier.embed_dim"),
        hidden_size=_positive(_require(c, "hidden_size", int, "classifier.", 128), "classifier.hidden_size"),
        num_layers=_positive(_require(c, "num_layers", int, "classifier.", 3), "classifier.num_layers"),
        dropout=_rate(_require(c, "dropout", float, "classifier.", 0.2), "classifier.dropout", hi=0.999),
        num_classes=_num_classes(_require(c, "num_classes", int, "classifier.", len(LABELS))),
        max_len=_positive(_require(c, "max_len", int, "classifier.", 128), "classifier.max_len"),
        head_hidden=_positive(_require(c, "head_hidden", int, "classifier.", 32), "classifier.head_hidden"),
    )
    o = raw.get("optimizer", {})
    opt = OptimizerSection(
        learning_rate=_positive(_require(o, "learning_rate", float, "optimizer.", 0.001),
                                "optimizer.learning_rate"),
        batch_size=_positive(_require(o, "batch_size", int, "optimizer.", 32), "optimizer.batch_size"),
        epochs=_positive(_require(o, "epochs", int, "optimizer.", 50), "optimizer.epochs"),
    )
    h = raw.get("rejection_head", {})
    head = HeadSection(
        epochs=_positive(_require(h, "epochs", int, "rejection_head.", 200), "rejection_head.epochs"),
        learning_rate=_positive(_require(h, "learning_rate", float, "rejection_head.", 0.1),
                                "rejection_head.learning_rate"),
    )
    w = raw.get("word2vec", {})
    w2v = Word2VecSection(
        embed_dim=_positive(_require(w, "embed_dim", int, "word2vec.", 32), "word2vec.embed_dim"),
        window=_positive(_require(w, "window", int, "word2vec.", 5), "word2vec.window"),
        negatives=_positive(_require(w, "negatives", int, "word2vec.", 5), "word2vec.negatives"),
        epochs=_positive(_require(w, "epochs", int, "word2vec.", 5), "word2vec.epochs"),
        batch_size=_positive(_require(w, "batch_size", int, "word2vec.", 128), "word2vec.batch_size"),
        lr_start=_positive(_require(w, "lr_start", float, "word2vec.", 0.025), "word2vec.lr_start"),
        lr_end=_positive(_require(w, "lr_end", float, "word2vec.", 0.001), "word2vec.lr_end"),
    )
    a = raw.get("augmentation", {})
    t = a.get("translator", {})
    translator = TranslatorSection(
        kind=_require(t, "kind", str, "augmentation.translator.", "mock"),
        mapping_path=t.get("mapping_path"),
        url=t.get("url") or os.environ.get("TLA_TRANSLATE_URL"),
        api_key=t.get("api_key") or os.environ.get("TLA_TRANSLATE_KEY"),
        max_retries=_require(t, "max_retries", int, "augmentation.translator.", 3),
    )
    if translator.kind not in ("mock", "http"):
        raise ConfigError("augmentation.translator.kind", f"must be mock or http, got {translator.kind!r}")
    aug = AugmentationSection(
        raw=a.get("raw", {}),
        build=tuple(a.get("build", ("semi-noisy", "fully-translated"))),
        noise_probability=_rate(_require(a, "noise_probability", float, "augmentation.", 0.1),
                                "augmentation.noise_probability"),
        noise_operations=tuple(a.get("noise_operations", ("swap-adjacent", "delete", "duplicate"))),
        translator=translator,
    )
    cfg = ExperimentConfig(
        model=model,
        datasets=datasets,
        language=_require(raw, "language", str, "", "english"),
        classifier=cls,
        optimizer=opt,
        head=head,
        word2vec=w2v,
        augmentation=aug,
        recon_weight=_rate(_require(raw, "recon_weight", float, "", 0.5), "recon_weight", hi=1e9),
        threshold=_rate(_require(raw, "threshold", float, "", 0.5), "threshold"),
        seed=_require(raw, "seed", int, "", 0),
        out_dir=_require(raw, "out_dir", str, "", "runs/default"),
    )
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from None
    return config_from_dict(raw)
