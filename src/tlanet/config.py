"""Experiment configuration: a JSON file with a schema version and strict validation.

Each setting is declared once, as a field of its section's dataclass: its
default, the check that reads its JSON value and, where it differs from the
field's name, its JSON key. One reader walks those fields for every section.
Every validation failure names the offending field with a dotted path, so
the CLI can fail fast with an actionable message and exit code 2.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial

from .augment import NOISE_OPERATIONS
from .models import MODEL_KINDS, REMOVED_OPTIONS, ClassifierConfig
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


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def _section(cls, raw, path: str = ""):
    """Read one section: each field from its JSON key through its check, else its
    default. A key that no field declares is an error, so a misspelt setting
    cannot quietly leave its default in place."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    known = [_key(f) for f in fields(cls)]
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"unknown setting; expected one of {', '.join(known)}")
    values = {}
    for f in fields(cls):
        key = _key(f)
        where = f"{path}.{key}" if path else key
        if key in raw:
            values[f.name] = f.metadata["check"](raw[key], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(where, "is required")
    return cls(**values)


def _setting(default=MISSING, check=None, key: str | None = None):
    """A config field: its default, the check that reads its JSON value and its
    JSON key where that is not the field's name. A section class as the
    default is read as a nested section."""
    if is_dataclass(default):
        check = partial(_section, default)
    metadata = {"check": check, "key": key}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _typed(kind, value, path):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _text(value, path):
    return _typed(str, value, path)


def _text_or_none(value, path):
    return value if value is None else _typed(str, value, path)


def _count(lo: int = 1):
    def check(value, path):
        if _typed(int, value, path) < lo:
            raise ConfigError(path, f"must be at least {lo}, got {value}")
        return value

    return check


def _positive(value, path):
    value = _typed(float, value, path)
    if not 0.0 < value < math.inf:
        raise ConfigError(path, f"must be positive and finite, got {value}")
    return value


def _rate(hi: float = 1.0):
    def check(value, path):
        value = _typed(float, value, path)
        if not 0.0 <= value <= hi:
            raise ConfigError(path, f"must be in [0.0, {hi}], got {value}")
        return value

    return check


def _num_classes(value, path):
    # every corpus row carries one of the fixed labels, so the class count is theirs
    if _typed(int, value, path) != len(LABELS):
        raise ConfigError(path, f"must be {len(LABELS)}, one per label ({', '.join(LABELS)}), got {value}")
    return value


def _choice(*known: str):
    def check(value, path):
        if _typed(str, value, path) not in known:
            raise ConfigError(path, f"unknown kind {value!r}; expected one of {known}")
        return value

    return check


def _names(*known: str):
    """A non-empty list of known names; all of them by default."""

    def check(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, f"expected a non-empty list of names from {known}")
        for name in value:
            if name not in known:
                raise ConfigError(path, f"unknown name {name!r}; expected names from {known}")
        return tuple(value)

    return _setting(known, check)


def _splits(value, path):
    """language -> {"train": path, "test": path}"""
    for lang, per_split in _typed(dict, value, path).items():
        for split, file in _typed(dict, per_split, f"{path}.{lang}").items():
            _typed(str, file, f"{path}.{lang}.{split}")
    return value


@dataclass
class ClassifierSection:
    max_vocab: int = _setting(2000, _count())
    min_freq: int = _setting(1, _count())
    embed_dim: int = _setting(ClassifierConfig.embed_dim, _count())
    hidden_size: int = _setting(ClassifierConfig.hidden_size, _count())
    num_layers: int = _setting(ClassifierConfig.num_layers, _count())
    dropout: float = _setting(ClassifierConfig.dropout, _rate(0.999))
    num_classes: int = _setting(ClassifierConfig.num_classes, _num_classes)
    max_len: int = _setting(ClassifierConfig.max_len, _count())
    head_hidden: int = _setting(ClassifierConfig.head_hidden, _count())


@dataclass
class OptimizerSection:
    learning_rate: float = _setting(0.001, _positive)
    batch_size: int = _setting(32, _count())
    epochs: int = _setting(50, _count())


@dataclass
class HeadSection:
    epochs: int = _setting(200, _count())
    learning_rate: float = _setting(0.1, _positive)


@dataclass
class Word2VecSection:
    embed_dim: int = _setting(32, _count())
    window: int = _setting(5, _count())
    negatives: int = _setting(5, _count())
    epochs: int = _setting(5, _count())
    batch_size: int = _setting(128, _count())
    lr_start: float = _setting(0.025, _positive)
    lr_end: float = _setting(0.001, _positive)


@dataclass
class TranslatorSection:
    kind: str = _setting("mock", _choice("mock", "http"))
    mapping_path: str | None = _setting(None, _text_or_none)
    url: str | None = _setting(None, _text_or_none)
    api_key: str | None = _setting(None, _text_or_none)
    max_retries: int = _setting(3, _count(0))

    def __post_init__(self):
        # the environment fills in the endpoint and key a config leaves out
        self.url = self.url or os.environ.get("TLA_TRANSLATE_URL")
        self.api_key = self.api_key or os.environ.get("TLA_TRANSLATE_KEY")


@dataclass
class AugmentationSection:
    raw: dict = _setting(dict, _splits)
    build: tuple[str, ...] = _names("semi-noisy", "fully-translated")
    noise_probability: float = _setting(0.1, _rate())
    noise_operations: tuple[str, ...] = _names(*NOISE_OPERATIONS)
    translator: TranslatorSection = _setting(TranslatorSection)


@dataclass
class ExperimentConfig:
    model: str = _setting(check=_choice(*MODEL_KINDS))
    datasets: dict = _setting(dict, _splits)
    language: str = _setting("english", _text)
    classifier: ClassifierSection = _setting(ClassifierSection)
    optimizer: OptimizerSection = _setting(OptimizerSection)
    head: HeadSection = _setting(HeadSection, key="rejection_head")
    word2vec: Word2VecSection = _setting(Word2VecSection)
    augmentation: AugmentationSection = _setting(AugmentationSection)
    recon_weight: float = _setting(0.5, _rate(1e9))
    threshold: float = _setting(0.5, _rate())
    seed: int = _setting(0, _count(0))
    out_dir: str = _setting("runs/default", _text)

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

    def snapshot(self) -> dict:
        """The config as a JSON object that ``config_from_dict`` reads back, for
        manifests; the translator's API key is left out."""

        def unfold(obj):
            if is_dataclass(obj):
                return {_key(f): unfold(getattr(obj, f.name)) for f in fields(obj)}
            return list(obj) if isinstance(obj, tuple) else obj

        snap = unfold(self)
        snap["augmentation"]["translator"]["api_key"] = None
        snap["schema_version"] = SCHEMA_VERSION
        return snap


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a JSON object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    classifier = raw.get("classifier")
    for key, kept in REMOVED_OPTIONS.items():
        if isinstance(classifier, dict) and key in classifier:
            # says what the removed option became, where an unknown key would not
            raise ConfigError(f"classifier.{key}", f"was removed; every model now behaves as {kept!r} did")
    return _section(ExperimentConfig, {k: v for k, v in raw.items() if k != "schema_version"})


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a config file. Each override that is not None replaces its
    top-level key before the checks run, so it is checked as the file is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from None
    if isinstance(raw, dict):
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(raw)
