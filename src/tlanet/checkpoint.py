"""Versioned binary containers for model checkpoints and encoded dataset caches.

Layout: a 4-byte magic, a little-endian u32 format version, a u64 header
length, a JSON header (sorted keys), then the raw array payload in header
order. Arrays are dumped as little-endian bytes, so save/load round-trips
are bitwise exact.

Version 2 stores each LSTM layer as packed ``w_gates``/``u_gates``/``b_gates``
arrays. Version 1 stored twelve per-gate arrays per layer (``w_input``,
``u_input``, ``b_input``, ``w_forget``, ...); the loader packs those, and
the Adam moments saved beside them, so a v1 checkpoint still evaluates and
resumes. Dataset caches are the same in both versions.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .layers import GATES
from .models import MODEL_KINDS, REMOVED_OPTIONS, ClassifierConfig, build_model
from .text import Vocabulary
from .wisdomnet import WisdomNetHead
from .word2vec import Word2VecModel
from . import tensor as T

MODEL_MAGIC = b"TLAC"
DATASET_MAGIC = b"TLAD"
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

_DTYPES = {"f8": "<f8", "i8": "<i8"}


class ArtifactMismatch(RuntimeError):
    """A container's magic, version, or vocabulary hash does not match, or it is malformed."""


def _atomic_write(path, data: bytes) -> None:
    path = str(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_container(path, magic: bytes, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    names = [name for name, _ in arrays]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate array names in container: {names}")
    index = []
    blobs = []
    for name, arr in arrays:
        arr = np.asarray(arr)
        code = "i8" if arr.dtype.kind in "iu" else "f8"
        arr = arr.astype(_DTYPES[code], copy=False)
        index.append({"name": name, "shape": list(arr.shape), "dtype": code})
        blobs.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": index}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    parts = [magic, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(header)), header]
    parts.extend(blobs)
    _atomic_write(path, b"".join(parts))


def load_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by ``save_container`` (any readable version).

    Anything that does not parse as one (a cut file, a corrupt header, an
    array running past the end) raises ``ArtifactMismatch``.
    """
    return _read_container(path, magic)[1:]


def _read_container(path, magic: bytes) -> tuple[int, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != magic:
        raise ArtifactMismatch(f"{path}: not a {magic.decode()} container")
    version = struct.unpack("<I", data[4:8])[0]
    if version not in READABLE_VERSIONS:
        raise ArtifactMismatch(f"{path}: format version {version}, expected one of {READABLE_VERSIONS}")
    header_len = struct.unpack("<Q", data[8:16])[0]
    if 16 + header_len > len(data):
        raise ArtifactMismatch(f"{path}: header of {header_len} bytes runs past the end of the file")
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
        meta, entries = header["meta"], header["arrays"]
        offset = 16 + header_len
        arrays = {}
        for entry in entries:
            dtype = np.dtype(_DTYPES[entry["dtype"]])
            count = int(np.prod(entry["shape"], dtype=np.int64))
            nbytes = count * dtype.itemsize
            if count < 0 or offset + nbytes > len(data):
                raise ArtifactMismatch(f"{path}: array {entry['name']!r} runs past the end of the file")
            arr = np.frombuffer(data[offset:offset + nbytes], dtype=dtype).copy()
            arrays[entry["name"]] = arr.reshape(entry["shape"])
            offset += nbytes
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise ArtifactMismatch(f"{path}: corrupt container header ({type(exc).__name__}: {exc})") from None
    if offset != len(data):
        raise ArtifactMismatch(f"{path}: {len(data) - offset} trailing bytes")
    return version, meta, arrays


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CheckpointBundle:
    kind: str
    config: ClassifierConfig
    vocab: Vocabulary
    model: object  # a sequence model, or a Word2VecModel for word2vec-features
    head: WisdomNetHead | None
    meta: dict
    arrays: dict[str, np.ndarray]

    @property
    def vocab_hash(self) -> str:
        return self.meta["vocab_hash"]


def _v1_parts(name: str) -> list[str]:
    """The v1 arrays whose concatenation (in gate order) is the v2 array ``name``."""
    stem, _, leaf = name.rpartition(".")
    if leaf in ("w_gates", "u_gates", "b_gates"):
        return [f"{stem}.{leaf[0]}_{gate}" for gate in GATES]
    return [name]


def _v1_order(names: list[str]) -> list[str]:
    """v1 parameter names in v1 order, which also indexed the Adam moments.

    A v1 layer listed its arrays per gate (``w_input``, ``u_input``,
    ``b_input``, ``w_forget``, ...); v2 lists ``w_gates``, ``u_gates``,
    ``b_gates``.
    """
    order = []
    for name in names:
        stem, _, leaf = name.rpartition(".")
        if leaf == "w_gates":
            order += [f"{stem}.{kind}_{gate}" for gate in GATES for kind in "wub"]
        elif leaf not in ("u_gates", "b_gates"):
            order.append(name)
    return order


def _upgrade_v1(path, arrays: dict[str, np.ndarray], names: list[str]) -> dict[str, np.ndarray]:
    """Pack a v1 checkpoint's per-gate parameters and Adam moments into the v2 layout."""
    index = {name: i for i, name in enumerate(_v1_order(names))}
    moments = [kind for kind in "mv" if f"adam.{kind}.0" in arrays]
    moved = {f"adam.{kind}.{i}" for kind in moments for i in range(len(index))} | set(index)
    out = {key: arr for key, arr in arrays.items() if key not in moved}
    for j, name in enumerate(names):
        parts = _v1_parts(name)
        out[name] = np.concatenate([_array(arrays, part, path) for part in parts])
        for kind in moments:
            out[f"adam.{kind}.{j}"] = np.concatenate(
                [_array(arrays, f"adam.{kind}.{index[part]}", path) for part in parts])
    return out


def _vocab_meta(vocab: Vocabulary) -> dict:
    return {
        "id_to_token": vocab.id_to_token,
        "counts": vocab.counts,
        "max_size": vocab.max_size,
        "min_freq": vocab.min_freq,
    }


def _vocab_from_meta(meta: dict) -> Vocabulary:
    id_to_token = list(meta["id_to_token"])
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        counts={k: int(v) for k, v in meta["counts"].items()},
        max_size=int(meta["max_size"]),
        min_freq=int(meta["min_freq"]),
    )


def save_checkpoint(path, kind: str, config: ClassifierConfig, vocab: Vocabulary,
                    model, head: WisdomNetHead | None, extras: dict | None = None,
                    extra_arrays: list[tuple[str, np.ndarray]] | None = None) -> None:
    meta = {
        "kind": kind,
        "config": vars(config).copy(),
        "vocab": _vocab_meta(vocab),
        "vocab_hash": vocab.content_hash(),
        "extras": extras or {},
    }
    arrays: list[tuple[str, np.ndarray]] = []
    if kind == "word2vec-features":
        meta["w2v"] = {"embed_dim": model.embed_dim, "negatives": model.negatives,
                       "padding_idx": model.padding_idx}
        arrays.append(("w2v.w_in", model.w_in))
        arrays.append(("w2v.w_out", model.w_out))
        arrays.append(("w2v.sampling", model.sampling))
    else:
        for name, t in model.named_tensors():
            arrays.append((name, t.array))
    if head is not None:
        meta["head"] = {"threshold": head.threshold}
        arrays.append(("head.weights", head.weights.array))
        arrays.append(("head.bias", head.bias.array))
    for name, arr in extra_arrays or []:
        arrays.append((name, arr))
    save_container(path, MODEL_MAGIC, meta, arrays)


def _array(arrays: dict[str, np.ndarray], name: str, path) -> np.ndarray:
    if name not in arrays:
        raise ArtifactMismatch(f"{path}: missing array {name!r}")
    return arrays[name]


def _meta_field(meta, key: str, path, parse):
    """``parse(meta[key])``, with a missing or ill-typed value raised as ``ArtifactMismatch``."""
    try:
        return parse(meta[key])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactMismatch(f"{path}: meta {key!r} is missing or malformed "
                               f"({type(exc).__name__}: {exc})") from None


def _of_type(kind):
    def parse(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return parse


def _model_kind(value) -> str:
    if value not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {value!r}")
    return value


def _classifier_config(value, path) -> ClassifierConfig:
    """The stored config; checkpoints written before an option was removed hold
    its value, and load unchanged when that is the behaviour left."""
    c = dict(value)
    for key, kept in REMOVED_OPTIONS.items():
        stored = c.pop(key, kept)
        if stored != kept:
            raise ArtifactMismatch(f"{path}: checkpoint was trained with {key}={stored!r}, an option "
                                   f"that was removed; only {kept!r} checkpoints load")
    return ClassifierConfig(**c)


def load_checkpoint(path) -> CheckpointBundle:
    version, meta, arrays = _read_container(path, MODEL_MAGIC)
    kind = _meta_field(meta, "kind", path, _model_kind)
    config = _meta_field(meta, "config", path, lambda c: _classifier_config(c, path))
    vocab = _meta_field(meta, "vocab", path, _vocab_from_meta)
    vocab_hash = _meta_field(meta, "vocab_hash", path, _of_type(str))
    _meta_field(meta, "extras", path, _of_type(dict))
    if vocab.content_hash() != vocab_hash:
        raise ArtifactMismatch(f"{path}: stored vocabulary does not match its hash")
    if kind == "word2vec-features":
        w2v = _meta_field(meta, "w2v", path, lambda m: {
            key: int(m[key]) for key in ("embed_dim", "negatives", "padding_idx")})
        model = Word2VecModel(
            embed_dim=w2v["embed_dim"],
            negatives=w2v["negatives"],
            w_in=_array(arrays, "w2v.w_in", path).copy(),
            w_out=_array(arrays, "w2v.w_out", path).copy(),
            sampling=_array(arrays, "w2v.sampling", path).copy(),
            padding_idx=w2v["padding_idx"],
        )
    else:
        model = build_model(kind, config)
        if version == 1:
            arrays = _upgrade_v1(path, arrays, [name for name, _ in model.named_tensors()])
        for name, t in model.named_tensors():
            if name not in arrays:
                raise ArtifactMismatch(f"{path}: checkpoint missing parameter {name!r}")
            stored = arrays[name]
            if tuple(stored.shape) != t.shape:
                raise ArtifactMismatch(f"{path}: parameter {name!r} has shape "
                                       f"{tuple(stored.shape)}, expected {t.shape}")
            t.values[:] = stored.reshape(-1)
    head = None
    if "head" in meta:
        head = WisdomNetHead(
            T.Tensor(_array(arrays, "head.weights", path), requires_grad=True, name="head.w"),
            T.Tensor(_array(arrays, "head.bias", path), requires_grad=True, name="head.b"),
            _meta_field(meta, "head", path, lambda h: float(h["threshold"])),
        )
    return CheckpointBundle(kind, config, vocab, model, head, meta, arrays)


# ---------------------------------------------------------------------------
# encoded dataset caches
# ---------------------------------------------------------------------------


@dataclass
class DatasetCache:
    vocab_hash: str
    language: str
    tokens: np.ndarray  # (examples, max_len) int64
    labels: np.ndarray  # (examples,) int64
    example_ids: list[str]


def save_dataset_cache(path, vocab: Vocabulary, language: str,
                       tokens: np.ndarray, labels: np.ndarray, example_ids: list[str]) -> None:
    meta = {
        "vocab_hash": vocab.content_hash(),
        "language": language,
        "example_ids": list(example_ids),
    }
    save_container(path, DATASET_MAGIC, meta,
                   [("tokens", np.asarray(tokens, dtype=np.int64)),
                    ("labels", np.asarray(labels, dtype=np.int64))])


def load_dataset_cache(path) -> DatasetCache:
    """Read a cache; one that does not hold a non-empty (examples, steps) id
    matrix and one integer label per row raises ``ArtifactMismatch``."""
    meta, arrays = load_container(path, DATASET_MAGIC)
    tokens, labels = _array(arrays, "tokens", path), _array(arrays, "labels", path)
    if tokens.ndim != 2 or 0 in tokens.shape or labels.shape != tokens.shape[:1] \
            or tokens.dtype.kind != "i" or labels.dtype.kind != "i":
        raise ArtifactMismatch(f"{path}: tokens {tokens.shape} and labels {labels.shape} are not "
                               f"an (examples, steps) id matrix and one label per example")
    return DatasetCache(_meta_field(meta, "vocab_hash", path, _of_type(str)),
                        _meta_field(meta, "language", path, _of_type(str)), tokens, labels,
                        _meta_field(meta, "example_ids", path, _of_type(list)))
