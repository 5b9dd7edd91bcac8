"""Versioned binary containers for model checkpoints and encoded dataset caches.

Layout: a 4-byte magic, a little-endian u32 format version, a u64 header
length, a JSON header (sorted keys), then the raw array payload in header
order. Arrays are dumped as little-endian bytes, so save/load round-trips
are bitwise exact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .models import ClassifierConfig, build_model
from .text import Vocabulary
from .wisdomnet import WisdomNetHead
from .word2vec import Word2VecModel
from . import tensor as T

MODEL_MAGIC = b"TLAC"
DATASET_MAGIC = b"TLAD"
FORMAT_VERSION = 1

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
    """Read a container written by ``save_container``.

    Anything that does not parse as one (a cut file, a corrupt header, an
    array running past the end) raises ``ArtifactMismatch``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != magic:
        raise ArtifactMismatch(f"{path}: not a {magic.decode()} container")
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise ArtifactMismatch(f"{path}: format version {version}, expected {FORMAT_VERSION}")
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
    return meta, arrays


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


def load_checkpoint(path) -> CheckpointBundle:
    meta, arrays = load_container(path, MODEL_MAGIC)
    config = ClassifierConfig(**meta["config"])
    vocab = _vocab_from_meta(meta["vocab"])
    if vocab.content_hash() != meta["vocab_hash"]:
        raise ArtifactMismatch(f"{path}: stored vocabulary does not match its hash")
    kind = meta["kind"]
    if kind == "word2vec-features":
        model = Word2VecModel(
            embed_dim=int(meta["w2v"]["embed_dim"]),
            negatives=int(meta["w2v"]["negatives"]),
            w_in=arrays["w2v.w_in"].copy(),
            w_out=arrays["w2v.w_out"].copy(),
            sampling=arrays["w2v.sampling"].copy(),
            padding_idx=int(meta["w2v"]["padding_idx"]),
        )
    else:
        model = build_model(kind, config)
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
            T.Tensor(arrays["head.weights"], requires_grad=True, name="head.w"),
            T.Tensor(arrays["head.bias"], requires_grad=True, name="head.b"),
            float(meta["head"]["threshold"]),
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
    meta, arrays = load_container(path, DATASET_MAGIC)
    return DatasetCache(meta["vocab_hash"], meta["language"], arrays["tokens"],
                        arrays["labels"], list(meta["example_ids"]))
