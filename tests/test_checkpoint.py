"""Checkpoint containers: bitwise round-trips, hash guards, cache compatibility, v1 checkpoints."""

import json
import pathlib
import struct

import numpy as np
import pytest

from tlanet import checkpoint as CK
from tlanet import models as M
from tlanet import text as TXT
from tlanet import wisdomnet as W
from tlanet import tensor as T


def make_vocab():
    return TXT.build_vocab([["alpha", "beta", "gamma", "delta"]], max_size=20)


def make_model(vocab, kind="lstm", seed=3):
    cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=4, hidden_size=4,
                             num_layers=1, dropout=0.0, num_classes=3, max_len=5,
                             seed=seed, head_hidden=4)
    return M.build_model(kind, cfg), cfg


def make_head(dim=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return W.WisdomNetHead(
        T.Tensor(rng.uniform(-1, 1, (classes, dim)), requires_grad=True),
        T.Tensor(rng.uniform(-1, 1, classes), requires_grad=True),
        0.5,
    )


class TestContainer:
    def test_round_trip_meta_and_arrays(self, tmp_path):
        path = tmp_path / "box.bin"
        arrays = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.array([1, 2, 3]))]
        CK.save_container(path, CK.MODEL_MAGIC, {"note": "hi"}, arrays)
        meta, loaded = CK.load_container(path, CK.MODEL_MAGIC)
        assert meta == {"note": "hi"}
        assert np.array_equal(loaded["a"], arrays[0][1])
        assert loaded["b"].dtype.kind == "i"

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {}, [])
        with pytest.raises(CK.ArtifactMismatch, match="TLAD"):
            CK.load_container(path, CK.DATASET_MAGIC)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {}, [("x", np.ones(4))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CK.ArtifactMismatch, match="past the end"):
            CK.load_container(path, CK.MODEL_MAGIC)

    def test_header_length_past_end(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {"note": "hi"}, [("x", np.ones(4))])
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CK.ArtifactMismatch, match="header"):
            CK.load_container(path, CK.MODEL_MAGIC)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {}, [("x", np.ones(4))])
        path.write_bytes(path.read_bytes().replace(b'"dtype":"f8"', b'"dtype":"q8"'))
        with pytest.raises(CK.ArtifactMismatch, match="corrupt"):
            CK.load_container(path, CK.MODEL_MAGIC)

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            CK.save_container(tmp_path / "d.bin", CK.MODEL_MAGIC, {},
                              [("x", np.ones(1)), ("x", np.ones(1))])


class TestModelCheckpoint:
    def test_bitwise_round_trip(self, tmp_path):
        vocab = make_vocab()
        model, cfg = make_model(vocab)
        head = make_head()
        p1 = tmp_path / "one.tlac"
        CK.save_checkpoint(p1, "lstm", cfg, vocab, model, head, extras={"epochs_trained": 3})
        bundle = CK.load_checkpoint(p1)
        p2 = tmp_path / "two.tlac"
        CK.save_checkpoint(p2, bundle.kind, bundle.config, bundle.vocab, bundle.model,
                           bundle.head, extras=bundle.meta["extras"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_restored_exactly(self, tmp_path):
        vocab = make_vocab()
        model, cfg = make_model(vocab, kind="tla-net")
        head = make_head()
        path = tmp_path / "m.tlac"
        CK.save_checkpoint(path, "tla-net", cfg, vocab, model, head)
        bundle = CK.load_checkpoint(path)
        for (name_a, t_a), (name_b, t_b) in zip(model.named_tensors(),
                                                bundle.model.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(t_a.values, t_b.values)
        assert bundle.head.threshold == 0.5
        assert np.array_equal(bundle.head.weights.array, head.weights.array)

    def test_same_predictions_after_reload(self, tmp_path):
        vocab = make_vocab()
        model, cfg = make_model(vocab, kind="lstm-ae", seed=9)
        path = tmp_path / "ae.tlac"
        CK.save_checkpoint(path, "lstm-ae", cfg, vocab, model, make_head())
        bundle = CK.load_checkpoint(path)
        probs_a, _, recon_a = model.predict_batch([[2, 3, 4]], reconstruct=True)
        probs_b, _, recon_b = bundle.model.predict_batch([[2, 3, 4]], reconstruct=True)
        assert np.array_equal(probs_a, probs_b)
        assert recon_a is not None and np.array_equal(recon_a, recon_b)

    def test_vocab_hash_guard(self, tmp_path):
        vocab = make_vocab()
        model, cfg = make_model(vocab)
        path = tmp_path / "m.tlac"
        CK.save_checkpoint(path, "lstm", cfg, vocab, model, None)
        data = bytearray(path.read_bytes())
        needle = b'"alpha"'
        pos = data.rfind(needle)  # the id_to_token entry, not the counts key
        data[pos:pos + len(needle)] = b'"alpho"'
        path.write_bytes(bytes(data))
        with pytest.raises(CK.ArtifactMismatch, match="hash"):
            CK.load_checkpoint(path)

    def test_word2vec_checkpoint(self, tmp_path):
        from tlanet.word2vec import Word2VecModel
        vocab = make_vocab()
        counts = np.array([float(vocab.count_of(i)) for i in range(vocab.size)])
        model = Word2VecModel.init(vocab.size, 4, counts, negatives=3, seed=1)
        cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=4, max_len=5)
        path = tmp_path / "w2v.tlac"
        CK.save_checkpoint(path, "word2vec-features", cfg, vocab, model, make_head())
        bundle = CK.load_checkpoint(path)
        assert np.array_equal(bundle.model.w_in, model.w_in)
        assert np.array_equal(bundle.model.sampling, model.sampling)
        assert bundle.model.negatives == 3


class TestDatasetCache:
    def test_round_trip_and_hash(self, tmp_path):
        vocab = make_vocab()
        tokens = np.array([[2, 3, 0], [4, 5, 2]])
        labels = np.array([0, 2])
        path = tmp_path / "cache.tlad"
        CK.save_dataset_cache(path, vocab, "english", tokens, labels, ["a", "b"])
        cache = CK.load_dataset_cache(path)
        assert cache.vocab_hash == vocab.content_hash()
        assert cache.language == "english"
        assert np.array_equal(cache.tokens, tokens)
        assert np.array_equal(cache.labels, labels)
        assert cache.example_ids == ["a", "b"]

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "cache.tlad"
        CK.save_dataset_cache(path, vocab, "english", np.zeros((1, 2), dtype=np.int64),
                              np.zeros(1, dtype=np.int64), ["x"])
        assert [p.name for p in tmp_path.iterdir()] == ["cache.tlad"]


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def set_version(path, version):
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(data))


class TestFormatVersions:
    def test_writes_version_2(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {}, [])
        assert CK.FORMAT_VERSION == 2
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)

    def test_v1_dataset_cache_loads_unchanged(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "cache.tlad"
        CK.save_dataset_cache(path, vocab, "english", np.array([[2, 3]]), np.array([1]), ["a"])
        set_version(path, 1)
        cache = CK.load_dataset_cache(path)
        assert np.array_equal(cache.tokens, [[2, 3]])
        assert cache.vocab_hash == vocab.content_hash()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "box.bin"
        CK.save_container(path, CK.MODEL_MAGIC, {}, [])
        set_version(path, 3)
        with pytest.raises(CK.ArtifactMismatch, match="format version 3"):
            CK.load_container(path, CK.MODEL_MAGIC)


class TestV1Checkpoint:
    """A TLA-Net checkpoint written by the per-gate (v1) code, and its predictions.

    The predictions of the two token rows that end in pads were recorded
    again when each comment came to run only its real steps; the full-length
    row's are those the v1 code made.
    """

    def expected(self):
        return json.loads((FIXTURES / "tla_net_v1.json").read_text())

    def test_reproduces_v1_predictions(self):
        bundle = CK.load_checkpoint(FIXTURES / "tla_net_v1.tlac")
        want = self.expected()
        probs, feats, recon = bundle.model.predict_batch(np.array(want["tokens"]),
                                                         reconstruct=True)
        assert np.abs(probs - want["probs"]).max() <= 1e-12
        assert np.abs(feats - want["features"]).max() <= 1e-12
        assert np.abs(recon - want["recon_per_example"]).max() <= 1e-12

    def test_gates_and_adam_moments_packed(self):
        bundle = CK.load_checkpoint(FIXTURES / "tla_net_v1.tlac")
        _, v1 = CK.load_container(FIXTURES / "tla_net_v1.tlac", CK.MODEL_MAGIC)
        names = [name for name, _ in bundle.model.named_tensors()]
        # v1 listed each layer per gate: w_input, u_input, b_input, w_forget, ...
        v1_index = {}
        for name in names:
            stem, _, leaf = name.rpartition(".")
            if leaf == "w_gates":
                for gate in ("input", "forget", "output", "candidate"):
                    for kind in "wub":
                        v1_index[f"{stem}.{kind}_{gate}"] = len(v1_index)
            elif leaf not in ("u_gates", "b_gates"):
                v1_index[name] = len(v1_index)
        assert len(v1_index) == sum(1 for key in v1 if key.startswith("adam.m."))
        j = names.index("dec1.s2.l1.u_gates")
        hidden = bundle.config.hidden_size
        for g, gate in enumerate(("input", "forget", "output", "candidate")):
            rows = slice(g * hidden, (g + 1) * hidden)
            part = f"dec1.s2.l1.u_{gate}"
            assert np.array_equal(bundle.model.named_tensors()[j][1].array[rows], v1[part])
            flat = slice(g * hidden * hidden, (g + 1) * hidden * hidden)
            assert np.array_equal(bundle.arrays[f"adam.m.{j}"][flat], v1[f"adam.m.{v1_index[part]}"])
            assert np.array_equal(bundle.arrays[f"adam.v.{j}"][flat], v1[f"adam.v.{v1_index[part]}"])

    def test_missing_gate_array_rejected(self, tmp_path):
        meta, arrays = CK.load_container(FIXTURES / "tla_net_v1.tlac", CK.MODEL_MAGIC)
        del arrays["enc2.s1.l0.b_output"]
        path = tmp_path / "cut.tlac"
        CK.save_container(path, CK.MODEL_MAGIC, meta, list(arrays.items()))
        set_version(path, 1)
        with pytest.raises(CK.ArtifactMismatch, match="enc2.s1.l0.b_output"):
            CK.load_checkpoint(path)


def checkpoint_with_head(path, kind="lstm"):
    vocab = make_vocab()
    if kind == "word2vec-features":
        from tlanet.word2vec import Word2VecModel
        counts = np.array([float(vocab.count_of(i)) for i in range(vocab.size)])
        model = Word2VecModel.init(vocab.size, 4, counts, negatives=3, seed=1)
        cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=4, max_len=5)
    else:
        model, cfg = make_model(vocab, kind=kind)
    CK.save_checkpoint(path, kind, cfg, vocab, model, make_head(), extras={"epochs_trained": 1})
    return path


# (meta key, how to break it, the kind of checkpoint that reads it)
BAD_META = [
    ("config", None, "lstm"),
    ("config", {"vocab_size": 5, "bogus": 1}, "lstm"),
    ("vocab", None, "lstm"),
    ("vocab", {"id_to_token": ["a"], "counts": [], "max_size": 1, "min_freq": 1}, "lstm"),
    ("vocab_hash", 12345, "lstm"),
    ("kind", None, "lstm"),
    ("kind", "transformer", "lstm"),
    ("w2v", None, "word2vec-features"),
    ("w2v", {"embed_dim": "four", "negatives": 3, "padding_idx": 0}, "word2vec-features"),
    ("head", {"level": 0.5}, "lstm"),
    ("extras", [1], "lstm"),
]


def break_meta(path, key, value):
    """Re-save a checkpoint with ``meta[key]`` removed (``value`` None) or replaced."""
    meta, arrays = CK.load_container(path, CK.MODEL_MAGIC)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    CK.save_container(path, CK.MODEL_MAGIC, meta, list(arrays.items()))


class TestCheckpointMeta:
    @pytest.mark.parametrize("key,value,kind", BAD_META)
    def test_missing_or_ill_typed_key_rejected(self, tmp_path, key, value, kind):
        path = checkpoint_with_head(tmp_path / "m.tlac", kind)
        break_meta(path, key, value)
        with pytest.raises(CK.ArtifactMismatch, match=repr(key)):
            CK.load_checkpoint(path)

    def test_checkpoint_written_with_class_tap(self, tmp_path):
        # checkpoints from before the option was removed hold "fused", which loads
        path = checkpoint_with_head(tmp_path / "m.tlac", "tla-net")
        bundle = CK.load_checkpoint(path)
        assert "class_tap" not in bundle.meta["config"]
        tokens = np.array([[2, 3, 4], [5, 1, 0]])
        break_meta(path, "config", {**bundle.meta["config"], "class_tap": "fused"})
        old = CK.load_checkpoint(path)
        assert old.config == bundle.config
        assert np.array_equal(old.model.predict_batch(tokens)[0],
                              bundle.model.predict_batch(tokens)[0])
        break_meta(path, "config", {**bundle.meta["config"], "class_tap": "reconstruction"})
        with pytest.raises(CK.ArtifactMismatch, match="class_tap='reconstruction'") as err:
            CK.load_checkpoint(path)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("key,kept,other", [("recon_mode", "mse", "bce"),
                                                ("encoder_views", "shared", "dropout")])
    def test_checkpoint_written_with_removed_option(self, tmp_path, key, kept, other):
        # checkpoints from before the option was removed hold its old default, which loads
        path = checkpoint_with_head(tmp_path / "m.tlac", "tla-net")
        bundle = CK.load_checkpoint(path)
        assert key not in bundle.meta["config"]
        tokens = np.array([[2, 3, 4], [5, 1, 0]])
        break_meta(path, "config", {**bundle.meta["config"], key: kept})
        old = CK.load_checkpoint(path)
        assert old.config == bundle.config
        assert np.array_equal(old.model.predict_batch(tokens)[0],
                              bundle.model.predict_batch(tokens)[0])
        break_meta(path, "config", {**bundle.meta["config"], key: other})
        with pytest.raises(CK.ArtifactMismatch, match=f"{key}={other!r}") as err:
            CK.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def test_missing_head_array_rejected(self, tmp_path):
        path = checkpoint_with_head(tmp_path / "m.tlac")
        meta, arrays = CK.load_container(path, CK.MODEL_MAGIC)
        del arrays["head.bias"]
        CK.save_container(path, CK.MODEL_MAGIC, meta, list(arrays.items()))
        with pytest.raises(CK.ArtifactMismatch, match="head.bias"):
            CK.load_checkpoint(path)
