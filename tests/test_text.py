"""Text pipeline: tokenizer golden rules, vocabulary, padding, corpus ingestion."""

import unicodedata

import numpy as np
import pytest

from tlanet import text as TXT
from tlanet.augment import RAW_COUNTS


class TestTokenizer:
    def test_empty(self):
        assert TXT.tokenize("") == []

    def test_golden_rules(self):
        # frozen contract: lowercase, delete unicode punctuation, split whitespace
        assert TXT.tokenize("She is NOT ok.") == ["she", "is", "not", "ok"]
        assert TXT.tokenize("don't SHOUT!!") == ["dont", "shout"]
        assert TXT.tokenize("a\tb\nc   d") == ["a", "b", "c", "d"]
        assert TXT.tokenize("well...done, friend?") == ["welldone", "friend"]

    def test_devanagari_passthrough(self):
        # the danda is punctuation; the letters must survive untouched
        assert TXT.tokenize("यह अच्छा है।") == ["यह", "अच्छा", "है"]

    def test_bengali_passthrough(self):
        assert TXT.tokenize("এটা ভালো।") == ["এটা", "ভালো"]

    def test_only_punctuation(self):
        assert TXT.tokenize("!!! ... ???") == []

    @staticmethod
    def per_character(text):
        """The frozen rule spelled out one character at a time."""
        lowered = text.lower()
        kept = [ch for ch in lowered if not unicodedata.category(ch).startswith("P")]
        return "".join(kept).split()

    def test_matches_per_character_rule_on_every_bmp_code_point(self):
        points = [chr(c) for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
        for ch in points:
            text = f"a{ch}b {ch}"
            assert TXT.tokenize(text) == self.per_character(text), hex(ord(ch))
        everything = "".join(points)
        assert TXT.tokenize(everything) == self.per_character(everything)

    def test_danda_deleted_as_punctuation(self):
        for text in ("আমি ভাত খাই।", "मैं ठीक हूँ। तुम?", "।।"):
            assert TXT.tokenize(text) == self.per_character(text)
        assert TXT.tokenize("আমি।ভাত") == ["আমিভাত"]


class TestVocabulary:
    def test_reserved_ids_and_ranking(self):
        vocab = TXT.build_vocab([["a", "a", "b"]], max_size=10)
        assert vocab.id_to_token[:2] == [TXT.PAD_TOKEN, TXT.UNK_TOKEN]
        assert vocab.token_to_id == {TXT.PAD_TOKEN: 0, TXT.UNK_TOKEN: 1, "a": 2, "b": 3}

    def test_unseen_maps_to_unk(self):
        vocab = TXT.build_vocab([["a"]], max_size=10)
        assert vocab.encode(["zzz"]) == [TXT.UNK_ID]

    def test_permuted_corpora_identical(self):
        docs = [["c", "a"], ["b", "a", "c"], ["a"]]
        a = TXT.build_vocab(docs, max_size=10)
        b = TXT.build_vocab(list(reversed([list(reversed(d)) for d in docs])), max_size=10)
        assert a.id_to_token == b.id_to_token
        assert a.content_hash() == b.content_hash()

    def test_frequency_then_lexicographic(self):
        vocab = TXT.build_vocab([["b", "b", "c", "a", "c"]], max_size=10)
        assert vocab.id_to_token[2:] == ["b", "c", "a"]

    def test_max_size_and_min_freq(self):
        docs = [["a"] * 5 + ["b"] * 3 + ["c"]]
        capped = TXT.build_vocab(docs, max_size=3)
        assert capped.size == 3 and capped.id_to_token[2] == "a"
        filtered = TXT.build_vocab(docs, max_size=10, min_freq=2)
        assert "c" not in filtered.token_to_id

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            TXT.build_vocab([["a"]], max_size=1)

    def test_hash_changes_with_content(self):
        a = TXT.build_vocab([["a"]], max_size=10)
        b = TXT.build_vocab([["b"]], max_size=10)
        assert a.content_hash() != b.content_hash()


class TestEncodePad:
    def test_empty_becomes_all_pad(self):
        vocab = TXT.build_vocab([["a"]], max_size=10)
        assert TXT.encode_and_pad(vocab, [], 4) == [0, 0, 0, 0]

    def test_truncation_keeps_head(self):
        vocab = TXT.build_vocab([["t0", "t1", "t2", "t3", "t4", "t5"]], max_size=10)
        tokens = ["t0", "t1", "t2", "t3", "t4", "t5"]
        ids = TXT.encode_and_pad(vocab, tokens, 4)
        assert len(ids) == 4
        assert vocab.decode(ids) == tokens[:4]

    def test_round_trip_in_vocab_tokens(self):
        vocab = TXT.build_vocab([["alpha", "beta", "gamma"]], max_size=10)
        tokens = ["beta", "alpha"]
        ids = TXT.encode_and_pad(vocab, tokens, 5)
        decoded = [t for t in vocab.decode(ids) if t != TXT.PAD_TOKEN]
        assert decoded == tokens

    def test_length_always_max_len(self):
        rng = np.random.default_rng(0)
        vocab = TXT.build_vocab([["x", "y"]], max_size=10)
        for _ in range(20):
            n = int(rng.integers(0, 12))
            ids = TXT.encode_and_pad(vocab, ["x"] * n, 6)
            assert len(ids) == 6


class TestIdMatrix:
    """``encode`` and ``pad_id_lists`` against the per-token and per-row paths they replaced."""

    def test_same_matrix_as_padding_each_row(self):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(30)]
        vocab = TXT.build_vocab([words[:20]], max_size=15)
        for max_len in (1, 4, 12):
            # empty lists, lists shorter than, as long as and longer than max_len
            token_lists = [list(rng.choice(words, int(rng.integers(0, 2 * max_len + 2))))
                           for _ in range(40)] + [[]]
            encoded = [vocab.encode(tokens) for tokens in token_lists]
            assert encoded == [[vocab.token_to_id.get(t, TXT.UNK_ID) for t in tokens]
                               for tokens in token_lists]
            want = np.asarray([TXT.pad_ids(ids, max_len) for ids in encoded], dtype=np.int64)
            got = TXT.pad_id_lists(iter(encoded), max_len)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(TXT.encode_token_lists(vocab, token_lists, max_len), want)

    def test_edge_shapes(self):
        assert TXT.pad_id_lists([], 4).shape == (0,)
        assert TXT.pad_id_lists([[], []], 3).tolist() == [[0, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError, match="max_len"):
            TXT.pad_id_lists([[2]], 0)


def write_counts_csv(path, counts, prefix="x"):
    rows = ["id,text,label"]
    for label, n in counts.items():
        for i in range(n):
            rows.append(f"{prefix}-{label}-{i},some {label.lower()} text {i},{label}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestLoadTrac2:
    def test_reference_counts_english_training(self, tmp_path):
        path = tmp_path / "english_train.csv"
        write_counts_csv(path, RAW_COUNTS[("english", "training")])
        split = TXT.load_trac2(path, language="english")
        assert split.tally() == {"NAG": 3375, "OAG": 453, "CAG": 435}
        assert len(split) == 4263

    def test_reference_counts_hindi_testing(self, tmp_path):
        path = tmp_path / "hindi_test.csv"
        write_counts_csv(path, RAW_COUNTS[("hindi", "testing")])
        split = TXT.load_trac2(path, language="hindi")
        assert split.tally() == {"NAG": 578, "OAG": 211, "CAG": 208}
        assert len(split) == 997

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text,label\n1,hello,NAG\n2,world,XAG\n", encoding="utf-8")
        with pytest.raises(TXT.DataFormatError, match="line 3.*XAG"):
            TXT.load_trac2(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TXT.load_trac2(tmp_path / "absent.csv")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,text,label\n1,hello,NAG\n2,NAG\n", encoding="utf-8")
        with pytest.raises(TXT.DataFormatError, match="line 3"):
            TXT.load_trac2(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("id,text\n1,hello\n", encoding="utf-8")
        with pytest.raises(TXT.DataFormatError, match="label"):
            TXT.load_trac2(path)

    def test_quoted_fields_and_unicode(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('id,text,label\n1,"with, comma",NAG\n2,"বাংলা টেক্সট",OAG\n',
                        encoding="utf-8")
        split = TXT.load_trac2(path, language="bangla")
        assert split.examples[0].text == "with, comma"
        assert split.examples[1].text == "বাংলা টেক্সট"
        assert split.examples[0].language == "bangla"

    def test_provenance_column_round_trip(self, tmp_path):
        exs = [TXT.LabeledExample("a", "hello there", "NAG", "english", "noise")]
        path = tmp_path / "prov.csv"
        TXT.write_corpus(path, exs)
        loaded = TXT.load_trac2(path)
        assert loaded.examples[0].provenance == "noise"
        assert loaded.examples[0].language == "english"


class TestStratifiedSplit:
    def make_split(self, per_class):
        exs = []
        for label, n in per_class.items():
            for i in range(n):
                exs.append(TXT.LabeledExample(f"{label}{i}", f"text {i}", label))
        return TXT.DatasetSplit("src", exs)

    def test_exact_70_30(self):
        split = self.make_split({"NAG": 100, "OAG": 100, "CAG": 100})
        train, val = TXT.stratified_split(split, 0.7, seed=0)
        assert train.tally() == {"NAG": 70, "OAG": 70, "CAG": 70}
        assert val.tally() == {"NAG": 30, "OAG": 30, "CAG": 30}

    def test_same_seed_same_membership(self):
        split = self.make_split({"NAG": 13, "OAG": 9, "CAG": 21})
        a_train, a_val = TXT.stratified_split(split, 0.7, seed=5)
        b_train, b_val = TXT.stratified_split(split, 0.7, seed=5)
        assert [e.id for e in a_train.examples] == [e.id for e in b_train.examples]
        assert [e.id for e in a_val.examples] == [e.id for e in b_val.examples]

    def test_partition(self):
        split = self.make_split({"NAG": 11, "OAG": 7, "CAG": 5})
        train, val = TXT.stratified_split(split, 0.7, seed=1)
        train_ids = {e.id for e in train.examples}
        val_ids = {e.id for e in val.examples}
        assert train_ids | val_ids == {e.id for e in split.examples}
        assert not train_ids & val_ids

    def test_proportions_within_one(self):
        split = self.make_split({"NAG": 17, "OAG": 23, "CAG": 8})
        train, _ = TXT.stratified_split(split, 0.7, seed=2)
        for label, n in split.tally().items():
            assert abs(train.tally()[label] - 0.7 * n) <= 1.0

    def test_tiny_class_rejected(self):
        split = self.make_split({"NAG": 5, "OAG": 5, "CAG": 1})
        with pytest.raises(ValueError, match="CAG"):
            TXT.stratified_split(split, 0.7, seed=0)
