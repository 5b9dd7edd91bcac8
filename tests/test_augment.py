"""Augmentation: noise edits, translation clients, corpus builders, reconciliation."""

import http.server
import json
import sys
import threading

import numpy as np
import pytest

from tlanet import augment as A
from tlanet.text import DatasetSplit, LabeledExample


def examples_of(label, n, language="english", prefix="raw"):
    return [LabeledExample(f"{prefix}-{label}-{i}", f"{label.lower()} token{i} tail", label,
                           language) for i in range(n)]


class TestNoise:
    def test_probability_zero_keeps_text(self):
        spec = A.NoiseSpec(probability=0.0, seed=1)
        src = examples_of("OAG", 5)
        out = A.noise_augment(src, spec)
        assert [e.text for e in out] == [e.text for e in src]
        assert all(e.provenance == "noise" for e in out)
        assert all(e.label == "OAG" for e in out)
        assert out[0].id == "raw-OAG-0#noise"

    def test_same_seed_identical(self):
        spec = A.NoiseSpec(probability=0.4, seed=9)
        src = examples_of("CAG", 20)
        a = A.noise_augment(src, spec)
        b = A.noise_augment(src, spec)
        assert [e.text for e in a] == [e.text for e in b]

    def test_hit_rate_matches_binomial(self):
        spec = A.NoiseSpec(probability=0.1, seed=3)
        tokens = [f"t{i}" for i in range(10_000)]
        _, hits = A.noise_tokens(tokens, spec, np.random.default_rng(3))
        n, p = len(tokens), 0.1
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) <= 3 * sigma

    def test_operations_validated(self):
        with pytest.raises(ValueError):
            A.NoiseSpec(operations=("shuffle-everything",))
        with pytest.raises(ValueError):
            A.NoiseSpec(probability=1.5)

    def test_duplicate_and_delete_change_length(self):
        dup = A.NoiseSpec(probability=1.0, operations=("duplicate",), seed=0)
        out, _ = A.noise_tokens(["a", "b"], dup, np.random.default_rng(0))
        assert out == ["a", "a", "b", "b"]
        dele = A.NoiseSpec(probability=1.0, operations=("delete",), seed=0)
        out, _ = A.noise_tokens(["a", "b"], dele, np.random.default_rng(0))
        assert out == []

    def test_swap_adjacent(self):
        swap = A.NoiseSpec(probability=1.0, operations=("swap-adjacent",), seed=0)
        out, _ = A.noise_tokens(["a", "b", "c", "d"], swap, np.random.default_rng(0))
        assert out == ["b", "a", "d", "c"]


class TestMockTranslator:
    def test_identity_map_retags_language(self):
        client = A.OfflineMockTranslator()
        src = examples_of("NAG", 3, language="bangla")
        out = A.translate_augment(src, client, "bangla", "english")
        assert len(out) == len(src)
        assert [e.text for e in out] == [e.text for e in src]
        assert all(e.language == "english" for e in out)
        assert all(e.provenance == "translated" for e in out)
        assert out[0].id.endswith("#tr-english")

    def test_token_mapping_applied(self):
        client = A.OfflineMockTranslator({"bangla->english": {"nag": "calm"}})
        src = [LabeledExample("1", "nag token0 tail", "NAG", "bangla")]
        out = A.translate_augment(src, client, "bangla", "english")
        assert out[0].text == "calm token0 tail"

    def test_never_returns_empty(self):
        client = A.OfflineMockTranslator({"x->y": {"word": ""}})
        assert client.translate("word", "x", "y") == "word"


class _Failing:
    def translate(self, text, src, dst):
        raise OSError("connection refused")


class _FailingOdd:
    """Fails on the examples ``examples_of`` numbered odd."""

    def translate(self, text, src, dst):
        if int(text.split()[1][len("token"):]) % 2:
            raise OSError("connection reset")
        return text


class _EmptyReturning:
    def translate(self, text, src, dst):
        return "  "


class TestTranslateFailures:
    def test_every_failed_id_listed(self):
        src = examples_of("OAG", 9, language="hindi")
        for jobs in (1, 2, 3, 20):
            with pytest.raises(A.AugmentationError) as err:
                A.translate_augment(src, _Failing(), "hindi", "english", jobs=jobs)
            assert sorted(err.value.failed_ids) == sorted(e.id for e in src)
            for ex in src:
                assert ex.id in str(err.value)
            with pytest.raises(A.AugmentationError) as err:
                A.translate_augment(src, _FailingOdd(), "hindi", "english", jobs=jobs)
            assert err.value.failed_ids == sorted(ex.id for ex in src[1::2])

    def test_empty_translation_is_failure(self):
        src = examples_of("NAG", 2)
        with pytest.raises(A.AugmentationError):
            A.translate_augment(src, _EmptyReturning(), "english", "english")

    def test_parallel_jobs_match_sequential(self):
        client = A.OfflineMockTranslator({"a->b": {"token1": "mapped", "cag": "x"}})
        for n in (0, 1, 2, 7):  # n < jobs runs more workers than there are examples
            src = examples_of("CAG", n, language="a")
            seq = A.translate_augment(src, client, "a", "b", jobs=1)
            for jobs in (2, 3):
                assert A.translate_augment(src, client, "a", "b", jobs=jobs) == seq

    def test_each_worker_translates_a_strided_share(self):
        class Recording:
            def __init__(self):
                self.thread_of = {}

            def translate(self, text, src, dst):
                self.thread_of[text] = threading.get_ident()
                return text

        client = Recording()
        src = examples_of("OAG", 8, language="a")
        A.translate_augment(src, client, "a", "b", jobs=3)
        threads = [client.thread_of[ex.text] for ex in src]
        assert len(set(threads)) <= 3
        assert all(threads[i] == threads[i % 3] for i in range(len(src)))

    def test_many_workers_under_frequent_thread_switches(self):
        client = A.OfflineMockTranslator({"a->b": {"tail": "end"}})
        src = examples_of("NAG", 500, language="a")
        seq = A.translate_augment(src, client, "a", "b", jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = A.translate_augment(src, client, "a", "b", jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert par == seq


class _TranslateHandler(http.server.BaseHTTPRequestHandler):
    fail_first = 0

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps({"translatedText": body["q"].upper()}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _TranslateHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate"
    server.shutdown()


class TestHttpTranslator:
    def test_round_trip(self, http_server):
        _TranslateHandler.fail_first = 0
        client = A.HttpTranslator(http_server, timeout=5)
        assert client.translate("hello there", "en", "en") == "HELLO THERE"

    def test_retry_then_succeed(self, http_server):
        _TranslateHandler.fail_first = 2
        client = A.HttpTranslator(http_server, timeout=5, max_retries=3, backoff=0.01)
        assert client.translate("retry me", "en", "en") == "RETRY ME"

    def test_exhausted_retries_raise(self, http_server):
        _TranslateHandler.fail_first = 99
        client = A.HttpTranslator(http_server, timeout=5, max_retries=1, backoff=0.01)
        with pytest.raises(A.AugmentationError, match="after 2 attempts"):
            client.translate("never", "en", "en")

    def test_unreachable_endpoint(self):
        client = A.HttpTranslator("http://127.0.0.1:9/translate", timeout=0.2,
                                  max_retries=0, backoff=0.01)
        with pytest.raises(A.AugmentationError):
            client.translate("x", "en", "en")


class TestSemiNoisyBuilder:
    def test_reaches_targets_exactly(self):
        raw = {"english": DatasetSplit("en", examples_of("NAG", 10) +
                                       examples_of("OAG", 3) + examples_of("CAG", 2))}
        pool = ([e for e in examples_of("OAG", 7, prefix="aug")] +
                [e for e in examples_of("CAG", 8, prefix="aug")])
        pool = [LabeledExample(e.id, e.text, e.label, "english", "noise") for e in pool]
        targets = A.AugmentationTargets({"english": {"NAG": 0, "OAG": 5, "CAG": 8}})
        combined = A.build_semi_noisy(raw, pool, targets)
        assert combined["english"].tally() == {"NAG": 10, "OAG": 8, "CAG": 10}

    def test_shortfall_reported_per_class(self):
        raw = {"english": DatasetSplit("en", examples_of("NAG", 2) +
                                       examples_of("OAG", 2) + examples_of("CAG", 2))}
        pool = [LabeledExample("p1", "x", "OAG", "english", "noise")]
        targets = A.AugmentationTargets({"english": {"OAG": 5, "CAG": 3}})
        with pytest.raises(A.AugmentationError, match="OAG: need 5, have 1") as err:
            A.build_semi_noisy(raw, pool, targets)
        assert "CAG: need 3, have 0" in str(err.value)
        assert err.value.shortfalls

    def test_reference_targets_match_published_deltas(self):
        targets = A.AugmentationTargets.reference()
        assert targets.added["english"] == {"NAG": 0, "OAG": 1798, "CAG": 2111}
        assert targets.added["hindi"] == {"NAG": 0, "OAG": 2668, "CAG": 900}
        assert targets.added["bangla"] == {"NAG": 0, "OAG": 1061, "CAG": 1116}

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            A.AugmentationTargets({"english": {"OAG": -1}})


class TestFullyTranslatedBuilder:
    def small_splits(self):
        def split(lang, spec):
            exs = []
            for label, n in spec.items():
                exs.extend(examples_of(label, n, language=lang, prefix=lang))
            return DatasetSplit(lang, exs)

        return (split("bangla", {"NAG": 4, "OAG": 3, "CAG": 2}),
                split("bangla", {"NAG": 2, "OAG": 1, "CAG": 1}),
                split("hindi", {"NAG": 5, "OAG": 2, "CAG": 3}),
                split("hindi", {"NAG": 1, "OAG": 2, "CAG": 2}))

    def test_source_enumeration(self):
        b_tr, b_te, h_tr, h_te = self.small_splits()
        out = A.build_fully_translated(b_tr, b_te, h_tr, h_te, A.OfflineMockTranslator())
        # NAG from the two training splits only; OAG/CAG from all four
        assert out.tally() == {"NAG": 4 + 5, "OAG": 3 + 1 + 2 + 2, "CAG": 2 + 1 + 3 + 2}
        assert all(e.language == "english" for e in out.examples)
        assert all(e.provenance == "translated" for e in out.examples)

    def test_published_enumeration_totals(self):
        implied = A.translated_enumeration_totals()
        assert implied == {"NAG": 2245 + 2078, "OAG": 829 + 211 + 898 + 218,
                           "CAG": 910 + 208 + 850 + 217}
        assert implied["OAG"] == A.TRANSLATED_TRAIN_COUNTS["OAG"] == 2156
        assert implied["CAG"] == A.TRANSLATED_TRAIN_COUNTS["CAG"] == 2185
        assert implied["NAG"] == 4323 != A.TRANSLATED_TRAIN_COUNTS["NAG"]


class TestReconciliation:
    def test_translated_nag_gap_flagged(self):
        split = DatasetSplit("x", examples_of("NAG", 3) + examples_of("OAG", 2) +
                             examples_of("CAG", 1))
        report = A.reconcile_translated(split)
        nag_row = next(r for r in report.rows if r["label"] == "NAG")
        assert "4323" in nag_row["note"] and "4373" in nag_row["note"]
        oag_row = next(r for r in report.rows if r["label"] == "OAG")
        assert oag_row["note"] == ""

    def test_semi_noisy_english_cag_gap_flagged(self):
        targets = A.AugmentationTargets.reference()
        combined = {"english": DatasetSplit("en", examples_of("NAG", 1))}
        report = A.reconcile_semi_noisy(combined, targets)
        cag_row = next(r for r in report.rows if r["label"] == "CAG")
        assert "2093" in cag_row["note"] and "2111" in cag_row["note"]

    def test_render_text_contains_rows_and_notes(self):
        report = A.ReconciliationReport()
        report.add_row("semi-noisy", "english", "NAG", 5, 5)
        report.notes.append("sample note")
        text = report.render_text()
        assert "semi-noisy" in text and "sample note" in text

    def test_discrepancies_listed(self):
        report = A.ReconciliationReport()
        report.add_row("c", "l", "NAG", 5, 5)
        report.add_row("c", "l", "OAG", 4, 5)
        assert len(report.discrepancies) == 1
