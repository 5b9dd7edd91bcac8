"""Command surface: artifacts, determinism, resume, exit codes."""

import csv
import json
import os
import pathlib

import numpy as np
import pytest

from tlanet import checkpoint as CK
from tlanet import cli
from tlanet import gradcheck as GC
from tlanet import models as M
from tlanet import tensor as T
from tlanet import text as TXT
from tlanet import wisdomnet as W
from tlanet.word2vec import Word2VecModel

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def small_config(tmp_path, model="lstm", epochs=4, seed=11, name="config.json", **extra):
    cfg = {
        "schema_version": 1,
        "model": model,
        "language": "english",
        "datasets": {"english": {"train": "builtin:synthetic-train",
                                 "test": "builtin:synthetic-test"}},
        "classifier": {"max_vocab": 200, "min_freq": 1, "embed_dim": 8,
                       "hidden_size": 8, "num_layers": 1, "dropout": 0.1,
                       "num_classes": 3, "max_len": 12, "head_hidden": 8},
        "optimizer": {"learning_rate": 0.003, "batch_size": 32, "epochs": epochs},
        "rejection_head": {"epochs": 100, "learning_rate": 0.1},
        "recon_weight": 0.5,
        "threshold": 0.5,
        "seed": seed,
        "out_dir": str(tmp_path / "run"),
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path, cfg


def tiny_checkpoint(path, kind="lstm"):
    """An untrained checkpoint with a rejection head, written without training."""
    vocab = TXT.build_vocab([["alpha", "beta", "gamma"]], max_size=20)
    cfg = M.ClassifierConfig(vocab_size=vocab.size, embed_dim=4, hidden_size=4, num_layers=1,
                             dropout=0.0, max_len=12, head_hidden=4)
    if kind == "word2vec-features":
        counts = np.array([float(vocab.count_of(i)) for i in range(vocab.size)])
        model = Word2VecModel.init(vocab.size, 4, counts, negatives=2, seed=1)
    else:
        model = M.build_model(kind, cfg)
    width = 4 if kind == "word2vec-features" else model.feature_dim
    head = W.WisdomNetHead(T.Tensor(np.zeros((3, width))), T.Tensor(np.zeros(3)), 0.5)
    CK.save_checkpoint(path, kind, cfg, vocab, model, head, extras={"epochs_trained": 1})
    return path


def expect_one_line_error(capsys, code, argv):
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestUnknownBuiltinDataset:
    @pytest.mark.parametrize("command", ["train", "evaluate", "augment"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, command):
        if command == "train":
            config, _ = small_config(tmp_path, datasets={"english": {"train": "builtin:nope"}})
            argv = ["train", "--config", str(config)]
        elif command == "augment":
            raw = {"train": "builtin:nope", "test": "builtin:synthetic-test"}
            config, _ = small_config(tmp_path, augmentation={"raw": {"english": raw},
                                                             "build": ["semi-noisy"]})
            argv = ["augment", "--config", str(config)]
        else:
            ckpt = tiny_checkpoint(tmp_path / "m.tlac")
            argv = ["evaluate", "--checkpoint", str(ckpt), "--dataset", "builtin:nope",
                    "--out", str(tmp_path / "eval")]
        err = expect_one_line_error(capsys, 2, argv)
        assert "unknown builtin dataset 'nope'" in err


class TestTrainCommand:
    def test_writes_checkpoint_manifest_trace(self, tmp_path):
        config, raw = small_config(tmp_path)
        assert cli.main(["train", "--config", str(config)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.tlac").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"] == "lstm"
        assert manifest["epochs_trained"] == 4
        assert len(manifest["trace"]) == 4
        assert 0.0 <= manifest["train_accuracy"] <= 1.0
        assert manifest["inputs"]["train_dataset"]["sha256"]
        trace = json.loads((out / "loss_trace.json").read_text())
        assert trace["trace"] == manifest["trace"]

    def test_seed_and_out_overrides(self, tmp_path):
        config, _ = small_config(tmp_path)
        out = tmp_path / "other"
        assert cli.main(["train", "--config", str(config), "--seed", "99",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        config, _ = small_config(tmp_path, model="tla-net", epochs=3)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "loss_trace.json").read_bytes() == (out_b / "loss_trace.json").read_bytes()
        assert (out_a / "checkpoint.tlac").read_bytes() == (out_b / "checkpoint.tlac").read_bytes()

    def test_missing_dataset_exit_2_no_partial_outputs(self, tmp_path):
        config, raw = small_config(tmp_path)
        bad = json.loads(config.read_text())
        bad["datasets"]["english"]["train"] = str(tmp_path / "absent.csv")
        config.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert not (tmp_path / "run").exists()

    def test_unknown_model_kind_exit_2(self, tmp_path, capsys):
        config, _ = small_config(tmp_path)
        bad = json.loads(config.read_text())
        bad["model"] = "transformer"
        config.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(config)]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["lstm", "word2vec-features"])
    @pytest.mark.parametrize("classes", [2, 5])
    def test_num_classes_other_than_the_labels_exit_2(self, tmp_path, capsys, model, classes):
        config, _ = small_config(tmp_path, model=model)
        bad = json.loads(config.read_text())
        bad["classifier"]["num_classes"] = classes
        config.write_text(json.dumps(bad))
        err = expect_one_line_error(capsys, 2, ["train", "--config", str(config)])
        assert "classifier.num_classes" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("tap", ["fused", "reconstruction"])
    def test_removed_class_tap_exit_2(self, tmp_path, capsys, tap):
        config, _ = small_config(tmp_path, model="tla-net")
        bad = json.loads(config.read_text())
        bad["classifier"]["class_tap"] = tap
        config.write_text(json.dumps(bad))
        err = expect_one_line_error(capsys, 2, ["train", "--config", str(config)])
        assert "classifier.class_tap" in err and "removed" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [("recon_mode", "mse"), ("recon_mode", "bce"),
                                           ("encoder_views", "shared"), ("encoder_views", "dropout")])
    def test_removed_option_exit_2(self, tmp_path, capsys, key, value):
        config, _ = small_config(tmp_path, model="tla-net")
        bad = json.loads(config.read_text())
        bad["classifier"][key] = value
        config.write_text(json.dumps(bad))
        err = expect_one_line_error(capsys, 2, ["train", "--config", str(config)])
        assert f"classifier.{key}" in err and "removed" in err
        assert not (tmp_path / "run").exists()

    def test_resume_equals_straight_run(self, tmp_path):
        config6, _ = small_config(tmp_path, epochs=6, name="config6.json")
        straight = tmp_path / "straight"
        assert cli.main(["train", "--config", str(config6), "--out", str(straight)]) == 0

        half_dir = tmp_path / "half"
        config3, _ = small_config(tmp_path, epochs=3, name="config3.json")
        assert cli.main(["train", "--config", str(config3), "--out", str(half_dir)]) == 0
        resumed = tmp_path / "resumed"
        assert cli.main(["train", "--config", str(config6), "--out", str(resumed),
                         "--resume", str(half_dir / "checkpoint.tlac")]) == 0
        assert ((straight / "checkpoint.tlac").read_bytes()
                == (resumed / "checkpoint.tlac").read_bytes())

    def test_resume_from_v1_checkpoint(self, tmp_path):
        # the fixture was trained one epoch by the per-gate (v1) code, which
        # also recorded the trace of resuming it for a second epoch
        fixture = json.loads((FIXTURES / "tla_net_v1.json").read_text())
        raw = dict(fixture["train_config"], out_dir=str(tmp_path / "resumed"))
        raw["optimizer"] = dict(raw["optimizer"], epochs=2)
        config = tmp_path / "resume.json"
        config.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(config),
                         "--resume", str(FIXTURES / "tla_net_v1.tlac")]) == 0
        manifest = json.loads((tmp_path / "resumed" / "manifest.json").read_text())
        assert manifest["epochs_trained"] == 2
        assert len(manifest["trace"]) == 1
        assert np.abs(np.array(manifest["trace"]) - fixture["resumed_trace"]).max() <= 1e-12

    def test_resume_kind_mismatch_exit_4(self, tmp_path):
        config, _ = small_config(tmp_path, epochs=2)
        first = tmp_path / "first"
        assert cli.main(["train", "--config", str(config), "--out", str(first)]) == 0
        config_tla, _ = small_config(tmp_path, model="tla-net", epochs=2)
        assert cli.main(["train", "--config", str(config_tla),
                         "--resume", str(first / "checkpoint.tlac")]) == 4

    def test_poisoned_resume_diverges_exit_3(self, tmp_path):
        config, _ = small_config(tmp_path, epochs=2)
        first = tmp_path / "first"
        assert cli.main(["train", "--config", str(config), "--out", str(first)]) == 0
        bundle = CK.load_checkpoint(first / "checkpoint.tlac")
        name, tensor = bundle.model.named_tensors()[0]
        tensor.values[:] = np.nan
        CK.save_checkpoint(first / "poisoned.tlac", bundle.kind, bundle.config,
                           bundle.vocab, bundle.model, bundle.head,
                           extras=bundle.meta["extras"])
        config4, _ = small_config(tmp_path, epochs=4, name="config4.json")
        assert cli.main(["train", "--config", str(config4),
                         "--resume", str(first / "poisoned.tlac")]) == 3

    def test_bundled_config_converges_with_monotone_trend(self, tmp_path):
        import pathlib
        bundled = pathlib.Path(__file__).resolve().parents[1] / "configs" / "synthetic-tla.json"
        out = tmp_path / "bundled-run"
        assert cli.main(["train", "--config", str(bundled), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["train_accuracy"] >= 0.95
        combined = [c + 0.5 * r for c, r in manifest["trace"]]
        assert combined[-1] <= 0.05
        assert combined[-1] < 0.1 * combined[0]
        early = np.mean(combined[:10])
        late = np.mean(combined[-10:])
        assert late < early

    def test_word2vec_resume_rejected(self, tmp_path):
        config, _ = small_config(
            tmp_path, model="word2vec-features",
            word2vec={"embed_dim": 8, "window": 3, "negatives": 4, "epochs": 1,
                      "batch_size": 64, "lr_start": 0.025, "lr_end": 0.001})
        first = tmp_path / "w2v"
        assert cli.main(["train", "--config", str(config), "--out", str(first)]) == 0
        assert cli.main(["train", "--config", str(config),
                         "--resume", str(first / "checkpoint.tlac")]) == 2

    def test_word2vec_features_model(self, tmp_path):
        # mean-pooled embeddings on this corpus are weak features (the class
        # markers share filler contexts), so the head needs a hot rate and
        # the bar is modest separability, not a perfect fit
        config, _ = small_config(
            tmp_path, model="word2vec-features",
            word2vec={"embed_dim": 12, "window": 3, "negatives": 4, "epochs": 2,
                      "batch_size": 64, "lr_start": 0.025, "lr_end": 0.001},
            rejection_head={"epochs": 500, "learning_rate": 5.0})
        assert cli.main(["train", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["train_accuracy"] >= 0.7


class TestEvaluateCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        config, raw = small_config(tmp_path, model="lstm", epochs=6)
        assert cli.main(["train", "--config", str(config)]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        return out / "checkpoint.tlac", manifest, tmp_path

    def test_theta_zero_full_coverage(self, trained):
        ckpt, manifest, tmp_path = trained
        from tlanet.synthetic import builtin_dataset_path
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", builtin_dataset_path("synthetic-test"),
                         "--theta", "0.0", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["coverage"] == 1.0

    def test_train_set_reproduces_manifest_accuracy(self, trained):
        ckpt, manifest, tmp_path = trained
        from tlanet.synthetic import builtin_dataset_path
        out = tmp_path / "eval-train"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", builtin_dataset_path("synthetic-train"),
                         "--theta", "0.0", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["accuracy"] == manifest["train_accuracy"]

    def test_sweep_table_emitted(self, trained):
        ckpt, _, tmp_path = trained
        from tlanet.synthetic import builtin_dataset_path
        out = tmp_path / "eval-sweep"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", builtin_dataset_path("synthetic-test"),
                         "--out", str(out), "--sweep"]) == 0
        lines = (out / "threshold_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,coverage,accuracy"
        assert len(lines) == 22
        coverages = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a >= b for a, b in zip(coverages, coverages[1:]))

    def test_cache_round_trip_and_hash_guard(self, trained):
        ckpt, _, tmp_path = trained
        from tlanet import text as TXT
        from tlanet.synthetic import synthetic_examples
        bundle = CK.load_checkpoint(ckpt)
        exs = synthetic_examples("test")
        tokens, labels = TXT.encode_dataset(bundle.vocab, exs, bundle.config.max_len)
        good = tmp_path / "good.tlad"
        CK.save_dataset_cache(good, bundle.vocab, "english", tokens, labels,
                              [e.id for e in exs])
        out = tmp_path / "eval-cache"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(good),
                         "--theta", "0.0", "--out", str(out)]) == 0

        other_vocab = TXT.build_vocab([["unrelated", "tokens"]], max_size=10)
        bad = tmp_path / "bad.tlad"
        CK.save_dataset_cache(bad, other_vocab, "english",
                              np.zeros((2, bundle.config.max_len), dtype=np.int64),
                              np.zeros(2, dtype=np.int64), ["x", "y"])
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(bad),
                         "--out", str(tmp_path / "nope")]) == 4

    def test_readme_command_with_builtin_dataset(self, trained):
        ckpt, _, tmp_path = trained
        out = tmp_path / "demo-eval"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", "builtin:synthetic-test", "--theta", "0.5",
                         "--out", str(out), "--sweep"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["dataset"] == "builtin:synthetic-test"
        assert (out / "threshold_sweep.csv").exists()

    @pytest.mark.parametrize("corruption", [
        "cut_in_header", "cut_in_array", "one_byte_short", "header_not_utf8", "no_arrays_key"])
    def test_malformed_checkpoint_exit_4(self, trained, corruption, capsys):
        ckpt, _, tmp_path = trained
        data = ckpt.read_bytes()
        header_end = 16 + int.from_bytes(data[8:16], "little")
        if corruption == "cut_in_header":
            assert header_end > 40
            broken = data[:40]
        elif corruption == "cut_in_array":
            assert len(data) // 2 > header_end
            broken = data[:len(data) // 2]
        elif corruption == "one_byte_short":
            broken = data[:-1]
        elif corruption == "header_not_utf8":
            broken = data[:20] + b"\xff\xfe" + data[22:]
        else:
            assert data.count(b'"arrays":') == 1
            broken = data.replace(b'"arrays":', b'"arrayz":')
        bad = tmp_path / "broken.tlac"
        bad.write_bytes(broken)
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(bad),
                         "--dataset", "builtin:synthetic-test", "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,kind", [
        ("config", None, "lstm"),
        ("vocab", None, "lstm"),
        ("vocab_hash", 12345, "lstm"),
        ("kind", None, "lstm"),
        ("w2v", None, "word2vec-features"),
        ("head", {"level": 0.5}, "lstm"),
    ])
    def test_malformed_meta_exit_4(self, tmp_path, capsys, key, value, kind):
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", kind)
        meta, arrays = CK.load_container(ckpt, CK.MODEL_MAGIC)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        CK.save_container(ckpt, CK.MODEL_MAGIC, meta, list(arrays.items()))
        err = expect_one_line_error(capsys, 4, [
            "evaluate", "--checkpoint", str(ckpt), "--dataset", "builtin:synthetic-test",
            "--out", str(tmp_path / "eval")])
        assert repr(key) in err

    def test_removed_class_tap_checkpoint_exit_4(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", "tla-net")
        meta, arrays = CK.load_container(ckpt, CK.MODEL_MAGIC)
        meta["config"]["class_tap"] = "reconstruction"
        CK.save_container(ckpt, CK.MODEL_MAGIC, meta, list(arrays.items()))
        err = expect_one_line_error(capsys, 4, [
            "evaluate", "--checkpoint", str(ckpt), "--dataset", "builtin:synthetic-test",
            "--out", str(tmp_path / "eval")])
        assert "class_tap='reconstruction'" in err

    @pytest.mark.parametrize("key,value", [("recon_mode", "bce"), ("encoder_views", "dropout")])
    def test_removed_option_checkpoint_exit_4(self, tmp_path, capsys, key, value):
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", "tla-net")
        meta, arrays = CK.load_container(ckpt, CK.MODEL_MAGIC)
        meta["config"][key] = value
        CK.save_container(ckpt, CK.MODEL_MAGIC, meta, list(arrays.items()))
        err = expect_one_line_error(capsys, 4, [
            "evaluate", "--checkpoint", str(ckpt), "--dataset", "builtin:synthetic-test",
            "--out", str(tmp_path / "eval")])
        assert f"{key}={value!r}" in err

    @pytest.mark.parametrize("kind", ["lstm", "lstm-ae", "tla-net"])
    def test_report_carries_mean_reconstruction_loss(self, tmp_path, kind):
        from tlanet.synthetic import builtin_dataset_path
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", kind)
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", "builtin:synthetic-test", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        if kind == "lstm":
            assert payload["mean_reconstruction_loss"] is None
            return
        bundle = CK.load_checkpoint(ckpt)
        split = TXT.load_trac2(builtin_dataset_path("synthetic-test"))
        tokens, _ = TXT.encode_dataset(bundle.vocab, split.examples, bundle.config.max_len)
        _, _, recon = bundle.model.predict_batch(tokens, reconstruct=True)
        assert payload["mean_reconstruction_loss"] == float(np.mean(recon)) > 0.0

    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "lstm-ae", "tla-net"])
    def test_reconstruction_error_per_class_recounted(self, tmp_path, kind):
        from tlanet.synthetic import builtin_dataset_path
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", kind)
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", "builtin:synthetic-test", "--out", str(out)]) == 0
        table = json.loads((out / "report.json").read_text())["reconstruction_error_per_class"]
        if kind in ("lstm", "bilstm"):
            assert table is None
            return
        bundle = CK.load_checkpoint(ckpt)
        split = TXT.load_trac2(builtin_dataset_path("synthetic-test"))
        tokens, labels = TXT.encode_dataset(bundle.vocab, split.examples, bundle.config.max_len)
        _, _, recon = bundle.model.predict_batch(tokens, reconstruct=True)
        assert sorted(table) == sorted(TXT.LABELS)
        for c, name in enumerate(TXT.LABELS):
            rows = [r for r in range(len(labels)) if labels[r] == c]
            real_steps = sum(int((tokens[r] != TXT.PAD_ID).sum()) for r in rows)
            assert abs(table[name] - sum(recon[r] for r in rows) / real_steps) <= 1e-12

    @pytest.mark.parametrize("kind", ["lstm", "bilstm", "lstm-ae", "tla-net"])
    def test_comment_without_tokens_evaluates(self, tmp_path, kind):
        # an empty comment and one of punctuation only: all pads, read as one pad step
        data = tmp_path / "empty.csv"
        data.write_text("id,text,label\n1,,NAG\n2,!!! ...,OAG\n3,alpha beta,CAG\n",
                        encoding="utf-8")
        out = tmp_path / "eval"
        ckpt = tiny_checkpoint(tmp_path / "m.tlac", kind)
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(data),
                         "--theta", "0.0", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["total_count"] == 3
        if kind in ("lstm-ae", "tla-net"):  # each class's error is over at least one step
            assert all(np.isfinite(v) for v in payload["reconstruction_error_per_class"].values())

    def test_word2vec_checkpoint_evaluates(self, tmp_path):
        from tlanet.synthetic import builtin_dataset_path
        config, _ = small_config(
            tmp_path, model="word2vec-features",
            word2vec={"embed_dim": 8, "window": 3, "negatives": 4, "epochs": 1,
                      "batch_size": 64, "lr_start": 0.025, "lr_end": 0.001})
        assert cli.main(["train", "--config", str(config)]) == 0
        out = tmp_path / "w2v-eval"
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.tlac"),
                         "--dataset", builtin_dataset_path("synthetic-test"),
                         "--theta", "0.0", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["model"] == "word2vec-features"
        assert payload["report"]["coverage"] == 1.0

    def test_report_files_well_formed(self, trained):
        ckpt, _, tmp_path = trained
        from tlanet.synthetic import builtin_dataset_path
        out = tmp_path / "eval-files"
        assert cli.main(["evaluate", "--checkpoint", str(ckpt),
                         "--dataset", builtin_dataset_path("synthetic-test"),
                         "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = {(r["model"], r["language"]): r for r in csv.DictReader(fh)}
        payload = json.loads((out / "report.json").read_text())
        assert float(rows[("lstm", "english")]["accuracy"]) == payload["report"]["accuracy"]
        assert (out / "report.txt").read_text().startswith("Model")


class TestGradcheckCommand:
    def test_ops_scope_passes(self, capsys):
        assert cli.main(["gradcheck", "--scope", "ops"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        def corrupted_suite(scope, seed=0):
            def corrupted():
                x = T.Tensor([1.0, 2.0], requires_grad=True)

                def wrong_square(v):
                    # deliberately wrong rule: 3x instead of 2x
                    return T._emit(v.array ** 2, v.shape, (v,),
                                   lambda g, a=v.array.copy(): (g * 3.0 * a,))

                from tlanet.gradcheck import check_gradients
                return check_gradients(lambda: T.total_sum(wrong_square(x)), [x])

            return [("op.corrupted_square", corrupted, 1e-6)]

        monkeypatch.setattr(GC, "suite_for_scope", corrupted_suite)
        assert cli.main(["gradcheck", "--scope", "ops"]) == 1
        out = capsys.readouterr().out
        assert "worst offender op.corrupted_square" in out


class TestDemoRecurrence:
    def test_exploding(self, capsys):
        assert cli.main(["demo-recurrence", "--weight", "2", "--x0", "1",
                         "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "x^4 = 16" in out
        assert "regime: explodes" in out

    def test_vanishing(self, capsys):
        assert cli.main(["demo-recurrence", "--weight", "0.5", "--x0", "1",
                         "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "x^4 = 0.0625" in out
        assert "regime: vanishes" in out

    def test_neutral_constant_trajectory(self, capsys):
        assert cli.main(["demo-recurrence", "--weight", "1", "--x0", "7",
                         "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("= 7") == 4
        assert "regime: neutral" in out


class TestAugmentCommand:
    def test_missing_raw_config_exit_2(self, tmp_path, capsys):
        config, _ = small_config(tmp_path)
        assert cli.main(["augment", "--config", str(config)]) == 2
        assert "augmentation.raw" in capsys.readouterr().err

    def test_missing_raw_file_exit_2(self, tmp_path):
        config, _ = small_config(
            tmp_path,
            augmentation={"raw": {"english": {"train": str(tmp_path / "nope.csv"),
                                              "test": str(tmp_path / "nope.csv")}},
                          "build": ["semi-noisy"]})
        assert cli.main(["augment", "--config", str(config)]) == 2
