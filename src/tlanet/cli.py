"""Command-line surface: train, evaluate, augment, gradcheck, demo-recurrence.

Exit codes: 0 success, 1 check or augmentation failure, 2 configuration
error, 3 numeric divergence during training, 4 artifact incompatibility or
corruption.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment, gradcheck
from .augment import AugmentationError
from .checkpoint import ArtifactMismatch
from .config import ConfigError, load_config
from .optim import TrainingDivergence
from .tensor import ScalarRecurrence, recurrence_regime, recurrence_trajectory
from .text import DataFormatError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_ARTIFACT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tla",
        description="Train, evaluate and audit the trustable LSTM-autoencoder text classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a JSON config")
    train.add_argument("--config", required=True, help="path to the experiment config JSON")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")
    train.add_argument("--out", default=None, help="override the config output directory")
    train.add_argument("--resume", default=None, help="checkpoint to continue training from")

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True, help="corpus CSV or encoded dataset cache")
    ev.add_argument("--theta", type=float, default=None, help="rejection threshold override")
    ev.add_argument("--out", default="eval-out")
    ev.add_argument("--language", default="english")
    ev.add_argument("--sweep", action="store_true", help="also emit a threshold sweep table")
    ev.add_argument("--scheme", choices=("macro", "weighted"), default="weighted")

    aug = sub.add_parser("augment", help="build the semi-noisy and translated corpora")
    aug.add_argument("--config", required=True)
    aug.add_argument("--seed", type=int, default=None)
    aug.add_argument("--out", default=None)
    aug.add_argument("--jobs", type=int, default=1,
                     help="translation threads, each translating every N-th example of a split")

    gc = sub.add_parser("gradcheck", help="finite-difference checks of all backward rules")
    gc.add_argument("--scope", choices=("ops", "layers", "models", "all"), default="all")
    gc.add_argument("--seed", type=int, default=0)

    demo = sub.add_parser("demo-recurrence", help="print a scalar recurrence trajectory")
    demo.add_argument("--weight", type=float, required=True)
    demo.add_argument("--x0", type=float, default=1.0)
    demo.add_argument("--steps", type=int, default=20)
    return parser


def _load_config_with_overrides(args) -> "experiment.ExperimentConfig":
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def cmd_train(args) -> int:
    cfg = _load_config_with_overrides(args)
    manifest = experiment.run_train(cfg, resume=args.resume)
    print(f"trained {manifest['model']} for {manifest['epochs_trained']} epochs; "
          f"train accuracy {manifest['train_accuracy']:.4f}")
    print(f"checkpoint and manifest written to {cfg.out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    payload = experiment.run_evaluate(
        args.checkpoint, args.dataset, args.out, theta=args.theta,
        language=args.language, sweep=args.sweep, scheme=args.scheme)
    report = payload["report"]
    print(f"{payload['model']} on {payload['dataset']} (theta={payload['theta']}): "
          f"accuracy {report['accuracy']:.4f}, coverage {report['coverage']:.4f}")
    print(f"reports written to {args.out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    cfg = _load_config_with_overrides(args)
    result = experiment.run_augment(cfg, jobs=args.jobs)
    for path in result["written"]:
        print(f"wrote {path}")
    print(f"reconciliation report in {cfg.out_dir} "
          f"({result['discrepancies']} flagged row(s))")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck.run_checks(gradcheck.suite_for_scope(args.scope, args.seed))
    print("\n".join(report.lines()))
    print(f"{len(report.results)} checks in {report.elapsed:.2f}s")
    if not report.passed:
        worst = report.worst
        print(f"FAILED: worst offender {worst.name} at {worst.max_err:.3e} "
              f"(tolerance {worst.tolerance:.0e})")
        return EXIT_CHECK_FAILED
    print("all gradient checks passed")
    return EXIT_OK


def cmd_demo_recurrence(args) -> int:
    rec = ScalarRecurrence(args.weight, args.x0, args.steps)
    for i, value in enumerate(recurrence_trajectory(rec)):
        print(f"x^{i} = {value:.6g}")
    regime = recurrence_regime(args.weight)
    print(f"regime: {regime} (weight {args.weight} applied {args.steps} times)")
    return EXIT_OK


_HANDLERS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "augment": cmd_augment,
    "gradcheck": cmd_gradcheck,
    "demo-recurrence": cmd_demo_recurrence,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ArtifactMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except AugmentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
