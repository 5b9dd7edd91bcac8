"""Benchmark of tlanet: four workloads, end-to-end metrics, and a traced run for per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload train-tla --seed 1 --seconds 20 --trace 0

The package under ``src/`` is imported from the checkout; nothing needs to
be installed. Every input is generated from ``--seed``. Rounds of the
workload repeat for ``--seconds``; then the program's outputs are
checked. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` rounds alternate
between untraced and traced, spans are written under ``bench/out/`` and
the JSON object holds the per-layer metrics. See ``bench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One BLAS thread: the load comes from one process, and the training math
# is single-threaded by design. Set before numpy is first imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

import layer_metrics  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# End-to-end metrics: (name, unit). Every workload reports each of them.
E2E = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("examples_per_s", "examples/s"),
    ("classify_ms_min", "ms"),
    ("peak_rss_mb", "MB"),
]

# Enough one-comment requests that at least ten lie beyond the 90th percentile.
MIN_REQUESTS = 100


def _import_program():
    """Import tlanet from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import tlanet
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import tlanet from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.abspath(tlanet.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"bench: tlanet was imported from {where}, not from {SRC}")
    return tlanet


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-tla", "train-wide", "evaluate", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def _machine() -> dict:
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


class Loop:
    """Runs whole rounds until the time is spent and counts attempted and failed operations."""

    def __init__(self, workload, seconds: float, tracer, min_rounds: int, min_requests: int):
        self.w = workload
        self.seconds = seconds
        self.tracer = tracer
        self.min_rounds = min_rounds
        self.min_requests = min_requests
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}  # round wall times, untraced and traced

    def run(self) -> None:
        started = time.perf_counter()
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            t0 = time.perf_counter()
            self.one_round(traced)
            self.walls[traced].append(time.perf_counter() - t0)
            index += 1
            elapsed = time.perf_counter() - started
            expect = max(statistics.median(v) for v in self.walls.values() if v)
            if index >= self.min_rounds and len(self.w.classify_ms) >= self.min_requests \
                    and elapsed + expect > self.seconds:
                break

    def one_round(self, traced: bool) -> None:
        self.attempted += self.w.ops_per_round
        if traced:
            self.tracer.install()
        try:
            self.w.run_round(self.tracer if traced else None)
        except Exception:  # a failing operation is counted, reported, and the round ends
            traceback.print_exc()
            self.failed += self.w.ops_per_round - self.w.ops_done
        finally:
            if traced:
                self.tracer.uninstall()


def _quantile90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) >= 2 else samples[0]


def main(argv=None) -> int:
    args = _parse(argv)
    tlanet = _import_program()
    from workloads import WORKLOADS

    from tlanet import (augment, checkpoint, config, experiment, layers, metrics, models,
                        optim, tensor, text, wisdomnet, word2vec)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        w = WORKLOADS[args.workload](args.seed, work, args.tiny)
        w.setup()
        setup_s = time.perf_counter() - STARTED

        tracer = None
        if args.trace:
            tracer = Tracer([tensor, layers, models, optim, wisdomnet, text, checkpoint, augment,
                             word2vec, experiment, metrics, config])
        # a traced run needs a warm untraced round besides the first, cold one
        loop = Loop(w, args.seconds, tracer, min_rounds=3 if tracer else 1,
                    min_requests=1 if args.tiny or tracer else MIN_REQUESTS)
        loop.run()

        results = {}
        if loop.failed < loop.attempted:
            try:
                results = w.checks()
            except Exception:
                traceback.print_exc()
                results = {"checks_ran": ["the checks raised an exception"]}
        if args.tiny:
            # tiny inputs train too briefly to meet the accuracy bound
            results.pop("heldout_accuracy", None)
        correct = bool(results) and all(not fails for fails in results.values())

        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace} tlanet {tlanet.__version__}")
        print("machine " + json.dumps(_machine(), sort_keys=True))
        print(f"rounds {w.rounds} attempted {loop.attempted} failed {loop.failed}")
        for name, fails in sorted(results.items()):
            print(f"check {name} {'ok' if not fails else 'FAILED'}")
            for msg in fails:
                print(f"  {msg}")

        if tracer is None:
            # The host's vCPUs switch between two speeds about 1.65 times apart,
            # for stretches of a second to a minute (bench/README.md, "Bounds").
            # A median lands in whichever speed held for more than half of a
            # run; the fastest of many short samples reads the program at the
            # fast speed in every run that had some of it. The 90th percentile
            # reads the slow speed in some runs and the fast one in others, so
            # it is printed but not gated.
            samples = w.classify_ms
            values = {
                "setup_s": setup_s,
                "job_s": min(w.job_s),
                "examples_per_s": max(w.rates),
                "classify_ms_min": min(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"classify requests {len(samples)}")
            print(f"medians job_s {statistics.median(w.job_s):.6g} s examples_per_s "
                  f"{statistics.median(w.rates):.6g} examples/s classify_ms_p50 "
                  f"{statistics.median(samples):.6g} ms; classify_ms_p90 "
                  f"{_quantile90(samples):.6g} ms")
            for name, unit in E2E:
                print(f"metric {name} {values[name]:.6g} {unit}")
            for name, value, unit in w.named_metrics(values):
                print(f"as {name} {value:.6g} {unit}")
            metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        else:
            metrics_out = _traced_report(w, loop, tracer, tag)

        print(json.dumps({"correct": correct, "attempted": loop.attempted,
                          "failed": loop.failed, "metrics": metrics_out}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_report(w, loop, tracer, tag) -> dict:
    traced_rounds = len(loop.walls[True])
    extras = w.layer_extras()
    table = SpanTable(tracer)
    pairs = w.w2v_pairs() if hasattr(w, "w2v_pairs") else 0
    values = layer_metrics.derive(table, traced_rounds, w.job_examples, extras, pairs)
    base = statistics.median(w.job_s[2::2])  # untraced rounds after the cold first one
    traced = statistics.median(w.job_s[1::2])
    overhead = {"job_s_untraced": base, "job_s_traced": traced,
                "overhead_pct": 100.0 * (traced / base - 1.0),
                "rounds_untraced": len(loop.walls[False]) - 1, "rounds_traced": traced_rounds,
                "spans": int(table.duration.size)}
    self_times = layer_metrics.module_self_times(table, traced_rounds)
    tracer.save(os.path.join(OUT, f"trace-{tag}.npz"))
    with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": w.seed, "machine": _machine(),
                   "overhead": overhead, "self_s_per_round": self_times,
                   "per_layer": values}, fh, indent=2, sort_keys=True)
    print(f"tracing overhead {overhead['overhead_pct']:+.1f}% on job_s: "
          f"{traced:.4f} s traced vs {base:.4f} s untraced (base), median of "
          f"{traced_rounds} traced and {len(loop.walls[False]) - 1} warm untraced rounds, "
          f"{overhead['spans']} spans")
    for module, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"self {module} {seconds:.6g} s per round")
    for name, unit in layer_metrics.METRICS:
        print(f"layer {name} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in layer_metrics.METRICS}


if __name__ == "__main__":
    sys.exit(main())
