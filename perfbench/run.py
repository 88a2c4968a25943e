"""Benchmark of mhp: training throughput, the CLI oracle path, and a traced
per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload train_grid --seed 1 --seconds 30 --trace 0

One run is one process and one workload. It sets up several times (a fresh
import of mhp, inputs from the seed, a warm-up), then repeats the workload's
pass until ``--seconds`` have gone by, checks every pass's outputs, writes a
results file under ``perfbench/results/`` and prints one JSON line last.
With ``--trace 0`` that line holds the end-to-end metrics and nothing in the
library is wrapped; with ``--trace 1`` it holds the per-layer metrics, from
passes that alternate between traced and untraced. See README.md.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# (name, unit) in the order printed; BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("final_oracle_min_loss", "loss"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, span name or None, "total" | "self" | None). Span-backed
# times are milliseconds per traced pass; the rest are computed below.
PER_LAYER = [
    ("network.forward_batch.ms", "ms", "network.forward_batch", "total"),
    ("network.backward_batch.ms", "ms", "network.backward_batch", "total"),
    ("network.step.ms", "ms", "network.step", "total"),
    ("network.save_checkpoint.ms", "ms", "network.save_checkpoint", "total"),
    ("network.load_checkpoint.ms", "ms", "network.load_checkpoint", "total"),
    ("network.checkpoint_bytes", "bytes", None, None),
    ("network.flops_per_sample", "flop_computed", None, None),
    ("meta_loss.assign_batch.self_ms", "ms", "meta_loss.assign_batch", "self"),
    ("meta_loss.winner_changed_by_dropout", "ratio", None, None),
    ("meta_loss.live_head_share", "ratio", None, None),
    ("losses.loss_values.ms", "ms", "losses.loss_values", "total"),
    ("losses.loss_grads.ms", "ms", "losses.loss_grads", "total"),
    ("training.train.self_ms", "ms", "training.train", "self"),
    ("training.steps", "count", None, None),
    ("datagen.sampler.ms", "ms", "datagen.sampler", "total"),
    ("datagen.write_dataset.ms", "ms", "datagen.write_dataset", "total"),
    ("datagen.load_dataset.ms", "ms", "datagen.load_dataset", "total"),
    ("datagen.csv_bytes", "bytes", None, None),
    ("voronoi.lloyd.ms", "ms", "voronoi.lloyd", "total"),
    ("voronoi.lloyd.iterations", "count", None, None),
    ("voronoi.membership.ms", "ms", "voronoi.membership", "total"),
    ("voronoi.quantization_error.ms", "ms", "voronoi.quantization_error", "total"),
    ("metrics.oracle_min_loss.self_ms", "ms", "metrics.oracle_min_loss", "self"),
    ("metrics.dataset_hypothesis_variance.self_ms", "ms",
     "metrics.dataset_hypothesis_variance", "self"),
    ("io_utils.write_json_atomic.ms", "ms", "io_utils.write_json_atomic", "total"),
    ("cli.gen.ms", "ms", "cli.gen", "total"),
    ("cli.gen.self_ms", "ms", "cli.gen", "self"),
    ("cli.lloyd.ms", "ms", "cli.lloyd", "total"),
    ("cli.lloyd.self_ms", "ms", "cli.lloyd", "self"),
    ("cli.eval.ms", "ms", "cli.eval", "total"),
    ("cli.eval.self_ms", "ms", "cli.eval", "self"),
    ("cli.tessellate.ms", "ms", "cli.tessellate", "total"),
    ("cli.tessellate.self_ms", "ms", "cli.tessellate", "self"),
    ("bench.harness.self_ms", "ms", "bench.pass", "self"),
    ("trace.pass_ms", "ms", "bench.pass", "total"),
    ("trace.overhead_ms", "ms", None, None),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# Environment

def blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def make_probe(workload):
    """Time of the workload's reference kernel, as the median of a few runs."""
    def probe() -> float:
        times = []
        for _ in range(workload.probe_repeats):
            t0 = perf_counter()
            workload.kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)
    return probe


def fresh_import() -> None:
    """Import mhp anew, as a new process would; numpy stays imported."""
    for name in [n for n in sys.modules if n == "mhp" or n.startswith("mhp.")]:
        del sys.modules[name]
    importlib.import_module("mhp")
    importlib.import_module("mhp.cli")


# ---------------------------------------------------------------------------

def run(args):
    """Set up, time the passes, check them; returns (results document, tracer)."""
    import_s = perf_counter() - STARTED
    checks = workloads.Checks()
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, checks)
        probe = make_probe(workload)
        ref = workload.kernel_reference_s
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            fresh_import()
            workload.setup()
            seconds = perf_counter() - t0
            gc.collect()  # so that the probes do not pay for the set-up's garbage
            kernel_s = statistics.median(probe() for _ in range(5))
            setup_runs.append({"seconds": seconds, "kernel_s": kernel_s,
                               "scaled_s": seconds * ref / kernel_s})

        tracer = tracing.Tracer()
        points = workloads.wrap_points() if args.trace else []
        passes = []
        counts: dict[str, int] = {}
        pass_bytes = {"checkpoint": [], "csv": []}
        begin = perf_counter()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            for module, attr, name, keep in points if traced else []:
                tracer.wrap(module, attr, name, keep)
            try:
                t0 = perf_counter()
                with tracer.span("bench.pass") if traced else nullcontext():
                    result = workload.run_pass((lambda: None) if traced else probe)
                elapsed = perf_counter() - t0
            except Exception as err:  # a failing library call fails the pass, not the run
                checks.record(f"pass {i}", False, f"{type(err).__name__}: {err}")
                result = None
            finally:
                tracer.unwrap_all()
            if result is not None:
                if traced:
                    for key, value in workloads.count_outputs(tracer.take_outputs()).items():
                        counts[key] = counts.get(key, 0) + value
                    pass_bytes["checkpoint"].append(workload.checkpoint_bytes())
                    pass_bytes["csv"].append(workload.csv_bytes())
                workload.check_pass(result)
                passes.append(summarize_pass(result, traced, elapsed, ref))
            i += 1
            done = perf_counter() - begin >= args.seconds
            if done and (not args.trace or i >= 2):
                break
        measured_s = perf_counter() - begin
        flops = workload.flops_per_sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        raise RuntimeError("no pass completed: " + "; ".join(checks.errors[:5]))
    setup_s = statistics.median(r["scaled_s"] for r in setup_runs)

    doc = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.failed / checks.attempted,
        "error_rate_base": "operations attempted: setup and pass training runs, "
                           "checkpoint saves and CLI commands, each with its output check",
        "errors": checks.errors[:20],
        "kernel_reference_s": ref,
        "first_import_s": import_s,
        "setup": setup_runs,
        "measured_s": measured_s,
        "passes": passes,
    }
    if args.workload == "cli_oracle":
        doc["commands_s"] = {f"{kind}_s": statistics.median(p["scaled_by_kind"][kind] for p in plain)
                             for kind in plain[0]["scaled_by_kind"]}
    if args.trace:
        times = tracer.times_by_name()
        doc["metrics"] = per_layer_metrics(times, traced, plain, counts, pass_bytes, flops)
        per_pass = 1e3 / len(traced)
        doc["spans_per_pass"] = {name: {"calls": calls / len(traced), "total_ms": total * per_pass,
                                        "self_ms": self_ * per_pass}
                                 for name, (calls, total, self_) in sorted(times.items())}
        doc["self_sum_ms"] = sum(v["self_ms"] for v in doc["spans_per_pass"].values())
    else:
        doc["metrics"] = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["scaled_s"] for p in plain),
            "samples_per_s": statistics.median(p["samples"] / p["scaled_s"] for p in plain),
            "final_oracle_min_loss": plain[0]["loss"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return doc, tracer


def summarize_pass(result, traced: bool, elapsed: float, ref: float) -> dict:
    """A pass's raw and scaled times. Traced passes are not probed or scaled."""
    summary = {"traced": traced, "elapsed_s": elapsed, "samples": result.samples,
               "loss": result.oracle_min_loss, "raw_s": sum(op[2] for op in result.ops),
               "ops": result.ops, "kernel": result.kernel}
    if not traced:
        scaled_by_kind: dict[str, float] = {}
        for kind, start, seconds in result.ops:
            near = [k for t, k in result.kernel
                    if start - workloads.SCALE_WINDOW_S <= t <= start + seconds + workloads.SCALE_WINDOW_S]
            scaled = seconds * ref / statistics.median(near)
            scaled_by_kind[kind] = scaled_by_kind.get(kind, 0.0) + scaled
        summary["scaled_by_kind"] = scaled_by_kind
        summary["scaled_s"] = sum(scaled_by_kind.values())
    return summary


def per_layer_metrics(times, traced, plain, counts, pass_bytes, flops):
    n = len(traced)
    out = {}
    for name, _unit, span, kind in PER_LAYER:
        if span is not None:
            _, total, self_ = times.get(span, (0, 0.0, 0.0))
            out[name] = (total if kind == "total" else self_) * 1e3 / n
    steps = times.get("network.step", (0, 0.0, 0.0))[0]
    traced_wall = statistics.mean(p["elapsed_s"] for p in traced)
    plain_wall = statistics.mean(p["raw_s"] for p in plain)
    out.update({
        "network.checkpoint_bytes": statistics.median(pass_bytes["checkpoint"]),
        "network.flops_per_sample": flops,
        "meta_loss.winner_changed_by_dropout": counts["dropout_changed"] / max(counts["assigned"], 1),
        "meta_loss.live_head_share": counts["live_heads"] / max(counts["heads"], 1),
        "training.steps": steps / n,
        "datagen.csv_bytes": statistics.median(pass_bytes["csv"]),
        "voronoi.lloyd.iterations": counts["lloyd_iterations"] / n,
        "trace.overhead_ms": (traced_wall - plain_wall) * 1e3,
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mhp" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mhp

    if Path(mhp.__file__).resolve().parent != SRC / "mhp":
        print(f"error: imported mhp from {mhp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    doc, tracer = run(args)
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {entry[0]: {"value": doc["metrics"][entry[0]], "unit": entry[1]} for entry in table}
    doc["metrics"] = metrics

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        doc["spans_file"] = f"{stem}.spans.json"
        (results / doc["spans_file"]).write_text(json.dumps(tracer.dump()))
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")

    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
