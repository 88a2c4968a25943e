"""Tests of the benchmark itself: its declared metrics, its tracer, and that
each workload prints every metric it declares, with its unit."""

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_benchmark():
    doc = declared()
    run = load_run_module()
    assert [(e["name"], e["unit"]) for e in doc["end_to_end"]] == run.END_TO_END
    assert [(e["name"], e["unit"]) for e in doc["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert {e["name"]: e["why"] for e in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])


def test_self_times_add_up_and_wrapping_is_undone():
    def leaf(x):
        return x + 1

    def middle(x):
        return mod.leaf(x) * 2

    mod = types.SimpleNamespace(leaf=leaf, middle=middle)
    tracer = tracing.Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "middle", "middle", keep_output=True)
    with tracer.span("root"):
        assert mod.middle(1) == 4
        assert mod.leaf(5) == 6
    tracer.unwrap_all()
    assert mod.leaf is leaf and mod.middle is middle
    assert tracer.take_outputs() == [("middle", 4)]

    times = tracer.times_by_name()
    assert {name: calls for name, (calls, _, _) in times.items()} == {
        "root": 1, "middle": 1, "leaf": 2}
    root_total = times["root"][1]
    assert sum(self_ for _, _, self_ in times.values()) == pytest.approx(root_total, rel=1e-9)
    assert times["middle"][2] <= times["middle"][1]


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("train_small", "0"), ("train_small", "1"), ("train_grid", "1"), ("cli_oracle", "0"),
])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in table}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload.startswith("train"):
        # in a training pass every printed time is a self time
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = ["training.train.self_ms", "datagen.sampler.ms", "network.forward_batch.ms",
                  "meta_loss.assign_batch.self_ms", "losses.loss_values.ms",
                  "losses.loss_grads.ms", "network.backward_batch.ms", "network.step.ms",
                  "network.save_checkpoint.ms", "bench.harness.self_ms"]
        assert sum(values[k] for k in layers) == pytest.approx(values["trace.pass_ms"], rel=1e-9)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_benchmark(tmp_path, "--workload", "train_small", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
