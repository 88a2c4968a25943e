"""The benchmark's workloads.

Each workload is a closed loop with one caller: a pass does a fixed amount
of work, and the next pass starts only when the previous one has returned.
All passes of a run repeat the same work from the same seeds, so every pass
must produce the same outputs, byte for byte.

The library is reached only through module attributes looked up at call time
(``training.train``, ``cli.main``), so a traced pass sees every call.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


# Median time of each workload's reference kernel on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
KERNEL_REFERENCE_S = {"train_grid": 0.0019, "train_small": 0.00075, "cli_oracle": 0.0053}


def mhp_module(name: str):
    # ``mhp.meta_loss`` read as a package attribute is the re-exported
    # function of that name, not the module, so go through importlib
    return importlib.import_module(f"mhp.{name}")


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Operations attempted and failed. A failed output check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._reference: dict[str, object] = {}

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail}" if detail else what)
        return ok

    def same_as_before(self, key: str, value) -> bool:
        """True the first time ``key`` is seen, then only for an equal value."""
        return self._reference.setdefault(key, value) == value


# ---------------------------------------------------------------------------
# Operations and reference kernels
#
# The reference machine is a 2-vCPU virtual machine on a shared host: the same
# code there runs up to twice as fast or as slow from one second to the next.
# So every operation of a pass is followed by a run of the workload's
# reference kernel, a frozen numpy imitation of the operation's inner loop
# that never calls mhp. Each operation's time is scaled by the kernel's
# reference time over the kernel's median time within SCALE_WINDOW_S of the
# operation, which gives seconds at the reference machine's speed. Over ten
# 30 s runs this cut the spread of the median pass time from 10% to 2% of
# the median on train_grid, from 21% to 5% on train_small and from 13% to
# 6% on cli_oracle. A change to mhp moves the operations' times, not the
# kernel's.
SCALE_WINDOW_S = 0.25


class MlpKernel:
    """``steps`` numpy training steps of a ReLU MLP: forward, squared-error
    backward and an SGD update, for each of the given layer shapes."""

    def __init__(self, shapes: list[tuple[list[int], int]], steps: int) -> None:
        rng = np.random.default_rng(0)
        self.nets = []
        for dims, batch in shapes:
            weights = [rng.normal(0.0, (2.0 / a) ** 0.5, (b, a)) for a, b in zip(dims, dims[1:])]
            self.nets.append((weights, rng.random((batch, dims[0])), rng.random((batch, dims[-1]))))
        self.steps = steps

    def __call__(self) -> None:
        for _ in range(self.steps):
            for weights, x, target in self.nets:
                acts = [x]
                for k, w in enumerate(weights):
                    z = acts[-1] @ w.T
                    acts.append(np.maximum(z, 0.0) if k < len(weights) - 1 else z)
                delta = (acts[-1] - target) / len(x)
                for k in range(len(weights) - 1, -1, -1):
                    grad = delta.T @ acts[k]
                    if k:
                        delta = (delta @ weights[k]) * (acts[k] > 0.0)
                    weights[k] -= 1e-9 * grad


class CliKernel:
    """Nearest-of-four search over 1500 points, CSV text of 500 points written
    and parsed back, and a forward pass of a 1-50-50-8 MLP on 200 inputs.

    Every array stays under glibc's 128 KiB mmap threshold, so the kernel's
    time does not depend on the allocator's state, which the CLI commands
    leave behind them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.points = rng.random((1500, 2))
        self.generators = rng.random((4, 2))
        self.mlp = [rng.normal(size=(b, a)) for a, b in ((1, 50), (50, 50), (50, 8))]
        self.inputs = rng.random((200, 1))

    def __call__(self) -> None:
        for _ in range(10):
            d2 = ((self.points[:, None, :] - self.generators[None, :, :]) ** 2).sum(axis=2)
            d2.argmin(axis=1)
            a = self.inputs
            for w in self.mlp:
                a = np.maximum(a @ w.T, 0.0)
        text = "\n".join(f"{x!r},{y!r}" for x, y in self.points[:500].tolist())
        [float(v) for line in text.split("\n") for v in line.split(",")]


def run_ops(ops, probe) -> tuple[list[tuple[str, float, float]], list, list[tuple[float, float]]]:
    """Run (kind, fn) operations in order, probing before the first and after each.

    ``probe`` returns the reference kernel's time, or None when not probing.
    Returns each operation's (kind, start, seconds), the values the functions
    returned, and each probe's (start, seconds); times count from the call.
    """
    t0 = perf_counter()
    timed, values, probes = [], [], []

    def run_probe() -> None:
        start = perf_counter() - t0
        seconds = probe()
        if seconds is not None:
            probes.append((start, seconds))

    run_probe()
    for kind, fn in ops:
        start = perf_counter()
        values.append(fn())
        timed.append((kind, start - t0, perf_counter() - start))
        run_probe()
    return timed, values, probes


@dataclass
class PassResult:
    ops: list[tuple[str, float, float]]  # kind, start, seconds
    kernel: list[tuple[float, float]]     # start, seconds of each reference kernel probe
    samples: int
    oracle_min_loss: float
    outputs: list = field(default_factory=list)  # what check_pass inspects


# ---------------------------------------------------------------------------
# Training workloads

@dataclass(frozen=True)
class TrainJob:
    """One acceptance training configuration (sgd_momentum 0.9, epsilon 0.05,
    dropout 0.01, as in the acceptance suite)."""

    name: str
    sampler: Callable
    in_dim: int
    hidden: tuple[int, ...]
    out_dim: int
    m: int
    lr: float
    batch: int
    epochs: int
    samples_per_epoch: int
    loss: object

    @property
    def samples(self) -> int:
        return self.epochs * self.samples_per_epoch

    def multiply_adds(self) -> int:
        dims = [self.in_dim, *self.hidden, self.m * self.out_dim]
        return sum(a * b for a, b in zip(dims, dims[1:]))

    def train(self, seed: int):
        """Train a fresh model; returns (model, optimizer, last-epoch oracle-min loss)."""
        network, training = mhp_module("network"), mhp_module("training")
        rng = np.random.default_rng(seed)
        model = network.init_mlp(self.in_dim, self.hidden, self.out_dim, self.m, rng, seed=seed)
        opt = network.make_optimizer("sgd_momentum", model, self.lr, 0.9)
        cfg = mhp_module("meta_loss").MetaLossConfig(self.m, 0.05, 0.01, self.loss)
        sched = training.TrainSchedule(self.epochs, self.batch, seed,
                                       samples_per_epoch=self.samples_per_epoch)
        history = training.train(model, self.sampler, cfg, opt, sched)
        return model, opt, history[-1].oracle_min_loss


class TrainWorkload:
    """Trains ``models`` short runs per job and pass, from seeds fixed per run.

    One model's final loss swings with its seed: over ten grid-task seeds its
    interquartile range was 26% of the median after one 4096-sample epoch
    and 44% after fifteen. The reported loss is the mean over many short runs,
    whose spread over seeds stays near 4%. The work per step does not depend
    on the run length, so throughput is unaffected by the choice.
    """

    name = ""
    why = ""
    models = 1
    probe_repeats = 1

    def __init__(self, seed: int, workdir: Path, checks: Checks) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.jobs: list[TrainJob] = []
        self.model_seeds: list[int] = []
        self.checkpoint = workdir / "checkpoint.json"

    def make_jobs(self, seed: int) -> list[TrainJob]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the jobs, then warm up by training each job's first model once.

        The checkpoint is saved in the passes only: on train_grid it is a
        1.5 MB JSON document whose writing would make up most of the set-up.
        """
        self.jobs = self.make_jobs(self.seed)
        self.model_seeds = derive_seeds(self.seed, self.models)
        for job in self.jobs:
            loss = job.train(self.model_seeds[0])[2]
            ok = math.isfinite(loss) and self.checks.same_as_before(f"loss {job.name} 0", loss)
            self.checks.record(f"setup train {job.name}", ok, f"final oracle-min loss {loss!r}")

    def run_pass(self, probe) -> PassResult:
        """Every job's runs; the first run also saves its checkpoint."""
        def train(job, seed, save=False):
            model, opt, loss = job.train(seed)
            if save:
                mhp_module("network").save_checkpoint(self.checkpoint, model, opt)
            return loss

        ops = [(job.name, functools.partial(train, job, s, save=i == k == 0))
               for i, job in enumerate(self.jobs) for k, s in enumerate(self.model_seeds)]
        timed, losses, kernel = run_ops(ops, probe)
        per_job = [losses[i * self.models:(i + 1) * self.models] for i in range(len(self.jobs))]
        samples = sum(job.samples for job in self.jobs) * self.models
        return PassResult(timed, kernel, samples, sum(sum(v) / len(v) for v in per_job),
                          outputs=[(kind, k % self.models, loss)
                                   for k, ((kind, _, _), loss) in enumerate(zip(timed, losses))])

    def check_pass(self, result: PassResult) -> None:
        for name, k, loss in result.outputs:
            ok = math.isfinite(loss) and self.checks.same_as_before(f"loss {name} {k}", loss)
            self.checks.record(f"train {name} model {k}", ok, f"final oracle-min loss {loss!r}")
        digest = sha256(self.checkpoint)
        self.checks.record("checkpoint digest", self.checks.same_as_before("checkpoint", digest),
                           "a rerun with the same seed saved a different checkpoint")

    def flops_per_sample(self) -> float:
        """Computed: 2 flops per multiply-add for each of the forward product,
        the weight gradient and the input gradient."""
        flops = sum(6 * job.multiply_adds() * job.samples for job in self.jobs)
        return flops / sum(job.samples for job in self.jobs)

    def checkpoint_bytes(self) -> int:
        return self.checkpoint.stat().st_size

    def csv_bytes(self) -> int:
        return 0


class TrainGrid(TrainWorkload):
    name = "train_grid"
    why = ("acceptance grid config (8x8, 12 terminals, M=10, 640-wide head): "
           "dense-layer forward, backward and step dominate; datagen and voronoi idle")
    models = 32
    kernel = MlpKernel([([64, 50, 50, 640], 64)], steps=3)
    kernel_reference_s = KERNEL_REFERENCE_S["train_grid"]

    def make_jobs(self, seed: int) -> list[TrainJob]:
        datagen, losses = mhp_module("datagen"), mhp_module("losses")
        spec = datagen.default_gridframe_spec(12)

        def sampler(rng, n):
            X, Y, _ = datagen.sample_gridframe(spec, n, rng)
            return X, Y

        return [TrainJob("gridframe", sampler, spec.pixels, (50, 50), spec.pixels, 10,
                         0.08, 64, 1, 2048, losses.L2)]


class TrainSmall(TrainWorkload):
    name = "train_small"
    why = ("small acceptance models (temporal2d l2, multilabel cross-entropy): per-call "
           "overhead, WTA assignment, losses and sampling dominate; only user of the CE path")
    models = 32
    kernel = MlpKernel([([1, 50, 50, 8], 64), ([2, 32, 32, 18], 32)], steps=5)
    kernel_reference_s = KERNEL_REFERENCE_S["train_small"]

    def make_jobs(self, seed: int) -> list[TrainJob]:
        datagen, losses = mhp_module("datagen"), mhp_module("losses")
        # the item pool is part of the task, fixed as in the acceptance suite
        spec = datagen.make_multilabel_spec(6, 2, np.random.default_rng(77))

        def temporal(rng, n):
            return datagen.temporal2d_dataset(n, rng)

        def multilabel(rng, n):
            X, y, _ = datagen.sample_multilabel(spec, n, rng)
            return X, y

        return [
            TrainJob("temporal2d", temporal, 1, (50, 50), 2, 4, 0.015, 64, 1, 2560, losses.L2),
            TrainJob("multilabel", multilabel, 2, (32, 32), 6, 3, 0.1, 32, 1, 1280,
                     losses.CROSS_ENTROPY),
        ]


# ---------------------------------------------------------------------------
# CLI workload

CLI_SAMPLES = 100_000
UNIFORM_SQUARE_QE = 1.0 / 12.0  # l2 quantization error of the four quadrants
QE_TOLERANCE = 0.02
# lloyd's iteration count, and so its run time, depends on its seeds: over six
# seeds, five restarts took 76 to 114 iterations in all. The square it
# quantizes and its own seed are therefore the same in every run, so that
# the lloyd step does the same work whatever --seed is.
LLOYD_SEED = 0
COMMAND_OUTPUTS = ("square", "data", "lloyd", "eval", "cells", "replay")


class CliOracle:
    """The oracle side of the CLI on 100k samples, called in-process."""

    name = "cli_oracle"
    why = ("mhp gen, lloyd, eval and tessellate on 100k samples: voronoi, dataset CSV I/O, "
           "CLI formatting and a forward-only network pass; no training step")
    kernel = CliKernel()
    kernel_reference_s = KERNEL_REFERENCE_S["cli_oracle"]
    probe_repeats = 3  # a command runs for seconds, so probe it more than once

    def __init__(self, seed: int, workdir: Path, checks: Checks) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.train_seed, self.data_seed, self.tess_seed = derive_seeds(seed, 3)
        self.checkpoint = workdir / "model" / "checkpoint.json"
        self.pass_dir = workdir / "pass"

    def cli(self, argv: list) -> tuple[int, str, str]:
        """Run ``mhp <argv>`` in-process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mhp_module("cli").main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue().strip()

    def setup(self) -> None:
        """Train the checkpoint the pass evaluates, then run the pipeline once, small."""
        config = self.workdir / "train.json"
        config.write_text(json.dumps({
            "M": 4, "epsilon": 0.05, "dropout_prob": 0.01, "base_loss": "l2",
            "epochs": 3, "batch_size": 64, "optimizer": "sgd_momentum",
            "learning_rate": 0.015, "momentum": 0.9, "seed": self.train_seed,
            "hidden_layers": [50, 50], "dataset": {"task": "temporal2d", "n": 10_000},
        }))
        code, _, err = self.cli(["train", "--config", config, "--out", self.checkpoint.parent])
        self.checks.record("mhp train", code == 0, f"exit code {code} {err}")
        self.checks.record("checkpoint digest",
                        code == 0 and self.checks.same_as_before("checkpoint", sha256(self.checkpoint)),
                        "a rerun with the same seed saved a different checkpoint")
        warm = self.workdir / "warm"
        for command, argv in self.commands(warm, 5000, restarts=1):
            code, _, err = self.cli(argv)
            self.checks.record(f"warm-up mhp {command}", code == 0, f"exit code {code} {err}")
        shutil.rmtree(warm)

    def commands(self, out: Path, n: int, restarts: int = 5) -> list[tuple[str, list]]:
        sq, data = out / "square", out / "data"
        return [
            ("gen", ["gen", "--task", "temporal2d", "--n", n, "--seed", LLOYD_SEED,
                     "--t", "0.5", "--out", sq]),
            ("gen", ["gen", "--task", "temporal2d", "--n", n, "--seed", self.data_seed,
                     "--out", data]),
            ("lloyd", ["lloyd", "--data", sq, "--m", 4, "--restarts", restarts,
                       "--seed", LLOYD_SEED, "--out", out / "lloyd"]),
            ("eval", ["eval", "--checkpoint", self.checkpoint, "--data", data,
                      "--metrics", "oracle_min,hypothesis_variance", "--out", out / "eval"]),
            ("tessellate", ["tessellate", "--checkpoint", self.checkpoint, "--t", "0.5",
                            "--samples", n, "--seed", self.tess_seed, "--out", out / "cells"]),
            ("tessellate", ["tessellate", "--generators", out / "cells" / "generators.json",
                            "--t", "0.5", "--samples", n, "--seed", self.tess_seed,
                            "--out", out / "replay"]),
        ]

    def run_pass(self, probe) -> PassResult:
        ops = [(command, functools.partial(self.cli, argv))
               for command, argv in self.commands(self.pass_dir, CLI_SAMPLES)]
        timed, values, kernel = run_ops(ops, probe)
        code, stdout, _ = values[COMMAND_OUTPUTS.index("eval")]
        loss = float(json.loads(stdout)["oracle_min_loss"]) if code == 0 else math.nan
        return PassResult(timed, kernel, CLI_SAMPLES * len(timed), loss,
                          [(kind, *value) for (kind, _, _), value in zip(timed, values)])

    def check_pass(self, result: PassResult) -> None:
        d = self.pass_dir
        checks = self.checks

        def same_file(key: str, path: Path) -> bool:
            return path.is_file() and checks.same_as_before(key, sha256(path))

        for (command, code, _, err), what in zip(result.outputs, COMMAND_OUTPUTS):
            if code != 0:
                checks.record(f"mhp {command} ({what})", False, f"exit code {code} {err}")
                continue
            if what in ("square", "data"):
                checks.record(f"mhp gen ({what})", same_file(what, d / what / "data.csv"),
                           "data.csv differs from the first pass")
            elif what == "lloyd":
                doc = json.loads((d / "lloyd" / "lloyd.json").read_text())
                qe = doc["quantization_error"]
                ok = (doc["converged"] and abs(qe - UNIFORM_SQUARE_QE) <= QE_TOLERANCE * UNIFORM_SQUARE_QE
                      and same_file("lloyd", d / "lloyd" / "lloyd.json"))
                checks.record("mhp lloyd", ok, f"converged={doc['converged']} quantization error {qe!r}")
            elif what == "eval":
                ok = (math.isfinite(result.oracle_min_loss)
                      and same_file("eval", d / "eval" / "report.json"))
                checks.record("mhp eval", ok, f"oracle_min_loss {result.oracle_min_loss!r}")
            elif what == "cells":
                counts = json.loads((d / "cells" / "generators.json").read_text())["cell_counts"]
                ok = sum(counts) == CLI_SAMPLES and same_file("cells", d / "cells" / "cells.csv")
                checks.record("mhp tessellate", ok, f"cell counts {counts}")
            else:
                ok = (d / "replay" / "cells.csv").read_bytes() == (d / "cells" / "cells.csv").read_bytes()
                checks.record("mhp tessellate replay", ok, "cells.csv differs from the original run")
        shutil.rmtree(d)

    def flops_per_sample(self) -> float:
        """Computed: 2 flops per multiply-add of one forward pass of the checkpoint."""
        model, _ = mhp_module("network").load_checkpoint(self.checkpoint)
        return float(2 * sum(layer.weights.size for layer in model.layers))

    def checkpoint_bytes(self) -> int:
        return self.checkpoint.stat().st_size

    def csv_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.pass_dir / "square" / "data.csv",
                                              self.pass_dir / "data" / "data.csv") if p.is_file())


WORKLOADS = {w.name: w for w in (TrainGrid, TrainSmall, CliOracle)}


# ---------------------------------------------------------------------------
# Tracing: where each library function is replaced, and what a pass counts

def wrap_points():
    """(module, attribute, span name, keep the return value) for every traced call.

    A function is replaced in the namespace of each module that calls it, so a
    call is traced once whichever path reaches it.
    """
    m = {name: mhp_module(name) for name in
         ("cli", "datagen", "meta_loss", "metrics", "network", "training", "voronoi")}
    return [
        (m["cli"], "main", lambda argv: f"cli.{argv[0]}", False),
        (m["training"], "train", "training.train", True),
        (m["training"], "forward_batch", "network.forward_batch", False),
        (m["training"], "backward_batch", "network.backward_batch", False),
        (m["training"], "step", "network.step", False),
        (m["training"], "assign_batch", "meta_loss.assign_batch", True),
        (m["training"], "loss_grads", "losses.loss_grads", False),
        (m["meta_loss"], "loss_values", "losses.loss_values", False),
        (m["network"], "save_checkpoint", "network.save_checkpoint", False),
        (m["network"], "forward_batch", "network.forward_batch", False),
        (m["datagen"], "sample_gridframe", "datagen.sampler", False),
        (m["datagen"], "temporal2d_dataset", "datagen.sampler", False),
        (m["datagen"], "sample_multilabel", "datagen.sampler", False),
        (m["datagen"], "write_json_atomic", "io_utils.write_json_atomic", False),
        (m["metrics"], "forward_batch", "network.forward_batch", False),
        (m["metrics"], "loss_values", "losses.loss_values", False),
        (m["voronoi"], "loss_values", "losses.loss_values", False),
        (m["voronoi"], "lloyd", "voronoi.lloyd", True),
        (m["voronoi"], "quantization_error", "voronoi.quantization_error", False),
        (m["cli"], "temporal2d_dataset", "datagen.sampler", False),
        (m["cli"], "sample_temporal2d", "datagen.sampler", False),
        (m["cli"], "write_dataset", "datagen.write_dataset", False),
        (m["cli"], "load_dataset", "datagen.load_dataset", False),
        (m["cli"], "write_json_atomic", "io_utils.write_json_atomic", False),
        (m["cli"], "load_checkpoint", "network.load_checkpoint", False),
        (m["cli"], "lloyd_best_of", "voronoi.lloyd_best_of", False),
        (m["cli"], "membership", "voronoi.membership", False),
        (m["cli"], "oracle_min_loss", "metrics.oracle_min_loss", False),
        (m["cli"], "dataset_hypothesis_variance", "metrics.dataset_hypothesis_variance", False),
    ]


def count_outputs(outputs: list[tuple[str, object]]) -> dict[str, int]:
    """Useful-work counts of one traced pass, from the kept return values.

    ``assign_batch`` returns (weights, losses, best, masks): the winner was
    changed by dropout where ``best`` differs from the unmasked argmin, and a
    head is live in a training run if it won at least one sample of it.
    """
    counts = {"assigned": 0, "dropout_changed": 0, "live_heads": 0, "heads": 0,
              "lloyd_iterations": 0}
    won = None
    for name, result in outputs:
        if name == "meta_loss.assign_batch":
            _, losses, best, _ = result
            counts["assigned"] += len(best)
            counts["dropout_changed"] += int((best != losses.argmin(axis=1)).sum())
            hits = np.bincount(best, minlength=losses.shape[1]) > 0
            won = hits if won is None else won | hits
        elif name == "training.train" and won is not None:
            counts["live_heads"] += int(won.sum())
            counts["heads"] += len(won)
            won = None
        elif name == "voronoi.lloyd":
            counts["lloyd_iterations"] += result.iterations
    return counts
