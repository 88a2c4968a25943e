"""Command-line entry point: dataset generation, training, evaluation,
quantizer oracles and tessellation exports, each as one self-describing run.

Exit codes: 0 success, 2 usage or validation, 3 I/O failure, 4 numerical
divergence. Every run directory receives a manifest naming its outputs in the
order they were written; the environment variable MHP_SEED overrides the
training config seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (default_gridframe_spec, encode_spec, load_dataset, make_multilabel_spec,
                      sample_gaussian_mixture, sample_gridframe, sample_multilabel,
                      sample_temporal2d, temporal2d_dataset, write_dataset)
from .io_utils import (read_field, read_int, read_json, read_list, read_number, read_seed,
                       read_str, write_csv_atomic, write_json_atomic, write_text_atomic)
from .losses import LossKind
from .meta_loss import MetaLossConfig
# dataset_hypothesis_variance is bound here for the benchmark's tracing, which times the
# metric calls made through this module
from .metrics import (dataset_hypothesis_variance, dataset_metrics,
                      multilabel_scores, oracle_min_loss)
from .network import (TrainingDivergedError, forward, init_mlp, load_checkpoint,
                      make_optimizer, save_checkpoint)
from .training import TrainSchedule, train
from .voronoi import lloyd_best_of, membership

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class _Run:
    """One command's run record, made on its first line: it notes each output path as the
    output's writer returns it, then lists them, in that order, in a manifest beside them."""

    def __init__(self, command: str):
        self.command, self.started_at, self.outputs = command, _utcnow(), []

    def wrote(self, *paths: Path) -> None:
        self.outputs.extend(paths)

    def finish(self, config: dict, seed) -> None:
        write_json_atomic(self.outputs[0].parent / "manifest.json", {
            "command": self.command, "config": config, "seed": seed, "code_version": __version__,
            "started_at": self.started_at, "finished_at": _utcnow(),
            "outputs": [path.name for path in self.outputs]})


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# tasks

def _task(ds: dict, item_rng: np.random.Generator):
    """One synthetic task, named and sized by the dataset config keys in ``ds``.

    Returns (sampler(rng, n) -> (X, Y), task spec, input column names, target
    column names). ``item_rng`` draws the multilabel item pool.
    """
    task = ds.get("task")
    if task == "temporal2d":
        t = read_field(ds, "t", lambda v: v if v is None else read_number(v), None, where="dataset")
        return (lambda rng, n: temporal2d_dataset(n, rng, t)), {"t": t}, ["t"], ["y1", "y2"]
    if task == "multilabel":
        spec = make_multilabel_spec(_int_field(ds, "num_classes", 6),
                                    _int_field(ds, "set_size", 2), item_rng)
        return (lambda rng, n: sample_multilabel(spec, n, rng)[:2]), spec, ["x1", "x2"], ["label"]
    if task == "gridframe":
        spec = default_gridframe_spec(_int_field(ds, "terminals", 3), _int_field(ds, "width", 8),
                                      _int_field(ds, "height", 8))
        return ((lambda rng, n: sample_gridframe(spec, n, rng)[:2]), spec,
                [f"in{i}" for i in range(spec.pixels)], [f"out{i}" for i in range(spec.pixels)])
    if task == "gmm":
        spec = {"means": [[-1.5, 0.0], [1.5, 0.0]],
                "covs": [[[0.09, 0.0], [0.0, 0.09]], [[0.09, 0.0], [0.0, 0.09]]],
                "weights": [0.5, 0.5]}
        return ((lambda rng, n: (np.zeros((n, 0)), sample_gaussian_mixture(
            spec["means"], spec["covs"], spec["weights"], n, rng))), spec, [], ["y1", "y2"])
    raise ValueError(f"unknown task {task!r}")


def _int_field(fields, name: str, *default) -> int:
    return read_field(fields, name, read_int, *default, where="dataset")


def _seed_flag(text: str) -> int:
    """The argparse type of a --seed flag; argparse names the flag before a refusal."""
    try:
        return read_seed(int(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# ---------------------------------------------------------------------------
# gen

# Each gen flag that sizes a task, by its argparse dest: the _task keys it sets.
_GEN_FLAGS = {"t": ["t"], "classes": ["num_classes"], "set_size": ["set_size"],
              "terminals": ["terminals"], "grid_size": ["width", "height"]}


def cmd_gen(args) -> None:
    run = _Run("gen")
    ds = {"task": args.task}
    for flag, keys in _GEN_FLAGS.items():
        if (value := getattr(args, flag)) is not None:
            if not set(keys) <= _DATASET_KEYS.get(args.task, set()):
                raise ValueError(f"--task {args.task} does not read --{flag.replace('_', '-')}")
            ds.update(dict.fromkeys(keys, value))
    rng = np.random.default_rng(args.seed)
    sampler, spec, inputs, targets = _task(ds, rng)
    X, Y = sampler(rng, args.n)  # each sampler rejects n < 1
    run.wrote(*write_dataset(args.out, X, Y, task=args.task, spec=spec, seed=args.seed,
                             input_names=inputs, target_names=targets))
    run.finish(dict(task=args.task, n=args.n, spec=encode_spec(spec)), args.seed)


# ---------------------------------------------------------------------------
# train

# Each train config field: its default, and how cmd_train reads it.
_TRAIN_FIELDS = {
    "M": (1, read_int),
    "epsilon": (0.05, read_number),
    "dropout_prob": (0.01, read_number),
    "base_loss": ("l2", LossKind.parse),
    "epochs": (40, read_int),
    "batch_size": (32, read_int),
    "optimizer": ("sgd_momentum", read_str),
    "learning_rate": (0.05, read_number),
    "momentum": (0.9, read_number),
    "seed": (0, read_seed),
    "hidden_layers": ([50, 50], read_list(read_int)),
}


def _load_config(path: str) -> tuple[dict, dict]:
    """The config with defaults filled in, as the manifest records it, and
    its fields as read. An unknown key or a field that does not read raises
    ValueError."""
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a train config must be a JSON object")
    unknown = sorted(set(cfg) - set(_TRAIN_FIELDS) - {"dataset", "decay"})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    if "decay" in cfg and "momentum" in cfg:
        raise ValueError(f"{path}: config keys 'decay' and 'momentum' name the same "
                         "coefficient; give one")
    merged = {key: default for key, (default, _) in _TRAIN_FIELDS.items()}
    merged.update(cfg)
    if "decay" in merged:
        merged["momentum"] = merged.pop("decay")
    if "MHP_SEED" in os.environ:  # a string, so int() parses it
        merged["seed"] = read_field(dict(os.environ), "MHP_SEED", lambda v: read_seed(int(v)),
                                    where="environment")
    if not isinstance(merged.get("dataset") or {}, dict):
        raise ValueError("config field 'dataset' must be a JSON object")
    return merged, {key: read_field(merged, key, read, where=path)
                    for key, (_, read) in _TRAIN_FIELDS.items()}


# The keys a train config's dataset reads: a path, or a trainable task and its _task keys.
_DATASET_KEYS = {
    "path": {"path"},
    "temporal2d": {"task", "n", "t"},
    "gridframe": {"task", "n", "terminals", "width", "height"},
    "multilabel": {"task", "n", "num_classes", "set_size", "item_seed"},
}


def _resolve_dataset(cfg: dict, data_flag: str | None):
    """Returns (data for train(), input_dim, output_dim, extras, dataset cfg).

    A key the dataset's source does not read raises ValueError."""
    ds = {"path": data_flag} if data_flag else dict(cfg.get("dataset") or {})
    source = "path" if "path" in ds else ds.get("task")
    if not (isinstance(source, str) and source in _DATASET_KEYS):
        raise ValueError(f"dataset spec must name a trainable task or a path, got {ds!r}")
    unused = sorted(set(ds) - _DATASET_KEYS[source])
    if unused:
        raise ValueError(f"config field 'dataset': {source!r} does not read {unused}")
    if source == "path":
        loaded = load_dataset(read_field(ds, "path", read_str, where="dataset"))
        data, task, spec = (loaded.X, loaded.Y), loaded.task, loaded.spec
        in_dim, out_dim = loaded.X.shape[1], 1 if loaded.Y.ndim == 1 else loaded.Y.shape[1]
    else:
        task = source
        ds["n"] = _int_field(ds, "n", 10_000)
        item_rng = None
        if task == "multilabel":
            ds["item_seed"] = read_field(ds, "item_seed", read_seed, cfg["seed"], where="dataset")
            item_rng = np.random.default_rng(ds["item_seed"])
        data, spec, inputs, targets = _task(ds, item_rng)
        in_dim, out_dim = len(inputs), len(targets)
    extras = {"task": task}
    if task == "multilabel":
        extras["num_classes"] = out_dim = spec.num_classes
    elif task == "gridframe":
        extras["output_shape"] = [spec.height, spec.width, 1]
    return data, in_dim, out_dim, extras, ds


def cmd_train(args) -> None:
    run = _Run("train")
    cfg, c = _load_config(args.config)
    data, in_dim, out_dim, extras, ds_cfg = _resolve_dataset(cfg, args.data)
    cfg["dataset"] = ds_cfg
    extras["base_loss"] = c["base_loss"].spec()
    meta_cfg = MetaLossConfig(c["M"], c["epsilon"], c["dropout_prob"], c["base_loss"])
    seed = c["seed"]
    model = init_mlp(in_dim, c["hidden_layers"], out_dim, meta_cfg.num_hypotheses,
                     np.random.default_rng(seed), seed=seed, extras=extras)
    optimizer = make_optimizer(c["optimizer"], model, c["learning_rate"], c["momentum"])
    schedule = TrainSchedule(c["epochs"], c["batch_size"], seed,
                             samples_per_epoch=_int_field(ds_cfg, "n", 10_000))
    history = train(model, data, meta_cfg, optimizer, schedule)

    out = _outdir(args.out)
    run.wrote(save_checkpoint(out / "checkpoint.json", model, optimizer))
    lines = [json.dumps({"epoch": h.epoch,
                         "mean_meta_loss": h.mean_meta_loss,
                         "oracle_min_loss": h.oracle_min_loss})
             for h in history]
    run.wrote(write_text_atomic(out / "metrics.jsonl", "\n".join(lines) + "\n"))
    run.finish(cfg, seed)


# ---------------------------------------------------------------------------
# eval

_METRIC_NAMES = ("oracle_min", "hypothesis_variance", "sharpness", "multilabel")


def _read_extras(model, checkpoint, grid=None) -> tuple[str, LossKind, list[int] | None]:
    """The task, base loss and grid (height, width, channels) ``train`` puts in ``extras``.
    The grid must hold the model's outputs and, if ``grid`` is given, equal it."""
    def read_shape(value):
        shape = None if value is None else read_list(read_int, 3)(value)
        if shape and (np.prod(shape) != model.output_dim or grid not in (None, shape)):
            raise ValueError(f"{shape} does not fit the model's {model.output_dim} outputs"
                             + (f" on the dataset's {grid} grid" if grid else ""))
        return shape
    get = functools.partial(read_field, model.extras, where=f"{checkpoint}: extras")
    return (get("task", read_str, "temporal2d"), get("base_loss", LossKind.parse, "l2"),
            get("output_shape", read_shape, None))


def _read_metrics(args) -> list[str]:
    """The ``--metrics`` names, each known and named once. A flag that only ``oracle_min``
    reads, given without it, is refused."""
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in _METRIC_NAMES]
    if unknown or not wanted:
        raise ValueError((f"unknown metrics {unknown}" if unknown else "--metrics names no metric")
                         + f"; choose from {_METRIC_NAMES}")
    repeated = sorted({m for m in wanted if wanted.count(m) > 1})
    if repeated:
        raise ValueError(f"--metrics names {repeated} more than once")
    for flag in ("loss", "baseline_checkpoint"):
        if getattr(args, flag) is not None and "oracle_min" not in wanted:
            raise ValueError(f"--{flag.replace('_', '-')} is read by --metrics oracle_min only")
    return wanted


@contextlib.contextmanager
def _on_data(checkpoint, data):
    """A ValueError raised inside, where a checkpoint's model meets a dataset, gets both paths
    as a prefix, so a checkpoint and a dataset that do not fit are named."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{checkpoint} on {data}: {err}") from None


def cmd_eval(args) -> None:
    run = _Run("eval")
    wanted = _read_metrics(args)
    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    grid = [dataset.spec.height, dataset.spec.width, 1] if dataset.task == "gridframe" else None
    _, base, shape = _read_extras(model, args.checkpoint, grid)
    base = LossKind.parse(args.loss) if args.loss is not None else base
    if "sharpness" in wanted and not shape:
        raise ValueError("sharpness requires a checkpoint trained on grid-shaped outputs")
    if "multilabel" in wanted and dataset.task != "multilabel":
        raise ValueError(f"multilabel scores need a multilabel dataset, not {dataset.task!r}")
    baseline = (None if args.baseline_checkpoint is None
                else load_checkpoint(args.baseline_checkpoint)[0])
    targets = (dataset.Y, base) if "oracle_min" in wanted else (None, None)
    image = (shape[1], shape[0], shape[2]) if "sharpness" in wanted else None
    with _on_data(args.checkpoint, args.data):
        result = dataset_metrics(model, dataset.X, *targets,
                                 spread="hypothesis_variance" in wanted, image=image)
    report: dict = {}
    exports: dict[str, np.ndarray] = {}
    if "oracle_min" in wanted:
        report["oracle_min_loss"] = result.oracle_min_loss
        if baseline is not None:
            with _on_data(args.baseline_checkpoint, args.data):
                report["shp_baseline_loss"] = oracle_min_loss(baseline, dataset.X, dataset.Y, base)
    if "hypothesis_variance" in wanted:
        report["hypothesis_variance_mean"] = result.hypothesis_spread
        report["per_hypothesis_variance"] = result.per_dim_variance.tolist()
        exports["hypotheses.csv"] = forward(model, dataset.X[0])
        if shape:
            exports["variance_map.csv"] = result.per_dim_variance.reshape(shape[0], shape[1])
    if "sharpness" in wanted:
        report["sharpness"] = result.sharpness
    if "multilabel" in wanted:
        with _on_data(args.checkpoint, args.data):
            recall, precision = multilabel_scores(
                model, [it.features for it in dataset.spec.items],
                [it.labels for it in dataset.spec.items])
        report["label_recall_at_M"] = recall
        report["label_precision"] = precision

    print(json.dumps(report, indent=2))
    if args.out:
        out = _outdir(args.out)
        run.wrote(write_json_atomic(out / "report.json", report))
        for name, matrix in exports.items():
            run.wrote(write_csv_atomic(out / name, None, matrix))
        run.finish({"checkpoint": args.checkpoint, "data": args.data, "metrics": wanted,
                    "loss": args.loss, "baseline_checkpoint": args.baseline_checkpoint}, None)


# ---------------------------------------------------------------------------
# lloyd

def cmd_lloyd(args) -> None:
    run = _Run("lloyd")
    dataset = load_dataset(args.data)
    samples = np.asarray(dataset.Y, dtype=np.float64).reshape(len(dataset.Y), -1)
    rng = np.random.default_rng(args.seed)
    result = lloyd_best_of(samples, args.m, args.restarts, rng,
                           tol=args.tol, max_iters=args.max_iters)
    out = _outdir(args.out)
    run.wrote(write_json_atomic(out / "lloyd.json", {
        "generators": result.generators.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "quantization_error": result.quantization_error,
        "m": args.m,
        "restarts": args.restarts,
        "tol": args.tol,
    }))
    run.finish({"data": args.data, "m": args.m, "restarts": args.restarts, "tol": args.tol,
                "max_iters": args.max_iters}, args.seed)


# ---------------------------------------------------------------------------
# tessellate

def cmd_tessellate(args) -> None:
    run = _Run("tessellate")
    if bool(args.checkpoint) == bool(args.generators):
        raise ValueError("provide exactly one of --checkpoint and --generators")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    # drawn first: the draw checks t, and no generator depends on the sample rng
    rng = np.random.default_rng(args.seed)
    _, samples = sample_temporal2d(args.t, args.samples, rng)
    if args.generators:
        doc = read_json(args.generators)
        generators = read_field(doc, "generators", lambda v: np.array(
            read_list(read_list(read_number))(v)), where=args.generators)
        base = read_field(doc, "loss", LossKind.parse, "l2", where=args.generators)
    else:
        model, _ = load_checkpoint(args.checkpoint)
        task, base, _ = _read_extras(model, args.checkpoint)
        if task != "temporal2d":
            raise ValueError("tessellate samples temporal2d targets; the checkpoint was "
                             f"trained on {task!r}")
        generators = forward(model, np.array([args.t]))
    source = args.generators or args.checkpoint
    if generators.ndim != 2 or generators.shape[1] != 2 or not len(generators):
        raise ValueError(f"{source}: the generators of 2-D samples must form a nonempty "
                         f"(M, 2) array, got shape {generators.shape}")
    if not np.isfinite(generators).all():
        raise ValueError(f"{source}: non-finite generators")
    if base.name == "cross_entropy":
        raise ValueError(f"{source}: a cross_entropy loss cannot tessellate 2-D samples")
    # a loss that overflows is infinite, and an infinite loss never wins a sample
    with np.errstate(over="ignore"):
        cells = membership(generators, base, samples)

    out = _outdir(args.out)
    run.wrote(write_csv_atomic(out / "cells.csv", ["y1", "y2", "cell_index"], samples, cells))
    run.wrote(write_json_atomic(out / "generators.json", {
        "generators": generators.tolist(),
        "loss": base.spec(),
        "t": args.t,
        "samples": args.samples,
        "cell_counts": np.bincount(cells, minlength=len(generators)).tolist(),
    }))
    run.finish({"t": args.t, "samples": args.samples, "checkpoint": args.checkpoint,
                "generators": args.generators}, args.seed)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhp",
        description="Multi-hypothesis prediction experiments: generate data, "
                    "train, evaluate, and compare against quantizer oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", required=True,
                   choices=["temporal2d", "multilabel", "gridframe", "gmm"])
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--t", type=float, default=None,
                   help="fix the temporal2d time input (default: uniform per sample)")
    p.add_argument("--classes", type=int, help="multilabel only")
    p.add_argument("--set-size", type=int, help="multilabel only")
    p.add_argument("--terminals", type=int, help="gridframe only")
    p.add_argument("--grid-size", type=int, help="gridframe only: its width and height")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None, help="dataset path overriding the config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics", default="oracle_min",
                   help="comma list: " + ",".join(_METRIC_NAMES))
    p.add_argument("--loss", default=None, help="override the base loss")
    p.add_argument("--baseline-checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lloyd", help="alternating-minimization quantizer oracle")
    p.add_argument("--data", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lloyd)

    p = sub.add_parser("tessellate", help="export cells induced by a model's hypotheses")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--generators", default=None,
                   help="JSON of generators from a previous run")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tessellate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        args.func(args)
    except TrainingDivergedError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
