"""Command-line entry point: dataset generation, training, evaluation,
quantizer oracles and tessellation exports, each as one self-describing run.

Exit codes: 0 success, 2 usage or validation, 3 I/O failure, 4 numerical
divergence. Every run directory receives a manifest naming its outputs; the
environment variable MHP_SEED overrides the training config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (default_gridframe_spec, load_dataset, make_multilabel_spec,
                      sample_gaussian_mixture, sample_gridframe, sample_multilabel,
                      sample_temporal2d, temporal2d_dataset, write_dataset)
from .io_utils import write_csv_atomic, write_json_atomic, write_text_atomic
from .losses import LossKind
from .meta_loss import MetaLossConfig
from .metrics import (dataset_hypothesis_variance, dataset_sharpness,
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


def _write_manifest(outdir: Path, command: str, config: dict, seed,
                    outputs: list[str], started: str) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "code_version": __version__,
        "started_at": started,
        "finished_at": _utcnow(),
        "outputs": outputs,
    }
    for name in outputs:
        if not (outdir / name).exists():
            raise OSError(f"manifest names missing output {name}")
    return write_json_atomic(outdir / "manifest.json", manifest)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# tasks

def _task(ds: dict, item_rng: np.random.Generator):
    """One synthetic task, named and sized by the dataset config keys in ``ds``.

    Returns (sampler(rng, n) -> (X, Y), sidecar spec, input column names,
    target column names). ``item_rng`` draws the multilabel item pool.
    """
    task = ds.get("task")
    if task == "temporal2d":
        t = ds.get("t")
        if t is not None and not isinstance(t, (int, float)):
            raise ValueError(f"dataset field 't' must be a number or null, got {t!r}")
        return (lambda rng, n: temporal2d_dataset(n, rng, t)), {"t": t}, ["t"], ["y1", "y2"]
    if task == "multilabel":
        set_size = _int_field(ds, "set_size", 2)
        ml = make_multilabel_spec(_int_field(ds, "num_classes", 6), set_size, item_rng)
        spec = {"num_classes": ml.num_classes, "set_size": set_size,
                "items": [{"features": list(it.features), "labels": list(it.labels)}
                          for it in ml.items]}
        return (lambda rng, n: sample_multilabel(ml, n, rng)[:2]), spec, ["x1", "x2"], ["label"]
    if task == "gridframe":
        gf = default_gridframe_spec(_int_field(ds, "terminals", 3), _int_field(ds, "width", 8),
                                    _int_field(ds, "height", 8))
        spec = {"width": gf.width, "height": gf.height, "start": list(gf.start),
                "terminals": [list(p) for p in gf.terminals],
                "probabilities": list(gf.probabilities)}
        return ((lambda rng, n: sample_gridframe(gf, n, rng)[:2]), spec,
                [f"in{i}" for i in range(gf.pixels)], [f"out{i}" for i in range(gf.pixels)])
    if task == "gmm":
        spec = {"means": [[-1.5, 0.0], [1.5, 0.0]],
                "covs": [[[0.09, 0.0], [0.0, 0.09]], [[0.09, 0.0], [0.0, 0.09]]],
                "weights": [0.5, 0.5]}
        return ((lambda rng, n: (np.zeros((n, 0)), sample_gaussian_mixture(
            spec["means"], spec["covs"], spec["weights"], n, rng))), spec, [], ["y1", "y2"])
    raise ValueError(f"unknown task {task!r}")


def _int(value) -> int:
    """The one integer reader: an int, or a float with no fractional part.

    A bool, a fractional or non-finite number and anything else raise
    ValueError; nothing is truncated.
    """
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _int_field(fields, name: str, default=None) -> int:
    """``fields[name]`` as an int; ``default`` if given and the field is absent."""
    try:
        return _int(fields[name] if default is None or name in fields else default)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"dataset field {name!r} is missing or not an integer") from None


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    started = _utcnow()
    rng = np.random.default_rng(args.seed)
    sampler, spec, inputs, targets = _task(
        {"task": args.task, "t": args.t, "num_classes": args.classes,
         "set_size": args.set_size, "terminals": args.terminals,
         "width": args.grid_size, "height": args.grid_size}, rng)
    X, Y = sampler(rng, args.n)  # each sampler rejects n < 1
    write_dataset(args.out, X, Y, task=args.task, spec=spec, seed=args.seed,
                  input_names=inputs, target_names=targets,
                  int_targets=args.task == "multilabel")
    _write_manifest(Path(args.out), "gen", {"task": args.task, "n": args.n, "spec": spec},
                    args.seed, ["data.csv", "data.json"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _int_list(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return [_int(v) for v in value]


# Each train config field: its default, and how cmd_train reads it.
_TRAIN_FIELDS = {
    "M": (1, _int),
    "epsilon": (0.05, float),
    "dropout_prob": (0.01, float),
    "base_loss": ("l2", LossKind.parse),
    "epochs": (40, _int),
    "batch_size": (32, _int),
    "optimizer": ("sgd_momentum", str),
    "learning_rate": (0.05, float),
    "momentum": (0.9, float),
    "seed": (0, _int),
    "hidden_layers": ([50, 50], _int_list),
}


def _load_config(path: str) -> tuple[dict, dict]:
    """The config with defaults filled in, as the manifest records it, and
    its fields as read. An unknown key or a field that does not read raises
    ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
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
    if "MHP_SEED" in os.environ:
        try:
            merged["seed"] = int(os.environ["MHP_SEED"])
        except ValueError:
            raise ValueError(f"MHP_SEED={os.environ['MHP_SEED']!r} is not an integer") from None
    if not isinstance(merged.get("dataset") or {}, dict):
        raise ValueError("config field 'dataset' must be a JSON object")
    typed = {}
    for key, (_, read) in _TRAIN_FIELDS.items():
        try:
            typed[key] = read(merged[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"config field {key!r}: {err}") from None
    return merged, typed


_TRAINABLE_TASKS = ("temporal2d", "gridframe", "multilabel")


def _resolve_dataset(cfg: dict, data_flag: str | None):
    """Returns (data for train(), input_dim, output_dim, extras, dataset cfg)."""
    ds = {"path": data_flag} if data_flag else dict(cfg.get("dataset") or {})
    if "path" in ds:
        loaded = load_dataset(ds["path"])
        data, task, spec = (loaded.X, loaded.Y), loaded.task, loaded.sidecar.get("spec")
        inputs, targets = loaded.sidecar["input_columns"], loaded.sidecar["target_columns"]
    elif ds.get("task") in _TRAINABLE_TASKS:
        task = ds["task"]
        ds["n"] = _int_field(ds, "n", 10_000)
        item_rng = None
        if task == "multilabel":
            ds["item_seed"] = _int_field(ds, "item_seed", cfg["seed"])
            item_rng = np.random.default_rng(ds["item_seed"])
        data, spec, inputs, targets = _task(ds, item_rng)
    else:
        raise ValueError(f"dataset spec must name a trainable task or a path, got {ds!r}")
    # the one place that reads a task's spec fields
    extras = {"task": task}
    if task == "multilabel":
        extras["num_classes"] = _int_field(spec, "num_classes")
    elif task == "gridframe":
        extras["output_shape"] = [_int_field(spec, "height"), _int_field(spec, "width"), 1]
    return data, len(inputs), extras.get("num_classes") or len(targets), extras, ds


def cmd_train(args) -> int:
    started = _utcnow()
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
    save_checkpoint(out / "checkpoint.json", model, optimizer)
    lines = [json.dumps({"epoch": h.epoch,
                         "mean_meta_loss": h.mean_meta_loss,
                         "oracle_min_loss": h.oracle_min_loss})
             for h in history]
    write_text_atomic(out / "metrics.jsonl", "\n".join(lines) + "\n")
    _write_manifest(out, "train", cfg, seed, ["checkpoint.json", "metrics.jsonl"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

_METRIC_NAMES = ("oracle_min", "hypothesis_variance", "sharpness", "multilabel")


def cmd_eval(args) -> int:
    started = _utcnow()
    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in _METRIC_NAMES]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; choose from {_METRIC_NAMES}")
    base = LossKind.parse(args.loss or model.extras.get("base_loss", "l2"))

    shape = model.extras.get("output_shape")
    report: dict = {}
    exports: dict[str, np.ndarray] = {}
    if "oracle_min" in wanted:
        report["oracle_min_loss"] = oracle_min_loss(model, dataset.X, dataset.Y, base)
        if args.baseline_checkpoint:
            baseline, _ = load_checkpoint(args.baseline_checkpoint)
            report["shp_baseline_loss"] = oracle_min_loss(
                baseline, dataset.X, dataset.Y, base)
    if "hypothesis_variance" in wanted:
        spread, per_dim = dataset_hypothesis_variance(model, dataset.X)
        report["hypothesis_variance_mean"] = spread
        report["per_hypothesis_variance"] = per_dim.tolist()
        exports["hypotheses.csv"] = forward(model, dataset.X[0])
        if shape:
            exports["variance_map.csv"] = per_dim.reshape(shape[0], shape[1])
    if "sharpness" in wanted:
        if not shape:
            raise ValueError("sharpness requires a checkpoint trained on grid-shaped outputs")
        report["sharpness"] = dataset_sharpness(model, dataset.X, shape[1], shape[0], shape[2])
    if "multilabel" in wanted:
        items = (dataset.sidecar.get("spec") or {}).get("items")
        if not items:
            raise ValueError("multilabel scores need a dataset whose sidecar lists its items")
        for key in ("features", "labels"):
            if any(not isinstance(d, dict) or key not in d for d in items):
                raise ValueError(f"a multilabel item in the dataset sidecar lacks {key!r}")
        feats = np.array([d["features"] for d in items])
        sets = [d["labels"] for d in items]
        recall, precision = multilabel_scores(model, feats, sets)
        report["label_recall_at_M"] = recall
        report["label_precision"] = precision

    print(json.dumps(report, indent=2))
    if args.out:
        out = _outdir(args.out)
        write_json_atomic(out / "report.json", report)
        outputs = ["report.json"]
        for name, matrix in exports.items():
            write_csv_atomic(out / name, None, matrix)
            outputs.append(name)
        _write_manifest(out, "eval",
                        {"checkpoint": args.checkpoint, "data": args.data,
                         "metrics": wanted}, None, outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lloyd

def cmd_lloyd(args) -> int:
    started = _utcnow()
    dataset = load_dataset(args.data)
    samples = np.asarray(dataset.Y, dtype=np.float64).reshape(len(dataset.Y), -1)
    rng = np.random.default_rng(args.seed)
    result = lloyd_best_of(samples, args.m, args.restarts, rng,
                           tol=args.tol, max_iters=args.max_iters)
    out = _outdir(args.out)
    write_json_atomic(out / "lloyd.json", {
        "generators": result.generators.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "quantization_error": result.quantization_error,
        "m": args.m,
        "restarts": args.restarts,
        "tol": args.tol,
    })
    _write_manifest(out, "lloyd",
                    {"data": args.data, "m": args.m, "restarts": args.restarts,
                     "tol": args.tol}, args.seed, ["lloyd.json"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tessellate

def cmd_tessellate(args) -> int:
    started = _utcnow()
    if bool(args.checkpoint) == bool(args.generators):
        raise ValueError("provide exactly one of --checkpoint and --generators")
    if args.generators:
        with open(args.generators, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "generators" not in doc:
            raise ValueError(f"{args.generators}: no 'generators' field")
        generators = np.asarray(doc["generators"], dtype=np.float64)
        base = LossKind.parse(doc.get("loss", "l2"))
    else:
        model, _ = load_checkpoint(args.checkpoint)
        if model.extras.get("task", "temporal2d") != "temporal2d":
            raise ValueError("tessellate samples temporal2d targets; the checkpoint was "
                             f"trained on {model.extras['task']!r}")
        generators = forward(model, np.array([args.t]))
        base = LossKind.parse(model.extras.get("base_loss", "l2"))
    rng = np.random.default_rng(args.seed)
    _, samples = sample_temporal2d(args.t, args.samples, rng)
    cells = membership(generators, base, samples)

    out = _outdir(args.out)
    write_csv_atomic(out / "cells.csv", ["y1", "y2", "cell_index"], samples, cells)
    write_json_atomic(out / "generators.json", {
        "generators": generators.tolist(),
        "loss": base.spec(),
        "t": args.t,
        "samples": args.samples,
        "cell_counts": np.bincount(cells, minlength=len(generators)).tolist(),
    })
    _write_manifest(out, "tessellate",
                    {"t": args.t, "samples": args.samples,
                     "checkpoint": args.checkpoint, "generators": args.generators},
                    args.seed, ["cells.csv", "generators.json"], started)
    return EXIT_OK


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--t", type=float, default=None,
                   help="fix the temporal2d time input (default: uniform per sample)")
    p.add_argument("--classes", type=int, default=6)
    p.add_argument("--set-size", type=int, default=2)
    p.add_argument("--terminals", type=int, default=3)
    p.add_argument("--grid-size", type=int, default=8)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lloyd)

    p = sub.add_parser("tessellate", help="export cells induced by a model's hypotheses")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--generators", default=None,
                   help="JSON of generators from a previous run")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except TrainingDivergedError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
