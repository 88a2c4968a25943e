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
from .datagen import (MultiLabelItem, MultiLabelSpec, default_gridframe_spec,
                      load_dataset, make_multilabel_spec, sample_gaussian_mixture,
                      sample_gridframe, sample_multilabel, sample_temporal2d,
                      temporal2d_dataset, write_dataset)
from .io_utils import format_float, write_json_atomic, write_text_atomic
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

_DEFAULT_GMM = {
    "means": [[-1.5, 0.0], [1.5, 0.0]],
    "covs": [[[0.09, 0.0], [0.0, 0.09]], [[0.09, 0.0], [0.0, 0.09]]],
    "weights": [0.5, 0.5],
}


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
# gen

def cmd_gen(args) -> int:
    started = _utcnow()
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    rng = np.random.default_rng(args.seed)
    out = _outdir(args.out)
    spec: dict
    if args.task == "temporal2d":
        if args.t is None:
            X, Y = temporal2d_dataset(args.n, rng)
        else:
            X, Y = sample_temporal2d(args.t, args.n, rng)
        spec = {"t": args.t}
        write_dataset(out, X, Y, task=args.task, spec=spec, seed=args.seed,
                      input_names=["t"], target_names=["y1", "y2"])
    elif args.task == "multilabel":
        ml = make_multilabel_spec(args.classes, args.set_size, rng)
        X, y, _ = sample_multilabel(ml, args.n, rng)
        spec = {
            "num_classes": ml.num_classes,
            "set_size": args.set_size,
            "items": [{"features": list(it.features), "labels": list(it.labels)}
                      for it in ml.items],
        }
        write_dataset(out, X, y, task=args.task, spec=spec, seed=args.seed,
                      input_names=["x1", "x2"], target_names=["label"],
                      int_targets=True)
    elif args.task == "gridframe":
        gf = default_gridframe_spec(args.terminals, args.grid_size, args.grid_size)
        X, Y, _ = sample_gridframe(gf, args.n, rng)
        spec = {
            "width": gf.width, "height": gf.height, "start": list(gf.start),
            "terminals": [list(p) for p in gf.terminals],
            "probabilities": list(gf.probabilities),
        }
        write_dataset(out, X, Y, task=args.task, spec=spec, seed=args.seed,
                      input_names=[f"in{i}" for i in range(gf.pixels)],
                      target_names=[f"out{i}" for i in range(gf.pixels)])
    else:  # gmm
        Y = sample_gaussian_mixture(_DEFAULT_GMM["means"], _DEFAULT_GMM["covs"],
                                    _DEFAULT_GMM["weights"], args.n, rng)
        spec = dict(_DEFAULT_GMM)
        write_dataset(out, np.zeros((args.n, 0)), Y, task=args.task, spec=spec,
                      seed=args.seed, input_names=[],
                      target_names=[f"y{i + 1}" for i in range(Y.shape[1])])
    _write_manifest(out, "gen", {"task": args.task, "n": args.n, "spec": spec},
                    args.seed, ["data.csv", "data.json"], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

_TRAIN_DEFAULTS = {
    "M": 1,
    "epsilon": 0.05,
    "dropout_prob": 0.01,
    "base_loss": "l2",
    "epochs": 40,
    "batch_size": 32,
    "optimizer": "sgd_momentum",
    "learning_rate": 0.05,
    "momentum": 0.9,
    "seed": 0,
    "hidden_layers": [50, 50],
}


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    merged = dict(_TRAIN_DEFAULTS)
    merged.update(cfg)
    if "decay" in merged:
        merged["momentum"] = merged.pop("decay")
    if "MHP_SEED" in os.environ:
        merged["seed"] = int(os.environ["MHP_SEED"])
    return merged


def _spec_items(spec: dict) -> MultiLabelSpec:
    items = tuple(MultiLabelItem(tuple(d["features"]), tuple(d["labels"]))
                  for d in spec["items"])
    return MultiLabelSpec(int(spec["num_classes"]), items)


def _resolve_dataset(cfg: dict, data_flag: str | None):
    """Returns (data for train(), input_dim, output_dim, extras, dataset cfg)."""
    ds = dict(cfg.get("dataset") or {})
    if data_flag:
        ds = {"path": data_flag}
    if "path" in ds:
        loaded = load_dataset(ds["path"])
        extras = {"task": loaded.task}
        out_dim = 1
        if loaded.task == "multilabel":
            extras["num_classes"] = int(loaded.sidecar["spec"]["num_classes"])
            out_dim = extras["num_classes"]
        elif loaded.task == "gridframe":
            spec = loaded.sidecar["spec"]
            extras["output_shape"] = [int(spec["height"]), int(spec["width"]), 1]
            out_dim = loaded.Y.shape[1]
        elif loaded.Y.ndim > 1:
            out_dim = loaded.Y.shape[1]
        return (loaded.X, loaded.Y), loaded.X.shape[1], out_dim, extras, ds

    task = ds.get("task")
    n = int(ds.get("n", 10_000))
    if task == "temporal2d":
        t = ds.get("t")

        def sampler(rng, count):
            return temporal2d_dataset(count, rng, t)

        return sampler, 1, 2, {"task": task}, {**ds, "n": n}
    if task == "gridframe":
        gf = default_gridframe_spec(int(ds.get("terminals", 3)),
                                    int(ds.get("width", 8)), int(ds.get("height", 8)))

        def sampler(rng, count):
            X, Y, _ = sample_gridframe(gf, count, rng)
            return X, Y

        extras = {"task": task, "output_shape": [gf.height, gf.width, 1]}
        return sampler, gf.pixels, gf.pixels, extras, {**ds, "n": n}
    if task == "multilabel":
        item_seed = int(ds.get("item_seed", cfg["seed"]))
        ml = make_multilabel_spec(int(ds.get("num_classes", 6)),
                                  int(ds.get("set_size", 2)),
                                  np.random.default_rng(item_seed))

        def sampler(rng, count):
            X, y, _ = sample_multilabel(ml, count, rng)
            return X, y

        extras = {"task": task, "num_classes": ml.num_classes}
        return sampler, ml.feature_dim, ml.num_classes, extras, {**ds, "n": n, "item_seed": item_seed}
    raise ValueError(f"dataset spec must name a trainable task or a path, got {ds!r}")


def cmd_train(args) -> int:
    started = _utcnow()
    cfg = _load_config(args.config)
    data, in_dim, out_dim, extras, ds_cfg = _resolve_dataset(cfg, args.data)
    cfg["dataset"] = ds_cfg
    base = LossKind.parse(cfg["base_loss"])
    extras["base_loss"] = base.spec()
    meta_cfg = MetaLossConfig(int(cfg["M"]), float(cfg["epsilon"]),
                              float(cfg["dropout_prob"]), base)
    seed = int(cfg["seed"])
    init_rng = np.random.default_rng(seed)
    model = init_mlp(in_dim, cfg["hidden_layers"], out_dim, meta_cfg.num_hypotheses,
                     init_rng, seed=seed, extras=extras)
    optimizer = make_optimizer(cfg["optimizer"], model, float(cfg["learning_rate"]),
                               float(cfg["momentum"]))
    schedule = TrainSchedule(int(cfg["epochs"]), int(cfg["batch_size"]), seed,
                             samples_per_epoch=int(ds_cfg.get("n", 10_000)))
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
        shape = model.extras.get("output_shape")
        if shape:
            exports["variance_map.csv"] = per_dim.reshape(shape[0], shape[1])
    if "sharpness" in wanted:
        shape = model.extras.get("output_shape")
        if not shape:
            raise ValueError("sharpness requires a checkpoint trained on grid-shaped outputs")
        report["sharpness"] = dataset_sharpness(model, dataset.X, shape[1], shape[0], shape[2])
    if "multilabel" in wanted:
        items = (dataset.sidecar.get("spec") or {}).get("items")
        if not items:
            raise ValueError("multilabel scores need a dataset whose sidecar lists its items")
        feats = np.array([d["features"] for d in items])
        sets = [d["labels"] for d in items]
        recall, precision = multilabel_scores(model, feats, sets)
        report["label_recall_at_M"] = recall
        report["label_precision"] = precision

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        out = _outdir(args.out)
        write_json_atomic(out / "report.json", report)
        outputs = ["report.json"]
        for name, matrix in exports.items():
            rows = "\n".join(",".join(format_float(v) for v in row) for row in matrix)
            write_text_atomic(out / name, rows + "\n")
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
    samples = np.asarray(dataset.Y, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
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
        generators = forward(model, np.array([args.t]))
        base = LossKind.parse(model.extras.get("base_loss", "l2"))
    rng = np.random.default_rng(args.seed)
    _, samples = sample_temporal2d(args.t, args.samples, rng)
    cells = membership(generators, base, samples)

    out = _outdir(args.out)
    lines = ["y1,y2,cell_index"]
    lines += [f"{format_float(p[0])},{format_float(p[1])},{int(c)}"
              for p, c in zip(samples, cells)]
    write_text_atomic(out / "cells.csv", "\n".join(lines) + "\n")
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
