"""Command-line contract: flags, exit codes, file outputs, determinism."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhp.cli import main
from mhp.datagen import load_dataset
from mhp.losses import L2
from mhp.metrics import oracle_min_loss
from mhp.network import load_checkpoint

TRAIN_CFG = {
    "M": 2,
    "epsilon": 0.05,
    "dropout_prob": 0.01,
    "base_loss": "l2",
    "epochs": 3,
    "batch_size": 64,
    "optimizer": "sgd_momentum",
    "learning_rate": 0.02,
    "momentum": 0.9,
    "seed": 11,
    "hidden_layers": [16, 16],
    "dataset": {"task": "temporal2d", "n": 1500},
}


def write_cfg(tmp_path, **overrides):
    cfg = dict(TRAIN_CFG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGen:
    def test_temporal2d_rows_and_columns(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "1000",
                     "--seed", "7", "--out", str(out)]) == 0
        lines = (out / "data.csv").read_text().splitlines()
        assert lines[0] == "t,y1,y2"
        assert len(lines) == 1001
        assert all(len(l.split(",")) == 3 for l in lines[1:])
        assert (out / "data.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen", "--task", "temporal2d", "--n", "500", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a/data.csv").read_bytes()
                == (tmp_path / "b/data.csv").read_bytes())

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert main(["gen", "--task", "temporal2d", "--n", "0",
                     "--out", str(tmp_path / "d")]) == 2

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--task", "nosuch", "--n", "5",
                     "--out", str(tmp_path / "d")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("task", ["multilabel", "gridframe", "gmm"])
    def test_other_tasks_produce_datasets(self, tmp_path, task):
        out = tmp_path / task
        assert main(["gen", "--task", task, "--n", "200", "--seed", "1",
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert len(ds.Y) == 200

    def test_fixed_t_flag(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "400", "--seed", "5",
                     "--t", "0.0", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert (ds.X == 0.0).all()


class TestTrain:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        model, opt = load_checkpoint(out / "checkpoint.json")
        assert model.num_hypotheses == 2
        assert opt is not None
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert set(rec) == {"epoch", "mean_meta_loss", "oracle_min_loss"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["M"] == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for name in ("a", "b"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "a/metrics.jsonl").read_bytes()
                == (tmp_path / "b/metrics.jsonl").read_bytes())
        assert ((tmp_path / "a/checkpoint.json").read_bytes()
                == (tmp_path / "b/checkpoint.json").read_bytes())

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("MHP_SEED", "99")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        model, _ = load_checkpoint(out / "checkpoint.json")
        assert model.seed == 99

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, learning_rate=1e12, epochs=4)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "diverged" in capsys.readouterr().err

    def test_train_from_data_path(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "600", "--seed", "2",
                     "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")]) == 3


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_cfg(tmp_path, M=1, epochs=4)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "800", "--seed", "21",
                     "--out", str(data)]) == 0
        return run / "checkpoint.json", data

    def test_oracle_min_single_head_equals_mean_loss(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "oracle_min"]) == 0
        report = json.loads(capsys.readouterr().out)
        model, _ = load_checkpoint(ckpt)
        ds = load_dataset(data)
        assert report["oracle_min_loss"] == pytest.approx(
            oracle_min_loss(model, ds.X, ds.Y, L2), rel=1e-12)

    def test_sharpness_on_non_grid_model_is_usage_error(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "sharpness"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_unknown_metric_rejected(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "psnr"]) == 2
        capsys.readouterr()

    def test_report_written_with_manifest(self, trained, tmp_path, capsys):
        ckpt, data = trained
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "oracle_min", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()

    def test_variance_on_single_hypothesis_is_usage_error(self, trained, capsys):
        ckpt, data = trained
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metrics", "hypothesis_variance"]) == 2
        capsys.readouterr()

    def test_multilabel_scores_from_sidecar_items(self, tmp_path, capsys):
        data = tmp_path / "ml"
        assert main(["gen", "--task", "multilabel", "--classes", "6", "--n", "500",
                     "--seed", "6", "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path, M=3, base_loss="cross_entropy", epochs=5,
                        learning_rate=0.1,
                        dataset={"task": "multilabel", "num_classes": 6, "n": 1000})
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data), "--metrics", "multilabel"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["label_recall_at_M"] <= 1.0
        assert 0.0 <= report["label_precision"] <= 1.0

    def test_variance_exports_hypothesis_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, M=3, epochs=3)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "300", "--seed", "8",
                     "--out", str(data)]) == 0
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--data", str(data), "--metrics", "hypothesis_variance",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        grid = np.loadtxt(out / "hypotheses.csv", delimiter=",", ndmin=2)
        assert grid.shape == (3, 2)


class TestLloyd:
    def test_single_cell_is_data_mean(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "3000", "--seed", "4",
                     "--t", "0.5", "--out", str(data)]) == 0
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        doc = json.loads((out / "lloyd.json").read_text())
        ds = load_dataset(data)
        np.testing.assert_allclose(doc["generators"][0], ds.Y.mean(axis=0), atol=1e-9)

    def test_quadrant_recovery_on_uniform_square(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "60000", "--seed", "9",
                     "--t", "0.5", "--out", str(data)]) == 0
        out = tmp_path / "l"
        assert main(["lloyd", "--data", str(data), "--m", "4", "--restarts", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "lloyd.json").read_text())
        gens = np.array(sorted(map(tuple, doc["generators"])))
        found = {tuple(np.round(g / 0.5).astype(int)) for g in gens}
        assert found == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        assert np.abs(np.abs(gens) - 0.5).max() < 0.05

    def test_m_exceeding_distinct_samples(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "10", "--seed", "2",
                     "--out", str(data)]) == 0
        assert main(["lloyd", "--data", str(data), "--m", "11",
                     "--out", str(tmp_path / "l")]) == 2


class TestTessellate:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg = write_cfg(tmp_path, M=4, epochs=4)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        return run / "checkpoint.json"

    def test_every_sample_assigned(self, checkpoint, tmp_path):
        out = tmp_path / "tess"
        assert main(["tessellate", "--checkpoint", str(checkpoint), "--t", "0.0",
                     "--samples", "2000", "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "cells.csv").read_text().splitlines()
        assert lines[0] == "y1,y2,cell_index"
        assert len(lines) == 2001
        cells = np.array([int(l.rsplit(",", 1)[1]) for l in lines[1:]])
        assert ((cells >= 0) & (cells < 4)).all()
        doc = json.loads((out / "generators.json").read_text())
        assert len(doc["generators"]) == 4
        assert sum(doc["cell_counts"]) == 2000

    def test_roundtrip_on_exported_generators(self, checkpoint, tmp_path):
        a = tmp_path / "a"
        assert main(["tessellate", "--checkpoint", str(checkpoint), "--t", "0.5",
                     "--samples", "1000", "--seed", "5", "--out", str(a)]) == 0
        b = tmp_path / "b"
        assert main(["tessellate", "--generators", str(a / "generators.json"),
                     "--t", "0.5", "--samples", "1000", "--seed", "5",
                     "--out", str(b)]) == 0
        assert (a / "cells.csv").read_bytes() == (b / "cells.csv").read_bytes()

    def test_requires_exactly_one_source(self, checkpoint, tmp_path, capsys):
        assert main(["tessellate", "--t", "0.5", "--out", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("doc", [{"loss": "l2"}, [[0.0, 0.0]]])
    def test_generators_file_without_generators_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "generators.json"
        path.write_text(json.dumps(doc))
        assert main(["tessellate", "--generators", str(path), "--t", "0.5",
                     "--samples", "10", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "generators" in err


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("corrupt")
        cfg = write_cfg(tmp, M=2, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
        return json.loads((tmp / "run/checkpoint.json").read_text())

    def corrupt_kind(doc):
        doc["optimizer"]["kind"] = "adam"

    def truncate_buffers(doc):
        doc["optimizer"]["buffers"] = doc["optimizer"]["buffers"][:1]

    def drop_output_dim(doc):
        del doc["output_dim"]

    @pytest.mark.parametrize("corrupt", [corrupt_kind, truncate_buffers, drop_output_dim])
    @pytest.mark.parametrize("command", ["eval", "tessellate"])
    def test_usage_error_without_traceback(self, good, corrupt, command, tmp_path, capsys):
        doc = json.loads(json.dumps(good))
        corrupt(doc)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        if command == "eval":
            data = tmp_path / "d"
            assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
            argv = ["eval", "--checkpoint", str(path), "--data", str(data)]
        else:
            argv = ["tessellate", "--checkpoint", str(path), "--t", "0.0",
                    "--samples", "50", "--out", str(tmp_path / "cells")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestMalformedSidecar:
    @pytest.mark.parametrize("command, field, value", [("lloyd", "input_columns", 5),
                                                       ("eval", "input_columns", 5),
                                                       ("train", "input_columns", 5),
                                                       ("train", "target_columns", "yz")])
    def test_column_field_not_a_name_list_is_usage_error(self, command, field, value,
                                                         tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
        cfg = write_cfg(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        sidecar[field] = value
        (data / "data.json").write_text(json.dumps(sidecar))
        out = str(tmp_path / "out")
        argv = {"lloyd": ["lloyd", "--data", str(data), "--m", "2", "--out", out],
                "train": ["train", "--config", str(cfg), "--data", str(data), "--out", out],
                "eval": ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--data", str(data)]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command, field", [("lloyd", "input_columns"),
                                                ("eval", "target_columns"),
                                                ("train", "task")])
    def test_missing_field_is_usage_error(self, command, field, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen", "--task", "temporal2d", "--n", "50", "--out", str(data)]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        del sidecar[field]
        (data / "data.json").write_text(json.dumps(sidecar))
        out = str(tmp_path / "out")
        if command == "lloyd":
            argv = ["lloyd", "--data", str(data), "--m", "2", "--out", out]
        elif command == "train":
            argv = ["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                    "--data", str(data), "--out", out]
        else:
            cfg = write_cfg(tmp_path, epochs=1)
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
            argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                    "--data", str(data)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err


def gen(tmp_path, task, *flags, n=200, name="d"):
    out = tmp_path / name
    assert main(["gen", "--task", task, "--n", str(n), "--seed", "3", *flags,
                 "--out", str(out)]) == 0
    return out


class TestSidecarSpec:
    def drop_spec(spec):
        return None

    def drop(field):
        def edit(spec):
            del spec[field]
            return spec
        return edit

    def not_int(spec):
        spec["width"] = "wide"
        return spec

    @pytest.mark.parametrize("task, edit, field", [
        ("multilabel", drop_spec, "num_classes"),
        ("multilabel", drop("num_classes"), "num_classes"),
        ("gridframe", drop_spec, "height"),
        ("gridframe", drop("height"), "height"),
        ("gridframe", drop("width"), "width"),
        ("gridframe", not_int, "width"),
    ])
    def test_train_data_with_broken_spec_is_usage_error(self, tmp_path, capsys,
                                                        task, edit, field):
        data = gen(tmp_path, task)
        sidecar = json.loads((data / "data.json").read_text())
        spec = edit(sidecar["spec"])
        if spec is None:
            del sidecar["spec"]
        (data / "data.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["features", "labels"])
    def test_eval_multilabel_item_without_field_is_usage_error(self, tmp_path, capsys, field):
        data = gen(tmp_path, "multilabel", "--classes", "4")
        cfg = write_cfg(tmp_path, M=2, base_loss="cross_entropy", epochs=1,
                        dataset={"task": "multilabel", "num_classes": 4, "n": 100})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        sidecar = json.loads((data / "data.json").read_text())
        del sidecar["spec"]["items"][1][field]
        (data / "data.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data", str(data), "--metrics", "multilabel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err


class TestTaskTable:
    @pytest.mark.parametrize("dataset, flags", [
        ({"task": "gridframe", "terminals": 4, "width": 10, "height": 10},
         ["--terminals", "4", "--grid-size", "10"]),
        ({"task": "multilabel", "num_classes": 5, "set_size": 3},
         ["--classes", "5", "--set-size", "3"]),
    ])
    def test_config_and_data_path_build_the_same_model(self, tmp_path, dataset, flags):
        loss = "cross_entropy" if dataset["task"] == "multilabel" else "l2"
        cfg = write_cfg(tmp_path, M=3, epochs=1, base_loss=loss,
                        dataset={**dataset, "n": 100})
        data = gen(tmp_path, dataset["task"], *flags, n=100)
        models = []
        for name, extra in (("cfg", []), ("data", ["--data", str(data)])):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name),
                         *extra]) == 0
            models.append(load_checkpoint(tmp_path / name / "checkpoint.json")[0])
        from_cfg, from_data = models
        assert from_cfg.extras == from_data.extras
        assert from_cfg.extras["task"] == dataset["task"]
        assert ([l.weights.shape for l in from_cfg.layers]
                == [l.weights.shape for l in from_data.layers])


class TestTessellateTask:
    @pytest.mark.parametrize("task, loss", [("gridframe", "l2"),
                                            ("multilabel", "cross_entropy")])
    def test_non_temporal2d_checkpoint_is_usage_error(self, tmp_path, capsys, task, loss):
        cfg = write_cfg(tmp_path, M=2, epochs=1, base_loss=loss,
                        dataset={"task": task, "n": 50})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert main(["tessellate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--t", "0.5", "--samples", "10", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and task in err
        assert not (tmp_path / "x" / "cells.csv").exists()


class TestMalformedConfig:
    @pytest.mark.parametrize("config, field", [
        ([TRAIN_CFG], "JSON object"),
        ({**TRAIN_CFG, "M": [2]}, "'M'"),
        ({**TRAIN_CFG, "epochs": None}, "'epochs'"),
        ({**TRAIN_CFG, "base_loss": 3}, "'base_loss'"),
        ({**TRAIN_CFG, "hidden_layers": 5}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": 5}, "'dataset'"),
        ({**TRAIN_CFG, "dataset": {"task": "gridframe", "width": None}}, "'width'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "t": "x"}}, "'t'"),
        ({**TRAIN_CFG, "hidden_layers": [0]}, "hidden layer widths"),
        ({**TRAIN_CFG, "epochs": float("inf")}, "'epochs'"),
        ({**TRAIN_CFG, "batch_size": float("-inf")}, "'batch_size'"),
        ({**TRAIN_CFG, "M": float("inf")}, "'M'"),
        ({**TRAIN_CFG, "seed": float("-inf")}, "'seed'"),
        ({**TRAIN_CFG, "hidden_layers": [16, float("inf")]}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "n": float("inf")}}, "'n'"),
        ({**TRAIN_CFG, "dataset": {"task": "gridframe", "width": float("-inf")}}, "'width'"),
        ({**TRAIN_CFG, "learning_rte": 5.0}, "'learning_rte'"),
        ({**TRAIN_CFG, "decay": 0.5}, "'decay'"),
        ({**TRAIN_CFG, "learning_rate": float("inf")}, "learning_rate"),
        ({**TRAIN_CFG, "base_loss": "tukey:inf"}, "tukey cutoff"),
        ({**TRAIN_CFG, "epochs": 2.5}, "'epochs'"),
        ({**TRAIN_CFG, "M": 2.5}, "'M'"),
        ({**TRAIN_CFG, "hidden_layers": [8.5]}, "'hidden_layers'"),
        ({**TRAIN_CFG, "dataset": {"task": "temporal2d", "n": 200.7}}, "'n'"),
        ({**TRAIN_CFG, "epochs": True}, "'epochs'"),
    ], ids=["list", "M", "epochs", "base_loss", "hidden_layers", "dataset", "dataset_width",
            "dataset_t", "hidden_width_0", "epochs_inf", "batch_size_-inf", "M_inf",
            "seed_-inf", "hidden_width_inf", "dataset_n_inf", "dataset_width_-inf",
            "unknown_key", "decay_and_momentum", "learning_rate_inf", "tukey_cutoff_inf",
            "epochs_2.5", "M_2.5", "hidden_width_8.5", "dataset_n_200.7", "epochs_true"])
    def test_usage_error_names_the_field(self, tmp_path, capsys, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_non_integer_mhp_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MHP_SEED", "x")
        assert main(["train", "--config", str(write_cfg(tmp_path, epochs=1)),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MHP_SEED" in err and "Traceback" not in err


# One drawn value for one field. Counts stay small: integers and floats lie in
# [-2, 3], and text is at most three characters.
SCALARS = st.one_of(st.none(), st.text(max_size=3), st.booleans(), st.integers(-2, 3),
                    st.floats(-2, 3), st.sampled_from([math.nan, math.inf, -math.inf]))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
SMALL_CFG = {**TRAIN_CFG, "epochs": 1, "batch_size": 16, "hidden_layers": [4],
             "dataset": {"task": "temporal2d", "n": 40}}
CONFIG_FIELDS = [*SMALL_CFG, "decay", "dataset.n", "dataset.t", "dataset.task"]
SIDECAR_FIELDS = ["task", "spec", "seed", "n", "input_columns", "target_columns",
                  "int_targets"]


class TestCorruptionProperty:
    @given(where=st.one_of(st.tuples(st.just("config"), st.sampled_from(CONFIG_FIELDS)),
                           st.tuples(st.just("sidecar"), st.sampled_from(SIDECAR_FIELDS))),
           value=VALUES)
    @settings(max_examples=100, deadline=None)
    def test_corrupt_field_ends_in_an_exit_code(self, where, value):
        kind, field = where
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg, data = json.loads(json.dumps(SMALL_CFG)), tmp / "d"
            train = ["train", "--config", tmp / "config.json", "--out", tmp / "run"]
            if kind == "config":
                section, _, key = field.rpartition(".")
                (cfg[section] if section else cfg)[key] = value
                runs = [train]
            else:
                assert main(["gen", "--task", "temporal2d", "--n", "30", "--out", str(data)]) == 0
                sidecar = json.loads((data / "data.json").read_text())
                sidecar[field] = value
                (data / "data.json").write_text(json.dumps(sidecar))
                runs = [["lloyd", "--data", data, "--m", "2", "--restarts", "1",
                         "--out", tmp / "l"],
                        train + ["--data", data],
                        ["eval", "--checkpoint", tmp / "run" / "checkpoint.json",
                         "--data", data, "--metrics", "oracle_min,hypothesis_variance"]]
            (tmp / "config.json").write_text(json.dumps(cfg))
            for argv in runs:
                assert main([str(a) for a in argv]) in (0, 2, 3, 4)
