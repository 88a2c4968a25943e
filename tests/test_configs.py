"""The checked-in acceptance configs (``configs/*.json``) against the recipe
they were written from.

Each file is one ``mhp train`` config that the acceptance suite trains at five
seeds. The reference below assembles the same run by hand, from the library
calls and the literal settings of that recipe; a short run of each config
through ``mhp train`` must give bitwise the parameters the reference gives.
"""

import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mhp.cli import _TRAIN_FIELDS
from mhp.cli import main as cli_main
from mhp.datagen import (default_gridframe_spec, make_multilabel_spec, sample_gridframe,
                         sample_multilabel, temporal2d_dataset)
from mhp.losses import CROSS_ENTROPY, L2, LossKind
from mhp.meta_loss import MetaLossConfig
from mhp.network import init_mlp, load_checkpoint, make_optimizer
from mhp.training import TrainSchedule, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class Recipe(NamedTuple):
    sampler: Callable  # sampler(rng, n) -> (X, Y)
    in_dim: int
    out_dim: int
    hidden: tuple[int, ...]
    lr: float
    epochs: int
    batch: int
    n_per_epoch: int
    base_loss: LossKind
    hypotheses: tuple[int, ...]


GRID = default_gridframe_spec(12)
ITEMS = make_multilabel_spec(6, 2, np.random.default_rng(77))
RECIPES = {
    "temporal2d": Recipe(lambda r, n: temporal2d_dataset(n, r), 1, 2, (50, 50),
                         0.015, 100, 64, 10_000, L2, (1, 4, 10)),
    "gridframe": Recipe(lambda r, n: sample_gridframe(GRID, n, r)[:2], 64, 64, (50, 50),
                        0.08, 120, 64, 4096, L2, (1, 5, 10)),
    "multilabel": Recipe(lambda r, n: sample_multilabel(ITEMS, n, r)[:2], 2, 6, (32, 32),
                         0.1, 50, 32, 4096, CROSS_ENTROPY, (1, 3)),
}
NAMES = [f"{task}_m{m}.json" for task, r in RECIPES.items() for m in r.hypotheses]


def reference_params(task: str, m: int, seed: int, epochs: int) -> np.ndarray:
    r = RECIPES[task]
    model = init_mlp(r.in_dim, r.hidden, r.out_dim, m, np.random.default_rng(seed), seed=seed)
    optimizer = make_optimizer("sgd_momentum", model, r.lr, 0.9)
    config = MetaLossConfig(m, epsilon=0.05, dropout_prob=0.01, base_loss=r.base_loss)
    schedule = TrainSchedule(epochs, r.batch, seed, samples_per_epoch=r.n_per_epoch)
    train(model, r.sampler, config, optimizer, schedule)
    return model.params


def test_configs_are_the_acceptance_runs():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_config_spells_out_every_field_at_seed_0(name):
    cfg = json.loads((CONFIGS / name).read_text())
    assert set(cfg) == set(_TRAIN_FIELDS) | {"dataset"}
    assert cfg["seed"] == 0
    # the short runs below cut the epochs, so this is their one check
    assert cfg["epochs"] == RECIPES[cfg["dataset"]["task"]].epochs


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("name", NAMES)
def test_config_trains_the_reference_params(name, seed, tmp_path, monkeypatch):
    monkeypatch.delenv("MHP_SEED", raising=False)
    cfg = json.loads((CONFIGS / name).read_text())
    config = tmp_path / name
    config.write_text(json.dumps({**cfg, "seed": seed, "epochs": 2}))
    assert cli_main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    model, _ = load_checkpoint(tmp_path / "run" / "checkpoint.json")
    expected = reference_params(cfg["dataset"]["task"], cfg["M"], seed, epochs=2)
    assert model.params.tobytes() == expected.tobytes()
