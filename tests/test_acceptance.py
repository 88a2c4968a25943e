"""Acceptance suite.

One test per criterion, each printing an ``ACCEPTANCE <n> ...: PASS/FAIL``
line and enforcing its runtime budget. Training time for a shared model
fixture is charged to the criterion whose experiment it is (3 for the
temporal task, 5 for the grid task, 6 for the multi-label task). Those
models are trained by ``mhp train`` from the checked-in ``configs/*.json``,
one file per experiment run, with only the seed changed. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mhp.cli import main as cli_main
from mhp.datagen import (default_gridframe_spec, make_multilabel_spec, region_index,
                         sample_gridframe, sample_temporal2d, temporal2d_dataset)
from mhp.losses import CROSS_ENTROPY, L2, LossKind, hypothesis_targets, loss_grads, loss_values
from mhp.meta_loss import MetaLossConfig, assign_batch, draw_dropout
from mhp.metrics import (dataset_sharpness, multilabel_scores, oracle_min_loss,
                         oracle_min_loss_nested)
from mhp.network import backward_batch, forward, forward_batch, init_mlp, load_checkpoint
from mhp.voronoi import (centroidal_residual, lloyd_best_of, quantization_error,
                         tessellate)

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2, 3, 4)
# one `mhp train` config per acceptance run, written at seed 0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num: int, name: str, budget_s: float, extra_s: float = 0.0):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0 + extra_s
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def central_differences(f, theta, h):
    """Central differences of ``f()`` in each entry of ``theta``, perturbed in place."""
    numeric = np.zeros(theta.shape)
    for i in np.ndindex(theta.shape):
        orig = theta[i]
        theta[i] = orig + h
        fp = f()
        theta[i] = orig - h
        numeric[i] = (fp - f()) / (2 * h)
        theta[i] = orig
    return numeric


def fd_scale_error(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


# ---------------------------------------------------------------------------
# Shared experiment fixtures

def train_runs(tmp_path_factory, task: str, hypotheses):
    """``{M: {seed: (model, optimizer)}}``: what ``mhp train`` writes for
    ``configs/<task>_m<M>.json`` with only its seed changed, read back from the
    checkpoint; also returns the configs' ``dataset`` object."""
    out = tmp_path_factory.mktemp(task)
    runs = {}
    with pytest.MonkeyPatch.context() as env:
        env.delenv("MHP_SEED", raising=False)
        for m in hypotheses:
            cfg = json.loads((CONFIGS / f"{task}_m{m}.json").read_text())
            runs[m] = {}
            for s in SEEDS:
                config, run = out / f"m{m}_seed{s}.json", out / f"m{m}_seed{s}"
                config.write_text(json.dumps({**cfg, "seed": s}))
                assert cli_main(["train", "--config", str(config), "--out", str(run)]) == 0
                runs[m][s] = load_checkpoint(run / "checkpoint.json")
    return cfg["dataset"], runs


@pytest.fixture(scope="session")
def temporal_runs(tmp_path_factory):
    """SHP, 4-MHP and 10-MHP on the temporal task, 5 seeds each."""
    t0 = time.perf_counter()
    _, runs = train_runs(tmp_path_factory, "temporal2d", (1, 4, 10))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def grid_runs(tmp_path_factory):
    """SHP, 5-MHP and 10-MHP on the 8x8 grid-frame task, 5 seeds each.

    The task uses 12 equally likely terminal cells so that even the largest
    hypothesis count stays below the number of discrete outcomes; with more
    hypotheses than outcomes the surplus heads settle on the conditional
    average and drag the mean sharpness back down.
    """
    t0 = time.perf_counter()
    ds, runs = train_runs(tmp_path_factory, "gridframe", (1, 5, 10))
    return default_gridframe_spec(ds["terminals"]), runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def multilabel_runs(tmp_path_factory):
    """SHP and 3-MHP classifiers on the 6-class, two-label task, 5 seeds."""
    t0 = time.perf_counter()
    ds, runs = train_runs(tmp_path_factory, "multilabel", (1, 3))
    spec = make_multilabel_spec(ds["num_classes"], ds["set_size"],
                                np.random.default_rng(ds["item_seed"]))
    return spec, runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite vs central finite differences", 10.0):
        h = 1e-6
        rng = np.random.default_rng(101)
        kinds = [L2, CROSS_ENTROPY, LossKind("tukey")]

        # base losses
        for kind in kinds:
            for _ in range(30):
                u = rng.normal(size=5)
                v = int(rng.integers(5)) if kind.name == "cross_entropy" else rng.normal(size=5)
                numeric = central_differences(lambda: loss_values(kind, u, v), u, h)
                assert fd_scale_error(loss_grads(kind, u, v), numeric) < 1e-5

        # meta-loss w.r.t. hypotheses, dropout masks included
        for kind in kinds:
            for _ in range(10):
                m, d = 5, 3
                hyp = rng.normal(size=(m, d))[None]
                tgt = int(rng.integers(d)) if kind.name == "cross_entropy" else rng.normal(size=d)
                tgt = np.asarray(tgt)[None]
                cfg = MetaLossConfig(m, 0.05, 0.3, kind)
                tb = hypothesis_targets(kind, tgt, 1, d)
                dropout = draw_dropout(cfg, 1, dropped_masks=(rng.random(m) < 0.3)[None])
                weights, _, _, _ = assign_batch(cfg, hyp, tb, dropout)
                analytic = weights[..., None] * loss_grads(kind, hyp, tb)
                numeric = central_differences(
                    lambda: (weights * loss_values(kind, hyp, tb)).sum(axis=1)[0], hyp, h)
                assert fd_scale_error(analytic, numeric) < 1e-5

        # full MLP parameter gradients on a <=500-parameter model
        model = init_mlp(3, [8, 6], 2, 2, np.random.default_rng(102))
        assert model.params.size <= 500
        x = rng.normal(size=3)
        upstream = rng.normal(size=(2, 2))
        _, acts = forward_batch(model, x[None], return_activations=True)
        analytic = backward_batch(model, upstream[None], acts)
        numeric = central_differences(lambda: float((upstream * forward(model, x)).sum()),
                                      model.params, h)
        assert fd_scale_error(analytic, numeric) < 1e-5


def test_criterion_2_reduction_law():
    with criterion(2, "M=1 reduction and weight normalization", 1.0):
        rng = np.random.default_rng(201)
        for kind in (L2, CROSS_ENTROPY, LossKind("tukey")):
            for _ in range(100):
                hyp = rng.normal(size=(1, 4))
                tgt = int(rng.integers(4)) if kind.name == "cross_entropy" else rng.normal(size=4)
                cfg = MetaLossConfig(1, base_loss=kind, dropout_prob=0.0)
                tb = hypothesis_targets(kind, np.asarray(tgt)[None], 1, 4)
                weights, losses, _, _ = assign_batch(cfg, hyp[None], tb, draw_dropout(cfg, 1))
                # the meta-loss sum that ``train`` logs, against the base loss
                assert float((weights * losses).sum()) == loss_values(kind, hyp[0], tgt)
        for m in range(2, 11):
            for eps in (0.01, 0.05, 0.3):
                cfg = MetaLossConfig(m, epsilon=eps, dropout_prob=0.3)
                for _ in range(20):
                    hyp = rng.normal(size=(1, m, 2))
                    tb = hypothesis_targets(L2, rng.normal(size=(1, 2)), 1, 2)
                    weights, _, _, _ = assign_batch(cfg, hyp, tb, draw_dropout(cfg, 1, rng))
                    assert abs(weights.sum() - 1.0) <= 1e-12


def test_criterion_3_toy_reproduction(temporal_runs):
    runs, train_s = temporal_runs
    with criterion(3, "temporal task: SHP mean, head placement, oracle ordering",
                   300.0, extra_s=train_s):
        eval_rng = np.random.default_rng(900)
        eval_sets = {t: sample_temporal2d(t, 4000, eval_rng)[1] for t in (0.0, 0.5, 1.0)}

        # (a) the single head sits at the conditional average (0, 0)
        for s in SEEDS:
            shp = runs[1][s][0]
            for t in (0.0, 0.5, 1.0):
                pred = forward(shp, np.array([t]))[0]
                assert np.linalg.norm(pred) < 0.1, f"seed {s}, t={t}: {pred}"

        # (b) 4-MHP heads occupy the high-mass quadrants at the extremes
        placements = 0
        for s in SEEDS:
            heads0 = forward(runs[4][s][0], np.array([0.0]))
            heads1 = forward(runs[4][s][0], np.array([1.0]))
            ok0 = np.isin(region_index(heads0), [0, 3]).sum() >= 3
            ok1 = np.isin(region_index(heads1), [1, 2]).sum() >= 3
            placements += ok0 and ok1
        assert placements >= 4, f"head placement held for {placements}/5 seeds"

        # (c) oracle-min loss ordering SHP > 4-MHP > 10-MHP at every t
        for s in SEEDS:
            for t, Y in eval_sets.items():
                X = np.full((len(Y), 1), t)
                o = {m: oracle_min_loss(runs[m][s][0], X, Y, L2) for m in (1, 4, 10)}
                assert o[1] > o[4] > o[10], f"seed {s}, t={t}: {o}"


def test_criterion_4_centroidal_fixed_point(temporal_runs):
    runs, _ = temporal_runs
    with criterion(4, "centroidal cells at t=0 and the quantizer oracle", 60.0):
        model = runs[4][SEEDS[0]][0]
        generators = forward(model, np.array([0.0]))
        _, samples = sample_temporal2d(0.0, 100_000, np.random.default_rng(901))

        _, worst = centroidal_residual(tessellate(generators, L2, samples))
        assert worst < 0.15, f"max centroidal residual {worst:.3f}"

        oracle = lloyd_best_of(samples, 4, restarts=5,
                               rng=np.random.default_rng(902), tol=1e-3)
        _, oracle_worst = centroidal_residual(tessellate(oracle.generators, L2, samples))
        assert oracle_worst < 0.02, f"oracle residual {oracle_worst:.4f}"

        q_model = quantization_error(generators, L2, samples)
        assert q_model <= 1.3 * oracle.quantization_error, (
            f"quantization error {q_model:.4f} vs oracle {oracle.quantization_error:.4f}")


def test_criterion_5_sharpness_direction(grid_runs):
    spec, runs, train_s = grid_runs
    with criterion(5, "grid task: sharpness up, oracle-min error down with M",
                   300.0, extra_s=train_s):
        x_in = sample_gridframe(spec, 1, np.random.default_rng(903))[0]
        Xe, Ye, _ = sample_gridframe(spec, 3000, np.random.default_rng(904))
        good = 0
        for s in SEEDS:
            sharp = {m: dataset_sharpness(runs[m][s][0], x_in, spec.width, spec.height)
                     for m in (1, 5, 10)}
            err = {m: oracle_min_loss(runs[m][s][0], Xe, Ye, L2) for m in (1, 5, 10)}
            ok = (sharp[10] > sharp[5] > sharp[1]) and (err[1] > err[5] > err[10])
            good += ok
        assert good >= 4, f"orderings held for {good}/5 seeds"


def test_criterion_6_multilabel_coverage(multilabel_runs):
    spec, runs, train_s = multilabel_runs
    with criterion(6, "multi-label coverage: 3-MHP recall gain over SHP",
                   180.0, extra_s=train_s):
        feats = np.array([it.features for it in spec.items])
        sets = [it.labels for it in spec.items]
        good = 0
        for s in SEEDS:
            r_shp, _ = multilabel_scores(runs[1][s][0], feats, sets)
            r_mhp, _ = multilabel_scores(runs[3][s][0], feats, sets)
            good += (r_mhp - r_shp) >= 0.25
        assert good >= 4, f"recall gap held for {good}/5 seeds"


def test_criterion_7_oracle_min_monotonicity(temporal_runs):
    runs, _ = temporal_runs
    with criterion(7, "oracle-min loss non-increasing over nested head subsets", 60.0):
        model = runs[10][SEEDS[0]][0]
        X, Y = temporal2d_dataset(5000, np.random.default_rng(905))
        nested = oracle_min_loss_nested(model, X, Y, L2)
        assert nested.shape == (10,)
        assert (np.diff(nested) <= 1e-15).all(), f"nested losses {nested}"


def test_trained_10mhp_cells_are_not_collapsed(temporal_runs):
    # at t=0.5 the square is uniform; every one of the 10 cells should hold
    # a sane share of the mass (recorded once from the seeded reference run)
    runs, _ = temporal_runs
    model = runs[10][SEEDS[0]][0]
    generators = forward(model, np.array([0.5]))
    _, samples = sample_temporal2d(0.5, 10_000, np.random.default_rng(906))
    masses = tessellate(generators, L2, samples).cell_counts / len(samples)
    assert (masses >= 0.02).all() and (masses <= 0.3).all(), masses


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "seeded reruns are byte-identical", 120.0):
        gen_args = ["gen", "--task", "temporal2d", "--n", "10000", "--seed", "13"]
        assert cli_main(gen_args + ["--out", str(tmp_path / "g1")]) == 0
        assert cli_main(gen_args + ["--out", str(tmp_path / "g2")]) == 0
        assert ((tmp_path / "g1/data.csv").read_bytes()
                == (tmp_path / "g2/data.csv").read_bytes())

        for name in ("t1", "t2"):
            assert cli_main(["train", "--config", str(CONFIGS / "temporal2d_m4.json"),
                             "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "t1/metrics.jsonl").read_bytes()
                == (tmp_path / "t2/metrics.jsonl").read_bytes())
        assert ((tmp_path / "t1/checkpoint.json").read_bytes()
                == (tmp_path / "t2/checkpoint.json").read_bytes())
