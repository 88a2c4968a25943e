"""The names the ``mhp`` package exports, and how its records compare."""

import numpy as np

import mhp
from mhp.datagen import Dataset

REMOVED = ("AssignmentResult", "assign", "meta_loss", "meta_loss_upstream_grads", "loss",
           "loss_grad", "backward", "Layer")


def test_every_exported_name_resolves():
    assert [name for name in mhp.__all__ if not hasattr(mhp, name)] == []


def test_no_name_is_exported_twice():
    assert len(set(mhp.__all__)) == len(mhp.__all__)


def test_single_sample_wrappers_are_not_exported():
    assert set(REMOVED).isdisjoint(mhp.__all__)


def test_array_holding_records_compare_by_identity():
    # the dataclass __eq__ would compare arrays inside a tuple and raise
    rng = np.random.default_rng(0)
    pts = rng.random((40, 2))
    records = [
        lambda: mhp.init_mlp(1, [4], 2, 2, np.random.default_rng(1)),
        lambda: mhp.make_optimizer("sgd_momentum", mhp.init_mlp(1, [4], 2, 2, rng), 0.1),
        lambda: mhp.tessellate(pts[:3], mhp.L2, pts),
        lambda: mhp.lloyd(pts, 3, rng=np.random.default_rng(2)),
        lambda: Dataset(pts[:, :1], pts[:, 1:], "gmm", None),
    ]
    for make in records:
        a, b = make(), make()
        assert (a == a) is True and (a == b) is False and (a != b) is True
