"""The names the ``mhp`` package exports."""

import mhp

REMOVED = ("AssignmentResult", "assign", "meta_loss", "meta_loss_upstream_grads", "loss",
           "loss_grad", "backward", "Layer")


def test_every_exported_name_resolves():
    assert [name for name in mhp.__all__ if not hasattr(mhp, name)] == []


def test_no_name_is_exported_twice():
    assert len(set(mhp.__all__)) == len(mhp.__all__)


def test_single_sample_wrappers_are_not_exported():
    assert set(REMOVED).isdisjoint(mhp.__all__)
