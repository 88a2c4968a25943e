"""Atomic text, JSON and CSV writes."""

import json

import numpy as np
import pytest

from mhp import io_utils
from mhp.io_utils import write_csv_atomic, write_json_atomic, write_text_atomic


def test_text_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    assert write_text_atomic(path, "a,b\n1,2\n") == path
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_json_bytes_are_dumps_plus_newline(tmp_path):
    doc = {"x": [1.5, 0.1, -2e-300], "name": "mé", "nested": {"k": None}}
    for indent in (2, None):
        path = write_json_atomic(tmp_path / f"doc{indent}.json", doc, indent=indent)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=indent) + "\n"
        assert json.loads(path.read_text(encoding="utf-8")) == doc


def reference_csv(header, *blocks) -> str:
    """The row loop the writer replaces: repr of each float, str of each int."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    lines = [] if header is None else [",".join(header)]
    for i in range(len(blocks[0])):
        cells = []
        for b in blocks:
            fmt = (lambda v: str(int(v))) if b.dtype.kind in "iu" else (lambda v: repr(float(v)))
            cells.extend(fmt(v) for v in b[i])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 7, io_utils._CSV_CHUNK_ROWS, 2 * io_utils._CSV_CHUNK_ROWS + 5])
def test_csv_bytes_match_the_row_loop(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    floats[0, :3] = [-0.0, 5e-324, 1e300]
    ints = rng.integers(-10**12, 10**12, size=(n, 2))
    blocks = (np.zeros((n, 0)), floats, ints, rng.integers(0, 4, size=n))
    header = ["a", "b", "c", "i", "j", "k"]
    path = write_csv_atomic(tmp_path / "t.csv", header, *blocks)
    assert path.read_text(encoding="utf-8") == reference_csv(header, *blocks)
    write_csv_atomic(path, None, floats)
    assert path.read_text(encoding="utf-8") == reference_csv(None, floats)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_csv_blocks_of_different_lengths_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv_atomic(tmp_path / "t.csv", None, np.zeros((3, 1)), np.zeros((4, 1)))
