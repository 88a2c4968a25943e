"""Atomic text and JSON writes."""

import json

from mhp.io_utils import write_json_atomic, write_text_atomic


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
