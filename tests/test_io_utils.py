"""Atomic text, JSON and CSV writes, and the JSON field reader."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mhp import _csv_rows, io_utils
from mhp.io_utils import (read_bool, read_field, read_int, read_list, read_number, read_seed,
                          read_str, write_csv_atomic, write_json_atomic, write_npz_atomic,
                          write_text_atomic)


def test_text_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    assert write_text_atomic(path, "a,b\n1,2\n") == path
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_npz_write_replaces_and_a_failed_one_keeps_the_old_file(tmp_path):
    class Unconvertible:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("no array")

    path = tmp_path / "t.npz"
    path.write_bytes(b"old")
    table = np.array([[0.1, -0.0], [np.pi, 5e-324]])
    assert write_npz_atomic(path, table=table, tag=np.arange(3, dtype=np.uint8)) == path
    with np.load(path, allow_pickle=False) as npz:
        assert list(npz.keys()) == ["table", "tag"]
        assert np.array_equal(npz["table"].view(np.uint64), table.view(np.uint64))
    written = path.read_bytes()
    with pytest.raises(RuntimeError, match="no array"):  # after the first member is written
        write_npz_atomic(path, table=table, bad=Unconvertible())
    assert path.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]


def test_json_bytes_are_dumps_plus_newline(tmp_path):
    doc = {"x": [1.5, 0.1, -2e-300], "name": "mé", "nested": {"k": None}}
    for indent in (2, None):
        path = write_json_atomic(tmp_path / f"doc{indent}.json", doc, indent=indent)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=indent) + "\n"
        assert json.loads(path.read_text(encoding="utf-8")) == doc


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_nan_and_infinity_and_writes_nothing(tmp_path, value):
    # strict JSON has neither; the document is refused before any file is opened
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="^" + re.escape(str(path)) + ": .*not JSON compliant"):
        write_json_atomic(path, {"ok": 1.5, "nested": [[value]]})
    assert not list(tmp_path.iterdir())
    path.write_text("old\n")
    with pytest.raises(ValueError):
        write_json_atomic(path, [value])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


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


@pytest.mark.parametrize("n", [1, 5, io_utils._CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("header", [["a"], None], ids=["header", "no_header"])
def test_zero_width_table_writes_an_empty_line_per_row(tmp_path, n, header):
    blocks = (np.zeros((n, 0)), np.zeros((n, 0), dtype=np.int64))
    path = write_csv_atomic(tmp_path / "t.csv", header, *blocks)
    assert path.read_text(encoding="utf-8") == reference_csv(header, *blocks)


def test_helper_script_writes_the_bytes_write_rows_gives_here():
    n, chunk = 9, 4  # two whole chunks and a short one
    rng = np.random.default_rng(8)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    floats[:3] = [-0.0, 5e-324, 1e300]
    columns = [(floats, "d"), (rng.integers(-10**12, 10**12, size=n), "q"),
               (rng.integers(2**63, 2**64, size=n, dtype=np.uint64), "Q")]
    here = []
    _csv_rows.write_rows(here.append, columns, chunk)
    helper = subprocess.run(
        [sys.executable, "-S", "-E", _csv_rows.__file__, str(n), str(chunk), "dqQ"],
        input=b"".join(values.tobytes() for values, _ in columns), capture_output=True,
        check=True)
    assert helper.stdout == "".join(here).encode("ascii")
    assert helper.stderr == b""


def test_text_files_are_written_with_lf_line_ends(tmp_path, monkeypatch):
    # a helper's part reaches the file as its bytes, so this process's rows and header
    # must not get the platform's line ends either
    opened = []

    def spy(file, mode="r", **kwargs):
        opened.append((mode, kwargs.get("newline")))
        return open(file, mode, **kwargs)
    monkeypatch.setattr(io_utils, "open", spy, raising=False)
    write_text_atomic(tmp_path / "t.txt", "a\n")
    write_json_atomic(tmp_path / "t.json", {"a": 1})
    write_csv_atomic(tmp_path / "t.csv", ["a"], np.arange(3))
    assert opened == [("w", "\n")] * 3


def test_row_script_imports_only_sys():
    # the helper starts as ``python -S -E``, without site-packages or PYTHONPATH
    tree = ast.parse(Path(_csv_rows.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported == ["sys"]


def _fail_on_second_chunk(monkeypatch):
    """This process's second chunk write raises a full-disk OSError, after the first chunk
    is written."""
    real = _csv_rows.write_rows

    def write_rows(write, columns, chunk):
        calls = []

        def failing(text):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            write(text)
        real(failing, columns, chunk)
    monkeypatch.setattr(_csv_rows, "write_rows", write_rows)


@pytest.mark.parametrize("failure, error", [
    ("disk full", OSError),
    # an object column converts once per part, before any of the part's rows is written
    ("bad cell in the second chunk", ValueError),
], ids=["oserror", "object_column"])
def test_failed_csv_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch,
                                                                 failure, error):
    path = tmp_path / "out2.csv"
    write_csv_atomic(path, ["a", "b"], np.arange(6.0).reshape(3, 2))
    old = path.read_bytes()
    n = 2 * io_utils._CSV_CHUNK_ROWS
    if failure == "disk full":
        _fail_on_second_chunk(monkeypatch)
        block = np.ones((n, 2))
    else:
        block = np.ones((n, 2), dtype=object)
        block[n - 1, 1] = "x"
    with pytest.raises(error):
        write_csv_atomic(path, ["a", "b"], block)
    assert [p.name for p in tmp_path.iterdir()] == ["out2.csv"]
    assert path.read_bytes() == old


def test_worker_count_is_one_per_usable_core_at_most_one_per_job(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [io_utils.worker_count(jobs) for jobs in (1, 2, 3, 10)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert io_utils.worker_count(10) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert io_utils.worker_count(10) == 1


def large_table():
    """Blocks of every kind the writer takes, with a row count that neither 2 nor 3 divides
    and enough rows for three parts."""
    n = 6 * io_utils._CSV_CHUNK_ROWS + 1
    rng = np.random.default_rng(12)
    floats = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    floats[[0, n // 2, n - 1], 0] = [-0.0, 5e-324, 1e300]
    ints = rng.integers(-10**12, 10**12, size=n)
    ints[[0, n - 1]] = [-10**12, 10**12]
    objects = rng.normal(size=n).astype(object)
    objects[1::3] = 7
    uints = rng.integers(2**63, 2**64, size=n, dtype=np.uint64)
    blocks = (np.zeros((n, 0)), floats, ints, uints, rng.random(n) < 0.5, objects)
    return ["a", "b", "i", "u", "flag", "obj"], blocks


@pytest.fixture(scope="module")
def large_csv():
    header, blocks = large_table()
    return header, blocks, reference_csv(header, *blocks)


def assert_same_table(path, want: str) -> None:
    """``path`` holds ``want``; a mismatch names the first differing line instead of leaving
    pytest to diff megabytes of text."""
    got = path.read_text(encoding="utf-8")
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line = next((i for i, (g, w) in enumerate(pairs) if g != w), None)
        pytest.fail(f"first differing line: {line}; lengths {len(got)} and {len(want)}")


def usable_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def count_helpers(monkeypatch) -> list:
    started, popen = [], subprocess.Popen

    def counted(*args, **kwargs):
        process = popen(*args, **kwargs)
        started.append(process)
        return process
    monkeypatch.setattr(subprocess, "Popen", counted)
    return started


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_csv_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, large_csv, cores):
    header, blocks, want = large_csv
    usable_cores(monkeypatch, cores)
    started = count_helpers(monkeypatch)
    path = write_csv_atomic(tmp_path / "t.csv", header, *blocks)
    assert len(started) == cores - 1
    assert_same_table(path, want)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_parts_whose_helper_cannot_start_are_formatted_here(tmp_path, monkeypatch, large_csv):
    header, blocks, want = large_csv
    usable_cores(monkeypatch, 3)
    started = count_helpers(monkeypatch)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "missing" / "python"))
    path = write_csv_atomic(tmp_path / "t.csv", header, *blocks)
    assert started == []
    assert_same_table(path, want)


@pytest.mark.parametrize("failure", ["helper", "own_part"])
def test_failed_parallel_csv_write_keeps_the_old_file_and_no_process(tmp_path, monkeypatch,
                                                                     failure):
    path = tmp_path / "out.csv"
    write_csv_atomic(path, ["a", "b"], np.arange(6.0).reshape(3, 2))
    old = path.read_bytes()
    usable_cores(monkeypatch, 3)
    started = count_helpers(monkeypatch)
    if failure == "helper":
        monkeypatch.setattr(sys, "executable", "/bin/false")
    else:
        _fail_on_second_chunk(monkeypatch)
    with pytest.raises(OSError):
        write_csv_atomic(path, ["a", "b"], np.ones((6 * io_utils._CSV_CHUNK_ROWS, 2)))
    assert len(started) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_bytes() == old
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_blocks_of_different_lengths_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv_atomic(tmp_path / "t.csv", None, np.zeros((3, 1)), np.zeros((4, 1)))


@pytest.mark.parametrize("read, good, bad", [
    (read_int, [(3, 3), (-2.0, -2), (10**20, 10**20)],
     [True, 2.5, float("inf"), float("nan"), "2", None, [2]]),
    (read_number, [(3, 3.0), (0.05, 0.05), (float("inf"), float("inf"))],
     [False, "0.05", None, [1.0], {}]),
    (read_str, [("l2", "l2")], [5, None, ["l2"]]),
    (read_list(read_int), [([], []), ([1, 2.0], [1, 2])], [{}, "12", [1, "2"], [1.5]]),
    (read_seed, [(0, 0), (7.0, 7), (2**40, 2**40)], [-1, -3.0, True, 2.5, "5", None]),
])
def test_readers_take_their_type_and_refuse_the_rest(read, good, bad):
    for value, expected in good:
        result = read(value)
        assert result == expected and type(result) is type(expected)
    for value in bad:
        with pytest.raises(ValueError):
            read(value)


@pytest.mark.parametrize("read, good, bad", [
    (read_bool, [(True, True), (False, False)], [0, 1, "no", "true", None]),
    (read_list(read_int, 3), [([8, 8, 1.0], [8, 8, 1])], [[8, 8], [8, 8, 1, 1], ["8", "8", 1]]),
])
def test_bool_and_fixed_length_readers(read, good, bad):
    for value, expected in good:
        result = read(value)
        assert result == expected and type(result) is type(expected)
    for value in bad:
        with pytest.raises(ValueError):
            read(value)


@pytest.mark.parametrize("read", [read_int, read_number, read_str, read_bool,
                                  read_list(read_int, 3), read_list(read_str)],
                         ids=["int", "number", "str", "bool", "list_of_3", "entry"])
def test_a_refused_value_is_shown_cut_short(read):
    value = [[0.125 * k for k in range(100)], list(range(100))]
    with pytest.raises(ValueError) as info:
        read(value)
    shown = str(info.value).split("got ", 1)[1]
    assert len(shown) == 60 and shown.endswith("...") and shown[:-3] in repr(value)


def test_field_errors_name_the_place_and_the_field():
    doc = {"M": "2", "lr": 10**400, "n": 4}
    cases = [(lambda: read_field(doc, "M", read_int, where="c.json"),
              "c.json: field 'M': expected an integer, got '2'"),
             (lambda: read_field(doc, "lr", read_number, where="c.json"),
              "c.json: field 'lr': int too large to convert to float"),
             (lambda: read_field(doc, "seed", read_int, where="c.json"),
              "c.json: field 'seed': missing"),
             (lambda: read_field([doc], "M", read_int, where="c.json"),
              "c.json: field 'M': expected a JSON object, got list")]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_field_default_applies_only_when_absent():
    assert read_field({"n": 4}, "n", read_int, 7, where="w") == 4
    assert read_field({}, "n", read_int, 7.0, where="w") == 7
    with pytest.raises(ValueError, match="field 'n'"):
        read_field({"n": None}, "n", read_int, 7, where="w")
