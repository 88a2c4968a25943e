"""Small shared I/O helpers: atomic text, ``.npz``, JSON and CSV writes, :func:`read_json`,
the one reader of a config, sidecar, checkpoint or generators file, :func:`read_field`, the
one reader for a field of it, and :func:`worker_count`, the number of workers that format
the row parts of a large CSV table."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import _csv_rows

_CSV_CHUNK_ROWS = 4096
# the type code and dtype an int column is formatted as, by dtype kind; any other column
# is formatted as float64, code "d"
_CSV_RAW = {"i": ("q", np.int64), "u": ("Q", np.uint64)}


def worker_count(jobs: int) -> int:
    """Workers for ``jobs`` independent jobs: one per core this process may use, at most
    one per job."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(jobs, cores)


def _shown(value) -> str:
    """``repr(value)`` cut to 60 characters, so a refused list stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def read_int(value) -> int:
    """An int or an integral float as an int; a bool is refused, nothing is truncated."""
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {_shown(value)}")


def read_seed(value) -> int:
    """A seed: an integer as ``read_int`` reads it, and not negative (numpy refuses a negative
    seed with a message that names no field)."""
    seed = read_int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {_shown(value)}")
    return seed


def read_number(value) -> float:
    """An int or a float as a float; a bool or a string is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {_shown(value)}")


def read_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {_shown(value)}")
    return value


def read_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {_shown(value)}")
    return value


def read_list(read, length: int | None = None):
    """The reader of a JSON list whose entries each read with ``read``, of ``length`` if given."""
    def read_entries(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {_shown(value)}")
        if length is not None and len(value) != length:
            raise ValueError(f"expected {length} entries, got {_shown(value)}")
        return [read(v) for v in value]
    return read_entries


def read_json(path):
    """The JSON document at ``path``. Text that does not decode as UTF-8 or parse as JSON
    raises ValueError("<path>: <reason>"); a file that cannot be read raises OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None


def read_field(doc, key: str, read, default=..., *, where: str | None):
    """``read(doc[key])``, or ``read(default)`` if the key is absent and a default is given.
    Failures raise ValueError("<where>: field '<key>': <reason>"); where=None drops "<where>: "."""
    try:
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        if key not in doc and default is ...:
            raise ValueError("missing")
        return read(doc.get(key, default))
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{'' if where is None else f'{where}: '}field {key!r}: {err}") from None


@contextmanager
def _replacing(path: Path, binary: bool = False):
    """Text handle ending each line in LF on every platform (or, if ``binary``, bytes handle)
    on a temp sibling of ``path``, renamed over it on success and removed on failure, so
    that ``path`` keeps its old bytes and nothing else is left."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename."""
    path = Path(path)
    with _replacing(path) as fh:
        fh.write(text)
    return path


def write_npz_atomic(path, **arrays) -> Path:
    """Write ``arrays`` to ``path`` as an uncompressed ``.npz`` archive (``np.savez``, one
    ``.npy`` member per keyword, in order) via a temp file and rename. zipfile stamps each
    member with its fixed 1980 default date, so equal arrays write equal bytes."""
    path = Path(path)
    with _replacing(path, binary=True) as fh:
        np.savez(fh, **arrays)
    return path


def write_json_atomic(path, obj, *, indent: int | None = 2) -> Path:
    """Serialize ``obj`` to ``path`` atomically, with a trailing newline. The whole text is
    encoded before the temp file is opened, so a document that does not encode, such as one
    holding a NaN or an infinity (strict JSON has neither), writes nothing."""
    try:
        text = json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return write_text_atomic(path, text + "\n")


def _part(columns: list, start: int, stop: int) -> list:
    """Rows [start, stop) of each ``(column, (type code, dtype))`` as ``write_rows`` takes
    them: the values as the dtype, with the type code."""
    return [(np.asarray(column[start:stop], dtype), code) for column, (code, dtype) in columns]


def _start_helper(helpers: ExitStack, part: list):
    """A helper process formatting ``part`` into an unnamed temp file, as ``(process,
    file)``; None if no process could be started. ``helpers`` kills and reaps the process
    and closes its files."""
    stdin = helpers.enter_context(tempfile.TemporaryFile())
    for values, _ in part:
        stdin.write(np.ascontiguousarray(values))
    stdin.seek(0)  # flushes, and the helper reads from the start
    stdout = helpers.enter_context(tempfile.TemporaryFile())
    try:
        process = subprocess.Popen(
            [sys.executable, "-S", "-E", _csv_rows.__file__, str(len(part[0][0])),
             str(_CSV_CHUNK_ROWS), "".join(code for _, code in part)],
            stdin=stdin, stdout=stdout)
    except OSError:
        return None
    helpers.callback(process.wait)
    helpers.callback(process.kill)  # a no-op once the process has been waited for
    return process, stdout


def write_csv_atomic(path, header, *blocks) -> Path:
    """Write (n, k) arrays side by side as CSV rows, after an optional header.

    A 1-d block is one column. An integer column is read as int64 (uint64 if
    unsigned) and prints as integers; any other column is read as float64 and
    prints as the shortest text that round-trips to the same float64. A table
    of at least two ``_CSV_CHUNK_ROWS`` chunks per worker is split into
    contiguous row parts, one per ``worker_count`` worker: this process
    formats the first, while a ``python -S -E _csv_rows.py`` helper process
    formats each other part from its raw column values into an unnamed temp
    file, which is then appended in order. Every part runs the one formatter,
    ``_csv_rows.write_rows``, on the same interpreter, and every line ends in
    LF, so the bytes do not depend on the number of workers. A part whose
    helper cannot be started is formatted here; a helper that fails raises
    OSError. A failed write keeps the old bytes of ``path`` and leaves no temp
    file, and every helper has been reaped when this returns or raises.
    """
    path = Path(path)
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    n = len(blocks[0])
    if any(b.ndim != 2 or len(b) != n for b in blocks):
        raise ValueError("CSV blocks must be (n, k) arrays with the same n")
    columns = [(b[:, j], _CSV_RAW.get(b.dtype.kind, ("d", np.float64)))
               for b in blocks for j in range(b.shape[1])]
    workers = worker_count(max(1, n // (2 * _CSV_CHUNK_ROWS))) if columns else 1
    bounds = [n * k // workers for k in range(workers + 1)]
    with _replacing(path) as fh, ExitStack() as helpers:
        if header is not None:
            fh.write(",".join(header) + "\n")
        if not columns:  # rows without cells: an empty line each
            fh.write("\n" * n)
            return path
        parts = [_part(columns, start, stop) for start, stop in zip(bounds, bounds[1:])]
        started = [(part, _start_helper(helpers, part)) for part in parts[1:]]
        _csv_rows.write_rows(fh.write, parts[0], _CSV_CHUNK_ROWS)
        for part, helper in started:
            if helper is None:
                _csv_rows.write_rows(fh.write, part, _CSV_CHUNK_ROWS)
                continue
            process, text = helper
            if process.wait() != 0:
                raise OSError(f"{path}: CSV row helper exited with status {process.returncode}")
            fh.flush()
            text.seek(0)
            shutil.copyfileobj(text, fh.buffer)
    return path
