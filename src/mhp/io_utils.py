"""Small shared I/O helpers: atomic text and JSON writes and round-trip
float text."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def _replacing(path: Path):
    """Text handle on a temp sibling of ``path``, renamed over it on success."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename."""
    path = Path(path)
    with _replacing(path) as fh:
        fh.write(text)
    return path


def write_json_atomic(path, obj, *, indent: int | None = 2) -> Path:
    """Serialize ``obj`` to ``path`` atomically, with a trailing newline.

    The encoding is streamed into the file: building a checkpoint's text as
    one string first costs several times its size in peak memory.
    """
    path = Path(path)
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")
    return path


def format_float(value: float) -> str:
    """Shortest decimal text that round-trips to the same float64."""
    return repr(float(value))
