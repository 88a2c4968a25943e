"""The CSV row format, and a script that formats one part of a table.

A cell is ``str`` of an integer or ``repr`` of a float; cells join with ",", and every
row ends in a newline. This module imports only ``sys``, so ``io_utils.write_csv_atomic``
can run it as ``python -S -E _csv_rows.py`` on a row part of a large table. Its stdin is
one ASCII line, ``<rows> <chunk rows> <type codes>``, then each column's values in turn, as
raw native bytes of the type code (``d`` float64, ``q`` int64, ``Q`` uint64); it writes
the part's rows to stdout, a chunk of rows at a time.
"""

import sys


def cells(values: list, ints: bool) -> list:
    """The text of a column's cells: ``str`` of each int, else ``repr`` of each float."""
    return list(map(str if ints else repr, values))


def rows(columns: list) -> str:
    """The text of a chunk of rows, given each column's cells."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def main() -> None:
    stdin = sys.stdin.buffer
    n, chunk, codes = stdin.readline().decode("ascii").split()
    n, chunk = int(n), int(chunk)
    data = memoryview(stdin.read())
    size = 8 * n  # every type code is 8 bytes wide
    columns = [(data[k * size:(k + 1) * size].cast(code), code in "qQ")
               for k, code in enumerate(codes)]
    out = sys.stdout.buffer
    for start in range(0, n, chunk):
        out.write(rows([cells(values[start:start + chunk].tolist(), ints)
                        for values, ints in columns]).encode("ascii"))


if __name__ == "__main__":
    main()
