"""The CSV row format, and a script that formats one part of a table.

:func:`write_rows` is the one formatter: a cell is ``str`` of an integer or ``repr`` of a
float; cells join with ",", and every row ends in a newline. This module imports only
``sys``, so ``io_utils.write_csv_atomic`` can run it as ``python -S -E _csv_rows.py <rows>
<chunk rows> <type codes>`` on a row part of a large table. Its stdin holds each column's
values in turn, as raw native bytes of the type code (``d`` float64, ``q`` int64, ``Q``
uint64); it writes the part's rows to stdout.
"""

import sys


def write_rows(write, columns: list, chunk: int) -> None:
    """Pass the text of the rows of ``columns``, (values, type code) pairs of equal length
    whose values slice and have ``tolist()``, to ``write``, ``chunk`` rows at a time."""
    for start in range(0, len(columns[0][0]), chunk):
        cells = [list(map(str if code in "qQ" else repr, values[start:start + chunk].tolist()))
                 for values, code in columns]
        write("\n".join(map(",".join, zip(*cells))) + "\n")


def main() -> None:
    n, chunk, codes = sys.argv[1:]
    size = 8 * int(n)  # every type code is 8 bytes wide
    data = memoryview(sys.stdin.buffer.read())
    out = sys.stdout.buffer
    write_rows(lambda text: out.write(text.encode("ascii")),
               [(data[k * size:(k + 1) * size].cast(code), code) for k, code in enumerate(codes)],
               int(chunk))


if __name__ == "__main__":
    main()
