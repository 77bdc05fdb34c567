"""The CSV text of field rows, written with the standard library only.

CompiledFields.save_csv writes one "t,x,j1,j2" line per sample, time-major,
every value at "%.17g".  csv_blocks formats a part of that file: n time
rows given as raw little-endian float64 bytes, where rows i and n-1-i are
mirror rows, a pair k and nt-1-k of the file's rows, which J1 holds
negated.  The calling process imports this module for its own rows; a
child interpreter runs it as a script for the middle rows:

    python -I -S _csvrows.py ROWS NX BLOCK_ROWS < values > text

stdin holds the bytes of x (NX values), of the rows' t (ROWS values) and
of their J1 and then J2 rows (ROWS x NX values each); stdout gets the text
of those rows.  Neither the flags nor the script import anything outside
the standard library, so the child starts without site-packages.
"""

import itertools
import struct
import sys


def floats(data):
    """The little-endian float64 values in the buffer data, as a tuple."""
    return struct.unpack(f"<{len(data) // 8}d", data)


def row_strings(data, nx, fmt):
    """Each row of nx float64 values in data as a list of strings, lazily.

    data holds n rows of raw little-endian bytes, and fmt formats a row's
    tuple of values as one text, the values joined by ",".  Long runs of
    rows repeat (J1 is zero outside the prep windows, J2 the layout outside
    the ramps and gate windows), so a row whose bits equal the previous
    row's reuses its strings.  Bits, not ==, because -0.0 == 0.0 but the
    two print as "-0" and "0".

    Row n-1-i mirrors row i: a row in the first half whose bits, with each
    value's sign bit flipped, are those of its mirror row keeps its text
    until the mirror row comes up.  The mirror's text is then the kept
    text with each sign toggled: "%.17g" writes "-" only as a leading sign
    or after "e", so a "-" in front of every cell, with "--" dropped,
    negates each one.  A row that prints a NaN is not kept, because
    "%.17g" drops the sign of a NaN; its mirror row is formatted like any
    other.
    """
    width = 8 * nx
    n = len(data) // width
    unpack = struct.Struct(f"<{nx}d").unpack
    sign = int.from_bytes((bytes(7) + b"\x80") * nx, "little")

    def row(k):
        return bytes(data[k * width:(k + 1) * width])

    def negated(bits):
        return (int.from_bytes(bits, "little") ^ sign).to_bytes(width,
                                                                "little")

    mirrors = {}
    bits = None
    for i in range(n):
        key, kept = row(i), mirrors.pop(i, None)
        if key != bits:
            bits = key
            if kept is None:
                joined = fmt(unpack(key))
            else:
                joined = ("-" + kept.replace(",", ",-")).replace("--", "")
            text = joined.split(",")
        j = n - 1 - i
        # the byte holding the first value's sign bit screens first
        if (i < j and data[j * width + 7] ^ key[7] == 0x80
                and row(j) == negated(key) and "nan" not in joined):
            mirrors[j] = joined
        yield text


def csv_blocks(x, t, j1, j2, block_rows, cut):
    """The CSV lines of a part's rows, one string per block of rows, lazily.

    x, t, j1 and j2 are raw little-endian float64 bytes: the nx x values,
    the n rows' times and their J1 and J2 values, row by row.  Blocks hold
    block_rows rows, and none spans row cut: the blocks of rows [0, cut)
    come first, then those of rows [cut, n).  Each block is one C-level %
    call: the template repeats the x strings once per row, with the row's
    t in front, and takes the J1 and J2 strings interleaved, so the text
    in memory stays near one block, plus the kept text of mirror rows.
    """
    nx, n = len(x) // 8, len(t) // 8
    fmt = "%.17g".__mod__
    row = "".join(["\0," + v + ",%s,%s\n" for v in map(fmt, floats(x))])
    times = list(map(fmt, floats(t)))
    fmt_row = ",".join(["%.17g"] * nx).__mod__
    first, second = row_strings(j1, nx, fmt_row), row_strings(j2, nx, fmt_row)
    edges = [*range(0, cut, block_rows), *range(cut, n, block_rows), n]
    for start, stop in itertools.pairwise(edges):
        cells = [None] * (2 * nx * (stop - start))
        cells[0::2] = itertools.chain.from_iterable(
            itertools.islice(first, stop - start))
        cells[1::2] = itertools.chain.from_iterable(
            itertools.islice(second, stop - start))
        template = "".join([row.replace("\0", ti)
                            for ti in times[start:stop]])
        yield template % tuple(cells)


def main(argv):
    """Format the rows on stdin, as the module docstring says, to stdout."""
    rows, nx, block_rows = map(int, argv)
    data = memoryview(sys.stdin.buffer.read())
    sizes = (8 * nx, 8 * rows, 8 * rows * nx, 8 * rows * nx)
    if len(data) != sum(sizes):
        sys.exit(f"expected {sum(sizes)} bytes on stdin, got {len(data)}")
    ends = list(itertools.accumulate(sizes, initial=0))
    x, t, j1, j2 = (data[a:b] for a, b in itertools.pairwise(ends))
    with open(sys.stdout.fileno(), "w", encoding="utf-8",
              closefd=False) as out:
        out.writelines(csv_blocks(x, t, j1, j2, block_rows, rows))


if __name__ == "__main__":
    main(sys.argv[1:])
