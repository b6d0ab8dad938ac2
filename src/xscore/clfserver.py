"""Reference external classifier, and the bit-CSV formats it shares with
`classify`.

Usage: ``python -m xscore.clfserver TABLE.csv``.  Emits the handshake
``xscore-clf v1 n=<width>``, then answers each request line r of <width>
'0'/'1' characters with a '0' or '1' line, byte int(r, 2) of the table of
`read_truth_table`, and the requests of one read in one write.  Blank
lines are skipped; any other request ends the server with exit 1 after the
answers before it, as does a bad table, after one ``error:`` line.

A server start pays for this module, `csv` and `sys` only.  It exits as
`python -m xscore` does, through `exit_process`.  Its handshake and names
check are the package root's; `classify` loads this module only to read a
truth-table or sample CSV.
"""
import csv
import sys

from . import PROTOCOL_HANDSHAKE, check_feature_names, exit_process, text_lines

_BITS = frozenset(("0", "1"))

#: Most features a truth table may have: its byte table then takes 64 MiB.
TABLE_WIDTH_LIMIT = 26


def serve(table_path, stdin, stdout) -> int:
    """Serve the table at `table_path` on the binary `stdin` and `stdout`."""
    names, table = read_truth_table(table_path)
    width = len(names)
    stdout.write(f"{PROTOCOL_HANDSHAKE} n={width}\n".encode())
    stdout.flush()
    tail, more = b"", True
    while more:
        more = stdin.read1()
        # At the end of the input, the last line needs no newline.
        *lines, tail = (tail + more).split(b"\n") if more else (tail, b"")
        out, bad = bytearray(), None
        for request in filter(None, map(bytes.strip, lines)):
            if len(request) != width or request.translate(None, b"01"):
                bad = request.decode(errors="replace")
                break
            out += (b"0\n", b"1\n")[table[int(request, 2)]]
        if out:
            stdout.write(out)
            stdout.flush()
        if bad is not None:
            print(f"malformed request {bad!r}", file=sys.stderr)
            return 1
    return 0


def read_truth_table(path) -> tuple[list[str], bytearray]:
    """Feature names and the labels of a truth-table CSV, all 2^n entities
    present: byte i is the label of the entity of index i.  A header of more
    than `TABLE_WIDTH_LIMIT` features is refused before any row is read."""
    rows = read_bit_csv(path, "label")
    names, labelled = next(rows)
    if not labelled:
        raise ValueError(f"{path}: missing required column 'label'")
    if len(names) > TABLE_WIDTH_LIMIT:
        raise ValueError(
            f"{path}: {len(names)} features exceed the truth-table limit {TABLE_WIDTH_LIMIT}"
        )
    table = bytearray(b"\x02") * 2 ** len(names)  # 2: no row yet
    for line_no, bits, label in rows:
        index = int(bits, 2)
        if table[index] != 2:
            raise ValueError(f"{path}: duplicate entity row at line {line_no}")
        table[index] = label
    check_total(len(table) - table.count(2), len(names))
    return names, table


def check_total(rows: int, width: int) -> None:
    if rows != 2**width:
        raise ValueError(f"truth table has {rows} rows, needs all {2 ** width}")


def read_bit_csv(path, column: str):
    """A bit CSV as a stream: first its feature names and whether the header
    holds the special `column` (at most once), then per row the line number,
    the feature bits as a '0'/'1' string and the bit of `column` (None where
    the header lacks it).  So the first fault in file order is refused."""
    reader = csv.reader(text_lines(path))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row") from None
    if header.count(column) > 1:
        raise ValueError(f"{path}: header has more than one {column} column")
    special_col = header.index(column) if column in header else None
    names = [h for i, h in enumerate(header) if i != special_col]
    try:
        check_feature_names(names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    yield names, special_col is not None
    for line_no, row in enumerate(reader, 2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row at line {line_no} has {len(row)} fields, expected {len(header)}"
            )
        cells = row  # strip only a row whose raw cells are not all bits
        if not _BITS.issuperset(row):
            cells = [cell.strip() for cell in row]
            if not _BITS.issuperset(cells):
                bad = next(cell for cell in row if cell.strip() not in _BITS)
                raise ValueError(f"{path}: non-bit value {bad!r} at line {line_no}")
        extra = None if special_col is None else int(cells.pop(special_col))
        yield line_no, "".join(cells), extra


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m xscore.clfserver TABLE.csv", file=sys.stderr)
        return 2
    try:
        return serve(argv[0], sys.stdin.buffer, sys.stdout.buffer)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    exit_process(main())
