"""Reference external classifier, and the bit-CSV formats it shares with
`classify`.

Usage: ``python -m xscore.clfserver TABLE.csv``.  Emits the handshake
``xscore-clf v1 n=<width>``, then answers each request line of <width>
'0'/'1' characters with a single '0' or '1' line.  Blank lines are
skipped; any other request ends the server with exit 1, as does a
table that is missing or bad, after one ``error:`` line on stderr.

A server start pays for this module, `csv` and `sys` only: a request is
one lookup in the {bit string: label} table of `read_truth_table`.  Run
as a process, it exits as `python -m xscore` does, through `exit_process`.
Its handshake and names check are the package root's; `classify` loads
this module only to read a truth-table or sample CSV.
"""
import csv
import sys

from . import PROTOCOL_HANDSHAKE, check_feature_names, exit_process, text_lines

_BITS = frozenset(("0", "1"))


def serve(table_path, stdin, stdout) -> int:
    names, table = read_truth_table(table_path)
    stdout.write(f"{PROTOCOL_HANDSHAKE} n={len(names)}\n")
    stdout.flush()
    for line in stdin:
        request = line.strip()
        if not request:
            continue
        # The table is total, so a miss is a wrong width or a non-bit.
        label = table.get(request)
        if label is None:
            print(f"malformed request {request!r}", file=sys.stderr)
            return 1
        stdout.write(f"{label}\n")
        stdout.flush()
    return 0


def read_truth_table(path) -> tuple[list[str], dict[str, int]]:
    """Feature names and {bit string: label} of a truth-table CSV: feature
    columns plus a `label` column, one row per entity, all 2^n entities
    present."""
    rows = read_bit_csv(path, "label")
    names, labelled = next(rows)
    if not labelled:
        raise ValueError(f"{path}: missing required column 'label'")
    table: dict[str, int] = {}
    for line_no, bits, label in rows:
        if bits in table:
            raise ValueError(f"{path}: duplicate entity row at line {line_no}")
        table[bits] = label
    check_total(len(table), len(names))
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
        return serve(argv[0], sys.stdin, sys.stdout)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    exit_process(main())
