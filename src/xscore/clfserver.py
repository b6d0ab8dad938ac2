"""Reference external classifier, and the bit-CSV formats it shares with
`classify`.

Usage: ``python -m xscore.clfserver TABLE.csv``.  Emits the handshake
``xscore-clf v1 n=<width>``, then answers each request line of <width>
'0'/'1' characters with a single '0' or '1' line.  Blank lines are
skipped; any other request ends the server with exit 1, as does a
table that is missing or bad, after one ``error:`` line on stderr.

A server start pays for this module, `csv` and `sys` only: a request is
one lookup in the {bit string: label} table of `read_truth_table`.  Run
as a process, it exits as `python -m xscore` does, with the heap frozen.
"""
import csv
import gc
import sys

PROTOCOL_HANDSHAKE = "xscore-clf v1"

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
    rows, names = read_bit_csv(path, "label", required=True)
    check_feature_names(names)
    table: dict[str, int] = {}
    for line_no, bits, label in rows:
        if bits in table:
            raise ValueError(f"{path}: duplicate entity row at line {line_no}")
        table[bits] = label
    check_total(len(table), len(names))
    return names, table


def check_feature_names(names) -> None:
    if not names:
        raise ValueError("a feature space needs at least one feature")
    if len(set(names)) != len(names):
        raise ValueError("feature names must be unique")


def check_total(rows: int, width: int) -> None:
    if rows != 2**width:
        raise ValueError(f"truth table has {rows} rows, needs all {2 ** width}")


def read_bit_csv(
    path, column: str, required: bool
) -> tuple[list[tuple[int, str, int | None]], list[str]]:
    """(line number, feature bits as a '0'/'1' string, bit of the special
    `column`, None where the header lacks it) per row, and the feature
    names.  The header may hold `column` at most once, and must when
    `required`."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if header.count(column) > 1:
            raise ValueError(f"{path}: header has more than one {column} column")
        special_col = header.index(column) if column in header else None
        if required and special_col is None:
            raise ValueError(f"{path}: missing required column {column!r}")
        names = [h for i, h in enumerate(header) if i != special_col]
        out = []
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
            out.append((line_no, "".join(cells), extra))
    return out, names


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
    code = main()
    gc.freeze()
    sys.exit(code)
