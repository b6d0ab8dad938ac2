"""The reference classifier server's contract, run in process, and the
truth-table loader it shares with `classify`."""
import contextlib
import io
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_truth_table, truth_table_by_csv
from xscore import clfserver
from xscore.classify import Entity, load_truth_table_csv


def serve(path, requests: str) -> tuple[int, str]:
    out = io.BytesIO()
    code = clfserver.serve(path, io.BytesIO(requests.encode()), out)
    return code, out.getvalue().decode()


def test_answers_equal_the_in_process_table(tmp_path):
    width = 6
    space, local = random_truth_table(random.Random(7), width)
    table = tmp_path / "table.csv"
    rows = [",".join(space.names) + ",label"]
    for bits in product((0, 1), repeat=width):
        rows.append(",".join(map(str, bits)) + f",{local.label(Entity(bits))}")
    table.write_text("\n".join(rows) + "\n")
    _, loaded = load_truth_table_csv(table)
    requests = ["".join(map(str, bits)) for bits in product((0, 1), repeat=width)]

    code, out = serve(table, "".join(f"{r}\n" for r in requests))

    assert code == 0
    handshake, *answers = out.splitlines()
    assert handshake == f"xscore-clf v1 n={width}"
    assert answers == [str(loaded.label(Entity.from_bits(r))) for r in requests]


def test_batch_is_answered_in_order(data_dir):
    # One write of many requests, as a window arrives from the client, with
    # repeats and out of table order.
    rng = random.Random(3)
    requests = ["".join(rng.choice("01") for _ in range(3)) for _ in range(200)]
    _, table = clfserver.read_truth_table(data_dir / "ex6_table.csv")
    server = subprocess.Popen(
        [sys.executable, "-m", "xscore.clfserver", str(data_dir / "ex6_table.csv")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    out, _ = server.communicate("".join(f"{r}\n" for r in requests), timeout=30)
    assert server.returncode == 0
    handshake, *answers = out.splitlines()
    assert handshake == "xscore-clf v1 n=3"
    assert answers == [str(table[int(r, 2)]) for r in requests]


@pytest.mark.parametrize("request_line", ["01", "0a1", "0111"])
def test_malformed_request_ends_the_server(data_dir, capsys, request_line):
    code, out = serve(data_dir / "ex6_table.csv", f"{request_line}\n011\n")
    assert code == 1
    assert out == "xscore-clf v1 n=3\n"
    assert capsys.readouterr().err == f"malformed request {request_line!r}\n"


def test_blank_lines_are_skipped(data_dir):
    assert serve(data_dir / "ex6_table.csv", "\n011\n  \n001\n\n") == (
        0, "xscore-clf v1 n=3\n1\n0\n")


def test_malformed_request_mid_batch_follows_the_answers_before_it(data_dir, capsys):
    code, out = serve(data_dir / "ex6_table.csv", "011\n001\n01\n011\n")
    assert (code, out) == (1, "xscore-clf v1 n=3\n1\n0\n")
    assert capsys.readouterr().err == "malformed request '01'\n"


def test_last_line_without_newline_is_answered(data_dir):
    assert serve(data_dir / "ex6_table.csv", "011\n001") == (0, "xscore-clf v1 n=3\n1\n0\n")


BAD_TABLES = {
    "no label column": "A,B\n0,0\n0,1\n1,0\n1,1\n",
    "duplicate row": "A,label\n0,1\n0,0\n",
    "missing row": "A,B,label\n0,0,1\n0,1,1\n1,0,0\n",
    "non-bit cell": "A,label\n0,1\n2,0\n",
    "empty table": "",
    "short row": "A,B,label\n0,0,1\n0,1\n1,0,0\n1,1,0\n",
}


@pytest.mark.parametrize("text", BAD_TABLES.values(), ids=BAD_TABLES.keys())
def test_bad_table_gives_the_loader_message(tmp_path, text):
    table = tmp_path / "table.csv"
    table.write_text(text)
    with pytest.raises(ValueError) as loader:
        load_truth_table_csv(table)
    with pytest.raises(ValueError, match=f"^{re.escape(str(loader.value))}$"):
        serve(table, "")


def test_main_refuses_a_repeated_label_column(tmp_path, capsys):
    # Read as a feature, the repeat would leave the table short of 2^2 rows.
    table = tmp_path / "table.csv"
    table.write_text("F1,label,label\n0,1,1\n1,0,0\n")
    assert clfserver.main([str(table)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {table}: header has more than one label column\n")


# ---------------------------------------------------------------------------
# The one loader and the one-write server on random tables


@st.composite
def truth_table_files(draw):
    """(width, CSV text) of a random truth table: rows in a random order,
    the label column at a random place, and a random BOM and line end."""
    width, rng = draw(st.integers(1, 8)), random.Random(draw(st.integers(0, 2**32)))
    labels = [rng.randint(0, 1) for _ in range(2**width)]
    order = rng.sample(range(2**width), 2**width)
    at = draw(st.integers(0, width))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    header = [f"F{i + 1}" for i in range(width)]
    header.insert(at, "label")
    rows = [",".join(header)]
    for index in order:
        cells = list(format(index, f"0{width}b"))
        cells.insert(at, str(labels[index]))
        rows.append(",".join(cells))
    return width, bom + end.join(rows) + end


@contextlib.contextmanager
def written(text: str):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        path.write_bytes(text.encode())
        yield path


@given(truth_table_files())
@settings(max_examples=60, deadline=None)
def test_loaded_labels_equal_a_csv_module_reader(table):
    _, text = table
    with written(text) as path:
        names, expected = truth_table_by_csv(path)
        space, clf = load_truth_table_csv(path)
    assert list(space.names) == names
    assert {bits: clf.label(Entity(bits)) for bits in expected} == expected


class Reads:
    """A binary input stream whose `read1` gives one chunk per call."""

    def __init__(self, chunks):
        self.chunks = iter(chunks)

    def read1(self, size=-1):
        return next(self.chunks, b"")


class Writes:
    """A binary output stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    def flush(self):
        pass


def chunked(data: bytes, rng: random.Random) -> list[bytes]:
    """`data` cut at random places, lines split across reads included."""
    cuts = sorted(rng.sample(range(1, len(data)), min(max(len(data) - 1, 0), rng.randint(0, 6))))
    return [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)]) if a < b]


@given(truth_table_files(), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=60, deadline=None)
def test_server_answers_each_read_in_one_write(table, rng, malformed):
    width, text = table
    requests = [format(rng.randrange(2**width), f"0{width}b") for _ in range(rng.randint(0, 40))]
    lines = [rng.choice(["", "  ", "\r"]) if rng.random() < 0.2 else r for r in requests]
    bad = None
    if malformed:
        wrong = ["0" * (width + 1), "x" * width, "+" + "1" * (width - 1), "0b1"[:width]]
        bad = rng.choice([w for w in wrong if len(w) != width or set(w) - {"0", "1"}])
        lines.insert(rng.randint(0, len(lines)), bad)
    reads = chunked("\n".join(lines).encode() + rng.choice([b"", b"\n"]), rng)
    with written(text) as path:
        _, expected = truth_table_by_csv(path)
        out, err = Writes(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = clfserver.serve(path, Reads(reads), out)
    # Read k completes the lines up to its last newline; the answers to
    # those not yet answered go out in one write, up to a malformed one.
    ends = [b"".join(reads[: k + 1]).count(b"\n") for k in range(len(reads))]
    groups = [lines[a:b] for a, b in zip([0, *ends], ends)] + [lines[ends[-1] if ends else 0 :]]
    writes = []
    for group in groups:
        asked = group[: group.index(bad)] if bad in group else group
        answers = "".join(f"{expected[tuple(map(int, r.strip()))]}\n" for r in asked if r.strip())
        writes += [answers.encode()] if answers else []
        if bad in group:
            break
    assert out.writes == [f"xscore-clf v1 n={width}\n".encode(), *writes]
    if malformed:
        assert (code, err.getvalue()) == (1, f"malformed request {bad!r}\n")
    else:
        assert (code, err.getvalue()) == (0, "")


def test_wide_table_header_is_refused_before_any_row(tmp_path):
    # A 2^27-byte table is never allocated for a file that cannot fill it.
    table = tmp_path / "table.csv"
    names = [f"F{i + 1}" for i in range(27)]
    table.write_text(",".join(names) + ",label\n" + ",".join("0" * 28) + "\n")
    message = f"{table}: 27 features exceed the truth-table limit 26"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_truth_table_csv(table)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serve(table, "")


def test_width_16_table_loads_in_a_byte_table(tmp_path):
    # 2^16 labels take 64 KiB as bytes, far under the bound; a dict with
    # 2^16 string or tuple keys would pass it many times over.
    width = 16
    table = tmp_path / "table.csv"
    rng = random.Random(16)
    with table.open("w") as fh:
        fh.write(",".join(f"F{i + 1}" for i in range(width)) + ",label\n")
        for index in range(2**width):
            fh.write(",".join(format(index, f"0{width}b")) + f",{rng.randint(0, 1)}\n")
    tracemalloc.start()
    try:
        _, clf = load_truth_table_csv(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert clf.label(Entity((1,) * width)) in (0, 1)
