"""The reference classifier server's contract, run in process."""
import io
import random
import re
import subprocess
import sys
from itertools import product

import pytest

from oracles import random_truth_table
from xscore import clfserver
from xscore.classify import Entity, load_truth_table_csv


def serve(path, requests: str) -> tuple[int, str]:
    out = io.StringIO()
    code = clfserver.serve(path, io.StringIO(requests), out)
    return code, out.getvalue()


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
    assert answers == [str(table[r]) for r in requests]


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
