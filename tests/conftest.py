import os
from pathlib import Path

import pytest

from xscore import classify, reldb

DATA_DIR = Path(__file__).parent / "data"

# Child processes the tests start (`python -m xscore.clfserver`) import the
# package too, also when pytest put `src` on the path only for itself.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def ex1_db() -> reldb.Database:
    """Six-tuple instance: R = {(a,b), (c,d), (b,b)}, S = {a, c, b}."""
    db = reldb.Database()
    for values in [("a", "b"), ("c", "d"), ("b", "b")]:
        db.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for value in ["a", "c", "b"]:
        db.add("S", (value,), tuple_id=f"S({value})")
    return db


@pytest.fixture
def ex1_query() -> reldb.ConjunctiveQuery:
    return reldb.parse_query("Q() :- S(x), R(x,y), S(y)")


@pytest.fixture
def ce_db() -> reldb.Database:
    """Five-tuple instance: R = {(a,b), (a,c), (c,b)}, S = {b, c}."""
    db = reldb.Database()
    for values in [("a", "b"), ("a", "c"), ("c", "b")]:
        db.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for value in ["b", "c"]:
        db.add("S", (value,), tuple_id=f"S({value})")
    return db


@pytest.fixture
def ce_query() -> reldb.ConjunctiveQuery:
    return reldb.parse_query("Q() :- R(x,y), S(y)")


@pytest.fixture
def path_db() -> reldb.Database:
    """Edge relation of the a-to-b path graph, tuples t1..t6."""
    db = reldb.Database()
    edges = [("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "e"), ("e", "b")]
    for i, values in enumerate(edges):
        db.add("E", values, tuple_id=f"t{i + 1}")
    return db


@pytest.fixture
def path_lineage(path_db) -> reldb.Lineage:
    return reldb.parse_lineage("t1 | (t2 & t3) | (t4 & t5 & t6)", path_db)


EX6_ROWS = {
    (0, 1, 1): 1,
    (1, 1, 1): 1,
    (1, 1, 0): 1,
    (1, 0, 1): 0,
    (1, 0, 0): 1,
    (0, 1, 0): 1,
    (0, 0, 1): 0,
    (0, 0, 0): 0,
}


@pytest.fixture
def ex6_space() -> classify.FeatureSpace:
    return classify.FeatureSpace(("F1", "F2", "F3"))


@pytest.fixture
def ex6_classifier() -> classify.TableClassifier:
    return classify.TableClassifier(3, EX6_ROWS)


@pytest.fixture
def ex6_e1() -> classify.Entity:
    return classify.Entity((0, 1, 1))
