"""Seeded request generator for the four benchmark workloads.

A workload is a fixed list of request shapes, one *pass*.  The seed picks
only the contents (which pairs, which labels, which entity), never the
shapes, so every seed costs about the same and run-to-run spread stays
small.  Input files go to a scratch directory; xscore sees only those files
and its argv.

Every request is well-posed by construction: each query or lineage is true,
every entity scored by RESP has label 1, an empirical sample contains its
entity, and a constrained entity satisfies its constraint.  `expect` holds
what the output checker needs to recompute the answer on its own.
"""
from __future__ import annotations

import csv
import random
import shlex
from dataclasses import dataclass, replace
from pathlib import Path

CHAIN = "Q() :- S(x), R(x,y), S(y)"
PATH = "Q() :- R(x,y), R(y,z), S(z)"
DB_KINDS = "responsibility,causal_effect,shapley,banzhaf"
MARGINALS = ("1/4", "1/3", "1/2", "2/3", "3/4")

# Approximate Shapley settings; Hoeffding gives ceil(ln(2/delta)/(2 eps^2))
# = 185 permutation samples per tuple.
EPSILON = 0.1
DELTA = 0.05


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple[str, ...]  # arguments after `python -m xscore`
    expect: dict


class _Writer:
    """Names and writes the input files of one generated workload."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def csv(self, stem: str, header: list[str], rows) -> str:
        self.count += 1
        path = self.directory / f"{self.count:03d}-{stem}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows(rows)
        return str(path)


# ---------------------------------------------------------------------------
# Database side


def _chain_instance(rng: random.Random, size: int, inside: int, s_count: int = 3):
    """Chain instance with exactly `size` tuples and a lineage support of
    `s_count + inside`: `inside` R pairs lie in S x S and cover every S
    value; the other R pairs have an endpoint outside S.

    The shape comes from a fixed per-size stream, so every seed gets the
    same amount of work; the seed renames the values and orders the rows.
    """
    shape = random.Random(f"chain:{size}:{inside}")
    domain = list(range(2 * size))
    s_values = shape.sample(domain, s_count)
    square = [(x, y) for x in s_values for y in s_values]
    while True:
        pairs = shape.sample(square, inside)
        if {v for pair in pairs for v in pair} == set(s_values):
            break
    in_s = set(s_values)
    chosen = set(pairs)
    while len(chosen) < size - s_count:
        pair = (shape.choice(domain), shape.choice(domain))
        if not (pair[0] in in_s and pair[1] in in_s):
            chosen.add(pair)
    names = [f"v{i}" for i in rng.sample(range(10 * size), len(domain))]
    r_rows = [(names[x], names[y]) for x, y in sorted(chosen)]
    rng.shuffle(r_rows)
    s_rows = [(names[v],) for v in s_values]
    rng.shuffle(s_rows)
    return {"R": r_rows, "S": s_rows}


def _join_instance(rng: random.Random, size: int):
    """|R| distinct pairs over |R|/4 values; S is a tenth of them.  As for
    the chain instances, the pairs come from a fixed per-size stream, so
    the join output has the same size on every seed; the seed renames the
    values and orders the rows."""
    shape = random.Random(f"join:{size}")
    count = size // 4
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < size:
        pairs.add((shape.randrange(count), shape.randrange(count)))
    s_values = shape.sample(range(count), count // 10)
    names = [f"v{i}" for i in rng.sample(range(10 * count), count)]
    r_rows = [(names[x], names[y]) for x, y in sorted(pairs)]
    rng.shuffle(r_rows)
    s_rows = [(names[v],) for v in s_values]
    rng.shuffle(s_rows)
    return {"R": r_rows, "S": s_rows}


def _relation_args(writer: _Writer, relations: dict) -> list[str]:
    args = []
    for name, rows in relations.items():
        header = ["A", "B"][: len(rows[0])]
        args += ["--relation", f"{name}={writer.csv(name, header, rows)}"]
    return args


def _db_query_request(writer, rng, size, inside, approx: bool) -> Request:
    relations = _chain_instance(rng, size, inside)
    argv = ["db-scores", *_relation_args(writer, relations), "--query", CHAIN]
    if approx:
        seed = rng.randrange(2**31)
        argv += ["--kinds", "shapley", "--mode", "approx", "--epsilon", str(EPSILON),
                 "--delta", str(DELTA), "--seed", str(seed)]
        kinds = ["shapley"]
    else:
        argv += ["--kinds", DB_KINDS]
        kinds = DB_KINDS.split(",")
    label = f"chain-db{size}" + ("-approx" if approx else "")
    expect = {"type": "db", "query": "chain", "relations": relations, "kinds": kinds,
              "approx": {"epsilon": EPSILON, "delta": DELTA} if approx else None}
    return Request(label, tuple(argv), expect)


def _lineage_request(writer, rng, support: int, extra: int = 2) -> Request:
    """Monotone DNF over `support` of the `support + extra` tuples of a unary
    relation T; the `extra` tuples are null players.  The clause shape is
    fixed per support size and the seed picks which tuple plays each part."""
    shape = random.Random(f"lineage:{support}")
    variables = list(range(support))
    shape.shuffle(variables)
    clauses: list[list[int]] = []
    while variables:
        width = min(len(variables), shape.choice((1, 2, 2, 3, 3)))
        clauses.append(variables[:width])
        variables = variables[width:]
    for _ in range(2):
        clauses.append(shape.sample(range(support), shape.choice((2, 3))))
    ids = [f"T:{i}" for i in range(support + extra)]
    used = rng.sample(ids, support)
    parts = []
    for clause in clauses:
        text = " & ".join(used[v] for v in clause)
        parts.append(f"({text})" if len(clause) > 1 and rng.random() < 0.5 else text)
    path = writer.csv("T", ["A"], [(f"c{i}",) for i in range(len(ids))])
    argv = ("db-scores", "--relation", f"T={path}", "--lineage", " | ".join(parts),
            "--kinds", DB_KINDS)
    expect = {"type": "db", "lineage": [sorted({used[v] for v in c}) for c in clauses],
              "tuples": ids, "kinds": DB_KINDS.split(","), "approx": None}
    return Request(f"lineage-{support}", argv, expect)


def _db_join_request(writer, rng, size, query: str) -> Request:
    relations = _join_instance(rng, size)
    argv = ("lineage", *_relation_args(writer, relations), "--query",
            CHAIN if query == "chain" else PATH)
    expect = {"type": "lineage", "query": query, "relations": relations}
    return Request(f"{query}-R{size}", argv, expect)


# ---------------------------------------------------------------------------
# Classifier side


def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _table_csv(writer, width: int, labels: list[int]) -> str:
    names = [f"F{i + 1}" for i in range(width)]
    rows = [[*_bits(i, width), labels[i]] for i in range(2**width)]
    return writer.csv(f"table{width}", names + ["label"], rows)


def _ml_shap_request(writer, rng, width: int, distribution: str) -> Request:
    labels = [rng.randrange(2) for _ in range(2**width)]
    entity = rng.choice([i for i, label in enumerate(labels) if label == 1])
    bits = _bits(entity, width)
    argv = ["ml-scores", "--classifier", _table_csv(writer, width, labels), "--entity", bits,
            "--kinds", "shap,counter,resp"]
    dist: dict = {"type": distribution}
    if distribution == "product":
        marginals = [rng.choice(MARGINALS) for _ in range(width)]
        argv += ["--distribution", "product", "--marginals", ",".join(marginals)]
        dist["marginals"] = marginals
    elif distribution == "empirical":
        others = rng.sample([i for i in range(2**width) if i != entity], 2 ** (width - 2) - 1)
        sample = sorted([entity, *others])
        names = [f"F{i + 1}" for i in range(width)]
        path = writer.csv(f"sample{width}", names, [list(_bits(i, width)) for i in sample])
        argv += ["--distribution", "empirical", "--sample", path]
        dist["sample"] = sample
    elif distribution == "constrained":
        # Denial constraint !(Fa & ~Fb): forbids Fa=1, Fb=0.  Choose a, b
        # so that the entity itself does not have that combination.
        while True:
            a, b = rng.sample(range(width), 2)
            if not (bits[a] == "1" and bits[b] == "0"):
                break
        argv += ["--constraint", f"!(F{a + 1} & ~F{b + 1})"]
        dist["forbid"] = [a, b]
    expect = {"type": "ml", "width": width, "labels": labels, "entity": entity,
              "distribution": dist, "kinds": ["counter", "resp", "shap"]}
    return Request(f"{distribution}-w{width}", tuple(argv), expect)


def _ml_resp_request(writer, rng, width: int, ones: int, python: str) -> Request:
    """Threshold classifier "at least width//2 - 1 ones" behind the reference
    classifier server, explaining an entity with `ones` ones placed by the
    seed.  RESP must change about `ones - threshold` other features, so the
    all-ones entity is far from the threshold and one with `threshold` ones
    sits on it.  Equal weights keep the search work equal across seeds: with
    unequal ones the depth, and so the time, depends on how the weights fall
    in the search order."""
    threshold = width // 2 - 1
    labels = [int(i.bit_count() >= threshold) for i in range(2**width)]
    entity = sum(1 << i for i in rng.sample(range(width), ones))
    table = _table_csv(writer, width, labels)
    command = shlex.join([python, "-m", "xscore.clfserver", table])
    argv = ("ml-scores", "--classifier-cmd", command, "--entity", _bits(entity, width),
            "--kinds", "counter,resp")
    expect = {"type": "ml", "width": width, "labels": labels, "entity": entity,
              "distribution": {"type": "uniform"}, "kinds": ["counter", "resp"]}
    return Request(f"ones{ones}-w{width}", argv, expect)


# ---------------------------------------------------------------------------
# Workloads: the shape of one pass each


# A run needs at least 40 requests, and the largest shapes take up to 2 s
# each.  Passes that repeat the smaller shapes (with other contents, since
# the seed stream moves on) reach 40 requests in fewer passes, which keeps a
# run near half a minute.  The repeated shapes are chosen so that latency
# p50 and p75 fall among the samples of one shape, not in the gap between
# two, where they would swing with machine noise.


def _db_query(writer, rng, python):
    out = [_db_query_request(writer, rng, size, 5, approx=False)
           for size in (10, 10, 10, 11, 11, 11, 12, 12, 13)]
    out += [_lineage_request(writer, rng, support) for support in (10, 10, 10, 11, 12)]
    out += [_db_query_request(writer, rng, size, 5, approx=True)
            for size in (20, 20, 20, 25, 25, 30)]
    return out


def _db_join(writer, rng, python):
    # Path sizes in small steps spread the latencies evenly, so the
    # percentiles fall among close neighbours instead of in a gap.
    out = [_db_join_request(writer, rng, size, "chain") for size in (400, 800, 1200, 1600)]
    out += [_db_join_request(writer, rng, size, "path") for size in range(400, 851, 50)]
    out += [_db_join_request(writer, rng, size, "chain") for size in (400, 400, 800, 1200)]
    out += [_db_join_request(writer, rng, size, "path") for size in (450, 650)]
    return out


def _ml_shap(writer, rng, python):
    # Product at width 10 alone takes about 3 s, which would leave too few
    # requests in a run for a latency p75; width 9 shows the same path.
    shapes = [
        (width, distribution)
        for width in (8, 9, 10)
        for distribution in ("uniform", "product", "empirical", "constrained")
        if (width, distribution) != (10, "product")
    ]
    shapes += [(8, "empirical"), (8, "empirical"), (8, "empirical"), (9, "uniform")]
    return [_ml_shap_request(writer, rng, width, distribution) for width, distribution in shapes]


def _ml_resp_ext(writer, rng, python):
    # All-ones entities (far), entities on the threshold (near) and entities
    # in between.  The spread of search depths spaces the latencies evenly,
    # so the percentiles fall among close neighbours instead of in a gap,
    # where they would swing with machine noise.
    far = [(width, width) for width in (8, 9, 10, 11)]
    between = [(9, 8), (10, 9), (10, 8), (11, 10), (11, 9), (11, 8)]
    near = [(width, width // 2 - 1) for width in (8, 9, 10, 11)]
    again = [(10, 10), (9, 8), (8, 3), (8, 3), (8, 3), (10, 4)]
    return [_ml_resp_request(writer, rng, width, ones, python)
            for width, ones in far + between + near + again]


WORKLOADS = {
    "db-query": _db_query,
    "db-join": _db_join,
    "ml-shap": _ml_shap,
    "ml-resp-ext": _ml_resp_ext,
}


def build(workload: str, seed: int, directory: Path, python: str) -> list[Request]:
    """The requests of one pass of `workload`, with input files written to
    `directory`; identical for identical (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](_Writer(directory), rng, python)
    seen: dict[str, int] = {}
    for i, request in enumerate(requests):  # a repeated shape gets "#2", "#3", ...
        seen[request.label] = seen.get(request.label, 0) + 1
        if seen[request.label] > 1:
            requests[i] = replace(request, label=f"{request.label}#{seen[request.label]}")
    return requests
