"""Output checker for benchmark reports, sharing no code with xscore.

Each check recomputes what it needs from the generator's `expect` record:
lineages by hash join, exact tuple scores and least contingencies by
scanning every sub-instance of the lineage support, expectations from the
truth table and distribution, RESP minima by scanning the table.  `check`
returns a list of problems, empty when the report is right.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction


def check(expect: dict, report: dict) -> list[str]:
    records = report.get("records")
    if not isinstance(records, list):
        return ["report has no record list"]
    try:
        return _CHECKS[expect["type"]](expect, records)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


def mutate(report: dict, rng: random.Random) -> dict:
    """Copy of `report` with one value altered, which `check` must reject."""
    records = [dict(r) for r in report["records"]]
    record = rng.choice(records)
    if record["type"] == "lineage":
        record["support"] = record["support"][:-1]
    elif record.get("mode") == "monte_carlo":
        record["value_float"] += 0.5
        record["value"] = repr(record["value_float"])
    else:
        value = Fraction(record["value"]) + Fraction(1, 3)
        record["value"], record["value_float"] = str(value), float(value)
    return {**report, "records": records}


# ---------------------------------------------------------------------------
# Lineage by hash join


def _ids(relations: dict) -> dict[str, list[tuple[str, tuple]]]:
    """Tuple ids as xscore assigns them without an _id column."""
    return {
        name: [(f"{name}:{i}", tuple(row)) for i, row in enumerate(rows)]
        for name, rows in relations.items()
    }


def join_lineage(query: str, relations: dict) -> set[frozenset[str]]:
    """Disjuncts of the query lineage, one per satisfying valuation."""
    rel = _ids(relations)
    s_by_value = {row[0]: tid for tid, row in rel["S"]}
    clauses = set()
    if query == "chain":  # S(x), R(x,y), S(y)
        for tid, (x, y) in rel["R"]:
            if x in s_by_value and y in s_by_value:
                clauses.add(frozenset((tid, s_by_value[x], s_by_value[y])))
    elif query == "path":  # R(x,y), R(y,z), S(z)
        by_source: dict[str, list[tuple[str, str]]] = {}
        for tid, (x, y) in rel["R"]:
            by_source.setdefault(x, []).append((tid, y))
        for first, (_, y) in rel["R"]:
            for second, z in by_source.get(y, ()):
                if z in s_by_value:
                    clauses.add(frozenset((first, second, s_by_value[z])))
    else:
        raise ValueError(f"unknown query {query!r}")
    return clauses


def _parse_dnf(text: str) -> set[frozenset[str]]:
    if text == "false":
        return set()
    return {
        frozenset(part.strip("()").split(" & "))
        for part in text.split(" | ")
    }


def _check_lineage(expect: dict, records: list) -> list[str]:
    if len(records) != 1 or records[0].get("type") != "lineage":
        return [f"expected one lineage record, got {len(records)}"]
    record = records[0]
    want = join_lineage(expect["query"], expect["relations"])
    problems = []
    if _parse_dnf(record["text"]) != want:
        problems.append("lineage disjuncts differ from the hash join")
    if record["support"] != sorted(set().union(*want)):
        problems.append("lineage support differs from the hash join")
    return problems


# ---------------------------------------------------------------------------
# Database scores


class _Dnf:
    """Monotone DNF over a sorted support, evaluated on bit masks."""

    def __init__(self, clauses: set[frozenset[str]]):
        self.support = sorted(set().union(*clauses))
        self.bit = {t: 1 << i for i, t in enumerate(self.support)}
        self.masks = [sum(self.bit[t] for t in c) for c in clauses]

    def mask(self, ids) -> int:
        return sum(self.bit[t] for t in ids)

    def true(self, mask: int) -> bool:
        return any(m & mask == m for m in self.masks)

    def exact(self) -> dict[str, tuple[Fraction, Fraction, int | None]]:
        """Shapley value, Banzhaf index and least contingency size (None for
        a tuple that is never pivotal) of each support tuple, all from the
        coalitions of the other tuples that the tuple swings."""
        n = len(self.support)
        value = [self.true(m) for m in range(1 << n)]
        weight = [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]
        out = {}
        for t, b in self.bit.items():
            swings = [m for m in range(1 << n) if not m & b and value[m | b] and not value[m]]
            shapley = Fraction(sum(weight[m.bit_count()] for m in swings), math.factorial(n))
            banzhaf = Fraction(len(swings), 1 << (n - 1))
            least = min((n - 1 - m.bit_count() for m in swings), default=None)
            out[t] = (shapley, banzhaf, least)
        return out


def _check_db(expect: dict, records: list) -> list[str]:
    if "lineage" in expect:
        clauses = {frozenset(c) for c in expect["lineage"]}
        tuples = expect["tuples"]
    else:
        clauses = join_lineage(expect["query"], expect["relations"])
        tuples = [tid for rows in _ids(expect["relations"]).values() for tid, _ in rows]
    dnf = _Dnf(clauses)
    by_kind: dict[str, dict[str, dict]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], {})[r["tuple"]] = r
    problems = []
    if sorted(by_kind) != sorted(expect["kinds"]):
        return [f"kinds {sorted(by_kind)} != {sorted(expect['kinds'])}"]
    for kind, got in by_kind.items():
        if sorted(got) != sorted(tuples) or len(records) != len(tuples) * len(by_kind):
            problems.append(f"{kind}: records do not cover each tuple once")
    if problems:
        return problems
    null = set(tuples) - set(dnf.support)
    for kind, got in by_kind.items():
        for t in null:
            if got[t]["value_float"] != 0:
                problems.append(f"{kind}({t}) of a null player is not 0")

    if expect["approx"] is not None:
        return problems + _check_monte_carlo(expect["approx"], by_kind["shapley"], dnf)
    exact = {k: {t: Fraction(r["value"]) for t, r in got.items()} for k, got in by_kind.items()}
    if sum(exact["shapley"].values()) != 1:
        problems.append(f"Shapley values sum to {sum(exact['shapley'].values())}, not 1")
    for t, (shapley, banzhaf, least) in dnf.exact().items():
        if exact["shapley"][t] != shapley:
            problems.append(f"Shapley({t}) = {exact['shapley'][t]}, not {shapley}")
        # Banzhaf equals causal effect at p = 1/2; both must equal the swing count.
        for kind in ("banzhaf", "causal_effect"):
            if exact[kind][t] != banzhaf:
                problems.append(f"{kind}({t}) = {exact[kind][t]}, not {banzhaf}")
        problems += _check_cause(dnf, t, by_kind["responsibility"][t], least)
    return problems


def _check_cause(dnf: _Dnf, t: str, record: dict, least: int | None) -> list[str]:
    gamma = record["witness_contingency"]
    value = Fraction(record["value"])
    if least is None:
        return [] if value == 0 and gamma is None else [f"responsibility({t}) should be 0"]
    if gamma is None or len(gamma) != least or value != Fraction(1, 1 + least):
        return [f"responsibility({t}) = {value}, minimum contingency is {least}"]
    present = dnf.mask(dnf.support) & ~dnf.mask(gamma)
    if not dnf.true(present) or dnf.true(present & ~dnf.bit[t]):
        return [f"responsibility({t}): witness contingency does not make it pivotal"]
    return []


def _check_monte_carlo(approx: dict, got: dict, dnf: _Dnf) -> list[str]:
    # Hoeffding: the chance of missing by 3 epsilon is below 1e-13 per tuple.
    eps, delta = approx["epsilon"], approx["delta"]
    samples = math.ceil(math.log(2 / delta) / (2 * eps * eps))
    exact = {t: scores[0] for t, scores in dnf.exact().items()}
    problems = []
    for t, r in got.items():
        if r["mode"] != "monte_carlo" or not 0 <= r["value_float"] <= 1:
            problems.append(f"shapley({t}) is not a Monte Carlo estimate in [0, 1]")
        elif t in exact and (r["samples"] != samples or abs(r["value_float"] - exact[t]) > 3 * eps):
            problems.append(f"shapley({t}) estimate is off the exact value or sample count")
    return problems


# ---------------------------------------------------------------------------
# Classifier scores


def _mass(dist: dict, width: int):
    kind = dist["type"]
    if kind == "uniform":
        return lambda x: Fraction(1)
    if kind == "empirical":
        members = set(dist["sample"])
        return lambda x: Fraction(int(x in members))
    if kind == "constrained":
        a, b = (width - 1 - i for i in dist["forbid"])
        return lambda x: Fraction(int(not (x >> a & 1 and not x >> b & 1)))
    if kind == "product":
        marginals = [Fraction(m) for m in dist["marginals"]]

        def product_mass(x):
            out = Fraction(1)
            for i, m in enumerate(marginals):
                out *= m if x >> (width - 1 - i) & 1 else 1 - m
            return out

        return product_mass
    raise ValueError(f"unknown distribution {kind!r}")


def _check_ml(expect: dict, records: list) -> list[str]:
    width, labels, e = expect["width"], expect["labels"], expect["entity"]
    names = [f"F{i + 1}" for i in range(width)]
    by_kind: dict[str, dict[str, dict]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], {})[r["feature"]] = r
    if sorted(by_kind) != expect["kinds"] or len(records) != width * len(by_kind) or any(
        sorted(got) != sorted(names) for got in by_kind.values()
    ):
        return ["records do not cover each kind and feature once"]
    mass = _mass(expect["distribution"], width)
    problems = []
    label = labels[e]
    if "shap" in by_kind:
        weights = [mass(x) for x in range(1 << width)]
        expected = sum(w for w, lab in zip(weights, labels) if lab) / sum(weights)
        total = sum(Fraction(r["value"]) for r in by_kind["shap"].values())
        if total != label - expected:
            problems.append(f"SHAP values sum to {total}, not label - E[label] = {label - expected}")
    for i, name in enumerate(names):
        bit = 1 << (width - 1 - i)
        other = e ^ bit
        pe, po = mass(e), mass(other)
        counter = label - (pe * labels[e] + po * labels[other]) / (pe + po)
        if Fraction(by_kind["counter"][name]["value"]) != counter:
            problems.append(f"COUNTER({name}) != {counter}")
        if "resp" in by_kind:
            problems += _check_resp(by_kind["resp"][name], name, e, bit, labels, width)
    return problems


def _check_resp(record: dict, name: str, e: int, bit: int, labels: list, width: int):
    # The smallest contingency is the fewest other features on which some
    # label-0 entity with the inspected feature flipped differs from e.
    sizes = [((x ^ e) & ~bit).bit_count() for x in range(1 << width) if x & bit != e & bit
             and labels[x] == 0]
    value = Fraction(record["value"])
    if not sizes:
        return [] if value == 0 and record["witness"] is None else [f"RESP({name}) should be 0"]
    best = min(sizes)
    witness = record["witness"]
    if value != Fraction(1, 1 + best) or witness is None:
        return [f"RESP({name}) = {value}, minimum contingency is {best}"]
    flipped = int(witness["entity"], 2)
    allowed = bit | sum(1 << (width - int(f[1:])) for f in witness["contingency"])
    if labels[flipped] != 0 or flipped & bit == e & bit or (flipped ^ e) & ~allowed:
        return [f"RESP({name}) witness does not flip the label within its contingency"]
    if value != Fraction(1, 1 + len(witness["contingency"])):
        return [f"RESP({name}) != 1/(1+|contingency|)"]
    kind = "counterfactual" if best == 0 else "actual"
    if record["explanation_kind"] != kind:
        return [f"RESP({name}) explanation kind is not {kind}"]
    return []


_CHECKS = {"db": _check_db, "lineage": _check_lineage, "ml": _check_ml}
