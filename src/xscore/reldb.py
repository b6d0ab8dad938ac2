"""In-memory relational instances, Boolean conjunctive queries and lineage.

Queries use a Datalog-ish concrete syntax, `Q() :- S(x), R(x,y), S(y)`:
lowercase identifiers are variables, quoted / capitalized / numeric tokens
are constants.  A non-empty head, `Q(x, y) :- ...`, parses, but the tuple
scores take Boolean queries only (`dbscores.query_lineage` refuses others).

Lineage is a monotone propositional formula over tuple ids, either
compiled from a query instantiation (a DNF with one disjunct per matching
valuation) or parsed from text such as `t1 | (t2 & t3)` for queries outside
the conjunctive fragment.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import formula
from .formula import ParseError, TokenStream, tokenize
from ._record import record

__all__ = [
    "ParseError",
    "DatabaseError",
    "UnknownRelationError",
    "UnknownTupleError",
    "ArityMismatchError",
    "DuplicateTupleError",
    "Var",
    "Const",
    "Atom",
    "ConjunctiveQuery",
    "Database",
    "Lineage",
    "QueryAnalysis",
    "parse_query",
    "format_query",
    "evaluate",
    "compile_lineage",
    "parse_lineage",
    "analyze",
    "dichotomy_verdict",
    "load_csv",
]


class DatabaseError(ValueError):
    pass


class UnknownRelationError(DatabaseError):
    pass


class UnknownTupleError(DatabaseError):
    pass


class ArityMismatchError(DatabaseError):
    pass


class DuplicateTupleError(DatabaseError):
    pass


# ---------------------------------------------------------------------------
# Query AST


@record(compare=("index",))
class Var:
    """A query variable, identified by first-occurrence index.

    The surface name is kept for printing but excluded from equality, so
    alpha-equivalent query texts parse to equal ASTs.
    """

    index: int
    name: str


@record
class Const:
    value: str


Term = Var | Const


@record
class Atom:
    relation: str
    terms: tuple[Term, ...]


@record
class ConjunctiveQuery:
    """A conjunction of relational atoms, existentially closed.

    `head` is empty for Boolean queries, the only ones the tuple scores take.
    """

    atoms: tuple[Atom, ...]
    head: tuple[Var, ...] = ()

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        body_vars = {t for atom in self.atoms for t in atom.terms if isinstance(t, Var)}
        for v in self.head:
            if v not in body_vars:
                raise ValueError(f"head variable {v.name!r} does not occur in the body")

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for atom in self.atoms:
            for term in atom.terms:
                if isinstance(term, Var):
                    seen.setdefault(term)
        return tuple(sorted(seen, key=lambda v: v.index))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse `Q() :- atom, atom, ...` into a query AST.

    Variables are canonicalized by first occurrence; `parse_query(
    format_query(q)) == q` for every query.
    """
    stream = TokenStream(tokenize(text))
    variables: dict[str, Var] = {}

    def term_of(tok) -> Term:
        if tok.kind == "string":
            return Const(tok.text)
        first = tok.text[0]
        if first.isalpha() and first.islower():
            var = variables.get(tok.text)
            if var is None:
                var = Var(index=len(variables), name=tok.text)
                variables[tok.text] = var
            return var
        return Const(tok.text)

    stream.expect_name("head predicate")
    stream.expect_punct("(")
    head: list[Var] = []
    if not stream.peek_punct(")"):
        while True:
            tok = stream.expect_name("head variable")
            term = term_of(tok)
            if not isinstance(term, Var):
                raise ParseError("head terms must be variables", tok.line, tok.column)
            head.append(term)
            if not stream.accept_punct(","):
                break
    stream.expect_punct(")")
    stream.expect_punct(":-")

    atoms: list[Atom] = []
    while True:
        name_tok = stream.expect_name("relation name")
        stream.expect_punct("(")
        terms: list[Term] = []
        while True:
            tok = stream.current
            if tok.kind == "string" or tok.kind == "name":
                terms.append(term_of(stream.take()))
            else:
                raise ParseError(
                    f"expected term, found {TokenStream._describe(tok)}", tok.line, tok.column
                )
            if not stream.accept_punct(","):
                break
        stream.expect_punct(")")
        atoms.append(Atom(relation=name_tok.text, terms=tuple(terms)))
        if not stream.accept_punct(","):
            break
    stream.expect_end()
    return ConjunctiveQuery(atoms=tuple(atoms), head=tuple(head))


def format_query(query: ConjunctiveQuery) -> str:
    head = ", ".join(v.name for v in query.head)
    body = ", ".join(
        f"{atom.relation}({', '.join(_format_term(t) for t in atom.terms)})"
        for atom in query.atoms
    )
    return f"Q({head}) :- {body}"


def _format_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    v = term.value
    if v and (v[0].isdigit() or (v[0].isalpha() and v[0].isupper())) and all(
        c.isalnum() or c == "_" for c in v
    ):
        return v
    return '"' + v + '"'


# ---------------------------------------------------------------------------
# Databases


class Database:
    """Named relations of constant tuples; every tuple has a stable id.

    Relations have uniform arity and set semantics (no duplicate rows), and
    ids are unique across the whole instance.  Instances are treated as
    immutable once populated; all query operations are read-only.
    """

    def __init__(self):
        self._arities: dict[str, int] = {}
        self._rows: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        self._by_id: dict[str, tuple[str, tuple[str, ...]]] = {}
        self._row_values: dict[str, set[tuple[str, ...]]] = {}

    @classmethod
    def from_dict(cls, relations: Mapping[str, Iterable[Sequence[str]]]) -> "Database":
        """Build an instance with ids assigned as `<relation>:<row-index>`."""
        db = cls()
        for name, rows in relations.items():
            for row in rows:
                db.add(name, row)
        return db

    def add_relation(self, name: str, arity: int) -> None:
        """Declare a (possibly empty) relation."""
        known = self._arities.get(name)
        if known is None:
            self._arities[name] = arity
            self._rows[name] = []
            self._row_values[name] = set()
        elif known != arity:
            raise ArityMismatchError(f"relation {name} declared with arity {known}, got {arity}")

    def add(self, relation: str, values: Sequence[str], tuple_id: str | None = None) -> str:
        """Insert one tuple; returns its id."""
        values = tuple(str(v) for v in values)
        self.add_relation(relation, len(values))
        if len(values) != self._arities[relation]:
            raise ArityMismatchError(
                f"relation {relation} has arity {self._arities[relation]}, got row of {len(values)}"
            )
        if values in self._row_values[relation]:
            raise DuplicateTupleError(f"duplicate tuple {values!r} in relation {relation}")
        if tuple_id is None:
            tuple_id = f"{relation}:{len(self._rows[relation])}"
        if tuple_id in self._by_id:
            raise DuplicateTupleError(f"duplicate tuple id {tuple_id!r}")
        self._rows[relation].append((tuple_id, values))
        self._by_id[tuple_id] = (relation, values)
        self._row_values[relation].add(values)
        return tuple_id

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._arities))

    def arity(self, relation: str) -> int:
        try:
            return self._arities[relation]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {relation!r}") from None

    def rows(self, relation: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(tuple_id, values) pairs of one relation, in insertion order."""
        self.arity(relation)
        return tuple(self._rows[relation])

    def tuple_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_id))

    def values_of(self, tuple_id: str) -> tuple[str, ...]:
        return self._lookup(tuple_id)[1]

    def restrict(self, tuple_ids: Iterable[str]) -> "Database":
        """Sub-instance containing exactly the given tuples; relation names
        and arities are preserved even when emptied."""
        keep = set(tuple_ids)
        for tid in keep:
            self._lookup(tid)
        sub = Database()
        for name, arity in self._arities.items():
            sub.add_relation(name, arity)
            for tid, values in self._rows[name]:
                if tid in keep:
                    sub.add(name, values, tuple_id=tid)
        return sub

    def __contains__(self, tuple_id: str) -> bool:
        return tuple_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def _lookup(self, tuple_id: str) -> tuple[str, tuple[str, ...]]:
        try:
            return self._by_id[tuple_id]
        except KeyError:
            raise UnknownTupleError(f"unknown tuple id {tuple_id!r}") from None


# ---------------------------------------------------------------------------
# Evaluation and lineage


def evaluate(db: Database, query: ConjunctiveQuery) -> bool:
    """True iff some assignment of constants to variables satisfies every
    atom of the query in `db`."""
    _check_query_against(db, query)
    for _ in _matches(db, query):
        return True
    return False


@record
class Lineage:
    """Monotone formula over tuple ids capturing where the query holds."""

    root: formula.Node

    def support(self) -> frozenset[str]:
        return formula.variables(self.root)

    def evaluate(self, present: Iterable[str]) -> bool:
        """Truth value when exactly the tuples in `present` exist."""
        return formula.evaluate(self.root, frozenset(present))

    def mentions(self, tuple_id: str) -> bool:
        return tuple_id in self.support()

    def __str__(self) -> str:
        return formula.to_text(self.root)


def compile_lineage(db: Database, query: ConjunctiveQuery) -> Lineage:
    """Instantiate the query on `db` as a DNF over tuple ids.

    One disjunct per satisfying valuation, conjoining the ids of the
    matched tuples; duplicate disjuncts are merged and disjuncts are
    ordered lexicographically by their sorted id lists.
    """
    _check_query_against(db, query)
    disjunct_ids: set[tuple[str, ...]] = set()
    for _, used in _matches(db, query):
        disjunct_ids.add(tuple(sorted(set(used))))
    if not disjunct_ids:
        return Lineage(root=formula.FALSE)
    disjuncts = []
    for ids in sorted(disjunct_ids):
        literals = tuple(formula.Var(t) for t in ids)
        disjuncts.append(literals[0] if len(literals) == 1 else formula.And(literals))
    root = disjuncts[0] if len(disjuncts) == 1 else formula.Or(tuple(disjuncts))
    return Lineage(root=root)


def parse_lineage(text: str, db: Database) -> Lineage:
    """Parse a user-supplied monotone formula such as `t1 | (t2 & t3)`.

    Every id must name a tuple of `db`; negation is rejected.
    """

    def resolve(tok) -> formula.Node:
        if tok.text not in db:
            raise UnknownTupleError(f"unknown tuple id {tok.text!r} in lineage")
        return formula.Var(tok.text)

    root = formula.parse(
        text,
        resolve,
        "tuple id",
        negation_error="negation is not allowed: lineage must be monotone",
        name_chars=":.-",
    )
    return Lineage(root=root)


def _check_query_against(db: Database, query: ConjunctiveQuery) -> None:
    for atom in query.atoms:
        arity = db.arity(atom.relation)
        if arity != len(atom.terms):
            raise ArityMismatchError(
                f"atom {atom.relation}/{len(atom.terms)} does not match relation arity {arity}"
            )


def _matches(
    db: Database, query: ConjunctiveQuery
) -> Iterator[tuple[dict[Var, str], tuple[str, ...]]]:
    """All satisfying valuations as (binding, matched tuple ids).

    A hash join in query order.  Each atom's rows are read once and filed
    under their values at the atom's key positions: constants and
    variables bound by earlier atoms.  Rows that break a repeated fresh
    variable, as in `R(x,x)`, are dropped then.  A partial binding visits
    only the rows under its own key and binds the fresh variables from
    them.  Every call plans and indexes every atom afresh: that suits the
    CLI's one join; the one caller that re-joins many sub-instances is
    the test oracle `min_contingency_unrestricted`.
    """
    steps = []
    bound: set[Var] = set()
    for atom in query.atoms:
        key_terms: list[Term] = []
        key_positions: list[int] = []
        first: dict[Var, int] = {}  # fresh variable -> its first position
        repeats: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const) or term in bound:
                key_terms.append(term)
                key_positions.append(position)
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
        index: dict[tuple[str, ...], list[tuple[str, tuple[str, ...]]]] = {}
        for tid, values in db.rows(atom.relation):
            if all(values[p] == values[q] for p, q in repeats):
                key = tuple(values[p] for p in key_positions)
                index.setdefault(key, []).append((tid, values))
        steps.append((tuple(key_terms), tuple(first.items()), index))
        bound.update(first)

    def extend(i: int, binding: dict[Var, str], used: tuple[str, ...]):
        if i == len(steps):
            yield binding, used
            return
        key_terms, fresh, index = steps[i]
        key = tuple(t.value if isinstance(t, Const) else binding[t] for t in key_terms)
        for tid, values in index.get(key, ()):
            new = dict(binding)
            for var, position in fresh:
                new[var] = values[position]
            yield from extend(i + 1, new, used + (tid,))

    yield from extend(0, {}, ())


# ---------------------------------------------------------------------------
# Structural analysis


@record
class QueryAnalysis:
    """Syntactic facts about a query: the hierarchy criterion over
    existential variables, and self-join freedom."""

    hierarchical: bool
    self_join_free: bool
    atoms_by_var: Mapping[str, frozenset[int]]


def analyze(query: ConjunctiveQuery) -> QueryAnalysis:
    """Classify the query's variable structure.

    A query is hierarchical when for every two variables x, y the atom
    sets Atoms(x) and Atoms(y) are nested or disjoint; it is self-join
    free when no relation name occurs in two atoms.  Both checks are
    purely syntactic.
    """
    atoms_by_var: dict[str, set[int]] = {}
    for i, atom in enumerate(query.atoms):
        for term in atom.terms:
            if isinstance(term, Var):
                atoms_by_var.setdefault(term.name, set()).add(i)
    names = sorted(atoms_by_var)
    hierarchical = True
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            x, y = atoms_by_var[names[a]], atoms_by_var[names[b]]
            if not (x <= y or y <= x or not (x & y)):
                hierarchical = False
    relations = [atom.relation for atom in query.atoms]
    return QueryAnalysis(
        hierarchical=hierarchical,
        self_join_free=len(set(relations)) == len(relations),
        atoms_by_var={k: frozenset(v) for k, v in atoms_by_var.items()},
    )


def dichotomy_verdict(analysis: QueryAnalysis) -> str:
    """Tractability verdict for exact tuple Shapley computation.

    The known dichotomy applies to self-join-free queries only: the
    hierarchical ones are solvable in polynomial time, the rest are
    FP^#P-complete.  With self-joins present no claim is made.
    """
    if not analysis.self_join_free:
        return "dichotomy inapplicable: self-joins present"
    return "poly-time" if analysis.hierarchical else "FP^#P-complete"


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(paths: Mapping[str, str | Path]) -> Database:
    """Load one CSV file per relation into a database.

    The header row names the columns; an optional leading or trailing
    `_id` column supplies explicit tuple ids, otherwise ids are assigned
    as `<relation>:<row-index>`.
    """
    db = Database()
    for relation in sorted(paths):
        path = Path(paths[relation])
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatabaseError(f"{path}: empty file, expected a header row") from None
            header = [h.strip() for h in header]
            id_col = header.index("_id") if "_id" in header else None
            columns = [h for h in header if h != "_id"]
            db.add_relation(relation, len(columns))
            for row_number, row in enumerate(reader):
                if len(row) != len(header):
                    raise DatabaseError(
                        f"{path}: row {row_number + 2} has {len(row)} fields, expected {len(header)}"
                    )
                if id_col is None:
                    db.add(relation, row)
                else:
                    tuple_id = row[id_col]
                    values = [v for i, v in enumerate(row) if i != id_col]
                    db.add(relation, values, tuple_id=tuple_id)
    return db
