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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import formula, text_lines
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
        body_vars = set(self.variables())
        for v in self.head:
            if v not in body_vars:
                raise ValueError(f"head variable {v.name!r} does not occur in the body")

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def variables(self) -> tuple[Var, ...]:
        found = {t for atom in self.atoms for t in atom.terms if isinstance(t, Var)}
        return tuple(sorted(found, key=lambda v: v.index))


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
            if tok.text not in variables:
                variables[tok.text] = Var(index=len(variables), name=tok.text)
            return variables[tok.text]
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
    quote = "'" if '"' in v else '"'
    return quote + v + quote


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
        self._rows: dict[str, dict[tuple[str, ...], str]] = {}  # values -> id, in order
        self._by_id: dict[str, tuple[str, tuple[str, ...]]] = {}

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
            self._rows[name] = {}
        elif known != arity:
            raise ArityMismatchError(f"relation {name} declared with arity {known}, got {arity}")

    def add(self, relation: str, values: Sequence[str], tuple_id: str | None = None) -> str:
        """Insert one tuple; returns its id."""
        values = tuple(map(str, values))
        if self._arities.get(relation) != len(values):
            self.add_relation(relation, len(values))  # declares it, or refuses the arity
        rows = self._rows[relation]
        if values in rows:
            raise DuplicateTupleError(f"duplicate tuple {values!r} in relation {relation}")
        if tuple_id is None:
            tuple_id = f"{relation}:{len(rows)}"
        if tuple_id in self._by_id:
            raise DuplicateTupleError(f"duplicate tuple id {tuple_id!r}")
        rows[values] = tuple_id
        self._by_id[tuple_id] = (relation, values)
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
        rows = self._rows[relation]
        return tuple(zip(rows.values(), rows))

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
            for values, tid in self._rows[name].items():
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
    atom of the query in `db`.  `_matches` checks the query's arities, and
    `next` stops the join at its first valuation."""
    return next(_matches(db, query), None) is not None


@record
class Lineage:
    """Monotone formula over tuple ids capturing where the query holds."""

    root: formula.Node

    def support(self) -> frozenset[str]:
        return formula.variables(self.root)

    def evaluate(self, present: Iterable[str]) -> bool:
        """Truth value when exactly the tuples in `present` exist."""
        return formula.evaluate(self.root, frozenset(present))

    def __str__(self) -> str:
        return formula.to_text(self.root)


def compile_lineage(db: Database, query: ConjunctiveQuery) -> Lineage:
    """Instantiate the query on `db` as a DNF over tuple ids: each valuation
    of `_matches` (which checks the query's arities) gives the conjunction of
    its matched ids; duplicate disjuncts are merged and disjuncts are
    ordered lexicographically by their sorted id lists."""
    disjunct_ids = {tuple(sorted(set(used))) for used in _matches(db, query)}
    if not disjunct_ids:
        return Lineage(root=formula.FALSE)
    var = {t: formula.Var(t) for t in set().union(*disjunct_ids)}
    disjuncts = []
    for ids in sorted(disjunct_ids):
        literals = tuple(map(var.__getitem__, ids))
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


def _plan(atoms: Sequence[Atom], sizes: Sequence[int]) -> tuple[int, ...]:
    """Join order as query positions: next the smallest atom that shares a
    bound variable, else the smallest atom; ties go to the earlier atom."""
    var_sets = [{t for t in atom.terms if isinstance(t, Var)} for atom in atoms]
    order, bound, left = [], set(), list(range(len(atoms)))
    while left:
        order.append(min([i for i in left if var_sets[i] & bound] or left, key=sizes.__getitem__))
        left.remove(order[-1])
        bound |= var_sets[order[-1]]
    return tuple(order)


def _getter(slots: Sequence[int]):
    """`operator.itemgetter` over `slots` that always returns a tuple."""
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(*slots) if slots else itemgetter(slice(0))


def _matches(db: Database, query: ConjunctiveQuery) -> Iterator[tuple[str, ...]]:
    """The matched tuple ids of every satisfying valuation, in query-atom
    order; every variable occurs in some atom, so the ids fix the valuation.
    As the join's one entry point, it refuses an unknown relation or an atom
    of the wrong arity, in query order, before it reads any row.

    Each atom's rows are read once, in query order, and `_plan` picks the
    join order.  A partial valuation is one tuple, the query's constants
    and then each joined atom's row id and values, so every term has a
    fixed slot.  Each atom's rows are filed under their values at its
    constants and bound variables, dropping rows that break a repeated
    fresh variable, as in `R(x,x)`.  The join extends all partial
    valuations one atom at a time, each visiting only the rows under its
    own key.  Each level but the last is built whole, so memory is bounded
    by the largest level; the last streams, so `evaluate` stops at the
    first full valuation.
    """
    atoms = query.atoms
    for atom in atoms:
        if (arity := db.arity(atom.relation)) != len(atom.terms):
            raise ArityMismatchError(
                f"atom {atom.relation}/{len(atom.terms)} does not match relation arity {arity}"
            )
    rows = [db.rows(atom.relation) for atom in atoms]
    constants = [t for atom in atoms for t in atom.terms if isinstance(t, Const)]
    slots: dict[Term, int] = {t: s for s, t in enumerate(constants)}
    width, id_slots, steps = len(constants), [0] * len(atoms), []
    for i in _plan(atoms, [len(r) for r in rows]):
        terms = atoms[i].terms
        keyed, repeats, first = [], [], {}
        for position, term in enumerate(terms):
            if term in slots:
                keyed.append(position)
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
        index, row_key = {}, _getter(keyed)
        for tid, values in rows[i]:
            if not repeats or all(values[p] == values[q] for p, q in repeats):
                index.setdefault(row_key(values), []).append((tid, *values))
        steps.append((_getter([slots[terms[p]] for p in keyed]), index))
        slots.update((term, width + 1 + p) for term, p in first.items())
        id_slots[i], width = width, width + 1 + len(terms)
    ids_of, level = _getter(id_slots), [tuple(c.value for c in constants)]
    for key_of, index in steps[:-1]:
        level = [val + row for val in level for row in index.get(key_of(val), ())]
    key_of, index = steps[-1]
    yield from (ids_of(val + row) for val in level for row in index.get(key_of(val), ()))


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

    A query is hierarchical when for every two existential variables x, y
    (head variables are bound by each answer's Boolean query) the atom sets
    Atoms(x) and Atoms(y) are nested or disjoint; it is self-join free when
    no relation name occurs in two atoms.  Both checks are purely syntactic.
    """
    atoms_by_var: dict[str, set[int]] = {}
    for i, atom in enumerate(query.atoms):
        for term in atom.terms:
            if isinstance(term, Var) and term not in query.head:
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
    `_id` column, at most one, supplies explicit tuple ids, none of them
    blank, otherwise ids are assigned as `<relation>:<row-index>`.
    """
    db = Database()
    for relation in sorted(paths):
        path = Path(paths[relation])
        reader = csv.reader(text_lines(path))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatabaseError(f"{path}: empty file, expected a header row") from None
        if header.count("_id") > 1:
            raise DatabaseError(f"{path}: header has more than one _id column")
        id_col = header.index("_id") if "_id" in header else None
        db.add_relation(relation, len(header) - header.count("_id"))
        for row_number, row in enumerate(reader):
            if len(row) != len(header):
                raise DatabaseError(
                    f"{path}: row {row_number + 2} has {len(row)} fields, expected {len(header)}"
                )
            tuple_id = None if id_col is None else row.pop(id_col)
            if tuple_id is not None and not tuple_id.strip():
                raise DatabaseError(f"{path}: row {row_number + 2} has an empty _id")
            db.add(relation, row, tuple_id)
    return db
