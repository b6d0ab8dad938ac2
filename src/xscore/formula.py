"""Small immutable propositional-formula trees and their text grammar.

Shared by query lineage (monotone formulas over tuple ids) and entity
constraints (general formulas over feature names).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterator, Union

from ._lex import ParseError, Token, TokenStream, tokenize


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    parts: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Node", ...]


@dataclass(frozen=True)
class Const:
    value: bool


Node = Union[Var, Not, And, Or, Const]

TRUE = Const(True)
FALSE = Const(False)


def evaluate(node: Node, true_vars: AbstractSet[str]) -> bool:
    """Truth value under the valuation that sets exactly `true_vars` to 1."""
    if isinstance(node, Var):
        return node.name in true_vars
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Not):
        return not evaluate(node.child, true_vars)
    if isinstance(node, And):
        return all(evaluate(p, true_vars) for p in node.parts)
    if isinstance(node, Or):
        return any(evaluate(p, true_vars) for p in node.parts)
    raise TypeError(f"not a formula node: {node!r}")


def occurrences(node: Node) -> Iterator[str]:
    """Each variable name, left to right, once per occurrence."""
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Not):
        yield from occurrences(node.child)
    elif isinstance(node, (And, Or)):
        for part in node.parts:
            yield from occurrences(part)


def variables(node: Node) -> frozenset[str]:
    return frozenset(occurrences(node))


def substitute(node: Node, assignment: dict[str, bool]) -> Node:
    """Replace named variables by constants, constant-propagating as the
    tree is rebuilt.

    A part that absorbs its connective (true in an Or, false in an And)
    replaces it, neutral constants are dropped, a connective left with one
    part is unwrapped and a negated constant folds; the rest of the
    structure is kept.
    """
    if isinstance(node, Var):
        if node.name in assignment:
            return TRUE if assignment[node.name] else FALSE
        return node
    if isinstance(node, Const):
        return node
    if isinstance(node, Not):
        child = substitute(node.child, assignment)
        return Const(not child.value) if isinstance(child, Const) else Not(child)
    absorbing = isinstance(node, Or)
    kept = []
    for part in node.parts:
        part = substitute(part, assignment)
        if isinstance(part, Const):
            if part.value == absorbing:
                return part
            continue
        kept.append(part)
    if not kept:
        return Const(not absorbing)
    if len(kept) == 1:
        return kept[0]
    return type(node)(tuple(kept))


def parse(
    text: str,
    resolve: Callable[[Token], Node],
    what: str,
    negation_error: str | None = None,
    name_chars: str = "",
) -> Node:
    """Parse formula text: `|`, `&` (binding tighter), `!` or `~`, and
    parentheses.

    Each name token becomes `resolve(token)`; names may also contain the
    characters of `name_chars`, and a missing name reads "expected
    {what}".  With `negation_error`, a `!` or `~` raises `ParseError`
    with that message instead of negating.
    """
    stream = TokenStream(tokenize(text, extra_name_chars=name_chars))

    def disjunction() -> Node:
        parts = [conjunction()]
        while stream.accept_punct("|"):
            parts.append(conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction() -> Node:
        parts = [unary()]
        while stream.accept_punct("&"):
            parts.append(unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary() -> Node:
        tok = stream.current
        if stream.accept_punct("!") or stream.accept_punct("~"):
            if negation_error is not None:
                raise ParseError(negation_error, tok.line, tok.column)
            return Not(unary())
        if stream.accept_punct("("):
            inner = disjunction()
            stream.expect_punct(")")
            return inner
        return resolve(stream.expect_name(what))

    root = disjunction()
    stream.expect_end()
    return root


def to_text(node: Node) -> str:
    """Render with `&`, `|`, `!`; conjunctions are parenthesized inside
    disjunctions, matching the accepted input grammar."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return "true" if node.value else "false"
    if isinstance(node, Not):
        return "!" + _atom_text(node.child)
    if isinstance(node, And):
        return " & ".join(_atom_text(p) for p in node.parts)
    if isinstance(node, Or):
        return " | ".join(
            f"({to_text(p)})" if isinstance(p, (And, Or)) else to_text(p)
            for p in node.parts
        )
    raise TypeError(f"not a formula node: {node!r}")


def _atom_text(node: Node) -> str:
    if isinstance(node, (And, Or)):
        return f"({to_text(node)})"
    return to_text(node)
