"""Small immutable propositional-formula trees and their text grammar.

Shared by query lineage (monotone formulas over tuple ids) and entity
constraints (general formulas over feature names).  The line/column
tokenizer here also serves the query grammar of `reldb`.
"""
from __future__ import annotations

import re
from typing import AbstractSet, Callable, Iterator, Union

from ._record import record


class ParseError(ValueError):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@record
class Token:
    kind: str  # "name" | "string" | "punct" | "end"
    text: str
    line: int
    column: int


def tokenize(text: str, extra_name_chars: str = "") -> list[Token]:
    """Split `text` into names, quoted strings and punctuation.

    Names are alphanumeric/underscore runs, optionally extended with
    `extra_name_chars` (the lineage grammar admits ids like ``R:0``).
    ``:-`` is a single token unless ``:`` is a name character; any other
    character is rejected.  One pattern per name-character set matches a
    token at a time; the unnamed last branch takes the one rejected
    character.
    """
    punct = "[(),|&!~=]" if ":" in extra_name_chars else ":-|[(),|&!~=]"
    pattern = re.compile(
        rf"""(?P<space>[ \t\r\n]+)|(?P<string>'[^'\n]*'|"[^"\n]*")|(?P<punct>{punct})"""
        rf"|(?P<name>[\w{re.escape(extra_name_chars)}]+)|."
    )
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in pattern.finditer(text):
        kind, start = match.lastgroup, match.start()
        if kind == "space":
            breaks = match.group().count("\n")
            if breaks:
                line += breaks
                line_start = text.rindex("\n", start, match.end()) + 1
            continue
        column = start - line_start + 1
        found = match.group()
        if kind is None:
            message = "unterminated string" if found in "'\"" else f"unknown token {found!r}"
            raise ParseError(message, line, column)
        tokens.append(Token(kind, found[1:-1] if kind == "string" else found, line, column))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with grammar-error helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def take(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def peek_punct(self, text: str) -> bool:
        tok = self.current
        return tok.kind == "punct" and tok.text == text

    def accept_punct(self, text: str) -> bool:
        if self.peek_punct(text):
            self._pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {self._describe(tok)}", tok.line, tok.column)
        return self.take()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.current
        if tok.kind != "name":
            raise ParseError(f"expected {what}, found {self._describe(tok)}", tok.line, tok.column)
        return self.take()

    def expect_end(self) -> None:
        tok = self.current
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {self._describe(tok)}", tok.line, tok.column)

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)


@record
class Var:
    name: str


@record
class Not:
    child: "Node"


@record
class And:
    parts: tuple["Node", ...]


@record
class Or:
    parts: tuple["Node", ...]


@record
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
    with that message instead of negating.  Text nested deeper than the
    interpreter's recursion limit allows is refused with a `ParseError`
    at the token reached.
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

    try:
        root = disjunction()
    except RecursionError:
        tok = stream.current
        raise ParseError("formula nested too deeply", tok.line, tok.column) from None
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
