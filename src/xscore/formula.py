"""Small immutable propositional-formula trees.

Shared by query lineage (monotone formulas over tuple ids) and entity
constraints (general formulas over feature names).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Union


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


def variables(node: Node) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Const):
        return frozenset()
    if isinstance(node, Not):
        return variables(node.child)
    out: set[str] = set()
    for part in node.parts:
        out.update(variables(part))
    return frozenset(out)


def substitute(node: Node, assignment: dict[str, bool]) -> Node:
    """Replace named variables by constants, then constant-propagate."""
    if isinstance(node, Var):
        if node.name in assignment:
            return TRUE if assignment[node.name] else FALSE
        return node
    if isinstance(node, Const):
        return node
    if isinstance(node, Not):
        return simplify(Not(substitute(node.child, assignment)))
    parts = tuple(substitute(p, assignment) for p in node.parts)
    return simplify(type(node)(parts))


def simplify(node: Node) -> Node:
    """Constant propagation only; non-constant structure is preserved.

    Singleton conjunctions/disjunctions are unwrapped so substitution
    results read naturally.
    """
    if isinstance(node, (Var, Const)):
        return node
    if isinstance(node, Not):
        child = simplify(node.child)
        if isinstance(child, Const):
            return Const(not child.value)
        return Not(child)
    parts = tuple(simplify(p) for p in node.parts)
    absorbing = isinstance(node, Or)  # a true part absorbs an Or, false an And
    kept = []
    for part in parts:
        if isinstance(part, Const):
            if part.value == absorbing:
                return Const(absorbing)
            continue
        kept.append(part)
    if not kept:
        return Const(not absorbing)
    if len(kept) == 1:
        return kept[0]
    return type(node)(tuple(kept))


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
