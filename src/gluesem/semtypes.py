"""Semantic types: the base types e and t, and right-associative arrows."""

from __future__ import annotations

from .lexer import Tokens, tokenize
from .node import Node


class SemType(Node):
    __slots__ = ()


class BaseType(SemType):
    __slots__ = ()
    __match_args__ = ("name",)

    def __str__(self) -> str:
        return self.name


class ArrowType(SemType):
    __slots__ = ()
    __match_args__ = ("arg", "result")

    def __str__(self) -> str:
        left = f"({self.arg})" if isinstance(self.arg, ArrowType) else str(self.arg)
        return f"{left} -> {self.result}"


E = BaseType("e")
T = BaseType("t")


def arrow(*types: SemType) -> SemType:
    """Build a right-associated arrow type from its components."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for ty in reversed(types[:-1]):
        result = ArrowType(ty, result)
    return result


def parse_type(text: str) -> SemType:
    """Parse `e`, `t`, `e -> t`, `(e -> t) -> t` (arrows right-associative)."""
    ts = tokenize(text)
    ty = parse_type_at(ts)
    if not ts.at_end():
        ts.fail(f"unexpected {ts.text()!r} in type")
    return ty


def parse_type_at(ts: Tokens) -> SemType:
    """Parse a type at the current position: a base type or a parenthesised
    type, then an optional `->` and the type it points to."""
    if ts.accept("("):
        ts.descend("types", ts.pos - 1)
        left = parse_type_at(ts)
        ts.ascend()
        ts.expect(")")
    else:
        left = BaseType(ts.expect("IDENT", "a type"))
    if ts.accept("->"):
        ts.descend("types", ts.pos - 1)
        right = parse_type_at(ts)
        ts.ascend()
        return ArrowType(left, right)
    return left
