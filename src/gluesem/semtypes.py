"""Semantic types: the base types e and t, and right-associative arrows."""

from __future__ import annotations

from .lexer import MAX_NESTING, Tokens, expected, too_deep, tokenize
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
    ty, pos = parse_type_at(ts, 0)
    if ts.kinds[pos] != "EOF":
        ts.fail(f"unexpected {ts.texts[pos]!r} in type", pos)
    return ty


def parse_type_at(ts: Tokens, pos: int, depth: int = 0) -> tuple[SemType, int]:
    """The type at token index `pos`, `depth` levels deep, and the index
    after it: a base type or a parenthesised type, then an optional `->` and
    the type it points to."""
    kinds = ts.kinds
    if kinds[pos] == "(":
        if depth == MAX_NESTING:
            too_deep(ts, pos, "types")
        left, pos = parse_type_at(ts, pos + 1, depth + 1)
        if kinds[pos] != ")":
            expected(ts, pos, "')'")
        pos += 1
    elif kinds[pos] == "IDENT":
        left = BaseType(ts.texts[pos])
        pos += 1
    else:
        expected(ts, pos, "a type")
    if kinds[pos] != "->":
        return left, pos
    if depth == MAX_NESTING:
        too_deep(ts, pos, "types")
    right, pos = parse_type_at(ts, pos + 1, depth + 1)
    return ArrowType(left, right), pos
