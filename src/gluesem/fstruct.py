"""LFG f-structures: labelled attribute-value matrices, their text format,
path resolution, and the sigma projection onto semantic structures.

Text format (UTF-8)::

    f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']]

Attribute names are case-insensitive (canonicalized to upper case), values
are nested f-structures, quoted symbols (`'appoint'`), bare identifiers
(`every`), or sets `{ m:[...]; n:[...] }`. A bare identifier that names a
label defined elsewhere in the same document is a re-entrant reference to
that node; re-entrancy is carried through but nothing in scope exploits it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingAttributeError, SyntaxErrorAt
from .lexer import Token, TokenStream, tokenize

Value = "FStructure | str | tuple[FStructure, ...]"


@dataclass(frozen=True)
class SemStructure:
    """The sigma projection of one f-structure node; compared by label."""

    label: str

    def __str__(self) -> str:
        return f"{self.label}_σ"


class FStructure:
    """One f-structure node. Nodes are identity-bearing: the sigma projection
    and the link to the node whose set contains it live on the node itself."""

    def __init__(self, label: str):
        self.label = label
        self.attrs: dict[str, object] = {}
        self.mod_container: FStructure | None = None
        self._sigma: SemStructure | None = None

    def sigma(self) -> SemStructure:
        if self._sigma is None:
            self._sigma = SemStructure(self.label)
        return self._sigma

    def get(self, attribute: str):
        return self.attrs.get(attribute.upper())

    def nodes(self) -> list["FStructure"]:
        """All nodes reachable from here, document order, each once."""
        seen: dict[int, FStructure] = {}
        order: list[FStructure] = []

        def walk(node: FStructure):
            if id(node) in seen:
                return
            seen[id(node)] = node
            order.append(node)
            for value in node.attrs.values():
                if isinstance(value, FStructure):
                    walk(value)
                elif isinstance(value, tuple):
                    for member in value:
                        walk(member)

        walk(self)
        return order

    def find_label(self, label: str) -> "FStructure | None":
        for node in self.nodes():
            if node.label == label:
                return node
        return None

    def __repr__(self) -> str:
        return f"<FStructure {self.label}>"

    def __str__(self) -> str:
        return format_fstructure(self)


def sigma(node: FStructure) -> SemStructure:
    return node.sigma()


def resolve_path(root: FStructure, path) -> object:
    """Follow `path` (attribute names) from `root`; empty paths are invalid."""
    path = list(path)
    if not path:
        raise ValueError("resolve_path requires a non-empty path")
    current: object = root
    for attribute in path:
        if not isinstance(current, FStructure):
            raise MissingAttributeError(attribute.upper(), str(current))
        value = current.get(attribute)
        if value is None:
            raise MissingAttributeError(attribute.upper(), current.label)
        current = value
    return current


def parse_fstructure(text: str, source: str | None = None) -> FStructure:
    ts = TokenStream(tokenize(text, source), source)
    parser = _Parser(ts)
    root = parser.parse_node()
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} after f-structure")
    parser.resolve_references()
    return root


class _Deferred:
    """A bare identifier awaiting label resolution."""

    def __init__(self, name: str, tok: Token):
        self.name = name
        self.tok = tok


class _Parser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.labels: dict[str, FStructure] = {}
        self.deferred: list[tuple[FStructure, str, int | None, _Deferred]] = []

    def parse_node(self) -> FStructure:
        tok = self.ts.expect("IDENT", "an f-structure label")
        self.ts.descend("f-structures", tok)
        self.ts.expect(":")
        if tok.text in self.labels:
            self.ts.fail(f"duplicate label '{tok.text}'", tok)
        node = FStructure(tok.text)
        self.labels[tok.text] = node
        self.ts.expect("[")
        if not self.ts.accept("]"):
            self.parse_attr(node)
            while self.ts.accept(";"):
                if self.ts.peek().kind == "]":
                    break
                self.parse_attr(node)
            self.ts.expect("]")
        self.ts.ascend()
        return node

    def parse_attr(self, node: FStructure):
        tok = self.ts.expect("IDENT", "an attribute name")
        attribute = tok.text.upper()
        if attribute in node.attrs:
            self.ts.fail(f"duplicate attribute {attribute} in '{node.label}'", tok)
        node.attrs[attribute] = self.parse_value(node, attribute)

    def parse_value(self, container: FStructure, attribute: str):
        tok = self.ts.peek()
        if tok.kind == "QUOTED":
            self.ts.next()
            return tok.text
        if tok.kind == "{":
            return self.parse_set(container, attribute)
        if tok.kind == "IDENT":
            if self.ts.peek(1).kind == ":":
                return self.parse_node()
            self.ts.next()
            deferred = _Deferred(tok.text, tok)
            self.deferred.append((container, attribute, None, deferred))
            return deferred
        self.ts.fail(f"expected a value for attribute {attribute}")

    def parse_set(self, container: FStructure, attribute: str):
        self.ts.expect("{")
        members: list[object] = []
        if not self.ts.accept("}"):
            members.append(self.parse_set_member(container, attribute, len(members)))
            while self.ts.accept(";"):
                if self.ts.peek().kind == "}":
                    break
                members.append(self.parse_set_member(container, attribute, len(members)))
            self.ts.expect("}")
        return tuple(members)

    def parse_set_member(self, container: FStructure, attribute: str, index: int):
        tok = self.ts.peek()
        if tok.kind == "IDENT" and self.ts.peek(1).kind == ":":
            member = self.parse_node()
            member.mod_container = container
            return member
        if tok.kind == "IDENT":
            self.ts.next()
            deferred = _Deferred(tok.text, tok)
            self.deferred.append((container, attribute, index, deferred))
            return deferred
        self.ts.fail("set members must be f-structures or label references")

    def resolve_references(self):
        for container, attribute, index, deferred in self.deferred:
            target = self.labels.get(deferred.name)
            if index is None:
                # Attribute position: a known label is a re-entrant reference,
                # anything else is an atomic symbol (e.g. SPEC every).
                if target is not None:
                    container.attrs[attribute] = target
                else:
                    container.attrs[attribute] = deferred.name
            else:
                if target is None:
                    raise SyntaxErrorAt(
                        f"set member '{deferred.name}' is not a defined label",
                        deferred.tok.line,
                        deferred.tok.column,
                        self.ts.source,
                    )
                members = list(container.attrs[attribute])
                members[index] = target
                if target.mod_container is None:
                    target.mod_container = container
                container.attrs[attribute] = tuple(members)


def format_fstructure(root: FStructure) -> str:
    printed: set[int] = set()

    def fmt_node(node: FStructure) -> str:
        if id(node) in printed:
            return node.label
        printed.add(id(node))
        parts = []
        for attribute, value in node.attrs.items():
            parts.append(f"{attribute} {fmt_value(attribute, value)}")
        return f"{node.label}:[{'; '.join(parts)}]"

    def fmt_value(attribute: str, value) -> str:
        if isinstance(value, FStructure):
            return fmt_node(value)
        if isinstance(value, tuple):
            return "{ " + "; ".join(fmt_node(m) for m in value) + " }" if value else "{ }"
        if attribute == "PRED":
            return f"'{value}'"
        return str(value)

    return fmt_node(root)
