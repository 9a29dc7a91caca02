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

import re
from dataclasses import dataclass

from .errors import MissingAttributeError
from .lexer import Token, TokenStream, tokenize

Value = "FStructure | str | tuple[FStructure, ...]"
_WORD = re.compile(r"\w+")


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
    root = parser.parse_node(ts.expect("IDENT", "an f-structure label"))
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} after f-structure")
    parser.resolve_references()
    return root


class _Parser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.labels: dict[str, FStructure] = {}
        # (container, attribute, set index or None, identifier) for each bare
        # identifier, which stands in its slot until every label is known
        self.deferred: list[tuple[FStructure, str, int | None, Token]] = []

    def items(self, close: str):
        """Yield the index of each `;`-separated item of a list ending in
        `close` (a trailing `;` is allowed); the caller parses the item."""
        ts = self.ts
        index = 0
        while not ts.accept(close):
            yield index
            if not ts.accept(";"):
                ts.expect(close)
                return
            index += 1

    def parse_node(self, tok: Token) -> FStructure:
        """The node labelled `tok`, read from the `:` that follows it."""
        ts = self.ts
        ts.descend("f-structures", tok)
        ts.expect(":")
        if tok.text in self.labels:
            ts.fail(f"duplicate label '{tok.text}'", tok)
        node = self.labels[tok.text] = FStructure(tok.text)
        ts.expect("[")
        for _ in self.items("]"):
            self.parse_attr(node)
        ts.ascend()
        return node

    def parse_attr(self, node: FStructure):
        ts = self.ts
        tok = ts.expect("IDENT", "an attribute name")
        attribute = tok.text.upper()
        if attribute in node.attrs:
            ts.fail(f"duplicate attribute {attribute} in '{node.label}'", tok)
        if tok := ts.accept("QUOTED"):
            value = tok.text
        elif ts.accept("{"):
            members = []
            for index in self.items("}"):
                tok = ts.accept("IDENT") or ts.fail(
                    "set members must be f-structures or label references"
                )
                members.append(self.parse_ident(tok, node, attribute, index))
            value = tuple(members)
        else:
            tok = ts.accept("IDENT") or ts.fail(f"expected a value for attribute {attribute}")
            value = self.parse_ident(tok, node, attribute, None)
        node.attrs[attribute] = value

    def parse_ident(self, tok: Token, container: FStructure, attribute: str, index: int | None):
        """A node if `:` follows the identifier `tok`, else a deferred
        reference; `index` places a set member in its set."""
        if self.ts.peek().kind == ":":
            node = self.parse_node(tok)
            if index is not None:
                node.mod_container = container
            return node
        self.deferred.append((container, attribute, index, tok))
        return tok

    def resolve_references(self):
        for container, attribute, index, tok in self.deferred:
            if index is None:
                # Attribute position: a known label is a re-entrant reference,
                # anything else is an atomic symbol (e.g. SPEC every).
                container.attrs[attribute] = self.labels.get(tok.text, tok.text)
                continue
            target = self.labels.get(tok.text)
            if target is None:
                self.ts.fail(f"set member '{tok.text}' is not a defined label", tok)
            members = list(container.attrs[attribute])
            members[index] = target
            if target.mod_container is None:
                target.mod_container = container
            container.attrs[attribute] = tuple(members)


def format_fstructure(root: FStructure) -> str:
    printed: set[int] = set()
    labels = {node.label for node in root.nodes()}

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
        # A symbol is printed bare only where it reads back as itself: an
        # identifier (as the tokenizer reads one) that names no node.
        bare = value[:1].isalpha() and _WORD.fullmatch(value) and value not in labels
        return value if bare and attribute != "PRED" else f"'{value}'"

    return fmt_node(root)
