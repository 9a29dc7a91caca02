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

from .errors import MissingAttributeError
from .lexer import IDENTIFIER, Tokens, tokenize
from .node import Node

_IDENTIFIER = re.compile(IDENTIFIER)


class SemStructure(Node):
    """The sigma projection of one f-structure node; compared by label."""

    __slots__ = ()
    __match_args__ = ("label",)

    def __str__(self) -> str:
        return f"{self.label}_σ"


class FStructure:
    """One f-structure node. Nodes are identity-bearing: the link to the node
    whose set contains it lives on the node itself. Its sigma projection is
    `sigma(node)`, a value compared by label."""

    def __init__(self, label: str):
        self.label = label
        self.attrs: dict[str, object] = {}
        self.mod_container: FStructure | None = None

    def get(self, attribute: str):
        return self.attrs.get(attribute.upper())

    def nodes(self) -> list["FStructure"]:
        """All nodes reachable from here, document order, each once. The walk
        keeps its own stack: a chain of references can be longer than the
        nesting the parser allows."""
        seen: set[int] = set()
        order: list[FStructure] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            order.append(node)
            for value in reversed(node.attrs.values()):
                if isinstance(value, FStructure):
                    stack.append(value)
                elif type(value) is tuple:
                    stack.extend(reversed(value))
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
    return SemStructure(node.label)


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
    ts = tokenize(text, source)
    parser = _Parser(ts)
    ts.expect("IDENT", "an f-structure label")
    root = parser.parse_node(0)
    if not ts.at_end():
        ts.fail(f"unexpected {ts.text()!r} after f-structure")
    parser.resolve_references()
    return root


class _Parser:
    def __init__(self, ts: Tokens):
        self.ts = ts
        self.labels: dict[str, FStructure] = {}
        # (container, attribute, set index or None, token index) for each
        # bare identifier, which stands in its slot until every label is known
        self.deferred: list[tuple[FStructure, str, int | None, int]] = []

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

    def parse_node(self, at: int) -> FStructure:
        """The node labelled by the token at index `at`, read from the `:`
        that follows it."""
        ts = self.ts
        label = ts.texts[at]
        ts.descend("f-structures", at)
        ts.expect(":")
        if label in self.labels:
            ts.fail(f"duplicate label '{label}'", at)
        node = self.labels[label] = FStructure(label)
        ts.expect("[")
        for _ in self.items("]"):
            self.parse_attr(node)
        ts.ascend()
        return node

    def parse_attr(self, node: FStructure):
        ts = self.ts
        attribute = ts.expect("IDENT", "an attribute name").upper()
        if attribute in node.attrs:
            ts.fail(f"duplicate attribute {attribute} in '{node.label}'", ts.pos - 1)
        if ts.peek() == "QUOTED":
            value = ts.next()
        elif ts.accept("{"):
            members = []
            for index in self.items("}"):
                if not ts.accept("IDENT"):
                    ts.fail("set members must be f-structures or label references")
                members.append(self.parse_ident(node, attribute, index))
            value = tuple(members)
        elif ts.accept("IDENT"):
            value = self.parse_ident(node, attribute, None)
        else:
            ts.fail(f"expected a value for attribute {attribute}")
        node.attrs[attribute] = value

    def parse_ident(self, container: FStructure, attribute: str, index: int | None):
        """A node if `:` follows the identifier just read; else None, which
        holds the slot of a deferred reference. `index` places a set member
        in its set."""
        at = self.ts.pos - 1
        if self.ts.peek() == ":":
            node = self.parse_node(at)
            if index is not None:
                node.mod_container = container
            return node
        self.deferred.append((container, attribute, index, at))
        return None

    def resolve_references(self):
        for container, attribute, index, at in self.deferred:
            name = self.ts.texts[at]
            if index is None:
                # Attribute position: a known label is a re-entrant reference,
                # anything else is an atomic symbol (e.g. SPEC every).
                container.attrs[attribute] = self.labels.get(name, name)
                continue
            target = self.labels.get(name)
            if target is None:
                self.ts.fail(f"set member '{name}' is not a defined label", at)
            members = list(container.attrs[attribute])
            members[index] = target
            if target.mod_container is None:
                target.mod_container = container
            container.attrs[attribute] = tuple(members)


def format_fstructure(root: FStructure) -> str:
    """The text of `root`: each node whole where it is first met, by its label
    after that. Like `nodes()`, the walk keeps its own stack of what is still
    to print: text, or a node."""
    printed: set[int] = set()
    labels = {node.label for node in root.nodes()}
    out: list[str] = []
    stack: list[str | FStructure] = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if id(item) in printed:
            out.append(item.label)
            continue
        printed.add(id(item))
        parts: list[str | FStructure] = [f"{item.label}:["]
        for i, (attribute, value) in enumerate(item.attrs.items()):
            parts.append(f"; {attribute} " if i else f"{attribute} ")
            if isinstance(value, FStructure):
                parts.append(value)
            elif type(value) is tuple:
                parts.append("{ ")
                for j, member in enumerate(value):
                    parts += ("; ", member) if j else (member,)
                parts.append(" }" if value else "}")
            else:
                # A symbol is printed bare only where it reads back as itself:
                # an identifier that starts with a letter, as the tokenizer
                # reads one, and names no node.
                bare = value[:1].isalpha() and _IDENTIFIER.fullmatch(value) and value not in labels
                parts.append(value if bare and attribute != "PRED" else f"'{value}'")
        parts.append("]")
        stack.extend(reversed(parts))
    return "".join(out)
