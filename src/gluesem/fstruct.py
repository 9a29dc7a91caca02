"""LFG f-structures: labelled attribute-value matrices, their text format,
path resolution, and the sigma projection onto semantic structures.

Text format (UTF-8)::

    f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']]

Attribute names are case-insensitive (canonicalized to upper case), values
are nested f-structures, quoted symbols (`'appoint'`), bare identifiers
(`every`), or sets `{ m:[...]; n:[...] }`. A bare identifier that names a
label defined elsewhere in the same document is a re-entrant reference to
that node; re-entrancy is carried through but nothing in scope exploits it.

The parser reads the tokenizer's kind and text lists directly: each routine
takes the index of its first token and its nesting depth, and returns the
index after what it read. A bare identifier's slot is filled once every
label is known.
"""

from __future__ import annotations

import re

from .errors import MissingAttributeError
from .lexer import IDENTIFIER, MAX_NESTING, Tokens, expected, too_deep, tokenize
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
    if ts.kinds[0] != "IDENT":
        expected(ts, 0, "an f-structure label")
    parser = _Parser(ts)
    root, pos = parser.parse_node(0, 0)
    if ts.kinds[pos] != "EOF":
        ts.fail(f"unexpected {ts.texts[pos]!r} after f-structure", pos)
    parser.resolve_references()
    return root


class _Parser:
    """Reads nodes at token indices it is given, and returns the index after
    what it read."""

    def __init__(self, ts: Tokens):
        self.ts = ts
        self.kinds = ts.kinds
        self.texts = ts.texts
        self.labels: dict[str, FStructure] = {}
        # (container, attribute, set index or None, token index) for each
        # bare identifier, which stands in its slot until every label is known
        self.deferred: list[tuple[FStructure, str, int | None, int]] = []

    def parse_node(self, at: int, depth: int) -> tuple[FStructure, int]:
        """The node labelled by the token at index `at`, read from the `:`
        that follows it, `depth` levels deep; its attributes are `;`-separated
        (a trailing `;` is allowed)."""
        ts, kinds = self.ts, self.kinds
        label = self.texts[at]
        if depth == MAX_NESTING:
            too_deep(ts, at, "f-structures")
        if kinds[at + 1] != ":":
            expected(ts, at + 1, "':'")
        if label in self.labels:
            ts.fail(f"duplicate label '{label}'", at)
        node = self.labels[label] = FStructure(label)
        if kinds[at + 2] != "[":
            expected(ts, at + 2, "'['")
        pos = at + 3
        while kinds[pos] != "]":
            pos = self.parse_attr(node, pos, depth)
            if kinds[pos] == ";":
                pos += 1
            elif kinds[pos] != "]":
                expected(ts, pos, "']'")
        return node, pos + 1

    def parse_attr(self, node: FStructure, pos: int, depth: int) -> int:
        ts, kinds = self.ts, self.kinds
        if kinds[pos] != "IDENT":
            expected(ts, pos, "an attribute name")
        attribute = self.texts[pos].upper()
        if attribute in node.attrs:
            ts.fail(f"duplicate attribute {attribute} in '{node.label}'", pos)
        pos += 1
        kind = kinds[pos]
        if kind == "QUOTED":
            value = self.texts[pos]
            pos += 1
        elif kind == "IDENT":
            value, pos = self.parse_ident(node, attribute, None, pos, depth)
        elif kind == "{":
            members = []
            pos += 1
            while kinds[pos] != "}":
                if kinds[pos] != "IDENT":
                    ts.fail("set members must be f-structures or label references", pos)
                member, pos = self.parse_ident(node, attribute, len(members), pos, depth)
                members.append(member)
                if kinds[pos] == ";":
                    pos += 1
                elif kinds[pos] != "}":
                    expected(ts, pos, "'}'")
            value = tuple(members)
            pos += 1
        else:
            ts.fail(f"expected a value for attribute {attribute}", pos)
        node.attrs[attribute] = value
        return pos

    def parse_ident(
        self, container: FStructure, attribute: str, index: int | None, at: int, depth: int
    ) -> tuple[FStructure | None, int]:
        """A node if `:` follows the identifier at index `at`; else None,
        which holds the slot of a deferred reference. `index` places a set
        member in its set."""
        if self.kinds[at + 1] == ":":
            node, pos = self.parse_node(at, depth + 1)
            if index is not None:
                node.mod_container = container
            return node, pos
        self.deferred.append((container, attribute, index, at))
        return None, at + 1

    def resolve_references(self):
        for container, attribute, index, at in self.deferred:
            name = self.texts[at]
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
