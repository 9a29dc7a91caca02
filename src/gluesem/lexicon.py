"""The lexicon: meaning-constructor templates keyed by headword, their
instantiation against f-structure nodes, and premise collection.

Lexicon file format, one declaration per line::

    constant appoint : e -> e -> t
    appointed, appoint: forall X:e, Y:e. (^ SUBJ) ~> X * (^ OBJ) ~> Y -o ^ ~> appoint(X, Y)

`constant` lines build the signature that types the meaning side. An entry
line names one or more headwords (names for the same constructor, covering
word-form vs semantic-form naming like appointed/appoint), then a template:
`~>` relates a structure expression to a meaning, `~>_t` forces the type
index, `*` is multiplicative conjunction, `-o` linear implication
(right-associative), `forall v:τ.` binds a meaning variable and a bare
`forall H.` a structure variable. `^` is the word's own node, `(^ SUBJ)` a
path from it, `(mod ^)` the node whose MODS set contains it.

A lexicon's templates fall into a few shapes, read off their text: split
into words (the tokenizer's identifiers; the `o` of `-o` is none) and the
text between them, two templates share a shape when they differ only in
words that name constants of the same types. Since a word runs to the first
character that cannot continue an identifier, class-mates' tokens differ
only at those words, and since no template position takes a quoted symbol,
a template that parses has its words as its identifier tokens. Within one
`parse_lexicon` call only the first template of each shape is tokenized and
parsed. At the shape's first reuse, its `Const` leaves are counted: if there
are as many as words that name constants, every later class-mate is that
result with its constants renamed in word order, rebuilding only the nodes
above them. Fewer leaves mean a word naming a constant was read as a binder,
keyword, type or path attribute, or under a binder of its name; each
class-mate has such a word at the same place, so every later one is parsed
in full. Errors therefore come only from the parser, with their own line and
column, which are worked out only for an error. Each constant line's type is
parsed once per type text.
"""

from __future__ import annotations

import re

from .errors import (
    MissingAttributeError,
    MissingEntryError,
    SyntaxErrorAt,
    UninstantiableEntryError,
)
from .formulas import Atom, Forall, GlueFormula, Limp, MeaningVar, PathRef, SemVar, Tensor
from .fstruct import FStructure, resolve_path, sigma
from .lexer import IDENTIFIER, Tokens, tokenize
from .node import Node
from .semtypes import SemType, parse_type_at
from .terms import App, Const, Lam
from .termsyntax import parse_term_at

_HEADWORD = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
# A word of a template's text: an identifier, as the tokenizer reads one,
# except after a `-`, so the `o` of `-o` is no word.
_SPLIT = re.compile(rf"(?<!-)({IDENTIFIER})")
_CONSTANT_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_UNREAD = object()  # the constant paths of a shape not yet reused
# A constant line: the part before its first `:`, right-stripped, starts with
# the keyword and a blank (a headword named `constant` stands alone there).
_CONSTANT_KEYWORD = re.compile(r"\s*constant\s")


class LexicalEntry(Node):
    __slots__ = ()
    __match_args__ = ("headword", "template")

    def __str__(self) -> str:
        return f"{self.headword}: {self.template}"


class Lexicon(dict):
    """Map from each headword of an entry line to its LexicalEntry, plus the
    constant signature used to type meaning terms."""

    def __init__(self):
        super().__init__()
        self.signature: dict[str, SemType] = {}


def parse_lexicon(text: str, source: str | None = None) -> Lexicon:
    lexicon = Lexicon()
    types: dict[str, SemType] = {}  # each constant line's type, by its text
    entries_pending: list[tuple[list[str], str, str, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line:
            continue
        head_part, colon, template_part = line.partition(":")
        if _CONSTANT_KEYWORD.match(head_part.rstrip()):
            _parse_constant_line(line, lineno, lexicon, types, source)
            continue
        if not colon:
            raise SyntaxErrorAt("expected 'headword: template'", lineno, 1, source)
        words = [part.strip() for part in head_part.split(",")]
        if not all(map(_HEADWORD.match, words)):
            k = next(k for k, word in enumerate(words) if not _HEADWORD.match(word))
            column = _headword_column(line, k)
            raise SyntaxErrorAt(f"bad headword {words[k]!r}", lineno, column, source)
        # Constants may be declared anywhere in the file; parse templates after.
        entries_pending.append((words, template_part, line, lineno))
    signature = lexicon.signature
    # shape -> [its first template, where that holds its constants (read at
    # the first reuse)], or None once every template of it is parsed
    shapes: dict[tuple, list | None] = {}
    for words, template_part, line, lineno in entries_pending:
        parts = _SPLIT.split(template_part)
        # The text, each word that names a constant replaced by its type.
        shape = tuple(map(signature.get, parts, parts))
        kept = shapes.get(shape)
        if kept is not None and kept[1] is _UNREAD:
            # The first reuse: is each word naming a constant a `Const` leaf?
            paths = _const_paths(kept[0])
            if _leaves(paths) == sum(map(signature.__contains__, parts[1::2])):
                kept[1] = paths
            else:
                kept = shapes[shape] = None
        if kept is None:
            ts = tokenize(template_part, source, lineno, len(line) - len(template_part) + 1)
            template = _TemplateParser(ts, signature).parse_template()
            shapes.setdefault(shape, [template, _UNREAD])
        else:
            template, paths = kept
            if paths is not None:
                constants = iter([word for word in parts[1::2] if word in signature])
                template = _rename(template, paths, constants)
        entry = LexicalEntry(words[0], template)
        for k, word in enumerate(words):
            key = word.casefold()
            if key in lexicon:
                column = _headword_column(line, k)
                raise SyntaxErrorAt(f"duplicate entry for '{word}'", lineno, column, source)
            lexicon[key] = entry
    return lexicon


def _column(line: str, start: int) -> int:
    """The column of the first non-blank character of `line` from `start`."""
    return len(line) - len(line[start:].lstrip()) + 1


def _headword_column(line: str, k: int) -> int:
    """The column of the `k`th headword (from 0) of an entry line."""
    parts = line.partition(":")[0].split(",")
    return _column(line, sum(len(part) + 1 for part in parts[:k]))


def _parse_constant_line(line: str, lineno: int, lexicon: Lexicon, types, source):
    after = line.index("constant") + len("constant")  # errors stand at the name
    if ":" not in line:
        message = "expected 'constant name : type'"
        raise SyntaxErrorAt(message, lineno, _column(line, after), source)
    name_part, type_part = line[after:].split(":", 1)
    name = name_part.strip()
    if not _CONSTANT_NAME.match(name):
        raise SyntaxErrorAt(f"bad constant name {name!r}", lineno, _column(line, after), source)
    if name in lexicon.signature:
        raise SyntaxErrorAt(f"duplicate constant '{name}'", lineno, _column(line, after), source)
    ty = types.get(type_part)
    if ty is None:
        ts = tokenize(type_part, source, lineno, len(line) - len(type_part) + 1)
        ty = parse_type_at(ts)
        if not ts.at_end():
            ts.fail("trailing input after type")
        types[type_part] = ty
    lexicon.signature[name] = ty


class _TemplateParser:
    def __init__(self, ts: Tokens, signature: dict[str, SemType]):
        self.ts = ts
        self.signature = signature
        self.meaning_scope: dict[str, SemType] = {}
        self.sem_scope: set[str] = set()

    def parse_template(self) -> GlueFormula:
        template = self.parse_formula()
        if not self.ts.at_end():
            self.ts.fail(f"unexpected {self.ts.text()!r} after template")
        return template

    def parse_formula(self) -> GlueFormula:
        if self.ts.peek() == "IDENT" and self.ts.text() == "forall":
            return self.parse_forall()
        return self.parse_limp()

    def parse_forall(self) -> GlueFormula:
        self.ts.next()  # 'forall'
        binders: list[object] = []
        while True:
            name = self.ts.expect("IDENT", "a quantifier variable")
            at = self.ts.pos - 1
            if name in self.meaning_scope or name in self.sem_scope:
                self.ts.fail(f"variable '{name}' already bound", at)
            if self.ts.accept(":"):
                ty = parse_type_at(self.ts)
                binders.append(MeaningVar(name, ty))
                self.meaning_scope[name] = ty
            else:
                binders.append(SemVar(name))
                self.sem_scope.add(name)
            self.ts.descend("formulas", at)
            if not self.ts.accept(","):
                break
        self.ts.expect(".")
        body = self.parse_formula()
        self.ts.ascend(len(binders))
        for binder in reversed(binders):
            body = Forall(binder, body)
            if isinstance(binder, MeaningVar):
                del self.meaning_scope[binder.name]
            else:
                self.sem_scope.discard(binder.name)
        return body

    def parse_limp(self) -> GlueFormula:
        left = self.parse_tensor()
        if self.ts.accept("-o"):
            self.ts.descend("formulas", self.ts.pos - 1)
            right = self.parse_formula()
            self.ts.ascend()
            return Limp(left, right)
        return left

    def parse_tensor(self) -> GlueFormula:
        left = self.parse_unit()
        if self.ts.accept("*"):
            self.ts.descend("formulas", self.ts.pos - 1)
            right = self.parse_tensor()
            self.ts.ascend()
            return Tensor(left, right)
        return left

    def parse_unit(self) -> GlueFormula:
        """An atom, or a formula in parentheses; a `(` opens `(^ PATH)`,
        `(mod ^)` or a group, told apart by the tokens after it (`(^ ~>`
        opens a group whose first atom is on `^`)."""
        ts = self.ts
        if not ts.accept("("):
            return self.parse_atom(self.parse_sem_expr())
        open_at = ts.pos - 1
        if ts.peek() == "^" and ts.peek(1) != "~>":
            ts.pos += 1
            path = []
            while name := ts.accept("IDENT"):
                path.append(name.upper())
            ts.expect(")")
            return self.parse_atom(PathRef("up", tuple(path)))
        if ts.peek() == "IDENT" and ts.text() == "mod" and ts.peek(1) == "^":
            ts.pos += 2  # 'mod' '^'
            ts.expect(")")
            return self.parse_atom(PathRef("mod"))
        ts.descend("formulas", open_at)
        inner = self.parse_formula()
        ts.ascend()
        ts.expect(")")
        return inner

    def parse_atom(self, sem) -> Atom:
        """The rest of an atom whose structure expression `sem` is read."""
        self.ts.expect("~>")
        explicit: SemType | None = None
        if self.ts.accept("_"):
            explicit = parse_type_at(self.ts)
        meaning, meaning_ty = parse_term_at(self.ts, self.signature, self.meaning_scope)
        if explicit is not None and explicit != meaning_ty:
            self.ts.fail(
                f"type index {explicit} conflicts with meaning type {meaning_ty}"
            )
        return Atom(sem, explicit if explicit is not None else meaning_ty, meaning)

    def parse_sem_expr(self):
        """`^` or a bound structure variable."""
        if self.ts.accept("^"):
            return PathRef("up")
        name = self.ts.expect("IDENT", "a structure expression")
        if name not in self.sem_scope:
            self.ts.fail(f"unbound structure variable '{name}'", self.ts.pos - 1)
        return SemVar(name)


def _const_paths(node):
    """Where `node` holds `Const` leaves: () at one, None where there is
    none, else a (field index, paths) pair for each field holding one, a
    function before its argument and a left operand before its right one,
    which is the order of their tokens."""
    kind = type(node)
    if kind is Const:
        return ()
    if kind is App or kind is Tensor or kind is Limp:
        fields = (1, 2)
    elif kind is Atom:
        fields = (3,)
    elif kind is Forall or kind is Lam:
        fields = (2,)
    else:
        return None  # a variable
    paths = []
    for i in fields:
        inner = _const_paths(node[i])
        if inner is not None:
            paths.append((i, inner))
    return tuple(paths) or None


def _leaves(paths) -> int:
    """The number of `Const` leaves on `paths` (see `_const_paths`)."""
    if paths is None:
        return 0
    return sum(_leaves(inner) for _, inner in paths) if paths else 1


def _rename(node, paths, names):
    """`node` with each `Const` leaf on `paths` (see `_const_paths`)
    renamed to the next of `names`; only the nodes on those paths are
    rebuilt, the rest is shared."""
    if not paths:
        return Const(next(names), node[2])
    fields = list(node)  # the tag, then the fields
    for i, inner in paths:
        fields[i] = _rename(node[i], inner, names)
    return type(node)(*fields[1:])


def instantiate(entry: LexicalEntry, node: FStructure) -> GlueFormula:
    """Resolve the template's paths at `node` and sigma-project them; the
    result is a closed formula with the template's connective shape."""

    def resolve(formula: GlueFormula) -> GlueFormula:
        match formula:
            case Atom(sem, ty, meaning):
                if isinstance(sem, PathRef):
                    return Atom(_resolve_ref(sem), ty, meaning)
                return formula
            case Tensor(left, right):
                return Tensor(resolve(left), resolve(right))
            case Limp(antecedent, consequent):
                return Limp(resolve(antecedent), resolve(consequent))
            case Forall(var, body):
                return Forall(var, resolve(body))
        return formula

    def _resolve_ref(ref: PathRef):
        if ref.anchor == "mod":
            container = node.mod_container
            if container is None:
                raise UninstantiableEntryError(entry.headword, node.label, "(mod ^)")
            return sigma(container)
        if not ref.path:
            return sigma(node)
        try:
            target = resolve_path(node, ref.path)
        except MissingAttributeError as exc:
            raise UninstantiableEntryError(
                entry.headword, node.label, exc.attribute
            ) from exc
        if not isinstance(target, FStructure):
            raise UninstantiableEntryError(entry.headword, node.label, ref.path[-1])
        return sigma(target)

    return resolve(entry.template)


class Premise(Node):
    __slots__ = ()
    # index: 1-based, in document order; word: the contributing entry's
    # headword; label: the f-structure node the word heads
    __match_args__ = ("index", "formula", "word", "label")

    def tag(self) -> str:
        return f"{self.word}[{self.index}]"

    def __str__(self) -> str:
        return f"[{self.index}] {self.word}: {self.formula}"


def entry_key(node: FStructure) -> str | None:
    """Lookup key for the word heading `node`: its PRED, prefixed by SPEC for
    pre-combined quantified nominals (every-candidate, a-manager)."""
    pred = node.get("PRED")
    if not isinstance(pred, str):
        return None
    spec = node.get("SPEC")
    if isinstance(spec, str):
        return f"{spec}-{pred}".casefold()
    return pred.casefold()


def premises(root: FStructure, lexicon: Lexicon) -> tuple[Premise, ...]:
    """One instantiated premise per word occurrence (PRED-bearing node,
    including each MODS member), in document order."""
    out: list[Premise] = []
    for node in root.nodes():
        key = entry_key(node)
        if key is None:
            continue
        entry = lexicon.get(key)
        if entry is None:
            raise MissingEntryError(key, node.label)
        formula = instantiate(entry, node)
        out.append(Premise(len(out) + 1, formula, entry.headword, node.label))
    return tuple(out)
