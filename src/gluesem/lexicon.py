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

A lexicon's templates fall into a few shapes: two templates share one when
their tokens differ only in constants of the same types. Within one
`parse_lexicon` call the first template of each shape is parsed, and every
later one is built from that result by renaming its constants in token
order. The first is kept for this only if the term parser read as signature
constants exactly the tokens whose text names one; a constant shadowed by a
binder, or spelled like a keyword, a type or a path attribute, fails that
check, so templates of its shape are all parsed. Errors therefore come only
from the parser, with their own line and column. Each constant line's type
is parsed once per type text.
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
from .lexer import Tokens, tokenize
from .node import Node
from .semtypes import SemType, parse_type_at
from .terms import App, Const, Lam
from .termsyntax import parse_term_at

_HEADWORD = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
_CONSTANT_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
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
    entries_pending: list[tuple[list[tuple[str, int]], str, int, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if _CONSTANT_KEYWORD.match(line.split(":", 1)[0].rstrip()):
            _parse_constant_line(line, lineno, lexicon, types, source)
            continue
        if ":" not in line:
            raise SyntaxErrorAt("expected 'headword: template'", lineno, 1, source)
        head_part, template_part = line.split(":", 1)
        words = []  # (headword, column)
        start = 0
        for part in head_part.split(","):
            word, column = part.strip(), _column(head_part, start)
            if not _HEADWORD.match(word):
                raise SyntaxErrorAt(f"bad headword {word!r}", lineno, column, source)
            words.append((word, column))
            start += len(part) + 1
        # Constants may be declared anywhere in the file; parse templates after.
        entries_pending.append((words, template_part, lineno, len(head_part) + 1))
    signature = lexicon.signature
    shapes: dict[tuple, GlueFormula] = {}  # shape -> its first template, if kept
    for words, template_part, lineno, offset in entries_pending:
        ts = tokenize(template_part, source, lineno, offset + 1)
        texts = ts.texts
        masked = [i for i, token in enumerate(texts) if token in signature]
        # The token kinds and texts, each constant's text replaced by its type.
        shape = (tuple(ts.kinds), tuple(map(signature.get, texts, texts)))
        template = shapes.get(shape)
        if template is not None:
            template = _rename(template, map(texts.__getitem__, masked))
        else:
            parser = _TemplateParser(ts, signature)
            template = parser.parse_template()
            # Kept only if each token naming a constant was read as one, not
            # as a binder, keyword, type or path attribute.
            if parser.consts == masked:
                shapes[shape] = template
        entry = LexicalEntry(headword=words[0][0], template=template)
        for word, column in words:
            key = word.casefold()
            if key in lexicon:
                raise SyntaxErrorAt(f"duplicate entry for '{word}'", lineno, column, source)
            lexicon[key] = entry
    return lexicon


def _column(line: str, start: int) -> int:
    """The column of the first non-blank character of `line` from `start`."""
    return len(line) - len(line[start:].lstrip()) + 1


def _parse_constant_line(line: str, lineno: int, lexicon: Lexicon, types, source):
    after = line.index("constant") + len("constant")
    column = _column(line, after)  # the name's
    if ":" not in line:
        raise SyntaxErrorAt("expected 'constant name : type'", lineno, column, source)
    name_part, type_part = line[after:].split(":", 1)
    name = name_part.strip()
    if not _CONSTANT_NAME.match(name):
        raise SyntaxErrorAt(f"bad constant name {name!r}", lineno, column, source)
    if name in lexicon.signature:
        raise SyntaxErrorAt(f"duplicate constant '{name}'", lineno, column, source)
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
        self.consts: list[int] = []  # token indices read as signature constants

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
        meaning, meaning_ty = parse_term_at(
            self.ts, self.signature, self.meaning_scope, self.consts
        )
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


def _rename(node, names):
    """`node` with each `Const` leaf renamed to the next of `names`. The walk
    reads a function before its argument and a left operand before its
    right one, so it meets the constants in the order of their tokens."""
    kind = type(node)
    if kind is Const:
        return Const(next(names), node[2])
    if kind is Atom:
        return Atom(node[1], node[2], _rename(node[3], names))
    if kind is Forall:
        return Forall(node[1], _rename(node[2], names))
    if kind is Lam:
        return Lam(node[1], _rename(node[2], names), node[3])
    if kind is App or kind is Tensor or kind is Limp:
        return kind(_rename(node[1], names), _rename(node[2], names))
    return node  # a variable


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
