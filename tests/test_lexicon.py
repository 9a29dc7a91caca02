"""Lexicon parsing, template instantiation, and premise collection."""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

import pytest

from gluesem import lexicon as lexicon_module
from gluesem import prover
from gluesem.errors import (
    MissingEntryError,
    SyntaxErrorAt,
    UnboundVariableError,
    UninstantiableEntryError,
)
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, PathRef, SemVar, Tensor
from gluesem.fstruct import parse_fstructure, sigma
from gluesem.lexer import tokenize
from gluesem.lexicon import Premise, instantiate, parse_lexicon, premises
from gluesem.semtypes import E, T, arrow, parse_type_at
from gluesem.terms import Const, Var, apply

from conftest import FIXTURES


def shape(formula):
    """Connective skeleton, ignoring leaf content."""
    match formula:
        case Atom():
            return "atom"
        case Tensor(left, right):
            return ("*", shape(left), shape(right))
        case Limp(antecedent, consequent):
            return ("-o", shape(antecedent), shape(consequent))
        case Forall(_, body):
            return ("forall", shape(body))


def test_parse_transitive_verb_entry(lexicon):
    entry = lexicon["appointed"]
    template = entry.template
    assert isinstance(template, Forall) and template.var == MeaningVar("X", E)
    inner = template.body
    assert isinstance(inner, Forall) and inner.var == MeaningVar("Y", E)
    imp = inner.body
    assert isinstance(imp, Limp)
    left = imp.antecedent
    assert isinstance(left, Tensor)
    assert left.left == Atom(PathRef("up", ("SUBJ",)), E, Var("X", E))
    assert left.right == Atom(PathRef("up", ("OBJ",)), E, Var("Y", E))
    assert imp.consequent == Atom(
        PathRef("up"), T, apply(Const("appoint", arrow(E, E, T)), Var("X", E), Var("Y", E))
    )


def test_parse_atomic_entry(lexicon):
    entry = lexicon["bill"]
    assert entry.template == Atom(PathRef("up"), E, Const("Bill", E))


def test_parse_quantifier_entry_nests_an_implication(lexicon):
    entry = lexicon["everyone"]
    assert shape(entry.template) == (
        "forall",
        ("forall", ("-o", ("forall", ("-o", "atom", "atom")), "atom")),
    )
    outer = entry.template
    assert outer.var == SemVar("H")
    assert outer.body.var == MeaningVar("S", arrow(E, T))
    scope_antecedent = outer.body.body.antecedent
    inner_head = scope_antecedent.body.consequent
    assert inner_head.sem == SemVar("H")
    assert inner_head.ty == T


def test_a_group_may_open_with_an_atom_on_the_up_arrow():
    """`(^ ~>` opens a group whose first atom is on `^`, not a path."""
    lexicon = parse_lexicon("constant a : t\nconstant b : t\nx: (^ ~>_t a -o ^ ~> b) -o ^ ~> b")
    up = PathRef("up")
    assert lexicon["x"].template == Limp(
        Limp(Atom(up, T, Const("a", T)), Atom(up, T, Const("b", T))), Atom(up, T, Const("b", T))
    )


def test_entry_aliases_share_one_entry(lexicon):
    assert lexicon["appointed"] is lexicon["appoint"]
    assert lexicon["appointed"].headword == "appointed"


def test_type_index_defaults_from_meaning_type(lexicon):
    subj_atom = lexicon["appointed"].template.body.body.antecedent.left
    assert subj_atom.ty == E  # inferred, no explicit subscript in the source


def test_explicit_type_index_must_match_meaning():
    with pytest.raises(SyntaxErrorAt):
        parse_lexicon("constant Bill : e\nbad: ^ ~>_t Bill")


def test_unbound_meaning_variable_rejected():
    with pytest.raises(UnboundVariableError):
        parse_lexicon("bad: ^ ~> X")


def test_unbound_structure_variable_rejected():
    with pytest.raises(SyntaxErrorAt) as err:
        parse_lexicon("constant Bill : e\nbad: H ~> Bill")
    assert "unbound structure variable" in str(err.value)


def test_rebinding_a_template_variable_rejected():
    with pytest.raises(SyntaxErrorAt):
        parse_lexicon("constant Bill : e\nbad: forall X:e, X:e. ^ ~> X -o ^ ~> Bill")


def test_instantiate_proper_name(lexicon, bah):
    g = bah.attrs["SUBJ"]
    assert instantiate(lexicon["bill"], g) == Atom(sigma(g), E, Const("Bill", E))


def test_instantiate_keeps_template_shape(lexicon, bah):
    entry = lexicon["appointed"]
    formula = instantiate(entry, bah)
    assert shape(formula) == shape(entry.template)
    imp = formula.body.body
    assert imp.antecedent.left.sem == sigma(bah.attrs["SUBJ"])
    assert imp.antecedent.right.sem == sigma(bah.attrs["OBJ"])
    assert imp.consequent.sem == sigma(bah)
    prover._Search([Premise(1, formula, "appointed", "f")], [])  # set-up: closed


def test_instantiate_missing_path_is_uninstantiable(lexicon):
    root = parse_fstructure("f:[PRED 'devour'; SUBJ g:[PRED 'John']]")
    with pytest.raises(UninstantiableEntryError) as err:
        instantiate(lexicon["devoured"], root)
    assert err.value.attribute == "OBJ"
    assert err.value.headword == "devoured"


def test_instantiate_modifier_resolves_mod_container(lexicon, modified):
    mod = modified.attrs["MODS"][0]
    formula = instantiate(lexicon["obviously"], mod)
    imp = formula.body
    assert imp.antecedent.sem == sigma(modified)
    assert imp.consequent.sem == sigma(modified)


def test_instantiate_modifier_outside_mods_fails(lexicon, bah):
    with pytest.raises(UninstantiableEntryError) as err:
        instantiate(lexicon["obviously"], bah)
    assert "(mod ^)" in str(err.value)


def test_premises_three_for_transitive(lexicon, bah):
    ps = premises(bah, lexicon)
    assert len(ps) == 3
    assert [p.word for p in ps] == ["appointed", "bill", "hillary"]
    assert [p.index for p in ps] == [1, 2, 3]
    prover._Search(ps, [])  # set-up raises unless every premise is closed


def test_premises_include_modifier(lexicon, modified):
    ps = premises(modified, lexicon)
    assert len(ps) == 4
    assert "obviously" in [p.word for p in ps]


def test_empty_mods_contributes_nothing(lexicon):
    with_empty = parse_fstructure(
        "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']; MODS { }]"
    )
    assert len(premises(with_empty, lexicon)) == 3


def test_premise_count_matches_word_occurrences(lexicon, scope_fs, everyone_fs, ditransitive_fs):
    assert len(premises(scope_fs, lexicon)) == 3
    assert len(premises(everyone_fs, lexicon)) == 3
    assert len(premises(ditransitive_fs, lexicon)) == 4


def test_spec_and_pred_combine_into_entry_key(lexicon, scope_fs):
    ps = premises(scope_fs, lexicon)
    assert {p.word for p in ps} == {"appointed", "every-candidate", "a-manager"}


def test_missing_entry_is_reported(lexicon):
    root = parse_fstructure("f:[PRED 'vanish'; SUBJ g:[PRED 'Bill']]")
    with pytest.raises(MissingEntryError) as err:
        premises(root, lexicon)
    assert err.value.key == "vanish"


@pytest.mark.parametrize(
    "line,error",
    [
        ("constant Bill e", "1:10: expected 'constant name : type'"),
        ("constant 9Bill : e", "1:10: bad constant name '9Bill'"),
        ("constant Bill : e\nconstant Bill : t", "2:10: duplicate constant 'Bill'"),
        ("constant Bill : e\nbill, b c: ^ ~> Bill", "2:7: bad headword 'b c'"),
        ("constant Bill : e\nbill: ^ ~> Bill\nx, bill: ^ ~> Bill", "3:4: duplicate entry for 'bill'"),
    ],
    ids=["no-colon", "bad-name", "duplicate", "bad-headword", "duplicate-entry"],
)
def test_constant_line_errors(line, error):
    with pytest.raises(SyntaxErrorAt) as err:
        parse_lexicon(line)
    assert str(err.value) == error


def test_constant_keyword_is_followed_by_any_blank():
    """A tab after `constant` makes a constant line too; a headword named
    `constant` stays an entry."""
    lexicon = parse_lexicon("constant\tBill : e\nconstant: ^ ~> Bill\n constant \t Hillary :e")
    assert lexicon.signature == {"Bill": E, "Hillary": E}
    assert list(lexicon) == ["constant"]


@pytest.mark.parametrize(
    "text,error",
    [
        ("constant Bill : e\nbill: ^ ~> Bill Bill", "2:17: unexpected 'Bill' after template"),
        ("constant Bill : e t", "1:19: trailing input after type"),
    ],
    ids=["template", "constant-type"],
)
def test_trailing_input_is_reported_where_it_starts(text, error):
    with pytest.raises(SyntaxErrorAt) as err:
        parse_lexicon(text)
    assert str(err.value) == error


def test_duplicate_entry_rejected():
    with pytest.raises(SyntaxErrorAt):
        parse_lexicon("constant Bill : e\nbill: ^ ~> Bill\nbill: ^ ~> Bill")


def test_formula_formatting_round_trips_shape(lexicon, bah):
    text = str(instantiate(lexicon["appointed"], bah))
    assert text == "forall X:e, Y:e. (g_σ ~>_e X * h_σ ~>_e Y) -o f_σ ~>_t appoint(X, Y)"


# --- one parse per template shape --------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_CONSTANT = re.compile(r"\s*constant\s+(\w+)")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


TEXT_CLASS_MATES = """\
constant Bill : e
constant Sue : e
constant sleep : e -> t
constant tall : e -> t
constant tall_2 : e -> t
constant likes : (e -> t) -> t
constant maybe : t -> t
constant never : t -> t
spaced: ^ ~> likes(\\x. sleep(x))
spaced-too: ^ ~> likes(\\x. tall(x))
unspaced: ^~>likes(\\x.sleep(x))
unspaced-too: ^~>likes(\\x.tall(x))
glued: forall H, P:t. H~>_t P -oH~>_t maybe(P)
glued-too: forall H, P:t. H~>_t P -oH~>_t never(P)
glued-type: ^~>_t sleep(Sue)
glued-type-too: ^~>_t tall(Bill)
digits: ^ ~> likes(\\x_1. tall_2(x_1))
digits-too: ^ ~> likes(\\x_1. sleep(x_1))
lambda: ^ ~> likes(\\λ. sleep(λ))
lambda-too: ^ ~> likes(\\λ. tall(λ))
"""


def lexicon_text(workloads, sources) -> str:
    """A `corpus` lexicon at a seed, `TEXT_CLASS_MATES`, or fixture files
    joined."""
    if sources[0] == "corpus":
        return workloads.corpus(sources[1]).lexicon_text
    if sources[0] == "class-mates":
        return TEXT_CLASS_MATES
    return "".join((FIXTURES / name).read_text(encoding="utf-8") for name in sources)


@pytest.mark.parametrize(
    "sources",
    [
        ("corpus", 1), ("corpus", 2), ("corpus", 3), ("core.lex",),
        ("core.lex", "same_shape.lex"), ("class-mates",),
    ],
    ids=["corpus-1", "corpus-2", "corpus-3", "core", "core+same_shape", "class-mates"],
)
def test_each_template_parses_as_it_does_alone(workloads, sources):
    """Every template of a lexicon reads the same, binder hints included
    (`Lam` equality ignores them, `repr` does not), as in a lexicon of that
    line and the constants it names, where no other template shares its
    shape."""
    text = lexicon_text(workloads, sources)
    lexicon = parse_lexicon(text)
    constants = {}
    entries = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        if match := _CONSTANT.match(line):
            constants[match[1]] = line
        elif line.strip():
            entries.append(line)
    assert len(entries) > 10
    for line in entries:
        head, template = line.split(":", 1)
        names = dict.fromkeys(n for n in tokenize(template).texts if n in constants)
        alone = parse_lexicon("\n".join([*(constants[n] for n in names), line]))
        for word in head.split(","):
            key = word.strip().casefold()
            assert repr(lexicon[key].template) == repr(alone[key].template), line


@pytest.mark.parametrize(
    "text,error",
    [
        (
            "constant Bill : e\nconstant sleep : e -> t\n"
            "sleeps: ^ ~> sleep(Bill)\n  snores: ^ ~> sleep(Nobody)\n",
            "UnboundVariableError: unknown name 'Nobody' at line 4, column 22",
        ),
        (
            "constant Bill : e\nconstant sleep : e -> t\nconstant surely : t -> t\n"
            "sleeps: ^ ~> sleep(Bill)\nsnores: ^ ~> sleep(surely)\n",
            "TermTypeError: ill-typed application at line 5, column 19: type mismatch: e vs t -> t",
        ),
        (
            "constant Bill : e\nconstant Sue : e\nbill: ^ ~> Bill\nsue, bill: ^ ~> Sue\n",
            "SyntaxErrorAt: in.lex:4:6: duplicate entry for 'bill'",
        ),
        (
            "constant Bill : e\nconstant likes : (e -> t) -> t\nconstant sleep : e -> t\n"
            "a: ^ ~> likes(\\x. sleep(x))\nb: ^ ~> likes(\\y. sleep(x))\n",
            "UnboundVariableError: unknown name 'x' at line 5, column 25",
        ),
        (
            "constant Bill : e\nconstant Sue : e ->\nconstant Ann : e ->\n",
            "SyntaxErrorAt: in.lex:2:20: expected a type, found end of input",
        ),
        (
            "constant Bill : e\nconstant Sue : e\nbill: ^ ~> Bill\nsue: ^ ~> ²Bill\n",
            "SyntaxErrorAt: in.lex:4:11: unexpected character '²'",
        ),
        (
            "constant Bill : e\nconstant sleep : e -> t\n"
            "sleeps: forall X:e. (^ SUBJ) ~> X -o ^ ~> sleep(X)\n"
            "snores: forall X:e. (^ SUBJ) ~> X - ^ ~> sleep(X)\n",
            "SyntaxErrorAt: in.lex:4:35: unexpected character '-'",
        ),
        (
            "constant Bill : e\nconstant surely : t -> t\n"
            "glued: forall H, P:t. H ~>_t P -oH ~>_t surely(P)\n"
            "glued2: forall H, P:t. H ~>_t P -osurely(P)\n",
            "SyntaxErrorAt: in.lex:4:35: unbound structure variable 'surely'",
        ),
    ],
    ids=[
        "undeclared-constant", "ill-typed", "duplicate-entry", "unbound-variable",
        "constant-type", "numeric-word", "lone-minus", "glued-implication",
    ],
)
def test_a_template_after_a_parsed_class_mate_fails_at_its_own_place(text, error):
    """The error of a template whose near twin parsed earlier, and of a
    constant type whose text failed nowhere before, names its own line and
    column."""
    with pytest.raises(Exception) as err:
        parse_lexicon(text, "in.lex")
    assert f"{type(err.value).__name__}: {err.value}" == error


def test_the_corpus_lexicon_parses_each_template_shape_once(workloads, monkeypatch):
    """The seed-1 `corpus` lexicon's 2354 templates fall into 12 shapes, and
    its 1957 constants have 6 type texts: the parsers run once per shape and
    once per type text (plus the binder types of those 12 parses), and only
    those 18 texts are tokenized."""
    counts = {"templates": 0, "types": 0, "tokenize": 0}

    class CountingParser(lexicon_module._TemplateParser):
        def __init__(self, *args):
            counts["templates"] += 1
            super().__init__(*args)

    def counting_parse_type_at(*args):
        counts["types"] += 1
        return parse_type_at(*args)

    def counting_tokenize(*args):
        counts["tokenize"] += 1
        return tokenize(*args)

    monkeypatch.setattr(lexicon_module, "_TemplateParser", CountingParser)
    monkeypatch.setattr(lexicon_module, "parse_type_at", counting_parse_type_at)
    monkeypatch.setattr(lexicon_module, "tokenize", counting_tokenize)
    lexicon = parse_lexicon(workloads.corpus(1).lexicon_text)
    assert len({id(entry) for entry in lexicon.values()}) == 2354
    assert len(lexicon.signature) == 1957
    assert counts == {"templates": 12, "types": 41, "tokenize": 18}


def test_class_mates_are_read_off_the_text(monkeypatch):
    """The templates of `TEXT_CLASS_MATES` come in pairs that differ only in
    a constant of one type, with `-o` and `~>_t` glued to names and with
    identifiers of digits, `_` or non-ASCII letters: each pair is one shape,
    parsed once, but the two spaced and unspaced pairs are four shapes."""
    parsed = []

    class CountingParser(lexicon_module._TemplateParser):
        def __init__(self, *args):
            parsed.append(args[0].texts)
            super().__init__(*args)

    monkeypatch.setattr(lexicon_module, "_TemplateParser", CountingParser)
    assert len(parse_lexicon(TEXT_CLASS_MATES)) == 12
    assert len(parsed) == 6


TEXT_SHADOWED = """\
constant Bill : e
constant Sue : e
constant Ann : e
constant sleep : e -> t
constant tall : e -> t
constant old : e -> t
constant likes : (e -> t) -> t
shadowed: ^ ~> likes(\\Bill. sleep(Bill))
shadowed-sue: ^ ~> likes(\\Sue. sleep(Sue))
shadowed-ann: ^ ~> likes(\\Ann. sleep(Ann))
sleeper: ^ ~> likes(\\x. sleep(x))
tall-one: ^ ~> likes(\\x. tall(x))
old-one: ^ ~> likes(\\x. old(x))
"""


def test_a_shape_whose_first_template_binds_a_constant_name_is_parsed_in_full(monkeypatch):
    """The first `shadowed` template reads the constant-named `Bill` as a
    binder, so its class-mates cannot be built by renaming it: all three are
    parsed, while the three `sleeper` class-mates are parsed once."""
    parsed = []

    class CountingParser(lexicon_module._TemplateParser):
        def __init__(self, *args):
            parsed.append(args[0].texts[5])  # the binder after `likes(\`
            super().__init__(*args)

    monkeypatch.setattr(lexicon_module, "_TemplateParser", CountingParser)
    lexicon = parse_lexicon(TEXT_SHADOWED)
    assert parsed == ["Bill", "Sue", "Ann", "x"]
    assert str(lexicon["shadowed-ann"].template) == r"^ ~>_t likes(\Ann. sleep(Ann))"
    assert str(lexicon["old-one"].template) == r"^ ~>_t likes(\x. old(x))"


@pytest.mark.parametrize(
    "template,error",
    [
        ("'f' ~> Bill", "q.lex:3:4: expected a structure expression, found 'f'"),
        ("forall X:e. (^ 'SUBJ') ~> X -o ^ ~> sleep(X)", "q.lex:3:19: expected ')', found 'SUBJ'"),
        ("forall 'X':e. ^ ~> sleep(Bill)", "q.lex:3:11: expected a quantifier variable, found 'X'"),
        ("forall 'H'. H ~> Bill", "q.lex:3:11: expected a quantifier variable, found 'H'"),
        ("^ ~>_'e' Bill", "q.lex:3:9: expected a type, found 'e'"),
        ("forall X:'e'. ^ ~> sleep(X)", "q.lex:3:13: expected a type, found 'e'"),
        ("^ ~> 'Bill'", "q.lex:3:9: expected a term, found 'Bill'"),
        ("^ ~> sleep('Bill')", "q.lex:3:15: expected a term, found 'Bill'"),
    ],
    ids=[
        "structure-expression", "path-attribute", "meaning-binder", "structure-binder",
        "type-index", "binder-type", "meaning", "argument",
    ],
)
def test_no_template_position_takes_a_quoted_symbol(template, error):
    """So a template that parses has no quoted token, and its identifier
    tokens are exactly the words its shape is read from."""
    with pytest.raises(SyntaxErrorAt) as err:
        parse_lexicon(f"constant Bill : e\nconstant sleep : e -> t\nw: {template}", "q.lex")
    assert str(err.value) == error


@pytest.mark.parametrize(
    "sources",
    [("corpus", 1), ("corpus", 2), ("corpus", 3), ("core.lex", "same_shape.lex")],
    ids=["corpus-1", "corpus-2", "corpus-3", "core+same_shape"],
)
def test_a_templates_words_are_its_identifier_tokens(workloads, sources):
    """The shape split (`_SPLIT`, built on the tokenizer's own identifier
    pattern) finds the words that `tokenize` reads as identifiers."""
    text = lexicon_text(workloads, sources)
    templates = [
        line.split(":", 1)[1]
        for raw_line in text.splitlines()
        if (line := raw_line.split("#", 1)[0]).strip() and not _CONSTANT.match(line)
    ]
    assert len(templates) > 10
    for template in templates:
        ts = tokenize(template)
        identifiers = [token for kind, token in zip(ts.kinds, ts.texts) if kind == "IDENT"]
        assert lexicon_module._SPLIT.split(template)[1::2] == identifiers, template
