"""Lexicon parsing, template instantiation, and premise collection."""

from __future__ import annotations

import pytest

from gluesem import prover
from gluesem.errors import (
    MissingEntryError,
    SyntaxErrorAt,
    UnboundVariableError,
    UninstantiableEntryError,
)
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, PathRef, SemVar, Tensor
from gluesem.fstruct import parse_fstructure, sigma
from gluesem.lexicon import Premise, instantiate, parse_lexicon, premises
from gluesem.semtypes import E, T, arrow
from gluesem.terms import Const, Var, apply


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
