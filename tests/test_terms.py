"""Meaning-language tests: typing, normalization, equivalence, and agreement
with the naive named-variable oracle on random well-typed terms."""

from __future__ import annotations

import random

import pytest

from gluesem.errors import SyntaxErrorAt, TermTypeError, UnboundVariableError
from gluesem.semtypes import ArrowType, E, T, arrow, parse_type
from gluesem import terms
from gluesem.terms import App, BoundVar, Const, Lam, Var, apply
from gluesem.termsyntax import parse_term

from oracles import (
    named_to_core,
    oracle_beta_normal,
    oracle_canonical,
    random_named_term,
)

SIG = {
    "Bill": E,
    "Hillary": E,
    "person": arrow(E, T),
    "candidate": arrow(E, T),
    "manager": arrow(E, T),
    "convince": arrow(E, E, T),
    "appoint": arrow(E, E, T),
    "every": arrow(arrow(E, T), arrow(E, T), T),
    "a": arrow(arrow(E, T), arrow(E, T), T),
    "f": arrow(E, T),
}


def p(text: str, env=None):
    return parse_term(text, SIG, env)


# --- types -----------------------------------------------------------------


def test_parse_type_right_associative():
    assert parse_type("e -> e -> t") == arrow(E, E, T)
    assert parse_type("(e -> t) -> t") == ArrowType(ArrowType(E, T), T)
    assert str(parse_type("(e -> t) -> e -> t")) == "(e -> t) -> e -> t"


@pytest.mark.parametrize(
    "text,error", [("e -> t t", "1:8: unexpected 't' in type"), ("e )", "1:3: unexpected ')' in type")]
)
def test_parse_type_rejects_trailing_input(text, error):
    with pytest.raises(SyntaxErrorAt) as err:
        parse_type(text)
    assert str(err.value) == error


# --- typecheck -------------------------------------------------------------


def test_typecheck_constant_reads_its_own_type():
    assert terms.typecheck(Const("Bill", E)) == E


def test_typecheck_quantified_meaning_is_a_proposition():
    term = p("every(person, \\z. convince(Bill, z))")
    assert terms.typecheck(term) == T


def test_typecheck_partial_application():
    # appoint : e -> e -> t, so appoint(Bill) : e -> t.
    term = p("appoint(Bill)")
    assert terms.typecheck(term) == ArrowType(E, T)


def test_typecheck_rejects_ill_typed_application():
    with pytest.raises(TermTypeError):
        terms.typecheck(App(Const("Bill", E), Const("Hillary", E)))


def test_typecheck_env_flags_unbound_variable():
    with pytest.raises(UnboundVariableError):
        terms.typecheck(Var("X", E), env={})


def test_typecheck_env_must_agree_with_carried_type():
    with pytest.raises(TermTypeError):
        terms.typecheck(Var("X", E), env={"X": T})


# --- normalize -------------------------------------------------------------


def test_normalize_single_beta_step():
    term = App(p("\\z. convince(Bill, z)"), Const("Hillary", E))
    assert terms.normalize(term) == p("convince(Bill, Hillary)")


def test_parser_accepts_applied_abstraction():
    term = p("(\\z. convince(Bill, z))(Hillary)")
    assert terms.normalize(term) == p("convince(Bill, Hillary)")


def test_normalize_keeps_abstraction_under_quantifier():
    # a(manager, \v. appoint(u, v)) is already a normal form.
    term = p("a(manager, \\v. appoint(u, v))", env={"u": E})
    assert terms.normalize(term) == term


def test_normalize_matches_oracle_on_random_terms():
    rng = random.Random(20240211)
    for _ in range(520):
        named = random_named_term(rng, rng.choice([E, T, ArrowType(E, T)]))
        core = named_to_core(named)
        assert terms.normalize(core) == named_to_core(oracle_beta_normal(named))
        assert terms.canonical_form(core) == named_to_core(oracle_canonical(named))


def test_normalize_idempotent_and_type_preserving():
    rng = random.Random(7)
    for _ in range(200):
        named = random_named_term(rng, rng.choice([E, T, ArrowType(E, E)]))
        core = named_to_core(named)
        once = terms.normalize(core)
        assert terms.normalize(once) == once
        assert terms.typecheck(once) == terms.typecheck(core)
        canon = terms.canonical_form(core)
        assert terms.canonical_form(canon) == canon
        assert terms.typecheck(canon) == terms.typecheck(core)


# --- equivalence -----------------------------------------------------------


def test_equivalent_eta():
    f = Const("f", ArrowType(E, T))
    eta_expanded = Lam(E, App(f, BoundVar(0)), "x")
    assert terms.equivalent(eta_expanded, f)


def test_equivalent_identical_conclusions():
    assert terms.equivalent(p("appoint(Bill, Hillary)"), p("appoint(Bill, Hillary)"))


def test_equivalent_distinguishes_scope_orders():
    wide = p("every(candidate, \\u. a(manager, \\v. appoint(u, v)))")
    narrow = p("a(manager, \\v. every(candidate, \\u. appoint(u, v)))")
    assert not terms.equivalent(wide, narrow)


def test_equivalent_requires_matching_types():
    with pytest.raises(TermTypeError):
        terms.equivalent(Const("Bill", E), p("appoint(Bill, Hillary)"))


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(99)
    ty = ArrowType(E, T)
    pool = [named_to_core(random_named_term(rng, ty, depth=4)) for _ in range(12)]
    for t1 in pool:
        assert terms.equivalent(t1, t1)
        for t2 in pool:
            assert terms.equivalent(t1, t2) == terms.equivalent(t2, t1)
    for t1 in pool:
        for t2 in pool:
            if not terms.equivalent(t1, t2):
                continue
            for t3 in pool:
                if terms.equivalent(t2, t3):
                    assert terms.equivalent(t1, t3)


# --- alpha handling and printing -------------------------------------------


def test_alpha_equivalence_is_structural():
    assert p("\\x. appoint(x, Hillary)") == p("\\y. appoint(y, Hillary)")


def test_binder_hints_do_not_affect_hashing():
    t1 = p("\\x. appoint(x, Hillary)")
    t2 = p("\\y. appoint(y, Hillary)")
    assert hash(t1) == hash(t2)


def test_format_round_trips_through_parser():
    source = "every(candidate, \\u. a(manager, \\v. appoint(u, v)))"
    term = p(source)
    assert terms.format_term(term) == source
    assert p(terms.format_term(term)) == term


def test_format_freshens_colliding_binder_names():
    inner = Lam(E, App(Const("f", ArrowType(E, T)), BoundVar(1)), "x")
    outer = Lam(E, App(App(Const("convince", arrow(E, E, T)), BoundVar(0)), BoundVar(0)), "x")
    # Two binders that both want to be called x must print distinctly.
    shadowing = Lam(E, Lam(E, App(App(Const("appoint", arrow(E, E, T)), BoundVar(1)), BoundVar(0)), "x"), "x")
    text = terms.format_term(shadowing)
    assert text == "\\x. \\x1. appoint(x, x1)"
    assert p(text) == shadowing
    del inner, outer


def test_parser_rejects_unknown_names():
    with pytest.raises(UnboundVariableError):
        p("appoint(Bill, nobody)")


def test_parser_infers_binder_types_from_use():
    term = p("\\u. a(manager, \\v. appoint(u, v))")
    assert terms.typecheck(term) == ArrowType(E, T)


def test_parser_accepts_explicit_annotations():
    term = p("\\x:e. x")
    assert terms.typecheck(term) == ArrowType(E, E)


def test_parser_needs_annotation_when_type_undetermined():
    with pytest.raises(TermTypeError) as err:
        p("\\x. x")
    assert str(err.value) == (
        "cannot infer the type of binder 'x' at line 1, column 2; annotate it"
    )


def test_parser_type_mismatch_prints_type_variables():
    with pytest.raises(TermTypeError) as err:
        parse_term("\\x. Bill(x)", {"Bill": E})
    assert str(err.value) == (
        "ill-typed application at line 1, column 9: type mismatch: e vs ?1 -> ?2"
    )


def test_substitute_reaches_under_a_binder_and_keeps_its_hint():
    x = Var("X", E)
    appoint = Const("appoint", arrow(E, E, T))
    lam = Lam(E, apply(appoint, x, BoundVar(0)), "v")
    out = terms.substitute(lam, {x: Const("Bill", E)})
    assert out == Lam(E, apply(appoint, Const("Bill", E), BoundVar(0)))
    assert out.hint == "v"


def test_apply_builds_curried_applications():
    assert apply(Const("appoint", arrow(E, E, T)), Const("Bill", E), Const("Hillary", E)) == p(
        "appoint(Bill, Hillary)"
    )
