"""Meaning-language tests: typing, normalization, equivalence, and agreement
with the naive named-variable oracle on random well-typed terms."""

from __future__ import annotations

import ast
import copy
import inspect
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gluesem.cli import RunConfig
from gluesem.diagnostics import Demand, Diagnosis, Leftover
from gluesem.errors import GlueError, SyntaxErrorAt, TermTypeError, UnboundVariableError
from gluesem.formulas import (
    Atom,
    Compiled,
    Forall,
    Limp,
    MeaningVar,
    PathRef,
    SemVar,
    Tensor,
    compile_formula,
    format_formula,
)
from gluesem.fstruct import SemStructure
from gluesem.lexicon import LexicalEntry, Premise
from gluesem.node import Node
from gluesem.prover import Goal, Reading, TraceStep
from gluesem.semtypes import ArrowType, BaseType, E, T, arrow, parse_type
from gluesem import terms
from gluesem.terms import App, BoundVar, Const, HypConst, Lam, Var, apply
from gluesem.termsyntax import _TypeMeta, parse_term

from oracles import (
    NConst,
    NLam,
    n_subst,
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


# A binder whose hint is a name the printer meets only after the binder: in
# its own body, after the abstraction in a later argument, and with the
# first fresh name taken as well.
MET_AFTER_BINDER = [
    (
        Lam(E, apply(Const("f", arrow(E, E, T)), BoundVar(0), Const("x", E)), "x"),
        "\\x1. f(x1, x)",
    ),
    (
        apply(
            Const("g", arrow(ArrowType(E, T), E, T)),
            Lam(E, App(Const("f", ArrowType(E, T)), BoundVar(0)), "x"),
            Const("x", E),
        ),
        "g(\\x1. f(x1), x)",
    ),
    (
        Lam(E, apply(Const("f", arrow(E, E, E, T)), BoundVar(0), Const("x", E), Var("x1", E)), "x"),
        "\\x2. f(x2, x, x1)",
    ),
]


@pytest.mark.parametrize("term, text", MET_AFTER_BINDER, ids=["in-body", "later-argument", "hint1-taken"])
def test_format_binder_avoids_a_name_met_after_it(term, text):
    assert terms.format_term(term) == text


_P, _G = Const("p", arrow(E, T)), Const("g", arrow(E, E, T))

# A binder keeps its type annotation unless its variable occurs as an
# argument of an application headed by a name, even if it also occurs
# elsewhere; an index with no binder in the term prints as `#index`.
PRINTER_CORNERS = [
    (App(Lam(E, App(_P, BoundVar(0)), "x"), Const("a", E)), "(\\x. p(x))(a)"),
    (Lam(E, BoundVar(0), "x"), "\\x:e. x"),
    (Lam(arrow(E, T), App(BoundVar(0), Const("a", E)), "P"), "\\P:e -> t. P(a)"),
    (
        Lam(E, Lam(arrow(E, T), App(BoundVar(0), BoundVar(1)), "P"), "x"),
        "\\x:e. \\P:e -> t. P(x)",
    ),
    (Lam(E, App(Lam(E, App(_P, BoundVar(0)), "y"), BoundVar(0)), "x"), "\\x:e. (\\y. p(y))(x)"),
    (
        Lam(E, Lam(arrow(E, T), App(_P, App(BoundVar(0), BoundVar(1))), "P"), "x"),
        "\\x:e. \\P:e -> t. p(P(x))",
    ),
    (
        Lam(E, Lam(arrow(E, T), apply(_G, BoundVar(1), App(BoundVar(0), BoundVar(1))), "P"), "x"),
        "\\x. \\P:e -> t. g(x, P(x))",
    ),
    (App(_P, BoundVar(0)), "p(#0)"),
    (Lam(E, apply(_G, BoundVar(0), BoundVar(2)), "x"), "\\x. g(x, #2)"),
]


@pytest.mark.parametrize(
    "term, text",
    PRINTER_CORNERS,
    ids=[
        "abstraction-head", "bare", "head-only", "bound-headed-argument",
        "abstraction-headed-argument", "under-bound-head", "named-and-bound-headed-argument",
        "dangling", "dangling-under-binder",
    ],
)
def test_format_annotations_and_dangling_indices(term, text):
    assert terms.format_term(term) == text


@pytest.mark.parametrize(
    "structure, ty, text",
    [
        (SemStructure("f"), arrow(E, T), "f_σ ~>_(e -> t) \\x. p(x)"),
        (SemStructure("f"), arrow(arrow(E, T), T), "f_σ ~>_((e -> t) -> t) \\x. p(x)"),
        (SemVar("H"), E, "H ~>_e \\x. p(x)"),
        (PathRef("up"), T, "^ ~>_t \\x. p(x)"),
        (PathRef("up", ("SUBJ", "OBJ")), T, "(^ SUBJ OBJ) ~>_t \\x. p(x)"),
        (PathRef("mod"), T, "(mod ^) ~>_t \\x. p(x)"),
    ],
)
def test_format_formula_prints_an_atoms_structure_and_index(structure, ty, text):
    # The index and structure are printed whatever the meaning's type.
    atom = Atom(structure, ty, Lam(E, App(_P, BoundVar(0)), "x"))
    assert format_formula(atom) == str(atom) == text


@pytest.mark.parametrize("first", ["x", "y"])
def test_format_memo_keeps_each_terms_own_binder_hints(first):
    # The two terms are equal (hints are left out of `Lam` equality), so a
    # memo keyed by value would print the second with the first's hint.
    second = "y" if first == "x" else "x"
    ts = {h: p(f"\\{h}. appoint({h}, Hillary)") for h in (first, second)}
    assert ts[first] == ts[second]
    for hint in (first, second):
        assert terms.format_term(ts[hint]) == f"\\{hint}. appoint({hint}, Hillary)"


def _memo_probe(i):
    # A term of several nodes whose text is its own, freed once dropped.
    name = Const(f"c{i}", E)
    return Lam(E, apply(Const("appoint", arrow(E, E, T)), BoundVar(0), name), "x")


def test_format_memo_never_serves_a_dead_terms_text():
    # Each term is dropped after printing, so CPython hands its memory (and
    # its id) to a later term; a memo keyed by id alone would print that
    # term with the dead one's text.
    for i in range(4 * terms._FORMATTED_BOUND):
        term = _memo_probe(i)
        assert terms.format_term(term) == f"\\x. appoint(x, c{i})"
        del term


def test_format_memo_stays_within_its_bound():
    kept = []
    for i in range(3 * terms._FORMATTED_BOUND + 7):
        kept.append(_memo_probe(i))
        terms.format_term(kept[-1])
        assert len(terms._FORMATTED) <= terms._FORMATTED_BOUND
    # Printing a term again is answered by the memo and adds no entry.
    size = len(terms._FORMATTED)
    assert terms.format_term(kept[-1]) == f"\\x. appoint(x, c{len(kept) - 1})"
    assert len(terms._FORMATTED) == size


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


def test_free_vars_and_hyp_consts_walk_deeper_than_the_stack():
    f = Const("f", arrow(E, E))
    x, h = Var("x", E), HypConst("h", E, 1)
    chain = App(Const("g", arrow(E, E, E)), x)
    for _ in range(3000):
        chain = App(f, chain)
    chain = App(chain, h)
    assert terms.free_vars(chain) == {x}
    assert terms.hyp_consts(chain) == {h}


def test_leaf_tests_agree_with_the_leaf_sets():
    x, h = Var("x", E), HypConst("h", E, 1)
    r2 = Const("r2", arrow(E, E, T))
    for term in (apply(r2, x, h), Lam(E, apply(r2, BoundVar(0), h)), apply(r2, x, x)):
        assert terms.has_leaf(term, Var) == bool(terms.free_vars(term))
        assert terms.has_leaf(term, HypConst) == bool(terms.hyp_consts(term))
        assert terms.occurs(h, term) == (h in terms.hyp_consts(term))
    assert not terms.occurs(HypConst("h", E, 2), apply(r2, x, h))


# --- sharing, binder hints and typing errors -------------------------------


def hinted(term):
    """`term` as nested plain tuples, binder hints included: `Lam` equality
    leaves hints out, so comparing these is what shows a lost hint."""
    if isinstance(term, (App, Lam)):
        return tuple(hinted(item) for item in term)
    return term


def oracle_hints(term):
    """`hinted`, with the oracle's capture-avoiding renaming (`v3_17` for
    `v3`) undone, since the de Bruijn side never has to rename."""
    if isinstance(term, tuple) and term and term[0] == "Lam":
        return ("Lam", term[1], oracle_hints(term[2]), term[3].partition("_")[0])
    if isinstance(term, tuple) and term and term[0] == "App":
        return ("App", oracle_hints(term[1]), oracle_hints(term[2]))
    return term


def test_substitute_returns_a_term_without_mapped_variables_as_it_is():
    term = p("every(person, \\u. a(manager, \\v. appoint(u, v)))")
    assert terms.substitute(term, {Var("X", E): Const("Bill", E)}) is term
    x, y = Var("X", E), Var("Y", E)
    appoint = Const("appoint", arrow(E, E, T))
    inner = apply(appoint, y, BoundVar(0))
    outer = App(App(Const("a", arrow(arrow(E, T), arrow(E, T), T)), Lam(E, inner, "w")), x)
    out = terms.substitute(outer, {x: Const("Bill", E)})
    # Only the spine down to X is rebuilt; the untouched operand is shared.
    assert out.fun is outer.fun
    assert out.arg == Const("Bill", E)


def test_normalize_returns_a_normal_term_as_it_is():
    rng = random.Random(1313)
    for _ in range(200):
        named = random_named_term(rng, rng.choice([E, T, ArrowType(E, T)]))
        normal = named_to_core(oracle_beta_normal(named))
        assert terms.normalize(normal) is normal


def test_normalize_keeps_binder_hints():
    term = App(
        p("\\P. every(person, \\u. P(u))"),
        p("\\v. a(manager, \\w. appoint(v, w))"),
    )
    normal = terms.normalize(term)
    assert hinted(normal) == hinted(p("every(person, \\u. a(manager, \\w. appoint(u, w)))"))
    assert terms.format_term(normal) == "every(person, \\u. a(manager, \\w. appoint(u, w)))"
    rng = random.Random(4711)
    for _ in range(300):
        named = random_named_term(rng, rng.choice([E, T, ArrowType(E, T)]))
        expected = oracle_hints(hinted(named_to_core(oracle_beta_normal(named))))
        assert hinted(terms.normalize(named_to_core(named))) == expected


def test_substitute_and_abstract_over_keep_binder_hints():
    rng = random.Random(2718)
    x = Var("X", E)
    named_x = (("X", E),)
    for _ in range(300):
        named = random_named_term(rng, rng.choice([E, T, ArrowType(E, T)]), env=named_x)
        core = named_to_core(named)
        substituted = terms.substitute(core, {x: Const("a0", E)})
        expected = named_to_core(n_subst(named, "X", NConst("a0", E)))
        assert hinted(substituted) == oracle_hints(hinted(expected))
        abstracted = terms.abstract_over(core, x)
        assert hinted(abstracted) == hinted(named_to_core(NLam("X", E, named)))


def test_substitute_normal_is_normalize_after_substitute():
    # Normal templates over first- and higher-order variables, filled with
    # closed normal values: the hereditary substitution reaches the same
    # normal form, hints included.
    rng = random.Random(9001)
    env = (("X", E), ("F", ArrowType(E, T)), ("G", ArrowType(T, T)), ("H", arrow(E, E, T)))
    for _ in range(1000):
        template = terms.normalize(
            named_to_core(random_named_term(rng, rng.choice([E, T, ArrowType(E, T)]), env=env))
        )
        mapping = {
            Var(name, ty): terms.normalize(named_to_core(random_named_term(rng, ty)))
            for name, ty in env
        }
        expected = terms.normalize(terms.substitute(template, mapping))
        assert hinted(terms.substitute_normal(template, mapping)) == hinted(expected)


@pytest.mark.parametrize(
    "term,error,message",
    [
        (App(Const("Bill", E), Const("Hillary", E)), TermTypeError, "cannot apply a term of type e"),
        (
            App(Const("person", arrow(E, T)), Const("rain", T)),
            TermTypeError,
            "argument type t does not match expected e",
        ),
        (Lam(E, BoundVar(1)), UnboundVariableError, "dangling bound variable #1"),
        (App(Const("person", arrow(E, T)), E), TermTypeError, "not a meaning term: BaseType(name='e')"),
    ],
    ids=["non-function", "argument-mismatch", "dangling-index", "non-term"],
)
def test_typecheck_failures_keep_their_class_and_message(term, error, message):
    with pytest.raises(GlueError) as err:
        terms.typecheck(term)
    assert type(err.value) is error
    assert str(err.value) == message


# --- the node representation -----------------------------------------------

NODES = [
    Const("Bill", E),
    HypConst("x", E, 3),
    Var("P", arrow(E, T)),
    BoundVar(0),
    App(Const("f", arrow(E, T)), Const("Bill", E)),
    Lam(E, BoundVar(0), "y"),
    E,
    arrow(E, T),
]

_F = SemStructure("f")
_ATOM = Atom(_F, E, Const("Bill", E))
_STEP = TraceStep("apply", 1, "bill", _ATOM, (("X", Const("Bill", E)), ("H", _F)))
_READING = Reading(Const("Bill", E), E, ((_STEP,),))
_DIAGNOSIS = Diagnosis(
    "incomplete+incoherent", (Demand("g", "e", ("loves[1]",)),), (Leftover(2, "Bill"),), note="n"
)

# Every other immutable record is a node too: one instance of each class.
NODES += [
    RunConfig("f.fs", "core.lex", goal=("g", "e"), json_output=True),
    Demand("g", "e", ("loves[1]",)),
    Leftover(2, "Bill"),
    _DIAGNOSIS,
    SemVar("H"),
    PathRef("up", ("SUBJ",)),
    MeaningVar("X", E),
    _ATOM,
    Tensor(_ATOM, _ATOM),
    Limp(_ATOM, _ATOM),
    Forall(SemVar("H"), Atom(SemVar("H"), E, Const("Bill", E))),
    _F,
    LexicalEntry("bill", Atom(PathRef("up"), E, Const("Bill", E))),
    compile_formula(Atom(PathRef("up"), E, Const("Bill", E)), template=True),
    Premise(1, _ATOM, "bill", "f"),
    Goal(_F, E),
    _STEP,
    _READING,
    _TypeMeta(0),
]


def test_nodes_of_different_classes_with_equal_fields_are_unequal():
    assert Const("a", E) != Var("a", E)
    assert not Const("a", E) == Var("a", E)
    assert HypConst("x", E, 1) != HypConst("x", E, 2)
    assert Var("a", E) == Var("a", E) and hash(Var("a", E)) == hash(Var("a", E))


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_cannot_be_assigned_to(node):
    with pytest.raises(AttributeError):
        setattr(node, node.__match_args__[0], None)
    with pytest.raises(AttributeError):
        node.extra = None


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_have_no_order(node):
    for compare in (
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
    ):
        with pytest.raises(TypeError):
            compare(node, node)


def test_match_captures_fields_by_position_and_by_keyword():
    f, bill = Const("f", arrow(E, T)), Const("Bill", E)
    lam = Lam(E, BoundVar(0), "y")
    for node, expected in [
        (bill, ("Bill", E)),
        (HypConst("x", E, 3), ("x", E, 3)),
        (Var("P", E), ("P", E)),
        (BoundVar(2), (2,)),
        (App(f, bill), (f, bill)),
        (lam, (E, BoundVar(0), "y")),
        (E, ("e",)),
        (arrow(E, T), (E, T)),
    ]:
        match node:
            case Const(a, b) | Var(a, b) | App(a, b) | ArrowType(a, b):
                positional = (a, b)
            case HypConst(a, b, c) | Lam(a, b, c):
                positional = (a, b, c)
            case BoundVar(a) | BaseType(a):
                positional = (a,)
        assert positional == expected
        keywords = {name: getattr(node, name) for name in node.__match_args__}
        assert tuple(keywords.values()) == expected
    match App(f, lam):
        case App(fun=Const(name="f"), arg=Lam(var_type=ty, body=BoundVar(index=i), hint=h)):
            assert (ty, i, h) == (E, 0, "y")
        case _:
            pytest.fail("keyword patterns did not match")
    match HypConst("x", E, 3):
        case HypConst(stamp=s, name=n, ty=BaseType(name=b)):
            assert (s, n, b) == (3, "x", "e")
        case _:
            pytest.fail("keyword patterns did not match")


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_copy_and_pickle_through_their_fields(node):
    assert copy.deepcopy(node) == node and type(copy.copy(node)) is type(node)
    assert pickle.loads(pickle.dumps(node)) == node


def test_records_print_their_fields_by_name():
    assert repr(Premise(1, _ATOM, "bill", "f")) == (
        "Premise(index=1, formula=Atom(sem=SemStructure(label='f'), ty=BaseType(name='e'), "
        "meaning=Const(name='Bill', ty=BaseType(name='e'))), word='bill', label='f')"
    )
    assert repr(_STEP) == (
        "TraceStep(kind='apply', resource=1, word='bill', atom=Atom(sem=SemStructure(label='f'), "
        "ty=BaseType(name='e'), meaning=Const(name='Bill', ty=BaseType(name='e'))), "
        "bindings=(('X', Const(name='Bill', ty=BaseType(name='e'))), "
        "('H', SemStructure(label='f'))))"
    )
    assert repr(_DIAGNOSIS) == (
        "Diagnosis(status='incomplete+incoherent', unsatisfied_demands=(Demand(sem='g', "
        "ty='e', needed_by=('loves[1]',)),), leftover_resources=(Leftover(index=2, "
        "word='Bill'),), readings=(), note='n')"
    )


def test_a_node_class_must_declare_slots():
    with pytest.raises(TypeError, match="must declare __slots__"):

        class Loose(Node):
            __match_args__ = ("name",)


def test_a_node_class_may_not_write_its_own_constructor():
    with pytest.raises(TypeError, match="must not define __new__"):

        class Built(Node):
            __slots__ = ()
            __match_args__ = ("name",)

            def __new__(cls, name):
                return tuple.__new__(cls, ("Built", name))


def test_class_keyword_defaults_must_be_for_the_last_fields():
    with pytest.raises(TypeError, match="defaults must be for its last fields"):

        class Early(Node, name="a"):
            __slots__ = ()
            __match_args__ = ("name", "ty")


def _concrete_node_classes(cls=Node):
    """The package's record classes; classes that tests define are left out."""
    for sub in cls.__subclasses__():
        if "__match_args__" in sub.__dict__ and sub.__module__.startswith("gluesem."):
            yield sub
        yield from _concrete_node_classes(sub)


# Each record constructor as `inspect.signature` shows it, annotations left
# out: parameter names, kinds, order and defaults.
SIGNATURES = {
    RunConfig: "(fstructure_path, lexicon_path, goal=None, trace=False, all_traces=False, "
    "json_output=False)",
    Demand: "(sem, ty, needed_by=())",
    Diagnosis: "(status, unsatisfied_demands=(), leftover_resources=(), readings=(), note='')",
    Leftover: "(index, word)",
    Atom: "(sem, ty, meaning)",
    Forall: "(var, body)",
    Limp: "(antecedent, consequent)",
    MeaningVar: "(name, ty)",
    PathRef: "(anchor, path=())",
    SemVar: "(name)",
    Tensor: "(left, right)",
    SemStructure: "(label)",
    LexicalEntry: "(headword, template)",
    Compiled: "(slots, fault, atoms, binders, formula, claims, skeleton, rebinds)",
    Premise: "(index, formula, word, label)",
    Goal: "(sem, ty=BaseType(name='t'))",
    Reading: "(meaning, ty, traces)",
    TraceStep: "(kind, resource, word, atom=None, bindings=())",
    ArrowType: "(arg, result)",
    BaseType: "(name)",
    App: "(fun, arg)",
    BoundVar: "(index)",
    Const: "(name, ty)",
    HypConst: "(name, ty, stamp)",
    Lam: "(var_type, body, hint='x')",
    Var: "(name, ty)",
    _TypeMeta: "(ident)",
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_record_constructor_signatures_are_pinned(cls):
    signature = inspect.signature(cls)
    bare = signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty,
    )
    assert str(bare) == SIGNATURES[cls]


def test_every_record_class_is_under_the_node_tests():
    classes = set(_concrete_node_classes())
    assert classes == {type(node) for node in NODES} == SIGNATURES.keys()
    for node in NODES:
        assert node[0] == type(node).__name__


def test_record_constructors_reject_wrong_arity_and_unknown_keywords():
    f = Const("f", arrow(E, T))
    with pytest.raises(TypeError):
        App(f)
    with pytest.raises(TypeError):
        Goal()
    with pytest.raises(TypeError):
        Atom(SemStructure("f"), T, f, extra=1)
    with pytest.raises(TypeError):
        App(f, f, f)


def test_record_constructors_take_keywords_and_defaults():
    assert Lam(body=BoundVar(0), var_type=E) == Lam(E, BoundVar(0), "y")
    assert Lam(E, BoundVar(0)).hint == "x"
    assert Goal(SemStructure("f")).ty == T
    assert TraceStep("discharge", None, "").bindings == ()
    assert Diagnosis("ok", readings=(1,)) == ("Diagnosis", "ok", (), (), (1,), "")


def test_importing_the_package_does_not_import_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gluesem; "
        "assert gluesem.__file__.startswith(sys.path[0]), gluesem.__file__; "
        "print('dataclasses' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def test_importing_the_package_leaves_the_command_line_driver_unimported():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gluesem; "
        "assert gluesem.__file__.startswith(sys.path[0]), gluesem.__file__; "
        "print(sorted({'argparse', 'gluesem.cli'} & set(sys.modules))); "
        "from gluesem.cli import RunConfig, run; "
        "print(gluesem.run is run, gluesem.RunConfig is RunConfig, 'run' in gluesem.__all__)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\nTrue True True\n"


def test_the_package_holds_nothing_that_python_O_strips():
    # `python -O` drops `assert` statements and makes `__debug__` false; it
    # keeps docstrings. With neither in the package, the package runs the
    # same with and without -O, so the tests need no -O run of their own.
    package = Path(__file__).resolve().parents[1] / "src" / "gluesem"
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


def test_repr_of_a_nested_term_is_unchanged():
    term = Lam(
        E,
        App(
            App(Const("every", arrow(arrow(E, T), arrow(E, T), T)), Var("P", arrow(E, T))),
            Lam(E, App(HypConst("x", E, 3), BoundVar(0)), "y"),
        ),
        "z",
    )
    assert repr(term) == (
        "Lam(var_type=BaseType(name='e'), body=App(fun=App(fun=Const(name='every', "
        "ty=ArrowType(arg=ArrowType(arg=BaseType(name='e'), result=BaseType(name='t')), "
        "result=ArrowType(arg=ArrowType(arg=BaseType(name='e'), result=BaseType(name='t')), "
        "result=BaseType(name='t')))), arg=Var(name='P', ty=ArrowType(arg=BaseType(name='e'), "
        "result=BaseType(name='t')))), arg=Lam(var_type=BaseType(name='e'), "
        "body=App(fun=HypConst(name='x', ty=BaseType(name='e'), stamp=3), "
        "arg=BoundVar(index=0)), hint='y')), hint='z')"
    )
