"""Derivation engine: the golden sentences, the resource-usage table,
hypothetical reasoning, and the property suites (linearity, permutation and
currying invariance, oracle agreement)."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from gluesem import prover
from gluesem.errors import GlueError, NonPatternError, SearchBoundError
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, SemVar, Tensor
from gluesem.fstruct import SemStructure, parse_fstructure, sigma
from gluesem.lexicon import Premise, parse_lexicon, premises
from gluesem.prover import Goal, derive, entails, prop, unify
from gluesem.semtypes import E, T, arrow
from gluesem.terms import (
    App,
    Const,
    Var,
    apply,
    canonical_form,
    equivalent,
    format_term,
    free_vars,
    hyp_consts,
)

from conftest import FIXTURES
from oracles import enumerate_readings

CORE = (FIXTURES / "core.lex").read_text(encoding="utf-8")


def parse_core(extra: str = ""):
    return parse_lexicon(CORE + extra, source="core.lex")


def readings_of(fs, lexicon, ty=T, **kw):
    return derive(premises(fs, lexicon), Goal(sigma(fs), ty), **kw)


def meanings(readings):
    return {canonical_form(r.meaning) for r in readings}


def audit_linearity(reading, premise_indices):
    """Each premise consumed exactly once; each hypothesis assumed, consumed,
    and discharged exactly once."""
    for trace in reading.traces:
        consumed = [s.resource for s in trace if s.kind == "apply" and isinstance(s.resource, int)]
        assert sorted(consumed) == sorted(premise_indices)
        introduced = [s.resource for s in trace if s.kind in ("assume", "derive")]
        used = [s.resource for s in trace if s.kind == "apply" and isinstance(s.resource, str)]
        assert sorted(introduced) == sorted(used)
        assert len(set(introduced)) == len(introduced)
        discharged = [s for s in trace if s.kind == "discharge"]
        assumed = [s for s in trace if s.kind == "assume"]
        assert len(discharged) == len(assumed)


# --- paper goldens -----------------------------------------------------------


def test_transitive_golden_single_reading(lexicon, bah):
    rs = readings_of(bah, lexicon)
    assert len(rs) == 1
    assert rs[0].meaning == apply(Const("appoint", arrow(E, E, T)), Const("Bill", E), Const("Hillary", E))


def test_transitive_two_derivation_orders_collapse(lexicon, bah):
    rs = readings_of(bah, lexicon, all_traces=True)
    assert len(rs) == 1
    assert len(rs[0].traces) >= 2
    lines = ["\n".join(s.line() for s in t) for t in rs[0].traces]
    assert any(l.index("X ↦ Bill") < l.index("Y ↦ Hillary") for l in lines)
    assert any(l.index("Y ↦ Hillary") < l.index("X ↦ Bill") for l in lines)


def test_modifier_golden(lexicon, modified):
    rs = readings_of(modified, lexicon)
    assert [format_term(r.meaning) for r in rs] == ["obviously(appoint(Bill, Hillary))"]
    # Stopping before the modifier is consumed is not a reading.
    unmodified = parse_core()  # fresh parse, same content
    plain = apply(Const("appoint", arrow(E, E, T)), Const("Bill", E), Const("Hillary", E))
    assert not any(equivalent(r.meaning, plain) for r in rs)
    del unmodified


def test_quantifier_golden(lexicon, everyone_fs):
    rs = readings_of(everyone_fs, lexicon)
    assert len(rs) == 1
    sig = {"every": arrow(arrow(E, T), arrow(E, T), T), "person": arrow(E, T),
           "convince": arrow(E, E, T), "Bill": E}
    from gluesem.termsyntax import parse_term
    expected = parse_term("every(person, \\z. convince(Bill, z))", sig)
    assert equivalent(rs[0].meaning, expected)


def test_quantifier_trace_shows_scope_substitutions(lexicon, everyone_fs):
    rs = readings_of(everyone_fs, lexicon)
    text = "\n".join(s.line() for s in rs[0].trace)
    assert "H ↦ f_σ" in text
    assert "S ↦ \\z. convince(Bill, z)" in text
    assert "assume" in text and "discharge" in text


def test_scope_ambiguity_golden(lexicon, scope_fs):
    rs = readings_of(scope_fs, lexicon)
    assert [format_term(r.meaning) for r in rs] == [
        "a(manager, \\v. every(candidate, \\u. appoint(u, v)))",
        "every(candidate, \\u. a(manager, \\v. appoint(u, v)))",
    ]


def test_scope_ambiguity_no_third_reading_at_higher_bound(lexicon, scope_fs):
    rs = readings_of(scope_fs, lexicon, depth_bound=50)
    assert len(rs) == 2


def test_axiom_case(lexicon):
    sem = SemStructure("f")
    premise = Premise(1, Atom(sem, E, Const("Bill", E)), "bill", "f")
    rs = derive([premise], Goal(sem, E))
    assert [r.meaning for r in rs] == [Const("Bill", E)]


def test_goal_at_t_never_admits_type_e_meaning(lexicon):
    sem = SemStructure("f")
    premise = Premise(1, Atom(sem, E, Const("Bill", E)), "bill", "f")
    assert derive([premise], Goal(sem, T)) == ()


def test_identity_scope_rejected_by_typing(lexicon):
    # A quantifier alone cannot take its own referential import as scope.
    fs_text = "f:[PRED 'everyone']"
    from gluesem.fstruct import parse_fstructure
    fs = parse_fstructure(fs_text)
    rs = readings_of(fs, lexicon)
    assert rs == ()


def test_three_stacked_quantifiers_all_orders(lexicon, ditransitive_fs):
    rs = readings_of(ditransitive_fs, lexicon)
    assert len(rs) == 6  # 3! scope orders over the ditransitive


# --- resource usage table ----------------------------------------------------


def test_entailment_table():
    A, B = prop("A"), prop("B")
    a_imp_b = Limp(A, B)
    assert entails(Tensor(A, a_imp_b), B) is True
    assert entails(A, Tensor(A, A)) is False
    assert entails(Tensor(A, B), A) is False
    assert entails(Tensor(A, a_imp_b), Tensor(A, B)) is False
    assert entails(Tensor(A, a_imp_b), Tensor(a_imp_b, B)) is False
    C = prop("C")  # a tensor head yields both of its components
    assert entails(Tensor(A, Limp(A, Tensor(B, C))), Tensor(B, C)) is True
    assert entails(Tensor(A, Limp(A, Tensor(B, C))), B) is False


def test_entailment_identity():
    A = prop("A")
    assert entails(A, A) is True


def test_entailment_leftover_copy():
    A, B = prop("A"), prop("B")
    two_As = Tensor(A, Tensor(A, Limp(A, B)))
    assert entails(two_As, Tensor(A, B)) is True
    assert entails(two_As, B) is False


def test_entailment_nested_consequent():
    A, B = prop("A"), prop("B")
    assert entails(Limp(A, B), Limp(A, B)) is True
    assert entails(Tensor(A, Limp(A, Limp(A, B))), Limp(A, B)) is True


def test_tensor_head_splits_into_a_derived_resource():
    # The middle premise's head is a tensor: applying it yields `l` for the
    # focus at hand and leaves `r` over as the derived resource d1.
    a, l, r, f = (SemStructure(name) for name in "alrf")
    X, P, Q = Var("X", E), Var("P", E), Var("Q", E)
    lf, rf = Const("lf", arrow(E, E)), Const("rf", arrow(E, E))
    split = Forall(
        MeaningVar("X", E),
        Limp(Atom(a, E, X), Tensor(Atom(l, E, App(lf, X)), Atom(r, E, App(rf, X)))),
    )
    join = Forall(MeaningVar("P", E), Forall(MeaningVar("Q", E), Limp(
        Tensor(Atom(l, E, P), Atom(r, E, Q)),
        Atom(f, T, apply(Const("j", arrow(E, E, T)), P, Q)),
    )))
    (reading,) = derive([Atom(a, E, Const("c", E)), split, join], Goal(f))
    assert format_term(reading.meaning) == "j(lf(c), rf(c))"
    assert "derive [d1] p2: r_σ ~>_e rf(c)" in [s.line() for s in reading.trace]
    audit_linearity(reading, [1, 2, 3])


def test_head_variable_no_antecedent_binds_is_a_non_pattern_error():
    f = SemStructure("f")
    unbound = Forall(MeaningVar("X", E), Atom(f, T, App(Const("p", arrow(E, T)), Var("X", E))))
    with pytest.raises(NonPatternError, match="metavariable\\(s\\) X after"):
        derive([unbound], Goal(f))


# --- search properties -------------------------------------------------------


def _shuffled(premise_set, rng):
    ps = list(premise_set)
    rng.shuffle(ps)
    return [Premise(i + 1, p.formula, p.word, p.label) for i, p in enumerate(ps)]


def test_premise_permutation_invariance(lexicon, bah, modified, everyone_fs, scope_fs):
    rng = random.Random(424242)
    total = 0
    for fs in (bah, modified, everyone_fs, scope_fs):
        base = premises(fs, lexicon)
        expected = meanings(derive(base, Goal(sigma(fs))))
        for _ in range(30):
            shuffled = _shuffled(base, rng)
            assert meanings(derive(shuffled, Goal(sigma(fs)))) == expected
            total += 1
    assert total >= 100


def test_currying_invariance(bah, scope_fs):
    curried_subj_first = (
        "appointed, appoint: forall X:e. (^ SUBJ) ~> X -o"
        " (forall Y:e. (^ OBJ) ~> Y -o ^ ~> appoint(X, Y))"
    )
    curried_obj_first = (
        "appointed, appoint: forall Y:e. (^ OBJ) ~> Y -o"
        " (forall X:e. (^ SUBJ) ~> X -o ^ ~> appoint(X, Y))"
    )
    base_lex = parse_core()
    for fs in (bah, scope_fs):
        expected = meanings(readings_of(fs, base_lex))
        for variant in (curried_subj_first, curried_obj_first):
            lines = [
                line
                for line in CORE.splitlines()
                if not line.startswith("appointed, appoint:")
            ]
            lex = parse_lexicon("\n".join(lines) + "\n" + variant)
            assert meanings(readings_of(fs, lex)) == expected


def test_linearity_audit_on_all_goldens(lexicon, bah, modified, everyone_fs, scope_fs, ditransitive_fs):
    for fs in (bah, modified, everyone_fs, scope_fs, ditransitive_fs):
        ps = premises(fs, lexicon)
        for reading in derive(ps, Goal(sigma(fs)), all_traces=True):
            audit_linearity(reading, [p.index for p in ps])


def test_readings_typecheck_at_goal_type(lexicon, scope_fs, everyone_fs):
    from gluesem.terms import typecheck
    for fs in (scope_fs, everyone_fs):
        for reading in readings_of(fs, lexicon):
            assert typecheck(reading.meaning) == T


def test_readings_pairwise_non_equivalent(lexicon, ditransitive_fs):
    rs = readings_of(ditransitive_fs, lexicon)
    for r1, r2 in itertools.combinations(rs, 2):
        assert not equivalent(r1.meaning, r2.meaning)


def test_depth_bound_is_a_hard_error(lexicon, bah):
    with pytest.raises(SearchBoundError):
        readings_of(bah, lexicon, depth_bound=0)


def test_hypothesis_constants_cannot_escape_their_scope():
    # forall Y. (forall x. a~>x -o b~>Y) -o d~>r(Y), with a premise that maps
    # a~>Z to b~>Z. The only way to prove the nested antecedent binds Y to the
    # fresh hypothesis itself, which would leak it outside its subproof; the
    # branch must be abandoned, leaving no readings.
    from gluesem.formulas import Forall, MeaningVar

    a, b, d = SemStructure("a"), SemStructure("b"), SemStructure("d")
    r = Const("r", arrow(E, T))
    y, z, x = Var("Y", E), Var("Z", E), Var("x", E)
    quantified = Forall(
        MeaningVar("Y", E),
        Limp(
            Forall(MeaningVar("x", E), Limp(Atom(a, E, x), Atom(b, E, y))),
            Atom(d, T, apply(r, y)),
        ),
    )
    mapper = Forall(MeaningVar("Z", E), Limp(Atom(a, E, z), Atom(b, E, z)))
    ps = [Premise(1, quantified, "quant", ""), Premise(2, mapper, "map", "")]
    assert derive(ps, Goal(d, T)) == ()


def test_open_premises_are_rejected():
    from gluesem.errors import GlueError

    sem = SemStructure("f")
    open_premise = Premise(1, Atom(sem, E, Var("X", E)), "bad", "f")
    with pytest.raises(GlueError):
        derive([open_premise], Goal(sem, E))


def test_is_closed_sees_free_structure_and_meaning_variables():
    f = SemStructure("f")
    H, X = SemVar("H"), Var("X", E)
    assert not Atom(H, E, Const("c", E)).is_closed()
    assert not Atom(f, E, X).is_closed()
    assert Forall(H, Atom(H, E, Const("c", E))).is_closed()
    assert Forall(MeaningVar("X", E), Atom(f, E, X)).is_closed()


def test_substitute_meanings_crosses_tensors_and_respects_rebinding():
    f, H = SemStructure("f"), SemVar("H")
    X, Y, bill = Var("X", E), Var("Y", E), Const("Bill", E)
    pair = Tensor(Atom(f, E, X), Atom(f, E, Y))
    assert pair.substitute_meanings({X: bill}) == Tensor(Atom(f, E, bill), Atom(f, E, Y))
    rebound = Forall(MeaningVar("X", E), Atom(f, E, X))
    assert rebound.substitute_meanings({X: bill}) is rebound
    assert Forall(MeaningVar("X", E), pair).substitute_meanings({X: bill, Y: bill}) == Forall(
        MeaningVar("X", E), Tensor(Atom(f, E, X), Atom(f, E, bill))
    )
    assert Forall(H, Forall(MeaningVar("Y", E), pair)).substitute_meanings({X: bill}) == Forall(
        H, Forall(MeaningVar("Y", E), Tensor(Atom(f, E, bill), Atom(f, E, Y)))
    )


def test_derive_is_deterministic(lexicon, scope_fs):
    first = readings_of(scope_fs, lexicon, all_traces=True)
    second = readings_of(scope_fs, lexicon, all_traces=True)
    assert [r.meaning for r in first] == [r.meaning for r in second]
    assert [r.traces for r in first] == [r.traces for r in second]


# --- oracle agreement --------------------------------------------------------


def oracle_meanings(premise_set, goal):
    formulas = tuple(p.formula for p in premise_set)
    universe = sorted(
        {
            a.sem
            for p in premise_set
            for a in p.formula.atoms()
            if isinstance(a.sem, SemStructure)
        }
        | {goal.sem},
        key=lambda s: s.label,
    )
    return enumerate_readings(formulas, goal.sem, goal.ty, universe)


def test_oracle_agreement_on_golden_premise_subsets(lexicon, bah, modified, everyone_fs, scope_fs):
    for fs in (bah, modified, everyone_fs, scope_fs):
        ps = list(premises(fs, lexicon))
        goal = Goal(sigma(fs))
        for r in range(1, len(ps) + 1):
            for chosen in itertools.combinations(ps, r):
                subset = [Premise(i + 1, p.formula, p.word, p.label) for i, p in enumerate(chosen)]
                mine = meanings(derive(subset, goal))
                assert mine == oracle_meanings(subset, goal), (
                    f"disagreement on {[p.word for p in subset]}"
                )


def _random_premise_set(rng: random.Random):
    sems = [SemStructure(f"s{i}") for i in range(4)]
    root = sems[0]
    consts = {"c1": Const("c1", E), "c2": Const("c2", E)}
    fns = {
        "p": Const("p", arrow(E, T)),
        "q": Const("q", arrow(E, T)),
        "join": Const("join", arrow(E, E, T)),
        "lift": Const("lift", arrow(T, T)),
        "quant": Const("quant", arrow(arrow(E, T), T)),
    }
    out = []
    n = rng.randint(2, 6)
    for i in range(n):
        kind = rng.choice(["atom", "imp1", "imp2", "mod", "quantifier"])
        if kind == "atom":
            out.append(Atom(rng.choice(sems[1:]), E, rng.choice(list(consts.values()))))
        elif kind == "imp1":
            x = Var("X", E)
            src = rng.choice(sems[1:])
            out.append(
                _forall_meaning(
                    "X", E, Limp(Atom(src, E, x), Atom(root, T, apply(fns["p"], x)))
                )
            )
        elif kind == "imp2":
            x, y = Var("X", E), Var("Y", E)
            s1, s2 = rng.sample(sems[1:], 2)
            body = Limp(
                Tensor(Atom(s1, E, x), Atom(s2, E, y)),
                Atom(root, T, apply(fns["join"], x, y)),
            )
            out.append(_forall_meaning("X", E, _forall_meaning("Y", E, body)))
        elif kind == "mod":
            p = Var("P", T)
            out.append(
                _forall_meaning("P", T, Limp(Atom(root, T, p), Atom(root, T, apply(fns["lift"], p))))
            )
        else:
            src = rng.choice(sems[1:])
            s = Var("S", arrow(E, T))
            x = Var("x", E)
            inner = Limp(Atom(src, E, x), Atom(root, T, apply(s, x)))
            body = Limp(
                _forall_meaning("x", E, inner), Atom(root, T, apply(fns["quant"], s))
            )
            out.append(_forall_meaning("S", arrow(E, T), body))
    return [Premise(i + 1, f, f"p{i + 1}", "") for i, f in enumerate(out)], Goal(root, T)


def _forall_meaning(name, ty, body):
    from gluesem.formulas import Forall, MeaningVar

    return Forall(MeaningVar(name, ty), body)


def test_oracle_agreement_on_stacked_quantifiers(lexicon, ditransitive_fs):
    # Reading count for three stacked quantified NPs over a ditransitive
    # must equal the brute-force enumerator's count.
    ps = premises(ditransitive_fs, lexicon)
    goal = Goal(sigma(ditransitive_fs))
    mine = meanings(derive(ps, goal))
    oracle = oracle_meanings(list(ps), goal)
    assert mine == oracle
    assert len(mine) == 6


def test_oracle_agreement_on_random_mixes():
    rng = random.Random(20240808)
    checked = 0
    for _ in range(60):
        premise_set, goal = _random_premise_set(rng)
        mine = meanings(derive(premise_set, goal))
        assert mine == oracle_meanings(premise_set, goal)
        checked += 1
    assert checked == 60


# --- unify inside derivations -------------------------------------------------


def test_unify_consistent_with_derived_scope(lexicon, everyone_fs):
    # The scope the prover reports must be reproducible by the public unify op.
    rs = readings_of(everyone_fs, lexicon)
    meaning = rs[0].meaning
    sig = arrow(arrow(E, T), arrow(E, T), T)
    head, args = meaning, []
    from gluesem.terms import spine
    head, args = spine(meaning)
    assert head == Const("every", sig)
    scope = args[1]
    s = Var("S", arrow(E, T))
    from gluesem.terms import HypConst, fresh_stamp, normalize
    c = HypConst("z", E, fresh_stamp())
    subst = unify(apply(s, c), normalize(apply(scope, c)))
    assert equivalent(subst[s], scope)


# --- cost: one derivation per reading -----------------------------------------


def obviously_appoint(k: int):
    mods = "; ".join(f"m{i}:[PRED 'obviously']" for i in range(k))
    return parse_fstructure(
        f"f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']; MODS {{ {mods} }}]"
    )


def test_twin_modifiers_cost_grows_linearly(lexicon, monkeypatch):
    # k identical `obviously` premises have k! derivations of one reading;
    # the default search explores one of them.
    calls = []
    prove_atom = prover._Search.prove_atom

    def counting(self, *args, **kwargs):
        calls.append(None)
        return prove_atom(self, *args, **kwargs)

    monkeypatch.setattr(prover._Search, "prove_atom", counting)
    counts = []
    for k in range(1, 7):
        calls.clear()
        (reading,) = readings_of(obviously_appoint(k), lexicon)
        assert len(reading.traces) == 1
        counts.append(len(calls))
    assert counts == [3 * k + 3 for k in range(1, 7)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_all_traces_keeps_every_twin_order(lexicon, k):
    (reading,) = readings_of(obviously_appoint(k), lexicon, all_traces=True)
    # Each of the k! orders of the modifiers, times both argument orders.
    assert len(set(reading.traces)) == len(reading.traces) == 2 * math.factorial(k)
    modifier_orders = {
        tuple(s.resource for s in trace if s.kind == "apply" and s.word == "obviously")
        for trace in reading.traces
    }
    assert len(modifier_orders) == math.factorial(k)


def test_default_mode_keeps_only_the_canonical_trace():
    # Two equal formulas under different words are not twins: both orders
    # are derived, but only the first-found derivation is rendered.
    A, B = prop("A"), prop("B")
    premise_set = [A, A, Limp(A, Limp(A, B))]
    (reading,) = derive(premise_set, Goal(B.sem))
    (every,) = derive(premise_set, Goal(B.sem), all_traces=True)
    assert len(every.traces) == 2
    assert reading.traces == every.traces[:1]


def test_default_mode_formats_no_formula_until_a_trace_is_read(lexicon, scope_fs, monkeypatch):
    # The search records trace steps; only `line()` formats them. With
    # `all_traces` too: derivations are told apart by their steps.
    from gluesem import formulas
    from test_grid_golden import grid_fstructure

    calls = []
    format_formula = formulas.format_formula

    def counting(formula):
        calls.append(formula)
        return format_formula(formula)

    monkeypatch.setattr(formulas, "format_formula", counting)
    for fs in (scope_fs, parse_fstructure(grid_fstructure(2, 2))):
        premise_set = premises(fs, lexicon)
        for all_traces in (False, True):
            calls.clear()
            readings = derive(premise_set, Goal(sigma(fs)), all_traces=all_traces)
            assert readings and calls == []
            lines = [step.line() for step in readings[0].trace]
            assert lines and calls


# --- atomic subproofs hand back closed meanings -------------------------------


def test_prove_atom_yields_closed_meanings_equal_to_readings(lexicon, scope_fs):
    # A focus solves its own metavariables, so what an atomic goal yields is
    # a closed meaning the caller unifies with its pattern.
    premise_list = list(premises(scope_fs, lexicon))
    goal = sigma(scope_fs)
    engine = prover._Search(premise_list, [goal])
    complete = []
    for meaning, avail, _events in engine.prove_atom(goal, T, engine.premise_ids, 0, ()):
        assert not free_vars(meaning) and not hyp_consts(meaning)
        if not avail:
            complete.append(canonical_form(meaning))
    assert set(complete) == meanings(derive(premise_list, Goal(goal)))
    assert len(set(complete)) == 2


def test_hypothesis_must_not_leak_into_its_focus_bindings():
    # P is bound outside `forall x`, so it may not absorb x: the only proof
    # of f ~> P under g ~> x gives P = arrive(x), and there is no reading.
    g, f = SemStructure("g"), SemStructure("f")
    X, P, x = Var("X", E), Var("P", T), Var("x", E)
    arrive = Forall(
        MeaningVar("X", E), Limp(Atom(g, E, X), Atom(f, T, App(Const("arrive", arrow(E, T)), X)))
    )
    ignore = Forall(
        MeaningVar("P", T),
        Limp(
            Forall(MeaningVar("x", E), Limp(Atom(g, E, x), Atom(f, T, P))),
            Atom(f, T, Const("done", T)),
        ),
    )
    assert derive([arrive, ignore], Goal(f)) == ()


def test_premise_rebinding_a_meaning_variable_is_an_explicit_error():
    # A focus solves its metavariables under their declared names, so a
    # quantifier that shadows one along the premise's spine is refused
    # rather than merged with it.
    g, h, f = SemStructure("g"), SemStructure("h"), SemStructure("f")
    X = Var("X", E)
    shadowing = Forall(
        MeaningVar("X", E),
        Limp(
            Atom(g, E, X),
            Forall(MeaningVar("X", E), Limp(Atom(h, E, X), Atom(f, T, App(Const("arrive", arrow(E, T)), X)))),
        ),
    )
    names = [Atom(g, E, Const("Bill", E)), Atom(h, E, Const("John", E))]
    with pytest.raises(GlueError, match="rebinds the meaning variable X:e"):
        derive([shadowing, *names], Goal(f))
