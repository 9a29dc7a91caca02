"""Where the search stops early, records lazily and answers from its table:
once a reading is found, or from the start when the atom count balances, a
derivation that leaves a premise unused is not carried up to the top, trace
steps are built only for the derivations kept, each distinct one once per
search, and a repeated atomic goal is served from the search's table. The
trace lines pinned in `fixtures/golden/trace_pins.json` hold hypotheses and
derived resources (`[h1] x`, `[d1]`), which each trace numbers by first
appearance and names after their binders, so no branch the search cut or
tried first shows in them. Random premise sets check the canonical search
against the search in every order and both against the forward-chaining
enumerator of `oracles.py`, which imports nothing from `prover`."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gluesem
from gluesem import prover, terms
from gluesem.diagnostics import OK
from gluesem.formulas import Atom, Forall, Limp, SemVar, Tensor, compile_formula, focus_skeleton
from gluesem.fstruct import SemStructure, parse_fstructure, sigma
from gluesem.lexicon import Premise, parse_lexicon, premises
from gluesem.prover import Goal, derive, entails, search
from gluesem.semtypes import E, T, arrow
from gluesem.terms import App, BoundVar, Const, Lam, Var, apply, format_term

from conftest import FIXTURES, load_fs
from search_inputs import (
    PINS,
    RANDOM_GOAL,
    forall,
    grid_fstructure,
    pinned_case,
    premise_set,
    tensor_head_premises,
)
from test_prover import meanings, oracle_meanings


def test_pins_cover_the_cases():
    assert sorted(PINS) == [
        "grid_q1k3", "grid_q2k2", "tensor_head", "tensor_head_all_traces",
        "tensor_tail", "tensor_tail_all_traces",
    ]
    assert len(PINS["tensor_head"]) == 6
    traces = [t for traces in PINS["tensor_head"].values() for t in traces]
    assert all("derive [d1] p2: r_σ ~>_e rf(x)" in t for t in traces)
    assert all("assume [h1] x: a_σ ~>_e x" in t for t in traces)


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_lines_match_the_pins(lexicon, name):
    assert pinned_case(name, lexicon) == PINS[name]


def _recording_search(log):
    """A `_Search` that logs, for each answer the top focus hands to
    `_run_search`, whether it leaves resources unused."""

    class Recording(prover._Search):
        def prove_atom(self, sem, ty, avail, *rest):
            answers = super().prove_atom(sem, ty, avail, *rest)
            return self._log(answers) if avail == self.premise_mask else answers

        def _log(self, answers):
            for answer in answers:
                log.append(bool(answer[1]))
                yield answer

    return Recording


@pytest.mark.parametrize("case", ["twin_scope", "grid_q2k2"])
def test_no_partial_derivation_reaches_the_top_after_a_reading(lexicon, monkeypatch, case):
    # Both inputs balance (see `_Search.balances`), so the search is strict
    # from the start and no partial derivation reaches the top at all.
    root = load_fs("twin_scope.fs") if case == "twin_scope" else parse_fstructure(
        grid_fstructure(2, 2)
    )
    log = []  # per top-level answer: does it leave resources unused?
    monkeypatch.setattr(prover, "_Search", _recording_search(log))
    result = search(premises(root, lexicon), Goal(sigma(root)))
    assert result.readings
    assert False in log and True not in log
    assert result.status == OK
    assert result.unsatisfied_demands == () and result.leftover_resources == ()


def test_all_traces_unrolls_only_the_traces_it_keeps(lexicon, monkeypatch):
    # Under `all_traces` the canonical search is read only for whether a
    # reading exists, so it stops at its first reading and unrolls nothing.
    calls = []
    unroll = prover._trace
    monkeypatch.setattr(prover, "_trace", lambda *args: calls.append(None) or unroll(*args))
    root = parse_fstructure(grid_fstructure(2, 3))
    readings = derive(premises(root, lexicon), Goal(sigma(root)), all_traces=True)
    assert len(calls) == sum(len(r.traces) for r in readings) == 720


def _steps(readings):
    return [step for reading in readings for trace in reading.traces for step in trace]


@pytest.mark.parametrize("all_traces", [False, True])
@pytest.mark.parametrize("case", ["scope", "grid_q2k2"])
def test_each_step_is_built_once_per_search(lexicon, case, all_traces):
    # Within one search equal steps are one object (by value under
    # `all_traces`; in the canonical search on these inputs because each
    # comes from one focus answer); two searches share none; and a line the
    # text memo returns is the one a fresh equal step prints.
    root = load_fs("scope.fs") if case == "scope" else parse_fstructure(grid_fstructure(2, 2))
    premise_set = premises(root, lexicon)
    first, second = (
        derive(premise_set, Goal(sigma(root)), all_traces=all_traces) for _ in range(2)
    )
    steps = _steps(first)
    by_value = {}
    for step in steps:
        assert by_value.setdefault(step, step) is step
    assert len(by_value) < len(steps)
    assert {id(step) for step in steps}.isdisjoint({id(step) for step in _steps(second)})
    for step in steps:
        text = step.line()
        assert terms._FORMATTED[id(step)] == (step, text)
        fresh = prover.TraceStep(*step[1:])
        assert fresh is not step and step.line() == fresh.line() == text


def test_printing_a_sentence_makes_the_same_printer_calls_whatever_came_before(
    lexicon, monkeypatch
):
    # The probe counts the calls through the names the prover and the
    # formula printer look up. Texts remembered across sentences would make
    # those counts depend on what was printed earlier: here on how full the
    # text memo is when grid (2, 2) starts, before and after the printed
    # texts of the fillers reach its bound.
    calls = []

    def counting(where, fn):
        return lambda term: calls.append(where) or fn(term)

    def render(text):
        diagnosis = gluesem.diagnose(parse_fstructure(text), lexicon)
        for reading in diagnosis.readings:
            gluesem.format_term(reading.meaning)
            for step in reading.trace:
                step.line()

    filler = (FIXTURES / "scope.fs").read_text(encoding="utf-8")
    target = grid_fstructure(2, 2)
    monkeypatch.setattr(prover, "format_term", counting("prover", prover.format_term))
    monkeypatch.setattr(terms, "format_term", counting("formulas", terms.format_term))
    terms._FORMATTED.clear()
    render(filler)
    per_filler = len(terms._FORMATTED)  # the texts one filler leaves in the memo
    seen = []
    # From no filler to more than twice the bound's worth (asserted below),
    # in steps fine enough that for some k the bound falls inside grid
    # (2, 2): a memo emptied only when full then empties mid-sentence.
    ks = (0, 1, 4, 8, 12, 16, 17, 18, 19, 20, 24, 32, 36, 38, 40, 44)
    for k in ks:
        terms._FORMATTED.clear()  # as in a process that has printed nothing
        for _ in range(k):
            render(filler)
        calls.clear()
        render(target)
        seen.append(sorted(calls))
    assert max(ks) * per_filler > 2 * terms._FORMATTED_BOUND
    assert seen[0] and all(counts == seen[0] for counts in seen)


def unbalanced_tensor_head_premises():
    """`tensor_head_premises` with the head of `join` on a structure
    variable H: the readings stay, but the atom count no longer balances, so
    `derive` with `all_traces` runs the canonical search first, and then the
    search in every order on its set-up."""
    (every, split, join, m1, m2), goal = tensor_head_premises()
    P, Q, H = join.var, join.body.var, SemVar("H")
    body = join.body.body
    head = Atom(H, body.consequent.ty, body.consequent.meaning)
    anywhere = Forall(H, Forall(P, Forall(Q, Limp(body.antecedent, head))))
    return [every, split, anywhere, m1, m2], goal


def both_searches(monkeypatch, premise_list, goal):
    """The canonical search and the search in every order that `derive`
    runs with `all_traces` on premises whose count does not balance, in
    order; and the focus skeletons `_focus` built a table from, in order."""
    searches, focused = [], []
    run_search, focus = prover._run_search, prover._Search._focus

    def recording(engine, goal):
        searches.append(engine)
        return run_search(engine, goal)

    def counting(self, skeleton, values):
        focused.append(skeleton)
        return focus(self, skeleton, values)

    monkeypatch.setattr(prover, "_run_search", recording)
    monkeypatch.setattr(prover._Search, "_focus", counting)
    readings = derive(premise_list, goal, all_traces=True)
    # Each reading is derived in both orders of `join`'s antecedents.
    assert readings and all(len(reading.traces) == 2 for reading in readings)
    assert [engine.all_orders for engine in searches] == [False, True]
    return searches, focused


def skeletons(engine, start=0):
    """The focus skeleton of each registry entry of `engine` from `start`
    on: a premise's is its compiled form's, built from its set-up formula,
    and a hypothesis's or derived resource's is built from its formula."""
    count = engine.premise_mask.bit_length()
    return [
        compile_formula(formula).skeleton if k < count else focus_skeleton(formula)
        for k, (formula, *_) in enumerate(engine.registry[start:], start)
    ]


def test_the_all_orders_search_keeps_only_the_premises_focus_tables(monkeypatch):
    # The search in every order starts from the canonical search's set-up,
    # but not from its hypotheses and derived resources, of which it draws
    # more: with `m1` the only modifier, the canonical search derives r
    # alone, the search in every order r and l. Each focus table either
    # search reads is the one its own registry entry gives.
    (every, split, join, m1, _), goal = unbalanced_tensor_head_premises()
    searches, _ = both_searches(monkeypatch, [every, split, join, m1], goal)
    for engine in searches:
        assert len(engine.focus_tables) == len(engine.registry) > engine.premise_mask.bit_length()
        for skeleton, table in zip(skeletons(engine), engine.focus_tables):
            assert table == engine._focus(skeleton, {}), skeleton
    canonical, every_order = (len(engine.registry) for engine in searches)
    assert canonical < every_order


def test_each_resource_is_focused_once_when_it_gets_its_id(monkeypatch):
    # Premises are focused at set-up, hypotheses and derived resources when
    # they are drawn; the search in every order focuses only what it draws.
    premise_list, goal = unbalanced_tensor_head_premises()
    (canonical, every_order), focused = both_searches(monkeypatch, premise_list, goal)
    count = canonical.premise_mask.bit_length()
    assert len(canonical.registry) > count and len(every_order.registry) > count
    assert focused == skeletons(canonical) + skeletons(every_order, count)


# ---------------------------------------------------------------------------
# Hypothesis identity and the table. A search makes one constant per goal
# binder and one registry id per hypothesis or derived formula, drawing
# another id only while the first is available; the cases below printed the
# same lines when every introduction made a constant and an id of its own.

a, b, f, g, h = (SemStructure(name) for name in "abfgh")
r = Const("r", arrow(E, E, T))
c = Const("c", E)
k1, k2 = Const("k1", arrow(T, T)), Const("k2", arrow(T, T))
M, N, X, Y = Var("M", T), Var("N", T), Var("X", E), Var("Y", E)


def test_entails_keeps_the_consequents_binder_apart_from_a_premises():
    # The consequent assumes b ~> x; inside that scope the quantifier's
    # antecedent assumes a ~> x of its own binder, also named x. Only one
    # scope's x may reach each argument of r.
    every = Const("every", arrow(arrow(E, T), T))
    S, x = Var("S", arrow(E, T)), Var("x", E)
    quantifier = forall("S", arrow(E, T), Limp(
        forall("x", E, Limp(Atom(a, E, x), Atom(f, T, App(S, x)))),
        Atom(g, T, App(every, S)),
    ))
    relation = forall("X", E, forall("Y", E, Limp(
        Atom(a, E, X), Limp(Atom(b, E, Y), Atom(f, T, apply(r, X, Y)))
    )))

    def consequent(scope):
        return forall("x", E, Limp(Atom(b, E, x), Atom(g, T, App(every, scope))))

    antecedent = Tensor(quantifier, relation)
    assert entails(antecedent, consequent(Lam(E, apply(r, BoundVar(0), x), "z")))
    assert not entails(antecedent, consequent(Lam(E, apply(r, BoundVar(0), BoundVar(0)), "z")))


def hypothesis_lines(premise_list, all_traces=False):
    (reading,) = derive(
        [Premise(i, p, word, "") for i, (word, p) in enumerate(premise_list, 1)],
        Goal(g),
        all_traces,
    )
    return [[step.line() for step in trace] for trace in reading.traces]


LIVE_TWICE = [
    ("p1", forall("M", T, Limp(Limp(Atom(a, E, c), Atom(f, T, M)), Atom(g, T, App(k1, M))))),
    ("p2", forall("N", T, Limp(Limp(Atom(a, E, c), Atom(h, T, N)), Atom(f, T, App(k2, N))))),
    ("q", forall("X", E, forall("Y", E, Limp(
        Atom(a, E, X), Limp(Atom(a, E, Y), Atom(h, T, apply(r, X, Y)))
    )))),
]


def test_two_equal_hypotheses_live_at_once_keep_their_own_labels():
    # p2 assumes a ~> c while p1's equal hypothesis is still available.
    first = [
        "assume [h1] hyp: a_σ ~>_e c",
        "assume [h2] hyp: a_σ ~>_e c",
        "apply [h1] hyp: a_σ ~>_e c",
        "apply [h2] hyp: a_σ ~>_e c",
        "apply [3] q: h_σ ~>_t r(c, c)  X ↦ c, Y ↦ c",
        "apply [2] p2: f_σ ~>_t k2(r(c, c))  N ↦ r(c, c)",
        "apply [1] p1: g_σ ~>_t k1(k2(r(c, c)))  M ↦ k2(r(c, c))",
    ]
    swapped = first[:2] + [first[3], first[2]] + first[4:]
    assert hypothesis_lines(LIVE_TWICE) == [first]
    assert hypothesis_lines(LIVE_TWICE, all_traces=True) == [first, swapped]


def test_a_hypothesis_assumed_again_after_its_use_is_numbered_anew():
    k3 = Const("k3", arrow(T, T, T))
    s, u = Const("s", arrow(E, T)), Const("u", arrow(E, T))
    premise_list = [
        ("p3", forall("M", T, forall("N", T, Limp(
            Limp(Atom(a, E, c), Atom(f, T, M)),
            Limp(Limp(Atom(a, E, c), Atom(h, T, N)), Atom(g, T, apply(k3, M, N))),
        )))),
        ("pf", forall("X", E, Limp(Atom(a, E, X), Atom(f, T, App(s, X))))),
        ("ph", forall("Y", E, Limp(Atom(a, E, Y), Atom(h, T, App(u, Y))))),
    ]
    assert hypothesis_lines(premise_list) == [[
        "assume [h1] hyp: a_σ ~>_e c",
        "apply [h1] hyp: a_σ ~>_e c",
        "apply [2] pf: f_σ ~>_t s(c)  X ↦ c",
        "assume [h2] hyp: a_σ ~>_e c",
        "apply [h2] hyp: a_σ ~>_e c",
        "apply [3] ph: h_σ ~>_t u(c)  Y ↦ c",
        "apply [1] p3: g_σ ~>_t k3(s(c), u(c))  M ↦ s(c), N ↦ u(c)",
    ]]


def test_a_hypothesis_assumed_again_inside_its_own_focus_keeps_its_label():
    # The hypothesis h1 is focused for a; its antecedent b is w3's, whose
    # own antecedent assumes an equal hypothesis h2 before h1's step ends.
    rr, qq, k4 = Const("rr", arrow(E, T)), Const("qq", arrow(T, E)), Const("k4", arrow(T, T))
    hyp = forall("X", E, Limp(Atom(b, E, X), Atom(a, T, App(rr, X))))
    Z, W = Var("Z", T), Var("W", T)
    premise_list = [
        ("w1", forall("M", T, Limp(Limp(hyp, Atom(f, T, M)), Atom(g, T, App(k1, M))))),
        ("w2", forall("N", T, Limp(Atom(a, T, N), Atom(f, T, App(k2, N))))),
        ("w3", forall("Z", T, Limp(Limp(hyp, Atom(h, T, Z)), Atom(b, E, App(qq, Z))))),
        ("w4", forall("W", T, Limp(Atom(a, T, W), Atom(h, T, App(k4, W))))),
        ("w5", Atom(b, E, c)),
    ]
    assert hypothesis_lines(premise_list) == [[
        "assume [h1] hyp: forall X:e. b_σ ~>_e X -o a_σ ~>_t rr(X)",
        "assume [h2] hyp: forall X:e. b_σ ~>_e X -o a_σ ~>_t rr(X)",
        "apply [5] w5: b_σ ~>_e c",
        "apply [h2] hyp: a_σ ~>_t rr(c)  X ↦ c",
        "apply [4] w4: h_σ ~>_t k4(rr(c))  W ↦ rr(c)",
        "apply [3] w3: b_σ ~>_e qq(k4(rr(c)))  Z ↦ k4(rr(c))",
        "apply [h1] hyp: a_σ ~>_t rr(qq(k4(rr(c))))  X ↦ qq(k4(rr(c)))",
        "apply [2] w2: f_σ ~>_t k2(rr(qq(k4(rr(c)))))  N ↦ rr(qq(k4(rr(c))))",
        "apply [1] w1: g_σ ~>_t k1(k2(rr(qq(k4(rr(c))))))  M ↦ k2(rr(qq(k4(rr(c)))))",
    ]]


def test_a_hypothesis_of_two_binders_is_named_after_the_inner_one():
    P, x, y = Var("P", arrow(E, E, T)), Var("x", E), Var("y", E)
    two, m = Const("two", arrow(arrow(E, E, T), T)), Const("m", arrow(T, T))
    premise_list = [
        ("two", forall("P", arrow(E, E, T), Limp(
            forall("x", E, forall("y", E, Limp(Atom(h, T, apply(r, x, y)), Atom(f, T, apply(P, x, y))))),
            Atom(g, T, App(two, P)),
        ))),
        ("m", forall("M", T, Limp(Atom(h, T, M), Atom(f, T, App(m, M))))),
    ]
    assert hypothesis_lines(premise_list) == [[
        "assume [h1] y: h_σ ~>_t r(x, y)",
        "apply [h1] y: h_σ ~>_t r(x, y)",
        "apply [2] m: f_σ ~>_t m(r(x, y))  M ↦ r(x, y)",
        "discharge y",
        "discharge x",
        "apply [1] two: g_σ ~>_t two(\\x. \\y. m(r(x, y)))  P ↦ \\x. \\y. m(r(x, y))",
    ]]


# `prove_atom` executions per grid cell: every cell balances, so its search
# is strict and answers repeated atomic goals from the table from its first
# goal on (116, 1278, 4191 and 826 executions when every goal was proved
# anew; 45, 108, 160 and 105 when the table served only after the first
# reading).
GRID_CALLS = {(2, 2): 33, (3, 3): 88, (3, 5): 132, (2, 6): 77}

# With `all_traces`: every cell balances, so only the search in every order
# runs, and it tables its atomic goals too (1070, 5141, 33426 and 31730
# executions when it proved every goal anew; 165, 269, 617 and 521 when the
# canonical search ran before it, up to its first reading).
EVERY_ORDER_CALLS = {(2, 2): 148, (3, 2): 248, (2, 4): 592, (3, 3): 496}


def grid_calls(pins=GRID_CALLS, all_traces=False) -> dict:
    """`prove_atom` executions for each cell of `pins`."""
    lexicon = parse_lexicon((FIXTURES / "core.lex").read_text(encoding="utf-8"))
    calls = []
    prove_atom = prover._Search.prove_atom

    def counting(self, *args):
        calls.append(None)
        return prove_atom(self, *args)

    counts = {}
    prover._Search.prove_atom = counting
    try:
        for q, k in pins:
            root = parse_fstructure(grid_fstructure(q, k))
            calls.clear()
            derive(premises(root, lexicon), Goal(sigma(root)), all_traces)
            counts[q, k] = len(calls)
    finally:
        prover._Search.prove_atom = prove_atom
    return counts


def test_the_table_serves_repeated_atomic_goals():
    assert grid_calls() == GRID_CALLS


def test_the_search_in_every_order_tables_atomic_goals():
    assert grid_calls(EVERY_ORDER_CALLS, all_traces=True) == EVERY_ORDER_CALLS


def printed_in_a_process(hash_seed, expression):
    """What `expression`, over this module as `t`, prints in a fresh
    interpreter under `PYTHONHASHSEED=hash_seed`."""
    src = Path(gluesem.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": f"{src}{os.pathsep}{tests}"}
    done = subprocess.run(
        [sys.executable, "-c", f"import test_search_pruning as t; print({expression})"],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


@pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
def test_the_tabled_counts_do_not_depend_on_the_hash_seed(hash_seed):
    printed = printed_in_a_process(hash_seed, "sorted(t.grid_calls().items())")
    assert printed == f"{sorted(GRID_CALLS.items())}\n"


@pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
def test_the_all_orders_counts_do_not_depend_on_the_hash_seed(hash_seed):
    expression = "sorted(t.grid_calls(t.EVERY_ORDER_CALLS, all_traces=True).items())"
    assert printed_in_a_process(hash_seed, expression) == f"{sorted(EVERY_ORDER_CALLS.items())}\n"


def test_the_table_keeps_a_last_goal_apart_from_the_same_goal_elsewhere():
    # In set 394 the goal g ~>_e, with c6 and m1 available, has no answer as
    # the last goal (m1 would be left over) and one elsewhere. A table keyed
    # without the last-goal flag serves one for the other, and the third
    # reading keeps only three of its four traces.
    diagnosis = search(premise_set(random.Random(394).choice), RANDOM_GOAL, all_traces=True)
    assert [(str(r), len(r.traces)) for r in diagnosis.readings] == [
        ("r1(r4(m1(d3(c5)), l2(c5)), c6)", 4),
        ("r4(m1(d3(c5)), r1(l2(c5), c6))", 4),
        ("r4(m1(d3(r1(c5, c6))), l2(r1(c5, c6)))", 4),
    ]


@st.composite
def premise_sets(draw):
    return premise_set(lambda options: draw(st.sampled_from(options)))


@seed(30)
@settings(max_examples=150, deadline=None, database=None)
@given(premise_sets())
def test_the_tabled_search_finds_what_the_search_in_every_order_finds(premise_list):
    tabled = derive(premise_list, RANDOM_GOAL)
    every_order = derive(premise_list, RANDOM_GOAL, all_traces=True)
    assert [str(r) for r in tabled] == [str(r) for r in every_order]
    for reading, other in zip(tabled, every_order):
        assert reading.trace in other.traces


@seed(31)
@settings(max_examples=150, deadline=None, database=None)
@given(premise_sets())
def test_the_search_finds_what_the_oracle_finds(premise_list):
    assert meanings(derive(premise_list, RANDOM_GOAL)) == oracle_meanings(premise_list, RANDOM_GOAL)


def test_the_search_finds_what_the_oracle_finds_on_the_seeded_sets():
    # Set 470 holds a derived resource that escaped a hypothetical's scope.
    for n in range(1000):
        premise_list = premise_set(random.Random(n).choice)
        found = meanings(derive(premise_list, RANDOM_GOAL))
        assert found == oracle_meanings(premise_list, RANDOM_GOAL), n


# ---------------------------------------------------------------------------
# A hypothetical's scope. What a focus inside it derives may outlive it only
# if that focus consumed nothing that depends on the hypothesis, directly or
# through what another focus derived from it.


@pytest.mark.parametrize("n,diagnosis", [
    # h2's scope assumes h ~> c3; l4, focused inside it, derives f ~> l4(...)
    # from r6(m1(c3), c7), which r1 consumed outside the scope.
    (470, "incoherent\nleftover: l4[3], r6[4]"),
    # l4, focused inside h1's scope on the premise c6 alone, derives
    # f ~> d5(c6), which may outlive the scope: the derivation that reaches
    # the goal leaves only it over.
    (5, "incoherent\nleftover: l4[3]"),
])
def test_a_resource_derived_inside_a_scope_outlives_it_only_without_its_hypothesis(n, diagnosis):
    assert str(search(premise_set(random.Random(n).choice), RANDOM_GOAL)) == diagnosis


def catalyst_premises():
    """`p` derives x ~> k and `rx`, which turns x and a into x and c. Inside
    `q`'s scope, which assumes a ~> c0, `rx` consumes the x that was there
    before the scope and derives an equal one, under the same id; `cons`
    would consume that one outside the scope. No linear-logic proof exists."""
    b, e, x, a, c = (SemStructure(name) for name in ("b", "e", "x", "a", "c"))
    B, Z, M, K, A, P = Var("B", E), Var("Z", E), Var("M", T), Var("K", E), Var("A", E), Var("P", T)
    rx = forall("K", E, forall("A", E, Limp(
        Tensor(Atom(x, E, K), Atom(a, E, A)),
        Tensor(Atom(x, E, K), Atom(c, T, App(Const("g", arrow(E, T)), A))),
    )))
    p = forall("B", E, Limp(Atom(b, E, B), Tensor(
        Atom(e, E, App(Const("z", arrow(E, E)), B)), Tensor(Atom(x, E, Const("k", E)), rx)
    )))
    q = forall("P", T, Limp(
        Limp(Atom(a, E, Const("c0", E)), Atom(c, T, P)), Atom(f, T, App(Const("h", arrow(T, T)), P))
    ))
    cons = forall("M", T, forall("K", E, Limp(Atom(f, T, M), Limp(
        Atom(x, E, K), Atom(f, T, apply(Const("w", arrow(T, E, T)), M, K))
    ))))
    top = forall("Z", E, forall("M", T, Limp(Atom(e, E, Z), Limp(
        Atom(f, T, M), Atom(f, T, apply(Const("t", arrow(E, T, T)), Z, M))
    ))))
    premise_list = [top, p, q, cons, Atom(b, E, Const("b1", E))]
    return [Premise(i, formula, word, "") for i, (word, formula) in enumerate(
        zip(["top", "p", "q", "cons", "b1"], premise_list), 1
    )]


def independent_premises():
    """Inside `q`'s scope, which assumes a ~> c0, `p` is focused for c and
    derives y ~> j from nothing; `top` consumes it after the scope. `p`
    could as well be used before the scope, so the reading is sound."""
    f1, y, a, c = (SemStructure(name) for name in ("f1", "y", "a", "c"))
    M, Y, P, A, C = Var("M", T), Var("Y", E), Var("P", T), Var("A", E), Var("C", T)
    top = forall("M", T, forall("Y", E, Limp(Atom(f1, T, M), Limp(
        Atom(y, E, Y), Atom(f, T, apply(Const("t", arrow(T, E, T)), M, Y))
    ))))
    q = forall("P", T, Limp(
        Limp(Atom(a, E, Const("c0", E)), Atom(c, T, P)), Atom(f1, T, App(Const("h", arrow(T, T)), P))
    ))
    p = Tensor(Atom(c, T, Const("k", T)), Atom(y, E, Const("j", E)))
    r = forall("A", E, forall("C", T, Limp(Atom(a, E, A), Limp(
        Atom(c, T, C), Atom(c, T, apply(Const("r", arrow(E, T, T)), A, C))
    ))))
    return [Premise(i, formula, word, "") for i, (word, formula) in enumerate(
        zip(["top", "q", "p", "r"], [top, q, p, r]), 1
    )]


@pytest.mark.parametrize("build,readings", [
    (catalyst_premises, []),
    (independent_premises, ["t(h(r(c0, k)), j)"]),
])
@pytest.mark.parametrize("all_traces", [False, True])
def test_a_scope_is_checked_by_what_depends_on_its_hypothesis(build, readings, all_traces):
    premise_list = build()
    assert [str(r) for r in derive(premise_list, RANDOM_GOAL, all_traces)] == readings
    assert oracle_meanings(premise_list, RANDOM_GOAL) == meanings(derive(premise_list, RANDOM_GOAL))


# ---------------------------------------------------------------------------
# The count. A search whose atoms balance is strict from the start; one that
# then finds no reading is followed by the search that is not strict, which
# gathers the evidence. The count only chooses how to search.

v, m = Const("v", arrow(E, T)), Const("m", arrow(T, T))
VERB = forall("X", E, Limp(Atom(g, E, X), Atom(f, T, App(v, X))))


def modifier_of(sem):
    return forall("M", T, Limp(Atom(sem, T, M), Atom(sem, T, App(m, M))))


def searches_run(monkeypatch) -> list:
    """A list that gains, at each later search, whether it starts strict."""
    runs = []
    run_search = prover._run_search

    def recording(engine, *args, **kwargs):
        runs.append(engine.strict)
        return run_search(engine, *args, **kwargs)

    monkeypatch.setattr(prover, "_run_search", recording)
    return runs


def test_a_balanced_set_without_a_reading_is_diagnosed_by_a_second_search(monkeypatch):
    # The modifier of q, which nothing else supplies or demands, balances
    # but can never be used.
    premise_list = prover._as_premises([Atom(g, E, c), VERB, modifier_of(SemStructure("q"))])
    alone = prover._Search(premise_list, [f])
    assert alone.balances(Goal(f))
    single = prover._run_search(alone, Goal(f))  # one search, not strict
    runs = searches_run(monkeypatch)
    diagnosis = search(premise_list, Goal(f))
    assert runs == [True, False]
    assert diagnosis == single
    assert str(diagnosis) == "incoherent\nleftover: p3[3]"


def test_an_unbalanced_set_runs_one_search_that_is_not_strict(monkeypatch):
    # H, a structure variable, is supplied and never demanded, so the count
    # does not balance though f derives. Before the first reading, the
    # verb's derivation that leaves the modifier unused reaches the top.
    H = SemVar("H")
    verb = Forall(H, forall("X", E, Limp(Atom(g, E, X), Atom(H, T, App(v, X)))))
    premise_list = prover._as_premises([Atom(g, E, c), verb, modifier_of(f)])
    assert not prover._Search(premise_list, [f]).balances(Goal(f))
    runs = searches_run(monkeypatch)
    log = []  # per top-level answer: does it leave resources unused?
    monkeypatch.setattr(prover, "_Search", _recording_search(log))
    readings = derive(premise_list, Goal(f))
    assert runs == [False]
    assert [str(r) for r in readings] == ["m(v(c))"]
    assert meanings(readings) == oracle_meanings(premise_list, Goal(f))
    first = log.index(False)
    assert True in log[:first]  # partial derivations do come up before it
    assert not any(log[first:])


@pytest.mark.xfail(strict=True, reason="only atomic head components enter a focus table")
def test_a_tensor_component_that_is_an_implication_can_be_focused():
    # The set balances, so this runs the strict search and then the one that
    # is not; both miss the reading, and the search reports
    # "incomplete / unsatisfied: f : e".
    k = SemStructure("k")
    r2, r4, r6 = (Const(name, arrow(E, E)) for name in ("r2", "r4", "r6"))
    premise_list = prover._as_premises([
        Atom(k, E, Const("c7", E)),
        forall("X", E, Limp(Atom(k, E, X), Tensor(
            Atom(h, E, App(r4, X)), forall("Y", E, Limp(Atom(k, E, Y), Atom(f, E, App(r6, Y)))),
        ))),
        forall("X", E, Limp(Atom(h, E, X), Atom(k, E, App(r2, X)))),
    ])
    assert prover._Search(premise_list, [f]).balances(Goal(f, E))
    expected = oracle_meanings(premise_list, Goal(f, E))
    assert [format_term(meaning) for meaning in expected] == ["r6(r2(r4(c7)))"]
    assert meanings(search(premise_list, Goal(f, E)).readings) == expected
