"""Where the search stops early, records lazily and answers from its table:
once a reading is found, a derivation that leaves a premise unused is not
carried up to the top, trace steps are built only for the derivations kept,
and a repeated atomic goal is served from the search's table. The trace
lines pinned in `fixtures/golden/trace_pins.json` hold hypotheses and derived
resources (`[h1] x`, `[d1]`), which each trace numbers by first appearance
and names after their binders, so no branch the search cut or tried first
shows in them. Random premise sets check the tabled search against the
search in every order, which tables nothing."""

from __future__ import annotations

import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gluesem
from gluesem import prover
from gluesem.diagnostics import OK
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, Tensor
from gluesem.fstruct import SemStructure, parse_fstructure, sigma
from gluesem.lexicon import Premise, parse_lexicon, premises
from gluesem.prover import Goal, derive, entails, search
from gluesem.semtypes import E, T, arrow
from gluesem.terms import App, BoundVar, Const, Lam, Var, apply

from conftest import FIXTURES, load_fs
from test_grid_golden import grid_fstructure

PINS = json.loads((FIXTURES / "golden" / "trace_pins.json").read_text(encoding="utf-8"))


def tensor_head_premises():
    """`every` scoping over a `split`/`join` pair and two distinct modifiers
    of f: 6 readings, each with a tensor head that derives a resource inside
    a hypothetical."""
    a, l, r, f = (SemStructure(name) for name in "alrf")
    X, P, Q, S = Var("X", E), Var("P", E), Var("Q", E), Var("S", arrow(E, T))
    lf, rf = Const("lf", arrow(E, E)), Const("rf", arrow(E, E))
    split = Forall(
        MeaningVar("X", E),
        Limp(Atom(a, E, X), Tensor(Atom(l, E, App(lf, X)), Atom(r, E, App(rf, X)))),
    )
    join = Forall(MeaningVar("P", E), Forall(MeaningVar("Q", E), Limp(
        Tensor(Atom(l, E, P), Atom(r, E, Q)),
        Atom(f, T, apply(Const("j", arrow(E, E, T)), P, Q)),
    )))
    x = Var("x", E)
    every = Forall(MeaningVar("S", arrow(E, T)), Limp(
        Forall(MeaningVar("x", E), Limp(Atom(a, E, x), Atom(f, T, App(S, x)))),
        Atom(f, T, App(Const("every", arrow(arrow(E, T), T)), S)),
    ))

    def modifier(name):
        M = Var("M", T)
        return Forall(MeaningVar("M", T), Limp(
            Atom(f, T, M), Atom(f, T, App(Const(name, arrow(T, T)), M))
        ))

    return [every, split, join, modifier("m1"), modifier("m2")], Goal(f)


def tensor_tail_premises():
    """`twof` supplies f and derives r; `cons` consumes both and `mod`
    modifies f. After the first reading, `twof` is focused for the sentence
    goal itself, where its derived r can only be left over: that branch is
    cut inside `twof`'s antecedents, and no later trace shows it."""
    a, f, r = (SemStructure(name) for name in "afr")
    X, P, Q, M = Var("X", E), Var("P", T), Var("Q", E), Var("M", T)
    w = Const("w", arrow(T, E, T))
    cons = Forall(MeaningVar("P", T), Forall(MeaningVar("Q", E), Limp(
        Atom(f, T, P), Limp(Atom(r, E, Q), Atom(f, T, apply(w, P, Q)))
    )))
    twof = Forall(MeaningVar("X", E), Limp(Atom(a, E, X), Tensor(
        Atom(f, T, App(Const("u", arrow(E, T)), X)), Atom(r, E, App(Const("v", arrow(E, E)), X))
    )))
    mod = Forall(MeaningVar("M", T), Limp(
        Atom(f, T, M), Atom(f, T, App(Const("m", arrow(T, T)), M))
    ))
    return [cons, twof, Atom(a, E, Const("c", E)), mod], Goal(f)


def trace_lines(readings):
    """Every line of every trace, keyed by the reading's printed meaning."""
    return {str(r): [[step.line() for step in trace] for trace in r.traces] for r in readings}


def pinned_case(name, lexicon):
    if name.startswith("tensor"):
        build = tensor_head_premises if name.startswith("tensor_head") else tensor_tail_premises
        premise_list, goal = build()
        return trace_lines(derive(premise_list, goal, all_traces=name.endswith("all_traces")))
    q, k = int(name[6]), int(name[8])  # grid_q<q>k<k>
    root = parse_fstructure(grid_fstructure(q, k))
    return trace_lines(derive(premises(root, lexicon), Goal(sigma(root))))


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
    root = load_fs("twin_scope.fs") if case == "twin_scope" else parse_fstructure(
        grid_fstructure(2, 2)
    )
    log = []  # per top-level answer: does it leave resources unused?
    monkeypatch.setattr(prover, "_Search", _recording_search(log))
    result = search(premises(root, lexicon), Goal(sigma(root)))
    assert result.readings
    first = log.index(False)
    assert True in log[:first]  # partial derivations do come up before it
    assert not any(log[first:])
    assert result.status == OK
    assert result.unsatisfied_demands == () and result.leftover_resources == ()


def test_all_traces_unrolls_only_the_traces_it_keeps(lexicon, monkeypatch):
    # Under `all_traces` the canonical search is read only for whether a
    # reading exists, so it stops at its first reading and unrolls nothing.
    calls = []
    unroll = prover._trace
    monkeypatch.setattr(
        prover, "_trace", lambda rope, registry: calls.append(None) or unroll(rope, registry)
    )
    root = parse_fstructure(grid_fstructure(2, 3))
    readings = derive(premises(root, lexicon), Goal(sigma(root)), all_traces=True)
    assert len(calls) == sum(len(r.traces) for r in readings) == 720


def test_the_all_orders_search_keeps_only_the_premises_focus_tables(monkeypatch):
    # The search in every order starts from the canonical search's set-up,
    # but not from its hypotheses and derived resources: with `m1` the only
    # modifier, the canonical search derives r at the id where the search in
    # every order derives l. Each focus table the latter used is the one its
    # own resource gives.
    searches = []
    in_every_order = prover._Search.in_every_order

    def recording(self):
        searches.append(in_every_order(self))
        return searches[-1]

    monkeypatch.setattr(prover._Search, "in_every_order", recording)
    (every, split, join, m1, _), goal = tensor_head_premises()
    assert derive([every, split, join, m1], goal, all_traces=True)
    (engine,) = searches
    premise_count = engine.premise_mask.bit_length()
    assert any(rid >= premise_count for rid in engine.focus_tables)
    for rid, table in engine.focus_tables.items():
        fresh = copy.copy(engine)
        fresh.focus_tables = {}
        assert table == fresh._focus_table(rid), engine.registry[rid]


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


def forall(name, ty, body):
    return Forall(MeaningVar(name, ty), body)


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


# `prove_atom` executions per grid cell: once the first reading is found, a
# repeated atomic goal is answered from the table (116, 1278, 4191 and 826
# executions when every goal was proved anew).
GRID_CALLS = {(2, 2): 45, (3, 3): 108, (3, 5): 160, (2, 6): 105}


def grid_calls() -> dict:
    """`prove_atom` executions for each cell of `GRID_CALLS`."""
    lexicon = parse_lexicon((FIXTURES / "core.lex").read_text(encoding="utf-8"))
    calls = []
    prove_atom = prover._Search.prove_atom

    def counting(self, *args):
        calls.append(None)
        return prove_atom(self, *args)

    counts = {}
    prover._Search.prove_atom = counting
    try:
        for q, k in GRID_CALLS:
            root = parse_fstructure(grid_fstructure(q, k))
            calls.clear()
            derive(premises(root, lexicon), Goal(sigma(root)))
            counts[q, k] = len(calls)
    finally:
        prover._Search.prove_atom = prove_atom
    return counts


def test_the_table_serves_repeated_atomic_goals():
    assert grid_calls() == GRID_CALLS


@pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
def test_the_tabled_counts_do_not_depend_on_the_hash_seed(hash_seed):
    src = Path(gluesem.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": f"{src}{os.pathsep}{tests}"}
    done = subprocess.run(
        [sys.executable, "-c", "import test_search_pruning as t; print(sorted(t.grid_calls().items()))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == f"{sorted(GRID_CALLS.items())}\n"


# Random premise sets: small, closed and well typed, over the structures f, g
# and h and the types e and t, drawn goal first from f:t so that about half
# have a reading. Shapes: atoms, curried and tensor antecedents, modifiers (twins
# when two share a constant), quantifiers whose scope assumes a hypothesis
# over a meaning `forall` over e, hypotheticals nested to depth 2 and tensor
# heads whose other component is derived.
STRUCTURES = (f, g, h)
RANDOM_GOAL = Goal(f)
KEYS = [(sem, ty) for sem in STRUCTURES for ty in (E, T)]
MAX_PREMISES = 5


def premise_set(choose) -> list[Premise]:
    """A premise multiset for `Goal(f)`; `choose` picks an item of a
    sequence (Hypothesis's draw, or a seeded `random.Random`'s `choice`)."""
    made: list[tuple[str, object]] = []
    names = itertools.count(1)
    supplies: list[tuple] = []  # hypotheses and derived components not yet used
    demanded: list[tuple] = []

    def const(base, ty):
        return Const(f"{base}{next(names)}", ty)

    def premise(word, formula):
        made.append((word, formula))

    def atom(sem, ty):
        head = const("c", ty)
        premise(head.name, Atom(sem, ty, head))

    def modifier(sem, ty, name):
        fun, meta = Const(name, arrow(ty, ty)), Var("M", ty)
        premise(name, forall("M", ty, Limp(Atom(sem, ty, meta), Atom(sem, ty, App(fun, meta)))))

    def supply(sem, ty, depth):
        demanded.append((sem, ty))
        if (sem, ty) in supplies and choose([True, True, False]):
            supplies.remove((sem, ty))
            return
        shapes = ["atom"]
        if len(made) < MAX_PREMISES - 1 and depth < 3:
            shapes = ["curried", "tensor"]  # these can use up a pending supply
            if not supplies:
                shapes += ["atom", "modifier", "hypothetical", "split"]
                if ty == T:
                    shapes.append("quantifier")
        shape = choose(shapes)
        if shape == "atom":
            atom(sem, ty)
        elif shape in ("curried", "tensor"):
            count = choose([1, 2]) if shape == "curried" else 2
            args = [choose(supplies or KEYS)] + [choose(KEYS) for _ in range(count - 1)]
            fun = const("r", arrow(*[arg_ty for _, arg_ty in args], ty))
            metas = [Var(f"X{i}", arg_ty) for i, (_, arg_ty) in enumerate(args)]
            parts = [Atom(arg_sem, var.ty, var) for (arg_sem, _), var in zip(args, metas)]
            body = Atom(sem, ty, apply(fun, *metas))
            if shape == "tensor":
                body = Limp(Tensor(*parts), body)
            else:
                for part in reversed(parts):
                    body = Limp(part, body)
            for var in reversed(metas):
                body = forall(var.name, var.ty, body)
            premise(fun.name, body)
            for arg in args:
                supply(*arg, depth + 1)
        elif shape == "modifier":
            modifier(sem, ty, choose(["m1", "m2"]))
            supply(sem, ty, depth + 1)
        elif shape == "quantifier":
            restriction, scope = choose(STRUCTURES), Var("S", arrow(E, T))
            fun, x = const("q", arrow(arrow(E, T), T)), Var("x", E)
            premise(fun.name, forall("S", scope.ty, Limp(
                forall("x", E, Limp(Atom(restriction, E, x), Atom(sem, T, App(scope, x)))),
                Atom(sem, T, App(fun, scope)),
            )))
            supplies.append((restriction, E))
            supply(sem, T, depth + 1)
        elif shape == "hypothetical":
            (assumed, assumed_ty), (inner, _) = choose(KEYS), choose(KEYS)
            fun, meta = const("h", arrow(T, ty)), Var("P", T)
            premise(fun.name, forall("P", T, Limp(
                Limp(Atom(assumed, assumed_ty, const("c", assumed_ty)), Atom(inner, T, meta)),
                Atom(sem, ty, App(fun, meta)),
            )))
            supplies.append((assumed, assumed_ty))
            supply(inner, T, depth + 1)
        else:  # split: a tensor head, whose other component is derived
            (source, source_ty), (other, other_ty) = choose(KEYS), choose(KEYS)
            left, right = const("l", arrow(source_ty, ty)), const("d", arrow(source_ty, other_ty))
            meta = Var("X", source_ty)
            premise(left.name, forall("X", source_ty, Limp(
                Atom(source, source_ty, meta),
                Tensor(Atom(sem, ty, App(left, meta)), Atom(other, other_ty, App(right, meta))),
            )))
            supplies.append((other, other_ty))
            supply(source, source_ty, depth + 1)

    supply(f, T, 0)
    extra = choose(["none", "none", "none", "atom", "modifier", "modifier"])
    if extra != "none":
        sem, ty = choose(demanded)
        if extra == "modifier":
            modifier(sem, ty, "m1")
        else:
            atom(sem, ty)
    return [Premise(i, formula, word, "") for i, (word, formula) in enumerate(made, 1)]


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
