"""Where the search stops early and records lazily: once a reading is found,
a derivation that leaves a premise unused is not carried up to the top, and
trace steps are built only for the derivations kept. The trace lines pinned
in `fixtures/golden/trace_pins.json` hold hypotheses and derived resources
(`[h1] x`, `[d1]`), which each trace numbers by first appearance and names
after their binders, so no branch the search cut or tried first shows in
them."""

from __future__ import annotations

import copy
import json

import pytest

from gluesem import prover
from gluesem.diagnostics import OK
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, Tensor
from gluesem.fstruct import SemStructure, parse_fstructure, sigma
from gluesem.lexicon import premises
from gluesem.prover import Goal, derive, search
from gluesem.semtypes import E, T, arrow
from gluesem.terms import App, Const, Var, apply

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
