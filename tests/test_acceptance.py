"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Term comparisons are exact up to alpha-beta-eta (`equivalent`); boolean and
exit-status checks are exact. Every golden run must finish within a second.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time

from gluesem.formulas import Limp, Tensor
from gluesem.fstruct import sigma
from gluesem.lexicon import Premise, parse_lexicon, premises
from gluesem.prover import Goal, derive, entails, prop
from gluesem.semtypes import E, T, arrow
from gluesem.terms import Const, canonical_form, equivalent, normalize, typecheck
from gluesem.termsyntax import parse_term
from gluesem.cli import main as cli_main

from conftest import ACCEPTANCE_LINES, FIXTURES, load_fs
from oracles import named_to_core, oracle_beta_normal, oracle_canonical, random_named_term
from test_prover import _random_premise_set, audit_linearity, meanings, oracle_meanings

SIG = {
    "Bill": E,
    "Hillary": E,
    "appoint": arrow(E, E, T),
    "convince": arrow(E, E, T),
    "obviously": arrow(T, T),
    "person": arrow(E, T),
    "candidate": arrow(E, T),
    "manager": arrow(E, T),
    "every": arrow(arrow(E, T), arrow(E, T), T),
    "a": arrow(arrow(E, T), arrow(E, T), T),
}


def _report(number: int, title: str):
    """Record the criterion's PASS/FAIL line, which the run prints in its
    summary (see conftest.py)."""

    @contextlib.contextmanager
    def ctx():
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            ACCEPTANCE_LINES.append(f"criterion {number}: FAIL  {title}")
            raise
        elapsed = time.perf_counter() - start
        ACCEPTANCE_LINES.append(f"criterion {number}: PASS  {title} ({elapsed:.3f}s)")

    return ctx()


def _derive_golden(name, lexicon, **kw):
    fs = load_fs(name)
    ps = premises(fs, lexicon)
    start = time.perf_counter()
    readings = derive(ps, Goal(sigma(fs)), **kw)
    assert time.perf_counter() - start < 1.0, f"{name} took over a second"
    return ps, readings


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_args(fs_name, *extra):
    return (
        "derive",
        "--fstructure",
        str(FIXTURES / fs_name),
        "--lexicon",
        str(FIXTURES / "core.lex"),
        *extra,
    )


def test_criterion_1_transitive_golden(lexicon):
    with _report(1, "Bill appointed Hillary: one reading, two derivation orders"):
        _ps, readings = _derive_golden("bah.fs", lexicon, all_traces=True)
        assert len(readings) == 1
        expected = parse_term("appoint(Bill, Hillary)", SIG)
        assert equivalent(readings[0].meaning, expected)
        assert len(readings[0].traces) >= 2  # both orders, collapsed to one reading
        rendered = ["\n".join(s.line() for s in t) for t in readings[0].traces]
        assert any(t.index("apply [2] bill") < t.index("apply [3] hillary") for t in rendered)
        assert any(t.index("apply [3] hillary") < t.index("apply [2] bill") for t in rendered)


def test_criterion_2_resource_usage_table():
    with _report(2, "linear entailment table: 1 correct, 4 incorrect, leftover pair"):
        A, B = prop("A"), prop("B")
        imp = Limp(A, B)
        assert entails(A, Tensor(A, A)) is False
        assert entails(Tensor(A, B), A) is False
        assert entails(Tensor(A, imp), B) is True
        assert entails(Tensor(A, imp), Tensor(A, B)) is False
        assert entails(Tensor(A, imp), Tensor(imp, B)) is False
        two = Tensor(A, Tensor(A, imp))
        assert entails(two, Tensor(A, B)) is True
        assert entails(two, B) is False


def test_criterion_3_completeness_coherence():
    with _report(3, "John devoured: incomplete; John arrived Bill the sink: incoherent"):
        code, _out, err = _cli(*_cli_args("john_devoured.fs"))
        assert code == 2
        assert "incomplete" in err
        code, _out, err = _cli(*_cli_args("john_arrived_extras.fs"))
        assert code == 3
        assert "incoherent" in err
        assert "bill" in err and "sink" in err  # leftover premises named


def test_criterion_4_modifier_golden(lexicon):
    with _report(4, "modifier: only obviously(appoint(Bill, Hillary))"):
        _ps, readings = _derive_golden("modified.fs", lexicon)
        assert len(readings) == 1
        expected = parse_term("obviously(appoint(Bill, Hillary))", SIG)
        assert equivalent(readings[0].meaning, expected)
        premature = parse_term("appoint(Bill, Hillary)", SIG)
        assert not any(equivalent(r.meaning, premature) for r in readings)


def test_criterion_5_quantifier_golden(lexicon):
    with _report(5, "Bill convinced everyone: one reading; type t rejects type e"):
        _ps, readings = _derive_golden("everyone.fs", lexicon)
        assert len(readings) == 1
        expected = parse_term(
            "every(person, \\z. convince(Bill, z))",
            {**SIG},
        )
        assert equivalent(readings[0].meaning, expected)
        # A goal typed t never admits a type-e meaning.
        from gluesem.formulas import Atom
        from gluesem.fstruct import SemStructure
        sem = SemStructure("f")
        single = [Premise(1, Atom(sem, E, Const("Bill", E)), "bill", "f")]
        assert derive(single, Goal(sem, T)) == ()
        assert [r.meaning for r in derive(single, Goal(sem, E))] == [Const("Bill", E)]


def test_criterion_6_scope_ambiguity_golden(lexicon):
    with _report(6, "every candidate appointed a manager: exactly the two scopings"):
        ps, readings = _derive_golden("scope.fs", lexicon)
        wide = parse_term("every(candidate, \\u. a(manager, \\v. appoint(u, v)))", SIG)
        narrow = parse_term("a(manager, \\v. every(candidate, \\u. appoint(u, v)))", SIG)
        assert len(readings) == 2
        assert any(equivalent(r.meaning, wide) for r in readings)
        assert any(equivalent(r.meaning, narrow) for r in readings)
        # The search in every order finds no third reading either.
        fs = load_fs("scope.fs")
        every_order = derive(premises(fs, lexicon), Goal(sigma(fs)), all_traces=True)
        assert meanings(every_order) == meanings(readings)


def test_criterion_7_property_suites(lexicon):
    with _report(7, "properties: linearity, permutations, currying, oracles"):
        goldens = ["bah.fs", "modified.fs", "everyone.fs", "scope.fs"]

        # Linearity audit on every trace of every golden.
        for name in goldens:
            fs = load_fs(name)
            ps = premises(fs, lexicon)
            for reading in derive(ps, Goal(sigma(fs)), all_traces=True):
                audit_linearity(reading, [p.index for p in ps])

        # Premise-permutation invariance, >= 100 random permutations total.
        rng = random.Random(1234)
        permutations_run = 0
        for name in goldens:
            fs = load_fs(name)
            base = list(premises(fs, lexicon))
            expected = meanings(derive(base, Goal(sigma(fs))))
            for _ in range(26):
                shuffled = list(base)
                rng.shuffle(shuffled)
                renumbered = [
                    Premise(i + 1, p.formula, p.word, p.label)
                    for i, p in enumerate(shuffled)
                ]
                assert meanings(derive(renumbered, Goal(sigma(fs)))) == expected
                permutations_run += 1
        assert permutations_run >= 100

        # Currying invariance of the reading sets.
        core = (FIXTURES / "core.lex").read_text(encoding="utf-8")
        curried = [
            "appointed, appoint: forall X:e. (^ SUBJ) ~> X -o"
            " (forall Y:e. (^ OBJ) ~> Y -o ^ ~> appoint(X, Y))",
            "appointed, appoint: forall Y:e. (^ OBJ) ~> Y -o"
            " (forall X:e. (^ SUBJ) ~> X -o ^ ~> appoint(X, Y))",
        ]
        kept = [l for l in core.splitlines() if not l.startswith("appointed, appoint:")]
        for name in ("bah.fs", "scope.fs"):
            fs = load_fs(name)
            expected = meanings(derive(premises(fs, lexicon), Goal(sigma(fs))))
            for variant in curried:
                lex2 = parse_lexicon("\n".join(kept) + "\n" + variant)
                assert meanings(derive(premises(fs, lex2), Goal(sigma(fs)))) == expected

        # Normalization idempotence and oracle agreement, >= 500 random terms.
        rng = random.Random(55)
        for _ in range(500):
            named = random_named_term(rng, rng.choice([E, T, arrow(E, T)]))
            core_term = named_to_core(named)
            normal = normalize(core_term)
            assert normalize(normal) == normal
            assert normal == named_to_core(oracle_beta_normal(named))
            assert canonical_form(core_term) == named_to_core(oracle_canonical(named))
            assert typecheck(normal) == typecheck(core_term)

        # derive() vs the brute-force enumerator: premise subsets of the
        # goldens (all are <= 6 formulas) and randomized mixes.
        for name in goldens:
            fs = load_fs(name)
            ps = list(premises(fs, lexicon))
            goal = Goal(sigma(fs))
            for r in range(1, len(ps) + 1):
                for chosen in itertools.combinations(ps, r):
                    subset = [
                        Premise(i + 1, p.formula, p.word, p.label)
                        for i, p in enumerate(chosen)
                    ]
                    assert meanings(derive(subset, goal)) == oracle_meanings(subset, goal)
        rng = random.Random(77)
        for _ in range(40):
            premise_set, goal = _random_premise_set(rng)
            assert meanings(derive(premise_set, goal)) == oracle_meanings(premise_set, goal)


def test_criterion_8_structured_output_determinism():
    with _report(8, "structured JSON output is byte-identical across runs"):
        for name in ("bah.fs", "modified.fs", "everyone.fs", "scope.fs"):
            runs = [
                _cli(*_cli_args(name, "--json", "--all-traces")) for _ in range(3)
            ]
            assert runs[0][0] == 0
            assert len({out for _code, out, _err in runs}) == 1
            payload = json.loads(runs[0][1])
            assert [r["meaning"] for r in payload["readings"]] == sorted(
                r["meaning"] for r in payload["readings"]
            )
