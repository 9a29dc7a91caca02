"""Search inputs that the tests and `differential.py` share: the scope grid's
and the modifier chain's f-structures, the premise sets pinned in
`fixtures/golden/trace_pins.json`, the seeded random premise sets and the
seeded random meaning terms for the printer. It imports neither pytest nor
Hypothesis, so the differential's matrix builds under any interpreter that
runs gluesem."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from gluesem.formulas import Atom, Forall, Limp, MeaningVar, PathRef, SemVar, Tensor
from gluesem.fstruct import SemStructure, parse_fstructure, sigma
from gluesem.lexicon import Premise, premises
from gluesem.prover import Goal, derive
from gluesem.semtypes import E, T, arrow
from gluesem.terms import App, Const, Lam, Var, apply

from oracles import named_to_core, random_named_term, random_type

FIXTURES = Path(__file__).parent / "fixtures"

# ---------------------------------------------------------------------------
# The scope grid: `give` with q quantified arguments and k `obviously`
# modifiers.

_ARGUMENTS = (  # (function, quantified node attributes, named node attributes)
    ("SUBJ", "SPEC every; PRED 'candidate'", "PRED 'Bill'"),
    ("OBJ", "SPEC a; PRED 'manager'", "PRED 'Hillary'"),
    ("OBJ2", "SPEC some; PRED 'brief'", "PRED 'John'"),
)


def grid_fstructure(q: int, k: int) -> str:
    """`give` whose first q arguments are quantified, modified k times."""
    parts = ["PRED 'give'"] + [
        f"{fn} a{i}:[{quantified if i < q else named}]"
        for i, (fn, quantified, named) in enumerate(_ARGUMENTS)
    ]
    if k:
        mods = "; ".join(f"m{j}:[PRED 'obviously']" for j in range(k))
        parts.append(f"MODS {{ {mods} }}")
    return "f:[" + "; ".join(parts) + "]"


def grid_cells():
    return [(q, k) for q in range(4) for k in range(4) if q + k >= 2]


def deep_clause(k: int) -> str:
    """`appoint` with `k` `obviously` modifiers (the modifier chain): a flat
    clause (nesting depth 2) whose derivation is `k` + 1 focuses deep."""
    mods = "; ".join(f"m{i}:[PRED 'obviously']" for i in range(k))
    return f"f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']; MODS {{ {mods} }}]\n"


# ---------------------------------------------------------------------------
# Pinned cases.

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


def structure_variable_sets():
    """(name, premises, goal) for hand-built premise sets over structure
    variables, which `premise_set` never draws: a spine quantifier that
    shadows an outer one, alone and in a tensor head, whose other component
    the focus derives with the inner variable's structure; and a quantifier
    whose scope is a structure variable H, once with its head on H and once
    with its hypothesis on H, each hypothesis feeding a relation."""
    g, a, f = (SemStructure(name) for name in "gaf")
    H, c, d, done = SemVar("H"), Const("c", E), Const("d", E), Const("done", T)
    X, P, S, x = Var("X", E), Var("P", T), Var("S", arrow(E, T)), Var("x", E)
    every, sleeps = Const("every", arrow(arrow(E, T), T)), Const("sleeps", arrow(E, T))

    def shadowing(head):
        return Forall(H, Limp(Atom(H, E, c), Forall(H, Limp(Atom(a, E, c), head))))

    both = forall("X", E, forall("P", T, Limp(
        Atom(f, E, X), Limp(Atom(f, T, P), Atom(f, T, apply(Const("both", arrow(E, T, T)), X, P)))
    )))

    def quantifier(restriction, scope):
        return Forall(H, forall("S", arrow(E, T), Limp(
            forall("x", E, Limp(Atom(restriction, E, x), Atom(scope, T, App(S, x)))),
            Atom(scope, T, App(every, S)),
        )))

    def relation(sem):
        return forall("X", E, Limp(Atom(sem, E, X), Atom(f, T, App(sleeps, X))))

    given = [Atom(g, E, c), Atom(a, E, c)]
    return [
        ("spine shadowing", [*given, shadowing(Atom(H, T, done))], Goal(f)),
        ("shadowed tensor head", [
            *given, shadowing(Tensor(Atom(H, T, done), Atom(H, E, d))), both
        ], Goal(f)),
        ("quantifier head on H", [quantifier(a, H), relation(a)], Goal(f)),
        ("quantifier hypothesis on H", [quantifier(H, f), relation(g)], Goal(f)),
    ]


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


def forall(name, ty, body):
    return Forall(MeaningVar(name, ty), body)


f, g, h = (SemStructure(name) for name in "fgh")


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


# Random meaning terms for the printer: well typed over the oracle's
# signature, with free variables named like binders, and binder hints drawn
# from a small pool that holds constant names of that signature, names with
# digit suffixes (the names the printer freshens to) and, more than once,
# the hint `x`, so that binders collide with each other, with free names and
# with names met only after them.
PRINTER_HINTS = ("x", "x", "x1", "x2", "y", "a0", "f1", "p0")
PRINTER_FREE = (("x", E), ("x1", T), ("y", arrow(E, T)))
PRINTER_STRUCTURES = (f, SemVar("H"), PathRef("up", ("SUBJ",)), PathRef("mod"))


def printer_term(rng):
    """A meaning term drawn by the seeded `random.Random` `rng`, whose free
    variables are among `PRINTER_FREE`, and its type."""
    ty = rng.choice([random_type(rng, 2), arrow(E, T), arrow(E, E, T), arrow(T, T)])
    named = random_named_term(rng, ty, PRINTER_FREE, depth=6)
    return _hinted(named_to_core(named), rng.choice), ty


def _hinted(t, choose):
    """`t` with each binder's hint drawn by `choose` from `PRINTER_HINTS`."""
    kind = type(t)
    if kind is App:
        return App(_hinted(t.fun, choose), _hinted(t.arg, choose))
    if kind is Lam:
        return Lam(t.var_type, _hinted(t.body, choose), choose(PRINTER_HINTS))
    return t
