"""Seeded inputs for the benchmark workloads, each with an answer built
without calling gluesem.

Every workload is a list of sentences (f-structure texts) plus the lexicon
they are read against. The seed picks words, argument positions and order;
the mix of sentence shapes is fixed per workload, so two seeds cost about the
same and the latency percentiles fall inside one shape's band rather than on
a boundary between two.

Expected answers:

- readings come from `enumerate_readings`: every order of the quantifiers
  times every placement of the (identical) modifiers among the q + 1 scope
  positions, i.e. (q+k)!/k! strings, reached by (q+k)! derivations;
- the four golden fixtures carry readings copied by hand;
- failure sentences carry the status, exit code, unsatisfied-demand labels
  and leftover words that their construction implies.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

EXIT_CODES = {
    "ok": 0,
    "incomplete": 2,
    "incoherent": 3,
    "incomplete+incoherent": 4,
    "uninstantiable": 5,
}


@dataclass(frozen=True)
class Expected:
    status: str
    readings: tuple[str, ...] = ()  # sorted meaning strings
    demands: tuple[tuple[str, str, tuple[str, ...]], ...] = ()  # (sem, type, needed-by words)
    leftovers: tuple[str, ...] = ()  # sorted words

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


@dataclass(frozen=True)
class Sentence:
    sid: int
    text: str
    group: str  # shape, grid cell or failure kind
    expected: Expected
    derivations: int  # closed-form derivation count; 0 for failed sentences


@dataclass(frozen=True)
class Workload:
    name: str
    lexicon_text: str
    sentences: tuple[Sentence, ...]
    warmup: tuple[Sentence, ...]  # one sentence of every group
    via_cli: bool  # sentences go through gluesem.cli.run, not the library calls


# ---------------------------------------------------------------------------
# The independent answer.


@dataclass(frozen=True)
class Quant:
    det: str
    noun: str
    binder: str

    def wrap(self, body: str) -> str:
        return f"{self.det}({self.noun}, \\{self.binder}. {body})"


def enumerate_readings(verb: str, args: list[str], quants: list[Quant], modifier: str, k: int):
    """Every reading of `verb(args)` under the quantifiers and k copies of
    `modifier`: quantifier orders (outermost first) times multisets of
    modifier positions, position i lying under the first i quantifiers."""
    core = f"{verb}({', '.join(args)})"
    q = len(quants)
    out = set()
    for order in itertools.permutations(quants):
        for placement in itertools.combinations_with_replacement(range(q + 1), k):
            body = core
            for level in range(q, -1, -1):
                for _ in range(placement.count(level)):
                    body = f"{modifier}({body})"
                if level:
                    body = order[level - 1].wrap(body)
            out.add(body)
    expected = math.factorial(q + k) // math.factorial(k)
    if len(out) != expected:
        raise AssertionError(f"enumerated {len(out)} readings, expected {expected}")
    return tuple(sorted(out))


GOLDEN_READINGS = {
    "bah.fs": ("appoint(Bill, Hillary)",),
    "modified.fs": ("obviously(appoint(Bill, Hillary))",),
    "scope.fs": (
        "a(manager, \\v. every(candidate, \\u. appoint(u, v)))",
        "every(candidate, \\u. a(manager, \\v. appoint(u, v)))",
    ),
    "ditransitive_scope.fs": (
        "a(manager, \\v. every(candidate, \\u. some(brief, \\w. give(u, v, w))))",
        "a(manager, \\v. some(brief, \\w. every(candidate, \\u. give(u, v, w))))",
        "every(candidate, \\u. a(manager, \\v. some(brief, \\w. give(u, v, w))))",
        "every(candidate, \\u. some(brief, \\w. a(manager, \\v. give(u, v, w))))",
        "some(brief, \\w. a(manager, \\v. every(candidate, \\u. give(u, v, w))))",
        "some(brief, \\w. every(candidate, \\u. a(manager, \\v. give(u, v, w))))",
    ),
}
GOLDEN_DERIVATIONS = {"bah.fs": 1, "modified.fs": 1, "scope.fs": 2, "ditransitive_scope.fs": 6}


# ---------------------------------------------------------------------------
# F-structure text.


class _Labels:
    """Node labels unique within one document: a letter and a number, so
    they never read like a feature value."""

    def __init__(self):
        self.n = 0

    def __call__(self, letter: str) -> str:
        self.n += 1
        return f"{letter}{self.n}"


def _node(label: str, attrs: list[str], indent: int) -> str:
    pad = "\n" + " " * (indent + len(label) + 2)
    return f"{label}:[" + (";" + pad).join(attrs) + "]"


def _set(members: list[str]) -> str:
    return "{ " + "; ".join(members) + " }"


# ---------------------------------------------------------------------------
# corpus: a generated lexicon of a few thousand entries, XLE-sized
# f-structures, at most 2 quantifiers and 1 modifier per sentence.

_ONSETS = "b c d f g k l m n p r s t v z br dr gl kr pl st tr".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "", "l", "n", "r", "s", "m"]
_HINTS = ("x", "y", "z", "u", "v", "w")

CORPUS_NAMES = 1200
CORPUS_NOUNS = 400
CORPUS_VERBS = 300
CORPUS_ADVERBS = 40


@dataclass(frozen=True)
class _CorpusLexicon:
    text: str
    names: tuple[str, ...]  # constants, capitalized
    nouns: tuple[tuple[str, str], ...]  # (constant, binder hint)
    verbs: dict  # arity -> tuple of constants
    adverbs: tuple[str, ...]


def _stems(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((2, 2, 3)))
        )
        forms = {stem, stem + "ed"}
        if len(stem) < 4 or forms & taken:
            continue
        taken |= forms
        out.append(stem)
    return out


def _corpus_lexicon(rng: random.Random) -> _CorpusLexicon:
    core = (DATA / "core.lex").read_text(encoding="utf-8")
    # Every word of core.lex, keywords included, so no generated word
    # duplicates an entry or constant there.
    taken = {w.lower() for w in re.findall(r"[A-Za-z][A-Za-z0-9_]*", core)}
    names = [s.capitalize() for s in _stems(rng, CORPUS_NAMES, taken)]
    nouns = [(s, _HINTS[i % len(_HINTS)]) for i, s in enumerate(_stems(rng, CORPUS_NOUNS, taken))]
    verb_stems = _stems(rng, CORPUS_VERBS, taken)
    adverbs = _stems(rng, CORPUS_ADVERBS, taken)
    verbs = {a: tuple(verb_stems[a - 1 :: 3]) for a in (1, 2, 3)}

    lines = [core, "# Generated vocabulary."]
    for name in names:
        lines += [f"constant {name} : e", f"{name.lower()}: ^ ~> {name}"]
    for noun, x in nouns:
        lines.append(f"constant {noun} : e -> t")
        for det in ("every", "a"):
            lines.append(
                f"{det}-{noun}: forall H, S:e->t. (forall {x}:e. ^ ~> {x} -o H ~>_t S({x}))"
                f" -o H ~>_t {det}({noun}, S)"
            )
    variables = ("X", "Y", "Z")
    functions = ("SUBJ", "OBJ", "OBJ2")
    for arity, stems in verbs.items():
        vs = variables[:arity]
        antecedent = " * ".join(f"(^ {fn}) ~> {v}" for fn, v in zip(functions, vs))
        for verb in stems:
            lines.append(f"constant {verb} : " + "e -> " * arity + "t")
            lines.append(
                f"{verb}ed, {verb}: forall {', '.join(v + ':e' for v in vs)}."
                f" {antecedent} -o ^ ~> {verb}({', '.join(vs)})"
            )
    for adverb in adverbs:
        lines.append(f"constant {adverb} : t -> t")
        lines.append(f"{adverb}: forall P:t. (mod ^) ~> P -o (mod ^) ~> {adverb}(P)")
    return _CorpusLexicon(
        "\n".join(lines) + "\n", tuple(names), tuple(nouns), verbs, tuple(adverbs)
    )


def _corpus_sentence(rng, lex: _CorpusLexicon, arity, q, k) -> Sentence:
    label = _Labels()
    verb = rng.choice(lex.verbs[arity])
    functions = ("SUBJ", "OBJ", "OBJ2")[:arity]
    quantified = set(rng.sample(range(arity), q))
    hints_used: set[str] = set()
    quants: list[Quant] = []
    args: list[str] = []
    attrs = [
        f"PRED '{verb}'",
        "STMT_TYPE decl",
        "CLAUSE_TYPE decl",
        "VTYPE main",
        f"PASSIVE {rng.choice(('minus', 'minus', 'plus'))}",
        "TNS_ASP " + _node(label("t"), [
            f"TENSE {rng.choice(('past', 'pres', 'fut'))}",
            "MOOD indicative",
            f"PERF {rng.choice(('minus', 'plus'))}",
            f"PROG {rng.choice(('minus', 'plus'))}",
        ], 3),
        "CHECK " + _node(label("c"), [
            "VMORPH stem",
            "AUX_SELECT have",
            "INF_FORM minus",
            f"SUBCAT {('intrans', 'trans', 'ditrans')[arity - 1]}",
            "LEX_SOURCE morphology",
        ], 3),
    ]
    for i, fn in enumerate(functions):
        case = "nom" if fn == "SUBJ" else "acc"
        if i in quantified:
            noun, x = rng.choice([n for n in lex.nouns if n[1] not in hints_used])
            hints_used.add(x)
            det = rng.choice(("every", "a"))
            quants.append(Quant(det, noun, x))
            args.append(x)
            body = [
                f"SPEC {det}",
                f"PRED '{noun}'",
                "NTYPE " + _node(label("n"), [
                    "NSYN common",
                    "NSEM " + _node(label("s"), ["COMMON count"], 12),
                ], 12),
                "AGR " + _node(label("g"), ["PERS third", "NUM sg", "GEND neut"], 12),
                f"CASE {case}",
                "CHECK " + _node(label("c"), ["SPEC_FORM det", "NMORPH stem", "DEF minus"], 12),
            ]
        else:
            name = rng.choice(lex.names)
            args.append(name)
            body = [
                f"PRED '{name}'",
                "NTYPE " + _node(label("n"), [
                    "NSYN proper",
                    "NSEM " + _node(label("s"), [
                        "PROPER " + _node(label("p"), ["PROPER_TYPE name", "NAME_TYPE first_name"], 18),
                    ], 12),
                ], 12),
                "AGR " + _node(label("g"), ["PERS third", "NUM sg", f"GEND {rng.choice(('masc', 'fem'))}"], 12),
                f"CASE {case}",
                "CHECK " + _node(label("c"), ["NMORPH stem", "DEF plus"], 12),
            ]
        attrs.append(f"{fn} " + _node(label("a"), body, 3 + len(fn) + 1))
    adverb = rng.choice(lex.adverbs)
    if k:
        attrs.append("MODS " + _set([
            _node(label("m"), [
                f"PRED '{adverb}'",
                "ADV_TYPE vpadv",
                "DEGREE positive",
                "CHECK " + _node(label("c"), ["LEX_SOURCE morphology", "ADV_FORM ly"], 12),
            ], 9)
        ]))
    text = f"# corpus {arity}-place, q={q}, k={k}\n" + _node("f", attrs, 0) + "\n"
    readings = enumerate_readings(verb, args, quants, adverb, k)
    return Sentence(0, text, f"a{arity}q{q}k{k}", Expected("ok", readings), math.factorial(q + k))


def corpus(seed: int, per_shape: int = 18) -> Workload:
    """Library throughput: one large lexicon, a few hundred XLE-sized
    sentences, one derivation per reading, plus the four goldens."""
    rng = random.Random(f"corpus:{seed}")
    lex = _corpus_lexicon(rng)
    sentences: list[Sentence] = []
    shapes = [(a, q, k) for a in (1, 2, 3) for q in range(min(a, 2) + 1) for k in (0, 1)]
    for arity, q, k in shapes:
        for _ in range(per_shape):
            sentences.append(_corpus_sentence(rng, lex, arity, q, k))
    for name, readings in GOLDEN_READINGS.items():
        text = (DATA / name).read_text(encoding="utf-8")
        sentences.append(Sentence(0, text, name, Expected("ok", readings), GOLDEN_DERIVATIONS[name]))
    return _finish("corpus", lex.text, sentences, rng, via_cli=False)


# ---------------------------------------------------------------------------
# scope_grid: core.lex verbs, q distinct quantifiers, k >= 2 `obviously`.

_CORE_QUANTS = {  # headword -> (node attributes, quantifier)
    "everyone": (["PRED 'everyone'"], Quant("every", "person", "z")),
    "every-candidate": (["SPEC every", "PRED 'candidate'"], Quant("every", "candidate", "u")),
    "a-manager": (["SPEC a", "PRED 'manager'"], Quant("a", "manager", "v")),
    "some-brief": (["SPEC some", "PRED 'brief'"], Quant("some", "brief", "w")),
}
_CORE_NAMES = ("Bill", "Hillary", "John", "sink")
_CORE_VERBS = {  # semantic form -> (headword, governed functions)
    "arrive": ("arrived", ("SUBJ",)),
    "appoint": ("appointed", ("SUBJ", "OBJ")),
    "convince": ("convinced", ("SUBJ", "OBJ")),
    "devour": ("devoured", ("SUBJ", "OBJ")),
    "give": ("gave", ("SUBJ", "OBJ", "OBJ2")),
}

# Sentences per pass in each (q, k) cell. Ranked by cost, the cells with
# q + k <= 3 fill ranks 1-30, (0,4) 31-44, (1,3) 45-58, (2,2) 59-96 and the
# q + k = 5 cells 97-100, so the median lies inside (1,3) and the 90th
# percentile inside (2,2), away from any jump between cells.
GRID_CELLS = {
    (0, 2): 10, (0, 3): 10, (1, 2): 10,
    (0, 4): 14, (1, 3): 14, (2, 2): 38,
    (0, 5): 1, (1, 4): 1, (2, 3): 1, (3, 2): 1,
}
_GRID_VERBS = ("appoint", "convince", "give")


@dataclass
class _Arg:
    function: str
    text: str  # f-structure node text
    word: str  # lexicon headword it contributes, or "" for none
    meaning: str  # argument as it appears in readings
    quant: Quant | None = None


def _core_arg(rng, label, function, kind, quants_left) -> _Arg:
    node = label("a")
    if kind == "quant":
        word = quants_left.pop(rng.randrange(len(quants_left)))
        attrs, quant = _CORE_QUANTS[word]
        return _Arg(function, f"{node}:[{'; '.join(attrs)}]", word, quant.binder, quant)
    if kind == "empty":
        attrs = rng.choice(([], ["PERS third", "NUM sg"]))
        return _Arg(function, f"{node}:[{'; '.join(attrs)}]", "", "")
    name = rng.choice(_CORE_NAMES)
    return _Arg(function, f"{node}:[PRED '{name}']", name.lower(), name)


def _core_text(verb: str, args: list[_Arg], k: int, label, comment: str) -> str:
    parts = [f"PRED '{verb}'"] + [f"{a.function} {a.text}" for a in args]
    if k:
        parts.append("MODS " + _set([f"{label('m')}:[PRED 'obviously']" for _ in range(k)]))
    return f"# {comment}\nf:[" + ";\n   ".join(parts) + "]\n"


def _grid_sentence(rng, q, k, index) -> Sentence:
    label = _Labels()
    verb = "give" if q == 3 else _GRID_VERBS[index % len(_GRID_VERBS)]
    functions = _CORE_VERBS[verb][1]
    quantified = set(rng.sample(range(len(functions)), q))
    quants_left = sorted(_CORE_QUANTS)
    args = [
        _core_arg(rng, label, fn, "quant" if i in quantified else "name", quants_left)
        for i, fn in enumerate(functions)
    ]
    text = _core_text(verb, args, k, label, f"scope_grid q={q}, k={k}")
    readings = enumerate_readings(
        verb, [a.meaning for a in args], [a.quant for a in args if a.quant], "obviously", k
    )
    return Sentence(0, text, f"q{q}k{k}", Expected("ok", readings), math.factorial(q + k))


def scope_grid(seed: int, cells: dict | None = None) -> Workload:
    """Commuting modifiers and stacked quantifiers: derivations exceed
    readings by k!."""
    rng = random.Random(f"scope_grid:{seed}")
    sentences = [
        _grid_sentence(rng, q, k, i)
        for (q, k), count in (cells or GRID_CELLS).items()
        for i in range(count)
    ]
    core = (DATA / "core.lex").read_text(encoding="utf-8")
    return _finish("scope_grid", core, sentences, rng, via_cli=False)


# ---------------------------------------------------------------------------
# failures: ill-formed sentences through the CLI entry point, with a share of
# well-formed controls.

# Sentences per pass of each kind.
FAILURE_KINDS = {
    "incoherent": 36,
    "incomplete": 30,
    "incomplete+incoherent": 24,
    "uninstantiable": 12,
    "ok": 18,
}
_EXTRA_FUNCTIONS = ("OBJ", "OBJ2", "OBL", "OBJ_TH")


def _failure_sentence(rng, kind, index) -> Sentence:
    label = _Labels()
    # Verb, modifier count, quantifier count and extra arguments follow the
    # index, so the cost of a pass does not depend on the seed.
    verb = sorted(_CORE_VERBS)[index % len(_CORE_VERBS)]
    headword, governed = _CORE_VERBS[verb]
    k = index // len(_CORE_VERBS) % 3
    q = index // (3 * len(_CORE_VERBS)) % 3
    extras = []
    if kind == "incoherent":
        spare = [f for f in _EXTRA_FUNCTIONS if f not in governed]
        extras = spare[: 1 + index % 2]
    elif kind == "incomplete+incoherent":
        extras = [next(f for f in _EXTRA_FUNCTIONS if f not in governed)]
    functions = list(governed) + extras
    empty = rng.randrange(len(governed)) if kind in ("incomplete", "incomplete+incoherent") else None
    missing = rng.randrange(len(governed)) if kind == "uninstantiable" else None

    fillable = [i for i in range(len(functions)) if i not in (empty, missing)]
    quantified = set(rng.sample(fillable, min(len(fillable), q)))
    quants_left = sorted(_CORE_QUANTS)
    args = []
    for i, fn in enumerate(functions):
        if i == missing:
            continue
        kind_i = "empty" if i == empty else "quant" if i in quantified else "name"
        args.append(_core_arg(rng, label, fn, kind_i, quants_left))
    rng.shuffle(args)
    text = _core_text(verb, args, k, label, f"failures {kind}")

    governed_args = [a for a in args if a.function in governed]
    extra_args = [a for a in args if a.function in extras]
    if kind == "ok":
        ordered = sorted(governed_args, key=lambda a: governed.index(a.function))
        readings = enumerate_readings(
            verb, [a.meaning for a in ordered], [a.quant for a in ordered if a.quant], "obviously", k
        )
        expected = Expected("ok", readings)
        derivations = math.factorial(len(quantified) + k)
    else:
        derivations = 0
        demands = tuple(
            (a.text.split(":", 1)[0], "e", (headword,)) for a in governed_args if not a.word
        )
        leftovers = tuple(sorted(a.word for a in extra_args))
        expected = Expected(kind, demands=demands, leftovers=leftovers)
    return Sentence(0, text, kind, expected, derivations)


def failures(seed: int, kinds: dict | None = None) -> Workload:
    """Incomplete, incoherent and uninstantiable sentences through
    `gluesem.cli.run`, which re-reads and re-parses the lexicon each call."""
    rng = random.Random(f"failures:{seed}")
    sentences = [
        _failure_sentence(rng, kind, i)
        for kind, count in (kinds or FAILURE_KINDS).items()
        for i in range(count)
    ]
    core = (DATA / "core.lex").read_text(encoding="utf-8")
    return _finish("failures", core, sentences, rng, via_cli=True)


def _finish(name, lexicon_text, sentences, rng, via_cli) -> Workload:
    rng.shuffle(sentences)
    numbered = tuple(
        Sentence(i, s.text, s.group, s.expected, s.derivations)
        for i, s in enumerate(sentences)
    )
    first: dict[str, Sentence] = {}
    for s in numbered:
        first.setdefault(s.group, s)
    return Workload(name, lexicon_text, numbered, tuple(first.values()), via_cli)


WORKLOADS = {"corpus": corpus, "scope_grid": scope_grid, "failures": failures}
