"""Compare what gluesem prints at the working tree and at a git revision, or
under several interpreters.

    python tests/differential.py REV

Builds one matrix of outputs with the working tree's `src/gluesem` and one
with REV's (exported by `git archive` into a temporary directory), each in
an interpreter of its own, and compares them case by case. Both matrices are
built from the working tree's inputs, so only the package differs:

- every fixture under `gluesem derive` in six modes (default, `--trace`,
  `--all-traces`, `--json`, `--json --trace`, `--json --all-traces`):
  stdout, stderr and exit status;
- the modifier chain of `search_inputs.py` (`appoint` with k `obviously`
  modifiers) at each k in `CHAINS`, under `gluesem derive` in the modes
  `CHAIN_MODES`: the same;
- every fixture derived with a copy of `core.lex` in which each template
  meaning M is written `(\\r. r)(M)`: `str(diagnose(...))`, each reading's
  meaning and its trace lines, canonical and with every derivation's trace
  (`all_traces`), so the templates reach the search with redexes to
  normalize;
- every grid cell of `search_inputs.py`, and the larger cells in
  `LARGE_GRID`, where the search's table serves most: `str(diagnose(...))`,
  each reading's meaning and its trace lines;
- `RANDOM_SETS` of the seeded random premise sets of `search_inputs.py`:
  the same, from `search` for the goal f;
- the hand-built premise sets over structure variables of
  `search_inputs.py`, which the random sets never draw (a shadowing spine
  quantifier, in a tensor head too, and a quantifier scoping over a
  structure variable): the same, from `search`, canonical and with every
  derivation's trace (`all_traces`);
- `PRINTED_TERMS` of the seeded random meaning terms of `search_inputs.py`,
  whose binder hints collide with each other and with the term's names:
  `format_term` of the term and of an abstraction's body under its leading
  binders (where their variables dangle), and `format_formula` of an atom
  holding the term;
- the cases pinned in `fixtures/golden/trace_pins.json`, whose tensor heads
  derive resources (`[d4]`): every trace line;
- the `corpus`, `scope_grid` and `failures` workloads of
  `perfbench/workloads.py` at seeds 1-3: the same, and on `corpus` and
  `failures` also with every derivation's trace (`all_traces`); and each
  `corpus` lexicon, parsed and printed;
- the seed-1 `corpus` sentences in reverse order through one new lexicon:
  the same as in document order, under the same case ids with `reversed`
  added, so a lexicon's output shows no trace of what it served before;
- malformed input: every f-structure fixture, and `core.lex` with
  `same_shape.lex` appended (many templates of one shape), cut at every 7th
  character and parsed: the parsed f-structure or lexicon, or the error's
  class and text, which holds its line and column;
- token deletions: the same texts and two seed-1 `corpus` f-structures (a
  3-place verb with two quantifiers and a modifier, a 1-place verb with
  neither), each with one token deleted, at every 5th token: the same. A
  deletion leaves the text around it, so the error comes from the middle of
  the input, not from its end;
- respaced templates: `core.lex` with `same_shape.lex` appended, plus a copy
  of each entry under new headwords with the spaces around one of `(`, `,`,
  `*`, `-o` or `~>` dropped, or doubled, in its template: the parsed lexicon,
  which holds templates that only their spacing tells apart.

    python tests/differential.py --interpreters PY [PY ...]

builds the working tree's matrix once under each interpreter PY and compares
each with the first one's, byte for byte.

Prints the first differing case and exits 1 on any difference; otherwise
prints "no difference" and the number of cases, and exits 0. Each side runs
`PY tests/differential.py --dump SRC OUT`, which writes the matrix built
with the package under SRC to OUT; it imports neither pytest nor
Hypothesis, so it runs under any interpreter gluesem supports.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = (
    (),
    ("--trace",),
    ("--all-traces",),
    ("--json",),
    ("--json", "--trace"),
    ("--json", "--all-traces"),
)
SEEDS = (1, 2, 3)
ALL_TRACES = ("corpus", "failures")  # workloads also run with `all_traces`
CUT_EVERY = 7  # characters between the cuts of a malformed-input case
DELETE_EVERY = 5  # tokens between the deletions of a token-deletion case
# The headers of the seed-1 `corpus` f-structures a token-deletion case reads
DELETED_CORPUS = ("# corpus 3-place, q=2, k=1", "# corpus 1-place, q=0, k=0")
# A token of the inputs, found here so that both sides delete the same text:
# a quoted symbol, a two-character symbol, a word, or any other character;
# a comment is matched to be skipped.
_TOKEN = re.compile(r"#[^\n]*|'[^'\n]*'|->|-o|~>|\w+|\S")
RESPACED = ("(", ",", "*", "-o", "~>")  # the symbols a respaced case spaces anew
LARGE_GRID = ((2, 5), (2, 6), (3, 4), (3, 5))
RANDOM_SETS = 1000  # random premise sets, by `random.Random` seed
PRINTED_TERMS = 500  # random meaning terms, by `random.Random` seed
CHAINS = (12, 40)  # modifier chain lengths
CHAIN_MODES = ((), ("--trace",), ("--json", "--trace"))


def cases():
    """Yield (case id, output) for every case, with the gluesem on sys.path."""
    from gluesem import parse_fstructure, parse_lexicon
    from gluesem.prover import search
    from search_inputs import (
        PINS, RANDOM_GOAL, deep_clause, grid_cells, grid_fstructure, pinned_case, premise_set,
        structure_variable_sets,
    )
    import workloads

    for fs in sorted((ROOT / "tests" / "fixtures").glob("*.fs")):
        for mode in MODES:
            yield " ".join(["derive", fs.name, *mode]), _derived(f"tests/fixtures/{fs.name}", mode)
    with tempfile.TemporaryDirectory(prefix="gluesem-chain-") as tmp:
        for k in CHAINS:
            path = Path(tmp, "chain.fs")
            path.write_text(deep_clause(k), encoding="utf-8")
            for mode in CHAIN_MODES:
                yield " ".join(["derive", f"chain k={k}", *mode]), _derived(str(path), mode)

    lexicon = parse_lexicon((ROOT / "tests" / "fixtures" / "core.lex").read_text(encoding="utf-8"))
    redexes = _with_redexes(lexicon)
    for fs in sorted((ROOT / "tests" / "fixtures").glob("*.fs")):
        root = parse_fstructure(fs.read_text(encoding="utf-8"))
        yield f"redex {fs.name}", _diagnosis(root, redexes, False)
        yield f"redex {fs.name} all traces", _diagnosis(root, redexes, True)
    for q, k in [*grid_cells(), *LARGE_GRID]:
        root = parse_fstructure(grid_fstructure(q, k))
        yield f"grid q={q} k={k}", _diagnosis(root, lexicon, False)
    for n in range(RANDOM_SETS):
        premise_list = premise_set(random.Random(n).choice)
        yield f"random premise set {n}", _lines(lambda: search(premise_list, RANDOM_GOAL), False)
    for name, premise_list, goal in structure_variable_sets():
        for all_traces in (False, True):
            yield (
                f"structure variables: {name}" + (" all traces" if all_traces else ""),
                _lines(lambda: search(premise_list, goal, all_traces), all_traces),
            )
    for name in sorted(PINS):
        yield f"pin {name}", json.dumps(pinned_case(name, lexicon), ensure_ascii=False, indent=1)
    for n in range(PRINTED_TERMS):
        yield f"random term {n}", _printed(n)

    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workload = build(seed)
            lexicon = parse_lexicon(workload.lexicon_text)
            if name == "corpus":
                yield f"corpus seed {seed} lexicon", _parsed(".lex", workload.lexicon_text)
            for s in workload.sentences:
                root = parse_fstructure(s.text)
                yield f"{name} seed {seed} #{s.sid}", _diagnosis(root, lexicon, False)
                if name in ALL_TRACES:
                    yield (
                        f"{name} seed {seed} #{s.sid} all traces",
                        _diagnosis(root, lexicon, True),
                    )
    workload = workloads.corpus(1)
    lexicon = parse_lexicon(workload.lexicon_text)
    for s in reversed(workload.sentences):
        root = parse_fstructure(s.text)
        yield f"corpus seed 1 #{s.sid} reversed", _diagnosis(root, lexicon, False)

    fixtures = ROOT / "tests" / "fixtures"
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(fixtures.glob("*.fs"))}
    texts["core.lex + same_shape.lex"] = "".join(
        (fixtures / name).read_text(encoding="utf-8") for name in ("core.lex", "same_shape.lex")
    )
    for name, text in texts.items():
        for cut in range(0, len(text), CUT_EVERY):
            yield f"{name} cut at {cut}", _parsed(Path(name).suffix, text[:cut])
    sentences = workloads.corpus(1).sentences
    for header in DELETED_CORPUS:
        texts[f"corpus seed 1 {header[2:]}.fs"] = next(
            s.text for s in sentences if s.text.startswith(header)
        )
    for name, text in texts.items():
        spans = [m.span() for m in _TOKEN.finditer(text) if m[0][0] != "#"]
        for n in range(0, len(spans), DELETE_EVERY):
            start, end = spans[n]
            deleted = text[:start] + text[end:]
            yield f"{name} token {n} deleted", _parsed(Path(name).suffix, deleted)

    lexicon_text = texts["core.lex + same_shape.lex"]
    for symbol in RESPACED:
        for spacing in ("dropped", "doubled"):
            text = _respaced(lexicon_text, symbol, spacing)
            yield f"spaces around {symbol!r} {spacing}", _parsed(".lex", text)


def _derived(fstructure: str, mode) -> str:
    """What `gluesem derive` prints for `fstructure` with `core.lex` in
    `mode`: stdout, stderr and exit status."""
    from gluesem import cli

    argv = ["derive", "--fstructure", fstructure, "--lexicon", "tests/fixtures/core.lex", *mode]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}"


def _printed(n: int) -> str:
    """The seed-`n` random meaning term printed alone, then, if it is an
    abstraction, the body under its leading binders, and the term printed in
    an atom."""
    from gluesem.formulas import Atom, format_formula
    from gluesem.terms import Lam, format_term
    from search_inputs import PRINTER_STRUCTURES, printer_term

    term, ty = printer_term(random.Random(n))
    lines = [format_term(term)]
    body = term
    while type(body) is Lam:
        body = body.body
    if body is not term:
        lines.append(format_term(body))
    structure = PRINTER_STRUCTURES[n % len(PRINTER_STRUCTURES)]
    lines.append(format_formula(Atom(structure, ty, term)))
    return "\n".join(lines)


def _respaced(text: str, symbol: str, spacing: str) -> str:
    """`text` followed by a copy of each entry line, its headwords prefixed
    with `re-` and the spaces around each `symbol` in its template dropped
    or doubled."""
    around = re.compile(rf"( *){re.escape(symbol)}( *)")
    factor = 0 if spacing == "dropped" else 2
    copies = []
    for raw_line in text.splitlines():
        head, colon, template = raw_line.split("#", 1)[0].partition(":")
        if not colon or re.match(r"\s*constant\s", head.rstrip()):
            continue
        heads = ", ".join(f"re-{word.strip()}" for word in head.split(","))
        template = around.sub(lambda m: f"{m[1] * factor}{symbol}{m[2] * factor}", template)
        copies.append(f"{heads}:{template}\n")
    return text + "".join(copies)


def _with_redexes(lexicon):
    """A copy of `lexicon` in which each template meaning M is `(\\r. r)(M)`."""
    from gluesem.formulas import Atom, Forall
    from gluesem.lexicon import LexicalEntry, Lexicon
    from gluesem.terms import App, BoundVar, Lam

    def wrap(formula):
        kind = type(formula)
        if kind is Atom:
            sem, ty, meaning = formula.sem, formula.ty, formula.meaning
            return Atom(sem, ty, App(Lam(ty, BoundVar(0), "r"), meaning))
        if kind is Forall:
            return Forall(formula.var, wrap(formula.body))
        return kind(wrap(formula[1]), wrap(formula[2]))

    copy = Lexicon()
    copy.signature.update(lexicon.signature)
    for word, entry in lexicon.items():
        copy[word] = LexicalEntry(entry.headword, wrap(entry.template))
    return copy


def _parsed(suffix: str, text: str) -> str:
    """The f-structure (`.fs`) or lexicon (`.lex`) parsed from `text`, or
    the error parsing it raises."""
    from gluesem import parse_fstructure, parse_lexicon

    try:
        if suffix == ".fs":
            return str(parse_fstructure(text, "in"))
        lexicon = parse_lexicon(text, "in")
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    lines = [f"constant {name} : {ty}" for name, ty in lexicon.signature.items()]
    return "\n".join(lines + [f"{word}: {entry.template}" for word, entry in lexicon.items()])


def _diagnosis(root, lexicon, all_traces) -> str:
    from gluesem import diagnose

    return _lines(lambda: diagnose(root, lexicon, all_traces=all_traces), all_traces)


def _lines(run, all_traces) -> str:
    """The diagnosis `run()` returns, each reading's meaning and its trace
    lines (every trace with `all_traces`), or the error it raises."""
    try:
        diagnosis = run()
    except Exception as exc:  # a difference in what is raised is a difference too
        return f"{type(exc).__name__}: {exc}"
    lines = [str(diagnosis)]
    for reading in diagnosis.readings:
        lines.append(f"{reading} : {reading.ty}")
        for n, trace in enumerate(reading.traces if all_traces else reading.traces[:1], 1):
            lines.append(f"  trace {n}")
            lines += [f"    {step.line()}" for step in trace]
    return "\n".join(lines)


def dump(src: str, out: str) -> None:
    """Write the matrix built with the package under `src` to `out`."""
    sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "perfbench")]
    import gluesem

    if Path(gluesem.__file__).resolve().parent != (Path(src) / "gluesem").resolve():
        raise SystemExit(f"error: imported gluesem from {gluesem.__file__}, not {src}")
    os.chdir(ROOT)
    Path(out).write_text(json.dumps(list(cases()), ensure_ascii=False), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "--dump":
        dump(argv[2], argv[3])
        return 0
    across = len(argv) > 2 and argv[1] == "--interpreters"
    if not across and (len(argv) != 2 or argv[1].startswith("-")):
        print("usage: python tests/differential.py REV\n"
              "       python tests/differential.py --interpreters PY [PY ...]", file=sys.stderr)
        return 2
    missing = [python for python in argv[2:] if across and not shutil.which(python)]
    if missing:
        print(f"error: no interpreter {missing[0]}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="gluesem-differential-") as tmp:
        if across:
            # (name, interpreter, package), the first being the reference
            sides = [(python, python, src) for python in argv[2:]]
        else:
            rev = argv[1]
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True
            )
            if archive.returncode:
                print(f"error: git archive {rev}: {archive.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                if hasattr(tarfile, "data_filter"):
                    tar.extractall(tmp, filter="data")
                else:
                    tar.extractall(tmp)
            sides = [(rev, sys.executable, os.path.join(tmp, "src")),
                     ("working tree", sys.executable, src)]
        matrices = _build(sides, tmp)
    if matrices is None:
        return 2
    (base, reference), *others = matrices
    for name, matrix in others:
        if _differs(base, reference, name, matrix):
            return 1
    if across:
        print(f"no difference in {len(reference)} cases across {len(sides)} interpreters")
    else:
        print(f"no difference in {len(reference)} cases between the working tree and {rev}")
    return 0


def _build(sides, tmp):
    """[(name, matrix)] for each (name, interpreter, package) of `sides`,
    each built by `--dump` in a process of its own, all at once; None, with
    the error printed, if one fails."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    runs = []
    for n, (name, python, src) in enumerate(sides):
        out = os.path.join(tmp, f"{n}.json")
        command = [python, __file__, "--dump", src, out]
        runs.append((name, out, subprocess.Popen(command, env=env, stderr=subprocess.PIPE)))
    errors = [process.communicate()[1] for _, _, process in runs]
    for (name, _, process), error in zip(runs, errors):
        if process.returncode:
            print(f"error: building the matrix of {name} failed:\n{error.decode()}",
                  file=sys.stderr)
            return None
    return [(name, json.loads(Path(out).read_text(encoding="utf-8"))) for name, out, _ in runs]


def _differs(base: str, reference, name: str, matrix) -> bool:
    """Whether `matrix`, built by `name`, differs from `reference`, built
    by `base`; if so, prints the first difference as a diff from `base`."""
    for n, (mine, other) in enumerate(zip(matrix, reference)):
        if mine != other:
            print(f"difference in case {n}: {mine[0]}" + (
                "" if mine[0] == other[0] else f" (at {base}: {other[0]})"
            ))
            for line in difflib.unified_diff(
                other[1].splitlines(), mine[1].splitlines(), base, name, lineterm=""
            ):
                print(line)
            return True
    if len(matrix) != len(reference):
        print(f"difference in the number of cases: {len(matrix)} at {name}, "
              f"{len(reference)} at {base}")
        return True
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv))
