"""CLI driver: exit codes, output formats, determinism."""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gluesem
from gluesem.cli import RunConfig, main, run
from gluesem.lexer import MAX_NESTING

from conftest import FIXTURES
from test_fstruct import reference_chain


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def derive_args(fs_name, *extra, lex="core.lex"):
    return (
        "derive",
        "--fstructure",
        str(FIXTURES / fs_name),
        "--lexicon",
        str(FIXTURES / lex),
        *extra,
    )


def test_scope_ambiguity_two_lines_exit_zero():
    code, out, err = run_cli(*derive_args("scope.fs"))
    assert code == 0
    assert out.splitlines() == [
        "a(manager, \\v. every(candidate, \\u. appoint(u, v)))",
        "every(candidate, \\u. a(manager, \\v. appoint(u, v)))",
    ]
    assert err == ""


def test_incomplete_exits_2_with_diagnosis_on_stderr():
    code, out, err = run_cli(*derive_args("john_devoured.fs"))
    assert code == 2
    assert out == ""
    assert "incomplete" in err
    assert "h : e" in err


def test_incoherent_exits_3_naming_leftovers():
    code, _out, err = run_cli(*derive_args("john_arrived_extras.fs"))
    assert code == 3
    assert "bill" in err and "sink" in err


def test_uninstantiable_exits_5():
    code, _out, err = run_cli(*derive_args("john_devoured_no_obj.fs"))
    assert code == 5
    assert "OBJ" in err


def test_missing_entry_exits_5(tmp_path):
    fs = tmp_path / "x.fs"
    fs.write_text("f:[PRED 'vanish'; SUBJ g:[PRED 'Bill']]", encoding="utf-8")
    code, _out, err = run_cli(
        "derive", "--fstructure", str(fs), "--lexicon", str(FIXTURES / "core.lex")
    )
    assert code == 5
    assert "vanish" in err


def test_trace_shows_substitutions_in_order():
    code, out, _err = run_cli(*derive_args("bah.fs", "--trace"))
    assert code == 0
    assert out.index("X ↦ Bill") < out.index("Y ↦ Hillary")


def test_all_traces_shows_both_orders():
    code, out, _err = run_cli(*derive_args("bah.fs", "--all-traces"))
    assert code == 0
    assert "derivation 1:" in out and "derivation 2:" in out


def test_json_schema_and_reading_set_matches_text():
    code, out, _err = run_cli(*derive_args("scope.fs", "--json"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"readings", "diagnosis"}
    assert payload["diagnosis"]["status"] == "ok"
    json_meanings = [r["meaning"] for r in payload["readings"]]
    _, text_out, _ = run_cli(*derive_args("scope.fs"))
    assert json_meanings == text_out.splitlines()


def test_json_trace_field():
    _code, out, _err = run_cli(*derive_args("everyone.fs", "--json", "--trace"))
    payload = json.loads(out)
    trace = payload["readings"][0]["trace"]
    assert any("H ↦ f_σ" in line for line in trace)


def test_json_byte_identical_across_runs():
    for fs_name in ("bah.fs", "modified.fs", "everyone.fs", "scope.fs"):
        first = run_cli(*derive_args(fs_name, "--json", "--all-traces"))
        second = run_cli(*derive_args(fs_name, "--json", "--all-traces"))
        assert first == second


GOLDEN = FIXTURES / "golden"
GOLDEN_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("stem", sorted(GOLDEN_CODES))
def test_json_all_traces_matches_the_recorded_output(stem):
    """`derive --json --all-traces` on each fixture reproduces, byte for
    byte, the exit code and stdout recorded in `fixtures/golden/`."""
    code, out, _err = run_cli(*derive_args(f"{stem}.fs", "--json", "--all-traces"))
    assert code == GOLDEN_CODES[stem]
    assert out.encode("utf-8") == (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("mode, suffix", [((), ".txt"), (("--trace",), ".trace.txt")])
@pytest.mark.parametrize("stem", sorted(GOLDEN_CODES))
def test_text_output_matches_the_recorded_output(stem, mode, suffix):
    """`derive` in the default and `--trace` modes reproduces, byte for byte,
    the stdout recorded in `fixtures/golden/`; the exit code is the one every
    mode shares."""
    code, out, _err = run_cli(*derive_args(f"{stem}.fs", *mode))
    assert code == GOLDEN_CODES[stem]
    assert out.encode("utf-8") == (GOLDEN / f"{stem}{suffix}").read_bytes()


def test_golden_covers_every_fixture():
    assert sorted(GOLDEN_CODES) == sorted(p.stem for p in FIXTURES.glob("*.fs"))


def test_recorded_outputs_do_not_depend_on_what_ran_before():
    """`cli.run` on every fixture in the `--trace` and `--json --all-traces`
    modes, in order and then in reverse in the same process, reproduces each
    recorded output: what one run printed (and the term texts it left in
    `format_term`'s memo) cannot change what a later run prints."""
    modes = [
        ({"trace": True}, ".trace.txt"),
        ({"json_output": True, "all_traces": True}, ".json"),
    ]
    runs = [(stem, options, suffix) for stem in sorted(GOLDEN_CODES) for options, suffix in modes]
    for stem, options, suffix in runs + runs[::-1]:
        out, err = io.StringIO(), io.StringIO()
        config = RunConfig(str(FIXTURES / f"{stem}.fs"), str(FIXTURES / "core.lex"), **options)
        assert run(config, out, err) == GOLDEN_CODES[stem], (stem, suffix)
        assert out.getvalue().encode("utf-8") == (GOLDEN / f"{stem}{suffix}").read_bytes(), (stem, suffix)


def test_goal_override():
    code, out, _err = run_cli(
        "derive",
        "--fstructure",
        str(FIXTURES / "name_only.fs"),
        "--lexicon",
        str(FIXTURES / "core.lex"),
        "--goal",
        "g:e",
    )
    assert code == 0
    assert out.splitlines() == ["Bill"]


def test_unknown_goal_label_is_input_error():
    code, _out, err = run_cli(*derive_args("bah.fs", "--goal", "zz:t"))
    assert code == 1
    assert "zz" in err


@pytest.mark.parametrize(
    "goal,error",
    [("g:", "error: 1:1: expected a type, found end of input\n"),
     ("g:e->", "error: 1:4: expected a type, found end of input\n")],
    ids=["empty", "unfinished"],
)
def test_goal_with_an_empty_or_unfinished_type_is_input_error(goal, error):
    code, out, err = run_cli(*derive_args("name_only.fs", "--goal", goal))
    assert (code, out, err) == (1, "", error)


def test_missing_file_is_input_error(tmp_path):
    code, _out, err = run_cli(
        "derive",
        "--fstructure",
        str(tmp_path / "absent.fs"),
        "--lexicon",
        str(FIXTURES / "core.lex"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_syntax_error_reports_file_and_line(tmp_path):
    bad = tmp_path / "bad.fs"
    bad.write_text("f:[PRED appoint'; ]", encoding="utf-8")
    code, _out, err = run_cli(
        "derive", "--fstructure", str(bad), "--lexicon", str(FIXTURES / "core.lex")
    )
    assert code == 1
    assert "bad.fs" in err and ":1:" in err


def test_bad_arguments_are_input_error():
    code, _out, err = run_cli("derive", "--fstructure", "only.fs")
    assert code == 1
    assert "error:" in err


def test_run_accepts_config_and_streams():
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(
        fstructure_path=str(FIXTURES / "bah.fs"),
        lexicon_path=str(FIXTURES / "core.lex"),
    )
    assert run(config, out, err) == 0
    assert out.getvalue() == "appoint(Bill, Hillary)\n"


def nested_adjuncts(depth: int) -> str:
    """`arrive(John)` whose ADJ chain of empty nodes nests `depth` levels."""
    chain = "".join(f"a{i}:[ADJ " for i in range(2, depth)) + f"a{depth}:[]"
    return f"a1:[PRED 'arrive'; SUBJ g:[PRED 'John']; ADJ {chain}{']' * (depth - 1)}"


def run_nested(tmp_path, depth: int):
    path = tmp_path / "nested.fs"
    path.write_text(nested_adjuncts(depth), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(path), str(FIXTURES / "core.lex")), out, err)
    return code, out.getvalue(), err.getvalue()


def test_nesting_at_the_limit_parses_and_diagnoses(tmp_path):
    code, out, err = run_nested(tmp_path, MAX_NESTING)
    assert (code, out, err) == (0, "arrive(John)\n", "")


def test_nesting_past_the_limit_is_an_input_error(tmp_path):
    code, out, err = run_nested(tmp_path, 3000)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    column = nested_adjuncts(3000).index(f"a{MAX_NESTING + 1}:") + 1
    assert f":1:{column}: f-structures nest deeper than {MAX_NESTING} levels" in err


def test_a_3000_link_reference_chain_derives(tmp_path):
    path = tmp_path / "chain.fs"
    path.write_text(reference_chain(3000), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(path), str(FIXTURES / "core.lex")), out, err)
    assert (code, out.getvalue(), err.getvalue()) == (0, "arrive(Bill)\n", "")


def deep_lexicon_line(kind: str, depth: int) -> str:
    """A lexicon line whose type, meaning term or formula nests `depth`
    parentheses; at any depth the line would leave `bah.fs` unchanged."""
    opened, closed = "(" * depth, ")" * depth
    return {
        "type": f"constant deep : {opened}e{closed}",
        "term": f"deep: ^ ~>_e {opened}Bill{closed}",
        "formula": f"deep: {opened}(^) ~>_e Bill{closed}",
    }[kind]


def run_deep_lexicon(tmp_path, kind: str, depth: int):
    path = tmp_path / "deep.lex"
    core = (FIXTURES / "core.lex").read_text(encoding="utf-8")
    path.write_text(core + deep_lexicon_line(kind, depth) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(FIXTURES / "bah.fs"), str(path)), out, err)
    return code, out.getvalue(), err.getvalue()


LEXICON_KINDS = {"type": "types", "term": "meaning terms", "formula": "formulas"}


@pytest.mark.parametrize("kind", LEXICON_KINDS)
def test_lexicon_nesting_at_the_limit_parses(tmp_path, kind):
    code, out, err = run_deep_lexicon(tmp_path, kind, MAX_NESTING)
    assert (code, out, err) == (0, "appoint(Bill, Hillary)\n", "")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
@pytest.mark.parametrize("kind", LEXICON_KINDS)
def test_lexicon_nesting_past_the_limit_is_an_input_error(tmp_path, kind, depth):
    code, out, err = run_deep_lexicon(tmp_path, kind, depth)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    line = len((FIXTURES / "core.lex").read_text(encoding="utf-8").splitlines()) + 1
    # The parenthesis that opens level MAX_NESTING + 1.
    column = deep_lexicon_line(kind, depth).index("(") + MAX_NESTING + 1
    assert f":{line}:{column}: {LEXICON_KINDS[kind]} nest deeper than {MAX_NESTING} levels" in err


@pytest.mark.parametrize(
    "line,where",
    [
        ("constant bad : e -> @", ":{n}:21: unexpected character '@'"),
        ("bad: ^ ~> f($)", ":{n}:13: unexpected character '$'"),
        ("bad: ^ ~> 'Bill", ":{n}:11: unterminated quoted symbol"),
    ],
    ids=["type", "template", "quote"],
)
def test_lexicon_token_error_reports_its_line(tmp_path, line, where):
    path = tmp_path / "bad.lex"
    core = (FIXTURES / "core.lex").read_text(encoding="utf-8")
    path.write_text(core + line + "\n", encoding="utf-8")
    code, out, err = run_cli("derive", "--fstructure", str(FIXTURES / "bah.fs"), "--lexicon", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}{where.format(n=len(core.splitlines()) + 1)}\n"


PAIR_LEXICON = """\
constant pair : e -> e -> e
constant Bill : e
constant Hillary : e
constant meet : e -> t
both: ^ ~> pair(Bill, Hillary)
meet: forall X:e, Y:e. (^ SUBJ) ~> {pattern} -o ^ ~> meet(pair(Y, X))
"""


@pytest.mark.parametrize(
    "pattern,bindings",
    [("pair(X, Y)", "X ↦ Bill, Y ↦ Hillary"), ("pair(Y, X)", "X ↦ Hillary, Y ↦ Bill")],
)
def test_trace_bindings_do_not_depend_on_the_hash_seed(tmp_path, pattern, bindings):
    # One unification solves X and Y together; `meet`'s own `apply` line
    # lists them in the order its quantifier declares them, whatever order
    # the interpreter's string hashing or the pattern gives.
    lexicon = tmp_path / "pair.lex"
    lexicon.write_text(PAIR_LEXICON.format(pattern=pattern), encoding="utf-8")
    fs = tmp_path / "pair.fs"
    fs.write_text("f:[PRED 'meet'; SUBJ g:[PRED 'both']]", encoding="utf-8")
    src = pathlib.Path(gluesem.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "gluesem", "derive", "--fstructure", str(fs),
            "--lexicon", str(lexicon), "--json", "--trace"]
    documents = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        documents.add(done.stdout)
    assert len(documents) == 1
    (trace,) = (r["trace"] for r in json.loads(documents.pop())["readings"])
    value = dict(binding.split(" ↦ ") for binding in bindings.split(", "))
    assert trace == [
        "apply [2] both: g_σ ~>_e pair(Bill, Hillary)",
        f"apply [1] meet: f_σ ~>_t meet(pair({value['Y']}, {value['X']}))  {bindings}",
    ]


GREET_LEXICON = """\
constant Bill : e
constant Hillary : e
constant greet : e -> t
bill: ^ ~> Bill
hillary: ^ ~> Hillary
greetbill: (^ OBJ) ~> Bill -o ^ ~> greet(Bill)
"""


@pytest.mark.parametrize(
    "fstructure,code,stderr",
    [
        (
            "f:[PRED 'greetbill'; OBJ g:[PRED 'hillary']]",
            2,
            "incomplete\nunsatisfied: g : e\n",
        ),
        (
            "f:[PRED 'greetbill'; OBJ g:[PRED 'hillary']; OBJ2 h:[PRED 'bill']]",
            4,
            "incomplete+incoherent\nunsatisfied: g : e\nleftover: bill[3]\n",
        ),
    ],
    ids=["incomplete", "incomplete+incoherent"],
)
def test_constant_pattern_mismatch_is_the_unsatisfied_demand(tmp_path, fstructure, code, stderr):
    # `g` supplies Hillary where the verb's pattern wants Bill: the demand
    # that fails is the object's, not the sentence's.
    lexicon = tmp_path / "greet.lex"
    lexicon.write_text(GREET_LEXICON, encoding="utf-8")
    fs = tmp_path / "greet.fs"
    fs.write_text(fstructure, encoding="utf-8")
    assert run_cli("derive", "--fstructure", str(fs), "--lexicon", str(lexicon)) == (
        code, "", stderr,
    )


MEANING_ERROR_LEXICON = """\
constant Bill : e
constant f : e -> t
x: ^ ~>_t {meaning}
"""


@pytest.mark.parametrize(
    "meaning,error",
    [
        ("f(g)", "unknown name 'g' at line 3, column 13"),
        ("f(f(Bill))", "ill-typed application at line 3, column 12: type mismatch: e vs t"),
        ("\\x. Bill", "cannot infer the type of binder 'x' at line 3, column 12; annotate it"),
    ],
    ids=["undeclared-name", "ill-typed", "untyped-binder"],
)
def test_lexicon_meaning_term_error_is_an_input_error(tmp_path, meaning, error):
    lexicon = tmp_path / "x.lex"
    lexicon.write_text(MEANING_ERROR_LEXICON.format(meaning=meaning), encoding="utf-8")
    fs = tmp_path / "x.fs"
    fs.write_text("f:[PRED 'x']", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(fs), str(lexicon)), out, err)
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {error}\n")


def test_reentrant_object_is_incomplete_at_the_frontier(tmp_path):
    # SUBJ and OBJ are one node, whose one supply meets both of the verb's
    # demands: a demand is met when some supply matches it, so the search
    # frontier names what is missing. A count of demands against supplies
    # would blame `appointed[1]` instead.
    fs = tmp_path / "reentrant.fs"
    fs.write_text("f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ g]", encoding="utf-8")
    code, out, err = run_cli(
        "derive", "--fstructure", str(fs), "--lexicon", str(FIXTURES / "core.lex")
    )
    assert (code, out, err) == (2, "", "incomplete\nunsatisfied: g : e\n")


def test_json_missing_entry_exits_5_with_an_empty_reading_list(tmp_path):
    fs = tmp_path / "x.fs"
    fs.write_text("f:[PRED 'vanish'; SUBJ g:[PRED 'Bill']]", encoding="utf-8")
    code, out, err = run_cli(
        "derive", "--fstructure", str(fs), "--lexicon", str(FIXTURES / "core.lex"), "--json"
    )
    assert (code, err) == (5, "")
    document = json.loads(out)
    assert document["readings"] == []
    assert document["diagnosis"]["status"] == "missing-entry"
    assert "vanish" in document["diagnosis"]["note"]
    # The same schema as every other document.
    assert document["diagnosis"]["unsatisfied_demands"] == []
    assert document["diagnosis"]["leftover_resources"] == []


def test_json_names_the_premise_of_an_unused_tensor_component(tmp_path):
    lex = tmp_path / "split.lex"
    lex.write_text(
        "constant c : t\nconstant Bill : e\nsplit: ^ ~>_t c * ^ ~>_e Bill\n", encoding="utf-8"
    )
    fs = tmp_path / "split.fs"
    fs.write_text("f:[PRED 'split']", encoding="utf-8")
    code, out, _err = run_cli("derive", "--fstructure", str(fs), "--lexicon", str(lex), "--json")
    assert code == 3
    assert json.loads(out)["diagnosis"] == {
        "status": "incoherent",
        "unsatisfied_demands": [],
        "leftover_resources": [{"premise": 1, "word": "split"}],
    }


# For `python -m gluesem` in an interpreter of its own, at its default
# recursion limit: the package under test on its path.
FRESH_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(gluesem.__file__).resolve().parent.parent)}


@pytest.mark.parametrize("fs_name", ["scope.fs", "ditransitive_scope.fs"])
def test_closed_output_pipe_exits_1_without_a_traceback(fs_name):
    # Like `gluesem derive ... | head -1`: the reader is gone before the
    # readings are written.
    argv = [sys.executable, "-m", "gluesem", *derive_args(fs_name, "--all-traces")]
    with subprocess.Popen(
        argv, env=FRESH_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def deep_clause(k: int) -> str:
    """`appoint` with `k` `obviously` modifiers: a flat clause (nesting
    depth 2) whose derivation is `k` + 1 focuses deep."""
    mods = "; ".join(f"m{i}:[PRED 'obviously']" for i in range(k))
    return f"f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']; MODS {{ {mods} }}]\n"


def derive_in_a_fresh_interpreter(tmp_path, fstructure: str, *extra):
    """`python -m gluesem derive` on `fstructure`, at the interpreter's
    default recursion limit: (exit code, stdout lines, stderr)."""
    path = tmp_path / "clause.fs"
    path.write_text(fstructure, encoding="utf-8")
    argv = [sys.executable, "-m", "gluesem", "derive", "--fstructure", str(path),
            "--lexicon", str(FIXTURES / "core.lex"), *extra]
    done = subprocess.run(argv, env=FRESH_ENV, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout.splitlines(), done.stderr


# The reading alone, or the reading and one `apply` line for each of the 223
# premises.
@pytest.mark.parametrize("mode, lines", [((), 1), (("--trace",), 224)])
def test_a_220_modifier_clause_derives_at_the_default_recursion_limit(tmp_path, mode, lines):
    code, out, err = derive_in_a_fresh_interpreter(tmp_path, deep_clause(220), *mode)
    assert (code, len(out), err) == (0, lines, "")


def test_a_1000_modifier_clause_derives_or_ends_in_an_error_line(tmp_path):
    code, lines, err = derive_in_a_fresh_interpreter(tmp_path, deep_clause(1000))
    if code == 0:
        assert (len(lines), err) == (1, "")
    else:
        assert code == 1 and lines == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_crlf_line_ends_read_like_lf_ones(tmp_path):
    """Every fixture and `core.lex` rewritten with CRLF line ends derives to
    its recorded stdout and exit code."""
    lexicon = tmp_path / "core.lex"
    lexicon.write_bytes((FIXTURES / "core.lex").read_bytes().replace(b"\n", b"\r\n"))
    for stem in sorted(GOLDEN_CODES):
        path = tmp_path / f"{stem}.fs"
        path.write_bytes((FIXTURES / f"{stem}.fs").read_bytes().replace(b"\n", b"\r\n"))
        out, err = io.StringIO(), io.StringIO()
        assert run(RunConfig(str(path), str(lexicon)), out, err) == GOLDEN_CODES[stem], stem
        assert out.getvalue().encode("utf-8") == (GOLDEN / f"{stem}.txt").read_bytes(), stem


def test_the_readme_library_example_prints_the_recorded_trace():
    """The README's Python block, run from the repository root, prints
    `scope.fs`'s readings and canonical traces as `derive --trace` does."""
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = readme.split("```python\n")[1:]
    code = block.split("```", 1)[0]
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, cwd=root, env=FRESH_ENV, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "scope.trace.txt").read_bytes()
