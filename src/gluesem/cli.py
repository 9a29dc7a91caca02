"""Command-line driver: parse an f-structure and a lexicon, derive readings,
print them (optionally with derivation traces) as text or stable JSON.

Exit status: 0 at least one reading; 2 incomplete; 3 incoherent; 4 both;
5 uninstantiable entry or missing lexicon entry; 1 bad input or a closed
output pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diagnostics import (
    INCOHERENT,
    INCOMPLETE,
    INCOMPLETE_INCOHERENT,
    OK,
    UNINSTANTIABLE,
    Diagnosis,
    diagnose,
)
from .errors import GlueError, MissingEntryError
from .fstruct import parse_fstructure, sigma
from .lexicon import parse_lexicon
from .node import Node
from .prover import Goal, Reading
from .semtypes import T, parse_type
from .terms import format_term

_EXIT_CODES = {
    OK: 0,
    INCOMPLETE: 2,
    INCOHERENT: 3,
    INCOMPLETE_INCOHERENT: 4,
    UNINSTANTIABLE: 5,
}


class RunConfig(Node, goal=None, trace=False, all_traces=False, json_output=False):
    __slots__ = ()
    # goal: (label, type text or None); None derives for the root at type t
    __match_args__ = (
        "fstructure_path", "lexicon_path", "goal", "trace", "all_traces", "json_output"
    )


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gluesem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    derive_cmd = sub.add_parser(
        "derive", help="derive the readings of an f-structure", add_help=True
    )
    derive_cmd.add_argument("--fstructure", required=True, help="f-structure file")
    derive_cmd.add_argument("--lexicon", required=True, help="lexicon file")
    derive_cmd.add_argument(
        "--goal",
        metavar="LABEL[:TYPE]",
        help="derive for this node's structure (default: the root, at type t)",
    )
    derive_cmd.add_argument(
        "--trace", action="store_true", help="print one derivation per reading"
    )
    derive_cmd.add_argument(
        "--all-traces",
        action="store_true",
        help="print every distinct derivation per reading",
    )
    derive_cmd.add_argument(
        "--json", action="store_true", help="structured output, stable byte-for-byte"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = RunConfig(
        fstructure_path=args.fstructure,
        lexicon_path=args.lexicon,
        goal=_parse_goal_option(args.goal) if args.goal else None,
        trace=args.trace,
        all_traces=args.all_traces,
        json_output=args.json,
    )
    try:
        code = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`gluesem derive ... | head -1`): point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _parse_goal_option(text: str) -> tuple[str, str | None]:
    # No colon means the default type; an empty type after one is an error.
    label, colon, ty = text.partition(":")
    return label, (ty if colon else None)


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        root, lexicon, goal = _load_inputs(config)
        diagnosis = diagnose(root, lexicon, goal, all_traces=config.all_traces)
    except MissingEntryError as exc:
        if config.json_output:
            missing = Diagnosis("missing-entry", note=str(exc))
            print(_stable_json(_payload(missing, config)), file=stdout)
        else:
            print(f"error: {exc}", file=stderr)
        return 5
    except (OSError, ValueError, GlueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    if config.json_output:
        print(_stable_json(_payload(diagnosis, config)), file=stdout)
    else:
        _print_text(diagnosis, config, stdout, stderr)
    return _EXIT_CODES[diagnosis.status]


def _load_inputs(config: RunConfig):
    fs_path = Path(config.fstructure_path)
    lex_path = Path(config.lexicon_path)
    root = parse_fstructure(fs_path.read_text(encoding="utf-8"), source=str(fs_path))
    lexicon = parse_lexicon(lex_path.read_text(encoding="utf-8"), source=str(lex_path))
    goal = None
    if config.goal is not None:
        label, ty_text = config.goal
        node = root.find_label(label)
        if node is None:
            raise ValueError(f"goal label '{label}' does not occur in {fs_path}")
        goal = Goal(sigma(node), parse_type(ty_text) if ty_text is not None else T)
    return root, lexicon, goal


def _print_text(diagnosis: Diagnosis, config: RunConfig, stdout, stderr):
    for reading in diagnosis.readings:
        print(format_term(reading.meaning), file=stdout)
        if config.all_traces:
            for i, trace in enumerate(reading.traces, start=1):
                print(f"  derivation {i}:", file=stdout)
                for step in trace:
                    print(f"    {step.line()}", file=stdout)
        elif config.trace:
            for step in reading.trace:
                print(f"  {step.line()}", file=stdout)
    if diagnosis.status != OK:
        print(str(diagnosis), file=stderr)


def _payload(diagnosis: Diagnosis, config: RunConfig) -> dict:
    return {
        "readings": [_reading_payload(r, config) for r in diagnosis.readings],
        "diagnosis": _diagnosis_payload(diagnosis),
    }


def _reading_payload(reading: Reading, config: RunConfig) -> dict:
    out = {
        "meaning": format_term(reading.meaning),
        "type": str(reading.ty),
    }
    if config.all_traces or config.trace:
        shown = reading.traces if config.all_traces else reading.traces[:1]
        traces = [[step.line() for step in trace] for trace in shown]
        out["trace"] = traces[0]
        if config.all_traces:
            out["traces"] = traces
    return out


def _diagnosis_payload(diagnosis: Diagnosis) -> dict:
    out: dict = {"status": diagnosis.status}
    out["unsatisfied_demands"] = [
        {"sem": d.sem, "type": d.ty, "needed_by": list(d.needed_by)}
        for d in diagnosis.unsatisfied_demands
    ]
    out["leftover_resources"] = [
        {"premise": l.index, "word": l.word} for l in diagnosis.leftover_resources
    ]
    if diagnosis.note:
        out["note"] = diagnosis.note
    return out


def _stable_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
