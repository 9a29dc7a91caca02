"""Spans around the calls into each gluesem module, installed from outside.

A wrapper replaces a function under the name its caller looks up (for
example `gluesem.prover.normalize`, the name the prover resolves, rather than
`gluesem.terms.normalize`). Each call through a wrapper records one span: its
name, start, end, parent span and the id of the sentence being processed.
A call made while the innermost open span belongs to the same function (the
recursion of `GlueFormula.substitute_meanings`, say) is passed straight
through, so a span marks a crossing into a module and recursion is counted
once. Self time is a span's duration minus that of its child spans.

Spans are kept in flat arrays while tracing and aggregated (and written out)
afterwards; `restore` puts every wrapped name back.
"""

from __future__ import annotations

import gzip
import types
from array import array
from time import perf_counter


def _nodes(args, _result):
    return args[0].count(":[")  # every f-structure node is written `label:[`


def _entries(_args, lexicon):
    return len({id(entry) for entry in lexicon.values()})


def _length(_args, result):
    return len(result)


def _derived(result):
    # derive() returns its readings, or (readings, partials) for diagnostics.
    return result[0] if len(result) == 2 and isinstance(result[1], list) else result


def _readings(_args, result):
    return len(_derived(result))


def _derivations(_args, result):
    return sum(len(r.traces) for r in _derived(result))


# (owner path, attribute, span name, {count name: count function}).
# An owner path names a module, a class in it ("module:Class") or, with
# "module/attr", a module object that another module refers to by name.
TARGETS = [
    ("gluesem.fstruct", "tokenize", "lexer.tokenize", {"lexer.tokens": _length}),
    ("gluesem.lexicon", "tokenize", "lexer.tokenize", {"lexer.tokens": _length}),
    ("gluesem.termsyntax", "tokenize", "lexer.tokenize", {"lexer.tokens": _length}),
    ("gluesem", "parse_fstructure", "fstruct.parse", {"fstruct.nodes": _nodes}),
    ("gluesem.cli", "parse_fstructure", "fstruct.parse", {"fstruct.nodes": _nodes}),
    ("gluesem", "parse_lexicon", "lexicon.parse", {"lexicon.entries": _entries}),
    ("gluesem.cli", "parse_lexicon", "lexicon.parse", {"lexicon.entries": _entries}),
    ("gluesem.diagnostics", "premises", "lexicon.premises", {"lexicon.premises": _length}),
    ("gluesem.lexicon", "typecheck", "terms.typecheck", {}),
    ("gluesem.diagnostics", "derive", "prover.derive",
     {"prover.readings": _readings, "prover.derivations": _derivations}),
    ("gluesem", "diagnose", "diagnostics.diagnose", {}),
    ("gluesem.cli", "diagnose", "diagnostics.diagnose", {}),
    ("gluesem.cli", "run", "cli.run", {}),
    ("gluesem", "format_term", "terms.format_term", {}),
    ("gluesem.cli", "format_term", "terms.format_term", {}),
    ("gluesem.formulas:GlueFormula", "substitute_sem", "formulas.substitute_sem", {}),
    ("gluesem.formulas:GlueFormula", "substitute_meanings", "formulas.substitute_meanings", {}),
    ("gluesem.formulas/terms", "substitute", "terms.substitute", {}),
    ("gluesem.formulas/terms", "free_vars", "terms.free_vars", {}),
    ("gluesem.formulas/terms", "format_term", "terms.format_term", {}),
] + [
    ("gluesem.prover", fn, f"terms.{fn}", {})
    for fn in (
        "normalize", "substitute", "free_vars", "hyp_consts",
        "typecheck", "canonical_form", "format_term",
    )
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object, bool]] = []
        self.sentence = -1
        self.reset()

    def reset(self):
        """Drop recorded spans and counts."""
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_sentence = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.sentence_counts: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- installing wrappers ---------------------------------------------------

    def install(self, modules: dict[str, object]):
        """Wrap every target that exists; a name missing from this version of
        the program records nothing."""
        proxies: dict[str, types.SimpleNamespace] = {}
        for owner_path, attr, span, counters in TARGETS:
            owner = self._owner(owner_path, modules, proxies)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            own = isinstance(owner, type) and attr in vars(owner)
            self._restore.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(original, span, counters))
        for path, proxy in proxies.items():
            module_name, attr = path.split("/")
            module = modules[module_name]
            self._restore.append((module, attr, getattr(module, attr), False))
            setattr(module, attr, proxy)

    def _owner(self, path, modules, proxies):
        if "/" in path:
            module_name, attr = path.split("/")
            module = modules.get(module_name)
            if module is None or not hasattr(module, attr):
                return None
            if path not in proxies:
                target = getattr(module, attr)
                proxies[path] = types.SimpleNamespace(**{
                    k: getattr(target, k) for k in dir(target) if not k.startswith("__")
                })
            return proxies[path]
        module_name, _, class_name = path.partition(":")
        module = modules.get(module_name)
        if module is None:
            return None
        return getattr(module, class_name, None) if class_name else module

    def restore(self):
        for owner, attr, original, own in reversed(self._restore):
            if isinstance(owner, type) and not own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def wrap(self, fn, span: str, counters=None):
        """`fn` recording a span named `span`; each counter function maps
        (args, result) to an amount added to its count."""
        name_id = self.name_id(span)
        counted = list((counters or {}).items())
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.span_name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_sentence.append(tracer.sentence)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(index)
            tracer.span_start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = perf_counter()
                stack.pop()
            for count_name, count in counted:
                n = count(args, result)
                tracer.counts[count_name] = tracer.counts.get(count_name, 0) + n
                key = (tracer.sentence, count_name)
                tracer.sentence_counts[key] = tracer.sentence_counts.get(key, 0) + n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds; and per
        (sentence, span name): inclusive seconds."""
        n = len(self.span_name)
        starts = self.span_start
        children = array("d", bytes(8 * n))
        parent, end = self.span_parent, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - starts[i]
        per_name: dict[str, list[float]] = {}
        per_sentence: dict[tuple[int, str], float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = end[i] - starts[i]
            row = per_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - children[i]
            key = (self.span_sentence[i], name)
            per_sentence[key] = per_sentence.get(key, 0.0) + duration
        return per_name, per_sentence

    def write(self, path):
        """Write the recorded spans as gzipped tab-separated text."""
        starts = self.span_start
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tparent\tsentence\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_sentence[i]}\t{starts[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
