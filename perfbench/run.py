"""gluesem benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload {corpus,scope_grid,failures} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; gluesem is imported from the checkout's
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured with no wrappers installed; with
`--trace 1` they are the per-layer ones, from passes run under the tracer
next to untraced passes of the same sentences. Every verdict is checked
against the answer built in `workloads.py`; any mismatch, exception or
sentence over the time limit makes the exit status 1. `--smoke` runs each
workload at its smallest size, to check that it works, not how fast.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import REFERENCE_S, Speed, reference_median
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SENTENCE_LIMIT_S = 10.0  # a verdict slower than this is cut off and counts as an error
RUN_LIMIT_S = 150.0  # a run still going after this long stops and fails
RUN_DEADLINE = perf_counter() + RUN_LIMIT_S
SETUP_LAUNCHES = 9
BYTECODE = "cached (private pycache prefix, filled by one untimed launch)"
SMOKE_SIZES = {
    "corpus": {"per_shape": 1},
    "scope_grid": {"cells": {cell: 1 for cell in workloads.GRID_CELLS}},
    "failures": {"kinds": {kind: 2 for kind in workloads.FAILURE_KINDS}},
}


def load_gluesem():
    src = ROOT / "src"
    if not (src / "gluesem" / "__init__.py").is_file():
        raise SystemExit(f"error: no gluesem package under {src}")
    sys.path.insert(0, str(src))
    import gluesem
    import gluesem.cli

    if Path(gluesem.__file__).resolve().parent != (src / "gluesem").resolve():
        raise SystemExit(f"error: imported gluesem from {gluesem.__file__}, not {src}")
    return gluesem


# ---------------------------------------------------------------------------
# Callers.


class LibraryCaller:
    """A parser pipeline: parse the lexicon once, then for each sentence parse
    the f-structure, diagnose it and render a `--json --trace`-shaped
    document."""

    def __init__(self, gluesem, workload: workloads.Workload):
        self.gluesem = gluesem
        self.lexicon_text = workload.lexicon_text
        self.lexicon = None

    def load_lexicon(self):
        self.lexicon = self.gluesem.parse_lexicon(self.lexicon_text)

    def verdict(self, sentence):
        g = self.gluesem
        diagnosis = g.diagnose(g.parse_fstructure(sentence.text), self.lexicon)
        return None, self.render(diagnosis)

    def render(self, diagnosis) -> str:
        payload = {
            "readings": [
                {
                    "meaning": self.gluesem.format_term(r.meaning),
                    "type": str(r.ty),
                    "trace": [step.line() for step in r.trace],
                }
                for r in diagnosis.readings
            ],
            "diagnosis": {
                "status": diagnosis.status,
                "unsatisfied_demands": [
                    {"sem": d.sem, "type": d.ty, "needed_by": list(d.needed_by)}
                    for d in diagnosis.unsatisfied_demands
                ],
                "leftover_resources": [
                    {"premise": l.index, "word": l.word} for l in diagnosis.leftover_resources
                ],
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


class CliCaller:
    """A grammar-writer's test run: `gluesem.cli.run` with `--json` on an
    f-structure file and the lexicon file, once per sentence."""

    def __init__(self, gluesem, workload: workloads.Workload, scratch: Path, lexicon_path: Path):
        self.gluesem = gluesem
        self.lexicon_path = lexicon_path
        self.paths = {}
        for s in workload.sentences:
            path = scratch / f"s{s.sid}.fs"
            path.write_text(s.text, encoding="utf-8")
            self.paths[s.sid] = str(path)

    def load_lexicon(self):
        pass  # every run() call reads and parses the lexicon itself

    def verdict(self, sentence):
        cli = self.gluesem.cli
        out, err = io.StringIO(), io.StringIO()
        config = cli.RunConfig(
            fstructure_path=self.paths[sentence.sid],
            lexicon_path=str(self.lexicon_path),
            json_output=True,
        )
        code = cli.run(config, stdout=out, stderr=err)
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# Passes and checks.


class SentenceTimeout(Exception):
    pass


class RunTimeout(Exception):
    pass


def _cut_off(signum, frame):
    raise SentenceTimeout(f"no verdict within {SENTENCE_LIMIT_S} s")


@dataclass
class Pass:
    wall_s: float
    latencies: list
    ends: list  # perf_counter() at the end of each verdict
    results: list  # (sentence, exit code, document or exception text)


def run_pass(caller, sentences, tracer=None, with_lexicon=False, speed=None) -> Pass:
    latencies, ends, results = [], [], []
    if speed:
        speed.sample()
    start = perf_counter()
    if with_lexicon:
        if tracer:
            tracer.sentence = -1
        caller.load_lexicon()
    for sentence in sentences:
        if tracer:
            tracer.sentence = sentence.sid
        signal.setitimer(signal.ITIMER_REAL, SENTENCE_LIMIT_S)
        t0 = perf_counter()
        try:
            try:
                code, document = caller.verdict(sentence)
            finally:
                t1 = perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception:  # an exception is a wrong verdict, not a crash
            code, document = None, traceback.format_exc()
        latencies.append(t1 - t0)
        ends.append(t1)
        results.append((sentence, code, document))
        if t1 > RUN_DEADLINE:
            raise RunTimeout(f"run still going after {RUN_LIMIT_S} s")
        if speed:
            speed.maybe_sample()
    wall = perf_counter() - start
    if speed:
        speed.sample()
    return Pass(wall, latencies, ends, results)


def judge(sentence, code, document, latency):
    """Number of readings delivered, or an error message."""
    if document.startswith("Traceback"):
        return "raised " + document.strip().splitlines()[-1]
    try:
        doc = json.loads(document)
        diagnosis = doc["diagnosis"]
        got = (
            diagnosis["status"],
            tuple(sorted(r["meaning"] for r in doc["readings"])),
            tuple(
                (d["sem"], d["type"], tuple(n.split("[")[0] for n in d["needed_by"]))
                for d in diagnosis.get("unsatisfied_demands", [])
            ),
            tuple(sorted(l["word"] for l in diagnosis.get("leftover_resources", []))),
        )
    except (ValueError, KeyError, TypeError) as exc:
        lines = document.strip().splitlines()
        return f"unreadable output ({exc!r}): {lines[-1] if lines else ''}"
    expected = sentence.expected
    want = (expected.status, expected.readings, expected.demands, expected.leftovers)
    if got[0] != want[0] or got[2:] != want[2:]:
        return f"diagnosis {got[0]} {got[2:]}, expected {want[0]} {want[2:]}"
    if got[1] != want[1]:
        missing = sorted(set(want[1]) - set(got[1]))[:2]
        unexpected = sorted(set(got[1]) - set(want[1]))[:2]
        return (f"{len(got[1])} readings, expected {len(want[1])}; "
                f"missing {missing}, unexpected {unexpected}")
    if code is not None and code != expected.exit_code:
        return f"exit code {code}, expected {expected.exit_code}"
    if latency > SENTENCE_LIMIT_S:
        return f"took {latency:.1f} s, over the {SENTENCE_LIMIT_S} s limit"
    return len(doc["readings"])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.output_bytes = 0  # of the last pass checked

    def check(self, result: Pass):
        readings = output = 0
        for (sentence, code, document), latency in zip(result.results, result.latencies):
            self.attempted += 1
            verdict = judge(sentence, code, document, latency)
            if isinstance(verdict, str):
                self.errors.append(f"sentence {sentence.sid} ({sentence.group}): {verdict}")
            else:
                readings += verdict
            output += len(document.encode("utf-8"))
        self.output_bytes = output
        return readings


# ---------------------------------------------------------------------------
# Measurements.


def measure_setup(lexicon_path: Path, scratch: Path, launches: int):
    """Median seconds from launching a fresh interpreter to gluesem imported
    and the lexicon parsed, as measured and scaled to reference speed. The
    bytecode cache is private to the run and filled by one untimed launch."""
    command = [
        sys.executable, "-I", "-X", f"pycache_prefix={scratch / 'pycache'}",
        str(HERE / "probe_setup.py"), str(ROOT / "src"), str(lexicon_path),
    ]
    times, scaled = [], []
    for launch in range(launches + 1):
        before = reference_median()
        start = perf_counter()
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=60)
        report = child.stdout.split()
        if child.returncode != 0 or len(report) != 5:
            raise RuntimeError(f"set-up probe failed with status {child.returncode}")
        imported, after_import, parse_s, after_parse = map(float, report[:4])
        if launch == 0:
            continue  # fills the bytecode cache
        import_s = imported - start
        times.append(import_s + parse_s)
        scaled.append(
            import_s * REFERENCE_S / ((before + after_import) / 2)
            + parse_s * REFERENCE_S / ((after_import + after_parse) / 2)
        )
    return statistics.median(times), statistics.median(scaled)


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_passes(caller, workload, seconds, tally, speed):
    """Whole passes until the next one would end past `seconds`, give or
    take half a pass; returns the passes and the readings they delivered."""
    passes, readings = [], 0
    start = perf_counter()
    while True:
        result = run_pass(caller, workload.sentences, speed=speed)
        readings += tally.check(result)
        result.results = None  # keep memory to one pass's documents
        passes.append(result)
        if perf_counter() - start + result.wall_s / 2 >= seconds:
            return passes, readings


def end_to_end(workload, caller, args, scratch, lexicon_path, tally):
    setup_raw, setup_s = measure_setup(lexicon_path, scratch, SETUP_LAUNCHES)
    caller.load_lexicon()
    speed = Speed()
    tally.check(run_pass(caller, workload.warmup, speed=speed))
    passes, readings = timed_passes(caller, workload, args.seconds, tally, speed)
    raw = [t for p in passes for t in p.latencies]
    latencies = [speed.scale(t, end) for p in passes for t, end in zip(p.latencies, p.ends)]
    busy = sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"# {len(passes)} timed passes of {len(workload.sentences)} sentences, "
        f"{len(raw)} latency samples, {sum(p.wall_s for p in passes):.2f} s wall; "
        f"reference loop median {statistics.median(speed.samples) * 1000:.3f} ms "
        f"(nominal {REFERENCE_S * 1000:g} ms)"
    )
    print(
        f"# as measured: setup_s {setup_raw:.4f}, sentences_per_s {len(raw) / sum(raw):.3f}, "
        f"sentence_ms_p50 {1000 * statistics.median(raw):.4f}, "
        f"sentence_ms_p90 {1000 * percentile(raw, 90):.4f}"
    )
    return {
        "setup_s": (setup_s, "s"),
        "sentences_per_s": (len(latencies) / busy, "1/s"),
        "readings_per_s": (readings / busy, "1/s"),
        "sentence_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "sentence_ms_p90": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


LAYER_TIMES = {  # metric -> span name, inclusive seconds
    "fstruct.parse_s": "fstruct.parse",
    "lexer.tokenize_s": "lexer.tokenize",
    "lexicon.parse_s": "lexicon.parse",
    "lexicon.premises_s": "lexicon.premises",
    "prover.derive_s": "prover.derive",
    "diagnostics.diagnose_s": "diagnostics.diagnose",
}
LAYER_COUNTS = [
    "fstruct.nodes", "lexer.tokens", "lexicon.entries", "lexicon.premises",
    "prover.readings", "prover.derivations",
]
TERM_CALLS = [
    "normalize", "substitute", "free_vars", "hyp_consts",
    "typecheck", "canonical_form", "format_term",
]


def layer_metrics(tracer: Tracer, per_name, output_bytes: int):
    """Per-layer times (seconds per pass) and counts (per pass) of the
    tracer's current pass."""

    def calls(name):
        return per_name.get(name, (0, 0.0, 0.0))[0]

    def self_s(layer):
        return sum(row[2] for name, row in per_name.items() if name.startswith(layer + "."))

    times = {m: per_name.get(span, (0, 0.0, 0.0))[1] for m, span in LAYER_TIMES.items()}
    for layer in ("terms", "formulas", "diagnostics"):
        times[f"{layer}.self_s"] = self_s(layer)
    times["cli.run_self_s"] = self_s("cli")
    counts = {c: tracer.counts.get(c, 0) for c in LAYER_COUNTS}
    counts["prover.derive_calls"] = calls("prover.derive")
    counts["diagnostics.diagnose_calls"] = calls("diagnostics.diagnose")
    counts["cli.output_bytes"] = output_bytes
    for fn in TERM_CALLS:
        counts[f"terms.{fn}_calls"] = calls(f"terms.{fn}")
    for fn in ("substitute_sem", "substitute_meanings"):
        counts[f"formulas.{fn}_calls"] = calls(f"formulas.{fn}")
    return times, counts


def group_rows(workload, tracer: Tracer, per_sentence):
    """Per shape, grid cell or failure kind: sentences, readings and
    derivations counted in the prover, and the median prover.derive_s."""
    rows = {}
    for s in workload.sentences:
        row = rows.setdefault(s.group, {"sentences": 0, "readings": 0, "derivations": 0,
                                        "expected_readings": 0, "expected_derivations": 0,
                                        "derive_s": []})
        row["sentences"] += 1
        row["readings"] += tracer.sentence_counts.get((s.sid, "prover.readings"), 0)
        row["derivations"] += tracer.sentence_counts.get((s.sid, "prover.derivations"), 0)
        row["expected_readings"] += len(s.expected.readings)
        row["expected_derivations"] += s.derivations
        row["derive_s"].append(per_sentence.get((s.sid, "prover.derive"), 0.0))
    return rows


def per_layer(workload, caller, args, tally):
    tracer = Tracer()
    caller.load_lexicon()
    tally.check(run_pass(caller, workload.warmup))
    untraced, traced, counts_seen, times_seen = [], [], [], []
    start = perf_counter()
    speed = Speed()

    def scaled_s(result):
        return sum(speed.scale(t, end) for t, end in zip(result.latencies, result.ends))

    while perf_counter() - start < args.seconds or len(traced) < 2:
        result = run_pass(caller, workload.sentences, with_lexicon=True, speed=speed)
        tally.check(result)
        untraced.append(scaled_s(result))

        tracer.reset()
        tracer.install(sys.modules)
        if isinstance(caller, LibraryCaller):
            caller.render = tracer.wrap(caller.render, "cli.render")
        try:
            result = run_pass(caller, workload.sentences, tracer, with_lexicon=True, speed=speed)
        finally:
            tracer.restore()
            vars(caller).pop("render", None)
        tally.check(result)
        traced.append(scaled_s(result))
        per_name, per_sentence = tracer.summary()
        times, counts = layer_metrics(tracer, per_name, tally.output_bytes)
        times_seen.append(times)
        counts_seen.append((counts, tracer.sentence_counts))
        rows = group_rows(workload, tracer, per_sentence)

    for i, seen in enumerate(counts_seen[1:], start=2):
        if seen != counts_seen[0]:
            tally.errors.append(f"traced pass {i} counted differently from pass 1")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"# {len(traced)} traced and {len(untraced)} untraced passes; "
          f"{len(tracer.span_name)} spans of the last traced pass in {spans_path.relative_to(ROOT)}")
    print("# group: sentences, readings (expected), derivations (closed form), "
          "median prover.derive_s per sentence")
    for group, row in sorted(rows.items()):
        print(
            f"# {group}: {row['sentences']}, {row['readings']} ({row['expected_readings']}), "
            f"{row['derivations']} ({row['expected_derivations']}), "
            f"{statistics.median(row['derive_s']):.6f}"
        )

    counts = counts_seen[0][0]
    metrics = {m: (statistics.median(t[m] for t in times_seen), "s") for m in times_seen[0]}
    for name, value in counts.items():
        if name != "diagnostics.diagnose_calls":
            metrics[name] = (value, "bytes" if name == "cli.output_bytes" else "count")
    metrics["prover.derivations_per_reading"] = (
        counts["prover.derivations"] / max(counts["prover.readings"], 1), "ratio")
    metrics["diagnostics.searches_per_diagnosis"] = (
        counts["prover.derive_calls"] / max(counts["diagnostics.diagnose_calls"], 1), "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, one pass")
    args = parser.parse_args(argv)

    gluesem = load_gluesem()
    sizes = SMOKE_SIZES[args.workload] if args.smoke else {}
    workload = workloads.WORKLOADS[args.workload](args.seed, **sizes)
    print(
        f"# {platform.python_implementation()} {platform.python_version()}; "
        f"set-up bytecode {BYTECODE}; workload {workload.name}, seed {args.seed}, "
        f"{len(workload.sentences)} sentences per pass, closed loop, one caller"
    )
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    signal.signal(signal.SIGALRM, _cut_off)
    tally = Tally()
    metrics = {}
    try:
        lexicon_path = scratch / "lexicon.lex"
        lexicon_path.write_text(workload.lexicon_text, encoding="utf-8")
        if workload.via_cli:
            caller = CliCaller(gluesem, workload, scratch, lexicon_path)
        else:
            caller = LibraryCaller(gluesem, workload)
        if args.trace:
            metrics = per_layer(workload, caller, args, tally)
        else:
            metrics = end_to_end(workload, caller, args, scratch, lexicon_path, tally)
    except RunTimeout as exc:
        tally.errors.append(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in tally.errors[:20]:
        print(f"# ERROR {error}", file=sys.stderr)
    print(f"# error_rate {len(tally.errors) / max(tally.attempted, 1)} "
          f"({len(tally.errors)} of {tally.attempted} verdicts wrong)")
    correct = not tally.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
