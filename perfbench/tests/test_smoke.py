"""Smoke test for the benchmark: each workload at its smallest size, with the
correctness checks on, traced and untraced. It checks that the benchmark
runs and agrees with its independent answers, not how fast anything is.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_matches_its_answers(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_counts_repeat_across_runs():
    def counts():
        proc = _run("scope_grid", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"
                and k != "trace.overhead_ratio"}

    assert counts() == counts()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("failures", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_enumerated_readings_follow_the_closed_form():
    quants = [workloads.Quant("every", "candidate", "u"), workloads.Quant("a", "manager", "v")]
    readings = workloads.enumerate_readings("appoint", ["u", "v"], quants, "obviously", 2)
    assert len(readings) == 12  # (2+2)!/2!
    assert "obviously(every(candidate, \\u. a(manager, \\v. obviously(appoint(u, v)))))" in readings


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(ROOT / "src"))
    import gluesem.cli  # noqa: F401
    from gluesem.formulas import GlueFormula

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("gluesem")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    class_before = dict(vars(GlueFormula))
    tracer = Tracer()
    tracer.install(sys.modules)
    assert sys.modules["gluesem.prover"].normalize is not before["gluesem.prover"]["normalize"]
    tracer.restore()
    for name, mod in modules.items():
        assert dict(vars(mod)) == before[name], name
    assert dict(vars(GlueFormula)) == class_before
