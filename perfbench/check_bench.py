"""The benchmark's own tests.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's default test collection:
the tests that run workloads take several minutes.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = ("region.cells", "energy_kernel.offdiag_pairs", "energy_kernel.diag_pairs",
          "capacity_solver.fw_iterations", "capacity_solver.support_atoms",
          "stochastic_sim.forward_segments")
SEED = 5


def run_bench(workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """One untraced and two traced runs of every workload, at one seed."""
    return {(w["name"], trace, k): run_bench(w["name"], trace)
            for w in SPEC["workloads"] for trace, k in ((0, 0), (1, 0), (1, 1))}


def test_declared_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == \
        {w["name"] for w in SPEC["workloads"]}


def test_emitted_names_are_declared(results):
    declared = {0: {m["name"] for m in SPEC["end_to_end"]},
                1: {m["name"] for m in SPEC["per_layer"]}}
    for (workload, trace, _), res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, workload
        emitted = set(res["metrics"])
        assert all(NAME.fullmatch(n) for n in emitted)
        assert emitted == declared[trace], (workload, emitted ^ declared[trace])


def test_traced_counts_repeat_exactly(results):
    for w in SPEC["workloads"]:
        first = results[(w["name"], 1, 0)]["metrics"]
        second = results[(w["name"], 1, 1)]["metrics"]
        assert {c: first[c]["value"] for c in COUNTS} == \
            {c: second[c]["value"] for c in COUNTS}, w["name"]


def test_layer_self_times_cover_the_wall(results):
    for w in SPEC["workloads"]:
        m = results[(w["name"], 1, 0)]["metrics"]
        assert m["trace_coverage_frac"]["value"] >= 0.9, w["name"]


class _OneOp:
    def __init__(self, name, op):
        self.ops = [(name, op)]

    def operations(self):
        return self.ops


def test_negative_control_is_counted_as_failed(monkeypatch):
    op = workloads.ParticleMC(SEED)._survival_op
    outcomes = []
    harness.run_pass(_OneOp("survival", op), Tracer(False), outcomes)
    real = workloads.estimate_survival

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        t = min(out)
        out[t] = dataclasses.replace(out[t], p_hat=out[t].p_hat + 0.2)
        return out

    monkeypatch.setattr(workloads, "estimate_survival", corrupted)
    harness.run_pass(_OneOp("survival", op), Tracer(False), outcomes)
    assert [o["ok"] for o in outcomes] == [True, False]
    assert harness.ok_frac(outcomes) == 0.5


def test_raising_operation_is_counted_as_failed():
    def op(tracer):
        raise ValueError("boom")
    outcomes = []
    harness.run_pass(_OneOp("raises", op), Tracer(False), outcomes)
    assert not outcomes[0]["ok"] and "boom" in outcomes[0]["detail"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "particle-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
