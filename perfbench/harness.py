"""One workload run in a fresh process; started by run.py.

Set-up time runs from the top of this file, before parcap is imported, to
the end of the warm-up. An untraced run then repeats the workload's fixed
operation list for as many whole passes as fit in ``--seconds`` (at least
one) and reports the median pass. A traced run makes one bare pass, one pass
with spans, and then the workload's per-layer probes.

The last line of standard output is one JSON object for run.py: the result,
the set-up time, the machine block and the per-operation outcomes.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "PARCAP_THREADS")
# energy_kernel runs only inside capacity_solver calls, so it has no span of its own
LAYERS = ("region", "capacity_solver", "stochastic_sim", "hermite_ops")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_pass(workload, tracer, outcomes):
    for name, op in workload.operations():
        tracer.op = name
        try:
            checks = op(tracer)
        except Exception:  # an operation that raises is a failed operation
            checks = [(False, traceback.format_exc(limit=3).strip())]
        outcomes.append({"op": name, "ok": all(ok for ok, _ in checks),
                         "detail": "; ".join(d for _, d in checks)})


def timed_pass(workload, tracer, outcomes):
    t = perf_counter()
    run_pass(workload, tracer, outcomes)
    return perf_counter() - t


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ok_frac(outcomes):
    return sum(o["ok"] for o in outcomes) / len(outcomes)


def untraced_metrics(workload, seconds, outcomes):
    passes = []
    start = perf_counter()
    while True:
        passes.append(timed_pass(workload, Tracer(False), outcomes))
        if perf_counter() - start + statistics.median(passes) > seconds:
            break
    return {"wall_s": statistics.median(passes), "peak_rss_mb": peak_rss_mb(),
            "ok_frac": ok_frac(outcomes)}, passes


def traced_metrics(workload, outcomes):
    bare = timed_pass(workload, Tracer(False), outcomes)
    tracer = Tracer(True)
    spanned = timed_pass(workload, tracer, outcomes)
    self_s = tracer.seconds_by(lambda s: s.layer)
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics["trace_overhead_frac"] = (spanned - bare) / bare
    metrics["trace_coverage_frac"] = sum(self_s.values()) / spanned
    metrics.update(workload.probe(tracer))
    return metrics, [bare, spanned]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block(seed):
    import numpy as np
    from parcap import runtime
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload_seed": seed,
        "runtime_threads": runtime.get_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loop": "closed loop, one client, operations back to back",
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from workloads import WORKLOADS  # imports parcap
    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    end_to_end, per_layer = declared_metrics()
    outcomes = []
    if args.trace:
        values, passes = traced_metrics(workload, outcomes)
        units = per_layer
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # a layer metric this workload does not exercise reads 0
        values = {name: values.get(name, 0) for name in units}
    else:
        values, passes = untraced_metrics(workload, args.seconds, outcomes)
        units = end_to_end
    failed = sum(not o["ok"] for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    for o in outcomes[:len(workload.operations())]:
        print(f"[{args.workload}] {o['op']}: {'ok' if o['ok'] else 'FAILED'} - {o['detail']}",
              file=sys.stderr)
    print(json.dumps({"result": result, "setup_s": setup_s, "passes_s": passes,
                      "machine": machine_block(args.seed),
                      "failures": [o for o in outcomes if not o["ok"]]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
