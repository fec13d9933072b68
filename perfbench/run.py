"""parcap benchmark: one workload, one JSON result on the last output line.

    python3 perfbench/run.py --workload slice-capacity --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload runs in a fresh child process
with PARCAP_THREADS, PARCAP_SEED and PARCAP_OUT removed from its environment
and ``src`` as its only import path for parcap. Untraced runs report the
end-to-end metrics; set-up time is the median over several fresh processes.
Traced runs report the per-layer metrics. The workloads are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("slice-capacity", "grid-capacity", "particle-mc", "operator-verify")
SCRUBBED_ENV = ("PARCAP_THREADS", "PARCAP_SEED", "PARCAP_OUT")
SETUP_PROBES = 5   # extra set-up-only processes per untraced run
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, deadline):
    """Run harness.py with ``args``; return the JSON on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "harness.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"child timed out: {args}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {args}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "parcap" / "__init__.py").is_file():
        print(f"parcap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            run_child(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        out = run_child(common, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result = out["result"]
    if not args.trace:
        setups.append(out["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"machine": out["machine"], "passes_s": out["passes_s"],
                      "setup_runs_s": setups, "failures": out["failures"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
