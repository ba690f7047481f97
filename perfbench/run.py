#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The script builds perfbench/ (which
compiles the library from src/) into .bench_build/perfbench, writes the
seeded inputs under .bench_out/, runs the workload, and passes its output
through.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  Any other outcome exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("paper-sweep", "serve-hot", "serve-churn")
RUN_TIMEOUT_S = 170  # all of a run after the build
PROBE_SECONDS = 2.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / build_root / "perfbench").resolve()
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def check_result(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # The program sees only the inputs and settings the benchmark gives it.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PASTA_", "OMP_", "GOMP_"))}
    data = ROOT / ".bench_out" / f"run-{os.getpid()}"
    data.mkdir(parents=True, exist_ok=True)
    seed, sha = str(args.seed), git_sha()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def time_left():
        return max(1.0, deadline - time.monotonic())

    def run_workload(workload, seconds):
        return subprocess.run(
            [str(binary), "run", "--workload", workload, "--seed", seed,
             "--seconds", repr(seconds), "--trace", str(args.trace),
             "--data", str(data), "--sha", sha],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=time_left())

    runs = [args.workload]
    if args.trace:
        # A traced run reports every per-layer metric: the layers this
        # workload does not exercise come from a short traced run of the
        # workload that does, in a process of its own so that each keeps
        # its own thread budget.
        runs.append("serve-hot" if args.workload == "paper-sweep" else "paper-sweep")
    results, outputs = [], []
    try:
        if "paper-sweep" in runs:
            subprocess.run([str(binary), "gen", "--seed", seed, "--out", str(data)],
                           check=True, env=env, cwd=ROOT, timeout=time_left())
        for i, workload in enumerate(runs):
            proc = run_workload(workload, args.seconds if i == 0 else PROBE_SECONDS)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.rstrip("\n").split("\n")
            outputs.append(("" if i == 0 else f"probe {workload}:\n") +
                           "\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines[-1].startswith("{"):
                sys.stdout.write("".join(outputs) + lines[-1] + "\n")
                fail(f"{workload} exited with code {proc.returncode} and no result", 1)
            results.append(json.loads(lines[-1]))
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"could not run the benchmark: {e}", 1)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    # The workload's own figures win over the probe's.
    metrics = {}
    for r in reversed(results):
        metrics.update(r["metrics"])
    result = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    sys.stdout.write("".join(outputs))
    problem = check_result(result, args.trace == 1)
    if problem:
        fail(problem, 3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
