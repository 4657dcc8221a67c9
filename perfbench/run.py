"""palab's benchmark: time-to-verdict of four verification pipelines.

Run from the root of a palab checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mdep_bootstrap, gibbs_partition, ustat_partition, exact_lattice
(see README.md in this directory).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it gives the determinism digest; the full record of the run goes to
``.perfbench/records/``.

Each measurement runs in a fresh worker process (``worker.py``) so that its
peak RSS belongs to that workload alone; two more fresh processes only set up,
and ``setup_s`` is the median of the three set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mdep_bootstrap", "gibbs_partition", "ustat_partition", "exact_lattice")
SETUP_PROBES = 2
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 110  # with the set-ups, under the 180 s a run may take


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PAL_THREADS"] = "1"
    return env


def _worker(argv: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "palab", "cli.py")):
        print("perfbench: run from the root of a palab checkout (src/palab not found)", file=sys.stderr)
        return 2

    env = _child_env(root)
    scratch = os.path.join(root, ".perfbench")
    records = os.path.join(scratch, "records")
    os.makedirs(records, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", os.path.join(scratch, "work")]
    record = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        setups = [_worker(common + ["--setup-only"], env, SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                   "--record", record], env, MEASURE_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    for line in result["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]} for name, value in result["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_rate": {"value": 1.0 - result["failed"] / result["attempted"], "unit": "fraction"},
        }
    correct = result["failed"] == 0 and result["closure_ok"]
    print(f"perfbench: workload={args.workload} seed={args.seed} passes={len(result['walls'])} "
          f"digest={result['digest']} record={os.path.relpath(record, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
