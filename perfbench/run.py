"""trsvi benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload bn10-desk --seed 1 --seconds 58 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(worker.py) so that its peak memory is its own.  With --trace 0 the last
line of standard output is a JSON object with every end-to-end metric
named in BENCHMARK.json; with --trace 1 it carries every per-layer metric.
--record FILE also appends the full result (environment included) to a
JSON-lines file that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# a run must end within 180 s; the worker gets what is left of that
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "trsvi" / "__init__.py", ROOT / workload.config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        return fail(f"not a trsvi checkout: missing {', '.join(missing)}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    spans = OUT / "spans" / f"{args.workload}-s{args.seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # One BLAS thread: the workload runs with one worker, and on a small
    # shared host a second BLAS thread waits on a core the host may be
    # lending elsewhere (evaluate_s was slower and shifted by a quarter
    # between sets of runs with two threads on two vCPUs).
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--result", str(work / "result.json"),
           "--spans", str(spans)]
    # a terminated benchmark takes its worker down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        return fail("workload did not finish in time", 3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            shutil.rmtree(work, ignore_errors=True)
    try:
        if rc != 0:
            return fail(f"worker exited with status {rc}", 4)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in result["metrics"]
    }
    correct = result["correct"] and len(metrics) == len(wanted)
    line = {"correct": correct, "attempted": max(result["attempted"], 1),
            "failed": result["failed"], "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {result['repetitions']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if "reason_holds" in result:
        print(f"workload reason holds: {result['reason_holds']} "
              f"({workload.reason}); spans recorded: {result['spans']}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if args.record:
        record = {k: result[k] for k in ("workload", "seed", "trace",
                                         "environment", "repetitions")}
        record["samples"] = result.get("samples", {})
        record["result"] = line
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
