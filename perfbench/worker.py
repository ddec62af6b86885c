"""One benchmark run of one workload, in a process of its own.

Started by run.py with `src` on PYTHONPATH.  Repeats the workload
(`trsvi run` then `trsvi evaluate`, both through `trsvi.cli.main`) until
the measured time is used up, checks every repetition's outputs, and writes
one JSON result file.  Untraced runs give the end-to-end metrics; traced
runs alternate untraced and traced repetitions and give the per-layer
metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import yaml

from trsvi import cli, experiment

from tracing import Tracer, install
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 5
PAPER_DRIVERS = ("tr-svi-at", "tr-svi-kl")


class Rep:
    """Timings and outputs of one repetition of a workload."""

    def __init__(self, seed: int):
        self.seed = seed                # particle-initialisation seed
        self.tasks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.times: dict[str, float] = {}
        self.hashes: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.finite = True


def run_once(seed: int, cfg_path: Path, out_dir: Path, particles: int,
             tracer: Tracer | None = None) -> Rep:
    rep = Rep(seed)
    original = experiment._run_task

    def timed_task(payload):
        rep.attempted += 1
        if tracer is not None:
            tracer.run_id += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = original(payload)
        except Exception:
            rep.failed += 1
            raise
        rep.tasks.append({
            "label": result["label"], "seed": result["seed"],
            "iterations": result["iterations"],
            "start": t0, "wall": time.perf_counter() - t0,
            "cpu": time.process_time() - c0,
        })
        return result

    experiment._run_task = timed_task
    if tracer is not None:
        install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(["run", "--config", str(cfg_path), "--output-dir",
                           str(out_dir), "--seed", str(seed), "--workers", "1"])
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.run_id += 1
            rc = rc or cli.main(["evaluate", "--artifact", str(out_dir)])
            t2 = time.perf_counter()
        if rc != 0:
            raise RuntimeError(f"trsvi exited with status {rc}")
    except Exception:
        rep.error = traceback.format_exc()
        return rep
    finally:
        experiment._run_task = original
        if tracer is not None:
            tracer.uninstall()

    rep.times = {
        "setup_s": rep.tasks[0]["start"] - t0,
        "methods_s": sum(t["wall"] for t in rep.tasks),
        "methods_cpu_s": sum(t["cpu"] for t in rep.tasks),
        "evaluate_s": t2 - t1,
        "total_s": t2 - t0,
    }
    for t in rep.tasks:
        rep.times[f"{t['label']}.iters_per_s"] = t["iterations"] / t["wall"]
    read_outputs(rep, out_dir, particles)
    shutil.rmtree(out_dir)
    return rep


def read_outputs(rep: Rep, out_dir: Path, particles: int) -> None:
    """Hash every deterministic file, check final samples, read quality."""
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "timings.csv":
            rel = path.relative_to(out_dir).as_posix()
            rep.hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    for t in rep.tasks:
        run_dir = out_dir / "runs" / t["label"] / f"seed_{t['seed']}"
        with open(run_dir / "final.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(v) for row in rows for v in row]
        rep.finite &= len(rows) == particles and all(map(math.isfinite, values))
        with open(run_dir / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        if t["label"] == "tr-svi-at":
            grads = [float(r["gradient_magnitude"]) for r in trace]
            rep.quality["grad_ratio.tr-svi-at"] = grads[-1] / grads[0]
        if t["label"] == "tr-svi-kl":
            accepted = sum(r["accepted"] == "true" for r in trace)
            rep.quality["kl.accept_share"] = accepted / len(trace)
    report = yaml.safe_load((out_dir / "metrics.yaml").read_text())
    for label in PAPER_DRIVERS:
        rep.quality[f"mmd.{label}"] = report["methods"][label]["per_seed"][0]


# -- per-layer metrics ---------------------------------------------------

# (metric, span name, span field); span fields are calls, s or self_s
SPAN_METRICS = [
    ("trustregion.solve_subproblems.s", "trustregion.solve_subproblems", "s"),
    ("trustregion.solve_subproblems.self_s", "trustregion.solve_subproblems", "self_s"),
    ("trustregion.solve_subproblems.calls", "trustregion.solve_subproblems", "calls"),
    ("trustregion.cg_steihaug.self_s", "trustregion.cg_steihaug", "self_s"),
    ("trustregion.cg_steihaug.calls", "trustregion.cg_steihaug", "calls"),
    ("trustregion.approx_kl.self_s", "trustregion.approx_kl", "self_s"),
    ("trustregion.approx_kl.calls", "trustregion.approx_kl", "calls"),
    ("stein.hessian_stack_from_context.self_s", "stein.hessian_stack_from_context", "self_s"),
    ("stein.hessian_stack_from_context.calls", "stein.hessian_stack_from_context", "calls"),
    ("stein.local_context.self_s", "stein.local_context", "self_s"),
    ("stein.global_context.self_s", "stein.global_context", "self_s"),
    ("stein.field_from_context.self_s", "stein.field_from_context", "self_s"),
    ("model.hessian_batch.self_s", "model.hessian_batch", "self_s"),
    ("model.hessian_batch.calls", "model.hessian_batch", "calls"),
    ("model.gradient_batch.self_s", "model.gradient_batch", "self_s"),
    ("model.log_density_batch.self_s", "model.log_density_batch", "self_s"),
    ("model.log_density.calls", "model.log_density", "calls"),
    ("model.ancestral_sample.self_s", "model.ancestral_sample", "self_s"),
    ("kernels.rbf_matrix.self_s", "kernels.rbf_matrix", "self_s"),
    ("kernels.rbf_matrix.calls", "kernels.rbf_matrix", "calls"),
    ("kernels.median_heuristic.self_s", "kernels.median_heuristic", "self_s"),
    ("kernels.median_heuristic.calls", "kernels.median_heuristic", "calls"),
    ("baselines.mp_svgd_step.self_s", "baselines.mp_svgd_step", "self_s"),
    ("baselines.svgd_step.self_s", "baselines.svgd_step", "self_s"),
    ("evaluation.mmd_reference_init.self_s", "evaluation.mmd_reference_init", "self_s"),
    ("evaluation.mmd_value.self_s", "evaluation.mmd_value", "self_s"),
    ("evaluation.metropolis_reference.s", "evaluation.metropolis_reference", "s"),
    ("evaluation.metropolis_reference.self_s", "evaluation.metropolis_reference", "self_s"),
    ("serialization.save_samples_csv.self_s", "serialization.save_samples_csv", "self_s"),
    ("serialization.load_samples_csv.self_s", "serialization.load_samples_csv", "self_s"),
    ("experiment.execute_method.self_s", "experiment.execute_method", "self_s"),
]


def layer_values(tracer: Tracer, rep: Rep) -> tuple[dict, dict]:
    """(timings, counts) of one traced repetition; counts must repeat."""
    agg = tracer.aggregate()
    timings, counts = {}, {}
    for metric, span, key in SPAN_METRICS:
        value = agg.get(span, {}).get(key, 0)
        (counts if key == "calls" else timings)[metric] = value
    c = tracer.counts
    statuses = c["cg.statuses"]
    counts["trustregion.cg.boundary_share"] = c["cg.boundary"] / statuses if statuses else 0.0
    counts["trustregion.cg.neg_curvature_share"] = c["cg.neg_curvature"] / statuses if statuses else 0.0
    counts["trustregion.kl.accept_share"] = rep.quality.get("kl.accept_share", 0.0)
    counts["stein.hessian_stack_from_context.out_bytes"] = c["hessian_stack.out_bytes"]
    counts["evaluation.metropolis.acceptance_rate"] = c["metropolis.acceptance_rate"]
    counts["serialization.save_samples_csv.rows"] = c["save_samples_csv.rows"]
    counts["serialization.load_samples_csv.rows"] = c["load_samples_csv.rows"]
    timings["experiment.methods_cpu_s"] = rep.times["methods_cpu_s"]
    return timings, counts


# self-time metrics of the layers that run inside (method, seed) runs
METHOD_LAYERS = (
    "stein.hessian_stack_from_context.self_s", "stein.local_context.self_s",
    "stein.global_context.self_s", "stein.field_from_context.self_s",
    "model.hessian_batch.self_s", "model.gradient_batch.self_s",
    "model.log_density_batch.self_s", "kernels.rbf_matrix.self_s",
    "trustregion.approx_kl.self_s", "baselines.mp_svgd_step.self_s",
    "experiment.execute_method.self_s",
)


def reason_holds(name: str, metrics: dict) -> bool:
    """Whether the run lengths keep the layer mix the workload stands for."""
    if name == "bn10-desk":
        cg = metrics["trustregion.solve_subproblems.s"]
        return all(cg > metrics[k] for k in METHOD_LAYERS)
    hs = metrics["stein.hessian_stack_from_context.self_s"]
    return all(hs >= metrics[k] for k in METHOD_LAYERS
               + ("trustregion.solve_subproblems.s",))


# -- environment ---------------------------------------------------------

def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


# -- main ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True,
                        help="where a traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    cfg = workload.derive(ROOT)
    seeds = workload.seeds(args.seed)
    cfg_path = work / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    particles = cfg["run"]["particles"]

    plain: list[Rep] = []
    traced: list[tuple[Rep, Tracer]] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    while True:
        # stop when the next repetition (a traced run: the next untraced and
        # traced pair) would likely end after the deadline
        left = deadline - time.perf_counter()
        if args.trace:
            # alternate untraced and traced repetitions; end on a pair
            enough = (plain and len(traced) == len(plain)
                      and left < statistics.median(durations[False])
                      + statistics.median(durations[True]))
            tracer = Tracer() if len(traced) < len(plain) else None
        else:
            enough = (len(plain) >= MIN_REPS
                      and left < statistics.median(durations[False]))
            tracer = None
        if enough:
            break
        # repetition i (a traced run: pair i) runs particle seed i mod k
        seed = seeds[(len(plain) if tracer is None else len(traced)) % len(seeds)]
        started = time.perf_counter()
        rep = run_once(seed, cfg_path, work / f"rep{len(plain) + len(traced)}",
                       particles, tracer)
        durations[tracer is not None].append(time.perf_counter() - started)
        if tracer is None:
            plain.append(rep)
        else:
            traced.append((rep, tracer))
        if rep.error:
            print(rep.error, file=sys.stderr)
            break

    reps = plain + [r for r, _ in traced]
    ok = all(r.error is None and r.finite for r in reps)
    problems = []
    if not ok:
        problems.append("a repetition failed or wrote non-finite samples")
    else:
        # repetitions of one particle seed must agree exactly
        first = {}
        for r in reps:
            first.setdefault(r.seed, r)
        if any(r.hashes != first[r.seed].hashes for r in reps):
            problems.append("output files differ between repetitions"
                            + (" (traced vs untraced)" if traced else ""))
        if any(r.quality != first[r.seed].quality for r in reps):
            problems.append("deterministic metrics differ between repetitions")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "environment": environment(),
        "metrics": {},
    }
    metrics = result["metrics"]
    if ok and not args.trace:
        keys = ["setup_s", "methods_s", "evaluate_s", "total_s"]
        keys += [f"{label}.iters_per_s" for label in PAPER_DRIVERS]
        result["samples"] = {k: [r.times[k] for r in plain] for k in keys}
        for key in keys:
            metrics[key] = statistics.median(result["samples"][key])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif ok:
        layers = [layer_values(t, r) for r, t in traced]
        first_counts = {}
        for (r, _), (_, counts) in zip(traced, layers):
            if first_counts.setdefault(r.seed, counts) != counts:
                problems.append("per-layer counts differ between traced "
                                "repetitions")
                break
        for key in layers[0][0]:
            metrics[key] = statistics.median([timings[key] for timings, _ in layers])
        metrics.update(layers[0][1])
        for key in ("mmd.tr-svi-at", "mmd.tr-svi-kl", "grad_ratio.tr-svi-at"):
            metrics[key] = reps[0].quality[key]
        untraced_total = statistics.median([r.times["total_s"] for r in plain])
        traced_total = statistics.median([r.times["total_s"] for r, _ in traced])
        metrics["tracing.overhead_s"] = traced_total - untraced_total
        metrics["tracing.overhead_share"] = traced_total / untraced_total - 1.0
        result["reason_holds"] = reason_holds(args.workload, metrics)
        result["spans"] = len(traced[-1][1].start)
        traced[-1][1].save(args.spans)
    result["correct"] = ok and not problems
    result["problems"] = problems
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
