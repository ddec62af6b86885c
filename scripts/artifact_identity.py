#!/usr/bin/env python3
"""Check that this checkout writes byte-identical artifacts to another tree.

    python3 scripts/artifact_identity.py --parent ../trsvi-parent \
        [--expect-differ metrics.yaml ...] [--work DIR]

--parent is a second source tree, for example a `git archive` of the parent
commit unpacked beside this one.  Each tree's own `trsvi` (its `src` on
PYTHONPATH) runs one fixed set of experiments:

- the four bundled configs with all seven methods cut to 3 iterations,
  run seeds 0 and 1, a 1500-row ground truth (for snlp_large, which has
  none, from the chain the snlp50-large workload adds) and MMD on;
- both benchmark workloads' derived configs (perfbench/workloads.py of this
  checkout) at the particle seeds of benchmark seed 0.

Each experiment runs with `--workers 1` and `--workers 2`, and then
`trsvi evaluate` rewrites its metrics.  Every file except timings.csv is
compared against the parent's one-worker artifact: the first differing
file and byte are printed.  Files named by --expect-differ (glob patterns
over the path inside an artifact, such as `metrics.yaml` or `runs/*/*/
trace.csv`) may differ between the trees, but never between one tree's
worker counts.  Exit status 0: identical; 1: a difference; 2: a run failed.
"""

from __future__ import annotations

import argparse
import copy
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

BUNDLED = ("bn10_desk", "bn30_paper", "snlp_small", "snlp_large")
METHODS = ("tr-svi-at", "tr-svi-kl", "mp-svgd-static", "mp-svgd-dlr",
           "mp-svgd-ag", "svgd", "svn-ctr")
IGNORED = {"timings.csv"}


def experiments() -> dict[str, dict]:
    """The fixed set of configs, by name."""
    configs = {}
    for name in BUNDLED:
        cfg = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
        cfg["method"] = [{"name": m, "iterations": 3} for m in METHODS]
        cfg["run"]["seeds"] = [0, 1]
        output = cfg.setdefault("output", {})
        # a config without a ground truth takes the benchmark's SNLP chain
        output.setdefault("ground_truth", dict(
            WORKLOADS["snlp50-large"].output["ground_truth"]))["samples"] = 1500
        output["mmd"] = True
        configs[name] = cfg
    for name, workload in WORKLOADS.items():
        cfg = copy.deepcopy(workload.derive(ROOT))
        cfg["run"]["seeds"] = workload.seeds(0)
        configs[name] = cfg
    return configs


def run_tree(tree: Path, config: Path, out: Path, workers: int) -> None:
    """`trsvi run` then `trsvi evaluate` with the tree's own package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    for args in (["run", "--config", str(config), "--output-dir", str(out),
                  "--workers", str(workers)],
                 ["evaluate", "--artifact", str(out)]):
        done = subprocess.run([sys.executable, "-m", "trsvi.cli", *args],
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{tree}: trsvi {args[0]} exited "
                               f"{done.returncode}\n{done.stderr}")


def files(artifact: Path) -> dict[str, Path]:
    return {p.relative_to(artifact).as_posix(): p
            for p in sorted(artifact.rglob("*"))
            if p.is_file() and p.name not in IGNORED}


def first_difference(a: Path, b: Path, expected=()) -> str | None:
    """Where artifact b first differs from artifact a, or None."""
    fa, fb = files(a), files(b)
    for rel in sorted(fa.keys() | fb.keys()):
        if any(fnmatch.fnmatchcase(rel, pattern) for pattern in expected):
            continue
        if rel not in fa or rel not in fb:
            return f"{rel}: only in {a if rel in fa else b}"
        da, db = fa[rel].read_bytes(), fb[rel].read_bytes()
        if da != db:
            at = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y),
                      min(len(da), len(db)))
            return f"{rel}: first differs at byte {at}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path,
                        help="the other source tree")
    parser.add_argument("--expect-differ", nargs="*", default=[],
                        metavar="PATTERN",
                        help="artifact files that may differ between trees")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the artifacts in this new directory")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "trsvi" / "__init__.py").is_file():
        parser.error(f"{parent} is not a trsvi source tree")
    if args.work is not None and args.work.exists():
        parser.error(f"{args.work} exists")
    work = args.work or Path(tempfile.mkdtemp(prefix="artifact-identity-"))
    work.mkdir(parents=True, exist_ok=True)
    trees = {"parent": parent, "change": ROOT}
    status = 0
    try:
        for name, cfg in experiments().items():
            config = work / f"{name}.yaml"
            config.write_text(yaml.safe_dump(cfg))
            out = {}
            for side, tree in trees.items():
                for workers in (1, 2):
                    out[side, workers] = work / side / f"{name}-w{workers}"
                    run_tree(tree, config, out[side, workers], workers)
            checks = [(("parent", 1), ("parent", 2), ()),
                      (("change", 1), ("change", 2), ()),
                      (("parent", 1), ("change", 1), args.expect_differ)]
            found = [f"{a[0]} w{a[1]} vs {b[0]} w{b[1]}: {diff}"
                     for a, b, expected in checks
                     if (diff := first_difference(out[a], out[b], expected))]
            count = len(files(out["parent", 1]))
            print(f"{name}: " + ("; ".join(found) if found else
                                 f"{count} files identical"), flush=True)
            status = status or (1 if found else 0)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
