"""Spread of recorded benchmark runs, or a parent-versus-change comparison.

    python3 perfbench/compare.py runs.jsonl              # spread per metric
    python3 perfbench/compare.py parent.jsonl change.jsonl

Records are the JSON lines that `run.py --record FILE` appends.  Spread
mode prints, per workload and metric, the run count, median, quartiles and
the quartile distance as a share of the median, against the metric's bound.
Compare mode pairs runs by seed and gives both sides' median and quartiles,
the ratio change/parent and a verdict:

  better        the change wins at least nine tenths of the seed pairs and
                the medians differ by more than the parent's quartile distance
  worse         the change's median is worse than the parent's by more than
                the bound
  unresolved    the runs spread wider than the bound, so the bound cannot be
                told from noise (unless every run of one side beats every
                run of the other)
  within-bound  none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path) -> dict:
    """{(workload, trace): {metric: {seed: value}}} plus failure counts."""
    runs = defaultdict(lambda: defaultdict(dict))
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        res = rec["result"]
        group = runs[(rec["workload"], rec["trace"])]
        group["#correct"][rec["seed"]] = float(res["correct"] and not res["failed"])
        for name, m in res["metrics"].items():
            group[name][rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_specs(trace: int):
    return SPEC["per_layer" if trace else "end_to_end"]


def spread_report(runs) -> None:
    for (workload, trace), group in sorted(runs.items()):
        ok = sum(group["#correct"].values())
        print(f"{workload} trace={trace}: {len(group['#correct'])} runs, "
              f"{ok:.0f} correct")
        for m in metric_specs(trace):
            values = list(group.get(m["name"], {}).values())
            if not values:
                print(f"  {m['name']:45s} missing")
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = ("ok" if s < bound / 3 else
                        "within bound" if s <= bound else "OVER BOUND")
            print(f"  {m['name']:45s} n={len(values):2d} median={med:.5g} "
                  f"q1={q1:.5g} q3={q3:.5g} spread={s:.3f}"
                  + (f" bound={bound} {flag}" if flag else ""))


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    # pair runs by seed; without common seeds, in recorded order
    pairs = [(base[s], new[s]) for s in sorted(set(base) & set(new))]
    pairs = pairs or list(zip(b, n))
    wins = sum(sign * (nv - bv) < 0 for bv, nv in pairs)
    if wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1 \
            and sign * (nmed - bmed) < 0:
        return "better"
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    noisy = max(spread(b), spread(n)) > bound
    all_worse = min(sign * x for x in n) > max(sign * x for x in b)
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    if worse_by > bound:
        return "unresolved" if noisy and not all_worse else "worse"
    if noisy:
        return "better" if all_better else "unresolved"
    return "within-bound"


def compare_report(base_runs, new_runs) -> None:
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        print(f"{workload} trace={trace}")
        for m in metric_specs(trace):
            base = base_runs[key].get(m["name"], {})
            new = new_runs[key].get(m["name"], {})
            if not base or not new:
                print(f"  {m['name']:45s} missing on one side")
                continue
            bq1, bmed, bq3 = quartiles(list(base.values()))
            nq1, nmed, nq3 = quartiles(list(new.values()))
            ratio = nmed / bmed if bmed else float("nan")
            text = (f"  {m['name']:45s} parent {bmed:.5g} [{bq1:.5g}, {bq3:.5g}]"
                    f"  change {nmed:.5g} [{nq1:.5g}, {nq3:.5g}]  "
                    f"ratio {ratio:.3f}")
            if "bound" in m:
                text += f"  {verdict(base, new, m['better'], m['bound'])}"
            print(text)


def main(argv) -> int:
    if len(argv) == 1:
        spread_report(load(argv[0]))
    elif len(argv) == 2:
        compare_report(load(argv[0]), load(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
