"""The benchmark's workloads: bundled configs cut to run lengths that fit
several repetitions into one measured run.

Each workload is one bundled config run with one worker and one
particle-initialisation seed per repetition (`trsvi run --seed`).  A run
cycles through `seeds_per_run` particle seeds derived from the benchmark's
`--seed`: seed s gives s*k .. s*k+k-1, so different benchmark seeds never
share a particle seed.  The problem instance stays the one the config fixes.  Run lengths are cut
so that each workload keeps the layer mix it was chosen for; the
`reason` of each workload names that mix and the traced run checks it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                     # bundled config, relative to the root
    iterations: dict[str, int]      # method label -> cut iteration count
    output: dict                    # replaces the config's output section
    extra_methods: tuple = ()       # methods added to the bundled list
    seeds_per_run: int = 1
    reason: str = ""

    def seeds(self, seed: int) -> list[int]:
        """The particle-initialisation seeds a run of benchmark seed `seed`
        cycles through."""
        k = self.seeds_per_run
        return [seed * k + j for j in range(k)]

    def derive(self, root) -> dict:
        """The bundled config with this workload's cuts applied."""
        cfg = yaml.safe_load((root / self.config).read_text())
        methods = cfg["method"] + [dict(m) for m in self.extra_methods]
        for m in methods:
            label = m.get("label", m["name"])
            m["iterations"] = self.iterations[label]
        cfg["method"] = methods
        cfg["output"] = copy.deepcopy(self.output)
        # evaluation is timed as its own `trsvi evaluate` call
        cfg["output"]["mmd"] = False
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bn10-desk",
            config="configs/bn10_desk.yaml",
            # one tenth of the bundled lengths
            iterations={"tr-svi-at": 30, "tr-svi-kl": 30,
                        "mp-svgd-dlr": 100, "svn-ctr": 30},
            # ground truth subsampled for MMD as in the bundled config
            # (there 100k -> 20k draws, here 6k -> 3k)
            output={"ground_truth": {"samples": 6000, "seed": 1000},
                    "mmd_subsample_cap": 3000},
            # CG work per iteration differs by up to 30% between particle
            # seeds; cycling through four seeds a run averages that out of
            # the tr-svi-at/kl iteration rates, one short repetition at a time
            seeds_per_run=4,
            reason="per-particle CG dominates method time; evaluation and "
                   "CSV I/O are large",
        ),
        Workload(
            name="snlp50-large",
            config="configs/snlp_large.yaml",
            iterations={"tr-svi-at": 4, "tr-svi-kl": 4, "svn-ctr": 4,
                        "mp-svgd-dlr": 15},
            # The bundled config has neither a KL run nor a ground truth.
            # Both are added so that every end-to-end metric exists here:
            # a short chain gives a rough reference only.
            extra_methods=({"name": "tr-svi-kl", "initial_radius": 1.0},),
            output={"ground_truth": {"samples": 2000, "seed": 1000,
                                     "proposal_scale": 0.01,
                                     "burn_in": 1000, "thinning": 2},
                    "mmd_subsample_cap": 20000},
            reason="dense Hessian-stack assembly dominates method time",
        ),
    )
}
