"""Experiment configuration: schema validation with path-to-field
diagnostics, bundled default hyperparameters, and default resolution.

A config is a YAML tree with sections problem / method / kernel / run /
output.  The method section may be a single mapping or a list of mappings.
Defaults for step sizes, radii, and kernel lengthscales come from a bundled
per-problem-family table and are resolved against the generated problem's
dimension; every resolved value lands in the run manifest.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, NamedTuple

from .trustregion import (ADAGRAD, DECAYED, AdaTrustState, ConstantRadius,
                          StepSchedule, TrustRegionKLState,
                          default_nystrom_size)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


# Per-family tuning table: kernel lengthscale, decayed-step initial step and
# decay, AdaGrad initial step, and the constant trust-region radius.  Keys
# are the state dimensions of the four reference problem families.
BUNDLED_DEFAULTS = {
    "snlp": {
        12: {"lengthscale": 1.0, "dlr_step": 0.1, "dlr_decay": 0.99,
             "adagrad_step": 0.5, "svn_radius": 1.0},
        100: {"lengthscale": 3.0, "dlr_step": 0.1, "dlr_decay": 0.99,
              "adagrad_step": 0.5, "svn_radius": 0.1},
    },
    "bayes_net": {
        30: {"lengthscale": 10.0, "dlr_step": 0.01, "dlr_decay": 0.999,
             "adagrad_step": 0.05, "svn_radius": 0.1},
        80: {"lengthscale": 60.0, "dlr_step": 0.01, "dlr_decay": 0.99,
             "adagrad_step": 0.05, "svn_radius": 0.1},
    },
}


def bundled_defaults(kind: str, total_dim: int) -> dict:
    """Tuning defaults of the bundled family nearest in dimension."""
    families = BUNDLED_DEFAULTS["snlp" if kind == "snlp" else "bayes_net"]
    key = min(families, key=lambda d: abs(d - total_dim))
    return families[key]


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _as_mapping(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected a mapping")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_number(value, path: str) -> None:
    _expect(_is_number(value), path, "expected a number")
    # false for nan, +-inf and integers beyond the float range
    _expect(abs(value) <= sys.float_info.max, path, "must be finite")


def _positive_number(value, path: str) -> float:
    _finite_number(value, path)
    _expect(value > 0, path, "must be positive")
    return float(value)


def _reciprocal_is_normal(value, path: str, power: int = 1) -> None:
    """1 / value**power must be a finite normal number: the models divide by
    variances, and the local Hessians by lengthscales to the fourth."""
    try:
        reciprocal = 1.0 / float(value)**power
    except (OverflowError, ZeroDivisionError):
        reciprocal = 0.0
    _expect(sys.float_info.min <= reciprocal < math.inf, path,
            f"out of range: 1 / value**{power} must be a finite normal number")


def _integer(value, path: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            path, "expected an integer")
    _expect(minimum is None or value >= minimum, path, f"must be >= {minimum}")
    return value


def check_seed(value, path: str) -> int:
    """A seed of numpy's generators, which take integers >= 0."""
    return _integer(value, path, 0)


def _boolean(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected a boolean")
    return value


def _number_range(value, path: str) -> list:
    _expect(isinstance(value, list) and len(value) == 2, path,
            "expected [low, high]")
    for i, v in enumerate(value):
        _finite_number(v, f"{path}[{i}]")
    _expect(value[0] <= value[1], path, "low must not exceed high")
    return value


def _fraction(value, path: str) -> None:
    _expect(_positive_number(value, path) <= 1.0, path, "must lie in (0, 1]")


class Method(NamedTuple):
    """A method's own fields as field -> (check, default), in fill order (a
    string default is a key of the bundled table or TENTH_OF_PARTICLES); its
    kernel context, "local" (per factor blanket) or "global"; its step
    control as controller(resolved method fields, seed); its fewest
    particles.  Besides its own fields a method takes only COMMON_FIELDS."""

    fields: dict
    context: str
    controller: Callable
    min_particles: int = 1


def _first_order(kind: str) -> Callable:
    return lambda m, seed: StepSchedule(kind, m["step"],
                                        decay=m.get("decay", 1.0))


TENTH_OF_PARTICLES = "tenth_of_particles"
COMMON_FIELDS = ("name", "label", "iterations")
METHODS = {
    "tr-svi-at": Method({}, "local", lambda m, seed: AdaTrustState()),
    # tr-svi-kl takes the median heuristic of its proposal: two rows at least
    "tr-svi-kl": Method({"initial_radius": (_positive_number, 1.0),
                         "nystrom_size": (partial(_integer, minimum=1),
                                          TENTH_OF_PARTICLES)},
                        "local", lambda m, seed: TrustRegionKLState(
                            m["initial_radius"], m["nystrom_size"], seed), 2),
    "mp-svgd-static": Method({"step": (_positive_number, "dlr_step")},
                             "local", _first_order(DECAYED)),
    "mp-svgd-dlr": Method({"step": (_positive_number, "dlr_step"),
                           "decay": (_fraction, "dlr_decay")},
                          "local", _first_order(DECAYED)),
    "mp-svgd-ag": Method({"step": (_positive_number, "adagrad_step")},
                         "local", _first_order(ADAGRAD)),
    "svgd": Method({"step": (_positive_number, "dlr_step")},
                   "global", _first_order(DECAYED)),
    "svn-ctr": Method({"radius": (_positive_number, "svn_radius")},
                      "global", lambda m, seed: ConstantRadius(m["radius"])),
}


def validate_config(raw: dict) -> dict:
    """Structural validation plus static defaults.

    Every field is type-checked here, so a bad value fails with a
    ConfigError naming it; a method field outside METHODS is rejected.
    Returns a normalized copy; a table lengthscale stays as the string
    "table", and method fields stay unset until resolve_method_defaults.
    """
    out = {}
    _expect(isinstance(raw, dict), "<root>", "config must be a mapping")
    _expect("problem" in raw, "problem", "section is required")
    problem = dict(_as_mapping(raw["problem"], "problem"))
    kind = problem.get("kind")
    _expect(kind in ("bayes_net", "snlp", "file"), "problem.kind",
            "expected one of bayes_net, snlp, file")
    if kind == "bayes_net":
        sizes = problem.get("layer_sizes")
        _expect(isinstance(sizes, list) and sizes, "problem.layer_sizes",
                "expected a nonempty list of layer sizes")
        for i, s in enumerate(sizes):
            _integer(s, f"problem.layer_sizes[{i}]", 1)
        _integer(problem.setdefault("max_parents", 3), "problem.max_parents", 1)
        _integer(problem.setdefault("gmm_nodes", 0), "problem.gmm_nodes", 0)
        _number_range(problem.setdefault("mean_range", [0.0, 2.0]),
                      "problem.mean_range")
        _number_range(problem.setdefault("variance_range", [1e-3, 1.0]),
                      "problem.variance_range")
        _expect(problem["variance_range"][0] > 0, "problem.variance_range",
                "lower bound must be positive")
        for i, v in enumerate(problem["variance_range"]):
            _reciprocal_is_normal(v, f"problem.variance_range[{i}]")
    elif kind == "snlp":
        for key in ("unknowns", "anchors"):
            _expect(key in problem, f"problem.{key}", "field is required")
        _integer(problem["unknowns"], "problem.unknowns", 1)
        _integer(problem["anchors"], "problem.anchors", 0)
        for key, default in (("side", 6.0), ("radius", 3.0),
                             ("noise_variance", 0.01)):
            _positive_number(problem.setdefault(key, default), f"problem.{key}")
        _reciprocal_is_normal(problem["noise_variance"], "problem.noise_variance")
        _boolean(problem.setdefault("noiseless", False), "problem.noiseless")
    else:
        _expect(isinstance(problem.get("path"), str), "problem.path",
                "expected a path to a problem spec file")
    if kind != "file":
        check_seed(problem.setdefault("seed", 0), "problem.seed")
    out["problem"] = problem

    kernel = dict(_as_mapping(raw.get("kernel", {}), "kernel"))
    ls = kernel.setdefault("lengthscale", "table")
    if isinstance(ls, str):
        _expect(ls in ("table", "median"), "kernel.lengthscale",
                'expected a positive number, "table", or "median"')
    else:
        _positive_number(ls, "kernel.lengthscale")
        _reciprocal_is_normal(ls, "kernel.lengthscale", power=4)
    out["kernel"] = kernel

    _expect("method" in raw, "method", "section is required")
    methods_raw = raw["method"]
    if isinstance(methods_raw, dict):
        methods_raw = [methods_raw]
    _expect(isinstance(methods_raw, list) and methods_raw, "method",
            "expected a method mapping or a nonempty list of them")
    methods = []
    seen_labels = set()
    for i, m in enumerate(methods_raw):
        path = f"method[{i}]"
        m = dict(_as_mapping(m, path))
        name = m.get("name")
        _expect(isinstance(name, str) and name in METHODS, f"{path}.name",
                f"expected one of {', '.join(METHODS)}")
        _integer(m.setdefault("iterations", 300), f"{path}.iterations", 0)
        label = m.setdefault("label", name)
        _expect(isinstance(label, str) and label, f"{path}.label",
                "expected a nonempty string")
        _expect(label not in seen_labels, f"{path}.label",
                "labels must be unique across methods")
        seen_labels.add(label)
        fields = METHODS[name].fields
        for key, value in m.items():
            if key not in COMMON_FIELDS:
                _expect(key in fields, f"{path}.{key}",
                        f"not a field of {name}; it takes "
                        f"{', '.join((*COMMON_FIELDS, *fields))}")
                fields[key][0](value, f"{path}.{key}")
        methods.append(m)
    out["method"] = methods

    run = dict(_as_mapping(raw.get("run", {}), "run"))
    _integer(run.setdefault("particles", 200), "run.particles", 1)
    seeds = run.setdefault("seeds", [0, 1, 2, 3, 4])
    _expect(isinstance(seeds, list) and seeds, "run.seeds",
            "expected a nonempty list of integers")
    for i, s in enumerate(seeds):
        check_seed(s, f"run.seeds[{i}]")
        _expect(s not in seeds[:i], f"run.seeds[{i}]",
                f"repeats seed {s}; seeds must be distinct")
    center = run.setdefault("init_center", None)
    if isinstance(center, list):
        for i, v in enumerate(center):
            _finite_number(v, f"run.init_center[{i}]")
    elif center is not None:
        _expect(_is_number(center), "run.init_center",
                "expected a number or a list of numbers")
        _finite_number(center, "run.init_center")
    if run.setdefault("init_scale", None) is not None:
        _positive_number(run["init_scale"], "run.init_scale")
    out["run"] = run
    for i, m in enumerate(methods):
        need = METHODS[m["name"]].min_particles
        _expect(run["particles"] >= need, "run.particles",
                f"must be >= {need} for method[{i}] ({m['name']})")
        _expect(m.get("nystrom_size", 1) <= run["particles"],
                f"method[{i}].nystrom_size", "must not exceed run.particles")

    output = dict(_as_mapping(raw.get("output", {}), "output"))
    gt = dict(_as_mapping(output.get("ground_truth", {}), "output.ground_truth"))
    _integer(gt.setdefault("samples", 0), "output.ground_truth.samples", 0)
    check_seed(gt.setdefault("seed", 1_000_003), "output.ground_truth.seed")
    _positive_number(gt.setdefault("proposal_scale", 0.1),
                     "output.ground_truth.proposal_scale")
    _integer(gt.setdefault("burn_in", 10_000), "output.ground_truth.burn_in", 0)
    _integer(gt.setdefault("thinning", 10), "output.ground_truth.thinning", 1)
    output["ground_truth"] = gt
    _boolean(output.setdefault("mmd", gt["samples"] > 0), "output.mmd")
    # the MMD kernel's lengthscale is the median pair distance of the
    # ground truth, which needs two rows
    _expect(not output["mmd"] or gt["samples"] >= 2,
            "output.ground_truth.samples", "must be >= 2 with output.mmd on")
    _integer(output.setdefault("mmd_subsample_cap", 20_000),
             "output.mmd_subsample_cap", 1)
    check_seed(output.setdefault("mmd_seed", 0), "output.mmd_seed")
    _expect("binary_samples" not in output, "output.binary_samples",
            "removed; every sample CSV that evaluation reads now has a "
            "binary twin")
    out["output"] = output

    if ls == "median":
        _expect(gt["samples"] >= 2, "output.ground_truth.samples",
                'must be >= 2 with kernel.lengthscale "median"')
    return out


def manifest_fields(manifest, path) -> tuple[int, int, list[str], list[int]]:
    """The MMD subsample cap and seed, the method labels and the particle
    seeds that `trsvi evaluate` reads from an artifact's manifest (loaded
    from `path`); a missing or mistyped field is a ConfigError naming the
    file and the field."""
    _as_mapping(manifest, str(path))

    def field(name):
        node = manifest
        for key in name.split("."):
            _expect(isinstance(node, dict) and key in node, f"{path}: {name}",
                    "missing")
            node = node[key]
        return node

    cap = _integer(field("output.mmd_subsample_cap"),
                   f"{path}: output.mmd_subsample_cap", 1)
    mmd_seed = check_seed(field("output.mmd_seed"), f"{path}: output.mmd_seed")
    methods = field("method")
    _expect(isinstance(methods, list), f"{path}: method", "expected a list")
    for i, method in enumerate(methods):
        _expect(isinstance(method, dict) and isinstance(method.get("label"), str),
                f"{path}: method[{i}].label", "expected a string")
    seeds = field("run.seeds")
    _expect(isinstance(seeds, list), f"{path}: run.seeds", "expected a list")
    for i, seed in enumerate(seeds):
        check_seed(seed, f"{path}: run.seeds[{i}]")
    return cap, mmd_seed, [m["label"] for m in methods], seeds


def resolve_method_defaults(config: dict, kind: str, total_dim: int) -> dict:
    """Fill every method's unset fields with their METHODS defaults, looking
    string defaults up in the bundled table of the problem family."""
    particles = config["run"]["particles"]
    table = {**bundled_defaults(kind, total_dim),
             TENTH_OF_PARTICLES: default_nystrom_size(particles)}
    resolved = dict(config)
    resolved["method"] = [
        {**m, **{key: table[default] if isinstance(default, str) else default
                 for key, (_, default) in METHODS[m["name"]].fields.items()
                 if key not in m}}
        for m in config["method"]
    ]
    return resolved
