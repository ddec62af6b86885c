"""Experiment configuration: schema validation with path-to-field
diagnostics, bundled default hyperparameters, and default resolution.

A config is a YAML tree with sections problem / method / kernel / run /
output.  The method section may be a single mapping or a list of mappings.
Defaults for step sizes, radii, and kernel lengthscales come from a bundled
per-problem-family table and are resolved against the generated problem's
dimension; every resolved value lands in the run manifest.
"""

from __future__ import annotations

from pathlib import Path

import yaml


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


METHOD_NAMES = (
    "tr-svi-at",
    "tr-svi-kl",
    "mp-svgd-static",
    "mp-svgd-dlr",
    "mp-svgd-ag",
    "svgd",
    "svn-ctr",
)

FIRST_ORDER = ("mp-svgd-static", "mp-svgd-dlr", "mp-svgd-ag", "svgd")

# Per-family tuning table: kernel lengthscale, decayed-step (initial, decay),
# AdaGrad initial step, and the constant trust-region radius.  Keys are the
# state dimensions of the four reference problem families.
BUNDLED_DEFAULTS = {
    "snlp": {
        12: {"lengthscale": 1.0, "dlr": (0.1, 0.99), "adagrad_step": 0.5,
             "svn_radius": 1.0},
        100: {"lengthscale": 3.0, "dlr": (0.1, 0.99), "adagrad_step": 0.5,
              "svn_radius": 0.1},
    },
    "bayes_net": {
        30: {"lengthscale": 10.0, "dlr": (0.01, 0.999), "adagrad_step": 0.05,
             "svn_radius": 0.1},
        80: {"lengthscale": 60.0, "dlr": (0.01, 0.99), "adagrad_step": 0.05,
             "svn_radius": 0.1},
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


def _positive_number(value, path: str) -> float:
    _expect(_is_number(value), path, "expected a number")
    _expect(value > 0, path, "must be positive")
    return float(value)


def _integer(value, path: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            path, "expected an integer")
    _expect(minimum is None or value >= minimum, path, f"must be >= {minimum}")
    return value


def _boolean(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected a boolean")
    return value


def _number_range(value, path: str) -> list:
    _expect(isinstance(value, list) and len(value) == 2, path,
            "expected [low, high]")
    for i, v in enumerate(value):
        _expect(_is_number(v), f"{path}[{i}]", "expected a number")
    _expect(value[0] <= value[1], path, "low must not exceed high")
    return value


def load_config(path) -> dict:
    raw = yaml.safe_load(Path(path).read_text())
    _expect(isinstance(raw, dict), "<root>", "config must be a mapping")
    return raw


def validate_config(raw: dict) -> dict:
    """Structural validation plus static defaults.

    Every field is type-checked here, so a bad value fails with a
    ConfigError naming it.  Returns a normalized copy; numeric defaults that
    depend on the problem dimension stay as the string "table" until
    resolve_method_defaults.
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
    elif kind == "snlp":
        for key in ("unknowns", "anchors"):
            _expect(key in problem, f"problem.{key}", "field is required")
        _integer(problem["unknowns"], "problem.unknowns", 1)
        _integer(problem["anchors"], "problem.anchors", 0)
        for key, default in (("side", 6.0), ("radius", 3.0),
                             ("noise_variance", 0.01)):
            _positive_number(problem.setdefault(key, default), f"problem.{key}")
        _boolean(problem.setdefault("noiseless", False), "problem.noiseless")
    else:
        _expect(isinstance(problem.get("path"), str), "problem.path",
                "expected a path to a problem spec file")
    if kind != "file":
        _integer(problem.setdefault("seed", 0), "problem.seed")
    out["problem"] = problem

    kernel = dict(_as_mapping(raw.get("kernel", {}), "kernel"))
    ls = kernel.setdefault("lengthscale", "table")
    if isinstance(ls, str):
        _expect(ls in ("table", "median"), "kernel.lengthscale",
                'expected a positive number, "table", or "median"')
    else:
        _positive_number(ls, "kernel.lengthscale")
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
        _expect(name in METHOD_NAMES, f"{path}.name",
                f"expected one of {', '.join(METHOD_NAMES)}")
        _integer(m.setdefault("iterations", 300), f"{path}.iterations", 0)
        label = m.setdefault("label", name)
        _expect(isinstance(label, str) and label, f"{path}.label",
                "expected a nonempty string")
        _expect(label not in seen_labels, f"{path}.label",
                "labels must be unique across methods")
        seen_labels.add(label)
        if name == "tr-svi-kl":
            _positive_number(m.setdefault("initial_radius", 1.0),
                             f"{path}.initial_radius")
            if "nystrom_size" in m:
                _integer(m["nystrom_size"], f"{path}.nystrom_size", 1)
        if name in FIRST_ORDER and "step" in m:
            _positive_number(m["step"], f"{path}.step")
        if name == "mp-svgd-dlr" and "decay" in m:
            _expect(_positive_number(m["decay"], f"{path}.decay") <= 1.0,
                    f"{path}.decay", "must lie in (0, 1]")
        if name == "svn-ctr" and "radius" in m:
            _positive_number(m["radius"], f"{path}.radius")
        methods.append(m)
    out["method"] = methods

    run = dict(_as_mapping(raw.get("run", {}), "run"))
    _integer(run.setdefault("particles", 200), "run.particles", 1)
    seeds = run.setdefault("seeds", [0, 1, 2, 3, 4])
    _expect(isinstance(seeds, list) and seeds, "run.seeds",
            "expected a nonempty list of integers")
    for i, s in enumerate(seeds):
        _integer(s, f"run.seeds[{i}]")
    center = run.setdefault("init_center", None)
    if isinstance(center, list):
        for i, v in enumerate(center):
            _expect(_is_number(v), f"run.init_center[{i}]", "expected a number")
    else:
        _expect(center is None or _is_number(center), "run.init_center",
                "expected a number or a list of numbers")
    if run.setdefault("init_scale", None) is not None:
        _positive_number(run["init_scale"], "run.init_scale")
    out["run"] = run

    output = dict(_as_mapping(raw.get("output", {}), "output"))
    gt = dict(_as_mapping(output.get("ground_truth", {}), "output.ground_truth"))
    _integer(gt.setdefault("samples", 0), "output.ground_truth.samples", 0)
    _integer(gt.setdefault("seed", 1_000_003), "output.ground_truth.seed")
    _positive_number(gt.setdefault("proposal_scale", 0.1),
                     "output.ground_truth.proposal_scale")
    _integer(gt.setdefault("burn_in", 10_000), "output.ground_truth.burn_in", 0)
    _integer(gt.setdefault("thinning", 10), "output.ground_truth.thinning", 1)
    output["ground_truth"] = gt
    _boolean(output.setdefault("mmd", gt["samples"] > 0), "output.mmd")
    _expect(not output["mmd"] or gt["samples"] > 0, "output.mmd",
            "requires output.ground_truth.samples > 0")
    _integer(output.setdefault("mmd_subsample_cap", 20_000),
             "output.mmd_subsample_cap", 1)
    _integer(output.setdefault("mmd_seed", 0), "output.mmd_seed")
    _boolean(output.setdefault("binary_samples", False), "output.binary_samples")
    out["output"] = output

    if ls == "median":
        _expect(gt["samples"] > 0, "kernel.lengthscale",
                '"median" requires output.ground_truth.samples > 0')
    return out


def resolve_method_defaults(config: dict, kind: str, total_dim: int) -> dict:
    """Fill dimension-dependent method defaults from the bundled table."""
    table = bundled_defaults(kind, total_dim)
    resolved = dict(config)
    methods = []
    for m in config["method"]:
        m = dict(m)
        name = m["name"]
        if name == "mp-svgd-dlr":
            m.setdefault("step", table["dlr"][0])
            m.setdefault("decay", table["dlr"][1])
        elif name == "mp-svgd-ag":
            m.setdefault("step", table["adagrad_step"])
        elif name in ("mp-svgd-static", "svgd"):
            m.setdefault("step", table["dlr"][0])
        elif name == "svn-ctr":
            m.setdefault("radius", table["svn_radius"])
        elif name == "tr-svi-kl":
            m.setdefault("nystrom_size", max(1, config["run"]["particles"] // 10))
        methods.append(m)
    resolved["method"] = methods
    return resolved
