"""Experiment configuration: field tables with path-to-field diagnostics,
bundled default hyperparameters, and default resolution.

A config is a YAML tree with sections problem / method / kernel / run /
output, each checked against its field table in SECTIONS.  The method
section may be a single mapping or a list of mappings.  Defaults for step
sizes, radii, and kernel lengthscales come from a bundled per-family table
and are resolved against the generated problem's dimension; every resolved
value lands in the run manifest."""

from __future__ import annotations

import copy
import re
import sys
from functools import partial
from typing import Callable, NamedTuple

from .model.layout import reciprocal_is_normal
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


# A check takes (value, path), raises a ConfigError naming `path` if the
# value is bad, and returns what the config keeps.

def _finite_number(value, path: str):
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected a number")
    # false for nan, +-inf and integers beyond the float range
    _expect(abs(value) <= sys.float_info.max, path, "must be finite")
    return value


def _positive_number(value, path: str):
    _expect(_finite_number(value, path) > 0, path, "must be positive")
    return value


def _floored(value, path: str, power: int = 1):
    """A positive number whose 1 / value**power is a finite normal number."""
    _expect(reciprocal_is_normal(_positive_number(value, path), power), path,
            f"out of range: 1 / value**{power} must be a finite normal number")
    return value


def _at_least(minimum: int) -> Callable:
    def check(value, path: str) -> int:
        _expect(isinstance(value, int) and not isinstance(value, bool),
                path, "expected an integer")
        _expect(value >= minimum, path, f"must be >= {minimum}")
        return value
    return check


# a seed of numpy's generators, which take integers >= 0
check_seed = _at_least(0)


def _boolean(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected a boolean")
    return value


def _string(value, path: str) -> str:
    _expect(isinstance(value, str) and value, path, "expected a nonempty string")
    return value


def _label(value, path: str) -> str:
    """A method label, which names its runs' folder: one path component."""
    _expect(isinstance(value, str) and value not in (".", "..")
            and re.fullmatch(r"[A-Za-z0-9._+-]+", value) is not None, path,
            "expected one path component of letters, digits and ._+-, "
            "not . or ..")
    return value


def _number_range(value, path: str) -> list:
    _expect(isinstance(value, list) and len(value) == 2, path,
            "expected [low, high]")
    low, high = (_finite_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    _expect(low <= high, path, "low must not exceed high")
    # the generators draw low + (high - low) * u
    _expect(float(high) - float(low) <= sys.float_info.max, path,
            "high - low must be finite")
    return value


def _variance_range(value, path: str) -> list:
    for i, v in enumerate(_number_range(value, path)):
        _floored(v, f"{path}[{i}]")
    return value


def _lengthscale(value, path: str):
    if isinstance(value, str):
        _expect(value in ("table", "median"), path,
                'expected a positive number, "table", or "median"')
        return value
    return _floored(value, path, power=4)


def _fraction(value, path: str):
    _expect(_positive_number(value, path) <= 1.0, path, "must lie in (0, 1]")
    return value


def _optional(check: Callable) -> Callable:
    return lambda value, path: None if value is None else check(value, path)


def _list_of(check: Callable, what: str) -> Callable:
    def check_list(value, path: str) -> list:
        _expect(isinstance(value, list) and value, path,
                f"expected a nonempty list of {what}")
        return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check_list


def _center(value, path: str):
    if isinstance(value, list):
        return _list_of(_finite_number, "numbers")(value, path)
    return _finite_number(value, path)


def _seeds(value, path: str) -> list:
    for i, seed in enumerate(_list_of(check_seed, "integers")(value, path)):
        _expect(seed not in value[:i], f"{path}[{i}]",
                f"repeats seed {seed}; seeds must be distinct")
    return value


# A field table maps field -> (check, default), in fill order.  A default is
# REQUIRED (the field must be given), UNSET (left out unless given), REMOVED
# (a former field, whose check says what replaced it), a callable of the
# fields filled before it, or the value itself.
REQUIRED, UNSET, REMOVED = object(), object(), object()


def _check_section(mapping, path: str, fields: dict,
                   owner: str | None = None) -> dict:
    """A copy of `mapping` with each absent field of `fields` set to its
    default and every field checked; a key outside the table is a
    ConfigError naming it and the fields that `owner` (`path`) takes."""
    mapping = dict(_as_mapping(mapping, path))
    prefix = f"{path}." if path else ""
    takes = ", ".join(k for k, (_, d) in fields.items() if d is not REMOVED)
    for key in mapping:
        _expect(key in fields, f"{prefix}{key}",
                f"not a field of {owner or path}; it takes {takes}")
    for key, (check, default) in fields.items():
        if key not in mapping:
            _expect(default is not REQUIRED, f"{prefix}{key}", "is required")
            if default is UNSET or default is REMOVED:
                continue
            mapping[key] = (default(mapping) if callable(default)
                            else copy.deepcopy(default))
        mapping[key] = check(mapping[key], f"{prefix}{key}")
    return mapping


def _section(fields: dict) -> Callable:
    return partial(_check_section, fields=fields)


def _selected(key: str, tables: dict) -> Callable:
    """The check of a mapping whose field `key` names its table."""
    def check(value, path: str) -> dict:
        choice = _as_mapping(value, path).get(key)
        _expect(isinstance(choice, str) and choice in tables, f"{path}.{key}",
                f"expected one of {', '.join(tables)}")
        return _check_section(value, path, {key: (lambda v, _: v, REQUIRED),
                                            **tables[choice]}, choice)
    return check


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
METHODS = {
    "tr-svi-at": Method({}, "local", lambda m, seed: AdaTrustState()),
    # tr-svi-kl takes the median heuristic of its proposal: two rows at least
    "tr-svi-kl": Method({"initial_radius": (_positive_number, 1.0),
                         "nystrom_size": (_at_least(1), TENTH_OF_PARTICLES)},
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
# a method entry's fields besides its name and its own, which stay unset
# until resolve_method_defaults
COMMON_FIELDS = {"iterations": (_at_least(0), 300),
                 "label": (_label, lambda m: m["name"])}
_METHOD_ENTRY = _selected("name", {name: {**COMMON_FIELDS, **{
    key: (check, UNSET) for key, (check, _) in m.fields.items()}}
    for name, m in METHODS.items()})


def _methods(value, path: str) -> list:
    """One method mapping or a nonempty list of them, labels distinct."""
    methods = _list_of(_METHOD_ENTRY, "methods")(
        [value] if isinstance(value, dict) else value, path)
    for i, m in enumerate(methods):
        _expect(m["label"] not in [n["label"] for n in methods[:i]],
                f"{path}[{i}].label", "labels must be unique across methods")
    return methods


PROBLEMS = {
    "bayes_net": {
        "layer_sizes": (_list_of(_at_least(1), "layer sizes"), REQUIRED),
        "max_parents": (_at_least(1), 3), "gmm_nodes": (_at_least(0), 0),
        "mean_range": (_number_range, [0.0, 2.0]),
        "variance_range": (_variance_range, [1e-3, 1.0]), "seed": (check_seed, 0)},
    "snlp": {
        "unknowns": (_at_least(1), REQUIRED), "anchors": (_at_least(0), REQUIRED),
        "side": (_positive_number, 6.0), "radius": (_positive_number, 3.0),
        "noise_variance": (_floored, 0.01), "noiseless": (_boolean, False),
        "seed": (check_seed, 0)},
    "file": {"path": (_string, REQUIRED)},
}
GROUND_TRUTH = {
    "samples": (_at_least(0), 0), "seed": (check_seed, 1_000_003),
    "proposal_scale": (_positive_number, 0.1),
    "burn_in": (_at_least(0), 10_000), "thinning": (_at_least(1), 10)}
SECTIONS = {
    "problem": (_selected("kind", PROBLEMS), REQUIRED),
    "kernel": (_section({"lengthscale": (_lengthscale, "table")}), {}),
    "method": (_methods, REQUIRED),
    "run": (_section({
        "particles": (_at_least(1), 200), "seeds": (_seeds, [0, 1, 2, 3, 4]),
        "init_center": (_optional(_center), None),
        "init_scale": (_optional(_positive_number), None)}), {}),
    "output": (_section({
        "ground_truth": (_section(GROUND_TRUTH), {}),
        "mmd": (_boolean, lambda out: out["ground_truth"]["samples"] > 0),
        "mmd_subsample_cap": (_at_least(1), 20_000), "mmd_seed": (check_seed, 0),
        "binary_samples": (lambda value, path: _expect(
            False, path, "removed; every sample CSV that evaluation reads now "
            "has a binary twin"), REMOVED)}), {}),
}


def validate_config(raw: dict) -> dict:
    """A copy of `raw` with every section checked against its table in
    SECTIONS, then the rules that join sections; a bad value or a key
    outside its table is a ConfigError naming it.  A table lengthscale stays
    "table", and method fields stay unset until resolve_method_defaults."""
    _expect(isinstance(raw, dict), "<root>", "config must be a mapping")
    config = _check_section(raw, "", SECTIONS, "a config")
    particles = config["run"]["particles"]
    for i, m in enumerate(config["method"]):
        need = METHODS[m["name"]].min_particles
        _expect(particles >= need, "run.particles",
                f"must be >= {need} for method[{i}] ({m['name']})")
        _expect(m.get("nystrom_size", 1) <= particles,
                f"method[{i}].nystrom_size", "must not exceed run.particles")
    # the MMD kernel's lengthscale and a "median" one are median pair
    # distances of the ground truth, which needs two rows
    samples = config["output"]["ground_truth"]["samples"]
    _expect(not config["output"]["mmd"] or samples >= 2,
            "output.ground_truth.samples", "must be >= 2 with output.mmd on")
    _expect(config["kernel"]["lengthscale"] != "median" or samples >= 2,
            "output.ground_truth.samples",
            'must be >= 2 with kernel.lengthscale "median"')
    return config


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

    cap = _at_least(1)(field("output.mmd_subsample_cap"),
                       f"{path}: output.mmd_subsample_cap")
    mmd_seed = check_seed(field("output.mmd_seed"), f"{path}: output.mmd_seed")
    labels = _list_of(lambda m, at: _label(_as_mapping(m, at).get("label"),
                                           f"{at}.label"), "methods")(
        field("method"), f"{path}: method")
    seeds = _list_of(check_seed, "integers")(field("run.seeds"),
                                             f"{path}: run.seeds")
    return cap, mmd_seed, labels, seeds


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
