import csv
import hashlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trsvi
from trsvi.cli import main
from trsvi.config import (
    METHODS,
    ConfigError,
    resolve_method_defaults,
    validate_config,
)
from trsvi import experiment
from trsvi.experiment import (
    TRACE_COLUMNS,
    evaluate_artifact,
    export_marginals,
    run_experiment,
)
from trsvi.model import (
    SAMPLE_INDEX,
    BayesNetConfig,
    SnlpConfig,
    build_snlp,
    dump_yaml,
    generate_bayes_net,
    load_problem,
    load_samples_binary,
    load_samples_csv,
    problem_to_dict,
    save_samples_csv,
)
from trsvi.trustregion import IterationRecord

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(**overrides):
    cfg = {
        "problem": {"kind": "bayes_net", "layer_sizes": [2, 2],
                    "max_parents": 2, "gmm_nodes": 1, "seed": 5},
        "kernel": {"lengthscale": 1.0},
        "method": [
            {"name": "tr-svi-at", "iterations": 5},
            {"name": "mp-svgd-dlr", "iterations": 8, "step": 0.05,
             "decay": 0.99},
        ],
        "run": {"particles": 12, "seeds": [0, 1]},
        "output": {"ground_truth": {"samples": 400}, "mmd": True},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_particle_minimum_only_where_a_method_needs_it(self):
        cfg = tiny_config()
        cfg["run"]["particles"] = 1
        assert validate_config(cfg)["run"]["particles"] == 1
        cfg["method"].append({"name": "tr-svi-kl"})
        with pytest.raises(ConfigError, match=r"run\.particles: must be >= 2 "
                                              r"for method\[2\] \(tr-svi-kl\)"):
            validate_config(cfg)

    def test_repeated_seed_names_its_position(self):
        cfg = tiny_config()
        cfg["run"]["seeds"] = [3, 1, 2, 1]
        with pytest.raises(ConfigError, match=r"run\.seeds\[3\]: repeats seed 1"):
            validate_config(cfg)

    def test_missing_problem_section(self):
        with pytest.raises(ConfigError, match="problem"):
            validate_config({"method": [{"name": "svgd"}]})

    def test_bad_layer_sizes_path_in_message(self):
        cfg = tiny_config()
        cfg["problem"]["layer_sizes"] = [2, 0]
        with pytest.raises(ConfigError, match=r"problem\.layer_sizes\[1\]"):
            validate_config(cfg)

    def test_unknown_method_name(self):
        cfg = tiny_config()
        cfg["method"].append({"name": "mystery"})
        with pytest.raises(ConfigError, match=r"method\[2\]\.name"):
            validate_config(cfg)

    def test_duplicate_labels_rejected(self):
        cfg = tiny_config()
        cfg["method"] = [{"name": "svgd"}, {"name": "svgd"}]
        with pytest.raises(ConfigError, match="label"):
            validate_config(cfg)

    def test_single_method_mapping_allowed(self):
        cfg = tiny_config()
        cfg["method"] = {"name": "tr-svi-at", "iterations": 3}
        validated = validate_config(cfg)
        assert validated["method"][0]["label"] == "tr-svi-at"

    def test_mmd_requires_ground_truth(self):
        cfg = tiny_config()
        cfg["output"] = {"mmd": True}
        with pytest.raises(ConfigError, match=r"output\.mmd"):
            validate_config(cfg)

    def test_median_lengthscale_needs_two_ground_truth_rows(self):
        cfg = tiny_config()
        cfg["kernel"]["lengthscale"] = "median"
        cfg["output"] = {"ground_truth": {"samples": 1}, "mmd": False}
        with pytest.raises(ConfigError, match=r"output\.ground_truth\.samples: "
                                              r"must be >= 2 with kernel"):
            validate_config(cfg)
        cfg["output"]["ground_truth"]["samples"] = 2
        assert validate_config(cfg)["kernel"]["lengthscale"] == "median"

    @pytest.mark.parametrize("section, key, value", [
        ("run", "particles", "100"), ("problem", "max_parents", "3"),
        ("output", "mmd_subsample_cap", "x"), ("run", "particles", 2.5),
        ("run", "particles", True), ("problem", "mean_range", ["a", "b"]),
        ("output", "mmd_seed", -1),
        # MMD is on, and its median heuristic needs two ground-truth rows
        ("output", "ground_truth", {"samples": 1}),
        # numpy's generators take no negative seed
        ("problem", "seed", -1), ("run", "seeds", [0, -1]),
        ("output", "ground_truth", {"samples": 400, "seed": -5}),
        # the local Hessians divide by the lengthscale to the fourth
        ("kernel", "lengthscale", 1e-150),
    ])
    def test_wrong_types_name_the_field(self, section, key, value):
        cfg = tiny_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            validate_config(cfg)

    @pytest.mark.parametrize("method, field", [
        ({"name": "mp-svgd-ag", "decay": 0.5}, "decay"),
        ({"name": "mp-svgd-static", "decay": 2.0}, "decay"),
        ({"name": "mp-svgd-dlr", "stepp": 0.3}, "stepp"),
        ({"name": "svn-ctr", "step": 0.1}, "step"),
        ({"name": "tr-svi-at", "radius": 1.0}, "radius"),
        ({"name": "tr-svi-kl", "nystrom_size": 13}, "nystrom_size"),
        ({"name": ["svgd"]}, "name"),
    ])
    def test_method_fields_checked_against_table(self, method, field):
        cfg = tiny_config()
        cfg["method"] = [method]
        with pytest.raises(ConfigError, match=rf"method\[0\]\.{field}"):
            validate_config(cfg)

    def test_method_defaults_resolved_from_table(self):
        methods = [{"name": name} for name in METHODS]
        cfg = resolve_method_defaults(
            validate_config(tiny_config(method=methods)), "snlp", 12)
        fields = {m["name"]: {k: v for k, v in m.items()
                              if k not in ("name", "label", "iterations")}
                  for m in cfg["method"]}
        assert fields == {
            "tr-svi-at": {},
            "tr-svi-kl": {"initial_radius": 1.0, "nystrom_size": 1},
            "mp-svgd-static": {"step": 0.1},
            "mp-svgd-dlr": {"step": 0.1, "decay": 0.99},
            "mp-svgd-ag": {"step": 0.5},
            "svgd": {"step": 0.1},
            "svn-ctr": {"radius": 1.0},
        }

    @pytest.mark.parametrize("section, key", [
        ("run", "particle"), ("kernel", "lenghtscale"),
        ("problem", "max_parent"), ("problem", "gmm_node"),
        ("output", "mmd_sed"), ("output.ground_truth", "sample"),
        (None, "outputs"),
    ])
    def test_unknown_key_named_in_every_section(self, section, key):
        cfg = tiny_config()
        node = cfg
        for name in section.split(".") if section else ():
            node = node[name]
        node[key] = 1
        named = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=rf"^{re.escape(named)}: not a "
                                              r"field of .*; it takes "):
            validate_config(cfg)

    @pytest.mark.parametrize("kind", ["bayes_net", "snlp", "file"])
    def test_full_configs_are_valid(self, kind):
        validate_config(full_config(kind))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_wrong_typed_leaf_gives_config_error(self, data):
        cfg = full_config(data.draw(st.sampled_from(["bayes_net", "snlp",
                                                     "file"])))
        leaves = [(p, v) for p, v in _leaves(cfg)
                  if p != ("run", "init_center")]
        path, value = data.draw(st.sampled_from(leaves))
        wrong = data.draw(st.sampled_from(
            [w for w in WRONG[type(value)]
             if not (w is None and path == ("run", "init_scale"))]))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = wrong
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        # the error names the replaced field, its container, or (for a
        # method list replaced by a single mapping) a field inside it
        field, leaf = str(err.value).split(":")[0], _path_text(path)
        assert leaf.startswith(field) or field.startswith(leaf), (path, wrong)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_non_finite_or_subnormal_leaf_gives_config_error(self, data):
        """A real-valued leaf set to +-inf or nan, or a variance or
        lengthscale leaf set to a subnormal number, is rejected naming the
        leaf or its container."""
        cfg = full_config(data.draw(st.sampled_from(["bayes_net", "snlp"])))
        leaves = [p for p, v in _leaves(cfg) if type(v) is float]
        path = data.draw(st.sampled_from(leaves))
        wrong = [INF, -INF, NAN] + (
            [1e-320] if path[:2] in RECIPROCAL_LEAVES else [])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(wrong))
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        field, leaf = str(err.value).split(":")[0], _path_text(path)
        assert leaf.startswith(field) or field.startswith(leaf), path

    def test_defaults_are_filled(self):
        validated = validate_config(tiny_config())
        assert validated["output"]["mmd_subsample_cap"] == 20_000
        assert validated["run"]["particles"] == 12

    @pytest.mark.parametrize("value", [True, False])
    def test_removed_binary_samples_knob_named(self, value):
        cfg = tiny_config()
        cfg["output"]["binary_samples"] = value
        with pytest.raises(ConfigError, match=r"^output\.binary_samples: "
                                              r"removed"):
            validate_config(cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_misspelled_key_gives_config_error(self, data):
        """A misspelled key, added beside the key it misspells in any
        mapping of a full config (every section, the ground truth, each
        method), is rejected naming it and the fields its mapping takes."""
        cfg = full_config(data.draw(st.sampled_from(["bayes_net", "snlp",
                                                     "file"])))
        path, node = data.draw(st.sampled_from(list(_mappings(cfg))))
        key = data.draw(st.sampled_from(sorted(node)))
        i = data.draw(st.integers(0, len(key) - 1))
        typo = data.draw(st.sampled_from([key[:i] + key[i + 1:],
                                          key[:i] + key[i] + key[i:]]))
        assume(typo and typo not in node)
        node[typo] = node[key]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        named = _path_text(path + (typo,))
        assert str(err.value).startswith(f"{named}: not a field of "), named
        takes = str(err.value).split("; it takes ")[1].split(", ")
        assert typo not in takes and set(node) - {typo} <= set(takes)

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (ROOT / "configs").glob("*.yaml")))
    def test_bundled_configs_are_valid(self, name):
        validate_config(yaml.safe_load((ROOT / "configs" / name).read_text()))

    def test_benchmark_configs_are_valid(self):
        """Every config the benchmark derives from a bundled one validates."""
        workloads = _benchmark_workloads()
        assert workloads
        for workload in workloads.values():
            validate_config(workload.derive(ROOT))


def _benchmark_workloads():
    """The benchmark's workloads, `perfbench.workloads.WORKLOADS`."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _mappings(node, path=()):
    """(path, mapping) of the config tree's root and every mapping in it."""
    if isinstance(node, dict):
        yield path, node
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _mappings(child, path + (key,))


def full_config(kind):
    """A valid config with every field spelled out: floats for real-valued
    fields, ints for integer fields."""
    problem = {
        "bayes_net": {"kind": "bayes_net", "layer_sizes": [2, 2],
                      "max_parents": 2, "gmm_nodes": 1,
                      "mean_range": [0.0, 2.0], "variance_range": [0.1, 1.0],
                      "seed": 5},
        "snlp": {"kind": "snlp", "unknowns": 4, "anchors": 2, "side": 6.0,
                 "radius": 3.0, "noise_variance": 0.01, "noiseless": True,
                 "seed": 3},
        "file": {"kind": "file", "path": "problem.yaml"},
    }[kind]
    return {
        "problem": problem,
        "kernel": {"lengthscale": 1.0},
        "method": [
            {"name": "tr-svi-at", "label": "at", "iterations": 5},
            {"name": "tr-svi-kl", "iterations": 4, "initial_radius": 1.0,
             "nystrom_size": 2},
            {"name": "mp-svgd-dlr", "iterations": 8, "step": 0.05,
             "decay": 0.99},
            {"name": "mp-svgd-static", "iterations": 8, "step": 0.05},
            {"name": "mp-svgd-ag", "iterations": 8, "step": 0.5},
            {"name": "svgd", "iterations": 8, "step": 0.05},
            {"name": "svn-ctr", "iterations": 3, "radius": 0.1},
        ],
        "run": {"particles": 12, "seeds": [0, 1], "init_center": [0.0, 1.0],
                "init_scale": 1.0},
        "output": {"ground_truth": {"samples": 400, "seed": 1,
                                    "proposal_scale": 0.1, "burn_in": 10,
                                    "thinning": 2},
                   "mmd": True, "mmd_subsample_cap": 100, "mmd_seed": 0},
    }


def _leaves(node, path=()):
    """(path, value) of every scalar leaf and every list in a config tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        yield path, node
        items = enumerate(node)
    else:
        yield path, node
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _path_text(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".")


INF, NAN = float("inf"), float("nan")

# leaves whose reciprocal (or a power of it) the models and kernels use
RECIPROCAL_LEAVES = {("problem", "variance_range"),
                     ("problem", "noise_variance"), ("kernel", "lengthscale")}

# values of the wrong type for a leaf, keyed by the type of its valid value;
# init_center also takes a bare number, so a list there is not replaced, and
# null is valid for run.init_scale
WRONG = {
    bool: ["true", 1, 0.5, None, [True], {"a": 1}],
    int: ["100", 2.5, True, None, [1], {"a": 1}],
    float: ["1.0", True, None, [1.0], {"a": 1.0}],
    str: [3, 2.5, False, None, ["x"], {"x": 1}],
    list: ["x", 3, 2.5, True, None, {"a": 1}],
}


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "run"
    return run_experiment(tiny_config(), out)


class TestRunExperiment:
    def test_layout_of_artifact(self, artifact):
        for name in ("manifest.yaml", "problem.yaml", "ground_truth.csv",
                     "metrics.yaml", "timings.csv"):
            assert (artifact / name).exists()
        for label in ("tr-svi-at", "mp-svgd-dlr"):
            for seed in (0, 1):
                run_dir = artifact / "runs" / label / f"seed_{seed}"
                assert (run_dir / "trace.csv").exists()
                assert (run_dir / "final.csv").exists()
        for seed in (0, 1):
            assert (artifact / "inits" / f"seed_{seed}.csv").exists()

    def test_trace_schema(self, artifact):
        path = artifact / "runs" / "tr-svi-at" / "seed_0" / "trace.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) == 6     # header + 5 iterations
        first = dict(zip(rows[0], rows[1]))
        assert first["iteration"] == "0"
        assert float(first["gradient_magnitude"]) > 0
        assert first["rho"] == ""             # not a KL-driver column
        assert first["accepted"] == "true"
        assert float(first["model_decrease"]) < 0   # predicted by the model
        assert float(first["b"]) > 0          # the AdaTrust denominator
        assert int(first["cg_iters"]) > 0     # CG totals over the particles
        assert 0 <= int(first["cg_boundary"]) <= 12
        assert 0 <= int(first["cg_neg_curvature"]) <= 12
        assert first["wall_ms"] == ""         # kept empty for reproducibility
        dlr = artifact / "runs" / "mp-svgd-dlr" / "seed_0" / "trace.csv"
        with open(dlr, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["model_decrease"] == "" and row["b"] == ""
        assert row["cg_iters"] == row["cg_boundary"] == ""

    def test_trace_columns_follow_the_record(self):
        """The trace CSV's columns are IterationRecord's fields, in order."""
        assert TRACE_COLUMNS == tuple(f.name for f in fields(IterationRecord))
        assert TRACE_COLUMNS == (
            "iteration", "gradient_magnitude", "radius_or_step", "rho",
            "approx_kl_u", "approx_kl_o", "accepted", "model_decrease", "b",
            "cg_iters", "cg_boundary", "cg_neg_curvature", "wall_ms")

    def test_kl_trace_fills_rho_columns(self, tmp_path):
        cfg = tiny_config()
        cfg["method"] = [{"name": "tr-svi-kl", "iterations": 4}]
        artifact = run_experiment(cfg, tmp_path / "kl")
        path = artifact / "runs" / "tr-svi-kl" / "seed_0" / "trace.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["rho"] != "" for r in rows)
        assert all(r["approx_kl_u"] != "" for r in rows)
        assert all(r["model_decrease"] != "" for r in rows)
        assert all(int(r["cg_iters"]) > 0 for r in rows)
        assert all(r["cg_boundary"].isdigit() for r in rows)
        assert all(r["cg_neg_curvature"].isdigit() for r in rows)
        assert all(r["b"] == "" for r in rows)
        assert all(r["accepted"] in ("true", "false") for r in rows)

    def test_manifest_records_every_tunable(self, artifact):
        manifest = yaml.safe_load((artifact / "manifest.yaml").read_text())
        assert manifest["kernel"]["lengthscale"] == 1.0
        assert manifest["run"]["particles"] == 12
        assert manifest["run"]["seeds"] == [0, 1]
        assert manifest["run"]["resolved_init_scale"] == 1.0
        assert manifest["output"]["mmd_subsample_cap"] == 20_000
        assert manifest["output"]["median_heuristic_subsample_cap"] == 1_000
        dlr = next(m for m in manifest["method"] if m["name"] == "mp-svgd-dlr")
        assert dlr["step"] == 0.05 and dlr["decay"] == 0.99
        assert manifest["problem"]["total_dim"] == 4

    def test_scalar_init_center_resolves_to_every_dimension(self, tmp_path):
        """A number as run.init_center centers every coordinate, and the
        manifest records the center the particles were drawn around."""
        cfg = tiny_config(method=[{"name": "tr-svi-at", "iterations": 0}],
                          output={})
        cfg["run"].update(init_center=1.5, init_scale=1e-3, seeds=[0])
        artifact = run_experiment(cfg, tmp_path / "art")
        manifest = yaml.safe_load((artifact / "manifest.yaml").read_text())
        assert manifest["run"]["resolved_init_center"] == [1.5] * 4
        init, _ = load_samples_csv(artifact / "inits" / "seed_0.csv")
        assert np.abs(init - 1.5).max() < 0.01

    def test_metrics_per_method_stats(self, artifact):
        metrics = yaml.safe_load((artifact / "metrics.yaml").read_text())
        assert metrics["metric"] == "mmd"
        assert set(metrics["methods"]) == {"tr-svi-at", "mp-svgd-dlr"}
        for stats in metrics["methods"].values():
            assert len(stats["per_seed"]) == 2
            assert stats["mean"] == pytest.approx(np.mean(stats["per_seed"]))

    def test_zero_iterations_snapshot_only(self, tmp_path):
        cfg = tiny_config()
        cfg["method"] = [{"name": "tr-svi-at", "iterations": 0}]
        cfg["output"] = {}
        artifact = run_experiment(cfg, tmp_path / "snap")
        init, _ = load_samples_csv(artifact / "inits" / "seed_0.csv")
        final, _ = load_samples_csv(
            artifact / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        )
        np.testing.assert_array_equal(init, final)
        assert yaml.safe_load((artifact / "manifest.yaml").read_text())

    def test_failure_removes_partial_outputs(self, tmp_path):
        cfg = tiny_config()
        cfg["kernel"]["lengthscale"] = "median"
        cfg["output"]["ground_truth"]["samples"] = 1   # degenerate median
        out = tmp_path / "broken"
        with pytest.raises(Exception):
            run_experiment(cfg, out)
        assert not out.exists()

    def test_refuses_nonempty_output_dir(self, tmp_path):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "keep.txt").write_text("hi")
        with pytest.raises(ConfigError, match="not empty"):
            run_experiment(tiny_config(), out)
        assert (out / "keep.txt").exists()

    def test_seed_override_runs_single_seed(self, tmp_path):
        artifact = run_experiment(tiny_config(), tmp_path / "single",
                                  seed_override=7)
        assert (artifact / "runs" / "tr-svi-at" / "seed_7").exists()
        assert not (artifact / "runs" / "tr-svi-at" / "seed_0").exists()

    def test_problem_from_spec_file(self, artifact, tmp_path):
        cfg = tiny_config()
        cfg["problem"] = {"kind": "file",
                          "path": str(artifact / "problem.yaml")}
        cfg["method"] = [{"name": "svgd", "iterations": 2, "step": 0.05}]
        cfg["output"] = {}
        rerun = run_experiment(cfg, tmp_path / "fromfile")
        assert (rerun / "problem.yaml").read_bytes() == \
            (artifact / "problem.yaml").read_bytes()

    def test_negative_seed_override_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^--seed: must be >= 0$"):
            run_experiment(tiny_config(), tmp_path / "neg", seed_override=-1)
        assert not (tmp_path / "neg").exists()

    def test_worker_count_does_not_change_bytes(self, artifact, tmp_path):
        parallel = run_experiment(tiny_config(), tmp_path / "parallel",
                                  workers=3)
        for label in ("tr-svi-at", "mp-svgd-dlr"):
            for seed in (0, 1):
                for name in ("trace.csv", "final.csv", "final.bin"):
                    a = artifact / "runs" / label / f"seed_{seed}" / name
                    b = parallel / "runs" / label / f"seed_{seed}" / name
                    assert a.read_bytes() == b.read_bytes()
        for name in ("ground_truth.csv", "ground_truth.bin", "samples.sha256"):
            assert (artifact / name).read_bytes() == \
                (parallel / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_built_once_per_process(self, tmp_path, monkeypatch,
                                          workers):
        """The four (method, seed) runs take the model `write_problem`
        built (one worker) or the one each worker process built when it
        started (two): no process builds it twice."""
        log = tmp_path / "builds.txt"
        build = experiment.make_model

        def counted(problem):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(problem)

        monkeypatch.setattr(experiment, "make_model", counted)
        run_experiment(tiny_config(), tmp_path / "art", workers=workers)
        pids = log.read_text().split()
        assert pids[0] == str(os.getpid())
        assert len(pids) == len(set(pids))


def snlp_twin_config():
    """A small SNLP experiment whose Metropolis ground truth repeats rows."""
    return {
        "problem": {"kind": "snlp", "unknowns": 4, "anchors": 2, "seed": 3},
        "kernel": {"lengthscale": 1.0},
        "method": [{"name": "tr-svi-at", "iterations": 3},
                   {"name": "svgd", "iterations": 4, "step": 0.05}],
        "run": {"particles": 10, "seeds": [0, 1]},
        "output": {"ground_truth": {"samples": 300, "burn_in": 10,
                                    "thinning": 2}},
    }


@pytest.fixture(scope="module")
def snlp_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "snlp"
    return run_experiment(snlp_twin_config(), out)


def _sample_csvs(artifact):
    """Posix paths, relative to the artifact, of the CSVs evaluate reads."""
    runs = artifact.glob("runs/*/seed_*/final.csv")
    return ["ground_truth.csv"] + sorted(
        path.relative_to(artifact).as_posix() for path in runs)


def _evaluate_copy(artifact, dest, monkeypatch, *edits):
    """metrics.yaml of `evaluate_artifact` on a copy of the artifact made
    with each of `edits` applied, and the CSVs it parsed, relative posix
    paths in the order read."""
    copy = shutil.copytree(artifact, dest)
    (copy / "metrics.yaml").unlink()
    for edit in edits:
        edit(copy)
    parsed = []

    def spy(path):
        parsed.append(Path(path).relative_to(copy).as_posix())
        return load_samples_csv(path)

    monkeypatch.setattr(experiment, "load_samples_csv", spy)
    evaluate_artifact(copy)
    return (copy / "metrics.yaml").read_bytes(), parsed


def _drop_index(copy):
    (copy / SAMPLE_INDEX).unlink()


class TestSampleTwins:
    """`trsvi evaluate` reads a binary twin instead of its CSV only while
    samples.sha256 vouches for both; the CSV path is the oracle."""

    @pytest.fixture(params=["bayes_net", "snlp"])
    def any_artifact(self, request, artifact, snlp_artifact):
        return artifact if request.param == "bayes_net" else snlp_artifact

    def test_twins_hold_the_csv_values(self, any_artifact):
        for rel in _sample_csvs(any_artifact):
            samples, _ = load_samples_csv(any_artifact / rel)
            twin = load_samples_binary(any_artifact / (rel[:-4] + ".bin"))
            assert twin.tobytes() == samples.tobytes(), rel

    def test_snlp_ground_truth_repeats_rows(self, snlp_artifact):
        truth, _ = load_samples_csv(snlp_artifact / "ground_truth.csv")
        assert (truth[1:] == truth[:-1]).all(axis=1).sum() > 10

    def test_twin_metrics_are_the_csv_metrics(self, any_artifact, tmp_path,
                                             monkeypatch):
        twins, parsed = _evaluate_copy(any_artifact, tmp_path / "twin",
                                       monkeypatch)
        assert parsed == []
        csvs, parsed = _evaluate_copy(any_artifact, tmp_path / "csv",
                                      monkeypatch, _drop_index)
        assert sorted(parsed) == _sample_csvs(any_artifact)
        assert twins == csvs == (any_artifact / "metrics.yaml").read_bytes()

    def test_edited_csv_wins_over_its_twin(self, artifact, tmp_path,
                                           monkeypatch):
        rel = "runs/mp-svgd-dlr/seed_1/final.csv"

        def edit(copy):
            samples, names = load_samples_csv(copy / rel)
            samples[0, 0] += 1.0
            save_samples_csv(copy / rel, samples, names)

        edited, parsed = _evaluate_copy(artifact, tmp_path / "edited",
                                        monkeypatch, edit)
        assert parsed == [rel]
        oracle, _ = _evaluate_copy(artifact, tmp_path / "oracle", monkeypatch,
                                   edit, _drop_index)
        assert edited == oracle
        before = yaml.safe_load((artifact / "metrics.yaml").read_text())
        after = yaml.safe_load(edited)
        assert after["methods"]["tr-svi-at"] == before["methods"]["tr-svi-at"]
        old, new = (m["methods"]["mp-svgd-dlr"]["per_seed"]
                    for m in (before, after))
        assert new[0] == old[0] and new[1] != old[1]

    @pytest.mark.parametrize("defect, parsed_csvs", [
        ("truncated ground-truth twin", ["ground_truth.csv"]),
        ("missing twin", ["runs/tr-svi-at/seed_0/final.csv"]),
        ("twin of another run", ["runs/tr-svi-at/seed_0/final.csv"]),
        ("damaged index line", ["ground_truth.csv"]),
        ("missing index", "all"),
    ])
    def test_unverified_twin_falls_back_to_its_csv(self, artifact, tmp_path,
                                                   monkeypatch, defect,
                                                   parsed_csvs):
        def edit(copy):
            run = copy / "runs" / "tr-svi-at"
            if defect == "truncated ground-truth twin":
                twin = copy / "ground_truth.bin"
                twin.write_bytes(twin.read_bytes()[:-8])
            elif defect == "missing twin":
                (run / "seed_0" / "final.bin").unlink()
            elif defect == "twin of another run":
                shutil.copy(run / "seed_1" / "final.bin",
                            run / "seed_0" / "final.bin")
            elif defect == "damaged index line":
                index = copy / SAMPLE_INDEX
                index.write_text(index.read_text().replace(
                    "  ground_truth.bin", " ground_truth.bin"))
            else:
                _drop_index(copy)

        metrics, parsed = _evaluate_copy(artifact, tmp_path / "defect",
                                         monkeypatch, edit)
        if parsed_csvs == "all":
            parsed_csvs = _sample_csvs(artifact)
        assert sorted(parsed) == parsed_csvs
        assert metrics == (artifact / "metrics.yaml").read_bytes()

    def test_missing_csv_named_beside_its_twin(self, artifact, tmp_path,
                                               capsys):
        copy = shutil.copytree(artifact, tmp_path / "art")
        path = copy / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        path.unlink()
        capsys.readouterr()
        assert main(["evaluate", "--artifact", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    def test_index_checks_as_sha256sum_does(self, artifact):
        text = (artifact / SAMPLE_INDEX).read_text()
        assert text.endswith("\n")
        entries = [re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line).groups()
                   for line in text.splitlines()]
        paths = [rel for _, rel in entries]
        assert paths == sorted(
            twin for rel in _sample_csvs(artifact)
            for twin in (rel, rel[:-4] + ".bin"))
        for digest, rel in entries:
            assert hashlib.sha256((artifact / rel).read_bytes()).hexdigest() \
                == digest, rel
        if shutil.which("sha256sum"):
            done = subprocess.run(["sha256sum", "--check", "--strict",
                                   SAMPLE_INDEX], cwd=artifact,
                                  capture_output=True)
            assert done.returncode == 0, done.stdout + done.stderr

    def test_index_written_without_mmd(self, tmp_path):
        cfg = tiny_config()
        cfg["output"]["mmd"] = False
        artifact = run_experiment(cfg, tmp_path / "nommd")
        assert not (artifact / "metrics.yaml").exists()
        assert len((artifact / SAMPLE_INDEX).read_text().splitlines()) == 10


def blas_thread_config():
    """snlp_large's d = 100 problem at n = 200, five methods cut to a few
    iterations, and a short Metropolis reference so that evaluate runs."""
    return {
        "problem": {"kind": "snlp", "unknowns": 50, "anchors": 12,
                    "side": 20.0, "radius": 3.0, "noise_variance": 0.01,
                    "seed": 0},
        "kernel": {"lengthscale": 3.0},
        "method": [
            {"name": "tr-svi-at", "iterations": 5},
            {"name": "tr-svi-kl", "iterations": 5, "initial_radius": 1.0},
            {"name": "svn-ctr", "iterations": 3, "radius": 0.1},
            {"name": "mp-svgd-dlr", "iterations": 5, "step": 0.1,
             "decay": 0.99},
            {"name": "svgd", "iterations": 5, "step": 0.1},
        ],
        "run": {"particles": 200, "seeds": [0]},
        "output": {"ground_truth": {"samples": 400, "seed": 1000,
                                    "proposal_scale": 0.01, "burn_in": 200}},
    }


def net_blas_thread_config():
    """A ten-node net at n = 200 with every local-kernel method: one-node
    factors, where the batched field rounds differently from a per-factor
    loop."""
    return {
        "problem": {"kind": "bayes_net", "layer_sizes": [5, 5],
                    "max_parents": 2, "gmm_nodes": 2, "seed": 3},
        "kernel": {"lengthscale": 1.0},
        "method": [
            {"name": "tr-svi-at", "iterations": 4},
            {"name": "tr-svi-kl", "iterations": 4, "initial_radius": 1.0},
            {"name": "mp-svgd-dlr", "iterations": 6, "step": 0.05,
             "decay": 0.99},
            {"name": "svn-ctr", "iterations": 3, "radius": 0.1},
        ],
        "run": {"particles": 200, "seeds": [0]},
        "output": {"ground_truth": {"samples": 400, "seed": 1000}},
    }


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    """`trsvi run` and `trsvi evaluate` at one and at two BLAS threads write
    the same bytes to every file but timings.csv.  The thread count must be
    set before numpy loads, so each runs in its own process."""
    assert_blas_threads_change_no_byte(tmp_path, blas_thread_config())


def test_blas_thread_count_does_not_change_net_bytes(tmp_path):
    assert_blas_threads_change_no_byte(tmp_path, net_blas_thread_config())


def assert_blas_threads_change_no_byte(tmp_path, cfg):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        for verb in (["run", "--config", str(config), "--output-dir",
                      str(out), "--workers", "1"],
                     ["evaluate", "--artifact", str(out)]):
            run_cli(verb, env).check_returncode()
        outputs.append(out)
    one, two = ({p.relative_to(out): p for p in out.rglob("*") if p.is_file()}
                for out in outputs)
    assert set(one) == set(two)
    compared = sorted(set(one) - {Path("timings.csv")})
    assert Path("metrics.yaml") in compared and len(compared) > 10
    for name in compared:
        assert one[name].read_bytes() == two[name].read_bytes(), name


def run_cli(argv, env=None) -> subprocess.CompletedProcess:
    """`trsvi` with these arguments in a fresh process, output captured."""
    src = str(Path(trsvi.__file__).parents[1])
    cli = "import sys; from trsvi.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", cli, *argv], env=env,
                          capture_output=True, text=True, timeout=600)


SMALL_SNLP = {"kind": "snlp", "unknowns": 2, "anchors": 3, "side": 6.0,
              "radius": 4.0, "noise_variance": 0.01, "seed": 3}


def _problem_file(tmp_path, text):
    path = tmp_path / "spec.yaml"
    path.write_text(text)
    return {"kind": "file", "path": str(path)}


def _spec_file(tmp_path, kind, **edit):
    """A problem file holding a small problem of `kind` with `edit` applied
    to its first node (a net) or to the problem (SNLP)."""
    if kind == "bayes_net":
        spec = problem_to_dict(generate_bayes_net(BayesNetConfig((2, 2))))
        spec["layers"][0][0].update(edit)
    else:
        fields = {k: v for k, v in SMALL_SNLP.items() if k != "kind"}
        spec = {**problem_to_dict(build_snlp(SnlpConfig(**fields))), **edit}
    return _problem_file(tmp_path, dump_yaml(spec))


def _coincident_truth(output):
    """`output` with a Metropolis ground truth that never moves: every
    proposal of scale 1e-200 rounds back to the chain's start, so on an
    SNLP problem all of its rows coincide."""
    output["ground_truth"].update(proposal_scale=1.0e-200)


@pytest.mark.parametrize("edit, field", [
    (lambda cfg, tmp: cfg["run"].update(seeds=[4, 7, 4]), "run.seeds[2]"),
    (lambda cfg, tmp: cfg["run"].update(particles=1), "run.particles"),
    # inputs that validated but ended in a traceback and exit status 1
    (lambda cfg, tmp: cfg["kernel"].update(lengthscale=INF),
     "kernel.lengthscale"),
    (lambda cfg, tmp: cfg["run"].update(init_scale=INF), "run.init_scale"),
    (lambda cfg, tmp: cfg["run"].update(init_center=NAN), "run.init_center"),
    (lambda cfg, tmp: cfg["problem"].update(mean_range=[-INF, 0.0]),
     "problem.mean_range[0]"),
    (lambda cfg, tmp: cfg["problem"].update(variance_range=[1e-3, INF]),
     "problem.variance_range[1]"),
    (lambda cfg, tmp: cfg["problem"].update(variance_range=[1e-320, 1e-320]),
     "problem.variance_range[0]"),
    (lambda cfg, tmp: cfg.update(problem={**SMALL_SNLP, "side": INF}),
     "problem.side"),
    (lambda cfg, tmp: cfg.update(problem={**SMALL_SNLP,
                                          "noise_variance": INF}),
     "problem.noise_variance"),
    (lambda cfg, tmp: cfg.update(problem={**SMALL_SNLP,
                                          "noise_variance": 1e-320}),
     "problem.noise_variance"),
    (lambda cfg, tmp: cfg["method"].append(
        {"name": "mp-svgd-ag", "iterations": 2, "step": INF}),
     "method[3].step"),
    (lambda cfg, tmp: cfg["problem"].update(seed=-1), "problem.seed"),
    (lambda cfg, tmp: cfg["run"].update(seeds=[-1]), "run.seeds[0]"),
    (lambda cfg, tmp: cfg["output"]["ground_truth"].update(seed=-5),
     "output.ground_truth.seed"),
    (lambda cfg, tmp: cfg.update(problem={"kind": "file",
                                          "path": str(tmp / "missing.yaml")}),
     "missing.yaml: No such file"),
    (lambda cfg, tmp: cfg.update(problem=_problem_file(tmp, "layers: [1,\n")),
     "spec.yaml: not valid YAML"),
    (lambda cfg, tmp: cfg.update(problem=_problem_file(
        tmp, "schema_version: 1\nkind: bayes_net\nlayers: 3\n")),
     "spec.yaml: malformed bayes_net problem spec"),
    # finite values whose arithmetic overflowed
    (lambda cfg, tmp: cfg["problem"].update(mean_range=[-1.0e308, 1.0e308]),
     "problem.mean_range: high - low must be finite"),
    # a problem file whose variance the models cannot divide by
    (lambda cfg, tmp: cfg.update(problem=_spec_file(tmp, "bayes_net",
                                                    variance=1e-320)),
     "spec.yaml: variance"),
    (lambda cfg, tmp: cfg.update(problem=_spec_file(tmp, "snlp",
                                                    noise_variance=INF)),
     "spec.yaml: noise_variance"),
    # a ground truth whose rows all coincide: the MMD kernel's median
    # heuristic, or a "median" lengthscale's, ended in a traceback
    (lambda cfg, tmp: (cfg.update(problem=dict(SMALL_SNLP)),
                       _coincident_truth(cfg["output"])),
     "ground_truth.csv: over half of its row pairs coincide"),
    (lambda cfg, tmp: (cfg.update(problem=dict(SMALL_SNLP)),
                       cfg["kernel"].update(lengthscale="median"),
                       _coincident_truth(cfg["output"])),
     "output.ground_truth: over half of its row pairs coincide"),
    # labels that are no path component wrote runs outside the artifact
    (lambda cfg, tmp: cfg["method"][0].update(label="../x"),
     "method[0].label"),
    (lambda cfg, tmp: cfg["method"][0].update(label="/x"), "method[0].label"),
    (lambda cfg, tmp: cfg["method"][0].update(label="a/b"), "method[0].label"),
    (lambda cfg, tmp: cfg["method"][1].update(label=".."), "method[1].label"),
    (lambda cfg, tmp: cfg["method"][2].update(label="a\nb"),
     "method[2].label"),
    # these two validated and finished with exit status 0
    (lambda cfg, tmp: cfg["method"][2].update(initial_radius=INF),
     "method[2].initial_radius"),
    (lambda cfg, tmp: cfg["method"].append(
        {"name": "svn-ctr", "iterations": 2, "radius": INF}),
     "method[3].radius"),
])
def test_config_that_cannot_run_exits_2_before_any_output(tmp_path, edit,
                                                          field):
    """A repeated seed, one particle for a method that needs two (tr-svi-kl's
    median heuristic), a number that is not finite, a variance or
    lengthscale whose reciprocal is not a finite normal number, a negative
    seed, a problem file that is missing, not YAML or not a problem spec,
    a method label that is no path component, or a ground truth whose rows
    all coincide is a config error: `trsvi run` exits 2 with one stderr
    line naming the field or file, no traceback, and no output directory."""
    cfg = tiny_config()
    cfg["method"].append({"name": "tr-svi-kl", "iterations": 2})
    edit(cfg, tmp_path)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "art"
    result = run_cli(["run", "--config", str(path), "--output-dir", str(out)])
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and field in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_tr_svi_at_stops_where_its_radius_reaches_zero(tmp_path):
    """On a 2-unknown, 3-anchor SNLP under a 1e-30 lengthscale, tr-svi-at's
    gradient magnitude reaches 0 at iteration 4, so its next radius g / b
    is 0.  The run stops there and `trsvi run` exits 0, where CG-Steihaug
    raised "radius must be positive"."""
    cfg = {"problem": {"kind": "snlp", "unknowns": 2, "anchors": 3,
                       "seed": 0},
           "kernel": {"lengthscale": 1.0e-30},
           "method": [{"name": "tr-svi-at", "iterations": 20}],
           "run": {"particles": 10, "seeds": [0]},
           "output": {"ground_truth": {"samples": 0}}}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "art"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 0
    with open(out / "runs" / "tr-svi-at" / "seed_0" / "trace.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert rows[-1]["gradient_magnitude"] == "0.0"
    assert rows[-1]["accepted"] == "true"


class TestMarginals:
    def test_snlp_factor_gives_two_columns(self, tmp_path):
        cfg = tiny_config()
        cfg["problem"] = {"kind": "snlp", "unknowns": 4, "anchors": 2,
                          "side": 6.0, "radius": 3.0, "noise_variance": 0.01,
                          "noiseless": True, "seed": 3}
        cfg["method"] = [{"name": "tr-svi-at", "iterations": 2}]
        cfg["output"] = {}
        artifact = run_experiment(cfg, tmp_path / "snlp")
        samples_csv = artifact / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        paths = export_marginals(samples_csv, artifact / "problem.yaml", [1],
                                 tmp_path / "marginals")
        data, names = load_samples_csv(paths[0])
        assert names == ["s1_x", "s1_y"]
        assert data.shape == (12, 2)

    def test_all_factors_reassemble_full_matrix(self, tmp_path):
        cfg = tiny_config()
        cfg["method"] = [{"name": "tr-svi-at", "iterations": 2}]
        cfg["output"] = {}
        artifact = run_experiment(cfg, tmp_path / "bn")
        samples_csv = artifact / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        full, names = load_samples_csv(samples_csv)
        problem = load_problem(artifact / "problem.yaml")
        paths = export_marginals(samples_csv, artifact / "problem.yaml",
                                 list(range(4)), tmp_path / "marg")
        rebuilt = np.hstack([load_samples_csv(p)[0] for p in paths])
        np.testing.assert_array_equal(rebuilt, full)

    def test_unknown_factor_index(self, tmp_path):
        cfg = tiny_config()
        cfg["method"] = [{"name": "tr-svi-at", "iterations": 1}]
        cfg["output"] = {}
        artifact = run_experiment(cfg, tmp_path / "oops")
        samples_csv = artifact / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        with pytest.raises(ValueError, match="factor"):
            export_marginals(samples_csv, artifact / "problem.yaml", [99],
                             tmp_path / "m")


class TestCliVerbs:
    def _write_config(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(tiny_config()))
        return path

    def test_generate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        rc = main(["generate", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "gen")])
        assert rc == 0
        assert (tmp_path / "gen" / "problem.yaml").exists()
        assert (tmp_path / "gen" / "ground_truth.csv").exists()

    @pytest.mark.parametrize("kind", ["bayes_net", "snlp"])
    def test_generate_and_run_write_the_same_problem(self, kind, tmp_path):
        """`trsvi generate` and `trsvi run` write byte-identical problem specs
        and ground truths for one config (a Metropolis chain's for SNLP)."""
        cfg = full_config(kind)
        cfg["method"] = cfg["method"][:1]
        cfg["run"] = {"particles": 4, "seeds": [0]}
        cfg["output"]["mmd"] = False
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["generate", "--config", str(path),
                     "--output-dir", str(tmp_path / "gen")]) == 0
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "run")]) == 0
        for name in ("problem.yaml", "ground_truth.csv", "ground_truth.bin"):
            generated = (tmp_path / "gen" / name).read_bytes()
            assert generated == (tmp_path / "run" / name).read_bytes(), name

    def test_run_and_evaluate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        rc = main(["run", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "art"), "--workers", "2"])
        assert rc == 0
        rc = main(["evaluate", "--artifact", str(tmp_path / "art")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tr-svi-at" in out and "mmd" in out

    def test_export_marginals_verb(self, tmp_path):
        cfg = self._write_config(tmp_path)
        main(["run", "--config", str(cfg),
              "--output-dir", str(tmp_path / "art2")])
        rc = main([
            "export-marginals",
            "--samples", str(tmp_path / "art2" / "runs" / "tr-svi-at"
                             / "seed_0" / "final.csv"),
            "--problem", str(tmp_path / "art2" / "problem.yaml"),
            "--factors", "0", "2",
            "--output-dir", str(tmp_path / "marg"),
        ])
        assert rc == 0
        assert (tmp_path / "marg" / "factor_0.csv").exists()
        assert (tmp_path / "marg" / "factor_2.csv").exists()

    @pytest.mark.parametrize("defect, named", [
        ("missing samples", "none.csv: No such file"),
        ("problem not YAML", "spec.yaml: not valid YAML"),
        ("malformed problem", "spec.yaml: malformed bayes_net problem spec"),
        ("unknown factor", "--factors: unknown factor index 99"),
        ("samples of another problem", "3 columns"),
    ])
    def test_export_marginals_bad_input_exits_2(self, artifact, tmp_path,
                                                capsys, defect, named):
        samples = artifact / "runs" / "tr-svi-at" / "seed_0" / "final.csv"
        problem, factors = artifact / "problem.yaml", "0"
        if defect == "missing samples":
            samples = tmp_path / "none.csv"
        elif defect == "problem not YAML":
            problem = tmp_path / "spec.yaml"
            problem.write_text("layers: [1,\n")
        elif defect == "malformed problem":
            problem = tmp_path / "spec.yaml"
            problem.write_text("schema_version: 1\nkind: bayes_net\nlayers: 3\n")
        elif defect == "unknown factor":
            factors = "99"
        else:
            samples = tmp_path / "narrow.csv"
            save_samples_csv(samples, np.zeros((2, 3)), ["a", "b", "c"])
        rc = main(["export-marginals", "--samples", str(samples), "--problem",
                   str(problem), "--factors", factors,
                   "--output-dir", str(tmp_path / "marg")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "marg").exists()

    @pytest.mark.parametrize("defect", ["missing manifest", "manifest yaml",
                                        "non-numeric final sample"])
    def test_evaluate_defective_artifact_exits_2(self, artifact, tmp_path,
                                                 capsys, defect):
        """A missing or corrupt artifact file gives exit status 2 and one
        stderr line naming the file, not a traceback."""
        copy = shutil.copytree(artifact, tmp_path / "art")
        if defect == "missing manifest":
            path = copy / "manifest.yaml"
            path.unlink()
        elif defect == "manifest yaml":
            path = copy / "manifest.yaml"
            path.write_text("method: [\n  - {label: x\n")
        else:
            path = copy / "runs" / "mp-svgd-dlr" / "seed_1" / "final.csv"
            lines = path.read_bytes().split(b"\r\n")
            lines[2] = b",".join(b"abc" for _ in lines[2].split(b","))
            path.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        rc = main(["evaluate", "--artifact", str(copy)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("defect, named", [
        ("manifest without output.mmd_seed", "output.mmd_seed"),
        ("manifest with a negative output.mmd_seed", "output.mmd_seed"),
        ("manifest that is a list", "manifest.yaml"),
        ("manifest with a label outside the artifact", "method[0].label"),
        ("final sample narrower than the ground truth", "final.csv"),
        ("ground truth of one row", "ground_truth.csv"),
        # a value the CSV parser reads as a number; the edit breaks the
        # CSV's digest, so evaluate parses it instead of reading its twin
        ("nan in the ground truth", "ground_truth.csv: data row 3 holds"),
        ("inf in the ground truth", "ground_truth.csv: data row 3 holds"),
        ("nan in a final sample", "final.csv: data row 3 holds"),
        ("inf in a final sample", "final.csv: data row 3 holds"),
    ])
    def test_evaluate_unusable_artifact_exits_2(self, artifact, tmp_path,
                                                capsys, defect, named):
        """A manifest that lacks a field evaluate reads, is no mapping or
        holds a label that is no path component, a final sample whose width
        is not the ground truth's, a ground truth too small for the median
        heuristic and a sample holding NaN or inf give exit status 2, one
        stderr line naming the field or the file, and no metrics.yaml."""
        copy = shutil.copytree(artifact, tmp_path / "art")
        (copy / "metrics.yaml").unlink()
        manifest_path = copy / "manifest.yaml"
        manifest = yaml.safe_load(manifest_path.read_text())
        if defect == "manifest without output.mmd_seed":
            del manifest["output"]["mmd_seed"]
        elif defect == "manifest with a negative output.mmd_seed":
            manifest["output"]["mmd_seed"] = -1
        elif defect == "manifest that is a list":
            manifest = [manifest]
        elif defect == "manifest with a label outside the artifact":
            manifest["method"][0]["label"] = "../../escaped"
        elif defect == "ground truth of one row":
            path = copy / "ground_truth.csv"
            samples, names = load_samples_csv(path)
            save_samples_csv(path, samples[:1], names)
        elif defect.startswith(("nan", "inf")):
            path = copy / ("ground_truth.csv" if "ground" in defect else
                           "runs/mp-svgd-dlr/seed_1/final.csv")
            samples, names = load_samples_csv(path)
            samples[2, 1] = float(defect[:3])
            save_samples_csv(path, samples, names)
        else:
            path = copy / "runs" / "mp-svgd-dlr" / "seed_1" / "final.csv"
            samples, names = load_samples_csv(path)
            save_samples_csv(path, samples[:, 1:], names[1:])
        manifest_path.write_text(yaml.safe_dump(manifest))
        capsys.readouterr()
        rc = main(["evaluate", "--artifact", str(copy)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and named in err
        assert not (copy / "metrics.yaml").exists()

    def test_evaluate_coincident_ground_truth_exits_2(self, tmp_path,
                                                      capsys):
        """An artifact built without MMD, at a numeric lengthscale, whose
        ground truth rows all coincide: exit status 2, one config error
        line naming the file, and every file left as it was."""
        cfg = tiny_config(problem=dict(SMALL_SNLP))
        cfg["output"]["mmd"] = False
        _coincident_truth(cfg["output"])
        out = run_experiment(cfg, tmp_path / "art")

        def files():
            return {path: path.read_bytes() for path in out.rglob("*")
                    if path.is_file()}

        before = files()
        rc = main(["evaluate", "--artifact", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"config error: {out / 'ground_truth.csv'}: over half "
                       "of its row pairs coincide, so the median heuristic "
                       "gives no kernel lengthscale\n")
        assert files() == before

    def test_coincident_ground_truth_stops_run_before_any_method(
            self, tmp_path, monkeypatch):
        """With MMD on, a ground truth whose rows all coincide is a config
        error before the first (method, seed) run starts."""
        cfg = tiny_config(problem=dict(SMALL_SNLP))
        _coincident_truth(cfg["output"])
        runs = []
        monkeypatch.setattr(experiment, "_run_task", runs.append)
        with pytest.raises(ConfigError, match="ground_truth.csv: over half"):
            run_experiment(cfg, tmp_path / "art")
        assert runs == []
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("verb", ["run", "generate"])
    @pytest.mark.parametrize("content", [b"problem: {kind: snlp\n",
                                         b"\xff\xfe", None])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, verb,
                                       content):
        """A config that is not valid YAML, not UTF-8 or missing gives exit
        status 2 and one config error line naming the file."""
        bad = tmp_path / "bad.yaml"
        if content is not None:
            bad.write_bytes(content)
        rc = main([verb, "--config", str(bad),
                   "--output-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {bad}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["run", "generate"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, verb):
        rc = main([verb, "--config", str(self._write_config(tmp_path)),
                   "--output-dir", str(tmp_path / "x"), "--seed", "-1"])
        assert rc == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_generate_seed_rejected_for_file_problem(self, artifact,
                                                     tmp_path, capsys):
        cfg = {"problem": {"kind": "file",
                           "path": str(artifact / "problem.yaml")},
               "method": {"name": "svgd"}}
        path = tmp_path / "file.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv = ["generate", "--config", str(path), "--output-dir",
                str(tmp_path / "gen")]
        assert main(argv + ["--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: --seed: ")
        assert not (tmp_path / "gen").exists()
        assert main(argv) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"problem": {"kind": "bad"}}))
        rc = main(["run", "--config", str(bad),
                   "--output-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "problem.kind" in capsys.readouterr().err
