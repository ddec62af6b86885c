"""End-to-end experiment runner: builds problems, runs configured methods
over seeds, records traces and samples, and evaluates MMD against ground
truth.

Artifact directory layout:

    manifest.yaml            fully resolved config, seeds, derived values
    problem.yaml             generated or copied problem spec
    ground_truth.csv, .bin   reference sample and its binary twin (when
                             requested)
    inits/seed_<s>.csv       shared per-seed particle initializations
    runs/<label>/seed_<s>/   trace.csv, final.csv and final.bin per method
                             and seed
    samples.sha256           SHA-256 of every sample CSV evaluate reads and
                             of its twin, in `sha256sum -c` format
    metrics.yaml             MMD report (when requested)
    timings.csv              wall-clock seconds per run

Runs for different seeds are independent and may execute in parallel worker
processes; every file is produced by seeded, fixed-order computation, so
outputs are byte-identical regardless of the worker count.  The trace CSV
keeps its wall_ms column empty for the same reason; real timings go to
timings.csv.

The CSVs are the canonical samples.  Evaluation reads a binary twin in
place of its CSV only when samples.sha256 lists both files and both still
match it; otherwise it parses the CSV.
"""

from __future__ import annotations

import csv
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
from yaml import YAMLError

from . import __version__, stein
from .config import (
    METHODS,
    PROBLEMS,
    ConfigError,
    bundled_defaults,
    check_seed,
    manifest_fields,
    resolve_method_defaults,
    validate_config,
)
from .evaluation import MmdReference, metropolis_reference
from .kernels import (
    MEDIAN_SUBSAMPLE,
    DegenerateSampleError,
    KernelSpec,
    median_heuristic,
)
from .model import (
    BayesNetConfig,
    BayesNetModel,
    BayesNetSpec,
    SnlpConfig,
    SnlpModel,
    SnlpProblem,
    ancestral_sample,
    build_snlp,
    dump_yaml,
    generate_bayes_net,
    load_problem,
    load_samples_csv,
    load_verified_twin,
    load_yaml,
    read_sample_index,
    save_problem,
    save_samples_binary,
    save_samples_csv,
    twin_path,
    write_sample_index,
)
from .stein import ParticleSet
from .trustregion import IterationRecord, RunTrace, trust_region_run

# Not called here; perfbench/tracing.py patches these names in this module.
from .baselines import mp_svgd_step, svgd_step  # noqa: F401
from .stein import (  # noqa: F401
    field_from_context, global_context, global_stein_gradient,
    graphical_stein_gradient, hessian_stack_from_context)
from .trustregion import (  # noqa: F401
    solve_subproblems, tr_svi_at_run, tr_svi_kl_run)

TRACE_COLUMNS = tuple(f.name for f in fields(IterationRecord))


def make_model(problem):
    if isinstance(problem, BayesNetSpec):
        return BayesNetModel(problem)
    if isinstance(problem, SnlpProblem):
        return SnlpModel(problem)
    raise TypeError(f"unsupported problem type {type(problem)!r}")


def build_problem(problem_cfg: dict):
    """The problem of a validated problem section: generated from its PROBLEMS
    fields, or read from its file."""
    kind = problem_cfg["kind"]
    if kind == "file":
        return _read_file(Path(problem_cfg["path"]), load_problem)
    make_config, generate = {"bayes_net": (BayesNetConfig, generate_bayes_net),
                             "snlp": (SnlpConfig, build_snlp)}[kind]
    return generate(make_config(**{key: problem_cfg[key]
                                   for key in PROBLEMS[kind]}))


def init_distribution(problem, run_cfg: dict) -> tuple[np.ndarray, float]:
    """Center and scale of the Gaussian particle initializer: the configured
    ones, else the problem family's defaults."""
    if isinstance(problem, SnlpProblem):
        center = np.full(2 * problem.n_unknowns, problem.side / 2.0)
        scale = problem.side / 4.0
    else:
        center, scale = np.zeros(problem.total_dim), 1.0
    if run_cfg.get("init_center") is not None:
        configured = np.asarray(run_cfg["init_center"], dtype=float)
        if configured.ndim and configured.shape != center.shape:
            raise ConfigError(f"run.init_center: {configured.size} entries, "
                              f"the problem has {center.size} dimensions")
        center = np.full_like(center, configured)
    if run_cfg.get("init_scale") is not None:
        scale = float(run_cfg["init_scale"])
    return center, scale


def initialize_particles(problem, run_cfg: dict, seed: int) -> ParticleSet:
    """I.i.d. Gaussian cloud of `init_distribution`."""
    center, scale = init_distribution(problem, run_cfg)
    rng = np.random.default_rng(seed)
    return ParticleSet(center + scale * rng.standard_normal(
        (run_cfg["particles"], center.size)), seed=seed)


def ground_truth_sample(problem, gt_cfg: dict, model=None) -> np.ndarray:
    """The configured reference sample: ancestral draws from a net, a
    Metropolis chain on an SNLP posterior (its model built here unless
    given)."""
    count = gt_cfg["samples"]
    if isinstance(problem, BayesNetSpec):
        return ancestral_sample(problem, count, gt_cfg["seed"])
    if model is None:
        model = make_model(problem)
    result = metropolis_reference(
        model,
        chain_length=count * gt_cfg["thinning"],
        proposal_scale=gt_cfg["proposal_scale"],
        burn_in=gt_cfg["burn_in"],
        thinning=gt_cfg["thinning"],
        seed=gt_cfg["seed"],
        initial=problem.true_positions.reshape(-1),
    )
    return result.samples


def write_problem(config: dict, out: Path):
    """Write the configured problem's problem.yaml and ground truth, if any,
    into `out`; returns the problem, its model and the ground truth."""
    problem = build_problem(config["problem"])
    model = make_model(problem)
    save_problem(out / "problem.yaml", problem)
    gt_cfg = config["output"]["ground_truth"]
    if gt_cfg["samples"] == 0:
        return problem, model, None
    ground_truth = ground_truth_sample(problem, gt_cfg, model)
    save_samples_with_twin(out / "ground_truth.csv", ground_truth,
                           model.dimension_names())
    return problem, model, ground_truth


def save_samples_with_twin(path: Path, samples: np.ndarray, names) -> None:
    """A sample CSV that evaluation reads, and its binary twin beside it."""
    save_samples_csv(path, samples, names)
    save_samples_binary(twin_path(path), samples)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trace_csv(path, trace: RunTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow([_format_cell(getattr(r, c)) for c in TRACE_COLUMNS])


def execute_method(problem, method_cfg: dict, lengthscale: float,
                   run_cfg: dict, seed: int,
                   model=None) -> tuple[ParticleSet, RunTrace]:
    """Run one method as its METHODS entry describes it, from the shared
    per-seed initialization, on the problem's model (built here unless
    given)."""
    if model is None:
        model = make_model(problem)
    method = METHODS[method_cfg["name"]]
    kernel = KernelSpec(lengthscale)
    # looked up in `stein` at call time, where the benchmark's tracer wraps them
    contexts = {
        "local": lambda X: stein.local_context(X, model.layout, kernel),
        "global": lambda X: stein.global_context(X, model.layout, kernel)}
    return trust_region_run(
        initialize_particles(problem, run_cfg, seed), model,
        contexts[method.context], method.controller(method_cfg, seed),
        method_cfg["iterations"])


# The problem, and its model, that this process's (method, seed) runs take:
# `write_problem`'s in the main process, built once in each worker process.
_task_problem: tuple = (None, None)


def _use_problem(problem, model) -> None:
    """Make `_run_task` run on `problem` and its model."""
    global _task_problem
    _task_problem = (problem, model)


def _start_worker(problem) -> None:
    """A worker process's initializer: its runs' model, built once."""
    _use_problem(problem, make_model(problem))


def _run_task(payload: dict) -> dict:
    """One (method, seed) run on the problem of `_use_problem`; executed
    possibly in a worker process."""
    problem, model = _task_problem
    started = time.perf_counter()
    final, trace = execute_method(
        problem, payload["method"], payload["lengthscale"], payload["run"],
        payload["seed"], model=model,
    )
    elapsed = time.perf_counter() - started
    run_dir = Path(payload["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(run_dir / "trace.csv", trace)
    save_samples_with_twin(run_dir / "final.csv", final.positions,
                           model.dimension_names())
    return {
        "label": payload["method"]["label"],
        "seed": payload["seed"],
        "iterations": len(trace.records),
        "wall_s": elapsed,
        "warnings": list(trace.warnings),
    }


def resolve_lengthscale(configured, table: dict, ground_truth, mmd_seed: int):
    """Numeric kernel lengthscale plus a note on where it came from."""
    if configured == "table":
        return table["lengthscale"], "bundled table"
    if configured == "median":
        return (_ground_truth_median(ground_truth, mmd_seed,
                                    "output.ground_truth"),
                "median of ground truth")
    return float(configured), "config"


def _ground_truth_median(ground_truth, seed: int, where: str) -> float:
    """The median heuristic of a ground truth; one without a positive
    median pair distance is a one-line ConfigError naming `where`."""
    try:
        return median_heuristic(ground_truth, seed=seed)
    except DegenerateSampleError:
        raise ConfigError(f"{where}: over half of its row pairs coincide, so "
                          "the median heuristic gives no kernel lengthscale"
                          ) from None


def run_experiment(config, output_dir, seed_override: int | None = None,
                   workers: int = 1) -> Path:
    """Run a full configured experiment into a fresh artifact directory."""
    if not isinstance(config, dict):
        config = load_config(config)
    config = validate_config(config)
    if seed_override is not None:
        config["run"]["seeds"] = [check_seed(int(seed_override), "--seed")]

    out = Path(output_dir)
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} exists and is not empty")
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _run_experiment_body(config, out, workers)
    except BaseException:
        # never leave partial artifacts behind
        if created:
            shutil.rmtree(out, ignore_errors=True)
        else:
            for child in out.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    child.unlink(missing_ok=True)
        raise


def _run_experiment_body(config: dict, out: Path, workers: int) -> Path:
    problem, model, ground_truth = write_problem(config, out)
    kind = "snlp" if isinstance(problem, SnlpProblem) else "bayes_net"
    config = resolve_method_defaults(config, kind, model.layout.total_dim)

    lengthscale, ls_source = resolve_lengthscale(
        config["kernel"]["lengthscale"],
        bundled_defaults(kind, model.layout.total_dim), ground_truth,
        config["output"]["mmd_seed"])
    if config["output"]["mmd"]:
        # the MMD kernel's lengthscale, checked before any method runs
        _ground_truth_median(ground_truth, config["output"]["mmd_seed"],
                             str(out / "ground_truth.csv"))

    init_center, init_scale = init_distribution(problem, config["run"])
    manifest = {
        "schema_version": 1,
        "package_version": __version__,
        "problem": {**config["problem"], "total_dim": model.layout.total_dim,
                    "n_factors": model.layout.n_factors},
        "kernel": {"lengthscale": float(lengthscale),
                   "lengthscale_source": ls_source},
        "method": config["method"],
        "run": {**config["run"], "resolved_init_center": init_center.tolist(),
                "resolved_init_scale": init_scale},
        "output": {
            **config["output"],
            "median_heuristic_subsample_cap": MEDIAN_SUBSAMPLE,
        },
        "problem_warnings": list(getattr(problem, "warnings", ())),
    }
    (out / "manifest.yaml").write_text(dump_yaml(manifest))

    inits_dir = out / "inits"
    inits_dir.mkdir()
    for seed in config["run"]["seeds"]:
        init = initialize_particles(problem, config["run"], seed)
        save_samples_csv(inits_dir / f"seed_{seed}.csv", init.positions,
                         model.dimension_names())

    tasks = [
        {
            "method": method,
            "lengthscale": lengthscale,
            "run": config["run"],
            "seed": seed,
            "run_dir": str(out / "runs" / method["label"] / f"seed_{seed}"),
        }
        for method in config["method"]
        for seed in config["run"]["seeds"]
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_start_worker,
                                 initargs=(problem,)) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        _use_problem(problem, model)
        try:
            results = [_run_task(task) for task in tasks]
        finally:
            _use_problem(None, None)    # hold no model past the runs

    with open(out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "seed", "iterations", "wall_s"])
        for r in results:
            writer.writerow([r["label"], r["seed"], r["iterations"],
                             repr(float(r["wall_s"]))])

    sample_csvs = [Path(task["run_dir"]) / "final.csv" for task in tasks]
    if ground_truth is not None:
        sample_csvs.append(out / "ground_truth.csv")
    write_sample_index(out, [path for csv_path in sample_csvs
                             for path in (csv_path, twin_path(csv_path))])

    if config["output"]["mmd"]:
        evaluate_artifact(out)
    return out


def load_config(path):
    """The config document in the file at `path`; a missing file or one that
    is not valid YAML is a one-line ConfigError naming it."""
    return _read_file(Path(path), load_yaml)


def _read_file(path: Path, read):
    """read(path), with a missing or malformed file raised as a one-line
    ConfigError naming it."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: "
                          + " ".join(str(exc).split())) from None
    except ValueError as exc:
        # the sample loaders' messages name the path; a decoding error's
        # does not
        message = str(exc)
        if str(path) not in message:
            message = f"{path}: {message}"
        raise ConfigError(message) from None


def evaluate_artifact(artifact_dir) -> dict:
    """(Re)compute the MMD report for every run in an artifact directory."""
    out = Path(artifact_dir)
    manifest = out / "manifest.yaml"
    cap, mmd_seed, labels, seeds = manifest_fields(
        _read_file(manifest, load_yaml),
        manifest)
    index = read_sample_index(out)

    def read_samples(path: Path) -> np.ndarray:
        samples = load_verified_twin(out, path.relative_to(out).as_posix(),
                                     index)
        if samples is None:
            samples = _read_file(path, load_samples_csv)[0]
        if not np.isfinite(samples).all():
            bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
            raise ConfigError(f"{path}: data row {bad[0] + 1} holds NaN or "
                              "inf; evaluation needs finite samples")
        return samples

    truth_path = out / "ground_truth.csv"
    if not truth_path.exists():
        raise ConfigError(
            f"artifact {out} has no ground-truth sample; rerun with "
            "output.ground_truth.samples >= 2 to enable evaluation"
        )
    ground_truth = read_samples(truth_path)
    if ground_truth.shape[0] < 2:
        raise ConfigError(f"{truth_path}: {ground_truth.shape[0]} row(s); the "
                          "MMD kernel's median heuristic needs at least two")
    reference = ground_truth
    if reference.shape[0] > cap:
        rng = np.random.default_rng(mmd_seed)
        keep = np.sort(rng.choice(reference.shape[0], size=cap, replace=False))
        reference = reference[keep]
    kernel = KernelSpec(_ground_truth_median(ground_truth, mmd_seed,
                                            str(truth_path)))
    scorer = MmdReference(reference, kernel)

    report = {
        "metric": "mmd",
        "kernel_lengthscale": float(kernel.lengthscale),
        "ground_truth_size": int(ground_truth.shape[0]),
        "reference_size_after_subsample": int(reference.shape[0]),
        "subsample_seed": int(mmd_seed),
        "methods": {},
    }
    for label in labels:
        values = []
        for seed in seeds:
            path = out / "runs" / label / f"seed_{seed}" / "final.csv"
            final = read_samples(path)
            if final.shape[1] != ground_truth.shape[1]:
                raise ConfigError(f"{path}: {final.shape[1]} columns, the "
                                  f"ground truth has {ground_truth.shape[1]}")
            values.append(scorer.value(final))
        report["methods"][label] = {
            "per_seed": [float(v) for v in values],
            "mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        }
    (out / "metrics.yaml").write_text(dump_yaml(report))
    return report


def export_marginals(samples_csv, problem_path, factor_indices,
                     output_dir) -> list[Path]:
    """Write one CSV per requested factor with that factor's columns."""
    samples, names = _read_file(Path(samples_csv), load_samples_csv)
    problem = _read_file(Path(problem_path), load_problem)
    layout = make_model(problem).layout
    if samples.shape[1] != layout.total_dim:
        raise ConfigError(f"{samples_csv}: {samples.shape[1]} columns, the "
                          f"problem in {problem_path} has {layout.total_dim}")
    for a in factor_indices:
        if not 0 <= a < layout.n_factors:
            raise ConfigError(f"--factors: unknown factor index {a}; the "
                              f"problem has {layout.n_factors} factors")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for a in factor_indices:
        dims = layout.factors[a]
        path = out / f"factor_{a}.csv"
        save_samples_csv(path, samples[:, dims], [names[d] for d in dims])
        paths.append(path)
    return paths
