"""Span tracing installed from outside the program.

A `Tracer` replaces the names the program looks up at call time (module
globals and model-class methods) with wrappers that record one span per
call: name, start, end, parent span and run id.  Spans live in flat arrays
while the workload runs and are written out when it ends.  Self time of a
span is its duration minus the durations of its direct children.

Besides spans, a few wrappers count work they can read off arguments or
results (rows written, bytes returned, CG statuses, Metropolis acceptance);
those counts are deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from trsvi import baselines, evaluation, experiment, stein, trustregion
from trsvi.model import BayesNetModel, SnlpModel

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @property
    def names(self) -> list[str]:
        return list(self._name_ids)

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper around `fn` that records a span named `name`."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, run = self.name_id, self.parent, self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(float("nan"))
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(incl[i]),
                "self_s": float(excl[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


# -- what the wrappers count ---------------------------------------------

def _cg_statuses(counts, args, result):
    statuses = result[1]
    counts["cg.statuses"] += len(statuses)
    counts["cg.boundary"] += statuses.count(trustregion.BOUNDARY)
    counts["cg.neg_curvature"] += statuses.count(trustregion.NEG_CURVATURE)


def _out_bytes(counts, args, result):
    counts["hessian_stack.out_bytes"] += result.nbytes


def _saved_rows(counts, args, result):
    counts["save_samples_csv.rows"] += np.shape(args[1])[0]


def _loaded_rows(counts, args, result):
    counts["load_samples_csv.rows"] += result[0].shape[0]


def _metropolis(counts, args, result):
    counts["metropolis.acceptance_rate"] = result.acceptance_rate


def install(tracer: Tracer) -> None:
    """Wrap every name through which the run and evaluate paths reach a
    layer, in each namespace that looks it up."""
    p = tracer.patch
    # trustregion: the drivers' own lookups
    p(trustregion, "cg_steihaug", "trustregion.cg_steihaug")
    p(trustregion, "approx_kl", "trustregion.approx_kl")
    for ns in (trustregion, experiment, baselines):
        p(ns, "solve_subproblems", "trustregion.solve_subproblems", _cg_statuses)
        p(ns, "hessian_stack_from_context", "stein.hessian_stack_from_context",
          _out_bytes)
        p(ns, "field_from_context", "stein.field_from_context")
    p(trustregion, "local_context", "stein.local_context")
    p(experiment, "tr_svi_at_run", "trustregion.tr_svi_at_run")
    p(experiment, "tr_svi_kl_run", "trustregion.tr_svi_kl_run")
    # stein: lookups inside stein itself and from the in-line loops
    for ns in (stein, experiment, baselines):
        p(ns, "global_context", "stein.global_context")
    p(stein, "local_context", "stein.local_context")
    p(stein, "field_from_context", "stein.field_from_context")
    p(experiment, "graphical_stein_gradient", "stein.graphical_stein_gradient")
    p(experiment, "global_stein_gradient", "stein.global_stein_gradient")
    # kernels
    for ns in (stein, trustregion):
        p(ns, "rbf_matrix", "kernels.rbf_matrix")
    for ns in (trustregion, experiment):
        p(ns, "median_heuristic", "kernels.median_heuristic")
    # baselines
    p(experiment, "mp_svgd_step", "baselines.mp_svgd_step")
    p(experiment, "svgd_step", "baselines.svgd_step")
    # model
    for cls in (BayesNetModel, SnlpModel):
        p(cls, "log_density", "model.log_density")
        p(cls, "log_density_batch", "model.log_density_batch")
        p(cls, "gradient_batch", "model.gradient_batch")
        p(cls, "hessian_batch", "model.hessian_batch")
    p(experiment, "ancestral_sample", "model.ancestral_sample")
    # model.serialization
    p(experiment, "save_samples_csv", "serialization.save_samples_csv",
      _saved_rows)
    p(experiment, "load_samples_csv", "serialization.load_samples_csv",
      _loaded_rows)
    # evaluation
    p(evaluation.MmdReference, "__init__", "evaluation.mmd_reference_init")
    p(evaluation.MmdReference, "value", "evaluation.mmd_value")
    p(experiment, "metropolis_reference", "evaluation.metropolis_reference",
      _metropolis)
    # experiment
    p(experiment, "execute_method", "experiment.execute_method")
