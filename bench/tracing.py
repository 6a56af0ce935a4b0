"""Span tracing from outside the program, and the per-layer metrics.

``install`` replaces the public functions of every decentopt module with
timing wrappers, in the defining module and in every module that
imports them, so intra-module calls are traced too.  It also wraps the
``Graph`` and ``CombinationMatrix`` constructors and the cost-model
methods ``grad`` and ``weighted_grad``.  Nothing inside ``src/`` changes.

A span is ``(id, parent id, name, start, end, note)``; spans stay in
memory until the traced pass ends.  The tracer keeps one call stack, so
it assumes the program runs single-threaded (``--jobs 1``).  While
``enabled`` is false the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "graphs", "spectral", "costs", "algorithms", "stability")


def _matrix_key(args, kwargs, result):
    matrix = args[0] if args else kwargs["a"]
    return hashlib.blake2b(matrix.a.tobytes(), digest_size=16).hexdigest()


def _run_outcome(args, kwargs, result):
    return (result.iterations, result.status)


# extra facts recorded on a span once its call has returned
NOTES = {
    "graphs.perron_vector": _matrix_key,
    "algorithms.run": _run_outcome,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, None)
            if note is not None:
                spans[sid] = (sid, parent, name, start, end, note(args, kwargs, result))
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,note\n")
            for sid, parent, name, start, end, note in self.spans:
                text = "" if note is None else str(note).replace(",", ";")
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{text}\n")


def install(tracer: Tracer) -> None:
    """Route every public decentopt function through `tracer`."""
    modules = {layer: importlib.import_module(f"decentopt.{layer}") for layer in LAYERS}
    wrapped = {}
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__ != f"decentopt.{home}" or home not in modules:
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(f"{home}.{obj.__name__}", obj)
            setattr(module, name, wrapped[obj])
    graphs, costs = modules["graphs"], modules["costs"]
    for cls in (graphs.Graph, graphs.CombinationMatrix):
        cls.__post_init__ = tracer.wrap(f"graphs.{cls.__name__}", cls.__post_init__)
    for cls in (costs.QuadraticModel, costs.LogisticModel):
        cls.grad = tracer.wrap("costs.grad", vars(cls)["grad"])
    costs.CostModel.weighted_grad = tracer.wrap("costs.weighted_grad",
                                                costs.CostModel.weighted_grad)


GENERATE = {"graphs.random_connected_graph", "graphs.Graph"}
MATRIX = {"graphs.build_metropolis", "graphs.build_averaging",
          "graphs.matrix_from_array", "graphs.CombinationMatrix"}
BOUNDS = {"stability.diffusion_step_bound", "stability.extra_step_bound"}
TWO_AGENT = {"stability.two_agent_onset", "stability.two_agent_case"}
LOOP_CHILDREN = {"costs.grad", "costs.weighted_grad"}


def layer_metrics(spans) -> dict:
    """Per-layer counts and seconds over one traced pass.

    ``*_s`` values are inclusive wall time of the named calls, counted
    once where such calls nest; ``*_self_s`` subtracts the time covered
    by child spans.
    """
    names = [s[2] for s in spans]
    parents = [s[1] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    child_time = [0.0] * len(spans)
    by_name = {}
    for sid, parent in enumerate(parents):
        by_name.setdefault(names[sid], []).append(sid)
        if parent >= 0:
            child_time[parent] += dur[sid]

    def ids(group):
        return [sid for name in group for sid in by_name.get(name, ())]

    def count(name):
        return len(ids({name}))

    def outer_s(group):
        """Time of spans in `group` that have no ancestor in `group`."""
        total = 0.0
        for sid in ids(group):
            parent = parents[sid]
            while parent >= 0 and names[parent] not in group:
                parent = parents[parent]
            if parent < 0:
                total += dur[sid]
        return total

    def self_s(name):
        return sum((dur[sid] - child_time[sid] for sid in ids({name})), 0.0)

    def under(name, parent_name):
        return [sid for sid in ids({name})
                if parents[sid] >= 0 and names[parents[sid]] == parent_name]

    runs = ids({"algorithms.run"})
    outcomes = [spans[sid][5] for sid in runs if spans[sid][5] is not None]
    iterations = sum(it for it, _ in outcomes)
    loop_s = sum(dur[sid] for sid in runs)
    for sid, parent in enumerate(parents):
        if parent >= 0 and names[parent] == "algorithms.run" and names[sid] not in LOOP_CHILDREN:
            loop_s -= dur[sid]
    perron = ids({"graphs.perron_vector"})
    scans = count("stability.stability_scan")
    grads = under("costs.grad", "algorithms.run")
    telemetry = under("costs.weighted_grad", "algorithms.run")

    metrics = {
        "cli.self_s": self_s("cli.main"),
        "graphs.generate_s": outer_s(GENERATE),
        "graphs.matrix_s": outer_s(MATRIX),
        "graphs.perron_calls": len(perron),
        "graphs.perron_s": outer_s({"graphs.perron_vector"}),
        "graphs.perron_per_matrix": (len(perron) / len({spans[sid][5] for sid in perron})
                                     if perron else 0.0),
        "spectral.compute_v_calls": count("spectral.compute_v"),
        "spectral.compute_v_s": outer_s({"spectral.compute_v"}),
        "spectral.general_eig_calls": count("spectral.general_eig"),
        "spectral.general_eig_s": outer_s({"spectral.general_eig"}),
        "costs.solve_calls": count("costs.solve_centralized"),
        "costs.solve_s": outer_s({"costs.solve_centralized"}),
        "costs.grad_calls": len(grads),
        "costs.grad_s": sum((dur[sid] for sid in grads), 0.0),
        "costs.weighted_grad_calls": len(telemetry),
        "costs.weighted_grad_s": sum((dur[sid] for sid in telemetry), 0.0),
        "algorithms.run_calls": len(runs),
        "algorithms.run_s": outer_s({"algorithms.run"}),
        "algorithms.run_self_s": self_s("algorithms.run"),
        "algorithms.iterations": iterations,
        "algorithms.us_per_iter": 1e6 * loop_s / iterations if iterations else 0.0,
        "algorithms.exhausted_iter_share": (
            sum(it for it, status in outcomes if status == "exhausted") / iterations
            if iterations else 0.0),
        "stability.scan_s": outer_s({"stability.stability_scan"}),
        "stability.scan_self_s": self_s("stability.stability_scan"),
        "stability.runs_per_scan": (len(under("algorithms.run", "stability.stability_scan"))
                                    / scans if scans else 0.0),
        "stability.error_dynamics_calls": count("stability.build_error_dynamics"),
        "stability.decompose_calls": count("stability.decompose_b"),
        "stability.decompose_s": outer_s({"stability.decompose_b"}),
        "stability.bound_s": outer_s(BOUNDS),
        "stability.b_residual_s": outer_s({"stability.b_spectrum_residual"}),
        "stability.two_agent_cases": count("stability.two_agent_case"),
        "stability.two_agent_s": outer_s(TWO_AGENT),
    }
    for layer in LAYERS:
        metrics[f"{layer}.spans"] = sum(1 for name in names if name.startswith(layer + "."))
    return metrics
