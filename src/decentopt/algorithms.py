"""Decentralized first-order engines over a shared combination matrix.

All iterate blocks are row-stacked: W has shape (N, M) with row k holding
agent k's current estimate.  A combine step with the left-stochastic
matrix A is therefore W <- A.T @ W.  The step functions also advance
a stack of independent runs, shape (B, N, M), with step sizes of shape
(B, N); the stability scans use that to classify many step sizes at once.

Engines
-------
ENGINE_SPECS, at the end of the engine section, lists every engine with
its step function, communication cost, target, matrix requirement,
state seeding and step-size rule:

exact_diffusion           correction-term combine form, one combine/iter
exact_diffusion_pd        equivalent primal-dual form driven by V
extra                     symmetric doubly stochastic variant, gradient
                          applied outside the combine
diging                    gradient tracking, two combines/iter
aug_dgm                   tracking with combines applied to both blocks,
                          supports per-agent step sizes
adaptive_exact_diffusion  exact diffusion with step sizes retuned each
                          iteration from a running power-iteration
                          estimate of the combination matrix's left
                          Perron vector
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import CostModel, GroundTruth, solve_centralized
from .graphs import CombinationMatrix, check_balanced, matrix_from_array

DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class StepSizes:
    """Per-agent step sizes, optionally tagged with the base step mu_o."""

    mu: np.ndarray
    mu_o: float | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.min() <= 0 or not np.all(np.isfinite(mu)):
            raise ValueError("step sizes must be a positive finite vector")

    @classmethod
    def from_weights(cls, q, p, mu_o: float) -> "StepSizes":
        """mu_k = q_k * mu_o / p_k, matching aggregate weights q to the
        combination matrix's Perron weights p."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        return cls(mu=q * float(mu_o) / p, mu_o=float(mu_o))

    @classmethod
    def uniform(cls, mu: float, n_agents: int) -> "StepSizes":
        return cls(mu=np.full(n_agents, float(mu)), mu_o=float(mu))

    @property
    def is_uniform(self) -> bool:
        return bool(np.ptp(self.mu) <= 1e-12 * self.mu.max())


@dataclass
class AlgorithmState:
    """Mutable per-run state; unused blocks stay None."""

    w: np.ndarray
    psi_prev: np.ndarray | None = None
    y: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    z: np.ndarray | None = None
    z_diag_history: list = field(default_factory=list)
    iteration: int = 0


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    comm_units: int
    rel_error: float
    grad_norm: float


@dataclass
class RunResult:
    records: list
    status: str
    state: AlgorithmState
    target: np.ndarray
    iterates: list | None = None
    dual_iterates: list | None = None

    @property
    def final_rel_error(self) -> float:
        return self.records[-1].rel_error

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration


@dataclass
class _EngineContext:
    model: CostModel
    a: np.ndarray
    abar: np.ndarray
    steps: StepSizes  # or, for a stacked run, mu of shape (B, N) and mu_o of shape (B, 1)
    v: np.ndarray | None = None
    pinv_v: np.ndarray | None = None  # diag(1/p) @ V


def _step_exact_diffusion(state: AlgorithmState, ctx: _EngineContext, mu=None):
    if mu is None:
        mu = ctx.steps.mu[..., np.newaxis]
    psi = state.w - mu * ctx.model.grad(state.w)
    phi = psi + state.w - state.psi_prev
    state.w = ctx.abar.T @ phi
    state.psi_prev = psi


def _step_exact_diffusion_pd(state: AlgorithmState, ctx: _EngineContext):
    mu = ctx.steps.mu[..., np.newaxis]
    state.w = ctx.abar.T @ (state.w - mu * ctx.model.grad(state.w)) - ctx.pinv_v @ state.y
    state.y = state.y + ctx.v @ state.w


def _step_extra(state: AlgorithmState, ctx: _EngineContext):
    mu = ctx.steps.mu[..., np.newaxis]
    n = ctx.model.n_agents
    state.w = ctx.abar @ state.w - mu * ctx.model.grad(state.w) - n * (ctx.v @ state.y)
    state.y = state.y + ctx.v @ state.w


def _step_diging(state: AlgorithmState, ctx: _EngineContext):
    mu = ctx.steps.mu[..., np.newaxis]
    state.w = ctx.a.T @ state.w - mu * state.y
    g_new = ctx.model.grad(state.w)
    state.y = ctx.a.T @ state.y + g_new - state.g_prev
    state.g_prev = g_new


def _step_aug_dgm(state: AlgorithmState, ctx: _EngineContext):
    mu = ctx.steps.mu[..., np.newaxis]
    state.w = ctx.a.T @ (state.w - mu * state.y)
    g_new = ctx.model.grad(state.w)
    state.y = ctx.a.T @ (state.y + g_new - state.g_prev)
    state.g_prev = g_new


def _step_adaptive(state: AlgorithmState, ctx: _EngineContext):
    state.z = ctx.a.T @ state.z
    z_diag = np.diag(state.z).copy()
    state.z_diag_history.append(z_diag)
    _step_exact_diffusion(state, ctx, (ctx.model.q * ctx.steps.mu_o / z_diag)[..., np.newaxis])


def _seed_correction(state: AlgorithmState, model: CostModel, matrix: CombinationMatrix):
    state.psi_prev = state.w.copy()


def _seed_dual(state: AlgorithmState, model: CostModel, matrix: CombinationMatrix):
    state.y = np.zeros_like(state.w)


def _seed_tracking(state: AlgorithmState, model: CostModel, matrix: CombinationMatrix):
    g0 = model.grad(state.w)
    state.y = g0.copy()
    state.g_prev = g0


def _seed_adaptive(state: AlgorithmState, model: CostModel, matrix: CombinationMatrix):
    if np.diag(matrix.a).min() <= 0:
        raise ValueError("adaptive step-size tuning needs positive self-weights on every agent")
    _seed_correction(state, model, matrix)
    state.z = np.eye(model.n_agents)


@dataclass(frozen=True)
class EngineSpec:
    """How `run` drives one engine.

    step_rule is "perron" (mu_k = q_k mu_o / p_k), "base" (only mu_o is
    used; the engine retunes per-agent steps itself), "uniform" (one mu
    for every agent) or "free" (any positive vector).
    """

    step: Callable  # one iteration: step(state, ctx)
    seed: Callable  # adds the engine's extra state blocks: seed(state, model, matrix)
    comm_units: int  # combines (transmitted vectors per agent per link) per iteration
    weighted: bool = False  # q-weighted aggregate over a balanced matrix, else
    #                         the uniform aggregate over a doubly stochastic one
    symmetric: bool = False  # the matrix must also be symmetric
    step_rule: str = "uniform"
    needs_v: bool = False  # the step reads V and diag(1/p) V
    error_map: str | None = None  # T block of the quadratic one-step map: "t_d" or "t_e"


ENGINE_SPECS = {
    "exact_diffusion": EngineSpec(_step_exact_diffusion, _seed_correction, 1, weighted=True,
                                  step_rule="perron", error_map="t_d"),
    "exact_diffusion_pd": EngineSpec(_step_exact_diffusion_pd, _seed_dual, 1, weighted=True,
                                     step_rule="perron", needs_v=True, error_map="t_d"),
    "extra": EngineSpec(_step_extra, _seed_dual, 1, symmetric=True, needs_v=True,
                        error_map="t_e"),
    "diging": EngineSpec(_step_diging, _seed_tracking, 2),
    "aug_dgm": EngineSpec(_step_aug_dgm, _seed_tracking, 2, step_rule="free"),
    "adaptive_exact_diffusion": EngineSpec(_step_adaptive, _seed_adaptive, 2, weighted=True,
                                           step_rule="base", error_map="t_d"),
}

ENGINES = tuple(ENGINE_SPECS)

#: combines (and hence transmitted vectors per agent per link) per iteration
COMM_UNITS = {name: spec.comm_units for name, spec in ENGINE_SPECS.items()}


def _validate_combination(engine: str, matrix: CombinationMatrix):
    spec = ENGINE_SPECS[engine]
    if spec.weighted:
        balanced, violation = check_balanced(matrix, matrix.perron)
        if not balanced:
            raise ValueError(
                f"{engine} requires a locally balanced combination matrix "
                f"(violation {violation:.3e})"
            )
    elif not matrix.is_doubly_stochastic:
        raise ValueError(f"{engine} requires a doubly stochastic combination matrix")
    elif spec.symmetric and not matrix.is_symmetric_doubly_stochastic:
        raise ValueError(f"{engine} requires a symmetric combination matrix")


def _validate_steps(engine: str, steps: StepSizes, model: CostModel, matrix: CombinationMatrix):
    if steps.mu.shape != (model.n_agents,):
        raise ValueError("step-size vector length does not match the agent count")
    rule = ENGINE_SPECS[engine].step_rule
    if rule == "base" and steps.mu_o is None:
        raise ValueError(f"{engine} needs a base step size mu_o")
    if rule == "perron":
        ratio = steps.mu * matrix.perron.p / model.q
        if np.ptp(ratio) > 1e-9 * ratio.max():
            raise ValueError(
                "exact diffusion step sizes must satisfy mu_k = q_k * mu_o / p_k; "
                "build them with StepSizes.from_weights"
            )
    elif rule == "uniform" and not steps.is_uniform:
        raise ValueError(f"{engine} supports only a uniform step size")


def init_state(engine: str, model: CostModel, matrix: CombinationMatrix,
               steps: StepSizes, w0: np.ndarray) -> AlgorithmState:
    """Seed state for an engine; w0 plays the role of the pre-iteration
    iterate, so the first recorded step already includes one combine."""
    state = AlgorithmState(w=w0.copy())
    ENGINE_SPECS[engine].seed(state, model, matrix)
    return state


def _checked_setup(engine: str, model: CostModel, matrix, steps_list, max_iters: int,
                   ground_truth: GroundTruth | None):
    """`run`'s input checks for one matrix and every StepSizes in
    steps_list; returns the validated matrix and the engine's target."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if not isinstance(matrix, CombinationMatrix):
        matrix = matrix_from_array(np.asarray(matrix, dtype=float))
    if matrix.n != model.n_agents:
        raise ValueError("combination matrix size does not match the agent count")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    _validate_combination(engine, matrix)
    for steps in steps_list:
        _validate_steps(engine, steps, model, matrix)

    if ground_truth is None:
        ground_truth = solve_centralized(model)
    if ENGINE_SPECS[engine].weighted:
        return matrix, ground_truth.w_star
    if np.ptp(model.q) > 1e-12 * model.q.max():
        raise ValueError(
            f"{engine} solves the uniform aggregate; model weights q must be equal"
        )
    return matrix, ground_truth.w_o


def _engine_context(engine: str, model: CostModel, matrix: CombinationMatrix,
                   steps) -> _EngineContext:
    """What the engine's step reads, with steps as in _EngineContext."""
    ctx = _EngineContext(model=model, a=matrix.a, abar=matrix.abar, steps=steps)
    if ENGINE_SPECS[engine].needs_v:
        ctx.v = matrix.vmat.v
        ctx.pinv_v = ctx.v / matrix.perron.p[:, np.newaxis]
    return ctx


def run(engine: str, model: CostModel, matrix, steps: StepSizes,
        max_iters: int = 4000, stop: float = 1e-8, w0: np.ndarray = None,
        ground_truth: GroundTruth = None, keep_iterates: bool = False) -> RunResult:
    """Run an engine until the squared relative error crosses `stop`.

    Args:
        engine: one of ENGINES.
        model: cost model supplying gradients and aggregate weights q.
        matrix: CombinationMatrix (or raw array, validated on the way in).
        steps: StepSizes; must match the engine's conventions.
        max_iters: iteration budget.
        stop: threshold on ||W_i - W*||_F^2 / ||W_0 - W*||_F^2.
        w0: seed iterate (N, M); zeros when omitted.
        ground_truth: precomputed solutions; solved centrally when omitted.
        keep_iterates: also store a copy of W (and the dual block Y, for
            engines that carry one) at every iteration.

    Returns:
        RunResult with one TraceRecord per iteration (row 0 is the seed)
        and status in {"converged", "exhausted", "diverged"}.
    """
    matrix, target = _checked_setup(engine, model, matrix, (steps,), max_iters, ground_truth)
    spec = ENGINE_SPECS[engine]
    if w0 is None:
        w0 = np.zeros((model.n_agents, model.dim))
    else:
        w0 = np.asarray(w0, dtype=float)
        if w0.shape != (model.n_agents, model.dim):
            raise ValueError(f"w0 shape {w0.shape} does not match {(model.n_agents, model.dim)}")

    ctx = _engine_context(engine, model, matrix, steps)
    state = init_state(engine, model, matrix, steps, w0)
    target_stack = np.broadcast_to(target, w0.shape)
    denom = float(np.sum((w0 - target_stack) ** 2))

    def rel_error_of(w):
        if denom == 0.0:
            return 0.0
        return float(np.sum((w - target_stack) ** 2)) / denom

    def grad_norm_of(w):
        w_bar = w.mean(axis=0)
        return float(np.linalg.norm(model.weighted_grad(w_bar)))

    records = [TraceRecord(0, 0, 1.0 if denom > 0.0 else 0.0, grad_norm_of(state.w))]
    iterates = [state.w.copy()] if keep_iterates else None
    duals = [state.y.copy()] if keep_iterates and state.y is not None else None
    status = "exhausted"
    if denom == 0.0:
        return RunResult(records=records, status="converged", state=state,
                         target=target, iterates=iterates, dual_iterates=duals)

    for i in range(1, max_iters + 1):
        spec.step(state, ctx)
        state.iteration = i
        rel = rel_error_of(state.w)
        records.append(TraceRecord(i, i * spec.comm_units, rel, grad_norm_of(state.w)))
        if keep_iterates:
            iterates.append(state.w.copy())
            if duals is not None:
                duals.append(state.y.copy())
        if not np.isfinite(rel) or rel > DIVERGENCE_CAP:
            status = "diverged"
            break
        if rel <= stop:
            status = "converged"
            break

    return RunResult(records=records, status=status, state=state,
                     target=target, iterates=iterates, dual_iterates=duals)


def write_trace_csv(path, records) -> None:
    """Trace CSV: header iter,comm_units,rel_error,grad_norm; floats carry
    17 significant digits so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,comm_units,rel_error,grad_norm\n")
        for r in records:
            fh.write(f"{r.iteration},{r.comm_units},{r.rel_error:.17g},{r.grad_norm:.17g}\n")


def read_trace_csv(path) -> list:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(TraceRecord(
                iteration=int(row["iter"]),
                comm_units=int(row["comm_units"]),
                rel_error=float(row["rel_error"]),
                grad_norm=float(row["grad_norm"]),
            ))
    return records


def write_status_json(path, result: RunResult) -> None:
    payload = {
        "status": result.status,
        "iterations": result.iterations,
        "final_rel_error": result.final_rel_error,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
