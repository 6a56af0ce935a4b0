"""Decentralized first-order engines over a shared combination matrix.

All iterate blocks are row-stacked: W has shape (N, M) with row k holding
agent k's current estimate.  A combine step with the left-stochastic
matrix A is therefore W <- A^T W, one `op @ W` with the matrix's cached
dense or CSR operator.  The step functions also advance an agent-major
stack of B runs, the (N, B*M) block with member b in columns b*M to
(b+1)*M.  One loop drives them: `run` is the stack B = 1, the plain (N, M)
block, and the stability scans classify many step sizes in one stack.

The two primal-dual engines use the dual factor V only through V y, so
they carry z = V y as their dual block (`AlgorithmState.y`, seeded at
zero) and advance it as z <- z + S w with S = V V^T = (P - A P)/2, which
has A's sparsity: no factor of S is ever formed.

Engines
-------
ENGINE_SPECS, at the end of the engine section, lists every engine with
its step function, communication cost, target, matrix requirement,
seeding of state and operators, and step-size rule:

exact_diffusion           correction-term combine form, one combine/iter
exact_diffusion_pd        equivalent primal-dual form, dual advanced by S
extra                     symmetric doubly stochastic variant, gradient
                          applied outside the combine, dual advanced by S
diging                    gradient tracking, two combines/iter
aug_dgm                   tracking with combines applied to both blocks,
                          supports per-agent step sizes
adaptive_exact_diffusion  exact diffusion with step sizes retuned each
                          iteration from the power-iteration estimate
                          diag((A^T)^i) of the Perron vector

The adaptive engine never forms (A^T)^i: with the matrix's cached
At = P^{-1/2} A P^{1/2} = U diag(lam) U^T the estimate is diag((A^T)^i) =
(U o U) lam^i, so the state carries z = lam^i and a step costs z <- z o lam
and one matrix-vector product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import CostModel, GroundTruth, solve_centralized
from .graphs import CombinationMatrix, check_balanced, matrix_from_array

DIVERGENCE_CAP = 1e12
# iterations a record-free stack (a scan) steps between error checks
CHECK_BLOCK = 16


@dataclass(frozen=True)
class StepSizes:
    """Per-agent step sizes, optionally tagged with the base step mu_o."""

    mu: np.ndarray
    mu_o: float | None = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size == 0 or mu.min() <= 0 or not np.all(np.isfinite(mu)):
            raise ValueError("step sizes must be a positive finite vector")

    @classmethod
    def from_weights(cls, q, p, mu_o: float) -> "StepSizes":
        """mu_k = q_k * mu_o / p_k, matching aggregate weights q to the
        combination matrix's Perron weights p.  A step that overflows fails
        the finiteness check with a ValueError, not a warning."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        with np.errstate(over="ignore"):
            mu = q * float(mu_o) / p
        return cls(mu=mu, mu_o=float(mu_o))

    @classmethod
    def uniform(cls, mu: float, n_agents: int) -> "StepSizes":
        return cls(mu=np.full(n_agents, float(mu)), mu_o=float(mu))

    @property
    def is_uniform(self) -> bool:
        return bool(np.ptp(self.mu) <= 1e-12 * self.mu.max())


@dataclass
class AlgorithmState:
    """Mutable state of one run, or of a stack of runs with agent-major blocks
    (N, B*M) and a shared z; unused blocks stay None.  y is the dual block:
    V y for exact_diffusion_pd and extra, the tracked gradient for diging
    and aug_dgm.  z is the adaptive engine's power vector lam^i, length N,
    over the eigenvalues lam of At = P^{-1/2} A P^{1/2} (see the module
    docstring)."""

    w: np.ndarray
    psi_prev: np.ndarray | None = None
    y: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    z: np.ndarray | None = None
    # the Perron estimate diag((A^T)^i) after each step of `run` with keep_iterates
    z_diag_history: list = field(default_factory=list)


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
    a_t: object  # A^T, Abar^T and Abar as combine operators, applied as op @ x
    abar_t: object
    abar: object
    mu: np.ndarray  # this iteration's steps, in full like w
    mu_o: np.ndarray  # base step sizes, one per column of w; NaN where a StepSizes has none
    s: object = None  # S = V V^T = (P - A P)/2 as an operator, for the primal-dual engines
    p: np.ndarray | None = None  # the Perron vector as an (N, 1) column
    lam: np.ndarray | None = None  # the adaptive engine's (lam, U o U): see `_perron_modes`
    uu: np.ndarray | None = None
    qmu: np.ndarray | None = None  # the adaptive engine's q_k mu_o, in full like w


def _descent(x: np.ndarray, state: AlgorithmState, ctx: _EngineContext) -> np.ndarray:
    """x - mu grad(w), computed in place in the gradient, a fresh temporary."""
    g = ctx.model.grad(state.w)
    g *= ctx.mu
    return np.subtract(x, g, out=g)


def _step_exact_diffusion(state: AlgorithmState, ctx: _EngineContext):
    psi = _descent(state.w, state, ctx)
    phi = psi + state.w
    phi -= state.psi_prev
    state.w, state.psi_prev = ctx.abar_t @ phi, psi


def _step_exact_diffusion_pd(state: AlgorithmState, ctx: _EngineContext):
    w = ctx.abar_t @ _descent(state.w, state, ctx)
    w -= state.y / ctx.p
    state.w, state.y = w, state.y + ctx.s @ w


def _step_extra(state: AlgorithmState, ctx: _EngineContext):
    w = _descent(ctx.abar @ state.w, state, ctx)
    w -= ctx.model.n_agents * state.y
    state.w, state.y = w, state.y + ctx.s @ w


def _step_diging(state: AlgorithmState, ctx: _EngineContext):
    w = ctx.a_t @ state.w
    w -= ctx.mu * state.y
    g_new = ctx.model.grad(w)
    state.w, state.y, state.g_prev = w, ctx.a_t @ state.y + g_new - state.g_prev, g_new


def _step_aug_dgm(state: AlgorithmState, ctx: _EngineContext):
    state.w = ctx.a_t @ (state.w - ctx.mu * state.y)
    g_new = ctx.model.grad(state.w)
    state.y = ctx.a_t @ (state.y + g_new - state.g_prev)
    state.g_prev = g_new


def _step_adaptive(state: AlgorithmState, ctx: _EngineContext):
    state.z = state.z * ctx.lam
    ctx.mu = ctx.qmu / (ctx.uu @ state.z)[:, np.newaxis]
    _step_exact_diffusion(state, ctx)


def _seed_correction(state: AlgorithmState, ctx: _EngineContext, matrix: CombinationMatrix):
    state.psi_prev = state.w.copy()


def _seed_dual(state: AlgorithmState, ctx: _EngineContext, matrix: CombinationMatrix):
    state.y = np.zeros_like(state.w)
    ctx.s, ctx.p = matrix._dual_op, matrix.perron.p[:, np.newaxis]


def _seed_tracking(state: AlgorithmState, ctx: _EngineContext, matrix: CombinationMatrix):
    g0 = ctx.model.grad(state.w)
    state.y = g0.copy()
    state.g_prev = g0


def _seed_adaptive(state: AlgorithmState, ctx: _EngineContext, matrix: CombinationMatrix):
    if np.diag(matrix.a).min() <= 0:
        raise ValueError("adaptive step-size tuning needs positive self-weights on every agent")
    _seed_correction(state, ctx, matrix)
    state.z = np.ones(matrix.n)
    ctx.lam, ctx.uu = _perron_modes(matrix)
    ctx.qmu = ctx.model.q[:, np.newaxis] * ctx.mu_o


@dataclass(frozen=True)
class EngineSpec:
    """How `run` drives one engine.

    step_rule is "perron" (mu_k = q_k mu_o / p_k), "base" (only mu_o is
    used; the engine retunes per-agent steps itself), "uniform" (one mu
    for every agent) or "free" (any positive vector).
    """

    step: Callable  # one iteration: step(state, ctx); rebinds state.w, never writes into it
    seed: Callable  # seed(state, ctx, matrix): the extra state blocks and ctx operators
    comm_units: int  # combines (transmitted vectors per agent per link) per iteration
    weighted: bool = False  # q-weighted aggregate over a balanced matrix, else
    #                         the uniform aggregate over a doubly stochastic one
    symmetric: bool = False  # the matrix must also be symmetric
    step_rule: str = "uniform"
    error_map: str | None = None  # the gradient's route in `one_step_matrix`: "t_d" where it
    #                                enters combined (Abar^T mu grad), "t_e" where it enters raw


ENGINE_SPECS = {
    "exact_diffusion": EngineSpec(_step_exact_diffusion, _seed_correction, 1, weighted=True,
                                  step_rule="perron", error_map="t_d"),
    "exact_diffusion_pd": EngineSpec(_step_exact_diffusion_pd, _seed_dual, 1, weighted=True,
                                     step_rule="perron", error_map="t_d"),
    "extra": EngineSpec(_step_extra, _seed_dual, 1, symmetric=True, error_map="t_e"),
    "diging": EngineSpec(_step_diging, _seed_tracking, 2),
    "aug_dgm": EngineSpec(_step_aug_dgm, _seed_tracking, 2, step_rule="free"),
    "adaptive_exact_diffusion": EngineSpec(_step_adaptive, _seed_adaptive, 2, weighted=True,
                                           step_rule="base", error_map="t_d"),
}

ENGINES = tuple(ENGINE_SPECS)


def _validate_combination(engine: str, matrix: CombinationMatrix):
    spec = ENGINE_SPECS[engine]
    if spec.weighted:
        balanced, violation = check_balanced(matrix)
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
                "exact diffusion steps must satisfy mu_k = q_k * mu_o / p_k, so a uniform mu fits "
                "only q proportional to the Perron vector p; set mu_o (StepSizes.from_weights)"
            )
    elif rule == "uniform" and not steps.is_uniform:
        raise ValueError(f"{engine} supports only a uniform step size")


def init_state(engine: str, model: CostModel, matrix: CombinationMatrix, w0: np.ndarray,
               steps) -> tuple[AlgorithmState, _EngineContext]:
    """(state, ctx) of a run from the (N, M) block w0 with one StepSizes, or
    of a stack of runs from w0 with a sequence of B of them: agent-major
    blocks (N, B*M) with member b in columns b*M to (b+1)*M, so a one-member
    stack is the run's (N, M) block.  w0 is the pre-iteration iterate: the
    first step already includes one combine."""
    steps = [steps] if isinstance(steps, StepSizes) else steps
    # mu in full, one step per entry of w, so that `mu * x` needs no broadcasting
    mu = np.repeat(np.stack([s.mu for s in steps], axis=1), model.dim, axis=1)
    mu_o = np.repeat(np.array([s.mu_o for s in steps], dtype=float), model.dim)
    state = AlgorithmState(w=np.tile(w0, (1, len(steps))))
    ctx = _EngineContext(model, *matrix._combine_ops, mu, mu_o)
    ENGINE_SPECS[engine].seed(state, ctx, matrix)
    return state, ctx


def _perron_modes(matrix: CombinationMatrix):
    """(lam, U o U) from the matrix's cached At = U diag(lam) U^T (`_eigh`),
    so that diag((A^T)^i) = (U o U) lam^i.  The unit mode, last, is set to
    exactly lam = 1 with column p, so the estimate tends to p exactly."""
    lam, u = matrix._eigh
    lam, uu = lam.copy(), u * u
    lam[-1], uu[:, -1] = 1.0, matrix.perron.p
    return lam, uu


def _lookback(max_iters: int) -> int:
    """An exhausted run is stable when its error did not grow over this
    many final iterations: a tenth of the budget, at least one."""
    return max(1, max_iters // 10)


def _exhausted_verdict(final: float, earlier: float) -> str:
    return "stable" if final <= earlier else "unstable"


def _take(state: AlgorithmState, ctx: _EngineContext, keep: np.ndarray) -> None:
    """Keep the members the boolean `keep` selects in every stacked block."""
    columns = np.repeat(keep, ctx.model.dim)
    for obj, name in ((state, "w"), (state, "psi_prev"), (state, "y"), (state, "g_prev"),
                      (ctx, "mu"), (ctx, "mu_o"), (ctx, "qmu")):
        if getattr(obj, name) is not None:
            setattr(obj, name, getattr(obj, name)[..., columns])


def _iterate(engine: str, model: CostModel, matrix, steps_list, max_iters: int, stop: float,
             ground_truth: GroundTruth | None, w0: np.ndarray = None, record=None):
    """The one iteration loop of `run` and the stability scans: checks the
    inputs as `run` documents, then advances one member per StepSizes in
    steps_list, all seeded at w0, as a stack of shape (N, B*M) (the
    adaptive engine's z is shared).  Diverged and converged members leave
    the stack.  record(state, rel, ctx), if given, sees iteration 0 and
    every step.  Without it (the scans) the errors are checked once per
    block of CHECK_BLOCK iterations, on the block's kept iterates; a member
    that exits inside a block steps on to its end unseen, but takes the
    status and verdict of its first crossing, so both stay exact.  Memory is
    O(CHECK_BLOCK B) for any budget: an exhausted member keeps only its
    error at iteration max_iters - _lookback(max_iters).

    Returns (state at the last check, target, statuses, verdicts).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    matrix = matrix_from_array(matrix)
    if matrix.n != model.n_agents:
        raise ValueError("combination matrix size does not match the agent count")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 <= stop < np.inf:
        raise ValueError("stop must be finite and at least 0")
    _validate_combination(engine, matrix)
    for steps in steps_list:
        _validate_steps(engine, steps, model, matrix)
    if ground_truth is None:
        ground_truth = solve_centralized(model)
    weighted = ENGINE_SPECS[engine].weighted
    if not weighted and np.ptp(model.q) > 1e-12 * model.q.max():
        raise ValueError(f"{engine} solves the uniform aggregate; model weights q must be equal")
    target = ground_truth.w_star if weighted else ground_truth.w_o
    shape = (model.n_agents, model.dim)
    w0 = np.zeros(shape) if w0 is None else np.asarray(w0, dtype=float)
    if w0.shape != shape:
        raise ValueError(f"w0 shape {w0.shape} does not match {shape}")
    size = len(steps_list)
    state, ctx = init_state(engine, model, matrix, w0, steps_list)
    denom = float(np.sum((w0 - target) ** 2))
    if denom == 0.0 and np.any(w0 != target):
        raise ValueError("the squared distance from w0 (zeros unless given) to the target "
                         "underflows to 0, so no relative error can be formed")
    statuses, verdicts = ["converged"] * size, ["stable"] * size
    step, snapshot_at = ENGINE_SPECS[engine].step, max_iters - _lookback(max_iters)
    earlier, alive, kept = np.ones(size), np.arange(size), []
    block = 1 if record is not None else CHECK_BLOCK
    # an overflowing member, or seed gradient, turns inf or NaN, which the
    # loop classifies as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        if record is not None:
            record(state, np.full(size, 1.0 if denom > 0.0 else 0.0), ctx)
        if denom == 0.0:  # w0 is the target
            return state, target, statuses, verdicts
        for i in range(1, max_iters + 1):
            step(state, ctx)
            kept.append(state.w.reshape(1, shape[0], -1, shape[1]))  # a view: steps rebind w
            if i % block and i < max_iters:
                continue
            rows = len(kept)  # iterations i - rows + 1 .. i
            # member-major, so each member sums its own N M entries in a row, as `run` does
            sq = np.empty((rows, alive.size, model.n_agents, model.dim))
            np.concatenate(kept, out=sq.transpose(0, 2, 1, 3))
            sq -= target
            rels = np.square(sq, out=sq).reshape(rows, alive.size, -1).sum(axis=2) / denom
            kept = []
            if record is not None:
                record(state, rels[0], ctx)
            if i - rows < snapshot_at <= i:
                earlier[alive] = rels[snapshot_at - i - 1]
            if stop < rels.min() and rels.max() <= DIVERGENCE_CAP:  # a NaN fails both
                continue
            done = ~(rels <= DIVERGENCE_CAP) | (rels <= stop)  # ~ also catches NaN and inf
            first = rels[done.argmax(axis=0), np.arange(alive.size)]  # rel at the first exit
            for k in alive[~(first <= DIVERGENCE_CAP)]:
                statuses[k], verdicts[k] = "diverged", "unstable"
            keep = ~done.any(axis=0)
            alive, rels = alive[keep], rels[:, keep]
            if alive.size == 0:
                return state, target, statuses, verdicts
            _take(state, ctx, keep)
    for k, final in zip(alive, rels[-1]):
        statuses[k], verdicts[k] = "exhausted", _exhausted_verdict(final, earlier[k])
    return state, target, statuses, verdicts


def run(engine: str, model: CostModel, matrix, steps: StepSizes,
        max_iters: int = 4000, stop: float = 1e-8, w0: np.ndarray = None,
        ground_truth: GroundTruth = None, keep_iterates: bool = False) -> RunResult:
    """Run an engine until the squared relative error crosses `stop`.

    `run` is a one-member stack of the loop the stability scans use, so
    both share one divergence cap, one stop rule and one exhausted rule.

    Args:
        engine: one of ENGINES.
        model: cost model supplying gradients and aggregate weights q.
        matrix: CombinationMatrix (or raw array, validated on the way in).
        steps: StepSizes; must match the engine's conventions.
        max_iters: iteration budget; the trace grows only with the
            iterations actually run.
        stop: threshold on ||W_i - W*||_F^2 / ||W_0 - W*||_F^2.
        w0: seed iterate (N, M); zeros when omitted.
        ground_truth: precomputed solutions; solved centrally when omitted.
        keep_iterates: also store a copy of W (and of the dual block y, for
            engines that carry one: V y for exact_diffusion_pd and extra)
            at every iteration, and the adaptive engine's Perron estimate
            after every step in `state.z_diag_history`.

    Returns:
        RunResult with one TraceRecord per iteration (row 0 is the seed)
        and status in {"converged", "exhausted", "diverged"}.  A w0 equal
        to the target is converged at iteration 0; one whose squared
        distance to it underflows to 0 raises ValueError.
    """
    rels, grad_norms, iterates, duals = [], [], [], []
    n = model.n_agents

    def record(state, rel, ctx):
        if keep_iterates:
            if rels and state.z is not None:  # one estimate per step, none for the seed
                state.z_diag_history.append(ctx.uu @ state.z)
            iterates.append(state.w.copy())
            if state.y is not None:
                duals.append(state.y.copy())
        rels.append(float(rel[0]))
        g = model.weighted_grad(np.add.reduce(state.w, axis=0) / n)  # w.mean(axis=0), no wrapper
        grad_norms.append(math.sqrt(g.dot(g)))  # np.linalg.norm's own sum, without its wrapper

    state, target, (status,), _ = _iterate(engine, model, matrix, (steps,), max_iters, stop,
                                           ground_truth, w0, record)
    comm_units = ENGINE_SPECS[engine].comm_units
    records = [TraceRecord(i, i * comm_units, rel, g)
               for i, (rel, g) in enumerate(zip(rels, grad_norms))]
    return RunResult(records=records, status=status, state=state, target=target,
                     iterates=iterates if keep_iterates else None,
                     dual_iterates=duals or None)


def write_trace_csv(path, records) -> None:
    """Trace CSV: header iter,comm_units,rel_error,grad_norm; floats carry
    17 significant digits so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,comm_units,rel_error,grad_norm\n")
        for r in records:
            fh.write(f"{r.iteration},{r.comm_units},{r.rel_error:.17g},{r.grad_norm:.17g}\n")


def write_status_json(path, result: RunResult) -> None:
    payload = {
        "status": result.status,
        "iterations": result.iterations,
        "final_rel_error": result.final_rel_error,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
