"""Decentralized first-order engines over a shared combination matrix.

All iterate blocks are row-stacked: W has shape (N, M) with row k holding
agent k's current estimate.  A combine step with the left-stochastic
matrix A is therefore W <- A^T W, one `op @ W` with the matrix's cached
dense or CSR operator.  The step functions also advance an agent-major
stack of B runs, the (N, B*M) block with member b in columns b*M to
(b+1)*M.  One loop drives them: `run` is the stack B = 1, the plain (N, M)
block, and the stability scans classify many step sizes per stack.

The two primal-dual engines use the dual factor V only through V y, so
they carry z = V y as their dual block (`AlgorithmState.y`, seeded at
zero) and advance it as z <- z + S w with S = V V^T = (P - A P)/2, which
has A's sparsity: no factor of S is ever formed.

Engines
-------
ENGINE_SPECS, at the end of the engine section, lists every engine with
its step function, communication cost, target, matrix requirement,
state seeding and step-size rule (a step reads its combine operators from
the matrix, each built on first read):

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostModel, GroundTruth, solve_centralized
from .graphs import CombinationMatrix, check_balanced, matrix_from_array

DIVERGENCE_CAP = 1e12
# iterations a stack steps between error checks
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
        combination matrix's Perron weights p.  A step that overflows or
        divides by zero fails the finiteness check with a ValueError, not a
        warning."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    w: np.ndarray  # the last record's iterate: the exit, max_iters, or w0 if it is the target

    @property
    def final_rel_error(self) -> float:
        return self.records[-1].rel_error

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration


@dataclass
class _EngineContext:
    model: CostModel
    mu: np.ndarray  # this iteration's steps, in full like w
    matrix: CombinationMatrix  # the steps apply its cached operators, built on first read
    p: np.ndarray | None = None  # the dual engines' Perron vector as an (N, 1) column
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
    state.w, state.psi_prev = ctx.matrix._abar_t_op @ phi, psi


def _step_exact_diffusion_pd(state: AlgorithmState, ctx: _EngineContext):
    w = ctx.matrix._abar_t_op @ _descent(state.w, state, ctx)
    w -= state.y / ctx.p
    state.w, state.y = w, state.y + ctx.matrix._dual_op @ w


def _step_extra(state: AlgorithmState, ctx: _EngineContext):
    w = _descent(ctx.matrix._abar_op @ state.w, state, ctx)
    w -= ctx.model.n_agents * state.y
    state.w, state.y = w, state.y + ctx.matrix._dual_op @ w


def _step_diging(state: AlgorithmState, ctx: _EngineContext):
    a_t = ctx.matrix._a_t_op
    w = a_t @ state.w
    w -= ctx.mu * state.y
    g_new = ctx.model.grad(w)
    state.w, state.y, state.g_prev = w, a_t @ state.y + g_new - state.g_prev, g_new


def _step_aug_dgm(state: AlgorithmState, ctx: _EngineContext):
    a_t = ctx.matrix._a_t_op
    state.w = a_t @ (state.w - ctx.mu * state.y)
    g_new = ctx.model.grad(state.w)
    state.y = a_t @ (state.y + g_new - state.g_prev)
    state.g_prev = g_new


def _step_adaptive(state: AlgorithmState, ctx: _EngineContext):
    state.z = state.z * ctx.lam
    ctx.mu = ctx.qmu / (ctx.uu @ state.z)[:, np.newaxis]
    _step_exact_diffusion(state, ctx)


def _seed_correction(state: AlgorithmState, ctx: _EngineContext, steps: list):
    state.psi_prev = state.w.copy()


def _seed_dual(state: AlgorithmState, ctx: _EngineContext, steps: list):
    state.y = np.zeros_like(state.w)
    ctx.p = ctx.matrix.p[:, np.newaxis]


def _seed_tracking(state: AlgorithmState, ctx: _EngineContext, steps: list):
    g0 = ctx.model.grad(state.w)
    state.y = g0.copy()
    state.g_prev = g0


def _seed_adaptive(state: AlgorithmState, ctx: _EngineContext, steps: list):
    _seed_correction(state, ctx, steps)
    state.z = np.ones(ctx.matrix.n)
    ctx.lam, ctx.uu = _perron_modes(ctx.matrix)
    ctx.qmu = ctx.model.q[:, np.newaxis] * np.repeat([s.mu_o for s in steps], ctx.model.dim)


@dataclass(frozen=True)
class EngineSpec:
    """How `run` drives one engine.

    step_rule is "perron" (mu_k = q_k mu_o / p_k), "base" (only mu_o is
    used; the engine retunes per-agent steps itself), "uniform" (one mu
    for every agent) or "free" (any positive vector).
    """

    # one iteration: step(state, ctx).  It rebinds the state's blocks and never
    # writes into them, so a checked block's iterates are kept by reference
    step: Callable
    seed: Callable  # seed(state, ctx, steps): the extra state blocks and the ctx data
    #                 the step reads besides the matrix's operators
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
    "exact_diffusion_pd": EngineSpec(_step_exact_diffusion_pd, _seed_dual, 1,
                                     weighted=True, step_rule="perron", error_map="t_d"),
    "extra": EngineSpec(_step_extra, _seed_dual, 1, symmetric=True, error_map="t_e"),
    "diging": EngineSpec(_step_diging, _seed_tracking, 2),
    "aug_dgm": EngineSpec(_step_aug_dgm, _seed_tracking, 2, step_rule="free"),
    "adaptive_exact_diffusion": EngineSpec(_step_adaptive, _seed_adaptive, 2, weighted=True,
                                           step_rule="base", error_map="t_d"),
}

ENGINES = tuple(ENGINE_SPECS)


def _check_engine(engine: str, model: CostModel, matrix) -> tuple[EngineSpec, CombinationMatrix]:
    """Every requirement the engine puts on the model and the matrix (a raw
    array is wrapped), checked as `run`, the scans and `exact_radius` refuse
    them: ValueError.  Returns the engine's spec and the wrapped matrix."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    spec, matrix = ENGINE_SPECS[engine], matrix_from_array(matrix)
    if matrix.n != model.n_agents:
        raise ValueError("combination matrix size does not match the agent count")
    if spec.weighted:
        balanced, violation = check_balanced(matrix)
        if not balanced:
            raise ValueError(f"{engine} requires a locally balanced combination matrix "
                             f"(violation {violation:.3e})")
    elif not matrix.is_doubly_stochastic:
        raise ValueError(f"{engine} requires a doubly stochastic combination matrix")
    elif spec.symmetric and not matrix.is_symmetric_doubly_stochastic:
        raise ValueError(f"{engine} requires a symmetric combination matrix")
    if not spec.weighted and np.ptp(model.q) > 1e-12 * model.q.max():
        raise ValueError(f"{engine} solves the uniform aggregate; model weights q must be equal")
    if spec.step_rule == "base" and matrix._diag.min() <= 0:  # keeps diag((A^T)^i) > 0
        raise ValueError("adaptive step-size tuning needs positive self-weights on every agent")
    return spec, matrix


def _validate_steps(engine: str, steps: StepSizes, model: CostModel, matrix: CombinationMatrix):
    if steps.mu.shape != (model.n_agents,):
        raise ValueError("step-size vector length does not match the agent count")
    rule = ENGINE_SPECS[engine].step_rule
    if rule == "base" and steps.mu_o is None:
        raise ValueError(f"{engine} needs a base step size mu_o")
    if rule == "perron":
        ratio = steps.mu * matrix.p / model.q
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
    state = AlgorithmState(w=np.tile(w0, (1, len(steps))))
    ctx = _EngineContext(model, mu, matrix)
    ENGINE_SPECS[engine].seed(state, ctx, steps)
    return state, ctx


def _perron_modes(matrix: CombinationMatrix):
    """(lam, U o U) from the matrix's cached At = U diag(lam) U^T
    (`_eigh`), so that diag((A^T)^i) = (U o U) lam^i.  The unit mode,
    last, is set to exactly lam = 1 with column p, so the estimate tends to p
    exactly."""
    lam, u = matrix._eigh
    lam, uu = lam.copy(), u * u
    lam[-1], uu[:, -1] = 1.0, matrix.p
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
                      (ctx, "mu"), (ctx, "qmu")):
        if getattr(obj, name) is not None:
            setattr(obj, name, getattr(obj, name)[..., columns])


def _iterate(engine: str, model: CostModel, matrix, steps_list, max_iters: int, stop: float,
             ground_truth: GroundTruth | None, w0: np.ndarray = None, record=None):
    """The one iteration loop of `run` and the stability scans: checks the
    inputs as `run` documents, then advances one member per StepSizes in
    steps_list, all seeded at w0, as a stack of shape (N, B*M) (the
    adaptive engine's z is shared).  The errors are checked once per block
    of CHECK_BLOCK iterations, the last block ending at max_iters, on the
    block's kept iterates, and diverged and converged members leave the
    stack there.  A member that exits inside a block steps on to its end
    unseen, but takes the status and verdict of its first crossing, so both
    stay exact.  Memory is O(CHECK_BLOCK B) for any budget: an exhausted
    member keeps only its error at iteration max_iters - _lookback(max_iters).

    record(ws, rels), if given, sees the seed and then each checked block:
    `ws` holds the block's iterates, one (N, B'*M) array per iteration (by
    reference: steps rebind w), and `rels` their (len(ws), B') relative
    errors, one column per member alive at the block's start.  When the
    last members exit, the block is cut at the last of their first
    crossings, so a one-member stack (`run`) records exactly up to its exit.

    Returns (statuses, verdicts).
    """
    spec, matrix = _check_engine(engine, model, matrix)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 <= stop < np.inf:
        raise ValueError("stop must be finite and at least 0")
    for steps in steps_list:
        _validate_steps(engine, steps, model, matrix)
    if ground_truth is None:
        ground_truth = solve_centralized(model)
    target = ground_truth.w_star if spec.weighted else ground_truth.w_o
    shape = (model.n_agents, model.dim)
    w0 = np.zeros(shape) if w0 is None else np.asarray(w0, dtype=float)
    if w0.shape != shape:
        raise ValueError(f"w0 shape {w0.shape} does not match {shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.sum((w0 - target) ** 2))
    if not np.isfinite(denom):
        raise ValueError("the squared distance from w0 (zeros unless given) to the target "
                         "overflows or is not finite, so no relative error can be formed")
    if denom == 0.0 and np.any(w0 != target):
        raise ValueError("the squared distance from w0 (zeros unless given) to the target "
                         "underflows to 0, so no relative error can be formed")
    size = len(steps_list)
    state, ctx = init_state(engine, model, matrix, w0, steps_list)
    statuses, verdicts = ["converged"] * size, ["stable"] * size
    step, snapshot_at = spec.step, max_iters - _lookback(max_iters)
    earlier, alive, kept = np.ones(size), np.arange(size), []
    # an overflowing member, or seed gradient, turns inf or NaN, which the
    # loop classifies as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        if record is not None:
            record([state.w], np.full((1, size), 1.0 if denom > 0.0 else 0.0))
        if denom == 0.0:  # w0 is the target
            return statuses, verdicts
        for i in range(1, max_iters + 1):
            step(state, ctx)
            kept.append(state.w)  # by reference: steps rebind w
            if i % CHECK_BLOCK and i < max_iters:
                continue
            rows = len(kept)  # iterations i - rows + 1 .. i
            # member-major, so each member sums its own N M entries in a row, as `run` does
            sq = np.empty((rows, alive.size, model.n_agents, model.dim))
            np.concatenate([w.reshape(1, shape[0], -1, shape[1]) for w in kept],
                           out=sq.transpose(0, 2, 1, 3))
            sq -= target
            rels = np.square(sq, out=sq).reshape(rows, alive.size, -1).sum(axis=2) / denom
            del sq  # not held while the next block's iterates are kept
            if i - rows < snapshot_at <= i:
                earlier[alive] = rels[snapshot_at - i - 1]
            keep = None
            if not (stop < rels.min() and rels.max() <= DIVERGENCE_CAP):  # a NaN fails both
                done = ~(rels <= DIVERGENCE_CAP) | (rels <= stop)  # ~ also catches NaN and inf
                exits = done.argmax(axis=0)  # each member's first exit row
                first = rels[exits, np.arange(alive.size)]  # rel at the first exit
                for k in alive[~(first <= DIVERGENCE_CAP)]:
                    statuses[k], verdicts[k] = "diverged", "unstable"
                keep = ~done.any(axis=0)
                if not keep.any():  # the stack ends at its last first exit
                    rows = exits.max() + 1
            if record is not None:
                record(kept[:rows], rels[:rows])
            kept = []
            if keep is None:
                continue
            alive, rels = alive[keep], rels[:, keep]
            if alive.size == 0:
                return statuses, verdicts
            _take(state, ctx, keep)
    for k, final in zip(alive, rels[-1]):
        statuses[k], verdicts[k] = "exhausted", _exhausted_verdict(final, earlier[k])
    return statuses, verdicts


def run(engine: str, model: CostModel, matrix, steps: StepSizes,
        max_iters: int = 4000, stop: float = 1e-8, w0: np.ndarray = None,
        ground_truth: GroundTruth = None) -> RunResult:
    """Run an engine until the squared relative error crosses `stop`.

    `run` is a one-member stack of the loop the stability scans use, so
    both share one divergence cap, one stop rule and one exhausted rule.
    It checks its error once per CHECK_BLOCK iterations, and its trace and
    final iterate end at the first iteration that crosses `stop` or the cap.

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

    Returns:
        RunResult with one TraceRecord per iteration (row 0 is the seed),
        status in {"converged", "exhausted", "diverged"} and w, the iterate
        W of the last record; a w0 equal to the target is converged at
        iteration 0.

    Raises ValueError for an unknown engine, a matrix of the wrong size or
    kind (ENGINE_SPECS), unequal q for an engine of the uniform aggregate, or
    a self-weight <= 0 for the adaptive one, as the scans and `exact_radius`
    do (`_check_engine`); and for steps off the engine's rule, max_iters < 1,
    a negative or infinite stop, or a w0 of the wrong shape or too near or
    far from the target for a relative error.  `init_state` checks none.
    """
    rels, grad_norms, w, n = [], [], None, model.n_agents

    def record(ws, rel):
        nonlocal w
        rels.extend(rel[:, 0].tolist())
        # each iterate's w.mean(axis=0), bit for bit, in one reduce over the block
        for mean in np.add.reduce(ws, axis=1) / n:
            g = model.weighted_grad(mean)
            grad_norms.append(math.sqrt(g.dot(g)))  # np.linalg.norm's own sum, without its wrapper
        w = ws[-1]

    (status,), _ = _iterate(engine, model, matrix, (steps,), max_iters, stop, ground_truth, w0,
                            record)
    comm_units = ENGINE_SPECS[engine].comm_units
    records = [TraceRecord(i, i * comm_units, rel, g)
               for i, (rel, g) in enumerate(zip(rels, grad_norms))]
    return RunResult(records=records, status=status, w=w)

