"""Proximal-gradient solvers for the Huber-loss penalized estimators.

One accelerated engine drives all four entry points. The engine is
FISTA-style momentum with a function-value safeguard: whenever a momentum
candidate would increase the objective, the momentum is restarted and the
step is retaken from the current iterate as a plain proximal-gradient
step, whose backtracked step size guarantees descent. The recorded
objective trace is therefore non-increasing up to 1e-12 per accepted
step.

Step sizes come from a backtracking line search against the quadratic
upper bound of the smooth part,

    f(z) <= f(y) + <grad f(y), z - y> + |z - y|^2 / (2 t),

halving t until the bound holds. The smooth part's curvature is at most
|A|_op^2 / n for every lambda_o, so the initial step is ``n / opnorm2``,
where ``opnorm2`` is the 20-step power-iteration estimate of |A|_op^2
(``problem.opnorm_sq_estimate``). It is computed once per problem and
cached on it, so a lambda path reuses it; the line search covers an
estimate below the true norm.

Cost per iteration: the engine keeps the fitted values ``A x`` with the
iterate and forms those of the momentum point by linearity, so an
iteration applies the design once per step size tried and its adjoint
once, plus once more when a momentum overshoot restarts from x. The Huber
loss on fitted values is ``penalties._huber_loss``, the one implementation
of the data term: with u the scaled residual and c = clip(u, -1, 1), it sums
c (u - c/2), which equals H(u) bit for bit on both branches, and returns
h = -(lambda_o / sqrt n) c from the same buffer.

Joint formulation
-----------------
``solve_joint_oracle`` minimizes the quadratic objective with explicit
outlier variables,

    J(beta, theta) = (1/(2n)) |y - X beta - sqrt(n) theta|_2^2
                     + lambda_star |beta|_1 + lambda_o |theta|_1,

by exact alternating minimization. Minimizing J over theta at fixed beta
gives, entrywise in the residual r_i = y_i - <x_i, beta>,

    min_u (r - u)^2 / (2n) + (lambda_o / sqrt(n)) |u|
        = (1/(2n)) r^2                          for |r| <= lambda_o sqrt(n)
        = (lambda_o/sqrt(n)) |r| - lambda_o^2/2  otherwise,

with minimizer u = soft(r, lambda_o sqrt(n)) and theta = u / sqrt(n).
Both branches equal lambda_o^2 H(r / (lambda_o sqrt n)) exactly, so the
theta-profiled joint objective coincides with the Huber objective: no
additive or multiplicative calibration constant remains in this scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import problems
from .penalties import (
    _huber_loss,
    nuclear_norm,
    project_inf_ball,
    singular_value_threshold,
    soft_threshold,
)
from .problems import (
    ProblemValidationError,
    RegressionProblem,
    SolverResult,
    TraceProblem,
    TuningParams,
    design_adjoint,
    design_apply,
)

# Objective decreases are tested against this additive slop; it is also the
# per-step tolerance promised by SolverResult.objective_trace.
_MONOTONE_TOL = 1e-12

# solve_joint_oracle's alternation cap and its relative objective-change stop
JOINT_OUTER_ITERS = 500
JOINT_OUTER_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers.

    A solve stops after ``max_iters`` iterations, or once an accepted step
    changes the objective by at most ``rel_tol`` relative to its previous
    value (``converged``).
    """

    max_iters: int = 5000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ProblemValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0 < self.rel_tol < 1):
            raise ProblemValidationError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


class JointResult(NamedTuple):
    beta: np.ndarray
    theta: np.ndarray
    objective: float
    iterations: int
    converged: bool


class _Run(NamedTuple):
    x: np.ndarray
    trace: np.ndarray
    iterations: int
    converged: bool
    step: float
    restarts: int


def _minimize(
    x0: np.ndarray,
    apply_fn: Callable[[np.ndarray], np.ndarray],
    adjoint_fn: Callable[[np.ndarray], np.ndarray],
    loss: Callable[[np.ndarray], tuple],
    penalty_value: Callable[[np.ndarray], float],
    prox: Callable[[np.ndarray, float], np.ndarray],
    cfg: SolverConfig,
    t0: float,
) -> _Run:
    """Safeguarded accelerated proximal gradient. Fully deterministic.

    ``loss(z)`` takes the fitted values ``z = A x`` and returns
    ``(value, h)``; the gradient of the smooth part at x is ``A^T h``.
    ``A x`` is kept with every iterate (always an exact apply of an
    accepted candidate), the momentum point's fitted values follow by
    linearity, and the gradient at x is formed only when a step is taken
    from x (first iteration or restart).
    """
    x = np.array(x0, dtype=float)
    Ax = apply_fn(x)
    f_x, h_x = loss(Ax)
    g_x = None
    x_prev, Ax_prev = x, Ax
    F_x = f_x + penalty_value(x)
    trace = [F_x]
    t = float(t0)
    theta_mom = 1.0
    converged = False
    iterations = 0
    restarts = 0
    t_floor = t0 * 1e-20

    for _ in range(cfg.max_iters):
        if theta_mom > 1.0:
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta_mom**2))
            m = (theta_mom - 1.0) / theta_next
            y = x + m * (x - x_prev)
            f_y, h_y = loss(Ax + m * (Ax - Ax_prev))
            g_y = adjoint_fn(h_y)
            from_x = False
        else:
            theta_next = 0.5 * (1.0 + math.sqrt(5.0))
            if g_x is None:
                g_x = adjoint_fn(h_x)
            y, f_y, g_y = x, f_x, g_x
            from_x = True

        accepted = None
        while True:
            cand = prox(y - t * g_y, t)
            A_c = apply_fn(cand)
            f_c, h_c = loss(A_c)
            d = cand - y
            bound = f_y + float(np.vdot(g_y, d)) + float(np.vdot(d, d)) / (2.0 * t)
            if f_c > bound + _MONOTONE_TOL * max(1.0, abs(bound)) and t > t_floor:
                t *= 0.5
                continue
            F_c = f_c + penalty_value(cand)
            if F_c <= F_x + _MONOTONE_TOL:
                accepted = (cand, A_c, f_c, h_c, F_c)
                break
            if not from_x:
                # momentum overshoot: restart and retake the step from x
                if g_x is None:
                    g_x = adjoint_fn(h_x)
                y, f_y, g_y = x, f_x, g_x
                from_x = True
                theta_next = 1.0
                restarts += 1
                continue
            if t > t_floor:
                t *= 0.5
                continue
            break

        if accepted is None:
            # no descent possible at the step floor; stop where we are
            break

        x_prev, Ax_prev = x, Ax
        x, Ax, f_x, h_x, F_c = accepted
        g_x = None
        F_prev, F_x = F_x, F_c
        trace.append(F_x)
        theta_mom = theta_next
        iterations += 1
        if abs(F_prev - F_x) <= cfg.rel_tol * max(1.0, abs(F_prev)):
            converged = True
            break

    return _Run(x, np.asarray(trace), iterations, converged, t, restarts)


def _initial_step(problem) -> float:
    # the smooth-part curvature is at most opnorm^2 / n for every lambda_o:
    # the loss prefactor lambda_o^2 cancels against the residual rescaling
    return problem.n / problem.opnorm_sq_estimate


def _design_ops(problem):
    """(apply, adjoint) of the problem's design; each call looks up
    ``design_apply``/``design_adjoint`` anew. A vector problem calls them in
    ``problems``, not the names imported here: bench/tracing.py hooks these,
    and its self-test takes lasso_oracle as the workload that never calls them."""
    if len(problem.param_shape) == 1:
        return (lambda x: problems.design_apply(problem, x),
                lambda r: problems.design_adjoint(problem, r))
    return (lambda x: design_apply(problem, x)), (lambda r: design_adjoint(problem, r))


def _start(problem, x0, ndim: int, estimator: str) -> np.ndarray:
    """``x0`` as a float array, else zeros of the problem's parameter shape.
    A problem whose parameter is not ``ndim``-dimensional is rejected by name."""
    shape = getattr(problem, "param_shape", ())
    if len(shape) != ndim:
        raise ProblemValidationError(
            f"{estimator} fits a {('vector', 'matrix')[ndim - 1]} parameter and cannot "
            f"take a {type(problem).__name__}"
        )
    return np.zeros(shape) if x0 is None else np.array(x0, dtype=float)


def _l1_terms(lambda_star: float):
    """(penalty value, prox) of lambda_star |.|_1."""
    pen = lambda b: lambda_star * float(np.abs(b).sum())
    prox = lambda v, t: soft_threshold(v, t * lambda_star)
    return pen, prox


def _solve_huber(problem, tp, cfg, start, penalty_value, prox) -> SolverResult:
    apply_fn, adjoint_fn = _design_ops(problem)
    run = _minimize(
        start, apply_fn, adjoint_fn, _huber_loss(problem.y, problem.n, tp),
        penalty_value, prox, cfg, _initial_step(problem),
    )
    return SolverResult(run.x, run.trace, run.iterations, run.converged, run.step)


def solve_adversarial_lasso(
    problem: RegressionProblem,
    tp: TuningParams,
    cfg: SolverConfig = SolverConfig(),
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """l1-penalized Huber-loss regression; starts at zero unless x0 is given."""
    start = _start(problem, x0, 1, "solve_adversarial_lasso")
    return _solve_huber(problem, tp, cfg, start, *_l1_terms(tp.lambda_star))


def solve_matrix_cs(
    problem: TraceProblem,
    tp: TuningParams,
    cfg: SolverConfig = SolverConfig(),
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Nuclear-norm penalized Huber-loss trace regression; zero start default."""
    start = _start(problem, x0, 2, "solve_matrix_cs")
    pen = lambda B: tp.lambda_star * nuclear_norm(B)
    prox = lambda V, t: singular_value_threshold(V, t * tp.lambda_star)
    return _solve_huber(problem, tp, cfg, start, pen, prox)


def solve_matrix_completion(
    problem: TraceProblem,
    tp: TuningParams,
    cfg: SolverConfig = SolverConfig(),
    B0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Completion solver: gradient step, then SVT, then box projection.

    Iterates stay inside the entrywise ball of radius ``tp.inf_ball_radius``;
    an infeasible start is projected onto the ball rather than rejected.
    """
    x0 = _start(problem, B0, 2, "solve_matrix_completion")
    if tp.inf_ball_radius is None:
        raise ProblemValidationError("matrix completion requires inf_ball_radius")
    radius = tp.inf_ball_radius
    pen = lambda B: tp.lambda_star * nuclear_norm(B)
    prox = lambda V, t: project_inf_ball(
        singular_value_threshold(V, t * tp.lambda_star), radius
    )
    if B0 is not None:
        x0 = project_inf_ball(x0, radius)
    return _solve_huber(problem, tp, cfg, x0, pen, prox)


def solve_joint_oracle(
    problem: RegressionProblem,
    tp: TuningParams,
    cfg: SolverConfig = SolverConfig(),
) -> JointResult:
    """Alternating minimization of the joint quadratic objective J.

    The beta step is an l1-penalized least-squares solve on the adjusted
    responses ``y - sqrt(n) theta`` (warm-started accelerated proximal
    gradient); the theta step is the closed form
    ``theta = soft(y - X beta, lambda_o sqrt(n)) / sqrt(n)``. Both steps
    are exact block minimizers, so J decreases monotonically; the
    profiled value equals the Huber objective at the same beta.
    """
    beta = _start(problem, None, 1, "solve_joint_oracle")
    y, n = problem.y, problem.n
    sqn = np.sqrt(n)
    scale = tp.lambda_o * sqn
    apply_fn, adjoint_fn = _design_ops(problem)
    t0 = _initial_step(problem)
    pen, prox = _l1_terms(tp.lambda_star)

    theta = np.zeros(n)
    obj = np.inf
    converged = False
    it = 0
    for it in range(1, JOINT_OUTER_ITERS + 1):
        y_adj = y - sqn * theta

        def loss(z, y_adj=y_adj):
            r = y_adj - z
            return float(np.vdot(r, r)) / (2.0 * n), -r / n

        beta = _minimize(beta, apply_fn, adjoint_fn, loss, pen, prox, cfg, t0).x
        r = y - apply_fn(beta)
        theta = soft_threshold(r, scale) / sqn
        resid = r - sqn * theta
        new_obj = (
            float(np.vdot(resid, resid)) / (2.0 * n)
            + pen(beta)
            + tp.lambda_o * float(np.abs(theta).sum())
        )
        if np.isfinite(obj) and abs(obj - new_obj) <= JOINT_OUTER_TOL * max(1.0, abs(obj)):
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return JointResult(beta, theta, obj, it, converged)
