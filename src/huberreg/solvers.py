"""Proximal-gradient solvers for the Huber-loss penalized estimators.

One accelerated engine drives all three entry points: FISTA momentum with
one rule, theta <- (1 + sqrt(1 + 4 theta^2)) / 2, and a function-value
safeguard. Each iteration takes one backtracked proximal-gradient step, from
the momentum point, or from the current iterate x when theta == 1 (the first
iteration, and the one after a restart). A momentum candidate that would
increase the objective restarts the momentum (theta = 1) and the step is
retaken from x, whose backtracked step size guarantees descent; if no step
down to the floor t0 * 1e-20 descends, the solve stops where it is. The
recorded objective trace is therefore non-increasing up to 1e-12 per
accepted step.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    RegressionProblem,
    SolverResult,
    TraceProblem,
    TuningParams,
    _at_least,
    _require,
    design_adjoint,
    design_apply,
)

# Objective decreases are tested against this additive slop; it is also the
# per-step tolerance promised by SolverResult.objective_trace.
_MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers.

    A solve stops after ``max_iters`` iterations, or once an accepted step
    moves the objective F by |F_prev - F| <= rel_tol * max(1, |F_prev|)
    (``converged``). The test is relative above F_prev = 1 and absolute
    below it; it says the objective stalled, not that the point is optimal.
    """

    max_iters: int = 5000
    rel_tol: float = 1e-9

    def __post_init__(self):
        _at_least("max_iters", self.max_iters)
        _require(0 < self.rel_tol < 1, f"rel_tol must be in (0, 1), got {self.rel_tol}")


def _minimize(
    x0: np.ndarray,
    apply_fn: Callable[[np.ndarray], np.ndarray],
    adjoint_fn: Callable[[np.ndarray], np.ndarray],
    loss: Callable[[np.ndarray], tuple],
    penalty_value: Callable[[np.ndarray], float],
    prox: Callable[[np.ndarray, float], np.ndarray],
    cfg: SolverConfig,
    t0: float,
    give_up: Optional[tuple] = None,
) -> SolverResult:
    """Safeguarded accelerated proximal gradient. Fully deterministic.

    ``loss(z)`` takes the fitted values ``z = A x`` and returns
    ``(value, h)``; the gradient of the smooth part at x is ``A^T h``.
    ``A x`` is kept with every iterate (always an exact apply of an
    accepted candidate), the momentum point's fitted values follow by
    linearity, and the gradient at x is formed only when a step is taken
    from x. Every step goes through one line search; the iteration count
    is ``len(trace) - 1``.

    ``give_up = (tol, hopeless)`` adds a checkpoint: at the first accepted
    step whose objective change passes the stop test at ``tol``, the engine
    calls ``hopeless(x)`` once, and True ends the solve there, ``"abandoned"``.
    An abandoned solve is bit for bit the ``rel_tol=tol`` solve from the
    same start, save ``stop``; any other is bit for bit the solve without
    ``give_up``.
    """
    x = np.array(x0, dtype=float)
    Ax = apply_fn(x)
    f_x, h_x = loss(Ax)
    g_x = None
    F_x = f_x + penalty_value(x)
    trace = [F_x]
    t = float(t0)
    t_floor = t0 * 1e-20
    theta = 1.0
    converged = False
    restarts = 0

    while not converged and len(trace) <= cfg.max_iters:
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        if theta > 1.0:
            m = (theta - 1.0) / theta_next
            y = x + m * (x - x_prev)
            f_y, h_y = loss(Ax + m * (Ax - Ax_prev))
            g_y = adjoint_fn(h_y)
        while True:
            if theta == 1.0:  # a step from x
                if g_x is None:
                    g_x = adjoint_fn(h_x)
                y, f_y, g_y = x, f_x, g_x
            cand = prox(y - t * g_y, t)
            A_c = apply_fn(cand)
            f_c, h_c = loss(A_c)
            d = cand - y
            bound = f_y + float(np.vdot(g_y, d)) + float(np.vdot(d, d)) / (2.0 * t)
            if f_c <= bound + _MONOTONE_TOL * max(1.0, abs(bound)) or t <= t_floor:
                F_c = f_c + penalty_value(cand)
                if F_c <= F_x + _MONOTONE_TOL:
                    break
                if theta > 1.0:
                    # momentum overshoot: restart and retake the step from x
                    theta = theta_next = 1.0
                    restarts += 1
                    continue
            if t <= t_floor:
                # no descent possible at the step floor; stop where we are
                return SolverResult(x, np.asarray(trace), "step_floor", restarts)
            t *= 0.5

        change, scale = abs(F_x - F_c), max(1.0, abs(F_x))
        converged = change <= cfg.rel_tol * scale
        x_prev, Ax_prev = x, Ax
        x, Ax, f_x, h_x, g_x, F_x = cand, A_c, f_c, h_c, None, F_c
        trace.append(F_x)
        theta = theta_next
        if give_up is not None and change <= give_up[0] * scale:
            hopeless, give_up = give_up[1], None
            if hopeless(x):
                return SolverResult(x, np.asarray(trace), "abandoned", restarts)

    return SolverResult(x, np.asarray(trace), "converged" if converged else "max_iters", restarts)


def _design_ops(problem):
    """(apply, adjoint) of the problem's design; each call looks up
    ``design_apply``/``design_adjoint`` anew. A vector problem calls them in
    ``problems``, not the names imported here: bench/tracing.py hooks these,
    and its self-test takes lasso_oracle as the workload that never calls them."""
    if len(problem.param_shape) == 1:
        return (lambda x: problems.design_apply(problem, x),
                lambda r: problems.design_adjoint(problem, r))
    return (lambda x: design_apply(problem, x)), (lambda r: design_adjoint(problem, r))


# Each estimator's penalty, lambda_star times a norm: (the parameter's ndim, the norm,
# prox(v, tau) of tau times the norm, and whether every iterate and a given start stay
# in the entrywise ball of radius tp.inf_ball_radius), each function looked up per call.
_L1 = (1, lambda b: float(np.abs(b).sum()), lambda v, tau: soft_threshold(v, tau), False)
_NUCLEAR = (2, lambda B: nuclear_norm(B), lambda V, tau: singular_value_threshold(V, tau), False)
_BOXED_NUCLEAR = (*_NUCLEAR[:3], True)


def _solve_huber(penalty, estimator, problem, tp, cfg, x0, give_up) -> SolverResult:
    """The Huber loss plus ``penalty`` at ``tp``, from ``x0`` (as a float array)
    or else zeros. A problem whose parameter does not have the penalty's ndim
    is rejected, naming ``estimator``."""
    ndim, norm, prox, boxed = penalty
    shape, lam = getattr(problem, "param_shape", ()), tp.lambda_star
    _require(len(shape) == ndim, f"{estimator} fits a {('vector', 'matrix')[ndim - 1]} "
             f"parameter and cannot take a {type(problem).__name__}")
    start = np.zeros(shape) if x0 is None else np.array(x0, dtype=float)
    if boxed:
        _require(tp.inf_ball_radius is not None, "matrix completion requires inf_ball_radius")
        radius, svt = tp.inf_ball_radius, prox
        prox = lambda V, tau: project_inf_ball(svt(V, tau), radius)
        if x0 is not None:
            start = project_inf_ball(start, radius)
    apply_fn, adjoint_fn = _design_ops(problem)
    loss = _huber_loss(problem.y, problem.n, tp)
    # the smooth-part curvature is at most opnorm^2 / n for every lambda_o:
    # the loss prefactor lambda_o^2 cancels against the residual rescaling
    t0 = problem.n / problem.opnorm_sq_estimate
    return _minimize(start, apply_fn, adjoint_fn, loss, lambda x: lam * norm(x),
                     lambda v, t: prox(v, t * lam), cfg, t0, give_up)


def solve_adversarial_lasso(problem: RegressionProblem, tp: TuningParams,
                            cfg: SolverConfig = SolverConfig(), x0: Optional[np.ndarray] = None,
                            *, give_up: Optional[tuple] = None) -> SolverResult:
    """l1-penalized Huber-loss regression; starts at zero unless x0 is given.

    ``give_up=(tol, hopeless)`` ends the solve, ``"abandoned"``, at the first
    step that passes the stop test at ``tol`` if ``hopeless(estimate)``
    (see ``_minimize``); the other two solvers take it too."""
    return _solve_huber(_L1, "solve_adversarial_lasso", problem, tp, cfg, x0, give_up)


def solve_matrix_cs(problem: TraceProblem, tp: TuningParams,
                    cfg: SolverConfig = SolverConfig(), x0: Optional[np.ndarray] = None,
                    *, give_up: Optional[tuple] = None) -> SolverResult:
    """Nuclear-norm penalized Huber-loss trace regression; zero start default."""
    return _solve_huber(_NUCLEAR, "solve_matrix_cs", problem, tp, cfg, x0, give_up)


def solve_matrix_completion(problem: TraceProblem, tp: TuningParams,
                            cfg: SolverConfig = SolverConfig(), B0: Optional[np.ndarray] = None,
                            *, give_up: Optional[tuple] = None) -> SolverResult:
    """Completion solver: gradient step, then SVT, then box projection.

    Iterates stay inside the entrywise ball of radius ``tp.inf_ball_radius``;
    an infeasible start is projected onto the ball rather than rejected.
    """
    return _solve_huber(_BOXED_NUCLEAR, "solve_matrix_completion", problem, tp, cfg, B0, give_up)
