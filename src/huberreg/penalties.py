"""Huber loss, penalized objectives, and proximal operators.

The Huber function used throughout is

    H(t) = t^2 / 2        for |t| <= 1,
           |t| - 1/2      for |t| > 1,

with derivative h(t) = t on [-1, 1] and sign(t) outside. Every data-fit
term has the form ``lambda_o^2 * sum_i H(r_i / (lambda_o * sqrt(n)))`` so
the loss transitions from quadratic to linear at residual magnitude
``lambda_o * sqrt(n)``.

That data term is computed in one place, ``_huber_loss``, on the fitted
values ``A x``: the solvers' engine calls it every iteration, and
``objective_lasso``/``objective_trace`` and the one smooth gradient
(``grad_smooth_trace``, also named ``grad_smooth_lasso``) are thin wrappers
that check the parameter's shape, apply the design and call it. Both
containers share the design protocol, so none of them asks which one it has.
"""

from __future__ import annotations

import numpy as np

from .problems import (
    DimensionMismatchError,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    TuningParams,
    design_adjoint,
    design_apply,
)


def _checked(t, name="t"):
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ProblemValidationError(f"{name} must be finite")
    return arr


def huber_value(t):
    """H(t); accepts scalars or arrays, branch-exact at |t| = 1."""
    arr = _checked(t)
    a = np.abs(arr)
    out = np.where(a <= 1.0, 0.5 * arr * arr, a - 0.5)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out

def huber_deriv(t):
    """h(t) = H'(t): identity on [-1, 1], sign(t) outside."""
    arr = _checked(t)
    out = np.clip(arr, -1.0, 1.0)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def soft_threshold(v, tau: float):
    """Entrywise prox of tau * |.|_1: sign(v) * max(|v| - tau, 0).

    Exact zeros at |v| <= tau, including equality. A zeroed entry keeps the
    sign of ``sign(v) * 0``: -0.0 where v < 0, +0.0 where v >= 0 (v = -0.0
    included). Scalar input gives a float.
    """
    if not (np.isfinite(tau) and tau >= 0):
        raise ProblemValidationError(f"threshold must be a finite nonnegative scalar, got {tau}")
    arr = _checked(v, "v")
    # out= keeps a 0-d input an array, so the in-place steps below apply
    out = np.abs(arr, out=np.empty_like(arr))
    out -= tau
    np.maximum(out, 0.0, out=out)
    out *= np.sign(arr)
    return float(out) if arr.ndim == 0 else out


def nuclear_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False).sum())


def singular_value_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Prox of tau * nuclear norm: soft-threshold the singular values.

    Uses a full deterministic SVD; adequate at the matrix sizes this
    package targets.
    """
    if not (np.isfinite(tau) and tau >= 0):
        raise ProblemValidationError(f"threshold must be a finite nonnegative scalar, got {tau}")
    M = _checked(M, "M")
    if M.ndim != 2:
        raise DimensionMismatchError(f"M must be 2-d, got shape {M.shape}")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    S = np.maximum(S - tau, 0.0)
    return (U * S) @ Vt


def project_inf_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Entrywise clamp onto {B : max |B_ij| <= radius}."""
    if not (np.isfinite(radius) and radius > 0):
        raise ProblemValidationError(f"radius must be a positive scalar, got {radius}")
    return np.clip(_checked(M, "M"), -radius, radius)


def _huber_loss(y: np.ndarray, n: int, tp: TuningParams):
    """The Huber data term as a function of the fitted values z.

    ``loss(z)`` returns ``(value, h)``: the value
    lambda_o^2 sum_i H((y_i - z_i) / (lambda_o sqrt n)) and
    h = -(lambda_o / sqrt n) h(u), so the gradient in the parameter is A^T h.
    """
    scale = tp.lambda_o * np.sqrt(n)
    coef = tp.lambda_o / np.sqrt(n)
    lam_o_sq = tp.lambda_o**2

    def loss(z):
        u = y - z
        u /= scale
        c = np.maximum(u, -1.0)
        np.minimum(c, 1.0, out=c)
        # c (u - c/2) is u^2/2 where |u| <= 1 and |u| - 1/2 elsewhere, bit for
        # bit: u - u/2 == u/2 exactly, and -(u + 1/2) == -u - 1/2
        w = c * 0.5
        np.subtract(u, w, out=w)
        w *= c
        val = float(lam_o_sq * np.add.reduce(w))
        c *= -coef
        return val, c

    return loss


def _param(problem, x) -> np.ndarray:
    """x as a float array, checked to have the shape of the problem's parameter."""
    x = np.asarray(x, dtype=float)
    shape = problem.param_shape
    if x.shape != shape:
        name = ("beta", "B")[len(shape) - 1]
        raise DimensionMismatchError(f"{name} has shape {x.shape}, expected {shape}")
    return x


def _data_term(problem, x: np.ndarray, tp: TuningParams):
    """(value, h) of the Huber data term at the parameter x."""
    return _huber_loss(problem.y, problem.n, tp)(design_apply(problem, x))


def objective_lasso(problem: RegressionProblem, beta: np.ndarray, tp: TuningParams) -> float:
    """lambda_o^2 sum_i H((y_i - <x_i, beta>) / (lambda_o sqrt n)) + lambda_star |beta|_1."""
    beta = _param(problem, beta)
    return _data_term(problem, beta, tp)[0] + tp.lambda_star * float(np.abs(beta).sum())


def objective_trace(problem: TraceProblem, B: np.ndarray, tp: TuningParams) -> float:
    """Huber data term plus lambda_star times the nuclear norm of B."""
    B = _param(problem, B)
    return _data_term(problem, B, tp)[0] + tp.lambda_star * nuclear_norm(B)


def grad_smooth_trace(problem, B: np.ndarray, tp: TuningParams) -> np.ndarray:
    """Gradient of the Huber data term, -(lambda_o/sqrt n) sum_i h(u_i) X_i,
    in the shape of the parameter; a vector problem's X_i are its rows."""
    return design_adjoint(problem, _data_term(problem, _param(problem, B), tp)[1])


grad_smooth_lasso = grad_smooth_trace
