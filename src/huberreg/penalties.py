"""Huber loss, penalized objectives, and proximal operators.

The Huber function used throughout is

    H(t) = t^2 / 2        for |t| <= 1,
           |t| - 1/2      for |t| > 1,

with derivative h(t) = t on [-1, 1] and sign(t) outside. Every data-fit
term has the form ``lambda_o^2 * sum_i H(r_i / (lambda_o * sqrt(n)))`` so
the loss transitions from quadratic to linear at residual magnitude
``lambda_o * sqrt(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import (
    DimensionMismatchError,
    InfeasibleError,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    TuningParams,
    design_adjoint,
    design_apply,
)

# Feasibility slack for the entrywise box constraint.
INF_BALL_TOL = 1e-12


@dataclass(frozen=True)
class HuberScale:
    """Residual scale ``lambda_o * sqrt(n)`` at which the loss turns linear."""

    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ProblemValidationError(f"Huber scale must be positive, got {self.scale}")

    @staticmethod
    def from_tuning(tp: TuningParams, n: int) -> "HuberScale":
        return HuberScale(tp.lambda_o * float(np.sqrt(n)))


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


def _huber_data_term(residuals: np.ndarray, scale: float, lambda_o: float) -> float:
    u = residuals / scale
    a = np.abs(u)
    vals = np.where(a <= 1.0, 0.5 * u * u, a - 0.5)
    return float(lambda_o**2 * vals.sum())


def objective_lasso(problem: RegressionProblem, beta: np.ndarray, tp: TuningParams) -> float:
    """lambda_o^2 sum_i H((y_i - <x_i, beta>) / (lambda_o sqrt n)) + lambda_star |beta|_1."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.d,):
        raise DimensionMismatchError(
            f"beta has shape {beta.shape}, expected ({problem.d},)"
        )
    scale = HuberScale.from_tuning(tp, problem.n).scale
    r = problem.y - problem.X @ beta
    return _huber_data_term(r, scale, tp.lambda_o) + tp.lambda_star * float(
        np.abs(beta).sum()
    )


def grad_smooth_lasso(problem: RegressionProblem, beta: np.ndarray, tp: TuningParams) -> np.ndarray:
    """Gradient of the smooth (Huber) part: -(lambda_o/sqrt n) sum_i h(u_i) x_i."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.d,):
        raise DimensionMismatchError(
            f"beta has shape {beta.shape}, expected ({problem.d},)"
        )
    n = problem.n
    scale = HuberScale.from_tuning(tp, n).scale
    u = (problem.y - problem.X @ beta) / scale
    h = np.clip(u, -1.0, 1.0)
    return -(tp.lambda_o / np.sqrt(n)) * (problem.X.T @ h)


def objective_trace(
    problem: TraceProblem, B: np.ndarray, tp: TuningParams, constrained: bool = False
) -> float:
    """Huber data term plus lambda_star times the nuclear norm of B.

    With ``constrained=True`` the entrywise box ``|B|_inf <= inf_ball_radius``
    is enforced first and violations raise InfeasibleError (distinct from
    dimension errors).
    """
    B = np.asarray(B, dtype=float)
    if B.shape != problem.dims:
        raise DimensionMismatchError(f"B has shape {B.shape}, expected {problem.dims}")
    if constrained:
        if tp.inf_ball_radius is None:
            raise ProblemValidationError("constrained objective needs inf_ball_radius")
        sup = float(np.abs(B).max()) if B.size else 0.0
        if sup > tp.inf_ball_radius + INF_BALL_TOL:
            raise InfeasibleError(
                f"|B|_inf = {sup} exceeds radius {tp.inf_ball_radius}"
            )
    scale = HuberScale.from_tuning(tp, problem.n).scale
    r = problem.y - design_apply(problem, B)
    return _huber_data_term(r, scale, tp.lambda_o) + tp.lambda_star * nuclear_norm(B)


def grad_smooth_trace(problem: TraceProblem, B: np.ndarray, tp: TuningParams) -> np.ndarray:
    """Gradient of the Huber data term: -(lambda_o/sqrt n) sum_i h(u_i) X_i."""
    B = np.asarray(B, dtype=float)
    if B.shape != problem.dims:
        raise DimensionMismatchError(f"B has shape {B.shape}, expected {problem.dims}")
    n = problem.n
    scale = HuberScale.from_tuning(tp, n).scale
    u = (problem.y - design_apply(problem, B)) / scale
    h = np.clip(u, -1.0, 1.0)
    return -(tp.lambda_o / np.sqrt(n)) * design_adjoint(problem, h)
