"""Independent references the tests check the package against.

Nothing here is package API, and nothing here runs the solvers' engine: the
objectives evaluate the Huber function ``huber_value`` on the residuals
through the public ``design_apply``/``design_adjoint``, never through
``penalties._huber_loss``, and the joint oracle is coordinate descent, not
the accelerated proximal gradient of ``solvers._minimize``.

The Huber function is

    H(t) = t^2 / 2        for |t| <= 1,
           |t| - 1/2      for |t| > 1,

with derivative h(t) = t on [-1, 1] and sign(t) outside. The objective of
every estimator is ``lambda_o^2 sum_i H(r_i / (lambda_o sqrt n))`` plus
``lambda_star`` times the l1 norm of a vector parameter or the nuclear norm
of a matrix one, with r = y - A x.

Joint formulation
-----------------
``solve_joint_oracle`` minimizes the quadratic objective with explicit
outlier variables,

    J(beta, theta) = (1/(2n)) |y - X beta - sqrt(n) theta|_2^2
                     + lambda_star |beta|_1 + lambda_o |theta|_1.

Minimizing J over theta at fixed beta gives, entrywise in the residual
r_i = y_i - <x_i, beta>,

    min_u (r - u)^2 / (2n) + (lambda_o / sqrt(n)) |u|
        = (1/(2n)) r^2                          for |r| <= lambda_o sqrt(n)
        = (lambda_o/sqrt(n)) |r| - lambda_o^2/2  otherwise,

with minimizer u = soft(r, lambda_o sqrt(n)) and theta = u / sqrt(n).
Both branches equal lambda_o^2 H(r / (lambda_o sqrt n)) exactly, so the
theta-profiled joint objective coincides with the Huber objective: no
additive or multiplicative calibration constant remains in this scaling.
"""

from typing import NamedTuple

import numpy as np

from huberreg import ProblemValidationError, design_adjoint, design_apply


def _checked(t):
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ProblemValidationError("t must be finite")
    return arr


def huber_value(t):
    """H(t); accepts scalars or arrays, branch-exact at |t| = 1."""
    arr = _checked(t)
    a = np.abs(arr)
    out = np.where(a <= 1.0, 0.5 * arr * arr, a - 0.5)
    return float(out) if arr.ndim == 0 else out


def huber_deriv(t):
    """h(t) = H'(t): identity on [-1, 1], sign(t) outside."""
    out = np.clip(_checked(t), -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _scaled_residual(problem, x, tp):
    return (problem.y - design_apply(problem, x)) / (tp.lambda_o * np.sqrt(problem.n))


def data_term(problem, x, tp) -> float:
    """lambda_o^2 sum_i H(r_i / (lambda_o sqrt n)) at the parameter x."""
    u = _scaled_residual(problem, np.asarray(x, dtype=float), tp)
    return tp.lambda_o**2 * float(huber_value(u).sum())


def objective(problem, x, tp) -> float:
    """The data term plus lambda_star times the l1 norm of a vector x or the
    nuclear norm of a matrix x."""
    x = np.asarray(x, dtype=float)
    penalty = np.abs(x).sum() if x.ndim == 1 else np.linalg.norm(x, "nuc")
    return data_term(problem, x, tp) + tp.lambda_star * float(penalty)


def grad_smooth(problem, x, tp) -> np.ndarray:
    """Gradient of the Huber data term, -(lambda_o / sqrt n) A^T h(u), in the
    shape of the parameter."""
    h = huber_deriv(_scaled_residual(problem, np.asarray(x, dtype=float), tp))
    return design_adjoint(problem, -(tp.lambda_o / np.sqrt(problem.n)) * h)


def _soft(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


class JointResult(NamedTuple):
    beta: np.ndarray
    theta: np.ndarray
    objective: float


# solve_joint_oracle stops once a sweep moves no coordinate by more than
# JOINT_TOL * max(1, |beta|_inf), or after JOINT_MAX_SWEEPS sweeps
JOINT_TOL = 1e-13
JOINT_MAX_SWEEPS = 100_000


def solve_joint_oracle(problem, tp) -> JointResult:
    """Coordinate descent on J: each sweep minimizes exactly over every
    beta_j in turn, then over the whole theta block,
    ``theta = soft(y - X beta, lambda_o sqrt n) / sqrt n``."""
    X, y, n = problem.X, problem.y, problem.n
    sqn = np.sqrt(n)
    col_sq = np.einsum("ij,ij->j", X, X) / n
    beta, theta = np.zeros(problem.d), np.zeros(n)
    for _ in range(JOINT_MAX_SWEEPS):
        old_beta, old_theta = beta.copy(), theta
        r = y - X @ beta - sqn * theta
        for j in np.flatnonzero(col_sq):
            b = _soft(X[:, j] @ r / n + col_sq[j] * beta[j], tp.lambda_star) / col_sq[j]
            r -= X[:, j] * (b - beta[j])
            beta[j] = b
        theta = _soft(y - X @ beta, tp.lambda_o * sqn) / sqn
        moved = max(np.abs(beta - old_beta).max(), np.abs(theta - old_theta).max())
        if moved <= JOINT_TOL * max(1.0, np.abs(beta).max()):
            break
    resid = y - X @ beta - sqn * theta
    value = (float(resid @ resid) / (2 * n) + tp.lambda_star * float(np.abs(beta).sum())
             + tp.lambda_o * float(np.abs(theta).sum()))
    return JointResult(beta, theta, value)


def aggregate_medians(records, key: str = "error", by: str = "cell_index") -> dict:
    """Median of ``key`` grouped by a record field, in sorted group order."""
    groups = {}
    for rec in records:
        groups.setdefault(getattr(rec, by), []).append(getattr(rec, key))
    return {k: float(np.median(v)) for k, v in sorted(groups.items())}
