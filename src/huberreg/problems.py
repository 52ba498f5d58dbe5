"""Problem containers for robust penalized regression.

Three observation models share one container family:

* vector regression, ``y_i = <x_i, beta*> + xi_i + sqrt(n) * theta*_i``,
* trace regression with dense matrix covariates,
  ``y_i = <X_i, B*> + xi_i + sqrt(n) * theta*_i``,
* matrix completion, where each covariate is a signed one-hot mask
  ``X_i = d_mc * eps_i * E_{k_i, l_i}`` with ``d_mc = sqrt(d1 * d2)``.

``theta*`` is the adversarial contamination vector, stored before the
``sqrt(n)`` normalization (the factor is applied when responses are built).
Containers are immutable after validation and hold one copy of each array.
An array a caller passes in is copied, so a problem never shares memory with
the caller's data. An array that one of the library's own producers
(``datagen.gen_problem``, ``bundles.read_problem_bundle``) has just built,
and that nothing else holds, is handed over wrapped in ``_Adopt`` and kept
without a copy. Either way the write flags are cleared, so instances are
safe to share across threads.

Both containers share one design protocol (``_Design``): ``n``,
``is_mask``, ``param_shape`` and the power-iteration estimate of the design's
squared operator norm, computed at most once per instance and cached on it
(``opnorm_sq_estimate``), so every solve on the same problem reuses it.
``design_apply`` and ``design_adjoint`` serve every problem. A vector problem
is the trace problem with d2 = 1: its parameter is the vector of length d.
Dense designs take one path, one GEMV on the (n, p) matrix whose row i is
vec(X_i): a vector problem's ``X`` as it is, a trace problem's (n, d1, d2)
covariates as their (n, d1 * d2) view, bit for bit the tensor contraction
over the two cell axes. Masks use a gather and a ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

# Dense matrix covariates are kept only at desk scale; masks are the
# canonical encoding for completion problems.
MAX_DENSE_CELLS = 10**6
POWER_ITERS = 20


class ProblemValidationError(ValueError):
    """A problem container violates one of its type invariants."""


class DimensionMismatchError(ProblemValidationError):
    """Shapes disagree; the message names both offending shapes."""


class InfeasibleError(ValueError):
    """A point violates an explicit feasibility constraint."""


class InternalInvariantError(RuntimeError):
    """Postcondition the library promises was observed to fail.

    Raised on checks that hold by construction (monotone objective
    traces, feasible solver output); seeing one means a bug, not bad
    user input, hence the RuntimeError base.
    """


class _Adopt:
    """Marks an array that a huberreg producer has just built and holds nowhere else.

    A container keeps the wrapped array (converted only if its dtype is not
    the container's) instead of copying it, and locks it and every array it
    is a view of.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _locked(a, dtype) -> np.ndarray:
    if isinstance(a, _Adopt):
        arr = np.asarray(a.array, dtype=dtype)
    else:
        arr = np.array(a, dtype=dtype, copy=True)
    base = arr
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return arr


def _as_locked_float(a, name: str) -> np.ndarray:
    arr = _locked(a, float)
    if not np.isfinite(arr).all():
        raise ProblemValidationError(f"{name} contains non-finite entries")
    return arr


def _power_opnorm_sq(apply_fn, adjoint_fn, shape, iters: int = POWER_ITERS) -> float:
    """Estimate |A|_op^2 where A maps parameter -> (n,) via power iteration.

    Starts from the normalized all-ones vector; the result never exceeds
    the true value.
    """
    v = np.ones(shape, dtype=float)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = adjoint_fn(apply_fn(v))
        nw = float(np.linalg.norm(w))
        if nw <= 1e-300:
            return 1e-300
        v = w / nw
        lam = nw
    return lam


@dataclass(frozen=True)
class TuningParams:
    """Penalty levels for the Huber-loss objectives.

    ``lambda_o`` scales the loss (the Huber transition sits at residual
    magnitude ``lambda_o * sqrt(n)``), ``lambda_star`` multiplies the
    structure penalty (l1 norm or nuclear norm), and ``inf_ball_radius``
    is the entrywise box constraint used by matrix completion.
    """

    lambda_o: float
    lambda_star: float
    inf_ball_radius: Optional[float] = None

    def __post_init__(self):
        for name in ("lambda_o", "lambda_star", "inf_ball_radius"):
            v = getattr(self, name)
            if not ((v is None and name == "inf_ball_radius") or (np.isfinite(v) and v > 0)):
                raise ProblemValidationError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class SolverResult:
    """Output of an iterative solve.

    ``objective_trace`` holds the objective at the initial point and after
    every accepted step; solvers guarantee it is non-increasing up to 1e-12
    per step. ``converged`` is True iff the relative objective change fell
    below the configured tolerance before the iteration cap.
    """

    estimate: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    final_step_size: float


@dataclass(frozen=True)
class MaskCovariates:
    """Signed one-hot design for matrix completion.

    Sample i observes cell ``(rows[i], cols[i])`` with sign ``signs[i]``;
    the implied covariate matrix is ``d_mc * signs[i] * E_{rows[i], cols[i]}``.
    """

    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        for name in ("rows", "cols", "signs"):
            object.__setattr__(self, name, _locked(getattr(self, name), np.int64))
        if not (self.rows.shape == self.cols.shape == self.signs.shape) or self.rows.ndim != 1:
            raise DimensionMismatchError(
                f"mask arrays must be equal-length vectors, got rows {self.rows.shape}, "
                f"cols {self.cols.shape}, signs {self.signs.shape}"
            )
        if not np.all(np.abs(self.signs) == 1):
            raise ProblemValidationError("mask signs must be +1 or -1")

    def __len__(self) -> int:
        return self.rows.shape[0]


class _Design:
    """The design protocol both containers share.

    A problem's design is one linear map A from its parameter (shape
    ``param_shape``) to R^n. A subclass provides ``y``, ``param_shape`` and
    ``_dense``: the (n, p) matrix whose row i is vec(X_i), or None for masks.
    """

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def is_mask(self) -> bool:
        return self._dense is None

    @cached_property
    def opnorm_sq_estimate(self) -> float:
        """|A|_op^2 from POWER_ITERS power iterations (a lower bound); cached."""
        return _power_opnorm_sq(
            lambda x: design_apply(self, x), lambda r: design_adjoint(self, r), self.param_shape
        )

    def _lock_truth_and_contamination(self, truth_name: str) -> None:
        """Check and lock the truth (parameter-shaped) and the pair
        (theta_true, outlier_index_set); y and the design are already set."""
        truth = getattr(self, truth_name)
        if truth is not None:
            truth = _as_locked_float(truth, truth_name)
            if truth.shape != self.param_shape:
                raise DimensionMismatchError(
                    f"{truth_name} has shape {truth.shape}, expected {self.param_shape}"
                )
            object.__setattr__(self, truth_name, truth)
        n, theta, outliers = self.n, self.theta_true, self.outlier_index_set
        if outliers is not None:
            outliers = frozenset(int(i) for i in outliers)
        if theta is not None:
            theta = _as_locked_float(theta, "theta_true")
            if theta.shape != (n,):
                raise DimensionMismatchError(
                    f"theta_true has shape {theta.shape}, expected ({n},)"
                )
            support = frozenset(np.flatnonzero(theta).tolist())
            if outliers is None:
                outliers = support
            elif outliers != support:
                raise ProblemValidationError(
                    f"outlier_index_set {sorted(outliers)} does not match "
                    f"support of theta_true {sorted(support)}"
                )
        elif outliers and (min(outliers) < 0 or max(outliers) >= n):
            raise ProblemValidationError("outlier_index_set contains out-of-range indices")
        object.__setattr__(self, "theta_true", theta)
        object.__setattr__(self, "outlier_index_set", outliers)


@dataclass(frozen=True)
class RegressionProblem(_Design):
    """Vector regression data: responses y (n,), covariates X (n, d)."""

    y: np.ndarray
    X: np.ndarray
    beta_true: Optional[np.ndarray] = None
    theta_true: Optional[np.ndarray] = None
    outlier_index_set: Optional[frozenset] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "y", _as_locked_float(self.y, "y"))
        object.__setattr__(self, "X", _as_locked_float(self.X, "X"))
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise DimensionMismatchError(
                f"y must be 1-d and X 2-d, got y {self.y.shape}, X {self.X.shape}"
            )
        if self.y.shape[0] != self.X.shape[0]:
            raise DimensionMismatchError(
                f"y has {self.y.shape[0]} rows but X has {self.X.shape[0]}"
            )
        self._lock_truth_and_contamination("beta_true")

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def param_shape(self) -> tuple:
        return (self.d,)

    @property
    def _dense(self) -> np.ndarray:
        return self.X


@dataclass(frozen=True)
class TraceProblem(_Design):
    """Trace regression data.

    ``covariates`` is either an (n, d1, d2) dense array or MaskCovariates.
    """

    y: np.ndarray
    covariates: object
    dims: tuple
    B_true: Optional[np.ndarray] = None
    theta_true: Optional[np.ndarray] = None
    outlier_index_set: Optional[frozenset] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "y", _as_locked_float(self.y, "y"))
        d1, d2 = (int(self.dims[0]), int(self.dims[1]))
        object.__setattr__(self, "dims", (d1, d2))
        if d1 < 1 or d2 < 1:
            raise ProblemValidationError(f"dims must be positive, got {self.dims}")
        if self.y.ndim != 1:
            raise DimensionMismatchError(f"y must be 1-d, got shape {self.y.shape}")
        n = self.y.shape[0]
        cov = self.covariates
        if isinstance(cov, MaskCovariates):
            if len(cov) != n:
                raise DimensionMismatchError(
                    f"y has {n} entries but mask covariates have {len(cov)}"
                )
            if cov.rows.size and (cov.rows.min() < 0 or cov.rows.max() >= d1):
                raise ProblemValidationError("mask row indices out of range")
            if cov.cols.size and (cov.cols.min() < 0 or cov.cols.max() >= d2):
                raise ProblemValidationError("mask column indices out of range")
        else:
            if d1 * d2 > MAX_DENSE_CELLS:
                raise ProblemValidationError(
                    f"dense covariates capped at {MAX_DENSE_CELLS} cells, got {d1 * d2}"
                )
            cov = _as_locked_float(cov, "covariates")
            if cov.shape != (n, d1, d2):
                raise DimensionMismatchError(
                    f"covariates have shape {cov.shape}, expected ({n}, {d1}, {d2})"
                )
            object.__setattr__(self, "covariates", cov)
        self._lock_truth_and_contamination("B_true")

    @property
    def param_shape(self) -> tuple:
        return self.dims

    @property
    def d_mc(self) -> float:
        return float(np.sqrt(self.dims[0] * self.dims[1]))

    @property
    def _dense(self) -> Optional[np.ndarray]:
        if isinstance(self.covariates, MaskCovariates):
            return None
        return self.covariates.reshape(self.n, self.dims[0] * self.dims[1])


def design_apply(problem: _Design, x: np.ndarray) -> np.ndarray:
    """All n inner products <X_i, x> at once."""
    A = problem._dense
    if A is None:
        m = problem.covariates
        return problem.d_mc * m.signs * x[m.rows, m.cols]
    return A @ x.reshape(-1)


def design_adjoint(problem: _Design, w: np.ndarray) -> np.ndarray:
    """Adjoint of design_apply: sum_i w_i X_i in the shape of the parameter."""
    A = problem._dense
    if A is None:
        d1, d2 = problem.dims
        m = problem.covariates
        flat = np.bincount(
            m.rows * d2 + m.cols, weights=problem.d_mc * m.signs * w, minlength=d1 * d2
        )
    else:
        flat = w @ A
    return flat.reshape(problem.param_shape)
