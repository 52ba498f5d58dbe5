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
safe to share across threads. Validation makes no full-size temporary of
any array either: the finiteness check works in bounded blocks, so adopting
a dense design costs the design and nothing else of its size. The
package's range and finiteness rules are stated here once: ``_require``,
``_positive``, ``_nonnegative``, ``_at_least`` and ``_finite``.

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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

# Dense matrix covariates are kept only at desk scale; masks are the
# canonical encoding for completion problems.
MAX_DENSE_CELLS = 10**6
POWER_ITERS = 20
# entries per block of the finiteness check (a 64 KiB boolean buffer)
FINITE_BLOCK = 1 << 16


class ProblemValidationError(ValueError):
    """A problem container violates one of its type invariants."""


class DimensionMismatchError(ProblemValidationError):
    """Shapes disagree; the message names both offending shapes."""


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


def _require(cond: bool, msg: str) -> None:
    """Raise ProblemValidationError(msg) unless ``cond``: every input rule of the package."""
    if not cond:
        raise ProblemValidationError(msg)


def _rule(ok: bool, name: str, rule: str, v, got):
    if not ok:  # the message is built only on failure: the prox checks run every iteration
        raise ProblemValidationError(f"{name} must be {rule}, got {v if got is None else got}")
    return v


def _positive(name: str, v, got=None):
    """``v`` if it is a finite number above 0; else raises, naming ``name`` and
    ``v`` (or ``got``). NaN and inf fail."""
    return _rule(0 < v < math.inf, name, "positive", v, got)


def _nonnegative(name: str, v):
    """``v`` if it is a finite number at or above 0, else raises naming it."""
    return _rule(0 <= v < math.inf, name, "nonnegative", v, None)


def _at_least(name: str, v, low=1, got=None):
    """``v`` if it is at least ``low`` (an integer bound; inf passes, NaN fails),
    else raises naming ``name`` and ``v`` (or ``got``)."""
    return _rule(v >= low, name, f">= {low}", v, got)


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite: one ``np.isfinite`` call up to
    FINITE_BLOCK entries, else one per block of FINITE_BLOCK entries of the
    flat view into one reused buffer, which allocates nothing of the array's
    size. That view is not a copy: a large array the package checks, like
    every array a container locks, is contiguous."""
    if arr.size <= FINITE_BLOCK:
        return bool(np.isfinite(arr).all())
    flat, buf = arr.ravel(order="K"), np.empty(FINITE_BLOCK, dtype=bool)
    for start in range(0, flat.size, FINITE_BLOCK):
        block = flat[start:start + FINITE_BLOCK]
        if not np.isfinite(block, out=buf[:block.size]).all():
            return False
    return True


def _as_locked_float(a, name: str) -> np.ndarray:
    """``a`` as a locked float array; raises unless every entry is finite."""
    arr = _locked(a, float)
    _require(_finite(arr), f"{name} contains non-finite entries")
    return arr


def _power_opnorm_sq(problem) -> float:
    """Estimate |A|_op^2 of the problem's design by POWER_ITERS power iterations.

    Starts from the normalized all-ones vector; the result never exceeds
    the true value.
    """
    v = np.ones(problem.param_shape, dtype=float)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(POWER_ITERS):
        w = design_adjoint(problem, design_apply(problem, v))
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
            if getattr(self, name) is not None or name != "inf_ball_radius":
                _positive(name, getattr(self, name))


@dataclass(frozen=True)
class SolverResult:
    """Output of an iterative solve.

    ``objective_trace`` holds the objective at the initial point and after
    every accepted step; solvers guarantee it is non-increasing up to 1e-12
    per step. ``stop`` is why it ended: ``"converged"`` (``SolverConfig``'s
    stop test fired; it certifies no optimality), ``"max_iters"``,
    ``"step_floor"`` (no step down to the floor descends) or ``"abandoned"``
    (at a ``give_up`` checkpoint). ``restarts`` counts momentum restarts.
    """

    estimate: np.ndarray
    objective_trace: np.ndarray
    stop: str
    restarts: int

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


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
        _require(np.all(np.abs(self.signs) == 1), "mask signs must be +1 or -1")

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
        return _power_opnorm_sq(self)

    @property
    def outlier_index_set(self) -> frozenset:
        """The support of theta_true (the paper's I_O); empty without it."""
        if self.theta_true is None:
            return frozenset()
        return frozenset(np.flatnonzero(self.theta_true).tolist())

    def _lock_truth_and_contamination(self, truth_name: str) -> None:
        """Check and lock the truth (parameter-shaped) and theta_true (n,);
        y and the design are already set."""
        for name, shape in ((truth_name, self.param_shape), ("theta_true", (self.n,))):
            arr = getattr(self, name)
            if arr is not None:
                arr = _as_locked_float(arr, name)
                if arr.shape != shape:
                    raise DimensionMismatchError(
                        f"{name} has shape {arr.shape}, expected {shape}"
                    )
                object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RegressionProblem(_Design):
    """Vector regression data: responses y (n,), covariates X (n, d)."""

    y: np.ndarray
    X: np.ndarray
    beta_true: Optional[np.ndarray] = None
    theta_true: Optional[np.ndarray] = None
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
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "y", _as_locked_float(self.y, "y"))
        d1, d2 = (int(self.dims[0]), int(self.dims[1]))
        object.__setattr__(self, "dims", (d1, d2))
        _positive("dims", min(d1, d2), got=self.dims)
        if self.y.ndim != 1:
            raise DimensionMismatchError(f"y must be 1-d, got shape {self.y.shape}")
        n = self.y.shape[0]
        cov = self.covariates
        if isinstance(cov, MaskCovariates):
            if len(cov) != n:
                raise DimensionMismatchError(
                    f"y has {n} entries but mask covariates have {len(cov)}"
                )
            for idx, d, what in ((cov.rows, d1, "row"), (cov.cols, d2, "column")):
                _require(not idx.size or 0 <= idx.min() <= idx.max() < d,
                         f"mask {what} indices out of range")
        else:
            _require(d1 * d2 <= MAX_DENSE_CELLS,
                     f"dense covariates capped at {MAX_DENSE_CELLS} cells, got {d1 * d2}")
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
