"""Synthetic data: ground truths, covariates, noise, and adversaries.

Seed handling
-------------
All randomness flows through ``numpy.random.Generator`` objects built from
``numpy.random.SeedSequence``. The splitting rule is documented and fixed:
a problem draw with master seed ``m`` uses child streams
``SeedSequence([m, k])`` with k = 0 for covariates, 1 for noise, 2 for the
adversary, and 3 for the ground truth helpers when they derive from the
same master. Sweeps address trials as ``SeedSequence([base_seed, cell
index, trial index])`` and pass that as the master. Identical specs and
seeds reproduce problems bit for bit.

The contamination model: the adversary picks an index set I_O of size o
and a vector theta* supported on it, after seeing the covariates and the
noise. Responses are ``signal + noise + sqrt(n) * theta*``; theta* is
stored unnormalized on the problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import (
    MaskCovariates,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    _Adopt,
)

_STREAM_COV, _STREAM_NOISE, _STREAM_ADV = 0, 1, 2
LOW_RANK_DRAWS = 1000  # gen_low_rank's draws before it gives up on the cap
_NOISE_KINDS = ("gaussian", "student_t", "weibull_symmetric")  # NoiseSpec's kinds
_STRATEGIES = ("none", "random_large", "sign_flip", "adaptive_residual")  # the adversary's


def child_rng(master_seed: int, *keys: int) -> np.random.Generator:
    """Deterministic child stream for (seed, key...) addressing."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, keys)]))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise distribution.

    kind: "gaussian" (scale sigma), "student_t" (scale sigma, dof alpha > 2
    so the second moment exists), "weibull_symmetric" (random sign times a
    Weibull(shape alpha) magnitude, scale sigma, alpha in (0, 2]; the
    sub-Weibull norm of the draw is sigma by construction).
    """

    kind: str = "gaussian"
    sigma: float = 1.0
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ProblemValidationError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ProblemValidationError(f"sigma must be positive, got {self.sigma}")
        if self.kind == "student_t" and not (self.alpha is not None and self.alpha > 2):
            raise ProblemValidationError("student_t needs alpha (dof) > 2")
        if self.kind == "weibull_symmetric" and not (
            self.alpha is not None and 0 < self.alpha <= 2
        ):
            raise ProblemValidationError("weibull_symmetric needs alpha in (0, 2]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(n)
        if self.kind == "student_t":
            return self.sigma * rng.standard_t(self.alpha, size=n)
        # weibull_symmetric; draw order fixed: magnitudes first, then signs
        mags = self.sigma * rng.weibull(self.alpha, size=n)
        signs = rng.integers(0, 2, size=n) * 2 - 1
        return signs * mags


@dataclass(frozen=True)
class ContaminationSpec:
    """Adversary description; ``seed`` is the master seed of the whole draw.

    Strategies (a zero magnitude is rejected where it would corrupt no row):
      none              theta* = 0.
      random_large      o uniform indices, theta*_i = +/- magnitude with
                        independent random signs.
      sign_flip         o uniform indices, theta*_i = -2 (signal_i +
                        noise_i)/sqrt(n), so the corrupted response is the
                        negated clean response.
      adaptive_residual the o indices with largest |noise_i| (the adversary
                        inspects the noise), theta*_i = magnitude *
                        sign(noise_i), amplifying the worst residuals.
    """

    o: int = 0
    strategy: str = "none"
    magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ProblemValidationError(f"unknown adversary strategy {self.strategy!r}")
        if self.o < 0:
            raise ProblemValidationError(f"o must be nonnegative, got {self.o}")
        if self.seed < 0:
            raise ProblemValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.strategy == "none" and self.o != 0:
            raise ProblemValidationError("strategy 'none' requires o == 0")
        if self.strategy != "none" and not np.isfinite(self.magnitude):
            raise ProblemValidationError("magnitude must be finite")
        if self.o and self.strategy in ("random_large", "adaptive_residual") and not self.magnitude:
            raise ProblemValidationError(
                f"magnitude must be nonzero for strategy {self.strategy!r} when o > 0")

    def build_theta(
        self, rng: np.random.Generator, n: int, signal: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        if self.o > n:
            raise ProblemValidationError(f"o = {self.o} exceeds n = {n}")
        theta = np.zeros(n)
        if self.strategy == "none" or self.o == 0:
            return theta
        if self.strategy == "random_large":
            idx = rng.choice(n, size=self.o, replace=False)
            signs = rng.integers(0, 2, size=self.o) * 2 - 1
            theta[idx] = self.magnitude * signs
        elif self.strategy == "sign_flip":
            idx = rng.choice(n, size=self.o, replace=False)
            theta[idx] = -2.0 * (signal[idx] + noise[idx]) / np.sqrt(n)
        else:  # adaptive_residual
            idx = np.argsort(-np.abs(noise), kind="stable")[: self.o]
            theta[idx] = self.magnitude * np.sign(noise[idx])
            # sign(0) would silently drop an outlier; push it to +magnitude
            theta[idx[noise[idx] == 0]] = self.magnitude
        return theta


def _check_sparse(d: int, s: int) -> None:
    """gen_sparse_beta's size rule."""
    if d < 1:
        raise ProblemValidationError(f"d must be >= 1, got {d}")
    if not 0 <= s <= d:
        raise ProblemValidationError(f"need 0 <= s <= d, got s={s}, d={d}")


def gen_sparse_beta(
    d: int, s: int, magnitude: float = 1.0, seed: int = 0
) -> np.ndarray:
    """s-sparse coefficient vector: uniform support, +/- magnitude entries."""
    _check_sparse(d, s)
    if not (np.isfinite(magnitude) and magnitude > 0):
        raise ProblemValidationError(f"magnitude must be positive, got {magnitude}")
    rng = np.random.default_rng(seed)
    beta = np.zeros(d)
    if s:
        support = rng.choice(d, size=s, replace=False)
        signs = rng.integers(0, 2, size=s) * 2 - 1
        beta[support] = magnitude * signs
    return beta


def spikiness(M: np.ndarray) -> float:
    """d_mc * |M|_inf / |M|_F with d_mc = sqrt(d1 d2); always >= 1."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ProblemValidationError(f"M must be a nonempty matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ProblemValidationError("M must be finite")
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        raise ProblemValidationError("spikiness undefined for the zero matrix")
    return float(np.sqrt(M.shape[0] * M.shape[1]) * np.abs(M).max() / fro)


def _check_low_rank(d1: int, d2: int, r: int, spikiness_cap: float) -> None:
    """gen_low_rank's size and cap rule, checked before any draw."""
    if min(d1, d2) < 1:
        raise ProblemValidationError(f"d1 and d2 must be >= 1, got d1={d1}, d2={d2}")
    if not 1 <= r <= min(d1, d2):
        raise ProblemValidationError(f"need 1 <= r <= min(d1, d2), got r={r}")
    if not spikiness_cap >= 1.0:  # spikiness is always >= 1; NaN fails too, inf passes
        raise ProblemValidationError(f"a spikiness bound must be >= 1, got {spikiness_cap}")


def gen_low_rank(
    d1: int,
    d2: int,
    r: int,
    spikiness_cap: float = np.inf,
    seed: int = 0,
) -> np.ndarray:
    """Rank-r matrix with unit Frobenius norm and bounded spikiness.

    Draws B = A1 A2^T with standard normal factors, rescales to
    |B|_F = 1, and resamples until the spikiness cap is met, at most
    LOW_RANK_DRAWS times.
    """
    _check_low_rank(d1, d2, r, spikiness_cap)
    rng = np.random.default_rng(seed)
    for _ in range(LOW_RANK_DRAWS):
        B = rng.standard_normal((d1, r)) @ rng.standard_normal((r, d2))
        fro = np.linalg.norm(B)
        if fro == 0.0:
            continue
        B /= fro
        if spikiness(B) <= spikiness_cap:
            return B
    raise ProblemValidationError(
        f"no draw met spikiness cap {spikiness_cap} in {LOW_RANK_DRAWS} attempts"
    )


def gen_problem(
    design: str,
    noise: NoiseSpec,
    truth: np.ndarray,
    n: int,
    contamination: ContaminationSpec,
):
    """Assemble a problem: y = signal + noise + sqrt(n) * theta*.

    ``design`` is "gaussian" (independent standard normal entries) or
    "mask_uniform" (completion masks: per sample, one cell uniform over the
    d1 x d2 grid and an independent +/- sign); both have identity
    covariance, so meta records L and rho as 1.0. ``truth`` is a vector
    (vector regression) or a matrix (trace regression or completion). The
    master seed lives on the contamination spec; see the module docstring
    for the stream splitting rule.
    """
    if design not in ("gaussian", "mask_uniform"):
        raise ProblemValidationError(f"unknown design {design!r}, not gaussian or mask_uniform")
    if n < 1:
        raise ProblemValidationError(f"n must be >= 1, got {n}")
    truth = np.asarray(truth, dtype=float)
    rng_cov = child_rng(contamination.seed, _STREAM_COV)
    rng_noise = child_rng(contamination.seed, _STREAM_NOISE)
    rng_adv = child_rng(contamination.seed, _STREAM_ADV)

    if truth.ndim not in (1, 2):
        raise ProblemValidationError(f"truth must be 1-d or 2-d, got shape {truth.shape}")
    if design == "mask_uniform":
        if truth.ndim != 2:
            raise ProblemValidationError("mask covariates need a matrix truth")
        d1, d2 = truth.shape
        # draw order fixed: cells first, then signs
        cells = rng_cov.integers(0, d1 * d2, size=n)
        signs = rng_cov.integers(0, 2, size=n) * 2 - 1
        covariates = MaskCovariates(_Adopt(cells // d2), _Adopt(cells % d2), _Adopt(signs))
        signal = np.sqrt(d1 * d2) * signs * truth[covariates.rows, covariates.cols]
    else:
        # one dense draw for both containers: row i is vec(X_i), and a vector
        # truth is the d x 1 matrix case
        X = rng_cov.standard_normal((n, truth.size))
        signal = X @ truth.reshape(-1)
        covariates = _Adopt(X.reshape(n, *truth.shape))
    xi = noise.sample(rng_noise, n)
    theta = contamination.build_theta(rng_adv, n, signal, xi)
    y = signal + xi + np.sqrt(n) * theta
    meta = {
        "seed": contamination.seed, "noise_kind": noise.kind, "sigma": noise.sigma,
        "L": 1.0, "rho": 1.0, "o": int(np.count_nonzero(theta)),
        "adversary": contamination.strategy,
    }
    if truth.ndim == 1:
        return RegressionProblem(
            _Adopt(y), covariates, beta_true=truth, theta_true=_Adopt(theta), meta=meta
        )
    return TraceProblem(
        _Adopt(y), covariates, truth.shape, B_true=truth, theta_true=_Adopt(theta), meta=meta
    )
