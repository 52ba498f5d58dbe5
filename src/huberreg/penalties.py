"""The Huber data term and the proximal operators of the penalties.

The Huber function is H(t) = t^2 / 2 for |t| <= 1 and |t| - 1/2 beyond,
with derivative h(t) = clip(t, -1, 1). Every estimator's data term is
``lambda_o^2 * sum_i H(r_i / (lambda_o * sqrt(n)))``, so the loss turns from
quadratic to linear at residual magnitude ``lambda_o * sqrt(n)``. It is
computed in one place, ``_huber_loss``, on the fitted values ``A x``, which
the solvers' engine calls every iteration. The proxes are soft-thresholding
(l1), singular value thresholding (nuclear norm) and the entrywise clamp
onto the completion estimator's box.
"""

from __future__ import annotations

import numpy as np

from .problems import DimensionMismatchError, TuningParams, _finite, _nonnegative, _positive, _require


def _checked(t, name):
    arr = np.asarray(t, dtype=float)
    _require(_finite(arr), f"{name} must be finite")
    return arr


def soft_threshold(v, tau: float):
    """Entrywise prox of tau * |.|_1: sign(v) * max(|v| - tau, 0).

    Exact zeros at |v| <= tau, including equality. A zeroed entry keeps the
    sign of ``sign(v) * 0``: -0.0 where v < 0, +0.0 where v >= 0 (v = -0.0
    included). Scalar input gives a float.
    """
    _nonnegative("threshold", tau)
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
    _nonnegative("threshold", tau)
    M = _checked(M, "M")
    if M.ndim != 2:
        raise DimensionMismatchError(f"M must be 2-d, got shape {M.shape}")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    S = np.maximum(S - tau, 0.0)
    return (U * S) @ Vt


def project_inf_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Entrywise clamp onto {B : max |B_ij| <= radius}."""
    _positive("radius", radius)
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
