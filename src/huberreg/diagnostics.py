"""Tuning calculators, restricted-eigenvalue probes, and error metrics.

The tuning calculators transcribe the finite-sample penalty and radius
prescriptions for the three estimators. The paper states them only up to
absolute constants; every such constant is 1 here, so the radii are meant
for scaling-shape checks, not absolute guarantees.
Outlier terms follow the convention that ``(o/n) sqrt(log(n/o))`` is 0 at
o = 0 and the o-dependent branch of a min is skipped when o = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundles import _kv_lines
from .datagen import _check_low_rank
from .problems import ProblemValidationError

SUPPORT_TOL = 1e-8
# empirical_re's projected gradient where the cone constraint binds: at most
# RE_PG_ITERS steps, stopping once no entry of an iterate moves by more than
# RE_PG_STALL * max(1, max|W|) from the one before it
RE_PG_ITERS = 500
RE_PG_STALL = 1e-9
_VARIANTS = ("heavy_tailed", "subweibull")  # tuning_completion's noise models


def _psd_sqrt(M: np.ndarray, name: str) -> np.ndarray:
    """Symmetric square root of a square PSD matrix; errors name the matrix ``name``."""
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, atol=1e-10):
        raise ProblemValidationError(f"{name} must be symmetric")
    w, V = np.linalg.eigh(M)
    if w.min() < -1e-10 * max(1.0, float(w.max())):
        raise ProblemValidationError(f"{name} must be positive semidefinite")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


@dataclass(frozen=True)
class TheoremInputs:
    """Everything the tuning calculators need.

    ``sigma`` is the variant's noise scale: the sub-Gaussian scale for the
    vector/trace calculators, the alpha-th-moment scale for heavy-tailed
    completion, the sub-Weibull scale for sub-Weibull completion.
    ``sigma_xi`` is the second-moment scale used inside the completion
    radius terms and defaults to ``sigma``. ``alpha`` is the moment /
    sub-Weibull order, ``alpha_star`` the spikiness bound. The absolute
    constants the paper leaves unspecified in lambda_star and the radii are 1.
    """

    n: int
    o: int = 0
    d: Optional[int] = None
    dims: Optional[tuple] = None
    s: Optional[int] = None
    r: Optional[int] = None
    delta: float = 0.1
    sigma: float = 1.0
    sigma_xi: Optional[float] = None
    L: float = 1.0
    rho: float = 1.0
    kappa: float = 1.0
    c0: float = 3.0
    alpha: Optional[float] = None
    alpha_star: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ProblemValidationError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.o <= self.n:
            raise ProblemValidationError(f"need 0 <= o <= n, got o={self.o}")
        for name in ("sigma", "sigma_xi", "L", "rho", "kappa", "c0", "alpha", "alpha_star"):
            v = getattr(self, name)
            if not ((v is None and name in ("sigma_xi", "alpha", "alpha_star"))
                    or (np.isfinite(v) and v > 0)):
                raise ProblemValidationError(f"{name} must be positive, got {v}")

    @property
    def c_kappa(self) -> float:
        return (self.c0 + 1.0) / self.kappa

    @property
    def second_moment_scale(self) -> float:
        return self.sigma if self.sigma_xi is None else self.sigma_xi


@dataclass(frozen=True)
class DiagnosticsReport:
    """Tuning output: penalties, predicted radius, feasibility flags."""

    model: str
    lambda_o: float
    lambda_star: float
    predicted_radius: float
    feasibility: dict
    terms: dict

    def to_kv_text(self) -> str:
        """``key = value`` lines: the headline values, then feasible.* and term.*, sorted."""
        kv = {k: getattr(self, k) for k in ("model", "lambda_o", "lambda_star", "predicted_radius")}
        kv.update((f"feasible.{k}", "true" if self.feasibility[k] else "false")
                  for k in sorted(self.feasibility))
        kv.update((f"term.{k}", self.terms[k]) for k in sorted(self.terms))
        return "".join(ln + "\n" for ln in _kv_lines(kv))


def _outlier_rate_term(o: int, n: int) -> float:
    """(o/n) sqrt(log(n/o)), with the o = 0 limit taken as 0."""
    if o == 0:
        return 0.0
    return (o / n) * float(np.sqrt(np.log(n / o)))


def _check_delta(delta: float, upper: float):
    if not 0 < delta < upper:
        raise ProblemValidationError(f"delta must lie in (0, {upper}), got {delta}")


def _sub_gaussian_tuning(ti, model, size, t_dim) -> DiagnosticsReport:
    """The lasso and matrix compressed sensing prescriptions, which differ only
    in the dimension term ``t_dim`` and the structure size ``size`` (s or r)."""
    n = ti.n
    lam_o_sqn = 72.0 * ti.L**4 * ti.sigma
    lam_o = lam_o_sqn / np.sqrt(n)
    ck = ti.c_kappa
    t_conf = (1.0 + np.sqrt(np.log(1.0 / ti.delta))) / (ck * np.sqrt(size) * np.sqrt(n))
    t_out = _outlier_rate_term(ti.o, n) / (ck * np.sqrt(size))
    r_lam = t_dim + t_conf + t_out
    lam_star = lam_o_sqn * ti.L * r_lam
    radius = lam_o_sqn * ti.L * ck * np.sqrt(size) * r_lam
    rsc_cap = 1.0 / (4.0 * np.sqrt(3.0) * ti.L**2)
    return DiagnosticsReport(
        model=model,
        lambda_o=float(lam_o),
        lambda_star=float(lam_star),
        predicted_radius=float(radius),
        feasibility={"radius_within_rsc": bool(radius <= rsc_cap)},
        terms={
            "dimension": float(t_dim),
            "confidence": float(t_conf),
            "outlier": float(t_out),
            "r_lambda_star": float(r_lam),
            "rsc_cap": float(rsc_cap),
        },
    )


def tuning_lasso(ti: TheoremInputs) -> DiagnosticsReport:
    """Penalty levels and radius for the l1-penalized Huber estimator."""
    _check_delta(ti.delta, 1.0 / 7.0)
    if ti.d is None or ti.s is None or not 1 <= ti.s <= ti.d:
        raise ProblemValidationError(f"need 1 <= s <= d, got s={ti.s}, d={ti.d}")
    t_dim = ti.rho * np.sqrt(np.log(ti.d / ti.s) / ti.n)
    return _sub_gaussian_tuning(ti, "lasso", ti.s, t_dim)


def tuning_matrix_cs(ti: TheoremInputs) -> DiagnosticsReport:
    """Penalty levels and radius for nuclear-norm penalized trace regression."""
    _check_delta(ti.delta, 1.0 / 7.0)
    if ti.dims is None or ti.r is None:
        raise ProblemValidationError("matrix compressed sensing needs dims and r")
    d1, d2 = ti.dims
    _check_low_rank(d1, d2, ti.r, np.inf)
    t_dim = ti.rho * np.sqrt((d1 + d2) / ti.n)
    return _sub_gaussian_tuning(ti, "matrix_cs", ti.r, t_dim)


def tuning_completion(ti: TheoremInputs, variant: str = "heavy_tailed") -> DiagnosticsReport:
    """Penalty levels and radius for constrained matrix completion.

    variant "heavy_tailed" assumes a bounded alpha-th noise moment with
    alpha >= 2; variant "subweibull" assumes a sub-Weibull noise norm with
    order alpha in (0, 2]. In both, lambda_o sits at its stated lower
    bound, a min of an o-dependent and an o-independent branch; at o = 0
    only the second branch exists.
    """
    _check_delta(ti.delta, 1.0)
    if variant not in _VARIANTS:
        raise ProblemValidationError(f"unknown completion variant {variant!r}")
    if ti.dims is None or ti.r is None:
        raise ProblemValidationError("completion needs dims and r")
    if ti.alpha is None or ti.alpha_star is None:
        raise ProblemValidationError("completion needs alpha and alpha_star")
    d1, d2 = ti.dims
    _check_low_rank(d1, d2, ti.r, ti.alpha_star)  # alpha_star bounds the truth's spikiness
    n, o, r, alpha = ti.n, ti.o, ti.r, float(ti.alpha)
    d_mc = float(np.sqrt(d1 * d2))
    if d_mc <= 1.0:
        raise ProblemValidationError("completion needs d1 * d2 > 1")
    log_dmc = float(np.log(d_mc))

    if variant == "heavy_tailed":
        if alpha < 2.0:
            raise ProblemValidationError(
                f"heavy_tailed variant needs alpha >= 2, got {alpha}"
            )
        branch_o = (n / o) ** (1.0 / (alpha + 1.0)) if o > 0 else np.inf
        branch_dim = (n / (r * d_mc * log_dmc)) ** (1.0 / alpha)
    else:
        if alpha > 2.0:
            raise ProblemValidationError(
                f"subweibull variant needs alpha <= 2, got {alpha}"
            )
        base = n / (r * d_mc * log_dmc)
        if o > 0 and n / o > 1.0:
            branch_o = float(np.log(n / o)) ** (1.0 / alpha)
        else:
            branch_o = np.inf
        if base <= 1.0 and not np.isfinite(branch_o):
            raise ProblemValidationError(
                "sub-Weibull lambda_o undefined: both min branches need "
                "logarithms of arguments > 1"
            )
        branch_dim = float(np.log(base)) ** (1.0 / alpha) if base > 1.0 else np.inf
    lam_o_sqn = 2.0 * ti.sigma * min(branch_o, branch_dim)
    if not (np.isfinite(lam_o_sqn) and lam_o_sqn > 0):
        raise ProblemValidationError(f"lambda_o bound degenerate: {lam_o_sqn}")
    lam_o = lam_o_sqn / np.sqrt(n)

    LL = log_dmc + np.log(1.0 / ti.delta)
    t_noise = ti.second_moment_scale * np.sqrt(r * d_mc * LL / n)
    t_scale = lam_o * np.sqrt(r) * d_mc * LL / np.sqrt(n)
    t_out = np.sqrt(lam_o_sqn * o / n)
    r_lam = t_noise + t_scale + t_out

    a_star = float(ti.alpha_star)
    t_rad_noise = a_star * np.sqrt(r * d_mc * LL / n)
    t_rad_dim = np.sqrt(r) * d_mc * log_dmc / n
    if variant == "heavy_tailed":
        t_rad_out = a_star * (o / n) ** (alpha / (2.0 * (1.0 + alpha)))
    else:
        t_rad_out = a_star * np.sqrt(o / n)
    lam_star = r_lam / np.sqrt(r)
    radius = a_star * (r_lam + t_rad_noise + t_rad_dim + t_rad_out)

    return DiagnosticsReport(
        model=f"completion_{variant}",
        lambda_o=float(lam_o),
        lambda_star=float(lam_star),
        predicted_radius=float(radius),
        feasibility={"o_branch_active": bool(branch_o <= branch_dim)},
        terms={
            "lambda_o_sqrt_n": float(lam_o_sqn),
            "noise": float(t_noise),
            "scale": float(t_scale),
            "outlier": float(t_out),
            "r_lambda_star": float(r_lam),
            "radius_noise": float(t_rad_noise),
            "radius_dimension": float(t_rad_dim),
            "radius_outlier": float(t_rad_out),
        },
    )


def _project_l1_rows(W: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Project each row of W onto the l1 ball of its own radius R[i]."""
    a = np.abs(W)
    over = a.sum(axis=1) > R + 1e-15
    if not over.any():
        return W
    out = W.copy()
    sub, Rn = a[over], R[over]
    srt = np.sort(sub, axis=1)[:, ::-1]
    css = np.cumsum(srt, axis=1)
    k = np.arange(1, sub.shape[1] + 1)
    rho = np.sum(srt * k > css - Rn[:, None], axis=1)
    tau = (css[np.arange(len(rho)), rho - 1] - Rn) / rho
    out[over] = np.sign(W[over]) * np.maximum(sub - tau[:, None], 0.0)
    return out


def _sphere_grid(k: int, m: int) -> np.ndarray:
    """Deterministic unit directions in R^k (k <= 3)."""
    if k == 1:
        return np.array([[1.0]])
    if k == 2:
        ang = np.pi * np.arange(m) / m
        return np.column_stack([np.cos(ang), np.sin(ang)])
    # golden-spiral points on S^2
    n_pts = m * m
    i = np.arange(n_pts) + 0.5
    z = 1.0 - 2.0 * i / n_pts
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def empirical_re(Sigma: np.ndarray, s: int, c0: float, grid: int = 64) -> float:
    """Smallest restricted eigenvalue found by exhaustive desk-scale search.

    Minimizes |Sigma^(1/2) v|_2 / |v_J|_2 over all supports |J| <= s and a
    deterministic direction grid for v_J, with the off-support block solved
    in closed form when the cone constraint |v_Jc|_1 <= c0 |v_J|_1 is slack
    and by projected gradient descent when it binds. Every evaluated point
    is cone-feasible, so the returned value is a certified upper bound on
    the true constant; ``grid`` is the refinement parameter.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    d = Sigma.shape[0]
    if Sigma.shape != (d, d):
        raise ProblemValidationError(f"Sigma must be square, got {Sigma.shape}")
    if d > 12 or not 1 <= s <= min(3, d):
        raise ProblemValidationError(
            f"desk-scale search needs d <= 12 and 1 <= s <= 3, got d={d}, s={s}"
        )
    if not (np.isfinite(c0) and c0 > 0):
        raise ProblemValidationError(f"c0 must be positive, got {c0}")
    if grid < 1:
        raise ProblemValidationError(f"grid must be >= 1, got {grid}")
    _psd_sqrt(Sigma, "Sigma")  # validates symmetry and PSD-ness

    best = np.inf
    idx = np.arange(d)
    for size in range(1, s + 1):
        V = _sphere_grid(size, grid)
        for J in itertools.combinations(range(d), size):
            J = np.array(J)
            C = np.setdiff1d(idx, J)
            S_JJ = Sigma[np.ix_(J, J)]
            q_JJ = np.einsum("ij,jk,ik->i", V, S_JJ, V)
            if C.size == 0:
                best = min(best, float(np.sqrt(max(q_JJ.min(), 0.0))))
                continue
            S_Jc = Sigma[np.ix_(J, C)]
            S_cc = Sigma[np.ix_(C, C)]
            R = c0 * np.abs(V).sum(axis=1)
            # unconstrained off-support minimizer, may violate the cone
            try:
                W = -np.linalg.solve(S_cc, S_Jc.T @ V.T).T
            except np.linalg.LinAlgError:
                W = -(np.linalg.pinv(S_cc) @ (S_Jc.T @ V.T)).T
            feas = np.abs(W).sum(axis=1) <= R * (1.0 + 1e-12) + 1e-15
            if not feas.all():
                Wc = _project_l1_rows(W[~feas], R[~feas])
                Vc = V[~feas]
                lmax = float(np.linalg.eigvalsh(S_cc).max())
                eta = 1.0 / (2.0 * max(lmax, 1e-300))
                for _ in range(RE_PG_ITERS):
                    gradc = 2.0 * (Vc @ S_Jc + Wc @ S_cc)
                    Wc, last = _project_l1_rows(Wc - eta * gradc, R[~feas]), Wc
                    # stalled: every iterate is cone-feasible, so stopping keeps the bound
                    if np.abs(Wc - last).max() <= RE_PG_STALL * max(1.0, np.abs(Wc).max()):
                        break
                W[~feas] = Wc
            q = (
                q_JJ
                + 2.0 * np.einsum("ij,ij->i", V @ S_Jc, W)
                + np.einsum("ij,jk,ik->i", W, S_cc, W)
            )
            best = min(best, float(np.sqrt(max(q.min(), 0.0))))
    return best


def empirical_mre(
    Sigma: Optional[np.ndarray],
    dims: tuple,
    r: int,
    c0: float,
    n_probes: int = 10000,
    seed: int = 0,
) -> float:
    """Randomized upper bound on the matrix restricted eigenvalue.

    Samples rank-r anchor matrices E, splits random matrices M into the
    component aligned with E's row/column spans and the orthogonal
    remainder, rescales the remainder so the nuclear-norm cone constraint
    holds, and reports the smallest |T(M)|_F / |P_E(M)|_F found. Every
    eighth probe zeroes the remainder, so the ideal value 1 is attained
    exactly for identity weighting. Upper bound only: a randomized search
    never certifies a lower bound.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    if min(d1, d2) < 1:
        raise ProblemValidationError(f"d1 and d2 must be >= 1, got d1={d1}, d2={d2}")
    if d1 > 4 or d2 > 4:
        raise ProblemValidationError(f"desk-scale search needs d1, d2 <= 4, got {dims}")
    if not 1 <= r <= min(d1, d2) or r > 2:
        raise ProblemValidationError(f"need 1 <= r <= min(2, d1, d2), got r={r}")
    if not (np.isfinite(c0) and c0 > 0):
        raise ProblemValidationError(f"c0 must be positive, got {c0}")
    if n_probes < 1:
        raise ProblemValidationError("n_probes must be >= 1")
    if seed < 0:
        raise ProblemValidationError(f"seed must be nonnegative, got {seed}")
    p = d1 * d2
    W = None
    if Sigma is not None:
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.shape != (p, p):
            raise ProblemValidationError(
                f"Sigma must be {p} x {p} for dims {dims}, got {Sigma.shape}"
            )
        W = _psd_sqrt(Sigma, "Sigma")

    rng = np.random.default_rng(seed)
    N = int(n_probes)
    E = rng.standard_normal((N, d1, r)) @ rng.standard_normal((N, r, d2))
    M0 = rng.standard_normal((N, d1, d2))
    gamma_u = rng.uniform(size=N)
    gamma_u[::8] = 0.0

    U, _, Vh = np.linalg.svd(E, full_matrices=True)
    Ur = U[:, :, :r]
    Vr = Vh[:, :r, :]
    P_l = Ur @ np.swapaxes(Ur, 1, 2)
    P_r = np.swapaxes(Vr, 1, 2) @ Vr
    I1 = np.eye(d1)[None, :, :]
    I2 = np.eye(d2)[None, :, :]
    perp = (I1 - P_l) @ M0 @ (I2 - P_r)
    par = M0 - perp

    nuc_par = np.linalg.svd(par, compute_uv=False).sum(axis=1)
    nuc_perp = np.linalg.svd(perp, compute_uv=False).sum(axis=1)
    gamma = gamma_u * c0 * nuc_par / np.maximum(nuc_perp, 1e-300)
    M = par + gamma[:, None, None] * perp

    den = np.linalg.norm(par.reshape(N, -1), axis=1)
    flat = M.reshape(N, -1)
    num = np.linalg.norm(flat if W is None else flat @ W.T, axis=1)
    ok = den > 1e-12
    if not ok.any():
        raise ProblemValidationError("all probes degenerate; increase n_probes")
    return float(np.min(num[ok] / den[ok]))


def error_metrics(estimate: np.ndarray, truth: np.ndarray) -> dict:
    """Estimation-error summary for a vector or matrix estimate.

    Reports ``error`` (l2 or Frobenius) and ``rel_error``, plus
    ``support_exact`` for vectors (the supports at tolerance 1e-8 agree) or
    ``rank_exact`` for matrices (the ranks at the same relative tolerance
    agree).
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ProblemValidationError(
            f"estimate shape {estimate.shape} does not match truth {truth.shape}"
        )
    diff = estimate - truth
    err = float(np.linalg.norm(diff))
    tnorm = float(np.linalg.norm(truth))
    out = {
        "error": err,
        "rel_error": err / tnorm if tnorm > 0 else np.inf if err > 0 else 0.0,
    }
    if truth.ndim == 1:
        sup_t = np.abs(truth) > SUPPORT_TOL
        sup_e = np.abs(estimate) > SUPPORT_TOL
        out["support_exact"] = bool((sup_t == sup_e).all())
    else:
        sv_t = np.linalg.svd(truth, compute_uv=False)
        sv_e = np.linalg.svd(estimate, compute_uv=False)
        rank = lambda sv: int((sv > SUPPORT_TOL * max(1.0, sv[0] if sv.size else 0.0)).sum())
        out["rank_exact"] = rank(sv_t) == rank(sv_e)
    return out
