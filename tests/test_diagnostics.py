import itertools

import numpy as np
import pytest

import huberreg.diagnostics as diagnostics
from huberreg import (
    DiagnosticsReport,
    ProblemValidationError,
    TheoremInputs,
    empirical_mre,
    empirical_re,
    error_metrics,
    tuning_completion,
    tuning_lasso,
    tuning_matrix_cs,
)

# Reference values below were transcribed by hand a second time, written as
# straight-line arithmetic, and frozen. Any library change that moves a
# penalty level or radius past 1e-12 relative is a calibration break.


def lasso_reference(n, d, s, o, delta, sigma, L, rho, kappa, c0):
    lam_o_sqn = 72.0 * L**4 * sigma
    ck = (c0 + 1.0) / kappa
    r_lam = rho * np.sqrt(np.log(d / s) / n)
    r_lam += (1.0 + np.sqrt(np.log(1.0 / delta))) / (ck * np.sqrt(s)) / np.sqrt(n)
    if o > 0:
        r_lam += (o / n) * np.sqrt(np.log(n / o)) / (ck * np.sqrt(s))
    return (
        lam_o_sqn / np.sqrt(n),
        lam_o_sqn * L * r_lam,
        lam_o_sqn * L * ck * np.sqrt(s) * r_lam,
    )


def matrix_cs_reference(n, d1, d2, r, o, delta, sigma, L, rho, kappa, c0):
    lam_o_sqn = 72.0 * L**4 * sigma
    ck = (c0 + 1.0) / kappa
    r_lam = rho * np.sqrt((d1 + d2) / n)
    r_lam += (1.0 + np.sqrt(np.log(1.0 / delta))) / (ck * np.sqrt(r)) / np.sqrt(n)
    if o > 0:
        r_lam += (o / n) * np.sqrt(np.log(n / o)) / (ck * np.sqrt(r))
    return (
        lam_o_sqn / np.sqrt(n),
        lam_o_sqn * L * r_lam,
        lam_o_sqn * L * ck * np.sqrt(r) * r_lam,
    )


def completion_reference(n, d1, d2, r, o, delta, sigma, sigma_xi, alpha, a_star, variant):
    d_mc = np.sqrt(d1 * d2)
    if variant == "heavy_tailed":
        b_o = (n / o) ** (1.0 / (alpha + 1.0)) if o > 0 else np.inf
        b_dim = (n / (r * d_mc * np.log(d_mc))) ** (1.0 / alpha)
        rad_out_pow = alpha / (2.0 * (1.0 + alpha))
    else:
        b_o = np.log(n / o) ** (1.0 / alpha) if o > 0 else np.inf
        b_dim = np.log(n / (r * d_mc * np.log(d_mc))) ** (1.0 / alpha)
        rad_out_pow = 0.5
    lam_o_sqn = 2.0 * sigma * min(b_o, b_dim)
    LL = np.log(d_mc) + np.log(1.0 / delta)
    r_lam = sigma_xi * np.sqrt(r * d_mc * LL / n)
    r_lam += lam_o_sqn * np.sqrt(r) * d_mc * LL / n
    r_lam += np.sqrt(lam_o_sqn * o / n) if o > 0 else 0.0
    radius = a_star * (
        r_lam
        + a_star * np.sqrt(r * d_mc * LL / n)
        + np.sqrt(r) * d_mc * np.log(d_mc) / n
        + a_star * (o / n) ** rad_out_pow
    )
    return lam_o_sqn / np.sqrt(n), r_lam / np.sqrt(r), radius


# ------------------------------------------------------- frozen calibration


def test_lasso_tuning_frozen():
    rep = tuning_lasso(TheoremInputs(n=1000, o=50, d=100, s=5, delta=0.1, sigma=1.0))
    assert rep.lambda_o == pytest.approx(2.2768399153212333, rel=1e-12)
    assert rep.lambda_star == pytest.approx(5.278269666476751, rel=1e-12)
    assert rep.predicted_radius == pytest.approx(47.210279111268633, rel=1e-12)
    ref = lasso_reference(1000, 100, 5, 50, 0.1, 1.0, 1.0, 1.0, 1.0, 3.0)
    assert rep.lambda_o == pytest.approx(ref[0], rel=1e-12)
    assert rep.lambda_star == pytest.approx(ref[1], rel=1e-12)
    assert rep.predicted_radius == pytest.approx(ref[2], rel=1e-12)


def test_lasso_tuning_tracks_all_inputs():
    # vary every input and require agreement with the reference transcription
    cases = [
        dict(n=500, d=80, s=3, o=0, delta=0.05, sigma=0.3, L=1.2, rho=1.5, kappa=0.8, c0=4.0),
        dict(n=4000, d=64, s=2, o=100, delta=0.13, sigma=2.0, L=0.9, rho=1.0, kappa=1.3, c0=3.0),
    ]
    for c in cases:
        rep = tuning_lasso(TheoremInputs(
            n=c["n"], o=c["o"], d=c["d"], s=c["s"], delta=c["delta"], sigma=c["sigma"],
            L=c["L"], rho=c["rho"], kappa=c["kappa"], c0=c["c0"],
        ))
        ref = lasso_reference(
            c["n"], c["d"], c["s"], c["o"], c["delta"], c["sigma"],
            c["L"], c["rho"], c["kappa"], c["c0"],
        )
        assert rep.lambda_o == pytest.approx(ref[0], rel=1e-12)
        assert rep.lambda_star == pytest.approx(ref[1], rel=1e-12)
        assert rep.predicted_radius == pytest.approx(ref[2], rel=1e-12)


def test_matrix_cs_tuning_frozen():
    rep = tuning_matrix_cs(TheoremInputs(n=1000, o=50, dims=(8, 6), r=2, delta=0.1, sigma=1.0))
    assert rep.lambda_o == pytest.approx(2.2768399153212333, rel=1e-12)
    assert rep.lambda_star == pytest.approx(10.633885835617138, rel=1e-12)
    assert rep.predicted_radius == pytest.approx(60.154342277827645, rel=1e-12)
    ref = matrix_cs_reference(1000, 8, 6, 2, 50, 0.1, 1.0, 1.0, 1.0, 1.0, 3.0)
    assert rep.lambda_star == pytest.approx(ref[1], rel=1e-12)
    assert rep.predicted_radius == pytest.approx(ref[2], rel=1e-12)


def test_completion_tuning_frozen_both_variants():
    frozen = {
        "heavy_tailed": (0.17167484378651141, 1.0942006853361483, 11.773099870998792),
        "subweibull": (0.098432473008538884, 0.81667981663150113, 9.2925113728812256),
    }
    for variant, (lo, ls, rad) in frozen.items():
        rep = tuning_completion(
            TheoremInputs(n=1000, o=50, dims=(16, 16), r=2, delta=0.1, sigma=1.0,
                          alpha=2.0, alpha_star=3.0),
            variant=variant,
        )
        assert rep.lambda_o == pytest.approx(lo, rel=1e-12)
        assert rep.lambda_star == pytest.approx(ls, rel=1e-12)
        assert rep.predicted_radius == pytest.approx(rad, rel=1e-12)
        ref = completion_reference(1000, 16, 16, 2, 50, 0.1, 1.0, 1.0, 2.0, 3.0, variant)
        assert rep.lambda_o == pytest.approx(ref[0], rel=1e-12)
        assert rep.lambda_star == pytest.approx(ref[1], rel=1e-12)
        assert rep.predicted_radius == pytest.approx(ref[2], rel=1e-12)


def test_lambda_o_level_is_72_sigma_over_sqrt_n():
    for sigma, L, n in [(1.0, 1.0, 1000), (0.1, 1.0, 400), (0.5, 1.1, 250)]:
        rep = tuning_lasso(TheoremInputs(n=n, o=0, d=50, s=5, sigma=sigma, L=L))
        assert rep.lambda_o * np.sqrt(n) == pytest.approx(72.0 * L**4 * sigma, rel=1e-12)


# -------------------------------------------------------------- o = 0 limits


def test_outlier_terms_vanish_at_zero():
    rep = tuning_lasso(TheoremInputs(n=1000, o=0, d=100, s=5, delta=0.1, sigma=1.0))
    assert rep.terms["outlier"] == 0.0
    rep_mc = tuning_completion(
        TheoremInputs(n=1000, o=0, dims=(16, 16), r=2, delta=0.1, sigma=1.0,
                      alpha=2.0, alpha_star=3.0),
        variant="heavy_tailed",
    )
    assert rep_mc.terms["outlier"] == 0.0
    assert rep_mc.terms["radius_outlier"] == 0.0
    assert rep_mc.feasibility["o_branch_active"] is False
    # with no outliers lambda_o comes from the dimension branch alone
    d_mc = 16.0
    expected = 2.0 * (1000 / (2 * d_mc * np.log(d_mc))) ** 0.5 / np.sqrt(1000)
    assert rep_mc.lambda_o == pytest.approx(expected, rel=1e-12)


def test_lasso_outlier_term_monotone_in_o():
    lams = [
        tuning_lasso(TheoremInputs(n=1000, o=o, d=100, s=5, delta=0.1, sigma=1.0)).lambda_star
        for o in [0, 10, 50, 100, 250, 500]
    ]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_completion_outlier_terms_monotone_in_fixed_lambda_o_regime():
    # o small enough that the dimension branch keeps lambda_o constant
    reps = [
        tuning_completion(
            TheoremInputs(n=1000, o=o, dims=(16, 16), r=2, delta=0.1, sigma=1.0,
                          alpha=2.0, alpha_star=3.0),
            variant="heavy_tailed",
        )
        for o in [0, 5, 10, 20, 26]
    ]
    assert len({r.terms["lambda_o_sqrt_n"] for r in reps}) == 1
    stars = [r.lambda_star for r in reps]
    radii = [r.predicted_radius for r in reps]
    assert all(b > a for a, b in zip(stars, stars[1:]))
    assert all(b > a for a, b in zip(radii, radii[1:]))


# ---------------------------------------------------------------- validation


def test_delta_windows():
    with pytest.raises(ProblemValidationError):
        tuning_lasso(TheoremInputs(n=100, d=10, s=2, delta=0.2))  # >= 1/7
    with pytest.raises(ProblemValidationError):
        tuning_matrix_cs(TheoremInputs(n=100, dims=(4, 4), r=1, delta=1.0 / 7.0))
    with pytest.raises(ProblemValidationError):
        tuning_completion(
            TheoremInputs(n=100, dims=(8, 8), r=1, delta=1.5, alpha=2.0, alpha_star=2.0)
        )
    # completion accepts the wider window
    tuning_completion(
        TheoremInputs(n=100, dims=(8, 8), r=1, delta=0.5, alpha=2.0, alpha_star=2.0)
    )


def test_completion_variant_constraints():
    base = dict(n=100, dims=(8, 8), r=1, delta=0.1, alpha_star=2.0)
    with pytest.raises(ProblemValidationError):
        tuning_completion(TheoremInputs(alpha=1.5, **base), variant="heavy_tailed")
    with pytest.raises(ProblemValidationError):
        tuning_completion(TheoremInputs(alpha=2.5, **base), variant="subweibull")
    with pytest.raises(ProblemValidationError):
        tuning_completion(TheoremInputs(alpha=2.0, **base), variant="bounded")
    with pytest.raises(ProblemValidationError):
        tuning_completion(TheoremInputs(alpha=2.0, alpha_star=0.5, n=100,
                                        dims=(8, 8), r=1, delta=0.1))


def test_theorem_inputs_validation():
    with pytest.raises(ProblemValidationError):
        TheoremInputs(n=0)
    with pytest.raises(ProblemValidationError):
        TheoremInputs(n=100, o=-2)
    with pytest.raises(ProblemValidationError):
        TheoremInputs(n=100, sigma=0.0)


@pytest.mark.parametrize("name, value", [
    ("alpha_star", np.inf), ("alpha", np.inf), ("alpha", np.nan), ("alpha_star", -np.inf),
    ("alpha", 0.0), ("alpha", -1.0),
])
def test_theorem_inputs_reject_nonfinite_or_nonpositive_alpha(name, value):
    """An infinite alpha* once gave a nan radius, an infinite alpha a nan
    radius, a nan alpha an error naming lambda_o, and alpha = 0 a
    ZeroDivisionError; each is now rejected by name."""
    with pytest.raises(ProblemValidationError, match=f"^{name} must be positive, got {value}$"):
        TheoremInputs(n=400, dims=(8, 6), r=2, **{"alpha": 2.0, "alpha_star": 2.0, name: value})


# -------------------------------------------------------- report formatting


def test_report_kv_text_shape():
    rep = tuning_lasso(TheoremInputs(n=1000, o=50, d=100, s=5, delta=0.1, sigma=1.0))
    text = rep.to_kv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "model = lasso"
    assert all(" = " in ln for ln in lines)


# --------------------------------------------------- restricted eigenvalues


def test_empirical_re_identity():
    assert empirical_re(np.eye(6), s=2, c0=3.0) == pytest.approx(1.0, abs=0.02)


def test_empirical_re_scaled_identity():
    assert empirical_re(2.0 * np.eye(5), s=2, c0=3.0) == pytest.approx(np.sqrt(2.0), abs=0.03)


def test_empirical_re_scale_equivariance():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    Sigma = A @ A.T + 0.5 * np.eye(5)
    v1 = empirical_re(Sigma, s=2, c0=3.0, grid=32)
    v2 = empirical_re(4.0 * Sigma, s=2, c0=3.0, grid=32)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-6)


def test_empirical_re_detects_degenerate_direction():
    # a sparse vector in the kernel drives the constant to zero
    Sigma = np.diag([1.0, 1.0, 0.0])
    assert empirical_re(Sigma, s=2, c0=3.0) < 1e-8


def _cone_brute_force(Sigma, s, c0, directions):
    """min |Sigma^(1/2) v|_2 / |v_J|_2 over |J| <= s, v_J / |v_J|_2 a row of
    ``directions(|J|)``, and |v_Jc|_1 <= c0 |v_J|_1, with the off-support block
    found exactly by enumerating the faces of the l1 ball. On each face (a sign
    on some coordinates, zero on the rest, the l1 norm at the radius; or the
    interior) the quadratic's minimizer over the face's affine hull is solved
    in closed form and kept if it lies in the face. The minimizer over the
    ball lies in the relative interior of some face, where it is that face's
    solution, so the smallest kept value is the exact minimum."""
    d = Sigma.shape[0]
    best = np.inf
    for k in range(1, s + 1):
        U = directions(k)
        R = c0 * np.abs(U).sum(axis=1)
        for J in itertools.combinations(range(d), k):
            C = [i for i in range(d) if i not in J]
            S_cc = Sigma[np.ix_(C, C)]
            b = U @ Sigma[np.ix_(J, C)]  # q(w) = u S_JJ u + 2 b.w + w S_cc w
            q_u = np.einsum("ij,jk,ik->i", U, Sigma[np.ix_(J, J)], U)
            candidates = [np.linalg.solve(S_cc, -b.T).T]  # the interior
            for sign in itertools.product((-1.0, 0.0, 1.0), repeat=len(C)):
                P = np.flatnonzero(sign)
                if P.size == 0:
                    continue
                sg = np.array(sign)[P]
                K = np.block([[S_cc[np.ix_(P, P)], sg[:, None]], [sg[None, :], np.zeros((1, 1))]])
                sol = np.linalg.solve(K, np.column_stack([-b[:, P], R]).T).T[:, :-1]
                w = np.zeros_like(b)
                w[:, P] = sol
                w[(sol * sg < -1e-12).any(axis=1)] = np.nan  # off its face
                candidates.append(w)
            for w in candidates:
                q = q_u + 2 * np.einsum("ij,ij->i", b, w) + np.einsum("ij,jk,ik->i", w, S_cc, w)
                feasible = np.abs(w).sum(axis=1) <= R * (1 + 1e-9)
                if feasible.any():
                    best = min(best, float(np.sqrt(max(q[feasible].min(), 0.0))))
    return best


def _fine_directions(k):
    """Unit directions up to sign: 720 angles in R^2, a 61 x 61 polar grid in R^3."""
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        a = np.pi * np.arange(720) / 720
        return np.column_stack([np.cos(a), np.sin(a)])
    th, ph = (g.ravel() for g in np.meshgrid(np.linspace(0, np.pi, 61), np.linspace(0, np.pi, 61)))
    return np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


@pytest.mark.parametrize("Sigma, s, grid, fine_rel", [
    # equicorrelated, rho = 0.9: the off-support minimizer leaves the cone for
    # most directions; the minimum sqrt(0.1) sits where the cone is slack
    (0.1 * np.eye(6) + 0.9, 2, 64, 1e-12),
    # negatively equicorrelated: the smallest eigenvector is dense, so the
    # cone decides the value, far above sqrt(lambda_min) = sqrt(0.1)
    (np.eye(5) - 0.18, 3, 12, 0.01),
])
def test_empirical_re_where_the_cone_binds_matches_brute_force(monkeypatch, Sigma, s, grid,
                                                               fine_rel):
    """The projected-gradient branch returns the exact cone-constrained minimum
    on its own direction grid, and the s = 3 golden-spiral grid comes within
    ``fine_rel`` of a finer, independent polar grid."""
    projections = []
    project = diagnostics._project_l1_rows
    monkeypatch.setattr(diagnostics, "_project_l1_rows",
                        lambda W, R: projections.append(1) or project(W, R))
    value = empirical_re(Sigma, s=s, c0=0.3, grid=grid)
    assert len(projections) > diagnostics.RE_PG_ITERS  # the loop ran
    exact = _cone_brute_force(Sigma, s, 0.3, lambda k: diagnostics._sphere_grid(k, grid))
    assert value == pytest.approx(exact, rel=1e-9)
    fine = _cone_brute_force(Sigma, s, 0.3, _fine_directions)
    assert fine * (1 - 1e-9) <= value <= fine * (1 + fine_rel)


def test_empirical_re_stops_its_projected_gradient_at_a_fixed_point(monkeypatch):
    """An iterate equal to the one before it is a fixed point of the
    deterministic step, so the loop stops there: the value is the full
    loop's float, from 9 projections instead of the full loop's 1503."""
    projections = []
    project = diagnostics._project_l1_rows
    monkeypatch.setattr(diagnostics, "_project_l1_rows",
                        lambda W, R: projections.append(1) or project(W, R))
    assert empirical_re(0.1 * np.eye(3) + 0.9, s=1, c0=0.5, grid=4) == 0.5809475019311126
    assert 1 < len(projections) < 1503


def test_sigma_must_be_symmetric_psd():
    with pytest.raises(ProblemValidationError, match="Sigma must be positive semidefinite"):
        empirical_re(np.array([[1.0, 2.0], [2.0, 1.0]]), s=1, c0=3.0)
    with pytest.raises(ProblemValidationError, match="Sigma must be symmetric"):
        empirical_mre(np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1), 1, c0=3.0)


def test_empirical_re_desk_scale_guard():
    with pytest.raises(ProblemValidationError):
        empirical_re(np.eye(13), s=2, c0=3.0)
    with pytest.raises(ProblemValidationError):
        empirical_re(np.eye(6), s=4, c0=3.0)
    with pytest.raises(ProblemValidationError, match="grid must be >= 1, got 0"):
        empirical_re(np.eye(3), s=2, c0=3.0, grid=0)
    for c0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ProblemValidationError, match="c0 must be positive"):
            empirical_re(np.eye(3), s=1, c0=c0)


def test_empirical_mre_identity_hits_one():
    v = empirical_mre(None, (3, 3), r=1, c0=3.0, n_probes=4000, seed=0)
    assert 1.0 - 1e-9 <= v <= 1.0 + 1e-12


def test_empirical_mre_seed_stability():
    a = empirical_mre(None, (4, 3), r=1, c0=3.0, n_probes=8000, seed=1)
    b = empirical_mre(None, (4, 3), r=1, c0=3.0, n_probes=8000, seed=2)
    assert abs(a - b) <= 0.1 * max(a, b)


def test_empirical_mre_scales_with_sigma():
    ident = empirical_mre(None, (3, 3), r=1, c0=3.0, n_probes=4000, seed=3)
    scaled = empirical_mre(4.0 * np.eye(9), (3, 3), r=1, c0=3.0, n_probes=4000, seed=3)
    assert scaled == pytest.approx(2.0 * ident, rel=1e-9)


def test_empirical_mre_guards():
    with pytest.raises(ProblemValidationError):
        empirical_mre(None, (5, 3), r=1, c0=3.0)
    with pytest.raises(ProblemValidationError):
        empirical_mre(None, (4, 4), r=3, c0=3.0)
    for c0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ProblemValidationError, match="c0 must be positive"):
            empirical_mre(None, (3, 3), r=1, c0=c0)


# --------------------------------------------------------------- error stats


def test_error_metrics_vector():
    truth = np.array([1.0, 0.0, -2.0, 0.0])
    est = np.array([1.1, 0.0, -1.9, 0.3])
    m = error_metrics(est, truth)
    assert m["error"] == pytest.approx(np.sqrt(0.01 + 0.01 + 0.09), rel=1e-12)
    assert m["rel_error"] == pytest.approx(m["error"] / np.sqrt(5.0), rel=1e-12)
    assert m["support_exact"] is False
    exact = error_metrics(truth, truth)
    assert exact["error"] == 0.0
    assert exact["support_exact"] is True


def test_error_metrics_matrix_rank():
    truth = np.diag([3.0, 2.0, 0.0, 0.0])
    est = truth + 1e-12 * np.ones((4, 4))
    m = error_metrics(est, truth)
    assert m["rank_exact"] is True
    assert error_metrics(np.diag([3.0, 2.0, 1.0, 0.0]), truth)["rank_exact"] is False


def test_error_metrics_shape_mismatch():
    with pytest.raises(ProblemValidationError):
        error_metrics(np.zeros(3), np.zeros(4))
