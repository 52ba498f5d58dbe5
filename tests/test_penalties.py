import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from huberreg import (
    HuberScale,
    InfeasibleError,
    MaskCovariates,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    TuningParams,
    grad_smooth_lasso,
    grad_smooth_trace,
    huber_deriv,
    huber_value,
    nuclear_norm,
    objective_lasso,
    objective_trace,
    project_inf_ball,
    singular_value_threshold,
    soft_threshold,
)


# ------------------------------------------------------------- huber branch


def test_huber_hand_values():
    assert huber_value(0.0) == 0.0
    assert huber_value(0.1) == pytest.approx(0.005, rel=1e-12)
    assert huber_value(1.0) == 0.5
    assert huber_value(2.0) == 1.5
    assert huber_value(-3.0) == 2.5


def test_huber_deriv_hand_values():
    assert huber_deriv(0.0) == 0.0
    assert huber_deriv(0.5) == 0.5
    assert huber_deriv(2.0) == 1.0
    assert huber_deriv(-5.0) == -1.0


def test_huber_branch_boundary_continuous():
    # both value branches and both derivative branches meet at |t| = 1
    eps = 1e-9
    assert abs(huber_value(1.0 - eps) - huber_value(1.0 + eps)) < 3e-9
    assert abs(huber_deriv(1.0 - eps) - huber_deriv(1.0 + eps)) < 3e-9
    assert huber_value(1.0) == 0.5 == 1.0 - 0.5


def test_huber_deriv_matches_finite_differences():
    rng = np.random.default_rng(0)
    t = rng.uniform(-4.0, 4.0, 400)
    t = t[np.abs(np.abs(t) - 1.0) > 1e-3]  # keep away from the kink in h'
    h = 1e-6
    fd = (huber_value(t + h) - huber_value(t - h)) / (2 * h)
    np.testing.assert_allclose(huber_deriv(t), fd, atol=1e-9)


def test_huber_global_properties_bulk():
    rng = np.random.default_rng(1)
    a = rng.uniform(-50, 50, 100_000)
    b = rng.uniform(-50, 50, 100_000)
    va, vb = huber_value(a), huber_value(b)
    da = huber_deriv(a)
    assert np.all(va >= 0)
    assert np.all(va <= 0.5 * a * a + 1e-15)
    assert np.all(va <= np.abs(a))
    assert np.all(np.abs(da) <= 1.0)
    # value is 1-Lipschitz, derivative is 1-Lipschitz
    assert np.all(np.abs(va - vb) <= np.abs(a - b) + 1e-12)
    assert np.all(np.abs(da - huber_deriv(b)) <= np.abs(a - b) + 1e-12)


def test_huber_rejects_nonfinite():
    with pytest.raises(ProblemValidationError):
        huber_value(np.inf)
    with pytest.raises(ProblemValidationError):
        huber_deriv(np.array([0.0, np.nan]))


def test_huber_scale_from_tuning():
    tp = TuningParams(0.5, 1.0)
    assert HuberScale.from_tuning(tp, 64).scale == pytest.approx(4.0)


# -------------------------------------------------------------------- proxes


def test_soft_threshold_hand_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0
    assert soft_threshold(np.array([0.7]), 1.0)[0] == 0.0  # exact zero inside


def test_soft_threshold_matches_bruteforce_prox():
    """1e3 random scalars against a dense grid minimizer of
    0.5 (x - v)^2 + tau |x|."""
    rng = np.random.default_rng(2)
    grid = np.linspace(-12.0, 12.0, 48_001)  # spacing 5e-4
    for _ in range(1000):
        v = float(rng.uniform(-8, 8))
        tau = float(rng.uniform(0.01, 4.0))
        vals = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
        best = grid[np.argmin(vals)]
        assert abs(float(soft_threshold(np.array([v]), tau)[0]) - best) < 1e-3


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 30))
    b = rng.standard_normal((200, 30))
    for tau in [0.1, 1.0, 7.3]:
        da = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau), axis=1)
        db = np.linalg.norm(a - b, axis=1)
        assert np.all(da <= db + 1e-12)


def _soft_threshold_reference(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 2.5])
def test_soft_threshold_bytes_match_reference(tau):
    """Same bytes as sign(v) max(|v| - tau, 0), so signed zeros count:
    -0.0 input, ties |v| == tau, tau == 0, and 2-d input."""
    rng = np.random.default_rng(14)
    edges = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 2.5, -2.5, 1e300, -1e-300])
    v = np.concatenate([edges, rng.standard_normal(30) * 2]).reshape(5, 8)
    for arr in (v, v.T, v[:, 0]):
        out = soft_threshold(arr, tau)
        assert out.shape == arr.shape
        assert out.tobytes() == _soft_threshold_reference(arr, tau).tobytes()
    assert np.signbit(soft_threshold(np.array([-0.0, -0.5]), 1.0)).tolist() == [False, True]


def test_soft_threshold_scalar_returns_float_and_rejects_nonfinite():
    for v, tau in [(-0.0, 0.0), (-3.0, 1.0), (1.0, 1.0), (np.float64(0.2), 1.0)]:
        out = soft_threshold(v, tau)
        assert type(out) is float
        assert np.array(out).tobytes() == np.array(_soft_threshold_reference(v, tau)).tobytes()
    for bad in (np.nan, np.inf, np.array([1.0, -np.inf]), np.array([[0.0], [np.nan]])):
        with pytest.raises(ProblemValidationError):
            soft_threshold(bad, 1.0)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_tau = st.floats(0.0, 50.0, allow_nan=False)
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@_PROPERTY
@given(v=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=8), elements=_finite),
       tau=_tau)
def test_soft_threshold_moreau_decomposition(v, tau):
    """v = prox_{tau |.|_1}(v) + projection of v onto the l_inf ball of radius tau."""
    gap = np.abs(v - soft_threshold(v, tau) - np.clip(v, -tau, tau))
    assert np.all(gap <= 1e-12 * (1 + np.abs(v)))


@_PROPERTY
@given(M=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_finite),
       tau=_tau)
def test_svt_moreau_decomposition(M, tau):
    """M - SVT(M, tau) lies in the spectral-norm ball of radius tau (the dual
    of the nuclear norm) and is aligned with SVT(M, tau):
    <SVT, M - SVT> = tau |SVT|_*."""
    Z = singular_value_threshold(M, tau)
    R = M - Z
    slack = 1e-12 * max(1.0, np.linalg.norm(M, 2))
    assert np.linalg.norm(R, 2) <= tau * (1 + 1e-12) + slack
    assert float(np.vdot(Z, R)) == pytest.approx(
        tau * nuclear_norm(Z), rel=1e-9, abs=1e-9 * max(1.0, np.linalg.norm(M) ** 2)
    )


def test_svt_beats_random_probes():
    """prox optimality: F(Z) = 0.5 |Z - M|_F^2 + tau |Z|_* is minimized by
    the SVT output, so random perturbations can never do better."""
    rng = np.random.default_rng(4)
    F = lambda Z, M, tau: 0.5 * np.sum((Z - M) ** 2) + tau * nuclear_norm(Z)
    for trial in range(20):
        M = rng.standard_normal((5, 4)) * rng.uniform(0.5, 3.0)
        tau = float(rng.uniform(0.05, 2.5))
        Z = singular_value_threshold(M, tau)
        base = F(Z, M, tau)
        for _ in range(50):
            scale = 10 ** rng.uniform(-2, 0)
            probe = Z + scale * rng.standard_normal((5, 4))
            assert F(probe, M, tau) >= base - 1e-12


def test_svt_rotation_equivariance():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 5))
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    left = singular_value_threshold(U @ M @ V.T, 0.7)
    right = U @ singular_value_threshold(M, 0.7) @ V.T
    np.testing.assert_allclose(left, right, atol=1e-8)


def test_svt_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(50):
        A = rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5))
        dA = np.linalg.norm(
            singular_value_threshold(A, 0.9) - singular_value_threshold(B, 0.9)
        )
        assert dA <= np.linalg.norm(A - B) + 1e-12


def test_svt_kills_small_matrices():
    rng = np.random.default_rng(7)
    M = 0.01 * rng.standard_normal((4, 4))
    assert np.all(singular_value_threshold(M, 1.0) == 0.0)


def test_nuclear_norm_matches_svdvals():
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.standard_normal((6, 4))
        assert nuclear_norm(M) == pytest.approx(
            float(np.linalg.svd(M, compute_uv=False).sum()), rel=1e-12
        )


def test_project_inf_ball_clips():
    M = np.array([[2.0, -0.3], [0.1, -5.0]])
    P = project_inf_ball(M, 0.5)
    np.testing.assert_allclose(P, [[0.5, -0.3], [0.1, -0.5]])
    with pytest.raises(ProblemValidationError):
        project_inf_ball(M, -1.0)


def test_prox_input_validation():
    with pytest.raises(ProblemValidationError):
        soft_threshold(np.array([1.0]), -0.5)
    with pytest.raises(ProblemValidationError):
        singular_value_threshold(np.array([1.0, 2.0]), 0.5)


# --------------------------------------------------------------- objectives


def test_objective_lasso_hand_computed():
    # n = 1, X = [[1]], y = [2], beta = [1]: residual 1, u = 1 / (1 * 1) = 1
    # data term = lambda_o^2 H(1) = 0.5, penalty = 0.5 * |1| = 0.5
    p = RegressionProblem(y=np.array([2.0]), X=np.array([[1.0]]))
    tp = TuningParams(1.0, 0.5)
    assert objective_lasso(p, np.array([1.0]), tp) == pytest.approx(1.0, rel=1e-14)


def test_objective_lasso_quadratic_regime_matches_least_squares():
    # huge lambda_o keeps every residual in the quadratic branch, so the
    # data term must equal |r|^2 / (2n) exactly
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    beta = rng.standard_normal(4)
    tp = TuningParams(1e8, 1.0)
    r = y - X @ beta
    expected = float(r @ r) / 24.0 + float(np.abs(beta).sum())
    assert objective_lasso(p := RegressionProblem(y=y, X=X), beta, tp) == pytest.approx(
        expected, rel=1e-12
    )


def _central_diff(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for j in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[j] += h
        xm[j] -= h
        flat[j] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


def test_grad_smooth_lasso_matches_fd():
    rng = np.random.default_rng(10)
    for trial in range(6):
        n, d = int(rng.integers(5, 30)), int(rng.integers(2, 10))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n) * 3
        p = RegressionProblem(y=y, X=X)
        tp = TuningParams(float(rng.uniform(0.3, 2.0)), 1.0)
        beta = rng.standard_normal(d)
        smooth = lambda b: objective_lasso(p, b, tp) - tp.lambda_star * np.abs(b).sum()
        fd = _central_diff(smooth, beta)
        np.testing.assert_allclose(grad_smooth_lasso(p, beta, tp), fd, atol=2e-6)


def test_grad_smooth_trace_matches_fd_dense_and_mask():
    rng = np.random.default_rng(11)
    dense = TraceProblem(
        y=rng.standard_normal(10) * 2,
        covariates=rng.standard_normal((10, 3, 3)),
        dims=(3, 3),
    )
    mask = TraceProblem(
        y=rng.standard_normal(14) * 2,
        covariates=MaskCovariates(
            rows=rng.integers(0, 3, 14),
            cols=rng.integers(0, 3, 14),
            signs=rng.choice([-1, 1], 14),
        ),
        dims=(3, 3),
    )
    for problem in [dense, mask]:
        tp = TuningParams(0.8, 1.0)
        B = rng.standard_normal((3, 3))
        smooth = lambda M: objective_trace(problem, M, tp) - tp.lambda_star * nuclear_norm(M)
        fd = _central_diff(smooth, B)
        np.testing.assert_allclose(grad_smooth_trace(problem, B, tp), fd, atol=2e-6)


def test_objective_trace_constrained_feasibility():
    rng = np.random.default_rng(12)
    problem = TraceProblem(
        y=rng.standard_normal(5),
        covariates=rng.standard_normal((5, 2, 2)),
        dims=(2, 2),
    )
    tp = TuningParams(1.0, 1.0, inf_ball_radius=0.1)
    B_ok = np.full((2, 2), 0.05)
    objective_trace(problem, B_ok, tp, constrained=True)
    with pytest.raises(InfeasibleError):
        objective_trace(problem, np.full((2, 2), 0.2), tp, constrained=True)


def test_objective_trace_constrained_needs_radius():
    rng = np.random.default_rng(13)
    problem = TraceProblem(
        y=rng.standard_normal(5),
        covariates=rng.standard_normal((5, 2, 2)),
        dims=(2, 2),
    )
    tp = TuningParams(1.0, 1.0)
    with pytest.raises(ProblemValidationError):
        objective_trace(problem, np.zeros((2, 2)), tp, constrained=True)
