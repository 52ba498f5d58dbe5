import tracemalloc

import numpy as np
import pytest

from huberreg import (
    ContaminationSpec,
    NoiseSpec,
    ProblemValidationError,
    child_rng,
    gen_low_rank,
    gen_problem,
    gen_sparse_beta,
    spikiness,
)


# ------------------------------------------------------------ reproducibility


def test_gen_problem_bit_identical():
    beta = gen_sparse_beta(20, 3, seed=1)
    cont = ContaminationSpec(o=4, strategy="random_large", magnitude=6.0, seed=99)
    a = gen_problem("gaussian", NoiseSpec(sigma=0.3), beta, 50, cont)
    b = gen_problem("gaussian", NoiseSpec(sigma=0.3), beta, 50, cont)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.theta_true, b.theta_true)


def test_adversary_change_keeps_covariates_and_noise():
    """streams are split per role, so switching the adversary strategy must
    leave the design and the noise untouched; paired comparisons depend on
    this coupling."""
    beta = gen_sparse_beta(10, 2, seed=2)
    base = dict(o=5, magnitude=4.0, seed=7)
    pa = gen_problem("gaussian", NoiseSpec(sigma=0.2), beta, 40,
                     ContaminationSpec(strategy="random_large", **base))
    pb = gen_problem("gaussian", NoiseSpec(sigma=0.2), beta, 40,
                     ContaminationSpec(strategy="adaptive_residual", **base))
    np.testing.assert_array_equal(pa.X, pb.X)
    clean_a = pa.y - np.sqrt(40) * pa.theta_true
    clean_b = pb.y - np.sqrt(40) * pb.theta_true
    np.testing.assert_allclose(clean_a, clean_b, atol=1e-12)


def test_child_rng_streams_distinct_and_stable():
    a1 = child_rng(5, 0).standard_normal(4)
    a2 = child_rng(5, 0).standard_normal(4)
    b = child_rng(5, 1).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


def test_seed_changes_everything():
    beta = gen_sparse_beta(10, 2, seed=2)
    pa = gen_problem("gaussian", NoiseSpec(), beta, 30, ContaminationSpec(seed=1))
    pb = gen_problem("gaussian", NoiseSpec(), beta, 30, ContaminationSpec(seed=2))
    assert not np.allclose(pa.X, pb.X)
    assert not np.allclose(pa.y, pb.y)


# ----------------------------------------------------------------- truth gen


def test_gen_sparse_beta_support_and_values():
    beta = gen_sparse_beta(40, 6, magnitude=2.5, seed=3)
    nz = beta[beta != 0]
    assert nz.size == 6
    assert np.all(np.abs(nz) == 2.5)
    np.testing.assert_array_equal(beta, gen_sparse_beta(40, 6, magnitude=2.5, seed=3))


def test_gen_sparse_beta_validation():
    with pytest.raises(ProblemValidationError):
        gen_sparse_beta(5, 6)
    with pytest.raises(ProblemValidationError):
        gen_sparse_beta(5, 2, magnitude=0.0)


def test_gen_low_rank_normalized_and_capped():
    B = gen_low_rank(12, 9, 2, spikiness_cap=3.0, seed=4)
    assert float(np.linalg.norm(B)) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.matrix_rank(B) == 2
    assert spikiness(B) <= 3.0


def test_gen_low_rank_impossible_cap_raises():
    # spikiness 1 needs a perfectly flat matrix; a random low-rank draw
    # never achieves it, so the rejection loop must give up loudly
    with pytest.raises(ProblemValidationError):
        gen_low_rank(6, 6, 1, spikiness_cap=1.0)
    with pytest.raises(ProblemValidationError):
        gen_low_rank(6, 6, 1, spikiness_cap=0.5)
    with pytest.raises(ProblemValidationError):
        gen_low_rank(6, 6, 9)


def test_spikiness_values():
    assert spikiness(np.ones((7, 5))) == 1.0  # exactly flat
    d = 6
    e11 = np.zeros((d, d))
    e11[0, 0] = 3.7
    assert spikiness(e11) == pytest.approx(d, rel=1e-12)  # maximally spiky
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 8))
    assert spikiness(3.3 * M) == pytest.approx(spikiness(M), rel=1e-12)
    with pytest.raises(ProblemValidationError):
        spikiness(np.zeros((3, 3)))


# -------------------------------------------------------------------- noise


def test_noise_mean_absolute_values():
    n = 200_000
    rng = np.random.default_rng(6)
    g = NoiseSpec(kind="gaussian", sigma=0.5).sample(rng, n)
    assert float(np.mean(np.abs(g))) == pytest.approx(0.5 * np.sqrt(2 / np.pi), abs=4e-3)

    t = NoiseSpec(kind="student_t", sigma=0.5, alpha=3.0).sample(np.random.default_rng(7), n)
    # E|T_3| = 2 sqrt(3) / pi
    assert float(np.mean(np.abs(t))) == pytest.approx(0.5 * 2 * np.sqrt(3) / np.pi, abs=2e-2)

    w = NoiseSpec(kind="weibull_symmetric", sigma=0.5, alpha=1.0).sample(
        np.random.default_rng(8), n
    )
    # shape-1 Weibull magnitude is Exponential: E|xi| = sigma
    assert float(np.mean(np.abs(w))) == pytest.approx(0.5, abs=6e-3)
    assert abs(float(np.mean(np.sign(w)))) < 5e-3  # symmetric signs


def test_noise_validation():
    with pytest.raises(ProblemValidationError):
        NoiseSpec(kind="cauchy")
    with pytest.raises(ProblemValidationError):
        NoiseSpec(kind="student_t", alpha=2.0)
    with pytest.raises(ProblemValidationError):
        NoiseSpec(kind="weibull_symmetric", alpha=3.0)
    with pytest.raises(ProblemValidationError):
        NoiseSpec(kind="custom")
    with pytest.raises(ProblemValidationError):
        NoiseSpec(sigma=0.0)


# ---------------------------------------------------------------- adversaries


def test_contamination_validation():
    with pytest.raises(ProblemValidationError):
        ContaminationSpec(strategy="worst_case")
    with pytest.raises(ProblemValidationError):
        ContaminationSpec(o=3, strategy="none")
    with pytest.raises(ProblemValidationError):
        ContaminationSpec(o=-1, strategy="random_large")
    with pytest.raises(ProblemValidationError):
        ContaminationSpec(o=10, strategy="random_large").build_theta(
            np.random.default_rng(0), 5, np.zeros(5), np.zeros(5)
        )


@pytest.mark.parametrize("strategy", ["random_large", "adaptive_residual"])
def test_zero_magnitude_that_corrupts_nothing_is_rejected(strategy):
    """A zero magnitude would leave theta* zero while o > 0 is reported and
    tuned for; at o = 0 it corrupts nothing anyway, and sign_flip ignores it."""
    with pytest.raises(ProblemValidationError,
                       match=f"magnitude must be nonzero for strategy '{strategy}' when o > 0"):
        ContaminationSpec(o=5, strategy=strategy, magnitude=0.0)
    ContaminationSpec(o=0, strategy=strategy, magnitude=0.0)
    theta = ContaminationSpec(o=5, strategy="sign_flip", magnitude=0.0).build_theta(
        np.random.default_rng(0), 20, np.ones(20), np.zeros(20))
    assert np.count_nonzero(theta) == 5


def test_random_large_theta_shape():
    spec = ContaminationSpec(o=6, strategy="random_large", magnitude=3.0, seed=0)
    theta = spec.build_theta(np.random.default_rng(1), 50, np.zeros(50), np.zeros(50))
    nz = theta[theta != 0]
    assert nz.size == 6
    assert np.all(np.abs(nz) == 3.0)


def test_sign_flip_negates_clean_response():
    beta = gen_sparse_beta(8, 2, seed=9)
    n = 25
    cont = ContaminationSpec(o=n, strategy="sign_flip", seed=10)
    p = gen_problem("gaussian", NoiseSpec(sigma=0.3), beta, n, cont)
    clean = p.y - np.sqrt(n) * p.theta_true
    np.testing.assert_allclose(p.y, -clean, atol=1e-10)


def test_adaptive_residual_targets_largest_noise():
    rng = np.random.default_rng(11)
    noise = rng.standard_normal(40)
    spec = ContaminationSpec(o=5, strategy="adaptive_residual", magnitude=2.0)
    theta = spec.build_theta(np.random.default_rng(0), 40, np.zeros(40), noise)
    expect_idx = set(np.argsort(-np.abs(noise))[:5])
    assert set(np.nonzero(theta)[0]) == expect_idx
    for i in expect_idx:
        assert theta[i] == 2.0 * np.sign(noise[i])


def test_adaptive_residual_zero_noise_still_contaminates():
    spec = ContaminationSpec(o=3, strategy="adaptive_residual", magnitude=1.5)
    theta = spec.build_theta(np.random.default_rng(0), 10, np.zeros(10), np.zeros(10))
    assert np.count_nonzero(theta) == 3
    assert np.all(theta[theta != 0] == 1.5)


# ---------------------------------------------------------------- covariates


def test_mask_cell_frequencies_uniform():
    """each of the 16 cells carries probability 1/16; observed counts must
    sit within 3 standard errors, and signs must be balanced."""
    d1 = d2 = 4
    n = 100_000
    B = np.full((d1, d2), 0.25)
    p = gen_problem(
        "mask_uniform", NoiseSpec(sigma=0.1), B, n,
        ContaminationSpec(seed=3),
    )
    cells = p.covariates.rows * d2 + p.covariates.cols
    counts = np.bincount(cells, minlength=16)
    se = np.sqrt(n * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - n / 16) <= 3 * se)
    plus = int(np.sum(p.covariates.signs == 1))
    assert abs(plus - n / 2) <= 3 * np.sqrt(n * 0.25)


def test_unknown_design_name_raises():
    beta = np.zeros(4)
    beta[0] = 1.0
    with pytest.raises(ProblemValidationError, match="unknown design 'laplace'"):
        gen_problem("laplace", NoiseSpec(), beta, 10, ContaminationSpec(seed=0))


def test_mask_needs_matrix_truth():
    with pytest.raises(ProblemValidationError):
        gen_problem(
            "mask_uniform", NoiseSpec(), np.ones(5), 10,
            ContaminationSpec(seed=0),
        )


def test_meta_records_draw_facts():
    beta = gen_sparse_beta(10, 2, seed=13)
    cont = ContaminationSpec(o=3, strategy="random_large", magnitude=2.0, seed=77)
    p = gen_problem("gaussian", NoiseSpec(kind="gaussian", sigma=0.4), beta, 30, cont)
    assert p.meta["seed"] == 77
    assert p.meta["sigma"] == 0.4
    assert p.meta["o"] == 3
    assert p.meta["adversary"] == "random_large"
    assert p.meta["L"] == 1.0
    assert p.meta["rho"] == 1.0


def test_gen_problem_holds_one_copy_of_the_design():
    """the drawn X is handed to the container, not copied: the peak is X
    plus the isfinite temporary (1.13 X.nbytes), where a copy gave 2.14"""
    beta = gen_sparse_beta(500, 10, seed=0)
    args = ("gaussian", NoiseSpec(sigma=0.1), beta, 2000,
            ContaminationSpec(o=100, strategy="random_large", magnitude=10.0, seed=3))
    tracemalloc.start()
    try:
        p = gen_problem(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * p.X.nbytes


@pytest.mark.parametrize("design", ["gaussian"])
def test_vector_problem_is_the_dense_trace_problem_on_vec_truth(design):
    """A lasso draw with truth vec(B) and a dense trace draw with truth B, at
    one seed, hold the same bytes: X is the flattened trace covariates and y
    is the same vector. The lasso is the d2 = 1 case of one dense path."""
    B = gen_low_rank(4, 3, 2, seed=8)
    cont = ContaminationSpec(o=3, strategy="random_large", magnitude=5.0, seed=31)
    vec = gen_problem(design, NoiseSpec(sigma=0.2), B.reshape(-1), 25, cont)
    mat = gen_problem(design, NoiseSpec(sigma=0.2), B, 25, cont)
    assert vec.param_shape == (12,) and mat.param_shape == (4, 3)
    assert vec.X.tobytes() == mat.covariates.reshape(25, -1).tobytes()
    assert vec.y.tobytes() == mat.y.tobytes()
    assert vec.theta_true.tobytes() == mat.theta_true.tobytes()
    assert vec.meta == mat.meta
