import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from huberreg import (
    ContaminationSpec,
    DimensionMismatchError,
    MaskCovariates,
    NoiseSpec,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    TuningParams,
    design_adjoint,
    design_apply,
    gen_problem,
    read_meta,
    read_problem_bundle,
    write_problem_bundle,
)
from huberreg.problems import _Adopt


def make_regression(n=20, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return RegressionProblem(y=y, X=X)


def make_mask_problem(n=30, d1=4, d2=4, seed=1, theta=None):
    rng = np.random.default_rng(seed)
    cov = MaskCovariates(
        rows=rng.integers(0, d1, n),
        cols=rng.integers(0, d2, n),
        signs=rng.choice([-1, 1], n),
    )
    y = rng.standard_normal(n)
    return TraceProblem(y=y, covariates=cov, dims=(d1, d2), theta_true=theta)


# --------------------------------------------------------- apply and adjoint


def test_design_apply_mask_equals_row_by_row():
    # row i of a mask design is d_mc * sign_i * E_{k_i, l_i}; here d_mc = sqrt(2 * 3)
    cov = MaskCovariates(rows=[0, 1, 1, 0], cols=[2, 0, 2, 2], signs=[1, -1, 1, -1])
    problem = TraceProblem(y=np.zeros(4), covariates=cov, dims=(2, 3))
    B = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    d_mc = np.sqrt(6.0)
    want = [d_mc * 3.0, -d_mc * 4.0, d_mc * 6.0, -d_mc * 3.0]
    np.testing.assert_allclose(design_apply(problem, B), want, rtol=1e-15)


def test_design_apply_dense_row_is_trace_pairing():
    # <X_i, B> = tr(X_i^T B) = sum_kl X_i[k, l] B[k, l], written out for 2 x 2
    X0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    X1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    problem = TraceProblem(y=np.zeros(2), covariates=np.stack([X0, X1]), dims=(2, 2))
    B = np.array([[2.0, 1.0], [4.0, -1.0]])
    want = [1.0 * 2.0 + (-2.0) * 1.0 + 0.5 * 4.0 + 3.0 * (-1.0),  # = -1
            0.0 * 2.0 + 1.0 * 1.0 + (-1.0) * 4.0 + 0.0 * (-1.0)]  # = -3
    assert design_apply(problem, B).tolist() == want == [-1.0, -3.0]


def test_design_adjoint_is_true_adjoint():
    rng = np.random.default_rng(9)
    for problem in [
        make_mask_problem(n=40, seed=10),
        TraceProblem(
            y=rng.standard_normal(15),
            covariates=rng.standard_normal((15, 3, 5)),
            dims=(3, 5),
        ),
    ]:
        B = rng.standard_normal(problem.dims)
        w = rng.standard_normal(problem.n)
        lhs = float(np.dot(design_apply(problem, B), w))
        rhs = float(np.sum(design_adjoint(problem, w) * B))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_design_adjoint_mask_accumulates_duplicates():
    # two hits on the same cell must add, not overwrite
    cov = MaskCovariates(rows=[0, 0], cols=[1, 1], signs=[1, 1])
    problem = TraceProblem(y=np.zeros(2), covariates=cov, dims=(2, 2))
    out = design_adjoint(problem, np.array([1.0, 1.0]))
    assert out[0, 1] == pytest.approx(2 * 2.0)  # d_mc = 2, two unit weights
    assert out[0, 0] == 0.0


@pytest.mark.parametrize("n, d1, d2", [(37, 3, 5), (500, 7, 13), (2000, 20, 20), (1, 1, 1)])
def test_dense_trace_design_matches_tensordot_bytes(n, d1, d2):
    """The (n, d1 * d2) GEMV path gives exactly the bytes of the tensor
    contraction over the cell axes, for apply and adjoint, and a vector
    problem on the flattened covariates gives the same bytes again."""
    rng = np.random.default_rng(n)
    cov = rng.standard_normal((n, d1, d2))
    problem = TraceProblem(y=np.zeros(n), covariates=cov, dims=(d1, d2))
    B, w = rng.standard_normal((d1, d2)), rng.standard_normal(n)
    want_apply = np.tensordot(cov, B, axes=([1, 2], [0, 1]))
    assert design_apply(problem, B).tobytes() == want_apply.tobytes()
    assert design_adjoint(problem, w).tobytes() == np.tensordot(w, cov, axes=(0, 0)).tobytes()
    flat = RegressionProblem(y=np.zeros(n), X=cov.reshape(n, -1))
    assert design_apply(flat, B.reshape(-1)).tobytes() == want_apply.tobytes()
    assert design_adjoint(flat, w).tobytes() == design_adjoint(problem, w).tobytes()


_bounded = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _assert_adjoint_identity(problem, x, w, max_entry):
    """<A x, w> == <x, A^T w> for design_apply/design_adjoint, which the
    engine, the objectives and the power iteration all use; the adjoint
    returns the parameter's shape."""
    adj = design_adjoint(problem, w)
    assert adj.shape == problem.param_shape == x.shape
    lhs = float(np.dot(design_apply(problem, x), w))
    rhs = float(np.vdot(x, adj))
    # rounding bound: max |A_ij| |x|_1 |w|_1 times a generous multiple of eps
    bound = 1e-12 * (1.0 + max_entry * np.abs(x).sum() * np.abs(w).sum())
    assert abs(lhs - rhs) <= bound


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 6))
def test_adjoint_identity_property_dense_X(data, n, d):
    X = data.draw(arrays(np.float64, (n, d), elements=_bounded))
    problem = RegressionProblem(y=np.zeros(n), X=X)
    x = data.draw(arrays(np.float64, d, elements=_bounded))
    w = data.draw(arrays(np.float64, n, elements=_bounded))
    _assert_adjoint_identity(problem, x, w, float(np.abs(X).max()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_adjoint_identity_property_dense_trace(data, n, d1, d2):
    cov = data.draw(arrays(np.float64, (n, d1, d2), elements=_bounded))
    problem = TraceProblem(y=np.zeros(n), covariates=cov, dims=(d1, d2))
    B = data.draw(arrays(np.float64, (d1, d2), elements=_bounded))
    w = data.draw(arrays(np.float64, n, elements=_bounded))
    _assert_adjoint_identity(problem, B, w, float(np.abs(cov).max()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_adjoint_identity_property_mask(data, n, d1, d2):
    cov = MaskCovariates(
        rows=data.draw(arrays(np.int64, n, elements=st.integers(0, d1 - 1))),
        cols=data.draw(arrays(np.int64, n, elements=st.integers(0, d2 - 1))),
        signs=data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1]))),
    )
    problem = TraceProblem(y=np.zeros(n), covariates=cov, dims=(d1, d2))
    B = data.draw(arrays(np.float64, (d1, d2), elements=_bounded))
    w = data.draw(arrays(np.float64, n, elements=_bounded))
    _assert_adjoint_identity(problem, B, w, problem.d_mc)


# ------------------------------------------------------------------ validation


def test_tuning_params_reject_nonpositive():
    with pytest.raises(ProblemValidationError):
        TuningParams(0.0, 1.0)
    with pytest.raises(ProblemValidationError):
        TuningParams(1.0, -2.0)
    with pytest.raises(ProblemValidationError):
        TuningParams(1.0, 1.0, inf_ball_radius=0.0)
    tp = TuningParams(1.0, 1.0, inf_ball_radius=0.5)
    assert tp.inf_ball_radius == 0.5


def test_regression_problem_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        RegressionProblem(y=np.zeros(5), X=np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        RegressionProblem(y=np.zeros(4), X=np.zeros((4, 3)), beta_true=np.zeros(2))


def test_regression_problem_rejects_nonfinite():
    y = np.zeros(4)
    y_bad = y.copy()
    y_bad[0] = np.nan
    with pytest.raises(ProblemValidationError):
        RegressionProblem(y=y_bad, X=np.zeros((4, 2)))


def test_outlier_set_derived_from_theta():
    theta = np.zeros(10)
    theta[[2, 7]] = 1.5
    p = RegressionProblem(y=np.zeros(10), X=np.ones((10, 1)), theta_true=theta)
    assert p.outlier_index_set == frozenset({2, 7})


def test_mask_signs_validated():
    with pytest.raises(ProblemValidationError):
        MaskCovariates(rows=[0], cols=[0], signs=[2])


def test_mask_indices_range_checked():
    cov = MaskCovariates(rows=[5], cols=[0], signs=[1])
    with pytest.raises(ProblemValidationError):
        TraceProblem(y=np.zeros(1), covariates=cov, dims=(4, 4))


def _mask(rows, cols):
    return MaskCovariates(rows=rows, cols=cols, signs=[1] * len(rows))


@pytest.mark.parametrize("build, error, message", [
    (lambda: MaskCovariates(rows=[0, 1], cols=[0], signs=[1, 1]), DimensionMismatchError,
     "mask arrays must be equal-length vectors, got rows (2,), cols (1,), signs (2,)"),
    (lambda: RegressionProblem(y=np.zeros((3, 1)), X=np.zeros((3, 2))), DimensionMismatchError,
     "y must be 1-d and X 2-d, got y (3, 1), X (3, 2)"),
    (lambda: RegressionProblem(y=np.zeros(3), X=np.zeros(3)), DimensionMismatchError,
     "y must be 1-d and X 2-d, got y (3,), X (3,)"),
    (lambda: TraceProblem(y=np.zeros(2), covariates=_mask([0, 0], [0, 0]), dims=(0, 2)),
     ProblemValidationError, "dims must be positive, got (0, 2)"),
    (lambda: TraceProblem(y=np.zeros(2), covariates=_mask([0, 0], [0, 0]), dims=(2, -1)),
     ProblemValidationError, "dims must be positive, got (2, -1)"),
    (lambda: TraceProblem(y=np.zeros((2, 1)), covariates=_mask([0, 0], [0, 0]), dims=(2, 2)),
     DimensionMismatchError, "y must be 1-d, got shape (2, 1)"),
    (lambda: TraceProblem(y=np.zeros(3), covariates=_mask([0, 0], [0, 0]), dims=(2, 2)),
     DimensionMismatchError, "y has 3 entries but mask covariates have 2"),
    (lambda: TraceProblem(y=np.zeros(2), covariates=_mask([0, 1], [0, 2]), dims=(2, 2)),
     ProblemValidationError, "mask column indices out of range"),
    (lambda: TraceProblem(y=np.zeros(2), covariates=_mask([0, 1], [-1, 0]), dims=(2, 2)),
     ProblemValidationError, "mask column indices out of range"),
    (lambda: TraceProblem(y=np.zeros(3), covariates=np.zeros((3, 2, 3)), dims=(2, 2)),
     DimensionMismatchError, "covariates have shape (3, 2, 3), expected (3, 2, 2)"),
    (lambda: TraceProblem(y=np.zeros(3), covariates=np.zeros((2, 2, 2)), dims=(2, 2)),
     DimensionMismatchError, "covariates have shape (2, 2, 2), expected (3, 2, 2)"),
])
def test_container_shape_checks_name_the_fault(build, error, message):
    with pytest.raises(ProblemValidationError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_dense_covariates_capped():
    big = np.zeros((1, 1001, 1001))
    with pytest.raises(ProblemValidationError):
        TraceProblem(y=np.zeros(1), covariates=big, dims=(1001, 1001))


def _problem_arrays(p):
    """Every array a problem holds, by field name."""
    fields = ["y", "theta_true"]
    if isinstance(p, RegressionProblem):
        fields += ["X", "beta_true"]
    else:
        fields += ["B_true"] + ([] if p.is_mask else ["covariates"])
    out = {f: getattr(p, f) for f in fields if getattr(p, f) is not None}
    if isinstance(p, TraceProblem) and p.is_mask:
        out.update((f, getattr(p.covariates, f)) for f in ("rows", "cols", "signs"))
    return out


def test_arrays_are_immutable(tmp_path):
    p = make_regression()
    with pytest.raises(ValueError):
        p.y[0] = 1.0
    with pytest.raises(ValueError):
        p.X[0, 0] = 1.0
    pm = make_mask_problem()
    with pytest.raises(ValueError):
        pm.covariates.rows[0] = 0

    # producers hand their own arrays over without a copy; those must be
    # locked too, and so must any array they are a view of
    noise = NoiseSpec(sigma=0.1)
    cont = ContaminationSpec(o=3, strategy="random_large", magnitude=5.0, seed=21)
    B = np.outer([1.0, -0.5, 0.25], [0.5, 1.0, 0.0, -1.0])
    generated = [
        gen_problem("gaussian", noise, np.array([1.0, 0.0, -2.0]), 30, cont),
        gen_problem("gaussian", noise, B, 30, cont),
        gen_problem("mask_uniform", noise, B, 30, cont),
    ]
    parsed = []
    for i, prob in enumerate(generated):
        write_problem_bundle(prob, str(tmp_path / str(i)))
        parsed.append(read_problem_bundle(str(tmp_path / str(i))))
    for prob in generated + parsed:
        arrays_held = _problem_arrays(prob)
        assert {"y", "theta_true"} <= arrays_held.keys()
        for name, arr in arrays_held.items():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
            base = arr.base
            while isinstance(base, np.ndarray):
                assert not base.flags.writeable, name
                base = base.base


def test_constructors_copy_caller_arrays():
    """public constructors never adopt a caller's array, even a float64 or
    int64 one that could be kept as it is"""
    rng = np.random.default_rng(30)
    theta = np.zeros(6)
    theta[2] = 1.5
    given_reg = {"y": rng.standard_normal(6), "X": rng.standard_normal((6, 3)),
                 "beta_true": rng.standard_normal(3), "theta_true": theta}
    given_trace = {"y": rng.standard_normal(6), "covariates": rng.standard_normal((6, 2, 3)),
                   "B_true": rng.standard_normal((2, 3)), "theta_true": theta.copy()}
    given_mask = {"rows": np.array([0, 1, 1], dtype=np.int64),
                  "cols": np.array([2, 0, 1], dtype=np.int64),
                  "signs": np.array([1, -1, 1], dtype=np.int64)}
    cases = [
        (RegressionProblem(**given_reg), given_reg),
        (TraceProblem(dims=(2, 3), **given_trace), given_trace),
        (MaskCovariates(**given_mask), given_mask),
    ]
    for held, given_arrays in cases:
        for name, caller in given_arrays.items():
            kept = getattr(held, name)
            assert not np.shares_memory(kept, caller), name
            before = kept.copy()
            caller[(0,) * caller.ndim] += 7
            np.testing.assert_array_equal(kept, before, err_msg=name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adopted_arrays_still_checked_finite(bad):
    y = np.zeros(4)
    y[1] = bad
    with pytest.raises(ProblemValidationError, match="y contains non-finite"):
        RegressionProblem(y=_Adopt(y), X=_Adopt(np.ones((4, 2))))
    X = np.ones((4, 2))
    X[3, 0] = bad
    with pytest.raises(ProblemValidationError, match="X contains non-finite"):
        RegressionProblem(y=_Adopt(np.zeros(4)), X=_Adopt(X))
    cov = np.ones((4, 2, 2))
    cov[0, 1, 1] = bad
    with pytest.raises(ProblemValidationError, match="covariates contains non-finite"):
        TraceProblem(y=_Adopt(np.zeros(4)), covariates=_Adopt(cov), dims=(2, 2))


def _traced_peak(fn):
    """``(fn(), peak)``: what fn returns, and the most memory traced while it
    ran, counting what was traced before it as well."""
    tracemalloc.reset_peak()
    out = fn()
    return out, tracemalloc.get_traced_memory()[1]


def test_adopting_a_dense_design_makes_no_full_size_temporary():
    """Adopting a 2000 x 500 design allocates under a tenth of X beyond X:
    no n x p boolean mask. A non-finite entry in the first, a middle or the
    last row is still rejected with the same message, and an empty design
    is accepted."""
    X = np.ones((2000, 500))
    tracemalloc.start()
    try:
        _, peak = _traced_peak(lambda: RegressionProblem(y=_Adopt(np.zeros(2000)), X=_Adopt(X)))
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * X.nbytes
    for row in (0, 1000, 1999):
        for bad in (np.nan, np.inf, -np.inf):
            X.flags.writeable = True
            X[row, 250] = bad
            with pytest.raises(ProblemValidationError, match="^X contains non-finite entries$"):
                RegressionProblem(y=_Adopt(np.zeros(2000)), X=_Adopt(X))
            X.flags.writeable = True
            X[row, 250] = 1.0
    assert RegressionProblem(y=np.zeros(0), X=np.zeros((0, 5))).n == 0


# --------------------------------------------------------------- bundle I/O


def test_bundle_io_holds_one_copy_of_a_dense_design(tmp_path):
    """With the 2000 x 500 design alive, writing its bundle peaks under
    1.25 X: no list of all its floats. Reading it back peaks under 1.25 X
    and the problem it returns holds under 1.1 X: the file is parsed into
    one growing buffer, which the problem adopts (1.07 X and 1.05 X
    measured; stacking per-row arrays peaked at 2.04 X)."""
    tracemalloc.start()
    try:
        X = np.random.default_rng(7).standard_normal((2000, 500))
        p = RegressionProblem(y=_Adopt(np.zeros(2000)), X=_Adopt(X))
        nbytes = X.nbytes
        _, write_peak = _traced_peak(lambda: write_problem_bundle(p, str(tmp_path)))
        del p, X
        before = tracemalloc.get_traced_memory()[0]
        q, read_peak = _traced_peak(lambda: read_problem_bundle(str(tmp_path)))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert write_peak <= 1.25 * nbytes
    assert read_peak <= 1.25 * nbytes
    assert held <= 1.1 * nbytes
    assert q.X.tobytes() == np.random.default_rng(7).standard_normal((2000, 500)).tobytes()


def test_reading_a_large_completion_bundle_makes_no_row_lists(tmp_path):
    """Reading a 50,000-row masks.csv peaks under 4.5 times the bytes of the
    rows, cols and signs it returns (4.09 measured): the rows are parsed into
    one buffer of doubles, not kept as a list of Python floats each (14.6)."""
    n = 50_000
    rng = np.random.default_rng(3)
    cov = MaskCovariates(rows=rng.integers(0, 40, n), cols=rng.integers(0, 40, n),
                         signs=rng.choice([-1, 1], n))
    write_problem_bundle(TraceProblem(y=rng.standard_normal(n), covariates=cov, dims=(40, 40)),
                         str(tmp_path))
    tracemalloc.start()
    try:
        q, read_peak = _traced_peak(lambda: read_problem_bundle(str(tmp_path)))
    finally:
        tracemalloc.stop()
    assert read_peak <= 4.5 * 3 * cov.rows.nbytes
    for got, want in ((q.covariates.rows, cov.rows), (q.covariates.cols, cov.cols),
                      (q.covariates.signs, cov.signs)):
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


def test_bundle_roundtrip_lasso(tmp_path):
    rng = np.random.default_rng(12)
    beta = np.array([1.0, 0.0, -0.5])
    theta = np.zeros(8)
    theta[1] = 2.0
    p = RegressionProblem(
        y=rng.standard_normal(8),
        X=rng.standard_normal((8, 3)),
        beta_true=beta,
        theta_true=theta,
        meta={"seed": 12, "sigma": 0.25},
    )
    out = tmp_path / "b"
    write_problem_bundle(p, str(out))
    q = read_problem_bundle(str(out))
    np.testing.assert_array_equal(q.y, p.y)
    np.testing.assert_array_equal(q.X, p.X)
    np.testing.assert_array_equal(q.beta_true, beta)
    np.testing.assert_array_equal(q.theta_true, theta)
    assert q.outlier_index_set == frozenset({1})
    assert q.meta["sigma"] == 0.25
    assert q.meta["kind"] == "lasso"


def test_bundle_roundtrip_mask(tmp_path):
    p = make_mask_problem(n=20, seed=13)
    out = tmp_path / "b"
    write_problem_bundle(p, str(out))
    q = read_problem_bundle(str(out))
    assert q.is_mask
    np.testing.assert_array_equal(q.covariates.rows, p.covariates.rows)
    np.testing.assert_array_equal(q.covariates.cols, p.covariates.cols)
    np.testing.assert_array_equal(q.covariates.signs, p.covariates.signs)
    np.testing.assert_array_equal(q.y, p.y)
    assert (out / "masks.csv").read_text().splitlines()[0] == "i,k,l,sign"


def test_bundle_roundtrip_dense_trace(tmp_path):
    rng = np.random.default_rng(14)
    p = TraceProblem(
        y=rng.standard_normal(6),
        covariates=rng.standard_normal((6, 3, 4)),
        dims=(3, 4),
        B_true=rng.standard_normal((3, 4)),
    )
    out = tmp_path / "b"
    write_problem_bundle(p, str(out))
    q = read_problem_bundle(str(out))
    assert not q.is_mask
    np.testing.assert_array_equal(q.covariates, p.covariates)
    np.testing.assert_array_equal(q.B_true, p.B_true)
    assert read_meta(str(out))["kind"] == "trace_dense"


def test_bundle_bytes_deterministic(tmp_path):
    p = make_regression(seed=15)
    a, b = tmp_path / "a", tmp_path / "b"
    write_problem_bundle(p, str(a))
    write_problem_bundle(p, str(b))
    for name in ["y.csv", "X.csv", "meta.txt"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bundle_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_problem_bundle(str(tmp_path / "nope"))


@pytest.mark.parametrize("bad_line, message", [
    ("1,2", r"X\.csv, line 9: 2 values, but the first row has 3"),
    ("0.5,abc,1", r"X\.csv, line 9: could not convert string to float: 'abc'"),
], ids=["short_row", "non_numeric"])
def test_bundle_malformed_csv_names_file_and_line(tmp_path, bad_line, message):
    p = make_regression(n=8, d=3, seed=16)
    write_problem_bundle(p, str(tmp_path / "b"))
    with open(tmp_path / "b" / "X.csv", "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    with pytest.raises(ProblemValidationError, match=message):
        read_problem_bundle(str(tmp_path / "b"))


@pytest.mark.parametrize("row", ["0,2.7,1,-1", "0,1,1,0.5", "0.5,1,1,1"])
def test_bundle_masks_reject_non_integral_entries(tmp_path, row):
    p = make_mask_problem(n=5, seed=17)
    write_problem_bundle(p, str(tmp_path / "b"))
    path = tmp_path / "b" / "masks.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
    with pytest.raises(ProblemValidationError, match=r"masks\.csv, line 3: .*not an integer"):
        read_problem_bundle(str(tmp_path / "b"))


@pytest.mark.parametrize("edit, message", [
    # the header of a file whose columns are in that order: read without the
    # check, its rows and cols would be swapped
    (lambda rows: ["i,l,k,sign"] + [",".join(r.split(",")[j] for j in (0, 2, 1, 3))
                                    for r in rows[1:]],
     r"line 1: expected the header 'i,k,l,sign', got 'i,l,k,sign'"),
    (lambda rows: ["foo"] + rows[1:], r"line 1: expected the header 'i,k,l,sign', got 'foo'"),
    (lambda rows: rows[:1] + ["0" + r[r.index(","):] for r in rows[1:]],
     r"line 3: i = 0, but the i values must be a permutation of 0\.\.4"),
    (lambda rows: rows[:2] + ["7" + rows[2][1:]] + rows[3:],
     r"line 3: i = 7, but the i values must be a permutation of 0\.\.4"),
], ids=["swapped_columns", "foreign_header", "all_zero_i", "i_out_of_range"])
def test_bundle_masks_check_header_and_row_indices(tmp_path, edit, message):
    p = make_mask_problem(n=5, seed=17)
    write_problem_bundle(p, str(tmp_path / "b"))
    path = tmp_path / "b" / "masks.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ProblemValidationError, match=r"masks\.csv, " + message):
        read_problem_bundle(str(tmp_path / "b"))


def test_bundle_masks_rows_may_come_in_any_order_of_i(tmp_path):
    p = make_mask_problem(n=5, seed=17)
    write_problem_bundle(p, str(tmp_path / "b"))
    path = tmp_path / "b" / "masks.csv"
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:1] + rows[:0:-1]) + "\n")
    q = read_problem_bundle(str(tmp_path / "b"))
    np.testing.assert_array_equal(q.covariates.rows, p.covariates.rows)
    np.testing.assert_array_equal(q.covariates.cols, p.covariates.cols)
    np.testing.assert_array_equal(q.covariates.signs, p.covariates.signs)


# Finite float64 values the 17-digit text format must carry exactly: signed
# zeros, subnormals, the extremes and values that need all 17 digits.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 1 / 3, 2.0 / 3.0 * 1e-200, 9007199254740993.0, 1.0000000000000002]
_float64 = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


def _vec(n):
    return arrays(np.float64, n, elements=_float64)


def _assert_roundtrip_bytes(p, q):
    held_p, held_q = _problem_arrays(p), _problem_arrays(q)
    assert held_p.keys() == held_q.keys()
    for name, arr in held_p.items():
        assert held_q[name].shape == arr.shape, name
        assert held_q[name].tobytes() == arr.tobytes(), name


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 4))
def test_bundle_roundtrip_property_lasso(data, n, d):
    p = RegressionProblem(y=data.draw(_vec(n)), X=data.draw(arrays(np.float64, (n, d),
                          elements=_float64)), beta_true=data.draw(_vec(d)),
                          theta_true=data.draw(_vec(n)))
    with tempfile.TemporaryDirectory() as tmp:
        write_problem_bundle(p, tmp)
        _assert_roundtrip_bytes(p, read_problem_bundle(tmp))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), d1=st.integers(1, 3), d2=st.integers(1, 3))
def test_bundle_roundtrip_property_trace(data, n, d1, d2):
    p = TraceProblem(y=data.draw(_vec(n)), dims=(d1, d2),
                     covariates=data.draw(arrays(np.float64, (n, d1, d2), elements=_float64)),
                     B_true=data.draw(arrays(np.float64, (d1, d2), elements=_float64)),
                     theta_true=data.draw(_vec(n)))
    with tempfile.TemporaryDirectory() as tmp:
        write_problem_bundle(p, tmp)
        _assert_roundtrip_bytes(p, read_problem_bundle(tmp))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_bundle_roundtrip_property_mask(data, n, d1, d2):
    cov = MaskCovariates(
        rows=data.draw(arrays(np.int64, n, elements=st.integers(0, d1 - 1))),
        cols=data.draw(arrays(np.int64, n, elements=st.integers(0, d2 - 1))),
        signs=data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1]))),
    )
    p = TraceProblem(y=data.draw(_vec(n)), covariates=cov, dims=(d1, d2),
                     theta_true=data.draw(_vec(n)))
    with tempfile.TemporaryDirectory() as tmp:
        write_problem_bundle(p, tmp)
        _assert_roundtrip_bytes(p, read_problem_bundle(tmp))
