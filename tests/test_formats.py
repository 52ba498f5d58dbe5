"""The exact text of every format the package writes, on tiny hand-built inputs.

Other tests compare two writes with each other, which a consistent change of
format would pass; these pin the bytes. Floats carry 17 significant digits,
so 0.1 and -1/3 are written with more digits than their shortest form.
"""

import numpy as np

from huberreg import MaskCovariates, RegressionProblem, TraceProblem, write_problem_bundle
from huberreg.cli import _emit
from huberreg.diagnostics import DiagnosticsReport
from huberreg.experiments import ExperimentRecord, write_results

THIRD = -1.0 / 3.0


def _files(path):
    return {p.name: p.read_bytes().decode("utf-8") for p in sorted(path.iterdir())}


def test_lasso_bundle_bytes(tmp_path):
    p = RegressionProblem(
        y=[0.1, THIRD, 1e-300], X=[[1.0, THIRD], [0.1, 2.0], [-0.0, 1e-300]],
        beta_true=[0.5, -2.0], theta_true=[0.0, 0.1, 0.0],
        meta={"seed": 5, "sigma": 0.1, "noise_kind": "gaussian", "s": 2, "beta_magnitude": 2.5},
    )
    write_problem_bundle(p, str(tmp_path))
    assert _files(tmp_path) == {
        "X.csv": "1,-0.33333333333333331\n0.10000000000000001,2\n-0,1e-300\n",
        "beta_true.csv": "0.5\n-2\n",
        "meta.txt": ("kind = lasso\nn = 3\nd = 2\no = 1\nseed = 5\nbeta_magnitude = 2.5\n"
                     "noise_kind = gaussian\ns = 2\nsigma = 0.10000000000000001\n"),
        "theta_true.csv": "0\n0.10000000000000001\n0\n",
        "y.csv": "0.10000000000000001\n-0.33333333333333331\n1e-300\n",
    }


def test_dense_trace_bundle_bytes(tmp_path):
    cov = np.array([[[1.0, 0.1], [THIRD, 0.0]], [[1e-300, 2.0], [3.0, -4.5]]])
    p = TraceProblem(y=[0.1, THIRD], covariates=cov, dims=(2, 2), B_true=[[0.1, 0.0], [0.0, THIRD]],
                     meta={"rank": 1, "alpha_star": 1.5, "L": 1.0, "adversary": "none"})
    write_problem_bundle(p, str(tmp_path))
    assert _files(tmp_path) == {
        "B_true.csv": "0.10000000000000001,0\n0,-0.33333333333333331\n",
        "X.csv": "1,0.10000000000000001,-0.33333333333333331,0\n1e-300,2,3,-4.5\n",
        "meta.txt": ("n = 2\nd1 = 2\nd2 = 2\nkind = trace_dense\no = 0\nseed = 0\nL = 1\n"
                     "adversary = none\nalpha_star = 1.5\nrank = 1\n"),
        "y.csv": "0.10000000000000001\n-0.33333333333333331\n",
    }


def test_mask_bundle_bytes(tmp_path):
    cov = MaskCovariates(rows=[1, 0, 1], cols=[0, 1, 1], signs=[1, -1, 1])
    p = TraceProblem(y=[1e-300, 0.1, THIRD], covariates=cov, dims=(2, 2),
                     theta_true=[0.0, 0.0, 2.0],
                     meta={"seed": 9, "rho": 0.25, "noise_kind": "student_t"})
    write_problem_bundle(p, str(tmp_path))
    assert _files(tmp_path) == {
        "masks.csv": "i,k,l,sign\n0,1,0,1\n1,0,1,-1\n2,1,1,1\n",
        "meta.txt": ("n = 3\nd1 = 2\nd2 = 2\nkind = completion\no = 1\nseed = 9\n"
                     "noise_kind = student_t\nrho = 0.25\n"),
        "theta_true.csv": "0\n0\n2\n",
        "y.csv": "1e-300\n0.10000000000000001\n-0.33333333333333331\n",
    }


_HEADER = ("problem_kind,cell_index,trial_index,n,dim1,dim2,sparsity,o,noise_kind,noise_sigma,"
           "noise_alpha,adversary,adversary_magnitude,lambda_o,lambda_star,iterations,converged,"
           "error,rel_error,weighted_error,support_exact")


def test_results_row_bytes(tmp_path):
    rec = ExperimentRecord(
        problem_kind="matrix_cs", cell_index=2, trial_index=7, n=400, dim1=6, dim2=5,
        sparsity=2, o=10, noise_kind="gaussian", noise_sigma=0.1, noise_alpha=float("nan"),
        adversary="sign_flip", adversary_magnitude=1e-300, lambda_o=THIRD, lambda_star=2.0,
        iterations=31, converged=1, error=0.25, rel_error=0.1, weighted_error=0.25,
        support_exact=0, wall_time=1.5,
    )
    row = "matrix_cs,2,7,400,6,5,2,10,gaussian,0.10000000000000001,nan,sign_flip,1e-300," \
          "-0.33333333333333331,2,31,1,0.25,0.10000000000000001,0.25,0"
    path = tmp_path / "r.csv"
    write_results([rec], str(path))
    assert path.read_bytes().decode("utf-8") == f"{_HEADER}\n{row}\n"
    write_results([rec], str(path), include_timing=True)
    assert path.read_bytes().decode("utf-8") == f"{_HEADER},wall_time\n{row},1.5\n"


def test_tuning_report_text():
    report = DiagnosticsReport(
        model="lasso", lambda_o=0.1, lambda_star=THIRD, predicted_radius=1e-300,
        feasibility={"sample_size": True, "delta": False},
        terms={"outlier": 0.0, "dimension": 2.5, "count": 3},
    )
    assert report.to_kv_text() == (
        "model = lasso\nlambda_o = 0.10000000000000001\nlambda_star = -0.33333333333333331\n"
        "predicted_radius = 1e-300\nfeasible.delta = false\nfeasible.sample_size = true\n"
        "term.count = 3\nterm.dimension = 2.5\nterm.outlier = 0\n"
    )


def test_status_lines(capsys):
    _emit(kind="lasso", n=np.int64(3), converged=True, value=0.1, neg=np.float64(THIRD),
          tiny=1e-300, out="fit/")
    assert capsys.readouterr().out == (
        "kind=lasso\nn=3\nconverged=1\nvalue=0.10000000000000001\n"
        "neg=-0.33333333333333331\ntiny=1e-300\nout=fit/\n"
    )
