"""Problem bundles: a directory of plain CSV/text files for one dataset.

Layout (fixed names, LF newlines, 17-significant-digit floats, so the
same problem always serializes to the same bytes):

    y.csv          one response per line
    X.csv          vector problems: n rows x d columns
                   dense trace problems: n rows, each X_i flattened row-major
    masks.csv      mask problems instead of X.csv; header i,k,l,sign
    meta.txt       "key = value" lines (kind, n, d or d1/d2, o, seed, ...)
    beta_true.csv / B_true.csv / theta_true.csv   optional ground truth
"""

from __future__ import annotations

import os

import numpy as np

from .problems import (
    MaskCovariates,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    _Adopt,
)

_F = ".17g"


def _fmt(v) -> str:
    """One value as text: bools and integers as integers, floats with 17
    significant digits (``_F``, as the array writers use), anything else by
    ``str``. Used for meta files, result CSVs and CLI status lines."""
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), _F)
    return str(v)


def _write_vector(path: str, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x in np.asarray(v, dtype=float):
            fh.write(format(x, _F) + "\n")


def _write_matrix(path: str, M: np.ndarray, header: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        for row in np.atleast_2d(M):
            fh.write(",".join(format(float(x), _F) for x in row) + "\n")


def _write_kv(path: str, kv: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in kv.items():
            fh.write(f"{key} = {_fmt(val)}\n")


def _read_matrix(path: str, skip_header: bool = False) -> np.ndarray:
    """Parse a comma-separated matrix, skipping blank lines.

    Raises ProblemValidationError naming the file and the 1-based line for
    a token that is not a number and for a row whose length differs from
    the first row's.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            ln = ln.strip()
            if not ln:
                continue
            try:
                row = list(map(float, ln.split(",")))
            except ValueError as exc:  # float's message quotes the bad token
                raise ProblemValidationError(f"{path}, line {lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ProblemValidationError(
                    f"{path}, line {lineno}: {len(row)} values, but the first row "
                    f"has {len(rows[0])}"
                )
            rows.append(row)
    return np.array(rows, dtype=float)


def _parse_meta_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def write_problem_bundle(problem, out_dir: str) -> None:
    """Serialize a regression or trace problem into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    meta = {}
    if isinstance(problem, RegressionProblem):
        meta["kind"] = "lasso"
        meta["n"], meta["d"] = problem.n, problem.d
        _write_matrix(os.path.join(out_dir, "X.csv"), problem.X)
        if problem.beta_true is not None:
            _write_vector(os.path.join(out_dir, "beta_true.csv"), problem.beta_true)
    elif isinstance(problem, TraceProblem):
        d1, d2 = problem.dims
        meta["n"], meta["d1"], meta["d2"] = problem.n, d1, d2
        if problem.is_mask:
            meta["kind"] = "completion"
            cov = problem.covariates
            with open(os.path.join(out_dir, "masks.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write("i,k,l,sign\n")
                for i in range(len(cov)):
                    fh.write(f"{i},{cov.rows[i]},{cov.cols[i]},{cov.signs[i]}\n")
        else:
            meta["kind"] = "trace_dense"
            flat = np.asarray(problem.covariates, dtype=float).reshape(problem.n, d1 * d2)
            _write_matrix(os.path.join(out_dir, "X.csv"), flat)
        if problem.B_true is not None:
            _write_matrix(os.path.join(out_dir, "B_true.csv"), problem.B_true)
    else:
        raise ProblemValidationError(f"cannot bundle object of type {type(problem)!r}")

    _write_vector(os.path.join(out_dir, "y.csv"), problem.y)
    if problem.theta_true is not None:
        _write_vector(os.path.join(out_dir, "theta_true.csv"), problem.theta_true)

    meta["o"] = (
        len(problem.outlier_index_set) if problem.outlier_index_set is not None else 0
    )
    meta["seed"] = problem.meta.get("seed", 0)
    for key in sorted(problem.meta):
        if key not in meta:
            meta[key] = problem.meta[key]
    _write_kv(os.path.join(out_dir, "meta.txt"), meta)


def read_meta(bundle_dir: str) -> dict:
    path = os.path.join(bundle_dir, "meta.txt")
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or "=" not in ln:
                continue
            key, _, raw = ln.partition("=")
            meta[key.strip()] = _parse_meta_value(raw.strip())
    return meta


def read_problem_bundle(bundle_dir: str):
    """Inverse of write_problem_bundle; validates on construction."""
    if not os.path.isdir(bundle_dir):
        raise FileNotFoundError(f"bundle directory not found: {bundle_dir}")
    meta = read_meta(bundle_dir)
    kind = meta.get("kind")
    if kind not in ("lasso", "trace_dense", "completion"):
        raise ProblemValidationError(f"meta.txt has unknown kind {meta.get('kind')!r}")

    def parse(name, vector=False, optional=False):
        # every array parsed here is fresh and held nowhere else: hand it over
        path = os.path.join(bundle_dir, name)
        if optional and not os.path.exists(path):
            return None
        arr = _read_matrix(path)
        return _Adopt(arr.ravel() if vector else arr)

    y = parse("y.csv", vector=True)
    theta = parse("theta_true.csv", vector=True, optional=True)

    if kind == "lasso":
        X = parse("X.csv")
        beta = parse("beta_true.csv", vector=True, optional=True)
        return RegressionProblem(y=y, X=X, beta_true=beta, theta_true=theta, meta=meta)

    d1, d2 = int(meta["d1"]), int(meta["d2"])
    B_true = parse("B_true.csv", optional=True)
    if kind == "completion":
        raw = _read_matrix(os.path.join(bundle_dir, "masks.csv"), skip_header=True)
        if raw.size == 0:
            raise ProblemValidationError("masks.csv holds no rows")
        order = np.argsort(raw[:, 0], kind="stable")
        raw = raw[order]
        cov = MaskCovariates(
            rows=_Adopt(raw[:, 1].astype(int)),
            cols=_Adopt(raw[:, 2].astype(int)),
            signs=_Adopt(raw[:, 3].astype(int)),
        )
    else:
        flat = _read_matrix(os.path.join(bundle_dir, "X.csv"))
        if flat.shape[1] != d1 * d2:
            raise ProblemValidationError(
                f"X.csv has {flat.shape[1]} columns, expected d1*d2 = {d1 * d2}"
            )
        cov = _Adopt(flat.reshape(len(flat), d1, d2))
    return TraceProblem(
        y=y, covariates=cov, dims=(d1, d2), B_true=B_true, theta_true=theta, meta=meta
    )
