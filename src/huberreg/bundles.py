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


def _write_matrix(path: str, M: np.ndarray) -> None:
    """Comma-separated rows of M; a vector is written as a column, one entry per line."""
    M = np.asarray(M, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in (M[:, None] if M.ndim == 1 else M).tolist():
            fh.write(",".join([format(x, _F) for x in row]) + "\n")


def _write_kv(path: str, kv: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in kv.items():
            fh.write(f"{key} = {_fmt(val)}\n")


def _integral(token: str) -> float:
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"{token.strip()!r} is not an integer")
    return value


def _read_matrix(path: str, header=None, parse=float, linenos=None) -> np.ndarray:
    """Parse a comma-separated matrix, skipping blank lines.

    Each token goes through ``parse`` (``float``, or ``_integral`` for
    integer columns); a ``header`` must be line 1; ``linenos``, a list, gets
    each row's line. Raises ProblemValidationError naming the file and the
    1-based line for a wrong header, a token that ``parse`` rejects and a
    row whose length differs from the first row's.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if header is not None and lineno == 1:
                if ln != header:
                    raise ProblemValidationError(
                        f"{path}, line 1: expected the header {header!r}, got {ln!r}")
                continue
            if not ln:
                continue
            try:
                row = list(map(parse, ln.split(",")))
            except ValueError as exc:  # the message quotes the bad token
                raise ProblemValidationError(f"{path}, line {lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ProblemValidationError(
                    f"{path}, line {lineno}: {len(row)} values, but the first row "
                    f"has {len(rows[0])}"
                )
            rows.append(row)
            if linenos is not None:
                linenos.append(lineno)
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
    if isinstance(problem, RegressionProblem):
        meta = {"kind": "lasso", "n": problem.n, "d": problem.d}
        truth, truth_name = problem.beta_true, "beta_true.csv"
    elif isinstance(problem, TraceProblem):
        d1, d2 = problem.dims
        kind = "completion" if problem.is_mask else "trace_dense"
        meta = {"n": problem.n, "d1": d1, "d2": d2, "kind": kind}
        truth, truth_name = problem.B_true, "B_true.csv"
    else:
        raise ProblemValidationError(f"cannot bundle object of type {type(problem)!r}")
    os.makedirs(out_dir, exist_ok=True)
    if problem.is_mask:
        cov = problem.covariates
        with open(os.path.join(out_dir, "masks.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("i,k,l,sign\n")
            for i in range(len(cov)):
                fh.write(f"{i},{cov.rows[i]},{cov.cols[i]},{cov.signs[i]}\n")
    else:
        _write_matrix(os.path.join(out_dir, "X.csv"), problem._dense)
    if truth is not None:
        _write_matrix(os.path.join(out_dir, truth_name), truth)
    _write_matrix(os.path.join(out_dir, "y.csv"), problem.y)
    if problem.theta_true is not None:
        _write_matrix(os.path.join(out_dir, "theta_true.csv"), problem.theta_true)

    meta["o"] = len(problem.outlier_index_set)
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
        beta = parse("beta_true.csv", vector=True, optional=True)
        return RegressionProblem(y, parse("X.csv"), beta, theta, meta=meta)

    for key in ("d1", "d2"):
        if key not in meta:
            raise ProblemValidationError(
                f"{os.path.join(bundle_dir, 'meta.txt')}: a {kind} bundle needs a {key} line"
            )
        if not isinstance(meta[key], int):
            raise ProblemValidationError(
                f"{os.path.join(bundle_dir, 'meta.txt')}: {key} must be an integer, "
                f"got {meta[key]!r}"
            )
    d1, d2 = meta["d1"], meta["d2"]
    B_true = parse("B_true.csv", optional=True)
    if kind == "completion":
        path = os.path.join(bundle_dir, "masks.csv")
        linenos = []
        raw = _read_matrix(path, "i,k,l,sign", _integral, linenos)
        if raw.ndim != 2 or raw.shape[1] != 4:
            raise ProblemValidationError(f"{path}: expected rows of i,k,l,sign")
        # the first row whose i is out of range or repeats an earlier one
        i = raw[:, 0]
        repeat = np.ones(len(i), dtype=bool)
        repeat[np.unique(i, return_index=True)[1]] = False
        bad = np.flatnonzero(repeat | (i < 0) | (i >= len(i)))
        if bad.size:
            raise ProblemValidationError(
                f"{path}, line {linenos[bad[0]]}: i = {i[bad[0]]:g}, but the i values "
                f"must be a permutation of 0..{len(i) - 1}")
        # rows, cols and signs in the order of i, each a contiguous int64 row
        cells = raw[np.argsort(i), 1:].T.astype(np.int64, order="C")
        cov = MaskCovariates(*map(_Adopt, cells))
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
