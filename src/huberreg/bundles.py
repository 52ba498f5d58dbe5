"""Problem bundles, and every text format the package reads or writes.

A bundle is a directory of plain CSV/text files for one dataset. Layout
(fixed names, LF newlines, 17-significant-digit floats, so the same problem
always serializes to the same bytes):

    y.csv          one response per line
    X.csv          n rows of d values (vector) or d1*d2 (dense trace, each X_i
                   flattened row-major): the dims keys of ``_BUNDLE_DIMS``
    masks.csv      mask problems instead of X.csv; header i,k,l,sign
    meta.txt       "key = value" lines (kind, n, d or d1/d2, o, seed, ...);
                   a key in _META_TYPES is read as its type, any other as text
    beta_true.csv / B_true.csv / theta_true.csv   optional ground truth

Reading and writing hold one copy of the design and make no full-size
temporary of it: ``_write_matrix`` formats one row at a time, and
``_read_matrix`` and the ``masks.csv`` reader parse one row's floats at a
time into one growing ``array.array`` of doubles per file (no array or list
kept per row), which the problem adopts as a numpy view without a copy.

Every other text format of the package lives here too: ``_fmt`` (one
value), ``_kv_lines`` (``key<sep>value`` lines), ``_write_lines`` (every
file written) and ``_scan_csv`` (every CSV read).
"""

from __future__ import annotations

import itertools
import os
from array import array

import numpy as np

from .problems import (
    MaskCovariates,
    ProblemValidationError,
    RegressionProblem,
    TraceProblem,
    _Adopt,
)

_F = ".17g"

# the type of each meta.txt key that something reads as a number; the CLI's
# theorem options take their types from here too
_META_TYPES = {
    **dict.fromkeys(("n", "d", "d1", "d2", "s", "rank", "o", "seed"), int),
    **dict.fromkeys(("sigma", "sigma_xi", "delta", "kappa", "L", "rho", "alpha",
                     "alpha_star", "beta_magnitude"), float),
}

# each bundle kind's meta.txt dims keys; a dense kind's X.csv rows hold their product
_BUNDLE_DIMS = {"lasso": ("d",), **dict.fromkeys(("trace_dense", "completion"), ("d1", "d2"))}
_TRUTH = {1: "beta_true", 2: "B_true"}  # the truth attribute and file stem by number of dims


def _fmt(v) -> str:
    """One value as text: bools and integers as integers, floats with 17
    significant digits (``_F``, as the matrix writer uses), anything else by
    ``str``."""
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), _F)
    return str(v)


def _kv_lines(kv: dict, sep: str = " = ") -> list:
    """``key<sep>value`` lines, each value by ``_fmt``: ``" = "`` in files and
    the tuning report, ``"="`` in CLI status lines."""
    return [f"{key}{sep}{_fmt(val)}" for key, val in kv.items()]


def _write_lines(path: str, lines) -> None:
    """Write each string of ``lines`` as one line, UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(ln + "\n" for ln in lines)


def _write_matrix(path: str, M: np.ndarray) -> None:
    """Comma-separated rows of M; a vector is written as a column, one entry per line."""
    M = np.asarray(M, dtype=float)
    M = M[:, None] if M.ndim == 1 else M
    row = ",".join(["%" + _F] * M.shape[1])
    # one row's Python floats at a time: no text or float list of all of M
    _write_lines(path, (row % tuple(r.tolist()) for r in M))


def _integral(token: str) -> float:
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"{token.strip()!r} is not an integer")
    return value


def _scan_csv(path: str, parse, header=None, into=None) -> tuple:
    """``(lines, rows)``: the line number and ``parse(tokens)`` of each
    nonblank line of a comma-separated file.

    With ``header``, the first such line is instead checked by
    ``header(tokens)``, which returns the parser of the rest. Every row must
    have as many tokens as the header, else as the first row. A row of
    another length and a ValueError from ``header`` or the parser (its
    message quotes the bad text) raise ProblemValidationError naming the
    file and the 1-based line; a missing header, naming the file.

    ``rows`` is the list of parsed rows; given ``into``, an ``array.array``,
    it is ``into``, extended by each parsed row (a list of numbers), so a
    file of numbers becomes one buffer rather than an object per row.
    ``lines`` is an ``array.array`` of ints.
    """
    lines, rows, width = array("q"), [] if into is None else into, None
    add = rows.append if into is None else rows.fromlist
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            tokens = ln.strip().split(",")
            if tokens == [""]:
                continue
            try:
                if width is None:
                    width = (len(tokens), "the header" if header else "the first row")
                    if header:
                        parse, header = header(tokens), None
                        continue
                if len(tokens) != width[0]:
                    raise ValueError(f"{len(tokens)} values, but {width[1]} has {width[0]}")
                add(parse(tokens))
                lines.append(lineno)
            except ValueError as exc:
                raise ProblemValidationError(f"{path}, line {lineno}: {exc}") from None
    if header:
        raise ProblemValidationError(f"{path}: no header line")
    return lines, rows


def _as_matrix(lines, buf: array) -> np.ndarray:
    """The doubles ``_scan_csv`` read into ``buf`` as a float64 matrix with
    one row per line (a view, no copy); no rows give shape (0,)."""
    flat = np.frombuffer(buf, dtype=float)
    return flat.reshape(len(lines), -1) if lines else flat


def _read_matrix(path: str) -> np.ndarray:
    """A comma-separated matrix of floats, parsed by ``_scan_csv`` into one
    growing buffer of doubles."""
    return _as_matrix(*_scan_csv(path, lambda t: list(map(float, t)), into=array("d")))


def write_problem_bundle(problem, out_dir: str) -> None:
    """Serialize a regression or trace problem into ``out_dir``."""
    if not isinstance(problem, (RegressionProblem, TraceProblem)):
        raise ProblemValidationError(f"cannot bundle object of type {type(problem)!r}")
    vector = isinstance(problem, RegressionProblem)
    kind = "lasso" if vector else "completion" if problem.is_mask else "trace_dense"
    meta = {"n": problem.n, **dict(zip(_BUNDLE_DIMS[kind], problem.param_shape)), "kind": kind,
            "o": len(problem.outlier_index_set), "seed": problem.meta.get("seed", 0)}
    if vector:  # a lasso meta.txt names its kind first
        meta = {"kind": kind, **meta}
    meta.update({key: val for key, val in sorted(problem.meta.items()) if key not in meta})
    os.makedirs(out_dir, exist_ok=True)
    if problem.is_mask:
        cov = problem.covariates
        cells = zip(cov.rows.tolist(), cov.cols.tolist(), cov.signs.tolist())
        rows = (f"{i},{k},{l},{sign}" for i, (k, l, sign) in enumerate(cells))
        _write_lines(os.path.join(out_dir, "masks.csv"), itertools.chain(["i,k,l,sign"], rows))
    else:
        _write_matrix(os.path.join(out_dir, "X.csv"), problem._dense)
    for name in (_TRUTH[len(problem.param_shape)], "y", "theta_true"):  # file: name.csv
        if getattr(problem, name) is not None:
            _write_matrix(os.path.join(out_dir, name + ".csv"), getattr(problem, name))
    _write_lines(os.path.join(out_dir, "meta.txt"), _kv_lines(meta))


def read_meta(bundle_dir: str) -> dict:
    """A bundle's meta.txt, each value of its key's type in ``_META_TYPES``
    (else text); a value not of that type raises, naming the file and key."""
    path = os.path.join(bundle_dir, "meta.txt")
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            key, sep, raw = (part.strip() for part in ln.partition("="))
            if sep:
                cast = _META_TYPES.get(key, str)
                try:
                    meta[key] = cast(raw)
                except ValueError:
                    kind = "an integer" if cast is int else "a number"
                    raise ProblemValidationError(
                        f"{path}: {key} must be {kind}, got {raw!r}") from None
    return meta


def read_problem_bundle(bundle_dir: str):
    """Inverse of write_problem_bundle; validates on construction."""
    if not os.path.isdir(bundle_dir):
        raise FileNotFoundError(f"bundle directory not found: {bundle_dir}")
    meta = read_meta(bundle_dir)
    kind = meta.get("kind")
    if kind not in _BUNDLE_DIMS:
        raise ProblemValidationError(f"meta.txt has unknown kind {kind!r}")

    def parse(name, vector=False, optional=False):
        # every array parsed here is fresh and held nowhere else: hand it over
        path = os.path.join(bundle_dir, name)
        if optional and not os.path.exists(path):
            return None
        arr = _read_matrix(path)
        return _Adopt(arr.ravel() if vector else arr)

    y = parse("y.csv", vector=True)
    theta = parse("theta_true.csv", vector=True, optional=True)
    keys, path = _BUNDLE_DIMS[kind], os.path.join(bundle_dir, "meta.txt")
    for key in keys:
        if key not in meta:
            raise ProblemValidationError(f"{path}: a {kind} bundle needs a {key} line")
        if meta[key] < 1:
            raise ProblemValidationError(f"{path}: {key} must be >= 1, got {meta[key]}")
    dims = tuple(meta[key] for key in keys)
    truth = parse(_TRUTH[len(keys)] + ".csv", vector=len(keys) == 1, optional=True)
    if kind == "completion":
        path = os.path.join(bundle_dir, "masks.csv")

        def header(tokens):
            if tokens != ["i", "k", "l", "sign"]:
                raise ValueError(f"expected the header 'i,k,l,sign', got {','.join(tokens)!r}")
            return lambda row: list(map(_integral, row))

        lines, buf = _scan_csv(path, None, header, into=array("d"))
        if not lines:
            raise ProblemValidationError(f"{path}: expected rows of i,k,l,sign")
        raw = _as_matrix(lines, buf)
        # the first row whose i is out of range or repeats an earlier one
        i = raw[:, 0]
        repeat = np.ones(len(i), dtype=bool)
        repeat[np.unique(i, return_index=True)[1]] = False
        bad = np.flatnonzero(repeat | (i < 0) | (i >= len(i)))
        if bad.size:
            raise ProblemValidationError(
                f"{path}, line {lines[bad[0]]}: i = {i[bad[0]]:g}, but the i values "
                f"must be a permutation of 0..{len(i) - 1}")
        # rows, cols and signs, row k at place i[k]: int64 rows cast from the buffer
        cells = np.empty((3, len(i)), np.int64)
        cells[:, i.astype(np.intp)] = raw[:, 1:].T
        cov = MaskCovariates(*map(_Adopt, cells))
    else:
        path = os.path.join(bundle_dir, "X.csv")
        flat, width = _read_matrix(path), int(np.prod(dims))
        wanted = f"{'*'.join(keys)} = {width}"
        if not len(flat):  # an empty file reads as shape (0,), with no column count
            raise ProblemValidationError(f"{path}: expected rows of {wanted} values")
        if flat.shape[1] != width:
            raise ProblemValidationError(f"X.csv has {flat.shape[1]} columns, expected {wanted}")
        cov = _Adopt(flat.reshape(len(flat), *dims))
    if len(keys) == 1:
        return RegressionProblem(y, cov, truth, theta, meta=meta)
    return TraceProblem(y, cov, dims, truth, theta, meta=meta)
