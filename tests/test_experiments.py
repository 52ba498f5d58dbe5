import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import huberreg.experiments as E
from huberreg import (
    ExperimentRecord,
    NoiseSpec,
    ProblemValidationError,
    SolverConfig,
    SweepSpec,
    TuningParams,
    error_metrics,
    fit_rate_slope,
    read_results,
    run_sweep,
    run_trial,
    spikiness,
    write_results,
)

from _reference import aggregate_medians

FAST = dict(max_iters=400, rel_tol=1e-8, oracle_multipliers=(0.3, 1.0, 3.0))


def small_lasso_spec(**over):
    base = dict(
        problem_kind="lasso",
        n_grid=(60, 120),
        d_grid=(12,),
        s_grid=(2,),
        noise_grid=({"kind": "weibull_symmetric", "sigma": 0.1, "alpha": 1.0},),
        trials_per_cell=2,
        base_seed=11,
        **FAST,
    )
    base.update(over)
    return SweepSpec(**base)


def mk_rec(n, o, error, cell=0, trial=0):
    return ExperimentRecord(
        problem_kind="lasso", cell_index=cell, trial_index=trial,
        n=n, dim1=10, dim2=0, sparsity=2, o=o,
        noise_kind="gaussian", noise_sigma=0.1, noise_alpha=float("nan"),
        adversary="none", adversary_magnitude=0.0,
        lambda_o=1.0, lambda_star=0.1, iterations=5, converged=1,
        error=error, rel_error=error, weighted_error=error, support_exact=1,
    )


# ------------------------------------------------------------- determinism


def test_sweep_identical_across_job_counts(tmp_path):
    spec = small_lasso_spec()
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_results(run_sweep(spec, jobs=1), p1)
    write_results(run_sweep(spec, jobs=2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_starts_at_most_one_worker_per_trial(tmp_path, monkeypatch):
    """A jobs count above the number of trials starts one worker per trial;
    the records are those of a serial sweep. The pool here maps in-process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = small_lasso_spec(n_grid=(60,), trials_per_cell=3)
    p1, p500 = tmp_path / "serial.csv", tmp_path / "jobs500.csv"
    write_results(run_sweep(spec, jobs=1), p1)
    write_results(run_sweep(spec, jobs=500), p500)
    assert sizes == [3]
    assert p1.read_bytes() == p500.read_bytes()


def test_sweep_rerun_byte_identical(tmp_path):
    spec = small_lasso_spec(n_grid=(60,), trials_per_cell=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(run_sweep(spec), p1)
    write_results(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_trial_deterministic():
    spec = small_lasso_spec()
    a = run_trial(spec, 1, 0)
    b = run_trial(spec, 1, 0)
    assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(b, wall_time=0.0)
    c = run_trial(spec, 1, 1)
    assert c.error != a.error


def test_results_round_trip(tmp_path):
    spec = small_lasso_spec(
        n_grid=(60,),
        noise_grid=({"kind": "student_t", "sigma": 0.2, "alpha": 3.0},),
    )
    records = run_sweep(spec)
    path = tmp_path / "res.csv"
    write_results(records, path)
    back = read_results(path)
    assert back == [dataclasses.replace(r, wall_time=0.0) for r in records]
    assert isinstance(back[0].n, int)
    assert isinstance(back[0].error, float)
    assert back[0].noise_kind == "student_t"


def test_timing_column_is_opt_in(tmp_path):
    spec = small_lasso_spec(n_grid=(60,), trials_per_cell=1)
    records = run_sweep(spec)
    bare, timed = tmp_path / "bare.csv", tmp_path / "timed.csv"
    write_results(records, bare)
    write_results(records, timed, include_timing=True)
    assert not bare.read_text().splitlines()[0].endswith("wall_time")
    assert timed.read_text().splitlines()[0].endswith("wall_time")
    assert read_results(timed)[0].wall_time > 0.0


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_results_file_without_header_line_is_named(tmp_path, text):
    path = tmp_path / "res.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ProblemValidationError, match=f"^{re.escape(str(path))}: no header line$"):
        read_results(path)


# --------------------------------------------------------------- slope fits


def test_fit_rate_slope_recovers_planted_power_law():
    records = [
        mk_rec(n, 0, 3.0 * n ** -0.5, trial=t)
        for n in (100, 200, 400, 800)
        for t in range(3)
    ]
    fit = fit_rate_slope(records, x_axis="n", y="error")
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.stderr < 1e-12
    assert fit.n_points == 4


def test_fit_rate_slope_uses_group_medians():
    # one wild trial per n must not move the median
    records = []
    for n in (100, 200, 400):
        records += [mk_rec(n, 0, n ** -1.0, trial=t) for t in range(3)]
        records.append(mk_rec(n, 0, 50.0, trial=3))
    fit = fit_rate_slope(records, x_axis="n", y="error")
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_slope_o_frac_axis():
    records = [mk_rec(1000, o, 0.7 * (o / 1000.0)) for o in (10, 20, 40, 80)]
    fit = fit_rate_slope(records, x_axis="o_frac", y="error")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
# plain lists, and lists drawn with replacement from a pool, so values repeat
_MEDIAN_LISTS = st.one_of(
    st.lists(_POSITIVE, min_size=1, max_size=41),
    st.lists(_POSITIVE, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=41)),
)


@settings(max_examples=300, deadline=None)
@given(values=_MEDIAN_LISTS, at=st.integers(0, 41))
def test_median_equals_numpy_to_the_bit(values, at):
    """The slope's group median is np.median's float for odd and even counts
    and repeated values; a NaN anywhere in a group gives NaN."""
    assert np.float64(E._median(values)).tobytes() == np.median(values).tobytes()
    assert math.isnan(E._median(values[:at] + [math.nan] + values[at:]))


def test_median_equals_numpy_at_every_length():
    rng = np.random.default_rng(0)
    for size in range(1, 42):
        for values in (rng.lognormal(size=size).tolist(), rng.integers(1, 4, size).tolist()):
            assert np.float64(E._median(values)).tobytes() == np.median(values).tobytes()


def test_fit_rate_slope_guards():
    two = [mk_rec(n, 0, 1.0 / n) for n in (100, 200)]
    with pytest.raises(ProblemValidationError):
        fit_rate_slope(two, x_axis="n")
    flat = [mk_rec(n, 0, 0.0) for n in (100, 200, 400)]
    with pytest.raises(ProblemValidationError):
        fit_rate_slope(flat, x_axis="n")
    with pytest.raises(ProblemValidationError):
        fit_rate_slope(two, x_axis="d")



@pytest.mark.parametrize("y", ["err", "problem_kind", "wall_time"])
def test_fit_rate_slope_rejects_y_outside_the_slope_columns(y):
    """A y that is not an error column raises by name, not an AttributeError
    or numpy's ValueError on a text median."""
    records = [mk_rec(n, 0, 1.0 / n) for n in (100, 200, 400)]
    with pytest.raises(ProblemValidationError) as exc:
        fit_rate_slope(records, x_axis="n", y=y)
    assert str(exc.value) == f"y must be 'error', 'rel_error' or 'weighted_error', got {y!r}"

def test_aggregate_medians_groups_and_sorts():
    records = [mk_rec(100, 0, e, cell=0) for e in (3.0, 1.0, 2.0)]
    records += [mk_rec(200, 0, e, cell=1) for e in (10.0, 30.0)]
    med = aggregate_medians(records, key="error", by="cell_index")
    assert med == {0: 2.0, 1: 20.0}
    by_n = aggregate_medians(records, key="error", by="n")
    assert list(by_n) == [100, 200]


# --------------------------------------------------------------- validation


def test_spec_rejects_unknown_config_keys():
    with pytest.raises(ProblemValidationError):
        SweepSpec.from_dict({
            "problem_kind": "lasso", "n_grid": [100], "d_grid": [10],
            "s_grid": [2], "snr": 3.0,
        })


def test_spec_from_dict_accepts_json_lists():
    spec = SweepSpec.from_dict({
        "problem_kind": "completion",
        "n_grid": [200], "d_grid": [[8, 8]], "s_grid": [1],
        "noise_grid": [{"kind": "gaussian", "sigma": 0.1}],
    })
    assert spec.d_grid == ((8, 8),)


def test_spec_validation_errors():
    good = dict(problem_kind="lasso", n_grid=(100,), d_grid=(10,), s_grid=(2,))
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "problem_kind": "ridge"})
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "tuning_mode": "cv"})
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "loss_regime": "hinge"})
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "trials_per_cell": 0})
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "n_grid": ()})
    with pytest.raises(ProblemValidationError):
        SweepSpec(**{**good, "tuning_mode": "fixed"})
    SweepSpec(**{**good, "tuning_mode": "fixed",
                 "fixed_lambda_o": 1.0, "fixed_lambda_star": 0.1})


def test_spec_numbers_take_their_field_types():
    spec = SweepSpec(problem_kind="matrix_cs", n_grid=(np.int64(100), 200),
                     d_grid=([4, np.int32(5)],), s_grid=(1,), trials_per_cell=np.int64(2),
                     spikiness_cap=3,
                     noise_grid=({"kind": "student_t", "sigma": 1, "alpha": np.int64(3)},
                                 {"kind": "gaussian", "alpha": None}),
                     adversary_grid=({"strategy": "none"},))  # o = 0: no magnitude needed
    assert spec.n_grid == (100, 200) and spec.d_grid == ((4, 5),)
    assert {type(v) for v in (*spec.n_grid, *spec.d_grid[0], spec.trials_per_cell)} == {int}
    assert type(spec.spikiness_cap) is float and type(spec.rel_tol) is float
    assert spec.noise_grid == ({"kind": "student_t", "sigma": 1.0, "alpha": 3.0},
                               {"kind": "gaussian", "alpha": None})
    assert {type(v) for v in spec.noise_grid[0].values()} == {str, float}


@pytest.mark.parametrize("kind, over, match", [
    ("lasso", dict(s_grid=(5,), d_grid=(3,)), "s=5, d=3"),
    ("lasso", dict(s_grid=(-1,)), "s=-1"),
    ("lasso", dict(d_grid=(10, 0), s_grid=(0,), tuning_mode="fixed",
                   fixed_lambda_o=0.1, fixed_lambda_star=0.1), "got 0"),
    ("lasso", dict(n_grid=(100, 0)), "n=0"),
    ("lasso", dict(n_grid=(100, 20), o_grid=(0, 30),
                   adversary_grid=({"strategy": "random_large", "magnitude": 5.0},)),
     "o=30, n=20"),
    ("lasso", dict(o_grid=(-2,)), "o=-2"),
    ("matrix_cs", dict(d_grid=((8, 8), (6, 2)), s_grid=(3,)), r"rank=3, dims=\(6, 2\)"),
    ("completion", dict(s_grid=(0,)), "rank=0"),
    ("completion", dict(d_grid=((0, 4),)), r"\(0, 4\)"),
    ("matrix_cs", dict(d_grid=((8, 8), (3, 0)), s_grid=(1,)),
     r"dims=\(3, 0\)\): d1 and d2 must be >= 1, got d1=3, d2=0"),
])
def test_spec_rejects_cells_generators_cannot_draw(kind, over, match):
    dims = (10,) if kind == "lasso" else ((8, 8),)
    base = dict(problem_kind=kind, n_grid=(100,), d_grid=dims, s_grid=(2,))
    with pytest.raises(ProblemValidationError, match=match):
        SweepSpec(**{**base, **over})


@pytest.mark.parametrize("kind, dims", [("lasso", 10), ("matrix_cs", (6, 5)), ("completion", (8, 8))])
def test_spec_cell_checks_draw_nothing(monkeypatch, kind, dims):
    def no_draw(*args, **kwargs):
        raise AssertionError("a SweepSpec check drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    SweepSpec(problem_kind=kind, n_grid=(400,), d_grid=(dims,), s_grid=(2,), o_grid=(0, 10),
              adversary_grid=({"strategy": "random_large", "magnitude": 5.0},))


@pytest.mark.parametrize("kind, dims, s", [("lasso", 4, 4), ("lasso", 4, 0), ("matrix_cs", (3, 5), 3)])
def test_spec_accepts_boundary_cells_and_they_run(kind, dims, s):
    spec = SweepSpec(
        problem_kind=kind, n_grid=(30,), d_grid=(dims,), s_grid=(s,), o_grid=(30,),
        adversary_grid=({"strategy": "random_large", "magnitude": 5.0},),
        trials_per_cell=1, tuning_mode="fixed", fixed_lambda_o=0.1,
        fixed_lambda_star=0.1, max_iters=50,
    )
    assert run_trial(spec, 0, 0).o == 30


def test_cells_follow_grid_product_order():
    spec = small_lasso_spec(n_grid=(60, 120), s_grid=(1, 2), o_grid=(0,))
    cells = spec.cells()
    assert len(cells) == 4
    assert [c[0] for c in cells] == [60, 60, 120, 120]
    assert [c[2] for c in cells] == [1, 2, 1, 2]


def test_contaminated_cell_requires_strategy():
    with pytest.raises(ProblemValidationError):
        small_lasso_spec(o_grid=(5,))


# ------------------------------------------------------------ trial behavior


def test_quadratic_regime_overrides_lambda_o():
    spec = small_lasso_spec(
        n_grid=(80,), tuning_mode="fixed", fixed_lambda_o=1.0,
        fixed_lambda_star=0.3, loss_regime="quadratic",
        noise_grid=({"kind": "gaussian", "sigma": 0.1},),
    )
    rec = run_trial(spec, 0, 0)
    assert rec.lambda_o == pytest.approx(1e9 * 0.1 / np.sqrt(80), rel=1e-12)
    assert rec.lambda_star == 0.3
    huber = run_trial(dataclasses.replace(spec, loss_regime="huber"), 0, 0)
    assert huber.lambda_o == 1.0


def test_grid_oracle_never_loses_to_unit_multiplier():
    # multiplier 1.0 sits in the grid, so the oracle error is bounded by
    # the theorem-tuned error on the same data
    base = dict(
        problem_kind="lasso", n_grid=(200,), d_grid=(20,), s_grid=(3,),
        o_grid=(10,), adversary_grid=({"strategy": "random_large", "magnitude": 10.0},),
        noise_grid=({"kind": "gaussian", "sigma": 0.1},),
        trials_per_cell=1, base_seed=5, max_iters=600, rel_tol=1e-8,
    )
    oracle = run_trial(SweepSpec(**base, tuning_mode="grid_oracle",
                                 oracle_multipliers=(0.1, 1.0, 10.0)), 0, 0)
    theorem = run_trial(SweepSpec(**base, tuning_mode="theorem"), 0, 0)
    assert oracle.error <= theorem.error + 1e-12
    assert oracle.lambda_o == theorem.lambda_o


def test_completion_trial_smoke():
    spec = SweepSpec(
        problem_kind="completion", n_grid=(240,), d_grid=((8, 8),),
        s_grid=(1,), noise_grid=({"kind": "gaussian", "sigma": 0.05},),
        trials_per_cell=1, base_seed=2, **FAST,
    )
    rec = run_trial(spec, 0, 0)
    assert rec.problem_kind == "completion"
    assert (rec.dim1, rec.dim2) == (8, 8)
    assert np.isfinite(rec.error) and rec.error < 1.0
    assert rec.converged == 1


def test_matrix_cs_trial_smoke():
    spec = SweepSpec(
        problem_kind="matrix_cs", n_grid=(200,), d_grid=((6, 5),),
        s_grid=(1,), noise_grid=({"kind": "gaussian", "sigma": 0.05},),
        o_grid=(6,), adversary_grid=({"strategy": "random_large", "magnitude": 5.0},),
        trials_per_cell=1, base_seed=3, **FAST,
    )
    rec = run_trial(spec, 0, 0)
    assert rec.o == 6
    assert rec.adversary == "random_large"
    assert np.isfinite(rec.error) and rec.error < 1.0


@pytest.mark.parametrize("mode", ["fixed", "theorem", "grid_oracle"])
def test_uncapped_completion_cell_passes_the_box_radius_check(mode):
    """Without a spikiness cap the cell check bounds alpha_star by sqrt(d1 d2),
    as it bounds any matrix's, so the box radius it builds is finite."""
    spec = SweepSpec(problem_kind="completion", n_grid=(300,), d_grid=((8, 6),), s_grid=(2,),
                     spikiness_cap=math.inf, tuning_mode=mode, fixed_lambda_o=0.05,
                     fixed_lambda_star=0.02, trials_per_cell=1, **FAST)
    assert np.isfinite(run_trial(spec, 0, 0).error)


@pytest.mark.parametrize("cap", [math.nan, -math.inf, 0.0])
def test_matrix_cs_cell_ignores_the_spikiness_cap(cap):
    """Only completion truths are held to the cap, so a matrix_cs cell's check
    bounds alpha_star by sqrt(d1 d2) alone and accepts any cap, as its trial
    does."""
    spec = SweepSpec(problem_kind="matrix_cs", n_grid=(200,), d_grid=((5, 4),), s_grid=(2,),
                     spikiness_cap=cap, tuning_mode="theorem", trials_per_cell=1, **FAST)
    assert np.isfinite(run_trial(spec, 0, 0).error)


# ------------------------------------------------ grid oracle's early stop

_DEFAULT_MARGIN = E.SCREEN_MARGIN

_SCREENED = {  # one cell per kind, and the lasso cell in the quadratic regime
    "lasso": dict(problem_kind="lasso", n_grid=(150,), d_grid=(30,), s_grid=(3,)),
    "matrix_cs": dict(problem_kind="matrix_cs", n_grid=(200,), d_grid=((5, 5),), s_grid=(1,)),
    "completion": dict(problem_kind="completion", n_grid=(300,), d_grid=((8, 8),), s_grid=(1,)),
    "quadratic": dict(problem_kind="lasso", n_grid=(150,), d_grid=(30,), s_grid=(3,),
                      loss_regime="quadratic"),
}


def _full_path(spec, trial_index):
    """(lambda_star, SolverResult, truth, path) of the trial's cell 0 with every
    lambda on the oracle grid solved at the spec's rel_tol, each warm-started at
    the last, keeping the first strict error minimum; ``path`` lists the
    lambdas, largest first."""
    n, dims, s, o, noise_d, adv_d = spec.cells()[0]
    kind, k = spec.problem_kind, E._kinds()[spec.problem_kind]
    master = E._trial_master_seed(spec.base_seed, 0, trial_index)
    noise = NoiseSpec(**noise_d)
    problem = E._draw(k, n, dims, s, noise, E._contamination(o, adv_d, master),
                      spec.spikiness_cap)
    truth = problem.beta_true if kind == "lasso" else problem.B_true
    alpha_star = None if kind == "lasso" else spikiness(truth)
    rep = E._theorem_tuning(k, n, dims, {**problem.meta, "o": o})
    lam_o = rep.lambda_o
    if spec.loss_regime == "quadratic":
        lam_o = E.QUADRATIC_SCALE * noise.sigma / np.sqrt(n)
    radius = alpha_star / np.sqrt(dims[0] * dims[1]) if kind == "completion" else None
    cfg = SolverConfig(spec.max_iters, spec.rel_tol)
    best, x0, path = None, None, []
    for m in sorted(spec.oracle_multipliers, reverse=True):
        tp = TuningParams(lam_o, m * rep.lambda_star, inf_ball_radius=radius)
        res = k.solver(problem, tp, cfg, x0)
        x0 = res.estimate
        path.append(tp.lambda_star)
        err = float(np.linalg.norm(res.estimate - truth))
        if best is None or err < best[0]:
            best = (err, tp.lambda_star, res)
    return best[1], best[2], truth, path


def _screened_trial(monkeypatch, case):
    """Run the case's trial 0 and check that its record equals the full path's.
    Returns the full path's lambdas, largest first, one letter per solve of
    the trial, in order, and the lambda each solved. The letters: F a full-tolerance solve, C one that carried a give_up
    checkpoint and converged, A one abandoned there, S a screening solve."""
    spec = SweepSpec(**_SCREENED[case], o_grid=(10,), trials_per_cell=1, base_seed=4,
                     adversary_grid=({"strategy": "random_large", "magnitude": 10.0},))
    calls, lams = [], []
    solve = E._solve

    def logged(kind, p, tp, cfg, x0=None, give_up=None):
        res = solve(kind, p, tp, cfg, x0, give_up)
        if cfg.rel_tol == spec.rel_tol:
            calls.append("F" if give_up is None else "CA"[not res.converged])
        else:
            assert cfg.rel_tol == E.SCREEN_REL_TOL and give_up is None and res.converged
            calls.append("S")
        lams.append(tp.lambda_star)
        return res

    monkeypatch.setattr(E, "_solve", logged)
    rec = run_trial(spec, 0, 0)
    lam_star, res, truth, path = _full_path(spec, 0)
    metrics = error_metrics(res.estimate, truth)
    assert (rec.lambda_star, rec.iterations, rec.converged) == (lam_star, res.iterations,
                                                               int(res.converged))
    assert (rec.error, rec.rel_error, rec.weighted_error) == (
        metrics["error"], metrics["rel_error"], metrics["error"])
    return path, "".join(calls), lams


@pytest.mark.parametrize("margin, abandons", [(0.0, True), (math.inf, False),
                                              (_DEFAULT_MARGIN, True)])
@pytest.mark.parametrize("case", sorted(_SCREENED))
def test_grid_oracle_early_stop_keeps_the_full_path_pick(monkeypatch, case, margin, abandons):
    """The record equals the full path's for every outcome of the checkpoint.
    After the first lambda each solve carries a give_up checkpoint; an
    infinite margin abandons none. An abandoned lambda starts the screening
    chain: the path stops if the chain rejects, as it does for every case at
    the default margin, else that lambda is solved again in full and the path
    goes on without checkpoints (margin 0, where the largest lambdas' tie in
    error is hopeless, does this for lasso and matrix_cs)."""
    monkeypatch.setattr(E, "SCREEN_MARGIN", margin)
    path, calls, lams = _screened_trial(monkeypatch, case)
    if not abandons:
        assert calls == "F" + "C" * (len(path) - 1) and lams == path
        return
    ran = re.fullmatch("(FC*A)(S*)(F*)", calls)
    assert ran
    k, screened = len(ran[1]) - 1, len(ran[2])  # the abandoned lambda, the chain's length
    if ran[3]:  # the screen kept a lambda: the abandoned one is solved again, then the rest
        assert screened >= 1 and margin != _DEFAULT_MARGIN
        assert lams == path[:k + 1] + path[k + 1:k + 1 + screened] + path[k:]
    else:  # the screen rejected the rest of the path: every lambda solved once
        assert lams == path


@pytest.mark.parametrize("case", sorted(_SCREENED))
def test_grid_oracle_solves_an_abandoned_lambda_again_when_the_screen_keeps_one(
        monkeypatch, case):
    """A screen that does not reject sends the path back to the abandoned
    lambda, solved in full from the same warm start, and on without
    checkpoints; the record still equals the full path's."""
    monkeypatch.setattr(E, "_screen_rejects", lambda *args: False)
    path, calls, lams = _screened_trial(monkeypatch, case)
    ran = re.fullmatch("(FC*A)(F+)", calls)
    assert ran
    k = len(ran[1]) - 1
    assert lams == path[:k + 1] + path[k:]
