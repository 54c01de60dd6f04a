from __future__ import annotations

import math
import signal
import warnings

import numpy as np
import pytest

from admitsim import policy
from admitsim.risk import RiskTable
from oracles import bootstrap_auc_se, pairwise_auc


def _table(p_hat, outcome, program=None, gpa=None, decile=None, field=None, fyg=None):
    n = len(p_hat)
    return RiskTable(
        student_id=np.array([f"s{i:04d}" for i in range(n)]),
        program_id=np.array(["P0"] * n if program is None else program),
        quota=np.array(["gpa"] * n),
        p_hat=np.asarray(p_hat, dtype=float),
        outcome=np.asarray(outcome),
        gpa=gpa,
        human_decile=decile,
        isced_field=field,
        first_year_gpa=fyg,
    )


# ---------------------------------------------------------------------------
# AUC


def test_auc_trivial_cases():
    assert policy.auc([0.1, 0.9], [0, 1]) == 1.0
    assert policy.auc([0.9, 0.1], [0, 1]) == 0.0
    assert policy.auc([0.5, 0.5], [0, 1]) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        policy.auc([0.1, 0.2], [1, 1])


def test_auc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        # coarse score grid forces plenty of ties
        scores = rng.integers(0, 8, size=n).astype(float) / 7.0
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert policy.auc(scores, labels) == pairwise_auc(scores, labels), f"trial {trial}"


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=200)
    labels = rng.integers(0, 2, size=200)
    labels[0], labels[1] = 0, 1
    a1 = policy.auc(scores, labels)
    a2 = policy.auc(np.exp(scores), labels)
    assert a1 == a2


def test_delong_se_within_15pct_of_bootstrap():
    rng = np.random.default_rng(42)
    n = 500
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    scores = rng.normal(size=n) + 0.8 * labels
    value, se = policy.auc_se(scores, labels)
    assert 0.5 < value < 1.0
    boot = bootstrap_auc_se(scores, labels, n_rep=2000, seed=1)
    assert abs(se - boot) / boot < 0.15


def test_delong_se_shrinks_with_n():
    rng = np.random.default_rng(0)
    ses = []
    for n in (100, 400, 1600):
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = rng.normal(size=n) + labels
        ses.append(policy.auc_se(scores, labels)[1])
    assert ses[0] > ses[1] > ses[2]


# ---------------------------------------------------------------------------
# contraction


def test_contraction_curve_equal_bins():
    rng = np.random.default_rng(2)
    n = 300
    p = rng.random(n)
    y = (rng.random(n) < p).astype(int)
    curve = policy.contraction_curve(_table(p, y), grouping="ungrouped", n_bins=10)
    assert curve.counts.tolist() == [30] * 10
    # weighted bin means recombine to the overall rate
    overall = float(np.dot(curve.rates, curve.counts) / curve.counts.sum())
    assert overall == pytest.approx(y.mean(), abs=1e-12)
    # scores informative: lowest bin clearly below highest
    assert curve.rates[0] < curve.rates[-1]


def test_contraction_curve_small_group_warns():
    p = np.linspace(0, 1, 7)
    y = np.ones(7, dtype=int)
    with pytest.warns(UserWarning, match="rank index"):
        curve = policy.contraction_curve(_table(p, y), grouping="ungrouped", n_bins=10)
    assert curve.counts.sum() == 7
    # a string-keyed group is named as a plain string, not as a numpy scalar repr
    table = _table(p, y, program=["p003"] * 7)
    with pytest.warns(UserWarning, match="rank index") as caught:
        policy.contraction_curve(table, grouping="within_program", n_bins=10)
    message = str(caught[0].message)
    assert message.startswith("group 'p003' has 7 students")
    assert "np.str_" not in message


def test_contraction_curve_pools_groups_by_membership():
    # two programs of different size; pooled bins must sum the members
    p = np.concatenate([np.linspace(0, 1, 20), np.linspace(0, 1, 10)])
    y = np.ones(30, dtype=int)
    prog = np.array(["A"] * 20 + ["B"] * 10)
    curve = policy.contraction_curve(_table(p, y, program=prog), grouping="within_program", n_bins=10)
    assert curve.counts.tolist() == [3] * 10


def test_contraction_counterfactual_counts():
    # model ranks dropouts at the bottom; gpa baseline rejects graduates
    p_hat = np.array([0.1, 0.2, 0.8, 0.9, 0.85, 0.05])
    outcome = np.array([0, 0, 1, 1, 1, 0])
    gpa = np.array([9.0, 8.0, 3.0, 4.0, 5.0, 10.0])
    table = _table(p_hat, outcome, gpa=gpa)
    report = policy.contraction_counterfactual(table, baseline="gpa", fraction=0.5)
    assert report.n_rejected == 3
    assert report.model_graduates_rejected == 0
    assert report.baseline_graduates_rejected == 3
    assert report.dropout_reduction == 3
    assert report.pp_difference == pytest.approx(100.0)


def test_contraction_counterfactual_ceil_per_program():
    p = np.linspace(0.01, 0.99, 7)
    y = np.ones(7, dtype=int)
    table = _table(p, y, gpa=np.linspace(2, 12, 7))
    report = policy.contraction_counterfactual(table, baseline="gpa", fraction=0.10)
    assert report.n_rejected == 1  # ceil(0.7)


def test_contraction_counterfactual_human_baseline():
    p_hat = np.array([0.9, 0.1, 0.5, 0.4])
    outcome = np.array([1, 0, 1, 0])
    decile = np.array([1.0, 2.0, 10.0, 9.0])  # decile 1 = best
    table = _table(p_hat, outcome, decile=decile)
    report = policy.contraction_counterfactual(table, baseline="human", fraction=0.5)
    # human baseline rejects deciles 10 and 9 -> one graduate lost
    assert report.baseline_graduates_rejected == 1
    assert report.model_graduates_rejected == 0


def test_contraction_counterfactual_identical_rankings_tie_out():
    rng = np.random.default_rng(9)
    p = rng.random(50)
    y = rng.integers(0, 2, size=50)
    table = _table(p, y, gpa=p.copy())
    report = policy.contraction_counterfactual(table, baseline="gpa", fraction=0.2)
    assert report.dropout_reduction == 0
    assert report.pp_difference == 0.0


# ---------------------------------------------------------------------------
# correlations


def test_pearson_spearman_basics():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert policy.pearson(x, x) == pytest.approx(1.0)
    assert policy.spearman(x, x**3) == pytest.approx(1.0)  # monotone -> rank corr 1
    assert policy.pearson(x, -x) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        policy.pearson([1.0, 2.0], [1.0, 2.0])


def test_spearman_average_rank_ties():
    # tied x values get the average rank; compare against direct computation
    x = np.array([1.0, 1.0, 2.0, 3.0])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    rx = np.array([1.5, 1.5, 3.0, 4.0])
    ry = np.array([1.0, 2.0, 3.0, 4.0])
    assert policy.spearman(x, y) == pytest.approx(policy.pearson(rx, ry))


def test_score_outcome_correlations():
    rng = np.random.default_rng(14)
    p = rng.random(500)
    y = (rng.random(500) < p).astype(int)
    fyg = 4.0 + 4.0 * p + rng.normal(0, 1.0, 500)
    out = policy.score_outcome_correlations(_table(p, y, fyg=fyg))
    assert out["p_hat_vs_outcome"] > 0.3
    assert out["p_hat_vs_first_year_gpa"] > 0.5


def test_within_program_rank_corr_perfect():
    p = np.tile(np.linspace(0.1, 0.9, 10), 3)
    y = np.ones(30, dtype=int)
    prog = np.repeat(["A", "B", "C"], 10)
    table = _table(p, y, program=prog)
    assert policy.within_program_rank_corr(table, p**3) == pytest.approx(1.0)
    assert policy.within_program_rank_corr(table, -p) == pytest.approx(-1.0)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a call that never returns."""

    def expire(signum, frame):
        raise TimeoutError("rank routine did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _nan_as_top(x):
    # NaN ranks above every number, one rank per NaN in input order
    x = np.array(x, dtype=float)
    nan = np.isnan(x)
    x[nan] = np.nanmax(x) + 1.0 + np.arange(nan.sum())
    return x


def test_rank_statistics_return_on_nan(deadline):
    rng = np.random.default_rng(17)
    s = rng.integers(0, 6, size=60).astype(float)
    s[[3, 11, 12, 40]] = np.nan
    y = rng.integers(0, 2, size=60)
    y[:2] = [0, 1]
    value, se = policy.auc_se(s, y)
    assert (value, se) == policy.auc_se(_nan_as_top(s), y)
    assert value == policy.auc(s, y) == policy.auc(_nan_as_top(s), y)
    other = rng.random(60)
    assert policy.spearman(s, other) == policy.spearman(_nan_as_top(s), other)

    prog = np.repeat(["A", "B", "C"], 20)
    table = _table(rng.random(60), y, program=prog)
    got = policy.within_program_rank_corr(table, s)
    want = policy.within_program_rank_corr(table, np.concatenate([_nan_as_top(s[prog == p]) for p in "ABC"]))
    assert math.isfinite(got) and got == want


# ---------------------------------------------------------------------------
# two-way fixed effects


def test_fe_exact_recovery_noiseless():
    rng = np.random.default_rng(21)
    n_i, n_j = 40, 8
    gamma = rng.normal(0, 0.3, n_i)
    gamma -= gamma.mean()
    delta = rng.normal(0, 0.5, n_j)
    delta -= delta.mean()
    alpha = 0.6
    si = np.repeat(np.arange(n_i), n_j)
    pj = np.tile(np.arange(n_j), n_i)
    y = alpha + gamma[si] + delta[pj]
    res = policy.fit_two_way_fe(si, pj, y, spec="both")
    assert res.converged
    assert np.max(np.abs(res.residuals)) < 1e-9
    assert res.alpha == pytest.approx(alpha, abs=1e-9)
    got_gamma = np.array([res.gamma[i] for i in range(n_i)])
    assert np.allclose(got_gamma, gamma, atol=1e-9)


def test_fe_residuals_orthogonal_to_groups():
    rng = np.random.default_rng(22)
    n = 3000
    si = rng.integers(0, 50, n)
    pj = rng.integers(0, 12, n)
    y = 0.3 * si / 50 + 0.1 * pj + rng.normal(0, 0.2, n)
    res = policy.fit_two_way_fe(si, pj, y, spec="both")
    assert res.converged
    for i in np.unique(si):
        assert abs(res.residuals[si == i].mean()) < 1e-8
    for j in np.unique(pj):
        assert abs(res.residuals[pj == j].mean()) < 1e-8


def test_fe_single_spec_variants():
    rng = np.random.default_rng(23)
    si = rng.integers(0, 10, 500)
    pj = rng.integers(0, 5, 500)
    y = rng.normal(size=500)
    r1 = policy.fit_two_way_fe(si, pj, y, spec="student_only")
    assert r1.delta == {} and len(r1.gamma) == 10
    r2 = policy.fit_two_way_fe(si, pj, y, spec="program_only")
    assert r2.gamma == {} and len(r2.delta) == 5
    with pytest.raises(ValueError):
        policy.fit_two_way_fe(si, pj, y, spec="nonsense")
    with pytest.raises(ValueError):
        policy.fit_two_way_fe(si, pj, y, spec="both_same_field")


def test_fe_same_field_beta_recovered():
    rng = np.random.default_rng(24)
    n_i, n_j = 400, 20
    si = np.repeat(np.arange(n_i), n_j)
    pj = np.tile(np.arange(n_j), n_i)
    gamma = rng.normal(0, 0.2, n_i)
    delta = rng.normal(0, 0.3, n_j)
    same = (rng.random(len(si)) < 0.3).astype(float)
    beta = 0.006
    y = 0.5 + gamma[si] + delta[pj] + beta * same + rng.normal(0, 0.05, len(si))
    res = policy.fit_two_way_fe(si, pj, y, spec="both_same_field", same_field=same)
    assert res.converged and not res.degenerate
    assert abs(res.beta - beta) < 2.0 * res.beta_se
    assert res.beta_se < 0.01


def test_fe_degenerate_covariate_flagged():
    # same_field constant within every (i, j) pattern: fully absorbed
    si = np.repeat(np.arange(10), 4)
    pj = np.tile(np.arange(4), 10)
    same = np.zeros(40)
    y = np.random.default_rng(0).normal(size=40)
    res = policy.fit_two_way_fe(si, pj, y, spec="both_same_field", same_field=same)
    assert res.degenerate
    assert math.isnan(res.beta)


def test_residual_matrix_groups_cells():
    resid = np.array([1.0, 3.0, 5.0, 7.0])
    rows = np.array(["a", "a", "b", "b"])
    cols = np.array(["x", "y", "x", "x"])
    mat = policy.residual_matrix(resid, rows, cols)
    assert mat["a"]["x"] == 1.0
    assert mat["a"]["y"] == 3.0
    assert mat["b"]["x"] == 6.0
